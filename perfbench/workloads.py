"""The three workloads.

All are closed loops in one process: the next op starts when the last
one ends.  A workload builds its program state once per set-up, runs
fixed-size chunks of work, and says which callables mark an op and which
callables of each layer to trace.

* ``a3c_serial`` — :class:`~repro.core.A3CTrainer` with serial actors
  on breakout, 4 agents, t_max 5: the paper's host structure, with
  scalar games, the wrapper chain, batch-1 inference and an RMSProp
  update every routine.
* ``paac_batched`` — :class:`~repro.core.paac.PAACTrainer` over a
  :class:`~repro.envs.BatchedVectorEnv` of 16 breakout slots: the same
  network and game through the structure-of-arrays engine, inference at
  batch 16 and training at batch 80.  GEMMs dominate; RMSProp and the
  games nearly vanish, so a per-call or optimizer change should not
  move it, and a batch-shape change shows here first.
* ``platform_sweep`` — the Figure 8 agent sweep through
  :class:`~repro.platforms.ThroughputSetup` over three backends.  No nn
  or env code runs; it measures what the modelled numbers cost to make.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
import traceback
import typing

import numpy as np

from perfbench import layers
from perfbench import spans as sp
from perfbench.stats import Outcome

_now = time.perf_counter

GAME = "breakout"
#: Learning-rate anneal horizon, fixed so that neither chunking nor run
#: length changes the trajectory.
ANNEAL_STEPS = 10_000_000


class OpClock:
    """Times ops and counts their failures.

    While :attr:`tracer` is set, each op is also a span named
    :attr:`span` that the layer spans nest in.
    """

    def __init__(self, span: str):
        self.span = span
        self.tracer: typing.Optional[sp.Tracer] = None
        self.durations: typing.List[float] = []
        self.outcome = Outcome()
        self._started: typing.Optional[float] = None

    def begin(self, data=None) -> None:
        if self.tracer is not None:
            self.tracer.op = len(self.durations)
            self.tracer.begin(self.span, data)
        self._started = _now()

    def end(self, ok: bool) -> None:
        elapsed = _now() - self._started
        self._started = None
        if self.tracer is not None:
            self.tracer.end()
        self.durations.append(elapsed)
        self.outcome.record(ok)

    def abort(self) -> None:
        """Fail the op in flight, if any (its code raised)."""
        if self.tracer is not None:
            self.tracer.unwind()
        if self._started is not None:
            self.durations.append(_now() - self._started)
            self._started = None
            self.outcome.record(False)


def _finite(*values: float) -> bool:
    return all(math.isfinite(value) for value in values)


def params_hash(params) -> str:
    """SHA-256 prefix over every parameter's name and fp32 bytes."""
    digest = hashlib.sha256()
    for name in params.names():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name]).tobytes())
    return digest.hexdigest()[:12]


class Chunk(typing.NamedTuple):
    """What one chunk of work did."""

    steps: int
    routines: int
    plan_hits: int = 0
    plan_misses: int = 0


class Workload:
    """Interface the runner drives."""

    name = ""
    #: Span name of one op.
    op_span = "core.routine"
    #: Chunks a run may take; recorded hash chains are this long.
    max_chunks = 0
    #: Whether the final state is checked against a recorded hash.
    hashed = False
    #: Whether the reference kernel includes its NumPy part.
    reference_numpy = True

    def __init__(self, golden: typing.Optional[dict] = None):
        #: Recorded reference values (``perfbench/golden.json``).
        self.golden = golden or {}

    def load(self) -> None:
        """Import the program (counted in set-up time)."""
        raise NotImplementedError

    def build(self, seed: int):
        """One complete set-up from ``seed``: program state, warmed up."""
        raise NotImplementedError

    def hook_ops(self, state, clock: OpClock,
                 patches: sp.Patches) -> None:
        """Patch the callables that start and end an op."""

    def instrument(self, state, tracer: sp.Tracer,
                   patches: sp.Patches) -> None:
        """Patch every traced callable of every layer."""
        raise NotImplementedError

    def run_chunk(self, state, clock: OpClock) -> Chunk:
        raise NotImplementedError

    def record(self, input_sets: int) -> dict:
        """The reference values to check runs of this workload against."""
        raise NotImplementedError


class _TrainState:
    def __init__(self, trainer, target: int):
        self.trainer = trainer
        self.target = target


class _Training(Workload):
    """Chunking and the parameter-hash check shared by both trainers."""

    hashed = True
    t_max = 5
    warmup_steps = 0
    chunk_steps = 0

    def _train(self, trainer, max_steps: int) -> None:
        trainer.train(max_steps=max_steps)

    def run_chunk(self, state, clock) -> Chunk:
        trainer = state.trainer
        before_steps = trainer.server.global_step
        before_ops = len(clock.durations)
        state.target += self.chunk_steps
        self._train(trainer, state.target)
        return Chunk(steps=trainer.server.global_step - before_steps,
                     routines=len(clock.durations) - before_ops)

    def final_hash(self, state) -> str:
        return params_hash(state.trainer.server.params)

    def record(self, input_sets: int) -> dict:
        """``input set -> hash after each of max_chunks chunks``."""
        chains = {}
        for seed in range(input_sets):
            state = self.build(seed)
            clock = OpClock(self.op_span)
            chain = []
            for _ in range(self.max_chunks):
                self.run_chunk(state, clock)
                chain.append(self.final_hash(state))
            chains[str(seed)] = chain
            print(f"{self.name} input set {seed}: {len(chain)} chunks, "
                  f"final hash {chain[-1]}", flush=True)
        return chains


class A3CSerial(_Training):
    name = "a3c_serial"
    agents = 4
    warmup_steps = 20
    chunk_steps = 100
    max_chunks = 80

    def load(self) -> None:
        from repro.ale import make_game
        from repro.core import A3CConfig, A3CTrainer
        from repro.envs import make_atari_env
        from repro.nn.network import A3CNetwork
        self._make_game = make_game
        self._config = A3CConfig
        self._trainer = A3CTrainer
        self._make_env = make_atari_env
        self._network = A3CNetwork

    def build(self, seed: int) -> _TrainState:
        make_game, make_env = self._make_game, self._make_env
        actions = make_game(GAME).action_space.n
        config = self._config(num_agents=self.agents, t_max=self.t_max,
                              max_steps=self.warmup_steps,
                              anneal_steps=ANNEAL_STEPS, seed=seed)
        trainer = self._trainer(lambda agent: make_env(make_game(GAME)),
                                lambda: self._network(actions), config)
        self._train(trainer, self.warmup_steps)
        return _TrainState(trainer, self.warmup_steps)

    def _train(self, trainer, max_steps: int) -> None:
        trainer.train(max_steps=max_steps, actors="serial")

    def hook_ops(self, state, clock, patches) -> None:
        def hook(run_routine):
            def timed(*args, **kwargs):
                clock.begin()
                ok = False
                try:
                    stats = run_routine(*args, **kwargs)
                    ok = _finite(stats.policy_loss, stats.value_loss,
                                 stats.entropy)
                    return stats
                finally:
                    clock.end(ok)
            return timed

        for agent in state.trainer.agents:
            patches.wrap(agent, "run_routine", hook)

    def instrument(self, state, tracer, patches) -> None:
        from repro.core import agent as agent_module
        trainer = state.trainer
        layers.instrument_server(trainer.server, tracer, patches,
                                 sync=True)
        layers.instrument_loss(tracer, patches)
        patches.wrap(agent_module, "apply_rollout_update",
                     lambda fn: tracer.wrap("core.train", fn))
        for agent in trainer.agents:
            layers.instrument_network(agent.network, tracer, patches)
            layers.instrument_scalar_env(agent.env, tracer, patches)


class PAACBatched(_Training):
    name = "paac_batched"
    batch = 16
    #: One routine is t_max x batch = 80 steps.
    warmup_steps = 80
    chunk_steps = 160
    max_chunks = 100

    def load(self) -> None:
        from repro.core import A3CConfig
        from repro.core import paac
        from repro.envs import BatchedVectorEnv
        from repro.nn.network import A3CNetwork
        self._config = A3CConfig
        self._paac = paac
        self._venv = BatchedVectorEnv
        self._network = A3CNetwork

    def build(self, seed: int) -> _TrainState:
        venv = self._venv(GAME, self.batch, seed=seed)
        actions = venv.action_space.n
        config = self._config(num_agents=self.batch, t_max=self.t_max,
                              max_steps=self.warmup_steps,
                              anneal_steps=ANNEAL_STEPS, seed=seed)
        trainer = self._paac.PAACTrainer(
            None, lambda: self._network(actions), config, vector_env=venv)
        self._train(trainer, self.warmup_steps)
        return _TrainState(trainer, self.warmup_steps)

    def hook_ops(self, state, clock, patches) -> None:
        # A PAAC routine runs from the first inference of its rollout to
        # the applied update; both calls come from PAACTrainer.train.
        def begin(rollout_phase):
            def timed(*args, **kwargs):
                clock.begin()
                return rollout_phase(*args, **kwargs)
            return timed

        def end(apply_update):
            def timed(*args, **kwargs):
                ok = False
                try:
                    tracer = clock.tracer
                    if tracer is not None:
                        loss = tracer.call("core.train", apply_update,
                                           args, kwargs)
                    else:
                        loss = apply_update(*args, **kwargs)
                    ok = _finite(loss.policy_loss, loss.value_loss,
                                 loss.entropy)
                    return loss
                finally:
                    clock.end(ok)
            return timed

        patches.wrap(state.trainer, "_rollout_phase", begin)
        patches.wrap(self._paac, "apply_rollout_update", end)

    def instrument(self, state, tracer, patches) -> None:
        trainer = state.trainer
        layers.instrument_server(trainer.server, tracer, patches,
                                 sync=False)
        layers.instrument_loss(tracer, patches)
        layers.instrument_network(trainer.network, tracer, patches)
        layers.instrument_vec_env(trainer.vector_env, tracer, patches)


class _SweepState:
    def __init__(self, setups, points):
        self.setups = setups
        self.points = points


class PlatformSweep(Workload):
    name = "platform_sweep"
    op_span = "sim.measure"
    reference_numpy = False
    t_max = 5
    agent_counts = (1, 2, 4, 8, 16)
    #: ``family -> (backend, routines per agent)``.  The routine counts
    #: give each family about a third of the host time: the FPGA sim
    #: runs ~2k routines/s on one core, the GPU cost models ~30-45k.
    families = {"fpga": ("fa3c-fpga", 8),
                "gpu": ("a3c-cudnn", 128),
                "ga3c": ("ga3c-tf", 176)}
    max_chunks = 10_000

    def load(self) -> None:
        from repro import backends
        from repro.perf import stageplan
        from repro.platforms import ThroughputSetup
        self._backends = backends
        self._cache = stageplan.CACHE
        self._setup = ThroughputSetup

    def build(self, seed: int) -> _SweepState:
        # Every set-up starts from a cold plan cache, so repeated
        # set-ups in one process cost what the first one does.
        self._cache.clear()
        setups = {}
        for family, (backend_name, _) in self.families.items():
            backend = self._backends.create(backend_name)
            backend.compile_plans(self.t_max)
            setup = self._setup(backend)
            setup.measure(1, t_max=self.t_max, routines_per_agent=2)
            setups[family] = setup
        points = [(family, count) for family in self.families
                  for count in self.agent_counts]
        random.Random(seed).shuffle(points)
        return _SweepState(setups, points)

    def expected(self, family: str, agents: int):
        """Recorded ``[ips, sim_seconds]`` as float hex strings."""
        backend, routines = self.families[family]
        table = self.golden.get("sim", {}).get(backend, {})
        return table.get(str(routines), {}).get(str(agents))

    def instrument(self, state, tracer, patches) -> None:
        layers.instrument_sim([setup.platform
                               for setup in state.setups.values()],
                              tracer, patches)

    def measure(self, state, family: str, agents: int):
        return state.setups[family].measure(
            agents, t_max=self.t_max,
            routines_per_agent=self.families[family][1])

    def run_chunk(self, state, clock) -> Chunk:
        hits, misses = self._cache.hits, self._cache.misses
        routines = 0
        for family, agents in state.points:
            count = agents * self.families[family][1]
            clock.begin((family, count))
            ok = False
            try:
                result = self.measure(state, family, agents)
                ok = [result.ips.hex(), result.sim_seconds.hex()] == \
                    self.expected(family, agents)
            except Exception:  # one failed op must not end the sweep
                traceback.print_exc()
            finally:
                clock.end(ok)
            routines += count
        return Chunk(steps=routines * self.t_max, routines=routines,
                     plan_hits=self._cache.hits - hits,
                     plan_misses=self._cache.misses - misses)

    def record(self, input_sets: int) -> dict:
        """``backend -> routines per agent -> agents -> [ips,
        sim_seconds]``; modelled numbers do not depend on the input set
        (the point order) or the host."""
        state = self.build(0)
        table: dict = {}
        for family, (backend, routines) in self.families.items():
            for agents in self.agent_counts:
                result = self.measure(state, family, agents)
                table.setdefault(backend, {}).setdefault(
                    str(routines), {})[str(agents)] = \
                    [result.ips.hex(), result.sim_seconds.hex()]
        return table


REGISTRY: typing.Dict[str, typing.Type[Workload]] = {
    workload.name: workload
    for workload in (A3CSerial, PAACBatched, PlatformSweep)
}
