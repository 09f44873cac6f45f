"""A single A3C agent.

Each agent owns an environment, a local θ snapshot, and its own network
object (layer activation caches are per-agent).  One *routine* (paper
Figure 2 and Table 2) is:

1. parameter sync — copy global θ to local θ;
2. up to ``t_max`` inference tasks, each choosing an action from π and
   stepping the environment;
3. a bootstrapping inference of V(s_{t+k}) (skipped at terminal states);
4. a training task: batched FW over the rollout, host-side objective
   gradients, BW + GC, and a shared-RMSProp update of global θ.
"""

from __future__ import annotations

import dataclasses
import time
import typing

import numpy as np

from repro.core.config import A3CConfig
from repro.core.execution import apply_rollout_update, derive_policy_seed
from repro.core.parameter_server import ParameterServer
from repro.core.rollout import Rollout
from repro.envs.base import Env
from repro.nn.losses import softmax
from repro.nn.network import A3CNetwork
from repro.nn.parameters import ParameterSet


@dataclasses.dataclass
class RoutineStats:
    """What happened during one agent routine."""

    steps: int                           # inference tasks performed
    bootstrap_inferences: int            # 0 or 1
    trained: bool
    policy_loss: float = 0.0
    value_loss: float = 0.0
    entropy: float = 0.0
    episode_scores: typing.Tuple[float, ...] = ()


class A3CAgent:
    """One asynchronous actor-critic worker."""

    def __init__(self, agent_id: int, env: Env, network: A3CNetwork,
                 server: ParameterServer, config: A3CConfig,
                 rng: typing.Optional[np.random.Generator] = None):
        self.agent_id = agent_id
        self.env = env
        self.network = network
        self.server = server
        self.config = config
        self.rng = rng or np.random.default_rng(
            derive_policy_seed(config.seed, agent_id))
        self.local_params: ParameterSet = server.snapshot()
        self.rollout = Rollout()
        self._state = env.reset()
        self._episode_score = 0.0
        self.episodes_finished = 0

    def _policy_step(self) -> typing.Tuple[int, float, np.ndarray]:
        """One inference task: sample an action from π(a|s; local θ)."""
        state = self._state
        logits, values = self.network.forward(state[None], self.local_params)
        probs = softmax(logits[0])
        action = int(self.rng.choice(len(probs), p=probs))
        return action, float(values[0]), state

    def run_routine(self, lat=None) -> RoutineStats:
        """Execute one full sync / rollout / train routine.

        ``lat`` is an optional :class:`repro.obs.lat.RoutineLatency`;
        when present the routine's phases are attributed to its
        ``param_sync`` / ``infer`` / ``env_step`` / ``batch_form`` /
        ``train`` segments.
        """
        timed = lat is not None
        phase_started = time.perf_counter_ns() if timed else 0
        self.server.snapshot_into(self.local_params)
        if timed:
            lat.add_ns("param_sync",
                       time.perf_counter_ns() - phase_started)
        self.rollout.clear()
        scores: typing.List[float] = []

        terminal = False
        for _ in range(self.config.t_max):
            if timed:
                phase_started = time.perf_counter_ns()
            action, value, state = self._policy_step()
            if timed:
                lat.add_ns("infer",
                           time.perf_counter_ns() - phase_started)
                phase_started = time.perf_counter_ns()
            obs, reward, done, info = self.env.step(action)
            if timed:
                lat.add_ns("env_step",
                           time.perf_counter_ns() - phase_started)
            self._episode_score += info.get("raw_reward", reward)
            self.rollout.add(state, action, reward, value)
            self._state = obs
            if done:
                terminal = True
                if not info.get("life_lost"):
                    # Real game over (or time limit): the full-game score is
                    # what the paper's training graphs track.  A life loss
                    # only ends the *training* episode; the game score keeps
                    # accumulating across the pseudo-reset.
                    scores.append(self._episode_score)
                    self.episodes_finished += 1
                    self._episode_score = 0.0
                if timed:
                    phase_started = time.perf_counter_ns()
                self._state = self.env.reset()
                if timed:
                    lat.add_ns("env_step",
                               time.perf_counter_ns() - phase_started)
                break

        steps = len(self.rollout)
        self.server.add_steps(steps)

        # Bootstrapping inference (an extra FW, paper Section 2.2).
        bootstrap_inferences = 0
        bootstrap_value = 0.0
        if not terminal:
            if timed:
                phase_started = time.perf_counter_ns()
            _, values = self.network.forward(self._state[None],
                                             self.local_params)
            if timed:
                lat.add_ns("infer",
                           time.perf_counter_ns() - phase_started)
            bootstrap_value = float(values[0])
            bootstrap_inferences = 1

        # Training task (the shared rollout-to-update path).
        if timed:
            phase_started = time.perf_counter_ns()
        states, actions, returns = self.rollout.batch(
            bootstrap_value, self.config.gamma)
        if timed:
            lat.add_ns("batch_form",
                       time.perf_counter_ns() - phase_started)
        loss = apply_rollout_update(self.network, self.local_params,
                                    self.server, states, actions,
                                    returns, self.config.entropy_beta,
                                    lat=lat)

        return RoutineStats(steps=steps,
                            bootstrap_inferences=bootstrap_inferences,
                            trained=True,
                            policy_loss=loss.policy_loss,
                            value_loss=loss.value_loss,
                            entropy=loss.entropy,
                            episode_scores=tuple(scores))
