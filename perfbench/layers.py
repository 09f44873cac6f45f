"""Which callables of each ``repro`` layer are traced, and the per-layer
metrics computed from their spans.

Span names are ``<layer>.<what>``; the layer is the ``repro`` package
the callable lives in:

=================  ====================================================
``core.*``         ``routine`` (one op), ``param_sync``
                   (``ParameterServer.snapshot_into``), ``train``
                   (``apply_rollout_update``), ``apply``
                   (``ParameterServer.apply_gradients``)
``optim.rmsprop``  the shared RMSProp ``step``
``nn.*``           ``forward`` / ``backward`` of the network, ``loss``,
                   ``<Layer>.fw|bw|gc`` per parameterised layer,
                   ``act.fw|bw`` for ReLU and Flatten
``envs.*``         ``step`` / ``reset`` of the env the trainer holds,
                   ``skip`` (one MaxAndSkip cycle), ``preprocess``
``ale.*``          ``step`` / ``reset`` / ``render`` of the game engine
``backends.*``     ``build_sim``
``sim.*``          ``measure`` (one op), ``run`` (``Engine.run``)
=================  ====================================================
"""

from __future__ import annotations

import collections
import typing

from perfbench import spans as sp

NN_LAYERS = ("Conv1", "Conv2", "FC3", "FC4")
NN_STAGES = ("fw", "bw", "gc")
FAMILIES = ("fpga", "gpu", "ga3c")

#: ``name -> (unit, better)`` of every per-layer metric, in report order.
#: Busy times and counts are means per op (routine or ``measure()``
#: call), hence the ``/op`` units.
METRICS: typing.Dict[str, typing.Tuple[str, str]] = {
    "ale.step.calls": ("count/op", "lower"),
    "ale.step.busy_s": ("s/op", "lower"),
    "ale.render.busy_s": ("s/op", "lower"),
    "ale.frames": ("count/op", "lower"),
    "ale.observed_frame_ratio": ("ratio", "higher"),
    "envs.step.calls": ("count/op", "lower"),
    "envs.step.busy_s": ("s/op", "lower"),
    "envs.preprocess.busy_s": ("s/op", "lower"),
    "envs.self_s": ("s/op", "lower"),
    **{f"nn.{layer}.{stage}.{kind}": (unit, "lower")
       for layer in NN_LAYERS for stage in NN_STAGES
       for kind, unit in (("busy_s", "s/op"), ("calls", "count/op"))},
    "nn.act.busy_s": ("s/op", "lower"),
    "nn.loss.busy_s": ("s/op", "lower"),
    "nn.infer.busy_s": ("s/op", "lower"),
    "nn.infer.calls": ("count/op", "lower"),
    "optim.rmsprop.calls": ("count/op", "lower"),
    "optim.rmsprop.busy_s": ("s/op", "lower"),
    "core.routine.busy_s": ("s/op", "lower"),
    "core.param_sync.busy_s": ("s/op", "lower"),
    "core.rollout.busy_s": ("s/op", "lower"),
    "core.train.busy_s": ("s/op", "lower"),
    "core.apply.busy_s": ("s/op", "lower"),
    "core.self_s": ("s/op", "lower"),
    "core.unattributed_share": ("ratio", "lower"),
    "sim.measure.busy_s": ("s/op", "lower"),
    "backends.build_sim.busy_s": ("s/op", "lower"),
    "sim.run.busy_s": ("s/op", "lower"),
    "sim.events": ("count/op", "lower"),
    "sim.ns_per_event": ("ns/event", "lower"),
    "perf.plan_cache.hit_ratio": ("ratio", "higher"),
    **{f"{family}.{kind}": (unit, better) for family in FAMILIES
       for kind, unit, better in (("host_s", "s/op", "lower"),
                                  ("routines_per_s", "routines/s",
                                   "higher"))},
    "host.ref_kernel_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


# -- instrumentation --------------------------------------------------------

def _trace(patches: sp.Patches, tracer: sp.Tracer, owner, attr: str,
           name: str) -> None:
    patches.wrap(owner, attr, lambda fn: tracer.wrap(name, fn))


def instrument_network(network, tracer: sp.Tracer,
                       patches: sp.Patches) -> None:
    """Network FW/BW plus every layer's FW, BW and GC stage."""
    _trace(patches, tracer, network, "forward", "nn.forward")
    _trace(patches, tracer, network, "backward_and_grads", "nn.backward")
    for layer in network.model.layers:
        if layer.param_shapes():
            base = f"nn.{layer.name}"
            _trace(patches, tracer, layer, "grad_params", f"{base}.gc")
        else:
            # ReLU/Flatten GC is an empty call; tracing it would only
            # add overhead.
            base = "nn.act"
        _trace(patches, tracer, layer, "forward", f"{base}.fw")
        _trace(patches, tracer, layer, "backward_input", f"{base}.bw")


def instrument_server(server, tracer: sp.Tracer, patches: sp.Patches,
                      sync: bool) -> None:
    """Parameter sync (A3C only), gradient apply and RMSProp."""
    if sync:
        _trace(patches, tracer, server, "snapshot_into", "core.param_sync")
    _trace(patches, tracer, server, "apply_gradients", "core.apply")
    _trace(patches, tracer, server.optimizer, "step", "optim.rmsprop")


def instrument_loss(tracer: sp.Tracer, patches: sp.Patches) -> None:
    from repro.core import execution
    _trace(patches, tracer, execution, "a3c_loss_and_head_gradients",
           "nn.loss")


def instrument_scalar_env(env, tracer: sp.Tracer,
                          patches: sp.Patches) -> None:
    """The wrapper chain ``make_atari_env`` builds, and its game."""
    from repro.envs.wrappers import AtariPreprocessing, MaxAndSkip
    _trace(patches, tracer, env, "step", "envs.step")
    _trace(patches, tracer, env, "reset", "envs.reset")
    inner = env
    while hasattr(inner, "env"):
        if isinstance(inner, MaxAndSkip):
            _trace(patches, tracer, inner, "step", "envs.skip")
        elif isinstance(inner, AtariPreprocessing):
            _trace(patches, tracer, inner, "_process", "envs.preprocess")
        inner = inner.env
    _trace(patches, tracer, inner, "step", "ale.step")
    _trace(patches, tracer, inner, "reset", "ale.reset")
    _trace(patches, tracer, inner, "_render", "ale.render")


class _TracedPreprocessor:
    """A ``BatchPreprocessor`` whose calls are ``envs.preprocess`` spans.

    Calling an object looks ``__call__`` up on its type, so the
    instance is wrapped rather than patched.
    """

    def __init__(self, tracer: sp.Tracer, preprocessor):
        self._call = tracer.wrap("envs.preprocess", preprocessor)
        self._preprocessor = preprocessor

    def __call__(self, frames):
        return self._call(frames)

    def __getattr__(self, name: str):
        return getattr(self._preprocessor, name)


def instrument_vec_env(venv, tracer: sp.Tracer,
                       patches: sp.Patches) -> None:
    """``BatchedVectorEnv`` and its structure-of-arrays engine.

    ``ale.step`` spans keep the slot indices they stepped, so frames and
    observed frames can be counted per slot.
    """
    _trace(patches, tracer, venv, "step", "envs.step")
    _trace(patches, tracer, venv, "reset", "envs.reset")
    _trace(patches, tracer, venv, "_skip_slots", "envs.skip")
    patches.set(venv, "_pre", _TracedPreprocessor(tracer, venv._pre))
    engine = venv.engine

    def step_wrapper(step):
        def traced(actions, slots=None):
            data = engine._all_slots if slots is None else slots
            return tracer.call("ale.step", step, (actions, slots), {},
                               data)
        return traced

    patches.wrap(engine, "step", step_wrapper)
    _trace(patches, tracer, engine, "reset_slots", "ale.reset")
    _trace(patches, tracer, engine, "_render_slots", "ale.render")


def instrument_sim(backends_, tracer: sp.Tracer,
                   patches: sp.Patches) -> None:
    """``build_sim`` of each backend and every ``Engine.run``.

    A ``sim.run`` span keeps the number of events its engine scheduled.
    """
    from repro.sim.engine import Engine
    for backend in backends_:
        _trace(patches, tracer, backend, "build_sim", "backends.build_sim")

    def run_wrapper(run):
        def traced(engine, *args, **kwargs):
            index = tracer.begin("sim.run")
            try:
                return run(engine, *args, **kwargs)
            finally:
                tracer.spans[index][sp.DATA] = engine._sequence
                tracer.end()
        return traced

    patches.wrap(Engine, "run", run_wrapper)


# -- metrics ----------------------------------------------------------------

def _frames(span) -> int:
    data = span[sp.DATA]
    return 1 if data is None else len(data)


def per_layer(spans: typing.Sequence[list], op_span: str,
              plan_hits: int, plan_misses: int) -> typing.Dict[str, float]:
    """Every :data:`METRICS` entry derivable from spans, per op.

    Busy times and call counts are means per op (routine or
    ``measure()`` call) over the traced chunks; ratios and shares are
    over the whole traced window.  A layer that does not run in a
    workload reports 0.
    """
    self_times, children = sp.analyse(spans)
    table = sp.totals(spans, self_times)
    ops = [index for index, span in enumerate(spans)
           if span[sp.NAME] == op_span]
    if not ops:
        raise sp.TraceError(f"no {op_span!r} span was traced")
    per_op = 1.0 / len(ops)

    def calls(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[0] * per_op

    def busy(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[1] * per_op

    def self_of(prefix: str) -> float:
        return sum(own for name, (_, _, own) in table.items()
                   if name.startswith(prefix)) * per_op

    out: typing.Dict[str, float] = {}
    for name in ("ale.step", "envs.step", "optim.rmsprop"):
        out[f"{name}.calls"] = calls(name)
    for name in ("ale.step", "ale.render", "envs.step", "envs.preprocess",
                 "optim.rmsprop", "nn.loss", "core.routine",
                 "core.param_sync", "core.train", "core.apply",
                 "sim.measure", "backends.build_sim", "sim.run"):
        out[f"{name}.busy_s"] = busy(name)
    for layer in NN_LAYERS:
        for stage in NN_STAGES:
            name = f"nn.{layer}.{stage}"
            out[f"{name}.busy_s"] = busy(name)
            out[f"{name}.calls"] = calls(name)
    out["nn.act.busy_s"] = busy("nn.act.fw") + busy("nn.act.bw")
    out["envs.self_s"] = self_of("envs.")
    out["core.self_s"] = self_of("core.")

    frames = 0
    observed = 0
    infer_busy = 0.0
    infer_calls = 0
    for index, span in enumerate(spans):
        name = span[sp.NAME]
        if name == "ale.step":
            frames += _frames(span)
        elif name == "envs.skip":
            # MaxAndSkip shows the agent the max of the last two frames
            # of each cycle, so at most two frames per slot reach it.
            seen: typing.Counter = collections.Counter()
            for child in children.get(index, ()):
                inner = spans[child]
                if inner[sp.NAME] == "ale.step":
                    data = inner[sp.DATA]
                    seen.update([0] if data is None else data.tolist())
            observed += sum(min(count, 2) for count in seen.values())
        elif name == "nn.forward":
            parent = span[sp.PARENT]
            if parent < 0 or spans[parent][sp.NAME] != "core.train":
                infer_busy += span[sp.END] - span[sp.START]
                infer_calls += 1
    out["ale.frames"] = frames * per_op
    out["ale.observed_frame_ratio"] = observed / frames if frames else 0.0
    out["nn.infer.busy_s"] = infer_busy * per_op
    out["nn.infer.calls"] = infer_calls * per_op

    rollout = 0.0
    op_total = 0.0
    op_self = 0.0
    family_host: typing.Dict[str, float] = collections.defaultdict(float)
    family_ops: typing.Dict[str, int] = collections.defaultdict(int)
    family_routines: typing.Dict[str, int] = collections.defaultdict(int)
    for index in ops:
        span = spans[index]
        duration = span[sp.END] - span[sp.START]
        op_total += duration
        op_self += self_times[index]
        # The rollout is the stretch from parameter sync (or the op's
        # start, for PAAC, which has no sync) to the training task.
        rollout_start = span[sp.START]
        for child in children.get(index, ()):
            inner = spans[child]
            if inner[sp.NAME] == "core.param_sync":
                rollout_start = inner[sp.END]
            elif inner[sp.NAME] == "core.train":
                rollout += inner[sp.START] - rollout_start
                break
        if span[sp.DATA] is not None:
            family, routines = span[sp.DATA]
            family_host[family] += duration
            family_ops[family] += 1
            family_routines[family] += routines
    out["core.rollout.busy_s"] = rollout * per_op
    out["core.unattributed_share"] = op_self / op_total if op_total else 0.0

    events = sum(span[sp.DATA] for span in spans
                 if span[sp.NAME] == "sim.run")
    out["sim.events"] = events * per_op
    run_busy = table.get("sim.run", (0, 0.0, 0.0))[1]
    out["sim.ns_per_event"] = 1e9 * run_busy / events if events else 0.0
    lookups = plan_hits + plan_misses
    out["perf.plan_cache.hit_ratio"] = plan_hits / lookups if lookups \
        else 0.0
    for family in FAMILIES:
        host = family_host.get(family, 0.0)
        count = family_ops.get(family, 0)
        out[f"{family}.host_s"] = host / count if count else 0.0
        out[f"{family}.routines_per_s"] = \
            family_routines.get(family, 0) / host if host else 0.0
    return out
