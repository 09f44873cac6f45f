"""Wall-clock fast path: memoized stage plans for the simulators.

``repro.perf`` makes the harness faster **without changing any modelled
number**.  The discrete-event FPGA simulator would otherwise re-derive
identical stage schedules, DMA plans, and attribution templates on every
routine even though they are pure functions of (topology, batch,
direction, platform config); :mod:`repro.perf.stageplan` computes them
once and lets :class:`repro.fpga.platform.FPGASim` replay them.

The modelled record ``BENCH_fa3c.json`` pins the replayed IPS,
latencies, cycle attribution and DRAM traffic of every recorded run at
zero tolerance, as first recorded from the per-task derivation the plans
replaced; ``repro bench --check`` and ``tests/test_sim_golden.py`` both
check it (:mod:`repro.obs.prof.baseline`).

``stageplan`` imports the FPGA timing model, which imports platform
modules that themselves import :mod:`repro.perf.hotpath` — so its names
are exposed lazily (PEP 562), like :mod:`repro.obs.prof` does for its
heavy submodules.
"""

from repro.perf.hotpath import hot_path

#: Names resolved from :mod:`repro.perf.stageplan` on first access.
_STAGEPLAN_NAMES = ("CACHE", "PlanCache", "StagePlan", "TaskPlan",
                    "config_key", "task_plan")

__all__ = [
    "CACHE",
    "PlanCache",
    "StagePlan",
    "TaskPlan",
    "config_key",
    "hot_path",
    "task_plan",
]


def __getattr__(name: str):
    import importlib
    if name == "stageplan":
        return importlib.import_module("repro.perf.stageplan")
    if name in _STAGEPLAN_NAMES:
        module = importlib.import_module("repro.perf.stageplan")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
