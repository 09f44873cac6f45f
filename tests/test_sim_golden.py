"""The simulators' modelled outputs stay exact.

Every modelled number of a throughput run is compared at zero tolerance
with ``tests/data/sim_golden.json``: IPS, simulated seconds and CU
utilisation as ``float.hex``, a digest of the per-request inference
latencies, and, with observability on, a digest of the full metrics
snapshot.  The snapshot holds the FPGA cycle attribution per CU, task,
stage, layer and cause bucket (``fpga.cycles*``), the DRAM bytes and
bursts per channel (``fpga.dram.*``), CU busy time (``fpga.cu.*``), the
GPU time buckets and kernel recordings (``gpu.*``) and the end-of-run
gauges (``platform.*``).  One FPGA run also pins every stage span its
:class:`~repro.sim.Tracer` records.

The runs are every bench scenario (:data:`repro.obs.prof.baseline.SCENARIOS`)
at 1, 3 and 8 agents, and five FPGA configurations at 6 agents: the
proposed design, no double buffering, a single combined CU, the Alt2
layout and one CU pair.

The data was recorded from a simulator that re-derived every stage's
schedule, DMA plan and attribution per task and ran every agent, GA3C
predictor and trainer as a generator process.  Plan replay and the fused
agent chains must reproduce it bit for bit.  The modelled numbers are
pure-Python float arithmetic, so the data holds on every host.  Record
only from code known to produce the reference numbers; for a version
that still has the per-task derivation path::

    PYTHONPATH=<that version>/src REPRO_FASTPATH=0 \\
        python -m tests.test_sim_golden --record
"""

import functools
import hashlib
import json
import os
import sys

import pytest

from repro import obs
from repro.fpga.platform import FA3CPlatform
from repro.nn.network import A3CNetwork
from repro.obs.prof import baseline
from repro.perf import stageplan
from repro.platforms import measure_ips
from repro.sim import Tracer

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "sim_golden.json")
AGENTS = (1, 3, 8)

#: FPGA configurations run at 6 agents, t_max 5, 8 routines per agent.
VARIANTS = {
    "fa3c": lambda t: FA3CPlatform.fa3c(t),
    "nodb": lambda t: FA3CPlatform.fa3c(t, double_buffering=False),
    "single-cu": lambda t: FA3CPlatform.single_cu(t),
    "alt2": lambda t: FA3CPlatform.alt2(t),
    "one-pair": lambda t: FA3CPlatform.fa3c(t, cu_pairs=1),
}

#: The run whose stage spans are pinned.
TRACED = "fa3c-n8/8"
#: The run repeated on a cold plan cache.
COLD = "fa3c/6"
#: The fields a run with observability off records.
PLAIN = ("ips", "sim_seconds", "utilisation", "latencies")


def _runs():
    """``key -> (build platform, build host model, agents, t_max,
    routines per agent)``."""
    runs = {}
    for scenario in baseline.SCENARIOS:
        for agents in AGENTS:
            runs[f"{scenario.name}/{agents}"] = (
                scenario.build, scenario.build_host, agents,
                scenario.t_max, scenario.routines)
    topology = A3CNetwork(num_actions=6).topology()
    for name, build in VARIANTS.items():
        runs[f"{name}/6"] = (functools.partial(build, topology),
                             lambda: None, 6, 5, 8)
    return runs


RUNS = _runs()


class _Traced:
    """A platform whose sims record their stage spans into ``tracer``."""

    def __init__(self, platform, tracer):
        self._platform = platform
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._platform, name)

    def build_sim(self, engine):
        return self._platform.build_sim(engine, tracer=self._tracer)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(value):
    """``value`` with every float as ``float.hex``, for exact digests."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _measure(key: str, wrap=None):
    build, build_host, agents, t_max, routines = RUNS[key]
    platform = build()
    if wrap is not None:
        platform = wrap(platform)
    result = measure_ips(platform, agents, t_max=t_max,
                         routines_per_agent=routines, host=build_host())
    return {
        "ips": float(result.ips).hex(),
        "sim_seconds": float(result.sim_seconds).hex(),
        "utilisation": float(result.utilisation).hex(),
        "latencies": _sha(",".join(float(value).hex() for value
                                   in result.inference_latencies)),
    }


def _plain(record):
    return {field: record[field] for field in PLAIN}


def _observed(key: str):
    """:func:`_measure` with observability on, plus the snapshot digest."""
    with obs.enabled_scope(reset=True):
        summary = _measure(key)
        rows = obs.metrics().snapshot()
    summary["metrics"] = _sha(json.dumps(_canonical(rows), sort_keys=True))
    return summary


def _trace(key: str):
    tracer = Tracer()
    _measure(key, wrap=lambda platform: _Traced(platform, tracer))
    spans = [[span.lane, span.label, span.start.hex(), span.end.hex()]
             for span in tracer.spans]
    return {"run": key, "spans": len(spans),
            "digest": _sha(json.dumps(spans))}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_records_every_run(golden):
    assert sorted(golden["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("key", sorted(RUNS))
def test_matches_recorded(golden, key):
    want = golden["runs"][key]
    assert _measure(key) == _plain(want)
    assert _observed(key) == want


def test_trace_matches_recorded(golden):
    assert _trace(TRACED) == golden["trace"]


def test_cold_plan_cache_matches_recorded(golden):
    stageplan.CACHE.clear()
    assert _measure(COLD) == _plain(golden["runs"][COLD])


def _record() -> None:
    runs = {}
    for key in sorted(RUNS):
        runs[key] = _observed(key)
        assert _measure(key) == _plain(runs[key]), \
            f"{key}: observability changed a modelled number"
    golden = {"runs": runs, "trace": _trace(TRACED)}
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(runs)} runs in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_sim_golden --record")
    _record()
