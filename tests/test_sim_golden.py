"""The simulators' modelled outputs stay exact.

Every run of :data:`repro.obs.prof.baseline.RUNS` (each bench scenario at
1, 3 and 8 agents, and five FPGA configurations at 6 agents: the proposed
design, no double buffering, a single combined CU, the Alt2 layout and
one CU pair) is compared at zero tolerance with the committed record
``BENCH_fa3c.json``: IPS, simulated seconds, CU utilisation and the
cause-bucket shares as ``float.hex``, a digest of the per-request
inference latencies, and a digest of the full metrics snapshot.  The
snapshot holds the FPGA cycle attribution per CU, task, stage, layer and
cause bucket (``fpga.cycles*``), the DRAM bytes and bursts per channel
(``fpga.dram.*``), CU busy time (``fpga.cu.*``), the GPU time buckets and
kernel recordings (``gpu.*``) and the end-of-run gauges (``platform.*``).
One FPGA run also pins every stage span its :class:`~repro.sim.Tracer`
records.  ``repro bench --check`` reads the same record through the same
functions.

The data was first recorded from a simulator that re-derived every
stage's schedule, DMA plan and attribution per task and ran every agent,
GA3C predictor and trainer as a generator process; plan replay and the
fused agent chains reproduce it bit for bit.  The modelled numbers are
pure-Python float arithmetic, so the record holds on every host.
Re-record with ``repro bench --baseline`` only when a modelled number is
meant to change, say so in CHANGES.md, and let the record's diff show
which runs moved.
"""

import pathlib

import pytest

from repro.obs.prof import baseline
from repro.perf import stageplan

RECORD = pathlib.Path(__file__).resolve().parents[1] / \
    baseline.DEFAULT_BASELINE
#: The run repeated on a cold plan cache.
COLD = "fa3c/6"


@pytest.fixture(scope="module")
def record():
    return baseline.load(RECORD)


def _plain(key):
    """``key``'s observability-off entry: fields that need no metrics."""
    return baseline.measure(baseline.RUNS_BY_KEY[key], observe=False).entry


def test_records_every_run(record):
    assert sorted(record["runs"]) == sorted(baseline.RUNS_BY_KEY)


@pytest.mark.parametrize("key", sorted(baseline.RUNS_BY_KEY))
def test_matches_recorded(record, key):
    plain = _plain(key)
    assert plain == {field: record["runs"][key][field] for field in plain}
    current = {"runs": {key: baseline.measure(
        baseline.RUNS_BY_KEY[key]).entry}}
    assert baseline.check(record, current) == []


def test_trace_matches_recorded(record):
    assert baseline.check(record, {"runs": {},
                                   "trace": baseline.trace()}) == []


def test_cold_plan_cache_matches_recorded(record):
    stageplan.CACHE.clear()
    plain = _plain(COLD)
    assert plain == {field: record["runs"][COLD][field] for field in plain}
