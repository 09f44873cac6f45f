"""Tests of the benchmark's own code.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, run, stats
from perfbench import spans as sp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- percentile rule --------------------------------------------------------

@pytest.mark.parametrize("count", range(1, 400))
def test_tail_rank_leaves_ten_samples_beyond(count):
    rank = stats.tail_rank(count)
    # Never below the upper median ...
    assert rank >= count // 2
    if count >= 2 * stats.MIN_BEYOND + 1:
        # ... and otherwise the highest rank, up to the nearest-rank
        # p90, with ten samples beyond it.
        assert count - 1 - rank >= stats.MIN_BEYOND
        assert rank == min(math.ceil(0.9 * count) - 1, count - 11)


def test_tail_is_p90_with_enough_samples():
    values = list(range(1000))
    value, percentile = stats.tail(values)
    assert (value, percentile) == (899, 90.0)


def test_tail_lowers_percentile_when_samples_are_few():
    values = list(range(60))
    value, percentile = stats.tail(values)
    assert value == 49                     # 10 samples beyond: 50..59
    assert percentile == pytest.approx(100 * 50 / 60)


def test_tail_falls_back_to_upper_median_with_few_samples():
    assert stats.tail_rank(1) == 0
    assert stats.tail_rank(8) == 4
    assert stats.tail(list(range(7))) == (3, pytest.approx(100 * 4 / 7))


# -- spans and self time ----------------------------------------------------

def _span(name, start, end, parent=-1, data=None):
    return [name, float(start), float(end), parent, 0, data]


def test_self_time_subtracts_direct_children_only():
    spans = [_span("root", 0, 10),
             _span("a", 1, 4, 0),
             _span("a.inner", 2, 3, 1),
             _span("b", 5, 9, 0)]
    self_times, children = sp.analyse(spans)
    assert self_times == [3.0, 2.0, 1.0, 4.0]
    assert children[0] == [1, 3]
    assert sp.totals(spans, self_times)["a"] == (1, 3.0, 2.0)


@pytest.mark.parametrize("spans", [
    [_span("root", 0, 10), _span("late", 9, 11, 0)],
    [_span("root", 0, 2), _span("a", 0, 2, 0), _span("b", 1, 2, 0)],
    [_span("open", 5, 0)],
])
def test_inconsistent_spans_are_rejected(spans):
    with pytest.raises(sp.TraceError):
        sp.analyse(spans)


def test_per_layer_from_a_hand_built_routine():
    frames = [_span("ale.step", t, t + 0.5, 3) for t in (2.2, 2.8, 3.4)]
    spans = [_span("core.routine", 0, 10),
             _span("core.param_sync", 0, 1, 0),
             _span("envs.step", 2, 4, 0),
             _span("envs.skip", 2.1, 3.95, 2),
             *frames,
             _span("core.train", 5, 9, 0),
             _span("nn.forward", 5, 6, 7),
             _span("nn.forward", 4.2, 4.8, 0)]
    out = layers.per_layer(spans, "core.routine", 0, 0)
    assert out["core.param_sync.busy_s"] == 1.0
    assert out["core.rollout.busy_s"] == 4.0          # sync end -> train
    assert out["core.unattributed_share"] == pytest.approx(
        (10 - 1 - 2 - 4 - 0.6) / 10)
    assert out["envs.self_s"] == pytest.approx(2 - 1.5)
    assert out["ale.frames"] == 3
    assert out["ale.observed_frame_ratio"] == pytest.approx(2 / 3)
    assert out["nn.infer.calls"] == 1                 # not under train
    assert out["nn.infer.busy_s"] == pytest.approx(0.6)
    assert set(out) | {"host.ref_kernel_s", "trace.overhead_ratio"} == \
        set(layers.METRICS)


def test_observed_frames_count_per_slot():
    import numpy as np
    spans = [_span("core.routine", 0, 10),
             _span("envs.skip", 1, 9, 0),
             _span("ale.step", 2, 3, 1, np.array([0, 1, 2])),
             _span("ale.step", 3, 4, 1, np.array([0, 1, 2])),
             _span("ale.step", 4, 5, 1, np.array([0, 1])),
             _span("ale.step", 5, 6, 1, np.array([0]))]
    out = layers.per_layer(spans, "core.routine", 0, 0)
    assert out["ale.frames"] == 9
    assert out["ale.observed_frame_ratio"] == pytest.approx(6 / 9)


def test_patches_trace_calls_and_restore_originals():
    class Thing:
        def work(self, value):
            if value < 0:
                raise ValueError("negative")
            return self.inner(value) + 1

        def inner(self, value):
            return value * 2

    thing = Thing()
    tracer = sp.Tracer()
    patches = sp.Patches()
    patches.wrap(thing, "work", lambda fn: tracer.wrap("outer", fn))
    patches.wrap(thing, "inner", lambda fn: tracer.wrap("inner", fn))
    assert thing.work(3) == 7
    with pytest.raises(ValueError):
        thing.work(-1)
    sp.analyse(tracer.spans)               # every span was closed
    names = [span[sp.NAME] for span in tracer.spans]
    assert names == ["outer", "inner", "outer"]
    assert tracer.spans[1][sp.PARENT] == 0
    patches.undo()
    assert "work" not in vars(thing) and "inner" not in vars(thing)
    assert thing.work(3) == 7 and len(tracer.spans) == 3


# -- failure accounting -----------------------------------------------------

def test_outcome_counts_failed_ops():
    outcome = stats.Outcome()
    for ok in (True, False, True):
        outcome.record(ok)
    assert (outcome.attempted, outcome.reported_failed) == (3, 1)
    assert not outcome.correct


def test_failed_final_check_fails_every_op():
    outcome = stats.Outcome()
    for _ in range(5):
        outcome.record(True)
    assert outcome.correct
    outcome.final_ok = False
    assert outcome.reported_failed == 5 and not outcome.correct


def test_aborted_run_fails_every_op():
    outcome = stats.Outcome()
    outcome.record(True)
    outcome.record(False)
    outcome.aborted = True
    assert outcome.reported_failed == 2


def test_no_ops_is_not_correct():
    assert not stats.Outcome().correct


# -- the declared metrics are the produced ones -----------------------------

def test_benchmark_json_declares_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [m["name"] for m in declared["end_to_end"]] == \
        list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in declared["per_layer"]} == layers.METRICS
    assert [w["name"] for w in declared["workloads"]] == \
        list(run.WORKLOADS)


# -- end to end: the checks can fail ----------------------------------------

def _bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1",
         "--trace", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _tampered(tmp_path, edit):
    with open(os.path.join(ROOT, "perfbench", "golden.json")) as handle:
        golden = json.load(handle)
    edit(golden)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    return str(path)


def test_tampered_ips_fails_every_sim_op(tmp_path):
    def edit(golden):
        for backend in golden["sim"].values():
            for points in backend.values():
                for pair in points.values():
                    pair[0] = float.hex(float.fromhex(pair[0]) * 1.0000001)

    clean = _result(_bench("--workload", "platform_sweep"))
    assert clean["correct"] and clean["failed"] == 0
    tampered = _result(_bench("--workload", "platform_sweep",
                              "--golden", _tampered(tmp_path, edit)))
    assert tampered["attempted"] > 0
    assert tampered["failed"] == tampered["attempted"]
    assert not tampered["correct"]


def test_tampered_hash_fails_every_training_op(tmp_path):
    done = _bench("--workload", "a3c_serial")
    if "UNVERIFIED" in done.stdout:
        pytest.skip("no parameter hashes recorded for this host")
    clean = _result(done)
    assert clean["correct"] and clean["failed"] == 0

    def edit(golden):
        for entry in golden["train"].values():
            chains = entry.get("a3c_serial", {})
            for seed in chains:
                chains[seed] = ["0" * 12] * len(chains[seed])

    tampered = _result(_bench("--workload", "a3c_serial",
                              "--golden", _tampered(tmp_path, edit)))
    assert tampered["attempted"] > 0
    assert tampered["failed"] == tampered["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "a3c_serial", "--seed", "0",
                  cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
