"""The modelled record: schema, exact check, the ``repro bench`` gate.

``repro bench --baseline`` / ``--check`` back the CI ``perf-gate`` job.
The check is exact, so one recorded field one ulp off, in either
direction, makes ``--check`` exit non-zero naming the run and field.
"""

import json
import math
import pathlib

import pytest

from repro.cli import main
from repro.obs.prof import baseline as bench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMITTED = REPO_ROOT / "BENCH_fa3c.json"
KEY = "fa3c-n8/8"


def _record(runs):
    return {"version": bench.VERSION, "runs": runs}


def _entry(ips, **buckets):
    return {"ips": float(ips).hex(),
            "buckets": {bucket: float(share).hex()
                        for bucket, share in buckets.items()}}


def _ulp(value: str, direction: float) -> str:
    """``value`` (``float.hex``) moved one ulp towards ``direction``."""
    return math.nextafter(float.fromhex(value), direction).hex()


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        doc = _record({KEY: _entry(100.0, pe_compute=0.6,
                                   dram_wait=0.4)})
        path = tmp_path / "b.json"
        bench.write(doc, path)
        assert bench.load(path) == doc
        # Committed-diff friendliness: stable key order, one trailing
        # newline.
        text = path.read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"version": 1, "scenarios": {}}')
        with pytest.raises(ValueError, match="version"):
            bench.load(path)
        path.write_text('{"version": 2}')
        with pytest.raises(ValueError, match="no runs"):
            bench.load(path)

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(ValueError, match="fa3c-n8"):
            bench.select(["no-such-scenario"])

    def test_committed_baseline_is_loadable_and_complete(self):
        doc = bench.load(COMMITTED)
        assert set(doc["runs"]) == set(bench.RUNS_BY_KEY)
        for key, entry in doc["runs"].items():
            assert float.fromhex(entry["ips"]) > 0, key
            shares = [float.fromhex(share)
                      for share in entry["buckets"].values()]
            assert sum(shares) == pytest.approx(1.0, abs=1e-9), key
        assert doc["trace"]["run"] == bench.TRACED


class TestCheckSnapshot:
    BASE = _record({KEY: _entry(1000.0, pe_compute=0.60,
                                dram_wait=0.40)})

    def test_identical_passes(self):
        assert bench.check(self.BASE, self.BASE) == []

    def test_ips_regression_fails(self):
        cur = _record({KEY: _entry(1000.0, pe_compute=0.60,
                                   dram_wait=0.40)})
        cur["runs"][KEY]["ips"] = _ulp(cur["runs"][KEY]["ips"], 0.0)
        failures = bench.check(self.BASE, cur)
        assert len(failures) == 1 and failures[0].startswith(
            f"{KEY}: ips 0x1.f400000000000p+9 (1000.0) -> ")

    @pytest.mark.parametrize("pe,dram", [(0.65, 0.35), (0.55, 0.45)])
    def test_share_drift_fails_in_either_direction(self, pe, dram):
        cur = _record({KEY: _entry(1000.0, pe_compute=pe,
                                   dram_wait=dram)})
        failures = bench.check(self.BASE, cur)
        assert len(failures) == 2 and all(
            f.startswith(f"{KEY}: buckets.") for f in failures)

    def test_new_bucket_appearing_fails(self):
        cur = _record({KEY: _entry(1000.0, pe_compute=0.60,
                                   dram_wait=0.40, buffer_stall=0.0)})
        failures = bench.check(self.BASE, cur)
        assert failures == [f"{KEY}: buckets.buffer_stall - -> "
                            "0x0.0p+0 (0.0)"]

    def test_missing_scenario_fails(self):
        cur = _record({"fa3c-n8/1": _entry(10.0, pe_compute=1.0)})
        assert bench.check(self.BASE, cur) == \
            ["fa3c-n8/1: not in baseline"]

    def test_recorded_run_no_longer_defined_fails(self):
        base = _record({KEY: self.BASE["runs"][KEY],
                        "fa3c-n8/99": _entry(1.0, pe_compute=1.0)})
        assert bench.check(base, self.BASE) == \
            ["fa3c-n8/99: in baseline but no longer defined"]


class TestBenchCLI:
    """End-to-end through ``repro bench`` (one real scenario per run)."""

    def _check(self, tmp_path, capsys, mutate, scenarios=("fa3c-n8",)):
        """``--check`` of ``scenarios`` (all if empty) against the
        committed record after ``mutate``; returns (exit code, output)."""
        doc = bench.load(COMMITTED)
        mutate(doc)
        path = tmp_path / "BENCH_mutated.json"
        bench.write(doc, path)
        subset = ["--scenarios", *scenarios] if scenarios else []
        rc = main(["bench", "--check", "--no-runlog", "--file", str(path),
                   *subset])
        return rc, capsys.readouterr().out

    def test_check_passes_against_committed_baseline(self, capsys):
        rc = main(["bench", "--check", "--no-runlog", "--file",
                   str(COMMITTED), "--scenarios", "fa3c-n8"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "perf gate OK: 3 runs match" in out
        assert f"{KEY}: ips=" in out and " p99=" in out

    def test_injected_ips_regression_trips_the_gate(self, tmp_path,
                                                    capsys):
        # The record one ulp higher: the unchanged run reads as slower.
        def mutate(doc):
            entry = doc["runs"][KEY]
            entry["ips"] = _ulp(entry["ips"], math.inf)
        rc, out = self._check(tmp_path, capsys, mutate)
        assert rc == 1, out
        assert "PERF GATE FAILED (1 finding(s))" in out
        assert f"  - {KEY}: ips " in out

    def test_ips_one_ulp_higher_trips_the_gate(self, tmp_path, capsys):
        # The record one ulp lower: a bug that raises IPS fails too.
        def mutate(doc):
            entry = doc["runs"][KEY]
            entry["ips"] = _ulp(entry["ips"], 0.0)
        rc, out = self._check(tmp_path, capsys, mutate)
        assert rc == 1, out
        assert "PERF GATE FAILED (1 finding(s))" in out
        assert f"  - {KEY}: ips " in out

    def test_share_drift_trips_the_gate(self, tmp_path, capsys):
        def mutate(doc):
            buckets = doc["runs"][KEY]["buckets"]
            buckets["pe_compute"] = _ulp(buckets["pe_compute"], math.inf)
        rc, out = self._check(tmp_path, capsys, mutate)
        assert rc == 1, out
        assert f"  - {KEY}: buckets.pe_compute " in out

    def test_latency_digest_change_trips_the_gate(self, tmp_path, capsys):
        def mutate(doc):
            entry = doc["runs"]["fa3c-n8/3"]
            entry["latencies"] = "0" + entry["latencies"][1:]
        rc, out = self._check(tmp_path, capsys, mutate)
        assert rc == 1, out
        assert "  - fa3c-n8/3: latencies " in out

    def test_requested_scenario_missing_from_baseline_fails(
            self, tmp_path, capsys):
        rc, out = self._check(tmp_path, capsys,
                              lambda doc: doc["runs"].pop(KEY))
        assert rc == 1
        assert f"{KEY}: not in baseline" in out

    def test_full_check_fails_on_run_missing_from_baseline(
            self, tmp_path, capsys):
        rc, out = self._check(tmp_path, capsys,
                              lambda doc: doc["runs"].pop("alt2/6"),
                              scenarios=())
        assert rc == 1
        assert "PERF GATE FAILED (1 finding(s))" in out
        assert "alt2/6: not in baseline" in out

    def test_recorded_run_no_longer_defined_fails(self, tmp_path,
                                                  capsys):
        def mutate(doc):
            doc["runs"]["fa3c-n8/99"] = doc["runs"][KEY]
        rc, out = self._check(tmp_path, capsys, mutate)
        assert rc == 1
        assert "fa3c-n8/99: in baseline but no longer defined" in out

    def test_missing_baseline_file_is_a_usage_error(self, tmp_path,
                                                    capsys):
        rc = main(["bench", "--check", "--no-runlog", "--file",
                   str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot load baseline" in capsys.readouterr().out

    def test_old_version_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "v1.json"
        path.write_text('{"version": 1, "scenarios": {}}')
        rc = main(["bench", "--check", "--no-runlog", "--file", str(path),
                   "--scenarios", "fa3c-n8"])
        assert rc == 2
        assert "unsupported baseline version 1" in capsys.readouterr().out

    def test_baseline_writes_report_dir_artifacts(self, tmp_path):
        out_file = tmp_path / "b.json"
        report_dir = tmp_path / "report"
        rc = main(["bench", "--baseline", "--no-runlog",
                   "--file", str(out_file), "--scenarios", "fa3c-n8",
                   "--report-dir", str(report_dir)])
        assert rc == 0
        doc = bench.load(out_file)
        committed = bench.load(COMMITTED)
        assert doc["runs"] == {key: committed["runs"][key] for key in
                               ("fa3c-n8/1", "fa3c-n8/3", KEY)}
        assert doc["trace"] == committed["trace"]
        assert (report_dir / "fa3c-n8_8.folded").stat().st_size > 0
        assert "cycle attribution" in \
            (report_dir / "fa3c-n8_8.txt").read_text()

    def test_subset_baseline_keeps_other_runs(self, tmp_path):
        committed = bench.load(COMMITTED)
        doc = bench.load(COMMITTED)
        doc["runs"][KEY]["ips"] = "0x1.0p+0"
        doc["runs"]["alt2/6"]["ips"] = "0x1.0p+0"
        path = tmp_path / "b.json"
        bench.write(doc, path)
        rc = main(["bench", "--baseline", "--no-runlog",
                   "--file", str(path), "--scenarios", "fa3c-n8"])
        assert rc == 0
        after = bench.load(path)
        assert after["runs"][KEY] == committed["runs"][KEY]
        assert after["runs"]["alt2/6"]["ips"] == "0x1.0p+0"
        assert set(after["runs"]) == set(committed["runs"])
        assert after["trace"] == committed["trace"]


class TestScenarioDeterminism:
    def test_back_to_back_runs_are_bit_identical(self):
        run = bench.RUNS_BY_KEY[KEY]
        assert bench.measure(run).entry == bench.measure(run).entry
