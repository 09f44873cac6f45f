"""Run-scoped telemetry: run directories, manifests, and shards.

Every ``train`` / ``sweep`` / ``bench`` invocation opens a **run
directory** (``runs/<run-id>/``) holding

* ``manifest.json`` — what ran: command, argv, config, platform registry
  name, seed, topology, start/end timestamps, and the outcome;
* ``shard-<pid>.jsonl`` — one telemetry shard per participating process.
  Workers in the procs backend flush their
  :class:`~repro.obs.registry.MetricsRegistry` snapshot and
  :class:`~repro.obs.tracer.SpanTracer` spans at a heartbeat interval
  and on exit; the parent flushes its own shard at the end of the run;
* ``health.jsonl`` — structured straggler/stall events computed by
  :mod:`repro.obs.health` over the merged shards.

:func:`merge_run` folds the shards into one labelled timeline: metric
rows gain a ``worker`` label, spans gain the recording process's OS pid
(so :mod:`repro.obs.chrome` places each worker in its own Perfetto
process group), and :func:`aggregate_rows` collapses the worker label
back out for whole-run totals.  ``repro runs list`` / ``repro runs
diff`` / ``repro obs-report --run`` are the CLI surface.

Shards are append-only JSONL so a crashed worker's partial shard stays
readable: each flush appends the *full* cumulative snapshot tagged with
a monotonically increasing ``seq``, and the loader keeps only the
newest generation.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import time
import typing

from repro.obs import runtime
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import SpanTracer

MANIFEST_NAME = "manifest.json"
HEALTH_NAME = "health.jsonl"
SHARD_PREFIX = "shard-"
SHARD_SUFFIX = ".jsonl"

#: Environment override for the run-directory root (default ``runs/``
#: under the current working directory).
ROOT_ENV = "REPRO_RUNS_DIR"
DEFAULT_ROOT = "runs"

SCHEMA_VERSION = 1

#: Seconds between worker heartbeat flushes (see
#: :meth:`ShardWriter.maybe_heartbeat`).
DEFAULT_HEARTBEAT_SECONDS = 2.0

_run_sequence = itertools.count()


def runs_root(root: typing.Optional[str] = None) -> str:
    """The directory run directories live under (not created here)."""
    return root or os.environ.get(ROOT_ENV) or DEFAULT_ROOT


def _iso(ts: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


def new_run_id(command: str) -> str:
    """``<utc-stamp>-<command>-p<pid>-<seq>`` — sortable and unique.

    The pid + in-process sequence disambiguate runs opened within the
    same second (sweeps, tests).
    """
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{command}-p{os.getpid()}-{next(_run_sequence)}"


class ShardWriter:
    """Appends one process's telemetry to ``shard-<pid>.jsonl``.

    Each :meth:`flush` appends the process's full metric snapshot and
    span list under a new ``seq`` generation; readers keep the newest.
    Telemetry rows are only gathered when the obs runtime is enabled —
    heartbeat records are written regardless, so worker liveness is
    observable even on metric-free runs.
    """

    def __init__(self, run_dir: str, worker: str,
                 interval: float = DEFAULT_HEARTBEAT_SECONDS):
        self.worker = worker
        self.interval = interval
        self.pid = os.getpid()
        self.path = os.path.join(
            run_dir, f"{SHARD_PREFIX}{self.pid}{SHARD_SUFFIX}")
        self._seq = 0
        self._last_flush = time.perf_counter()
        self._append([{"kind": "open", "pid": self.pid, "worker": worker,
                       "time": time.time(), "interval": interval}])

    @property
    def seq(self) -> int:
        """The newest flushed generation (0 before the first flush)."""
        return self._seq

    def _append(self, records: typing.Sequence[
            typing.Mapping[str, object]]) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def flush(self, final: bool = False, **stats: object) -> int:
        """Append a heartbeat plus the current cumulative telemetry.

        ``stats`` (e.g. ``routines=...``, ``global_step=...``) ride on
        the heartbeat record and feed the health monitor's rate
        estimates.  ``final=True`` marks a clean exit — a shard without
        a final record is a killed or hung worker.  Returns the number
        of records appended.
        """
        now = time.time()
        self._seq += 1
        records: typing.List[typing.Dict[str, object]] = [
            {"kind": "heartbeat", "seq": self._seq, "time": now,
             "stats": dict(stats)}]
        if runtime.enabled():
            for row in runtime.metrics().snapshot():
                records.append({"kind": "metric", "seq": self._seq,
                                "row": row})
            for span in runtime.tracer().snapshot():
                records.append({"kind": "span", "seq": self._seq,
                                "row": span})
        if final:
            records.append({"kind": "final", "seq": self._seq,
                            "time": now, "stats": dict(stats)})
        self._append(records)
        self._last_flush = time.perf_counter()
        return len(records)

    def maybe_heartbeat(self, **stats: object) -> bool:
        """Flush if at least ``interval`` seconds passed since the last."""
        if time.perf_counter() - self._last_flush < self.interval:
            return False
        self.flush(**stats)
        return True


class RunLog:
    """One run directory: the manifest plus shard handles."""

    def __init__(self, path: str,
                 manifest: typing.Dict[str, object]):
        self.path = path
        self.manifest = manifest

    @classmethod
    def open(cls, command: str,
             argv: typing.Optional[typing.Sequence[str]] = None,
             config: typing.Optional[typing.Mapping[str, object]] = None,
             platform: typing.Optional[str] = None,
             seed: typing.Optional[int] = None,
             topology: typing.Optional[object] = None,
             root: typing.Optional[str] = None,
             **meta: object) -> "RunLog":
        """Create ``runs/<run-id>/`` and write the initial manifest."""
        run_id = new_run_id(command)
        path = os.path.join(runs_root(root), run_id)
        os.makedirs(path, exist_ok=True)
        started = time.time()
        manifest: typing.Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "run_id": run_id,
            "command": command,
            "argv": list(argv) if argv is not None else None,
            "pid": os.getpid(),
            "start_time": started,
            "start": _iso(started),
            "outcome": "running",
        }
        if config is not None:
            manifest["config"] = dict(config)
        if platform is not None:
            manifest["platform"] = platform
        if seed is not None:
            manifest["seed"] = seed
        if topology is not None:
            manifest["topology"] = topology
        manifest.update(meta)
        log = cls(path, manifest)
        log._write_manifest()
        return log

    @property
    def run_id(self) -> str:
        return str(self.manifest["run_id"])

    def _write_manifest(self) -> None:
        with open(os.path.join(self.path, MANIFEST_NAME), "w",
                  encoding="utf-8") as fh:
            json.dump(self.manifest, fh, indent=2, sort_keys=True,
                      default=str)
            fh.write("\n")

    def update(self, **fields: object) -> None:
        self.manifest.update(fields)
        self._write_manifest()

    def finish(self, outcome: str = "ok", **fields: object) -> None:
        """Stamp the end time and outcome (idempotent per call)."""
        ended = time.time()
        start = float(typing.cast(float, self.manifest["start_time"]))
        self.update(outcome=outcome, end_time=ended, end=_iso(ended),
                    wall_seconds=ended - start, **fields)

    def shard(self, worker: str,
              interval: float = DEFAULT_HEARTBEAT_SECONDS) -> ShardWriter:
        """A shard writer for the *calling* process (pid-named file)."""
        return ShardWriter(self.path, worker, interval=interval)


# -- reading runs back -----------------------------------------------------


@dataclasses.dataclass
class WorkerShard:
    """One process's shard, reduced to its newest telemetry generation."""

    path: str
    pid: int
    worker: str
    opened_time: float
    heartbeats: typing.List[typing.Dict[str, object]]
    final: typing.Optional[typing.Dict[str, object]]
    rows: typing.List[typing.Dict[str, object]]
    spans: typing.List[typing.Dict[str, object]]
    #: The ``seq`` of the retained telemetry generation — with ``pid``
    #: the deterministic gauge-merge priority (newest flush wins).
    generation: int = 0

    @property
    def last_heartbeat_time(self) -> float:
        if self.heartbeats:
            return float(typing.cast(
                float, self.heartbeats[-1].get("time", self.opened_time)))
        return self.opened_time

    def stats(self) -> typing.Dict[str, object]:
        """The most recent heartbeat/final stats payload."""
        record = self.final or (self.heartbeats[-1]
                                if self.heartbeats else None)
        if not record:
            return {}
        return dict(typing.cast(typing.Mapping[str, object],
                                record.get("stats") or {}))


def load_shard(path: str) -> WorkerShard:
    """Parse one shard file, keeping only the newest ``seq`` generation."""
    pid = 0
    worker = "?"
    opened = 0.0
    heartbeats: typing.List[typing.Dict[str, object]] = []
    final: typing.Optional[typing.Dict[str, object]] = None
    by_seq_rows: typing.Dict[int, typing.List[dict]] = {}
    by_seq_spans: typing.Dict[int, typing.List[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail write from a killed worker
            kind = record.get("kind")
            if kind == "open":
                pid = int(record.get("pid", 0))
                worker = str(record.get("worker", "?"))
                opened = float(record.get("time", 0.0))
            elif kind == "heartbeat":
                heartbeats.append(record)
            elif kind == "final":
                final = record
            elif kind == "metric":
                by_seq_rows.setdefault(
                    int(record.get("seq", 0)), []).append(record["row"])
            elif kind == "span":
                by_seq_spans.setdefault(
                    int(record.get("seq", 0)), []).append(record["row"])
    if not pid:
        stem = os.path.basename(path)
        digits = stem[len(SHARD_PREFIX):-len(SHARD_SUFFIX)]
        pid = int(digits) if digits.isdigit() else 0
    latest = max(by_seq_rows, default=0)
    latest_spans = max(by_seq_spans, default=0)
    return WorkerShard(path=path, pid=pid, worker=worker,
                       opened_time=opened, heartbeats=heartbeats,
                       final=final, rows=by_seq_rows.get(latest, []),
                       spans=by_seq_spans.get(latest_spans, []),
                       generation=latest)


def load_manifest(run_dir: str) -> typing.Dict[str, object]:
    with open(os.path.join(run_dir, MANIFEST_NAME),
              encoding="utf-8") as fh:
        return json.load(fh)


def _manifest_outcome(manifest: typing.Mapping[str, object]) -> str:
    """A run's outcome, rendering interrupted runs as ``crashed``.

    A manifest is only stamped with an ``end`` by :meth:`RunLog.finish`;
    one carrying neither an ``end`` nor a terminal ``outcome`` belongs
    to a process that died (or is still running — indistinguishable
    from the manifest alone, and ``crashed`` is the honest default for
    the historical listing).
    """
    outcome = manifest.get("outcome")
    if outcome in (None, "", "running") and manifest.get("end") is None:
        return "crashed"
    return str(outcome) if outcome not in (None, "") else "crashed"


def list_runs(root: typing.Optional[str] = None
              ) -> typing.List[typing.Dict[str, object]]:
    """Summary rows for every run directory under the root, oldest first.

    Crashed runs stay visible: a torn or unreadable manifest (the
    process died mid-write) renders as a ``crashed`` row rather than
    being skipped, as does a manifest never stamped with an end.
    """
    base = runs_root(root)
    if not os.path.isdir(base):
        return []
    out = []
    for name in sorted(os.listdir(base)):
        run_dir = os.path.join(base, name)
        if not os.path.isfile(os.path.join(run_dir, MANIFEST_NAME)):
            continue
        try:
            manifest = load_manifest(run_dir)
        except (OSError, ValueError):
            manifest = {"run_id": name, "outcome": "crashed"}
        shards = [f for f in os.listdir(run_dir)
                  if f.startswith(SHARD_PREFIX)
                  and f.endswith(SHARD_SUFFIX)]
        out.append({
            "run_id": manifest.get("run_id", name),
            "command": manifest.get("command", "?"),
            "platform": manifest.get("platform", "-"),
            "start": manifest.get("start", "-"),
            "wall_seconds": manifest.get("wall_seconds"),
            "shards": len(shards),
            "outcome": _manifest_outcome(manifest),
        })
    out.sort(key=lambda row: str(row["start"]))
    return out


def resolve_run(ref: str, root: typing.Optional[str] = None) -> str:
    """A run directory from an id, unique id fragment, or path."""
    if os.path.isfile(os.path.join(ref, MANIFEST_NAME)):
        return ref
    base = runs_root(root)
    candidate = os.path.join(base, ref)
    if os.path.isfile(os.path.join(candidate, MANIFEST_NAME)):
        return candidate
    if os.path.isdir(base):
        matches = [name for name in sorted(os.listdir(base))
                   if ref in name and os.path.isfile(
                       os.path.join(base, name, MANIFEST_NAME))]
        if len(matches) == 1:
            return os.path.join(base, matches[0])
        if matches:
            raise ValueError(f"run {ref!r} is ambiguous: "
                             + ", ".join(matches))
    raise ValueError(f"no run matching {ref!r} under {base}")


# -- merging ---------------------------------------------------------------


@dataclasses.dataclass
class MergedRun:
    """All shards of one run folded into a single labelled timeline."""

    run_dir: str
    manifest: typing.Dict[str, object]
    shards: typing.List[WorkerShard]
    #: Metric rows with a ``worker`` label naming the source process.
    rows: typing.List[typing.Dict[str, object]]
    #: Span dicts; worker spans carry the recording OS ``pid``.
    spans: typing.List[typing.Dict[str, object]]

    @property
    def parent_pid(self) -> typing.Optional[int]:
        pid = self.manifest.get("pid")
        return int(typing.cast(int, pid)) if pid is not None else None

    def worker_shards(self) -> typing.List[WorkerShard]:
        return [s for s in self.shards if s.pid != self.parent_pid]

    def registry(self) -> MetricsRegistry:
        """A live registry holding the merged, worker-labelled rows."""
        registry = MetricsRegistry()
        registry.absorb_rows(self.rows)
        return registry

    def tracer(self) -> SpanTracer:
        """A tracer holding every shard's spans (worker pids attached)."""
        tracer = SpanTracer()
        tracer.absorb_rows(self.spans)
        return tracer


def merge_run(run_dir: str) -> MergedRun:
    """Load the manifest and every shard; label rows/spans per worker.

    The parent's shard may contain rows it absorbed back from workers
    (they already carry a ``worker`` label); those are dropped here so
    each sample is counted exactly once — the worker's own shard is the
    authoritative copy.

    A torn manifest (crashed parent) degrades to a stub with outcome
    ``crashed`` — the shards are still merged, so ``obs-report --run``
    and ``runs diff`` keep working on interrupted runs.
    """
    try:
        manifest = load_manifest(run_dir)
    except (OSError, ValueError):
        manifest = {"run_id": os.path.basename(run_dir.rstrip(os.sep)),
                    "outcome": "crashed"}
    parent_pid = manifest.get("pid")
    shards = []
    for name in sorted(os.listdir(run_dir)):
        if name.startswith(SHARD_PREFIX) and name.endswith(SHARD_SUFFIX):
            shards.append(load_shard(os.path.join(run_dir, name)))
    rows: typing.List[typing.Dict[str, object]] = []
    spans: typing.List[typing.Dict[str, object]] = []
    for shard in shards:
        is_parent = (parent_pid is not None and shard.pid == parent_pid)
        for row in shard.rows:
            labels = dict(typing.cast(typing.Mapping[str, str],
                                      row.get("labels") or {}))
            if "worker" in labels:
                if is_parent:
                    continue
            else:
                labels["worker"] = shard.worker
            merged = dict(row)
            merged["labels"] = labels
            # Gauge-merge priority: newest generation, then pid, wins
            # deterministically regardless of shard file order.
            merged["gen"] = shard.generation
            merged["pid"] = shard.pid
            rows.append(merged)
        for span in shard.spans:
            merged_span = dict(span)
            if not is_parent:
                merged_span.setdefault("pid", shard.pid)
            spans.append(merged_span)
    return MergedRun(run_dir=run_dir, manifest=manifest, shards=shards,
                     rows=rows, spans=spans)


def aggregate_rows(rows: typing.Sequence[typing.Mapping[str, object]]
                   ) -> typing.List[typing.Dict[str, object]]:
    """Collapse the ``worker`` label back out: whole-run totals.

    Counters sum across workers, gauges keep the highest-priority write
    (``(gen, pid)`` when the rows carry them), histograms fold exact
    moments plus HDR bucket counts — so merged percentiles are real
    values, identical to a single-process run at bucket resolution.
    """
    registry = MetricsRegistry()
    stripped = []
    for row in rows:
        labels = dict(typing.cast(typing.Mapping[str, str],
                                  row.get("labels") or {}))
        labels.pop("worker", None)
        merged = dict(row)
        merged["labels"] = labels
        stripped.append(merged)
    registry.absorb_rows(stripped)
    return registry.snapshot()


# -- run diffing -----------------------------------------------------------


def _metric_key(row: typing.Mapping[str, object]
                ) -> typing.Tuple[str, typing.Tuple]:
    labels = typing.cast(typing.Mapping[str, str],
                         row.get("labels") or {})
    return (str(row.get("name")), tuple(sorted(labels.items())))


def _row_value(row: typing.Optional[typing.Mapping[str, object]]
               ) -> typing.Optional[float]:
    if row is None:
        return None
    if row.get("type") == "histogram":
        return float(typing.cast(float, row.get("sum", 0.0)) or 0.0)
    return float(typing.cast(float, row.get("value", 0.0)) or 0.0)


def diff_metric_rows(rows_a: typing.Sequence[typing.Mapping[str, object]],
                     rows_b: typing.Sequence[typing.Mapping[str, object]]
                     ) -> typing.List[typing.Dict[str, object]]:
    """Aggregate both row sets and report per-metric value deltas."""
    agg_a = {_metric_key(r): r for r in aggregate_rows(rows_a)}
    agg_b = {_metric_key(r): r for r in aggregate_rows(rows_b)}
    out = []
    for key in sorted(set(agg_a) | set(agg_b)):
        row_a, row_b = agg_a.get(key), agg_b.get(key)
        value_a, value_b = _row_value(row_a), _row_value(row_b)
        delta = ((value_b or 0.0) - (value_a or 0.0)
                 if (value_a is not None or value_b is not None) else 0.0)
        name, labels = key
        out.append({
            "metric": name,
            "labels": ",".join(f"{k}={v}" for k, v in labels) or "-",
            "a": value_a if value_a is not None else "-",
            "b": value_b if value_b is not None else "-",
            "delta": delta,
        })
    return out


def diff_latency_rows(rows_a: typing.Sequence[typing.Mapping[str, object]],
                      rows_b: typing.Sequence[typing.Mapping[str, object]]
                      ) -> typing.List[typing.Dict[str, object]]:
    """Per-segment latency percentile deltas (b minus a), in ms.

    Reads the aggregated ``lat.segment_seconds`` histograms — the HDR
    fold keeps p50/p99 real across workers, so the diff works on
    multi-process runs too.
    """
    def percentiles(rows):
        out = {}
        for row in aggregate_rows(rows):
            if row.get("name") != "lat.segment_seconds":
                continue
            labels = typing.cast(typing.Mapping[str, str],
                                 row.get("labels") or {})
            out[tuple(sorted(labels.items()))] = row
        return out

    agg_a = percentiles(rows_a)
    agg_b = percentiles(rows_b)
    out = []
    for key in sorted(set(agg_a) | set(agg_b)):
        row_a = agg_a.get(key) or {}
        row_b = agg_b.get(key) or {}
        for field in ("p50", "p99"):
            value_a = typing.cast(typing.Optional[float],
                                  row_a.get(field))
            value_b = typing.cast(typing.Optional[float],
                                  row_b.get(field))
            if value_a is None and value_b is None:
                continue
            ms_a = value_a * 1e3 if value_a is not None else None
            ms_b = value_b * 1e3 if value_b is not None else None
            out.append({
                "segment": ",".join(f"{k}={v}" for k, v in key) or "-",
                "field": f"{field}_ms",
                "a": ms_a if ms_a is not None else "-",
                "b": ms_b if ms_b is not None else "-",
                "delta": (ms_b or 0.0) - (ms_a or 0.0),
            })
    return out


def _scenario_diff(man_a: typing.Mapping[str, object],
                   man_b: typing.Mapping[str, object]
                   ) -> typing.List[typing.Dict[str, object]]:
    scen_a = typing.cast(typing.Mapping[str, typing.Mapping],
                         man_a.get("scenarios") or {})
    scen_b = typing.cast(typing.Mapping[str, typing.Mapping],
                         man_b.get("scenarios") or {})
    rows = []
    for name in sorted(set(scen_a) | set(scen_b)):
        entry_a = scen_a.get(name) or {}
        entry_b = scen_b.get(name) or {}
        fields = ["ips"]
        buckets = sorted(set(entry_a.get("buckets") or {})
                         | set(entry_b.get("buckets") or {}))
        fields.extend(f"bucket:{bucket}" for bucket in buckets)
        for field in fields:
            if field.startswith("bucket:"):
                bucket = field[len("bucket:"):]
                value_a = (entry_a.get("buckets") or {}).get(bucket)
                value_b = (entry_b.get("buckets") or {}).get(bucket)
            else:
                value_a = entry_a.get(field)
                value_b = entry_b.get(field)
            if value_a is None and value_b is None:
                continue
            rows.append({
                "scenario": name,
                "field": field,
                "a": value_a if value_a is not None else "-",
                "b": value_b if value_b is not None else "-",
                "delta": (float(value_b or 0.0) - float(value_a or 0.0)),
            })
    return rows


def diff_runs(ref_a: str, ref_b: str,
              root: typing.Optional[str] = None
              ) -> typing.Dict[str, object]:
    """Metric and scenario deltas between two runs (b minus a)."""
    merged_a = merge_run(resolve_run(ref_a, root))
    merged_b = merge_run(resolve_run(ref_b, root))
    return {
        "a": merged_a.manifest.get("run_id"),
        "b": merged_b.manifest.get("run_id"),
        "scenarios": _scenario_diff(merged_a.manifest,
                                    merged_b.manifest),
        "metrics": diff_metric_rows(merged_a.rows, merged_b.rows),
        "latency": diff_latency_rows(merged_a.rows, merged_b.rows),
    }


def write_health(run_dir: str,
                 events: typing.Sequence[typing.Mapping[str, object]]
                 ) -> int:
    """Persist health events next to the shards; returns the count."""
    path = os.path.join(run_dir, HEALTH_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    return len(events)
