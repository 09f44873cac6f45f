"""repro.obs — unified metrics and tracing for the reproduction.

The paper's claims are measurements; this package is how the repo
measures.  It provides:

* :class:`MetricsRegistry` — labelled counters / gauges / histograms with
  snapshot, reset, and JSON / JSONL emission (:mod:`repro.obs.registry`);
* :class:`SpanTracer` — one tracer for *sim-time* spans (drop-in where a
  :class:`repro.sim.trace.Tracer` is accepted) and *wall-clock* spans
  (``with obs.span(...)`` / ``@obs.traced(...)``, stamped with
  ``time.perf_counter``) (:mod:`repro.obs.tracer`);
* a Chrome trace-event exporter loadable in ``chrome://tracing`` and
  Perfetto (:mod:`repro.obs.chrome`);
* the process-wide switch: collection is off unless ``REPRO_OBS=1`` is
  set or :func:`enable` is called, and every instrumented hot path is
  gated on :func:`enabled` so disabled runs pay one boolean branch
  (:mod:`repro.obs.runtime`);
* report rendering for ``repro obs-report`` (:mod:`repro.obs.report`);
* run-scoped telemetry: run directories with manifests and per-process
  shards, shard merging with ``worker`` labels, and the worker-health
  monitor (:mod:`repro.obs.runlog`, :mod:`repro.obs.health` — loaded
  lazily);
* per-routine latency decomposition (``queue_wait`` / ``batch_form`` /
  ``infer`` / ``env_step`` / ``train`` / ``param_sync``) with a
  sum-to-total invariant and a critical-path extractor over recorded
  spans (:mod:`repro.obs.lat` — loaded lazily);
* cycle-attribution profiling, folded-stack export and the perf-baseline
  gate (:mod:`repro.obs.prof` — loaded lazily, because the platform
  models it analyses themselves import this package).
"""

from repro.obs.chrome import (
    chrome_trace_document,
    chrome_trace_events,
    load_chrome_trace,
    write_chrome_trace,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_jsonl,
)
from repro.obs.report import obs_report, registry_report, run_report
from repro.obs.runtime import (
    disable,
    enable,
    enabled,
    enabled_scope,
    metrics,
    span,
    traced,
    tracer,
)
from repro.obs.tracer import SIM, WALL, ObsSpan, SpanTracer

__all__ = [
    "SIM",
    "WALL",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsSpan",
    "SpanTracer",
    "chrome_trace_document",
    "chrome_trace_events",
    "disable",
    "enable",
    "enabled",
    "enabled_scope",
    "health",
    "lat",
    "load_chrome_trace",
    "load_jsonl",
    "metrics",
    "obs_report",
    "registry_report",
    "run_report",
    "runlog",
    "span",
    "prof",
    "traced",
    "tracer",
    "write_chrome_trace",
]

_LAZY_SUBMODULES = ("prof", "runlog", "health", "lat")


def __getattr__(name):
    if name in _LAZY_SUBMODULES:
        import importlib
        return importlib.import_module(f"repro.obs.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
