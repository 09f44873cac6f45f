"""The modelled record: named runs, ``BENCH_fa3c.json``, the exact check.

The simulators are deterministic discrete-event models in pure-Python
float arithmetic, so identical code produces bit-identical modelled
numbers on every host.  The record therefore stores them exactly — every
scalar as ``float.hex``, every bulk output as a SHA-256 digest — and
:func:`check` compares them exactly, in both directions.  Any difference
is a behaviour change, named by run and field.

Per run (:data:`RUNS`) the record holds IPS, simulated seconds, CU
utilisation and each cause-bucket share, a digest of the per-request
inference latencies, and a digest of the full metrics snapshot (the FPGA
cycle attribution per CU, task, stage, layer and bucket, DRAM traffic,
GPU time buckets, end-of-run gauges).  Once per file it holds a digest of
every stage span one FPGA run's tracer records (:data:`TRACED`).

Workflow (see docs/observability.md):

* ``repro bench --baseline`` measures runs and writes them into the
  record; a subset (``--scenarios``/``--platform``) replaces only its
  own runs.  Re-record only when a modelled number is meant to change;
  the record's diff shows which runs moved;
* ``repro bench --check`` re-measures and exits non-zero listing every
  run and field that differs (the CI ``perf-gate`` job);
* ``tests/test_sim_golden.py`` checks every run through the same
  :func:`load`, :func:`measure` and :func:`check`.
"""

from __future__ import annotations

import hashlib
import json
import typing

from repro import obs
from repro.obs.prof.attribution import AttributionReport

#: The committed record at the repo root.
DEFAULT_BASELINE = "BENCH_fa3c.json"
VERSION = 2


class Scenario(typing.NamedTuple):
    """One benchmarked configuration: a backend under a fixed load."""

    name: str
    backend: str                          # repro.backends registry name
    overrides: typing.Tuple[typing.Tuple[str, object], ...] = ()
    num_agents: int = 8
    t_max: int = 5
    routines: int = 25
    host: str = ""                        # "" = default HostModel

    @property
    def key(self) -> str:
        """The run's key in the record: ``<name>/<agents>``."""
        return f"{self.name}/{self.num_agents}"

    def build(self):
        """A fresh backend instance (default topology) for one run."""
        from repro import backends
        return backends.create(self.backend, **dict(self.overrides))

    def build_host(self):
        """The HostModel for this scenario (None = platform default)."""
        if not self.host:
            return None
        from repro.platforms.throughput import HostModel
        factory = getattr(HostModel, self.host, None)
        if factory is None:
            raise ValueError(f"unknown host model {self.host!r} in "
                             f"scenario {self.name!r}")
        return factory()


#: The bench matrix: the proposed design, the Section 5.4 ablations that
#: move cycles between cause buckets (no double buffering -> buffer
#: stalls, Alt2 -> layout traffic), and the software baselines.
SCENARIOS: typing.Tuple[Scenario, ...] = (
    Scenario("fa3c-n8", "fa3c-fpga"),
    Scenario("fa3c-single-cu-n8", "fa3c-single-cu"),
    Scenario("fa3c-alt2-n8", "fa3c-alt2"),
    Scenario("fa3c-nodb-n8", "fa3c-fpga",
             (("double_buffering", False),)),
    Scenario("gpu-cudnn-n8", "a3c-cudnn"),
    Scenario("ga3c-tf-n8", "ga3c-tf"),
    # GA3C fed by the SoA batched engine: the amortised host step
    # (HostModel.batched, a frozen calibration figure) shifts the
    # occupancy curve toward the contention-limited region.
    Scenario("ga3c-tf-batched-n8", "ga3c-tf", host="batched"),
    Scenario("a3c-tf-gpu-n8", "a3c-tf-gpu"),
    Scenario("a3c-tf-cpu-n8", "a3c-tf-cpu"),
    # Precision-parametric datapaths: same FA3C microarchitecture at
    # narrower operand storage (more words per DRAM beat, more PEs per
    # DSP budget).  Separate scenarios so that adding them left every
    # recorded fp32 run unchanged.
    Scenario("fa3c-fp16-n8", "fa3c-fp16"),
    Scenario("fa3c-int8-n8", "fa3c-int8"),
)

#: Agent counts every scenario is recorded at: one agent (no queueing),
#: a partly loaded and a saturated platform.
AGENTS = (1, 3, 8)

#: FPGA configurations at 6 agents and 8 routines per agent: the
#: proposed design, no double buffering, a single combined CU, the Alt2
#: layout and one CU pair.
VARIANTS: typing.Tuple[Scenario, ...] = (
    Scenario("fa3c", "fa3c-fpga", num_agents=6, routines=8),
    Scenario("nodb", "fa3c-fpga", (("double_buffering", False),),
             num_agents=6, routines=8),
    Scenario("single-cu", "fa3c-single-cu", num_agents=6, routines=8),
    Scenario("alt2", "fa3c-alt2", num_agents=6, routines=8),
    Scenario("one-pair", "fa3c-fpga", (("cu_pairs", 1),),
             num_agents=6, routines=8),
)

#: Every recorded run: each scenario at each of :data:`AGENTS`, then the
#: variants.
RUNS: typing.Tuple[Scenario, ...] = tuple(
    scenario._replace(num_agents=agents)
    for scenario in SCENARIOS for agents in AGENTS) + VARIANTS

RUNS_BY_KEY = {run.key: run for run in RUNS}

#: The run whose stage spans the record pins.
TRACED = "fa3c-n8/8"


def select(names: typing.Optional[typing.Sequence[str]] = None,
           backend: typing.Optional[str] = None) -> typing.List[Scenario]:
    """The runs of the named scenarios (all if none are named),
    optionally only those of one registry backend."""
    known = {run.name for run in RUNS}
    unknown = sorted(set(names or ()) - known)
    if unknown:
        raise ValueError(f"unknown scenario {', '.join(unknown)}; known: "
                         f"{', '.join(sorted(known))}")
    return [run for run in RUNS
            if (not names or run.name in names)
            and (backend is None or run.backend == backend)]


class Measured(typing.NamedTuple):
    """One run: its record entry and what produced it."""

    entry: typing.Dict[str, object]
    result: typing.Any                   # repro.platforms.ThroughputResult
    report: typing.Optional[AttributionReport]


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


def _run(run: Scenario, platform=None):
    from repro.platforms import measure_ips
    return measure_ips(platform or run.build(), run.num_agents,
                       t_max=run.t_max, routines_per_agent=run.routines,
                       host=run.build_host())


def measure(run: Scenario, observe: bool = True) -> Measured:
    """Run ``run`` and build its record entry.

    With ``observe`` the run collects metrics in a fresh scope and the
    entry is complete; without, telemetry stays in its ambient state and
    the entry holds only the fields that do not need it (``ips``,
    ``sim_seconds``, ``utilisation``, ``latencies``), which must equal
    the observed run's.
    """
    report = None
    if observe:
        with obs.enabled_scope(reset=True):
            result = _run(run)
            rows = obs.metrics().snapshot()
            report = AttributionReport.from_registry(
                obs.metrics()).validate()
    else:
        result = _run(run)
    entry: typing.Dict[str, object] = {
        "ips": float(result.ips).hex(),
        "sim_seconds": float(result.sim_seconds).hex(),
        "utilisation": float(result.utilisation).hex(),
        "latencies": _sha(",".join(float(value).hex() for value
                                   in result.inference_latencies)),
    }
    if report is not None:
        entry["buckets"] = {bucket: float(share).hex() for bucket, share
                            in sorted(report.bucket_shares().items())}
        entry["metrics"] = _sha(json.dumps(_canonical(rows),
                                           sort_keys=True))
    return Measured(entry, result, report)


class _Traced:
    """A platform whose sims record their stage spans into ``tracer``."""

    def __init__(self, platform, tracer):
        self._platform = platform
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._platform, name)

    def build_sim(self, engine):
        return self._platform.build_sim(engine, tracer=self._tracer)


def trace() -> typing.Dict[str, object]:
    """The record's trace entry: every stage span of :data:`TRACED`."""
    from repro.sim import Tracer
    run = RUNS_BY_KEY[TRACED]
    tracer = Tracer()
    _run(run, _Traced(run.build(), tracer))
    spans = [[span.lane, span.label, span.start.hex(), span.end.hex()]
             for span in tracer.spans]
    return {"run": TRACED, "spans": len(spans),
            "digest": _sha(json.dumps(spans))}


def write(record: typing.Mapping[str, object], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load(path) -> typing.Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    version = record.get("version")
    if version != VERSION:
        raise ValueError(f"unsupported baseline version {version!r} "
                         f"in {path}")
    if not isinstance(record.get("runs"), dict):
        raise ValueError(f"no runs in baseline {path}")
    return record


def _flat(entry: typing.Mapping[str, object],
          prefix: str = "") -> typing.Dict[str, object]:
    flat: typing.Dict[str, object] = {}
    for field, value in entry.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{field}."))
        else:
            flat[prefix + field] = value
    return flat


def _show(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str) and value.lstrip("-").startswith("0x"):
        return f"{value} ({float.fromhex(value)!r})"
    return str(value)


def _diff(name: str, want: typing.Mapping[str, object],
          got: typing.Mapping[str, object]) -> typing.List[str]:
    want, got = _flat(want), _flat(got)
    return [f"{name}: {field} {_show(want.get(field))} -> "
            f"{_show(got.get(field))}"
            for field in sorted(set(want) | set(got))
            if want.get(field) != got.get(field)]


def check(recorded: typing.Mapping[str, typing.Any],
          current: typing.Mapping[str, typing.Any]) -> typing.List[str]:
    """Every difference between ``current`` and ``recorded`` (empty =
    pass), one message per run and field.

    Each run of ``current`` must match its recorded entry field for
    field, exactly.  A current run the record lacks fails, and so does a
    recorded run that :data:`RUNS` no longer defines.  The trace entry
    is compared when ``current`` has one.
    """
    runs = recorded["runs"]
    failures = [f"{key}: in baseline but no longer defined"
                for key in sorted(set(runs) - set(RUNS_BY_KEY))]
    for key, entry in sorted(current["runs"].items()):
        if key not in runs:
            failures.append(f"{key}: not in baseline")
        else:
            failures.extend(_diff(key, runs[key], entry))
    if "trace" in current:
        failures.extend(_diff("trace", recorded.get("trace") or {},
                              current["trace"]))
    return failures
