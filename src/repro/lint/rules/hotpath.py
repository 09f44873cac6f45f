"""Rule ``hot-path``: zero-overhead discipline in marked functions.

Applies to functions carrying the :func:`repro.perf.hot_path` decorator
or listed (dotted names) in the ``functions`` option.  Mark *leaf* inner
functions (one PE reduction, one DRAM transfer, one parameter sync) —
not orchestration loops, whose functional timing would false-positive.

Inside a hot function, everything that exists only for telemetry or
debugging must sit behind the ``REPRO_OBS`` gate (``if
_obs.enabled():`` block, ``x if _obs.enabled() else y`` ternary, a
local ``observing = _obs.enabled()`` alias, or the early-return guard
``if not _obs.enabled(): ...; return``):

* **obs calls** — ``_obs.metrics()`` / ``_obs.tracer()`` chains.
  (``_obs.enabled()`` is the gate itself; ``_obs.span(...)`` used
  directly as a ``with`` context is self-gating — it returns a shared
  no-op manager while disabled — and is exempt.)
* **wall-clock reads** — ``time.perf_counter()`` etc. exist only to
  feed telemetry in a leaf hot function; hoist them behind the gate
  (``started = time.perf_counter() if _obs.enabled() else 0.0``).
* **string construction** — f-strings, ``str.format``, ``print`` /
  ``logging`` calls.  Error paths are cold: anything inside a ``raise``
  statement is exempt.
* **allocation per iteration** — calls that allocate on every pass of a
  ``for``/``while`` (``np.zeros``/``np.empty``/``np.array``/
  ``np.concatenate``/..., ``list()``/``dict()``/``set()``, ``.copy()``/
  ``.astype()``/``.tolist()``, and comprehensions).  The loop model is
  precise (see :mod:`repro.lint.hazards`): ``for`` targets+bodies and
  ``while`` tests+bodies are per-iteration; loop ``else`` clauses and
  ``for`` iterables run once and are exempt unless an outer loop
  repeats them.  Hoist the buffer out of the loop and fill it in place
  (``np.copyto``, ``out=``).  Bare ``[]``/``{}`` literals are exempt —
  resetting a handed-off list is idiomatic and cheap next to building
  its contents.
* **run-log shard writes** — anything rooted at
  :mod:`repro.obs.runlog`, and ``flush`` / ``heartbeat`` /
  ``maybe_heartbeat`` calls (the ``runlog-methods`` option) on objects
  whose name mentions ``shard`` or ``runlog``.  Shard flushes serialise
  a full registry snapshot to disk — strictly gated territory.  The
  name heuristic keeps unrelated ``stream.flush()`` calls out of scope.
* **latency recorders** — anything rooted at :mod:`repro.obs.lat`,
  and ``add_ns`` / ``finish`` calls (the ``latency-methods`` option)
  on objects whose name mentions ``lat``.  The sanctioned idiom is the
  sentinel: ``lat = _lat.RoutineLatency(...) if _obs.enabled() else
  None`` then ``if lat is not None: lat.add_ns(...)`` — the gate
  analysis treats the ``is not None`` check as REPRO_OBS-gated.

The per-function scan lives in :mod:`repro.lint.hazards` and runs once
per function, into the whole-program summary; ``hot-path-transitive``
applies the same discipline through the call graph from the same data.
"""

from __future__ import annotations

from repro.lint import hazards
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register


def hazard_finding_message(hazard: hazards.Hazard, label: str) -> str:
    """The ``hot-path`` finding text for one hazard in ``label()``."""
    if hazard.kind == "latency":
        return (f"latency-recorder call `{hazard.name}(...)` in hot "
                f"path {label}() is not behind the REPRO_OBS gate; "
                "use the sentinel idiom `lat = ... if _obs.enabled() "
                "else None` and `if lat is not None:`")
    if hazard.kind == "runlog":
        return (f"runlog shard write `{hazard.name}(...)` in hot "
                f"path {label}() is not behind the REPRO_OBS gate; "
                "shard flushes serialise a full snapshot to disk — "
                "wrap them in `if _obs.enabled():`")
    if hazard.kind == "obs":
        return (f"obs call `{hazard.name}(...)` in hot path {label}() "
                "is not behind the REPRO_OBS gate; wrap it in "
                "`if _obs.enabled():`")
    if hazard.kind == "wallclock":
        return (f"wall-clock read `{hazard.name}()` in hot path "
                f"{label}() outside the REPRO_OBS gate; use `"
                f"{hazard.name}() if _obs.enabled() else 0.0` so the "
                "disabled path stays clock-free")
    if hazard.kind == "string":
        if hazard.subkind == "fstring":
            return (f"f-string built in hot path {label}() outside "
                    "the REPRO_OBS gate; hoist it behind "
                    "`if _obs.enabled():` (error paths inside "
                    "`raise` are exempt)")
        if hazard.subkind == "format":
            return (f"str.format() in hot path {label}() outside the "
                    "REPRO_OBS gate")
        return (f"`{hazard.name}` call in hot path {label}() outside "
                "the REPRO_OBS gate")
    # alloc
    if hazard.subkind == "comprehension":
        return (f"comprehension allocates per iteration inside a loop "
                f"of hot path {label}(); hoist it out or fill a "
                "preallocated buffer")
    if hazard.subkind == "np":
        return (f"`{hazard.name}` allocates per iteration inside a "
                f"loop of hot path {label}(); hoist the buffer and "
                "fill it in place (np.copyto / out=)")
    if hazard.subkind == "method":
        return (f"{hazard.name}() allocates per iteration inside a "
                f"loop of hot path {label}(); hoist it out of the loop")
    return (f"`{hazard.name}()` allocates per iteration inside a loop "
            f"of hot path {label}(); hoist it out of the loop")


@register
class HotPathRule(Rule):
    """The depth-0 case of ``hot-path-transitive``: both read the
    hazards :func:`repro.lint.program.extract_summary` stores per
    function; this rule reports a hot function's own."""

    name = "hot-path"
    description = ("telemetry, string building, wall-clock reads, "
                   "runlog shard writes, and per-iteration allocation "
                   "in @hot_path functions must be behind the "
                   "REPRO_OBS gate")
    requires_program = True

    def check_module(self, program, summary):
        for func in summary.hot_functions:
            for hazard in func.hazards:
                if hazard.kind == "alloc" and not hazard.in_loop:
                    continue       # one-off allocation is fine in a leaf
                yield Finding(
                    rule=self.name, path=summary.path,
                    line=hazard.lineno, col=hazard.col,
                    end_line=hazard.end_lineno,
                    message=hazard_finding_message(hazard,
                                                   func.qualname))
