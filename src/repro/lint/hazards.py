"""Hot-path hazard scanning for the whole-program index.

A *hazard* is anything the hot-path discipline forbids outside the
``REPRO_OBS`` gate: telemetry calls, wall-clock reads, string building,
run-log shard writes, latency-recorder calls, and per-iteration
allocation.  :func:`scan_hazards` returns the **ungated** hazards of one
function; :func:`repro.lint.program.extract_summary` stores them per
function, once.  The ``hot-path`` rule turns a hot function's own
hazards into findings, and ``hot-path-transitive`` flags a hot caller
*reaching* a helper's hazards through the call graph.

Loop semantics (the per-iteration flags of
:class:`repro.lint.astutil.FileContext`) are precise about what
actually re-executes per iteration:

* ``for``: the target and body — **not** the iterable (evaluated once)
  and **not** the ``else`` clause (runs once, on normal exit);
* ``while``: the test **and** body — the test re-evaluates every
  iteration; the ``else`` clause again runs once;
* comprehensions: the element and condition expressions are
  per-iteration of the comprehension itself; the first ``for``'s
  iterable is evaluated once;
* anything inside an *outer* loop is per-iteration regardless of which
  clause of an inner statement it sits in;
* a function defined in a loop: its decorators and defaults run with
  every ``def``, its body only when called.
"""

from __future__ import annotations

import ast
import dataclasses
import typing

from repro.lint import astutil

_ALLOC_NP = {"zeros", "ones", "empty", "full", "array", "arange",
             "concatenate", "stack", "vstack", "hstack", "tile",
             "repeat", "copy", "zeros_like", "ones_like", "empty_like",
             "full_like"}
_ALLOC_BUILTINS = {"list", "dict", "set", "tuple", "bytearray"}
_ALLOC_METHODS = {"copy", "astype", "tolist", "flatten", "ravel"}
_STRING_BUILDERS = {"print"}
_WALLCLOCK = {"time", "time_ns", "monotonic", "monotonic_ns",
              "perf_counter", "perf_counter_ns"}

RUNLOG_DEFAULT_METHODS = ("flush", "heartbeat", "maybe_heartbeat")
# "measure" is deliberately absent: the receiver-mentions-"lat"
# heuristic would catch `platform.measure(...)` ("platform" contains
# "lat"), which is a throughput run, not a latency recorder.
LATENCY_DEFAULT_METHODS = ("add_ns", "finish")


@dataclasses.dataclass(frozen=True)
class Hazard:
    """One ungated hot-path violation candidate inside a function.

    ``kind`` is ``obs`` / ``wallclock`` / ``string`` / ``runlog`` /
    ``latency`` / ``alloc``; ``subkind`` refines it (``fstring``,
    ``np``, ``builtin``, ``method``, ``comprehension``, ...).
    ``in_loop`` means the hazard re-executes per iteration of a loop
    *within the scanned function* — allocation hazards only matter in a
    loop (their own, or transitively a caller's loop around the call
    site).
    """

    kind: str
    subkind: str
    name: str
    lineno: int
    col: int
    end_lineno: typing.Optional[int]
    in_loop: bool

    def describe(self) -> str:
        """Short human-readable form for transitive-chain messages."""
        if self.kind == "obs":
            return f"ungated obs call `{self.name}(...)`"
        if self.kind == "wallclock":
            return f"ungated wall-clock read `{self.name}()`"
        if self.kind == "runlog":
            return f"ungated runlog shard write `{self.name}(...)`"
        if self.kind == "latency":
            return f"ungated latency-recorder call `{self.name}(...)`"
        if self.kind == "string":
            if self.subkind == "fstring":
                return "ungated f-string construction"
            return f"ungated `{self.name}` call"
        if self.subkind == "comprehension":
            return "per-iteration comprehension allocation"
        return f"per-iteration allocation `{self.name}`"


def scan_hazards(ctx: astutil.FileContext, func: astutil.FunctionNode,
                 shard_methods: typing.Optional[typing.Set[str]] = None,
                 latency_methods: typing.Optional[typing.Set[str]] = None,
                 ) -> typing.List[Hazard]:
    """All **ungated** hazards in ``func`` (gated ones are fine by
    definition and never recorded)."""
    shard_methods = shard_methods if shard_methods is not None \
        else set(RUNLOG_DEFAULT_METHODS)
    latency_methods = latency_methods if latency_methods is not None \
        else set(LATENCY_DEFAULT_METHODS)
    hazards: typing.List[Hazard] = []
    for node in ctx.descendants(func, ast.Call, ast.JoinedStr,
                                *astutil.COMPREHENSIONS):
        if isinstance(node, ast.Call):
            hazard = _classify_call(ctx, func, node, shard_methods,
                                    latency_methods)
            if hazard is not None:
                hazards.append(hazard)
        elif isinstance(node, ast.JoinedStr):
            if not ctx.is_gated(func, node) and not ctx.in_raise(node):
                hazards.append(_hazard(ctx, func, "string", "fstring",
                                       "f-string", node))
        elif not ctx.is_gated(func, node):
            hazards.append(_hazard(ctx, func, "alloc", "comprehension",
                                   "comprehension", node))
    hazards.sort(key=lambda h: (h.lineno, h.col, h.kind, h.name))
    return hazards


def _hazard(ctx: astutil.FileContext, func: astutil.FunctionNode,
            kind: str, subkind: str, name: str, node: ast.AST) -> Hazard:
    return Hazard(kind=kind, subkind=subkind, name=name,
                  lineno=getattr(node, "lineno", 1),
                  col=getattr(node, "col_offset", 0),
                  end_lineno=getattr(node, "end_lineno", None),
                  in_loop=ctx.in_loop(func, node))


def _classify_call(ctx: astutil.FileContext, func: astutil.FunctionNode,
                   node: ast.Call, shard_methods: typing.Set[str],
                   latency_methods: typing.Set[str],
                   ) -> typing.Optional[Hazard]:
    if ctx.is_gated(func, node):
        return None
    lat_name = latency_call_name(ctx, node, latency_methods)
    if lat_name is not None:
        return _hazard(ctx, func, "latency", "call", lat_name, node)
    shard_name = runlog_call_name(ctx, node, shard_methods)
    if shard_name is not None:
        return _hazard(ctx, func, "runlog", "call", shard_name, node)
    obs_name = ctx.is_obs_call(node)
    if obs_name is not None:
        terminal = obs_name.split(".")[-1]
        if terminal == "enabled":
            return None
        if terminal == "span" and \
                isinstance(ctx.parent(node), ast.withitem):
            return None                      # self-gating `with` context
        return _hazard(ctx, func, "obs", "call", obs_name, node)
    name = astutil.dotted(node.func)
    parts = name.split(".") if name else []
    if parts and parts[0] in ctx.time_aliases and len(parts) == 2 \
            and parts[1] in _WALLCLOCK:
        return _hazard(ctx, func, "wallclock", "call", name, node)
    if not ctx.in_raise(node):
        if name in _STRING_BUILDERS or \
                (parts and parts[0] in ("logging", "log", "logger")):
            return _hazard(ctx, func, "string", "call", name, node)
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "format" \
                and isinstance(node.func.value,
                               (ast.Constant, ast.JoinedStr)):
            return _hazard(ctx, func, "string", "format", "str.format",
                           node)
    if len(parts) == 2 and parts[0] in ctx.numpy_aliases \
            and parts[1] in _ALLOC_NP:
        return _hazard(ctx, func, "alloc", "np", name, node)
    if name in _ALLOC_BUILTINS:
        return _hazard(ctx, func, "alloc", "builtin", name, node)
    if isinstance(node.func, ast.Attribute) \
            and node.func.attr in _ALLOC_METHODS \
            and not (parts and parts[0] in ctx.numpy_aliases):
        return _hazard(ctx, func, "alloc", "method", "." + node.func.attr,
                       node)
    return None


def latency_call_name(ctx: astutil.FileContext, node: ast.Call,
                      methods: typing.Set[str]) -> typing.Optional[str]:
    """The dotted name of a latency-recorder call, or ``None``.

    Module-rooted :mod:`repro.obs.lat` calls are always in scope;
    method calls match only when the method is a configured latency
    method *and* the dotted receiver mentions ``lat`` — so an
    unrelated ``writer.finish()`` never trips the rule.
    """
    name = ctx.is_lat_call(node)
    if name is not None:
        return name
    if not isinstance(node.func, ast.Attribute) \
            or node.func.attr not in methods:
        return None
    name = astutil.dotted(node.func)
    if name is None:
        return None
    receiver = name.rsplit(".", 1)[0].lower()
    if "lat" in receiver:
        return name
    return None


def runlog_call_name(ctx: astutil.FileContext, node: ast.Call,
                     methods: typing.Set[str]) -> typing.Optional[str]:
    """The dotted name of a run-log shard write, or ``None``.

    Module-rooted runlog calls are always in scope; method calls
    match only when the method is a configured shard method *and*
    the dotted receiver mentions ``shard`` or ``runlog`` — so a
    plain ``stream.flush()`` never trips the rule.
    """
    name = ctx.is_runlog_call(node)
    if name is not None:
        return name
    if not isinstance(node.func, ast.Attribute) \
            or node.func.attr not in methods:
        return None
    name = astutil.dotted(node.func)
    if name is None:
        return None
    receiver = name.lower()
    if "shard" in receiver or "runlog" in receiver:
        return name
    return None
