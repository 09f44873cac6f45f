"""Outside-in tracing: patched callables record nested spans in memory.

The benchmark never edits the program.  It replaces public callables
(instance, class or module attributes) with wrappers for the length of
one chunk and puts the originals back afterwards.  Every wrapper records
a span: name, start, end, parent span and the id of the op (routine or
``measure()`` call) it belongs to.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import collections
import time
import typing

_MISSING = object()

#: Span tuple fields.
NAME, START, END, PARENT, OP, DATA = range(6)


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self):
        self.spans: typing.List[list] = []
        self._stack: typing.List[int] = []
        self.op = -1

    def begin(self, name: str, data=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.op, data])
        self._stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def end(self) -> None:
        ended = time.perf_counter()
        self.spans[self._stack.pop()][END] = ended

    def call(self, name: str, fn, args, kwargs, data=None):
        self.begin(name, data)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def wrap(self, name: str, fn):
        """``fn`` recording a ``name`` span per call."""
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def unwind(self) -> None:
        """Close every open span (after an exception escaped them)."""
        while self._stack:
            self.end()


class Patches:
    """Attribute replacements that can be undone, last in first out."""

    def __init__(self):
        self._undo: typing.List[typing.Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        previous = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, previous))

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` with ``make_wrapper(owner.attr)``."""
        self.set(owner, attr, make_wrapper(getattr(owner, attr)))

    def undo(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


class TraceError(Exception):
    """The recorded spans are inconsistent (a bench bug, not noise)."""


def analyse(spans: typing.Sequence[list]) -> typing.Tuple[
        typing.List[float], typing.Dict[int, typing.List[int]]]:
    """Per-span self time, and children by parent index.

    A span's self time is its duration minus the time its children
    cover.  On one thread children run one after another inside their
    parent, so that is the sum of their durations.  Raises
    :class:`TraceError` if a span is unclosed, a child pokes out of its
    parent, or children add up to more than their parent.
    """
    children: typing.Dict[int, typing.List[int]] = \
        collections.defaultdict(list)
    for index, span in enumerate(spans):
        if span[END] < span[START]:
            raise TraceError(f"span {span[NAME]!r} #{index} is unclosed "
                             f"or ends before it starts")
        parent = span[PARENT]
        if parent >= 0:
            outer = spans[parent]
            if span[START] < outer[START] or span[END] > outer[END]:
                raise TraceError(f"span {span[NAME]!r} #{index} is not "
                                 f"inside its parent {outer[NAME]!r}")
            children[parent].append(index)
    self_times = []
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        covered = sum(spans[child][END] - spans[child][START]
                      for child in children.get(index, ()))
        if covered > duration:
            raise TraceError(f"children of {span[NAME]!r} #{index} are "
                             f"busy {covered:.9f} s, longer than its "
                             f"{duration:.9f} s")
        self_times.append(duration - covered)
    return self_times, children


def totals(spans: typing.Sequence[list],
           self_times: typing.Sequence[float]) -> typing.Dict[
               str, typing.Tuple[int, float, float]]:
    """``name -> (calls, busy seconds, self seconds)``."""
    out: typing.Dict[str, typing.List[float]] = {}
    for span, own in zip(spans, self_times):
        row = out.setdefault(span[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span[END] - span[START]
        row[2] += own
    return {name: (int(calls), busy, own)
            for name, (calls, busy, own) in out.items()}
