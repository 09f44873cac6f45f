# LINT-PATH: repro/core/fixture_hot_loops.py
"""Corpus: loop-clause semantics — only what re-executes per iteration.

A ``for`` iterable is evaluated once; ``else`` clauses run once on
normal exit; a ``while`` test re-evaluates every iteration; and an
outer loop makes everything inside per-iteration regardless of clause.
A function defined in a loop body is not: its body runs when called,
though its defaults run with every ``def``.
"""
import numpy as np

from repro.perf.hotpath import hot_path


@hot_path
def while_test_reallocates(limit):
    index = 0
    while index < len(np.zeros(3)):                # EXPECT: hot-path
        index += 1
        if index >= limit:
            break
    return index


@hot_path
def for_iterable_and_else_run_once(n):
    total = 0.0
    for value in np.zeros(n):
        total += value
    else:
        leftovers = np.ones(n)
        total += leftovers[0]
    return total


@hot_path
def while_body_reallocates(n):
    count = 0
    while count < n:
        scratch = np.zeros(4)                      # EXPECT: hot-path
        count += int(scratch[0]) + 1
    else:
        tail = np.ones(2)
        count += int(tail[0])
    return count


@hot_path
def outer_loop_poisons_inner_iterable(rows):
    total = 0.0
    for row in rows:
        for value in np.zeros(3):                  # EXPECT: hot-path
            total += value + row
    return total


@hot_path
def closures_defined_per_iteration(sizes):
    makers = []
    for size in sizes:
        def make(scratch=np.ones(size)):           # EXPECT: hot-path
            return np.zeros(size) + scratch
        makers.append(make)
    return makers
