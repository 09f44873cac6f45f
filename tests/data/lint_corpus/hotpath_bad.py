# LINT-PATH: repro/core/fixture_hot_bad.py
"""Corpus: hot-path true positives (ungated telemetry and allocation)."""
import time

import numpy as np

from repro.obs import runtime as _obs
from repro.perf.hotpath import hot_path


@hot_path
def leaf(values):
    started = time.perf_counter()                  # EXPECT: hot-path
    _obs.metrics().counter("x").inc()              # EXPECT: hot-path
    label = f"n={len(values)}"                     # EXPECT: hot-path
    total = 0.0
    for value in values:
        scratch = np.zeros(4)                      # EXPECT: hot-path
        extras = list(values)                      # EXPECT: hot-path
        squares = [v * v for v in values]          # EXPECT: hot-path
        copied = value.copy()                      # EXPECT: hot-path
        total += scratch[0] + len(extras) + len(squares) + copied
    print(total)                                   # EXPECT: hot-path
    return started, label, total


class Gauge:
    """A hot property getter keeps its findings though the setter's
    ``def`` reuses its name."""

    @property
    @hot_path
    def level(self):
        return f"{self._level}"                    # EXPECT: hot-path

    @level.setter
    def level(self, value):
        self._level = value
