"""Order statistics and failure accounting for the benchmark."""

from __future__ import annotations

import dataclasses
import math
import statistics
import typing

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer make it one sample's noise.
MIN_BEYOND = 10


def median(values: typing.Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def tail_rank(count: int, percentile: float = 90.0) -> int:
    """0-based index into sorted samples of the reported tail value.

    The nearest-rank ``percentile``, lowered until at least
    :data:`MIN_BEYOND` samples lie beyond it, but never below the upper
    median: with fewer than ``2 * MIN_BEYOND + 1`` samples the tail is
    the upper median.
    """
    if count < 1:
        raise ValueError("no samples")
    rank = math.ceil(percentile / 100.0 * count) - 1
    rank = min(rank, count - 1 - MIN_BEYOND)
    return max(rank, count // 2)


def tail(values: typing.Sequence[float],
         percentile: float = 90.0) -> typing.Tuple[float, float]:
    """``(value, percentile actually reported)`` under :func:`tail_rank`."""
    ordered = sorted(values)
    rank = tail_rank(len(ordered), percentile)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


@dataclasses.dataclass
class Outcome:
    """Op counts of one run and whether its final check held.

    ``attempted`` counts every op started in the timed window, ``failed``
    the ones that raised or produced a wrong result.  A run whose final
    check fails (a training run's parameter hash) or that was cut short
    by an exception fails every op: nothing it produced can be trusted.
    """

    attempted: int = 0
    failed: int = 0
    final_ok: bool = True
    aborted: bool = False

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def reported_failed(self) -> int:
        if self.aborted or not self.final_ok:
            return self.attempted
        return self.failed

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.reported_failed == 0
