"""Host fingerprint and the reference kernel.

Nothing here imports ``repro``: the reference kernel must cost the same
whatever the program under test does, and the fingerprint describes the
machine, not the program.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import platform
import time

import numpy as np


def _blas_build() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return " ".join(str(blas.get(key, "")) for key in
                    ("name", "version", "openblas configuration")).strip()


def _cpu_features() -> str:
    # OpenBLAS built with DYNAMIC_ARCH picks its kernels from these, and
    # different kernels round differently, so they belong in the key.
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return "unknown"
    enabled = sorted(name for name, on in __cpu_features__.items() if on)
    return hashlib.sha256(",".join(enabled).encode()).hexdigest()[:12]


def fingerprint() -> dict:
    """What recorded parameter hashes depend on, besides the code."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu_features": _cpu_features(),
    }


def fingerprint_id(print_: dict) -> str:
    """Short stable key for a fingerprint."""
    blob = json.dumps(print_, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


class ReferenceKernel:
    """Fixed NumPy and pure-Python work, timed between chunks.

    Training mixes small matmuls, tall im2col-style GEMMs that stream
    through memory and elementwise passes (the NumPy part) with many
    tiny NumPy calls (the games draw frames rectangle by rectangle) and
    interpreter work (the Python part).  Scaling a chunk's wall time by
    the kernel's time beside it cancels most of the slow-down that other
    load on the host causes to both.  A workload that runs no BLAS, like
    the simulator sweep, is better matched by the Python part alone.
    """

    def __init__(self, numpy_part: bool = True):
        self._numpy_part = numpy_part
        #: Typical time of one call on the reference host (a 2-core Xeon
        #: VM, one BLAS thread), the unit of reference-host seconds.
        self.nominal_s = 0.015 if numpy_part else 0.005
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((192, 192), dtype=np.float32)
        self._b = rng.standard_normal((192, 192), dtype=np.float32)
        self._cols = rng.standard_normal((12_800, 256), dtype=np.float32)
        self._filters = rng.standard_normal((256, 16), dtype=np.float32)
        self._stream = rng.standard_normal(2_000_000, dtype=np.float32)
        self._out = np.empty_like(self._stream)
        self._screen = np.zeros((210, 160, 3), dtype=np.uint8)
        self._colors = [(200, 72, 72), (72, 160, 72), (66, 72, 200),
                        (0, 0, 0)]

    def __call__(self) -> float:
        """Run the kernel once; returns its wall seconds."""
        started = time.perf_counter()
        if self._numpy_part:
            self._numpy()
        self._python()
        return time.perf_counter() - started

    def _numpy(self) -> None:
        square = self._a
        for _ in range(24):
            square = np.tanh(square @ self._b)
        tall = self._cols @ self._filters
        for _ in range(2):
            np.multiply(self._stream, 1.0001, out=self._out)
            np.add(self._out, self._stream, out=self._out)
        if not (np.isfinite(square).all() and np.isfinite(tall).all()
                and np.isfinite(self._out[-1])):
            raise RuntimeError("reference kernel produced a bad result")

    def _python(self) -> None:
        screen = self._screen
        for index in range(1_500):
            top = index % 200
            left = (index * 7) % 150
            screen[top:top + 6, left:left + 9] = self._colors[index % 4]
        # An event-queue loop: heap pushes and pops, tuple compares and
        # method calls, the interpreter work simulators and trainers do.
        queue: list = []
        for index in range(3_000):
            heapq.heappush(queue, ((index * 7919) % 1009, index,
                                   self._tick))
        total = 0
        while queue:
            _, index, tick = heapq.heappop(queue)
            total += tick(index)
        if total <= 0:
            raise RuntimeError("reference kernel produced a bad result")

    @staticmethod
    def _tick(index: int) -> int:
        return (index * index) % 7 + 1
