"""Deliberately violating module for the CI lint self-check.

CI runs ``repro lint`` over this file and asserts a non-zero exit, so a
silently broken linter (one that finds nothing anywhere) fails the build
instead of greenwashing it.  The determinism and hot-path violations
are path-independent: they fire regardless of where the repository is
checked out.  The fp32-order one fires when the file is linted under an
order-sensitive module path (``tests/test_lint_rules.py`` does so).
"""

import numpy as np

from repro.obs import runtime as _obs
from repro.perf.hotpath import hot_path

#: determinism: module-level draw from numpy's unseeded global RNG.
NOISE = np.random.rand(4)


@hot_path
def hot_leaf(values):
    # hot-path: ungated obs call and f-string in a @hot_path function.
    _obs.metrics().counter("seeded.violation").inc()
    return f"total={sum(values)}"


def conv_gemm(weight, cols):
    # fp32-order: einsum picks the GEMM's operand order from the shapes.
    return np.einsum("ok,nkp->nop", weight, cols, optimize=True)
