# LINT-PATH: repro/nn/fixture_fp32_bad.py
"""Corpus: fp32-order true positives (order-free / axis-less reductions)."""
import numpy as np


def reductions(a, b):
    unordered = np.dot(a, b)                       # EXPECT: fp32-order
    paired = np.inner(a, b)                        # EXPECT: fp32-order
    flat = np.vdot(a, b)                           # EXPECT: fp32-order
    pairwise = np.add.reduce(a)                    # EXPECT: fp32-order
    implicit = np.sum(a)                           # EXPECT: fp32-order
    method = (a * b).sum()                         # EXPECT: fp32-order
    shaped = np.einsum("ok,nkp->nop", a, b)        # EXPECT: fp32-order
    planned = np.einsum("ij,jk", a, b, optimize=True)  # EXPECT: fp32-order
    folded = np.tensordot(a, b, axes=1)            # EXPECT: fp32-order
    return (unordered, paired, flat, pairwise, implicit, method, shaped,
            planned, folded)
