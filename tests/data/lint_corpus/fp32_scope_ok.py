# LINT-PATH: repro/harness/fixture_fp32_elsewhere.py
"""Corpus: fp32-order only applies inside the bit-exact modules."""
import numpy as np


def analysis(a, b):
    return np.dot(a, b) + np.sum(a) + np.einsum("ij,jk", a, b)
