"""Norms for comparing arrays: the Frobenius norm and the relative L2 distance.

Both are pure functions over float64 numpy arrays of any shape.
"""

from __future__ import annotations

import math

import numpy as np

# Relative-norm floor: rel_l2 divides by max(||ref||, EPS_NORM).
EPS_NORM = 1e-12


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def frob(a) -> float:
    """Frobenius norm over all entries (any array shape)."""
    return float(np.sqrt(np.sum(np.square(np.asarray(a, dtype=np.float64)))))


def rel_l2(a, b) -> float:
    """Relative Frobenius distance ||a - b|| / max(||b||, EPS_NORM).

    The second argument is the reference. Scale-free, which is what makes a
    single error threshold usable across blocks of different widths.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"rel_l2 shape mismatch: {a.shape} vs {b.shape}")
    # One BLAS dot per norm: several times faster than frob on attention
    # maps, and equal to it up to the last bits.
    d = (a - b).ravel()
    r = b.ravel()
    return math.sqrt(d @ d) / max(math.sqrt(r @ r), EPS_NORM)
