"""Norms for comparing arrays: the Frobenius norm and the relative L2 distance.

Both are pure functions over float64 numpy arrays of any shape.
"""

from __future__ import annotations

import math

import numpy as np

# Relative-norm floor: rel_l2 divides by max(||ref||, EPS_NORM).
EPS_NORM = 1e-12

# rel_l2 works in slices of this many elements: 512 KiB of float64, small
# enough to stay in a typical L2 cache.
BLOCK = 1 << 16


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
        raise ValueError(f"rel_l2 shape mismatch: {a.shape} vs {b.shape}")
    # One BLAS dot per norm and slice: several times faster than frob on
    # attention maps, and equal to it up to the last bits. The difference
    # is formed BLOCK elements at a time in one scratch buffer, so a large
    # map's difference never goes through memory at full size. An array of
    # up to BLOCK elements is one slice: one dot per norm.
    x = a.ravel()
    r = b.ravel()
    scratch = np.empty(min(r.size, BLOCK))
    dd = rr = 0.0
    for lo in range(0, r.size, BLOCK):
        rb = r[lo:lo + BLOCK]
        d = np.subtract(x[lo:lo + BLOCK], rb, out=scratch[:rb.size])
        dd += d @ d
        rr += rb @ rb
    return math.sqrt(dd) / max(math.sqrt(rr), EPS_NORM)
