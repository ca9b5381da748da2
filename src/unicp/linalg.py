"""Norms for comparing arrays: the Frobenius norm and the relative L2 distance.

All are pure functions over float64 numpy arrays of any shape.
"""

from __future__ import annotations

import math

import numpy as np

# Relative-norm floor: rel_l2 divides by max(||ref||, EPS_NORM).
EPS_NORM = 1e-12

# rel_l2 works in slices of this many elements. OpenBLAS splits a single
# ddot across threads once it has more than 4096 to 16384 elements, which
# moves the sum's last bits with the BLAS thread count; at 8192 elements
# the dot stays on one thread.
BLOCK = 1 << 13


def frob(a) -> float:
    """Frobenius norm over all entries (any array shape)."""
    return float(np.sqrt(np.sum(np.square(np.asarray(a, dtype=np.float64)))))


def _difference_slices(a, b):
    """Yields (a - b, b) over the BLOCK-element slices of the flattened
    arrays; each difference is written into one scratch buffer."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"rel_l2 shape mismatch: {a.shape} vs {b.shape}")
    x = a.ravel()
    r = b.ravel()
    scratch = np.empty(min(r.size, BLOCK))
    for lo in range(0, r.size, BLOCK):
        rb = r[lo:lo + BLOCK]
        yield np.subtract(x[lo:lo + BLOCK], rb, out=scratch[:rb.size]), rb


def rel_l2(a, b) -> float:
    """Relative Frobenius distance ||a - b|| / max(||b||, EPS_NORM).

    The second argument is the reference. Scale-free, which is what makes a
    single error threshold usable across blocks of different widths.
    """
    # One BLAS dot per norm and slice: several times faster than frob on
    # attention maps, and equal to it up to the last bits. Slicing keeps a
    # large map's difference from going through memory at full size. An
    # array of up to BLOCK elements is one slice: one dot per norm.
    dd = rr = 0.0
    for d, rb in _difference_slices(a, b):
        dd += d @ d
        rr += rb @ rb
    return math.sqrt(dd) / max(math.sqrt(rr), EPS_NORM)


def sq_norm(r) -> float:
    """||r||^2, summed over the slices `rel_l2` sums a reference over, so it
    has the bits of rel_l2's own sum."""
    r = np.asarray(r, dtype=np.float64).ravel()
    rr = 0.0
    for lo in range(0, r.size, BLOCK):
        rb = r[lo:lo + BLOCK]
        rr += rb @ rb
    return rr


def rel_l2_at_most(a, b, delta: float, rr: float) -> bool:
    """`rel_l2(a, b) <= delta`, bit for bit, given rr = sq_norm(b).

    Runs rel_l2's slice loop on the difference and stops at the first
    slice whose partial distance exceeds delta. A sum of non-negative
    doubles never decreases under round-to-nearest, and sqrt and the
    division by a fixed positive denominator are monotone, so rel_l2 would
    exceed delta too. A test that reaches the end evaluates rel_l2's
    expression on the same bits. NaN anywhere is a miss, as in rel_l2.
    """
    denominator = max(math.sqrt(rr), EPS_NORM)
    dd = 0.0
    for d, _ in _difference_slices(a, b):
        dd += d @ d
        if math.sqrt(dd) / denominator > delta:
            return False
    return math.sqrt(dd) / denominator <= delta
