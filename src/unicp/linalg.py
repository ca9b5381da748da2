"""Dense real linear algebra: symmetric eigensolver and norms.

Matrices are plain float64 numpy arrays (row-major, 2-D). Everything here is
a pure function over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative-norm floor: rel_l2 divides by max(||ref||, EPS_NORM).
EPS_NORM = 1e-12


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def as_matrix(x) -> np.ndarray:
    """Coerce input to a 2-D float64 array without copying when possible."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


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


@dataclass(frozen=True)
class EigResult:
    """Symmetric eigendecomposition, eigenvalues sorted descending.

    Column j of `eigenvectors` pairs with `eigenvalues[j]`; columns are unit
    vectors with the largest-magnitude entry made positive so repeated runs
    produce identical signs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(m) -> EigResult:
    """Eigendecomposition of a symmetric matrix (input symmetrized as (M + M^T)/2)."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"sym_eig requires a square matrix, got {a.shape}")
    eigenvalues, v = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    v = v[:, order]
    # Deterministic sign: flip columns whose largest-magnitude entry is negative.
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v = np.where(lead < 0, -v, v)
    return EigResult(eigenvalues=eigenvalues, eigenvectors=v)
