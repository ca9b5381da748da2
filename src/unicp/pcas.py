"""PCA-based slicing of attention query/key projections.

The eigenbasis of the pooled input covariance (sum of X^T X over calibration
inputs, decomposed by numpy's `eigh`) rotates the channel axis; keeping the
top-n eigendirections and folding the truncated rotation into W_q and W_k
shrinks the score matmul from s x m by m x s to s x n by n x s. Because the
rotation is orthonormal and truncation only drops trailing columns, the
scores computed in the reduced space equal the scores of the reconstructed
full-width queries and keys, so no reconstruction happens at inference. V
and the output projection are never sliced. Sliced attention itself is
`model.attention` called with `qk=(wq_sliced, wk_sliced)`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AttentionWeights


@dataclass(frozen=True)
class SlicedWeights:
    n: int
    wq_sliced: np.ndarray  # m x n
    wk_sliced: np.ndarray  # m x n


def compute_basis(calib_inputs: list[np.ndarray]) -> np.ndarray:
    """The m x m rotation whose columns are the eigenvectors of sum(X^T X)
    over the calibration inputs, eigenvalues descending.

    Each column's largest-magnitude entry is made positive, so reruns give
    the same signs.
    """
    # Each X^T X comes out exactly symmetric, so the lower triangle eigh
    # reads is the whole covariance.
    eigenvalues, v = np.linalg.eigh(sum(x.T @ x for x in calib_inputs))
    v = v[:, np.argsort(-eigenvalues, kind="stable")]
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return np.where(lead < 0, -v, v)


def slice_weights(w: AttentionWeights, rotation: np.ndarray, n: int) -> SlicedWeights:
    """Fold the rank-n truncated rotation into the query/key projections."""
    m = rotation.shape[0]
    if not 1 <= n <= m:
        raise ValueError(f"retained dimension n={n} out of range [1, {m}]")
    r_thin = rotation[:, :n]
    return SlicedWeights(n=n, wq_sliced=w.w_q @ r_thin, wk_sliced=w.w_k @ r_thin)
