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

from .model import AttentionWeights, as_number, read_container, require_keys, write_container

SLICED_MAGIC = b"UNICPSW1\n"


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


# ---------------------------------------------------------------------------
# Sliced-weight container: same layout as the state container, with the
# retained dimensions recorded in the header.
# ---------------------------------------------------------------------------

def save_sliced_weights(path, sliced: dict, header_extra: dict):
    """Write per-unit sliced projections keyed by (block, kind).

    `sliced` maps (block index, attention kind) -> SlicedWeights; the header
    records n per unit plus whatever run parameters the caller passes in
    `header_extra`.
    """
    units = []
    arrays = []
    for (block, kind) in sorted(sliced.keys()):
        sw = sliced[(block, kind)]
        units.append({"block": block, "kind": kind, "n": sw.n})
        arrays.append(sw.wq_sliced)
        arrays.append(sw.wk_sliced)
    header = dict(header_extra)
    header["units"] = units
    write_container(path, SLICED_MAGIC, header, arrays)


def load_sliced_weights(path, model_dim: int):
    """Read the sliced-weight container back into a (block, kind) -> SlicedWeights map.

    Other fields of a unit entry are ignored, such as the `calib_steps` that
    older files record.
    """
    header, payload = read_container(path, SLICED_MAGIC)
    require_keys(header, ("units",), f"{path}: header")
    if not isinstance(header["units"], list):
        raise ValueError(f"{path}: header units is not a list")
    units = []
    for unit in header["units"]:
        require_keys(unit, ("block", "kind", "n"), f"{path}: unit entry")
        try:
            units.append((as_number(unit["block"], "block"), str(unit["kind"]),
                          as_number(unit["n"], "n")))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed unit entry {unit!r}: {exc}") from exc
    for _, _, n in units:
        if not 1 <= n <= model_dim:
            raise ValueError(f"{path}: retained dimension n={n} out of range [1, {model_dim}]")
    expected = sum(2 * model_dim * n for _, _, n in units)
    if payload.size != expected:
        raise ValueError(f"{path}: payload holds {payload.size} values, its units need {expected}")
    cursor = 0
    out = {}
    for block, kind, n in units:
        size = model_dim * n
        wq = payload[cursor:cursor + size].reshape(model_dim, n).astype(np.float64)
        cursor += size
        wk = payload[cursor:cursor + size].reshape(model_dim, n).astype(np.float64)
        cursor += size
        if (block, kind) in out:
            raise ValueError(f"{path}: lists block {block} {kind} twice")
        out[(block, kind)] = SlicedWeights(n=n, wq_sliced=wq, wk_sliced=wk)
    return out, header
