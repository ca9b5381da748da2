"""PCA-based slicing of attention query/key projections.

The eigenbasis of the pooled input covariance (sum of X^T X over calibration
inputs) rotates the channel axis; keeping the top-n eigendirections and
folding the truncated rotation into W_q and W_k shrinks the score matmul
from s x m by m x s to s x n by n x s. Because the rotation is orthonormal
and truncation only drops trailing columns, the scores computed in the
reduced space equal the scores of the reconstructed full-width queries and
keys, so no reconstruction happens at inference. V and the output projection
are never sliced. Sliced attention itself is `model.attention` called with
`qk=(wq_sliced, wk_sliced)`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError, as_matrix, sym_eig
from .model import AttentionWeights, as_number, read_container, require_keys, write_container

SLICED_MAGIC = b"UNICPSW1\n"


@dataclass(frozen=True)
class PcaBasis:
    """Orthonormal eigenvectors of pooled input covariance, eigenvalues descending."""

    rotation: np.ndarray  # m x m
    calib_steps: tuple[int, ...]


@dataclass(frozen=True)
class SlicedWeights:
    n: int
    wq_sliced: np.ndarray  # m x n
    wk_sliced: np.ndarray  # m x n
    calib_steps: tuple[int, ...] = ()


def compute_basis(calib_inputs: list[np.ndarray], calib_steps=()) -> PcaBasis:
    """Eigenbasis of sum(X^T X) over the calibration inputs."""
    if not calib_inputs:
        raise ValueError("compute_basis needs at least one calibration input")
    first = as_matrix(calib_inputs[0])
    m = first.shape[1]
    cov = np.zeros((m, m))
    for x in calib_inputs:
        x = as_matrix(x)
        if x.shape[1] != m:
            raise ShapeError(f"calibration inputs disagree on width: {x.shape[1]} vs {m}")
        cov += x.T @ x
    eig = sym_eig(cov)
    return PcaBasis(rotation=eig.eigenvectors, calib_steps=tuple(int(s) for s in calib_steps))


def slice_weights(w: AttentionWeights, basis: PcaBasis, n: int) -> SlicedWeights:
    """Fold the rank-n truncated rotation into the query/key projections."""
    m = basis.rotation.shape[0]
    if not 1 <= n <= m:
        raise ValueError(f"retained dimension n={n} out of range [1, {m}]")
    r_thin = basis.rotation[:, :n]
    return SlicedWeights(n=n, wq_sliced=w.w_q @ r_thin, wk_sliced=w.w_k @ r_thin,
                         calib_steps=basis.calib_steps)


# ---------------------------------------------------------------------------
# Sliced-weight container: same layout as the state container, with the
# retained dimensions and calibration steps recorded in the header.
# ---------------------------------------------------------------------------

def save_sliced_weights(path, sliced: dict, header_extra: dict):
    """Write per-unit sliced projections keyed by (block, kind).

    `sliced` maps (block index, attention kind) -> SlicedWeights; the header
    records n and calib_steps per unit plus whatever run parameters the
    caller passes in `header_extra`.
    """
    units = []
    arrays = []
    for (block, kind) in sorted(sliced.keys()):
        sw = sliced[(block, kind)]
        units.append({
            "block": block,
            "kind": kind,
            "n": sw.n,
            "calib_steps": list(sw.calib_steps),
        })
        arrays.append(sw.wq_sliced)
        arrays.append(sw.wk_sliced)
    header = dict(header_extra)
    header["units"] = units
    write_container(path, SLICED_MAGIC, header, arrays)


def load_sliced_weights(path, model_dim: int):
    """Read the sliced-weight container back into a (block, kind) -> SlicedWeights map."""
    header, payload = read_container(path, SLICED_MAGIC)
    require_keys(header, ("units",), f"{path}: header")
    if not isinstance(header["units"], list):
        raise ValueError(f"{path}: header units is not a list")
    units = []
    for unit in header["units"]:
        require_keys(unit, ("block", "kind", "n", "calib_steps"), f"{path}: unit entry")
        try:
            units.append((as_number(unit["block"], "block"), str(unit["kind"]),
                          as_number(unit["n"], "n"),
                          tuple(as_number(s, "calib_steps") for s in unit["calib_steps"])))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed unit entry {unit!r}: {exc}") from exc
    for _, _, n, _ in units:
        if not 1 <= n <= model_dim:
            raise ValueError(f"{path}: retained dimension n={n} out of range [1, {model_dim}]")
    expected = sum(2 * model_dim * n for _, _, n, _ in units)
    if payload.size != expected:
        raise ValueError(f"{path}: payload holds {payload.size} values, its units need {expected}")
    cursor = 0
    out = {}
    for block, kind, n, calib_steps in units:
        size = model_dim * n
        wq = payload[cursor:cursor + size].reshape(model_dim, n).astype(np.float64)
        cursor += size
        wk = payload[cursor:cursor + size].reshape(model_dim, n).astype(np.float64)
        cursor += size
        if (block, kind) in out:
            raise ValueError(f"{path}: lists block {block} {kind} twice")
        out[(block, kind)] = SlicedWeights(n=n, wq_sliced=wq, wk_sliced=wk,
                                           calib_steps=calib_steps)
    return out, header
