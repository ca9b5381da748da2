"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch against the algorithm
definitions (plain numpy, no imports from the package's compute paths) so a
bug in the engine cannot hide in its own oracle. The end of the file holds
the document readers and writers that only the tests need.
"""

import math

import numpy as np

from unicp.dws import CalibrationRecord
from unicp.metrics import SSIM_NA, QualityReport


def ref_rel_norm(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / max(
        float(np.linalg.norm(np.asarray(b))), 1e-12)


def ref_attention(x, wq, wk, wv, wo):
    """Step-by-step attention: explicit Q/K/V, stabilized softmax, projections."""
    x = np.asarray(x, dtype=np.float64)
    m = wq.shape[0]
    q = x @ wq
    k = x @ wk
    scores = (q @ k.T) / math.sqrt(m)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    a = e / e.sum(axis=1, keepdims=True)
    v = x @ wv
    return a, (a @ v) @ wo


def ref_mlp(x, w1, b1, w2, b2):
    """Two-layer MLP with the tanh-approximated GELU, cube written as a power."""
    h = np.asarray(x, dtype=np.float64) @ w1 + b1
    g = 0.5 * h * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (h + 0.044715 * h ** 3)))
    return g @ w2 + b2


def ref_sliced_attention_via_reconstruction(x, wq, wk, wv, wo, rotation, n):
    """Slicing oracle that reconstructs full-width queries/keys first.

    Z_q = (X W_q) R D and Qbar = Z_q D^T R^T (same for keys); the scores are
    computed from the reconstructed Qbar/Kbar rather than from Z directly.
    """
    x = np.asarray(x, dtype=np.float64)
    m = wq.shape[0]
    d = np.eye(m)[:, :n]
    zq = (x @ wq) @ rotation @ d
    zk = (x @ wk) @ rotation @ d
    qbar = zq @ d.T @ rotation.T
    kbar = zk @ d.T @ rotation.T
    scores = (qbar @ kbar.T) / math.sqrt(m)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    a = e / e.sum(axis=1, keepdims=True)
    return a, (a @ (x @ wv)) @ wo


def brute_force_cache_decision_at(history, step, current_output, current_map, delta, window):
    """Literal re-implementation of the caching decision procedure.

    `history` is a list of (step, output, map) and `step` the decision step;
    `current_*` the fresh result. Scans k = window..1 on outputs, then on
    maps; returns ("reuse_output", k), ("reuse_map", k) or ("pruned", None).
    """
    by_step = {s: (out, amap) for s, out, amap in history}
    return _scan(by_step.get, step, current_output, current_map, delta, window)


def _scan(lookup, step, current_output, current_map, delta, window):
    for k in range(window, 0, -1):
        entry = lookup(step - k)
        if entry is None:
            continue
        if ref_rel_norm(current_output, entry[0]) <= delta:
            return "reuse_output", k
    for k in range(window, 0, -1):
        entry = lookup(step - k)
        if entry is None:
            continue
        if ref_rel_norm(current_map, entry[1]) <= delta:
            return "reuse_map", k
    return "pruned", None


def reconstruction_error(x, basis, n):
    """Frobenius error of projecting X onto the top-n eigendirections of `basis`.

    Equals sqrt(sum of dropped eigenvalues) when the basis came from this
    single input.
    """
    x = np.asarray(x, dtype=np.float64)
    m = basis.shape[0]
    if x.ndim != 2 or x.shape[1] != m:
        raise ValueError(f"input shape {x.shape} does not match basis width {m}")
    if not 1 <= n <= m:
        raise ValueError(f"retained dimension n={n} out of range [1, {m}]")
    if n == m:
        # Full-rank projector is the identity by construction.
        return 0.0
    r_thin = basis[:, :n]
    projected = (x @ r_thin) @ r_thin.T
    return float(np.sqrt(np.sum(np.square(x - projected))))


def window_spans_step(arming_step, window, target_step):
    """True when a window armed at `arming_step` serves `target_step`."""
    return arming_step < target_step <= arming_step + window - 1


def ref_pca_basis(instances):
    """Descending eigenbasis of pooled X^T X via numpy's eigensolver."""
    m = instances[0].shape[1]
    cov = np.zeros((m, m))
    for x in instances:
        cov += np.asarray(x).T @ np.asarray(x)
    vals, vecs = np.linalg.eigh((cov + cov.T) / 2)
    order = np.argsort(-vals)
    return vals[order], vecs[:, order]


def rayleigh_quotients(basis, inputs):
    """The eigenvalue each column of the rotation `basis` carries over the
    pooled covariance sum(X^T X) of `inputs`: diag(R^T C R)."""
    cov = sum(np.asarray(x).T @ np.asarray(x) for x in inputs)
    return np.einsum("ij,ik,kj->j", basis, cov, basis)


def exhaustive_n_sweep(x_stacks_by_step, o_full_by_step, wq, wk, wv, wo,
                       delta, n_candidates):
    """Find per-unit final_n by testing every candidate dimension directly.

    Mirrors the sweep semantics: per calibration step, walk candidates from
    the largest n downward while the stacked sliced output stays within delta
    of the stacked full output; final_n is the largest of the steps' last
    accepted widths (m for a step that accepted none).
    """
    m = wq.shape[0]
    instances = [x for step in sorted(x_stacks_by_step) for x in x_stacks_by_step[step]]
    _, rotation = ref_pca_basis(instances)

    per_step_n = {}
    for step in sorted(x_stacks_by_step):
        x_stack = x_stacks_by_step[step]
        o_full = o_full_by_step[step]
        best = None
        for n in sorted(n_candidates, reverse=True):
            outs = []
            for x in x_stack:
                _, o = ref_sliced_attention_via_reconstruction(x, wq, wk, wv, wo, rotation, n)
                outs.append(o)
            err = ref_rel_norm(np.stack(outs), o_full)
            if err <= delta:
                best = n
            else:
                break
        per_step_n[step] = best if best is not None else m
    return max(per_step_n.values())


def ref_width_sweep(measure, widths, steps, delta, m):
    """The width sweep one calibration step at a time: each step walks
    `widths` in order until `measure(step, n)` exceeds delta, and its last
    accepted width (m when none) is its best; final_n is the largest best.
    Returns (final_n, the (step, n) pairs measured, in order)."""
    measured = []
    per_step_n = {}
    for step in steps:
        best = None
        for n in widths:
            measured.append((step, n))
            if measure(step, n) > delta:
                break
            best = n
        per_step_n[step] = best if best is not None else m
    return max(per_step_n.values()), measured


def ref_mse(a, b):
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.mean(diff * diff))


def ref_ssim(a, b, dynamic_range, window=8):
    """Window-by-window SSIM: uniform win x win patches per frame and channel.

    Each frame's tokens form a sqrt(s) x sqrt(s) grid; every channel is an
    independent image; the score is the mean over all windows.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    frames, tokens, dim = a.shape
    side = math.isqrt(tokens)
    win = min(window, side)
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    scores = []
    for fi in range(frames):
        ga = a[fi].reshape(side, side, dim)
        gb = b[fi].reshape(side, side, dim)
        for ci in range(dim):
            for r in range(side - win + 1):
                for c in range(side - win + 1):
                    wa = ga[r:r + win, c:c + win, ci]
                    wb = gb[r:r + win, c:c + win, ci]
                    mu_a = float(np.mean(wa))
                    mu_b = float(np.mean(wb))
                    da = wa - mu_a
                    db = wb - mu_b
                    var_a = float(np.mean(da * da))
                    var_b = float(np.mean(db * db))
                    cov = float(np.mean(da * db))
                    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
                    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
                    scores.append(num / den)
    return float(np.mean(scores))


def attention_rows(trace):
    """The rows of a RunTrace for attention units, MLP rows left out."""
    return [r for r in trace.rows if r.kind != "mlp"]


def armings(result):
    """(arming step, window, decision kind) of every cache a harness run armed."""
    return [(s.step, s.decision.window, s.decision.kind) for s in result.steps
            if s.decision is not None and s.decision.window is not None]


def report_parse(text):
    """Read a quality report document back into a QualityReport."""
    lines = text.splitlines()
    if not lines or lines[0] != "unicp-quality-report v1":
        raise ValueError("not a quality report document")
    kv = {}
    for ln in lines[1:]:
        if not ln:
            continue
        key, _, value = ln.partition("=")
        kv[key] = value
    return QualityReport(
        psnr_db=float(kv["psnr_db"]),
        ssim=None if kv["ssim"] == SSIM_NA else float(kv["ssim"]),
        rel_l2=float(kv["rel_l2"]),
        peak=float(kv["peak"]),
    )


def calibration_parse(text):
    """Read a calibration.csv document back into CalibrationRecords."""
    lines = text.splitlines()
    if not lines or lines[0] != "block,kind,step,candidate_n,measured_error,accepted":
        raise ValueError("not a calibration records document")
    records = []
    for ln in lines[1:]:
        block, kind, step, n, err, accepted = ln.split(",")
        records.append(CalibrationRecord(block=int(block), kind=kind, step=int(step),
                                         candidate_n=int(n), measured_error=float(err),
                                         accepted={"1": True, "0": False}[accepted]))
    return records


def unit_letters(out):
    """The cell letters of the (o_stack, row) pairs `drive_unit` returns."""
    letter_of = {"full": "F", "reuse_output": "O", "reuse_map": "M", "pruned": "P"}
    return [letter_of[row.decision] for _, row in out]


def drive_unit(dispatcher, cfg, steps, seed=0):
    """Run unit (0, spatial) of `dispatcher` on fresh random inputs per step.

    Returns the inputs, the (o_stack, row) pairs and the ring's steps after
    each step.
    """
    rng = np.random.default_rng(seed)
    shape = (cfg.num_frames, cfg.tokens_per_frame, cfg.model_dim)
    xs, out, rings = [], [], []
    for step in range(steps):
        xs.append(rng.standard_normal(shape))
        out.append(dispatcher.run_unit(0, "spatial", xs[-1], step))
        rings.append([s for s, _ in dispatcher.rings[(0, "spatial")]])
    return xs, out, rings
