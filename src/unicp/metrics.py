"""Compute accounting and output-quality measurement.

MAC formulas count multiply-accumulates of dense matmuls only; softmax and
nonlinearities are excluded. PSNR/SSIM operate on (frames, tokens, dim)
latent tensors; SSIM reshapes each frame's tokens to a square grid and slides
an 8x8 uniform window over it per channel, so a quality report carries no
SSIM (written `ssim=n/a`) when the token count is not a perfect square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import rel_l2

PSNR_CAP_DB = 99.0
SSIM_WINDOW = 8
SSIM_C1_SCALE = 0.01
SSIM_C2_SCALE = 0.03
SSIM_NA = "n/a"


# ---------------------------------------------------------------------------
# MAC formulas (per attention instance of sequence length s, width m).
# ---------------------------------------------------------------------------

def macs_full_attention(s: int, m: int) -> int:
    """Q, K and the folded value-output projections, plus the two
    score/value matmuls."""
    return 3 * s * m * m + 2 * s * s * m


def macs_sliced(s: int, m: int, n: int) -> int:
    """Sliced Q/K projections and scores; full value path."""
    if n > m:
        raise ValueError(f"retained dimension n={n} exceeds width m={m}")
    return 2 * s * m * n + s * m * m + s * s * n + s * s * m


def macs_map_reuse(s: int, m: int) -> int:
    """Folded value-output projection and map application."""
    return s * m * m + s * s * m


def macs_output_reuse() -> int:
    return 0


def macs_mlp(tokens: int, m: int) -> int:
    """Two linear layers m -> 2m -> m over `tokens` rows."""
    return 4 * tokens * m * m


# ---------------------------------------------------------------------------
# Run trace.
# ---------------------------------------------------------------------------

TRACE_HEADER = "step,block,kind,decision,k,drift_output,drift_map,macs"


@dataclass(frozen=True)
class TraceRow:
    step: int
    block: int
    kind: str  # spatial | temporal | mlp
    decision: str  # full | reuse_output | reuse_map | pruned
    window: int | None
    drift_output: float | None
    drift_map: float | None
    macs: int


@dataclass
class RunTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def add(self, row: TraceRow):
        self.rows.append(row)

    @property
    def macs_total(self) -> int:
        return sum(r.macs for r in self.rows)


def _fmt_opt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def trace_export(trace: RunTrace) -> str:
    """Render the trace as CSV; floats use repr so parsing is lossless."""
    lines = [TRACE_HEADER]
    for r in trace.rows:
        lines.append(",".join([
            str(r.step), str(r.block), r.kind, r.decision,
            _fmt_opt(r.window), _fmt_opt(r.drift_output), _fmt_opt(r.drift_map),
            str(r.macs),
        ]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Quality metrics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QualityReport:
    psnr_db: float
    ssim: float | None  # None when the token count is not a perfect square
    rel_l2: float
    peak: float


def psnr(a: np.ndarray, b: np.ndarray, peak: float) -> float:
    """10*log10(peak^2 / MSE); identical inputs return the 99 dB cap."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean(np.square(a - b)))
    if mse == 0.0:
        return PSNR_CAP_DB
    return 10.0 * math.log10(peak * peak / mse)


def ssim(a: np.ndarray, b: np.ndarray, dynamic_range: float) -> float:
    """Single-scale SSIM with uniform 8x8 windows over square token grids.

    Each frame's tokens must reshape to sqrt(s) x sqrt(s); channels are
    treated as independent images and averaged. Non-square token counts are
    rejected (use rel_l2 for those shapes).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim shape mismatch: {a.shape} vs {b.shape}")
    if dynamic_range <= 0:
        raise ValueError("dynamic_range must be positive")
    frames, tokens, dim = a.shape
    side = math.isqrt(tokens)
    if side * side != tokens:
        raise ValueError(
            f"ssim needs a square token count, got {tokens}; use rel_l2 instead")
    win = min(SSIM_WINDOW, side)
    c1 = (SSIM_C1_SCALE * dynamic_range) ** 2
    c2 = (SSIM_C2_SCALE * dynamic_range) ** 2

    def windows(x):
        # (frames, dim, rows, cols, win, win): every win x win patch per channel.
        grid = np.ascontiguousarray(x.reshape(frames, side, side, dim).transpose(0, 3, 1, 2))
        return sliding_window_view(grid, (win, win), axis=(2, 3))

    wa, wb = windows(a), windows(b)
    mu_a = np.mean(wa, axis=(-2, -1))
    mu_b = np.mean(wb, axis=(-2, -1))
    da = wa - mu_a[..., None, None]
    db = wb - mu_b[..., None, None]
    var_a = np.mean(da * da, axis=(-2, -1))
    var_b = np.mean(db * db, axis=(-2, -1))
    cov = np.mean(da * db, axis=(-2, -1))
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def _in_range(name: str, compute):
    """compute(), or OverflowError naming `name` when a step of it overflows
    float64 (numpy raises instead of warning) or its value is infinite."""
    try:
        with np.errstate(over="raise"):
            value = compute()
    except (FloatingPointError, OverflowError):
        value = math.inf
    if math.isinf(value):
        raise OverflowError(f"{name} overflows float64 for these states")
    return value


def quality_report(reference: np.ndarray, candidate: np.ndarray) -> QualityReport:
    """PSNR/SSIM/relative-L2 of a candidate against a reference run.

    The PSNR peak and SSIM dynamic range are the reference's value range
    (max - min), falling back to 1.0 for a constant reference. SSIM is None
    when the token count does not form a square grid. A quantity that
    overflows float64 raises OverflowError naming it.
    """
    spread = _in_range("peak", lambda: float(np.max(reference) - np.min(reference)))
    peak = spread if spread > 0 else 1.0
    tokens = reference.shape[1]
    square = math.isqrt(tokens) ** 2 == tokens
    return QualityReport(
        psnr_db=_in_range("psnr_db", lambda: psnr(candidate, reference, peak)),
        ssim=_in_range("ssim", lambda: ssim(candidate, reference, peak)) if square else None,
        rel_l2=_in_range("rel_l2", lambda: rel_l2(candidate, reference)),
        peak=peak,
    )


def report_export(report: QualityReport) -> str:
    lines = [
        "unicp-quality-report v1",
        f"peak={report.peak!r}",
        # SSIM's dynamic range is the PSNR peak.
        f"ssim_range={report.peak!r}",
        f"ssim_window={SSIM_WINDOW}",
        f"psnr_db={report.psnr_db!r}",
        f"ssim={SSIM_NA if report.ssim is None else repr(report.ssim)}",
        f"rel_l2={report.rel_l2!r}",
    ]
    return "\n".join(lines) + "\n"
