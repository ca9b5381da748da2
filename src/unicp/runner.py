"""Deterministic iterative denoising driver.

Walks execution steps 0..T-1 (physical step t = T..1), conditioning the
latent with a sinusoidal embedding of t, running every block through a
`CellExecutor`, and applying x <- x - eta(t) * residual; `denoise_step` is
the loop's body. The executor is the only code that evaluates an
attention cell, and it writes one trace row per unit; the driver appends
one MLP row per block. The executor takes each cell's letter from a
source: a cache map grid, F everywhere, or a subclass's online decide. The
baseline is F everywhere with drifts, and it captures every unit's input
stacks at the calibration steps.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .linalg import frob, rel_l2
from .metrics import (
    RunTrace,
    TraceRow,
    macs_full_attention,
    macs_map_reuse,
    macs_output_reuse,
    macs_sliced,
)
from .model import (
    ATTENTION_KINDS,
    AttentionResult,
    TEMB_AMP,
    ModelConfig,
    apply_mlp,
    apply_unit_output,
    attention,
    attention_weights_for,
    check_finite,
    eta_schedule,
    init_latent,
    time_embedding,
    unit_input_stack,
)


LETTER_FULL = "F"
LETTER_OUTPUT = "O"
LETTER_MAP = "M"
LETTER_PRUNED = "P"

DECISION_BY_LETTER = {
    LETTER_FULL: "full",
    LETTER_OUTPUT: "reuse_output",
    LETTER_MAP: "reuse_map",
    LETTER_PRUNED: "pruned",
}


class CellExecutor:
    """Runs every attention cell of a run and writes its trace row.

    Each unit owns a ring of F results as (step, AttentionResult) pairs,
    oldest first; nothing else holds them. The ring keeps the newest F, which
    `drift` and the O and M cells of a `grid` read. F runs full attention and
    appends to the ring; O serves the newest entry's output; M reruns the
    value path under its map; P runs sliced attention, or the full math
    when the retained dimension equals the width (accounted with the sliced
    formula, which is equal there). O, M and P leave the ring alone, so its
    newest entry is the F result that armed any cache an O or M cell serves
    from.

    `letter` gives each cell its letter and window: the cell of `grid`, a
    (block, kind) -> letters map, or F everywhere when `grid` is None. The
    executor runs the letters it is given: the caller has checked that
    `grid` holds a cell for every step, an F before any O or M, and sliced
    weights for every unit with a P. After an F, `decide` may turn the cell
    into P. With `drift`, an F cell records the relative distance of its
    output and map from the unit's previous F. At `capture_steps` the
    cell's input stack goes into `captured[unit][step]`: the inputs PCAS
    calibration fits and sweeps on, which the baseline writes to disk and
    `calibrate` reads back.
    """

    def __init__(self, model, sliced_weights: dict | None = None, grid: dict | None = None,
                 drift: bool = False, capture_steps=()):
        self.model = model
        self.sliced = dict(sliced_weights) if sliced_weights else {}
        self.depth = 1
        self.grid = grid
        self.drift = drift
        self.capture_steps = set(capture_steps)
        self.captured = {}  # (block, kind) -> {step: x_stack}
        self.rings = {}  # (block, kind) -> deque of (step, AttentionResult)

    def letter(self, unit, step: int):
        """(letter, window) of a cell before it runs."""
        if self.grid is None:
            return LETTER_FULL, None
        return self.grid[unit][step], None

    def decide(self, unit, step: int):
        """(letter, window) of a cell whose fresh F result is the ring's newest."""
        return LETTER_FULL, None

    def run_unit(self, block_idx: int, kind: str, x_stack: np.ndarray, step: int):
        """Run one cell and return (o_stack, its trace row)."""
        unit = (block_idx, kind)
        letter, window = self.letter(unit, step)
        drift_o, drift_m = None, None
        if letter == LETTER_FULL:
            ring = self.rings.get(unit)
            prev = ring[-1][1] if self.drift and ring else None
            o_stack, macs = self.execute_cell(letter, block_idx, kind, x_stack, step)
            if prev is not None:
                fresh = self.rings[unit][-1][1]
                drift_o, drift_m = rel_l2(fresh.output, prev.output), rel_l2(fresh.map, prev.map)
            letter, window = self.decide(unit, step)
        if letter != LETTER_FULL:
            o_stack, macs = self.execute_cell(letter, block_idx, kind, x_stack, step)
        if step in self.capture_steps:
            self.captured.setdefault(unit, {})[step] = x_stack
        row = TraceRow(step=step, block=block_idx, kind=kind,
                       decision=DECISION_BY_LETTER[letter], window=window,
                       drift_output=drift_o, drift_map=drift_m, macs=macs)
        return o_stack, row

    def execute_cell(self, letter: str, block_idx: int, kind: str,
                     x_stack: np.ndarray, step: int):
        """Execute one cell and return (o_stack, macs)."""
        unit = (block_idx, kind)
        w = attention_weights_for(self.model[block_idx], kind)
        inst, seq, m = x_stack.shape
        if letter == LETTER_FULL:
            o_stack, a_stack = attention(x_stack, w)
            ring = self.rings.setdefault(unit, deque(maxlen=self.depth))
            ring.append((step, AttentionResult(map=a_stack, output=o_stack)))
            return o_stack, inst * macs_full_attention(seq, m)
        if letter == LETTER_PRUNED:
            sw = self.sliced[unit]
            qk = (sw.wq_sliced, sw.wk_sliced) if sw.n < m else None
            o_stack, _ = attention(x_stack, w, qk=qk)
            return o_stack, inst * macs_sliced(seq, m, sw.n)
        cached = self.rings[unit][-1][1]
        if letter == LETTER_OUTPUT:
            return cached.output, macs_output_reuse()
        o_stack, _ = attention(x_stack, w, amap=cached.map)
        return o_stack, inst * macs_map_reuse(seq, m)


def forward_blocks(executor, h: np.ndarray, step: int, trace: RunTrace) -> np.ndarray:
    """One dispatched pass of the whole block stack at `step`.

    Every attention unit goes through the executor (which may compute fully,
    reuse a cache, or run sliced); the MLP always runs. Appends one trace row
    per unit plus one per MLP.
    """
    for block_idx, block in enumerate(executor.model):
        for kind in ATTENTION_KINDS:
            x_stack = unit_input_stack(h, kind)
            o_stack, row = executor.run_unit(block_idx, kind, x_stack, step)
            h = apply_unit_output(h, kind, o_stack)
            trace.add(row)
        h, mlp_macs = apply_mlp(h, block)
        trace.add(TraceRow(step=step, block=block_idx, kind="mlp",
                           decision="full", window=None, drift_output=None,
                           drift_map=None, macs=mlp_macs))
    return h


def denoise_step(cfg: ModelConfig, executor, state: np.ndarray, step: int,
                 trace: RunTrace) -> np.ndarray:
    """Run execution step `step` from the latent entering it; return the next latent.

    Appends the step's trace rows to `trace`.
    """
    t = cfg.num_steps - step
    eta = eta_schedule(t, cfg.num_steps)
    conditioned = state + TEMB_AMP * time_embedding(t, cfg.model_dim)
    h = forward_blocks(executor, conditioned, step, trace)
    # The residual is rescaled to the latent's magnitude so eta(t) sets
    # the relative step size directly; without this the growing latent
    # norm would flatten the drift profile toward the end of the run.
    residual = h - conditioned
    scale = frob(state) / max(frob(residual), 1e-12)
    state = state - eta * scale * residual
    check_finite(state, step)
    return state


def denoise_run(cfg: ModelConfig, executor):
    """Run the reverse loop over steps 0..T-1 and return (final latent, trace).

    The baseline is `denoise_run(cfg, CellExecutor(model, drift=True,
    capture_steps=...))`, whose captures calibration reads.
    """
    state = init_latent(cfg)
    trace = RunTrace()
    for step in range(cfg.num_steps):
        state = denoise_step(cfg, executor, state, step, trace)
    return state, trace
