"""Deterministic iterative denoising driver.

Walks execution steps 0..T-1 (physical step t = T..1), conditioning the
latent with a sinusoidal embedding of t, running every block through a
pluggable per-unit executor, and applying x <- x - eta(t) * residual. The
executor decides how each attention unit is evaluated (full, cached,
sliced) and reports one trace row per unit; the driver appends one MLP row
per block.
"""

from __future__ import annotations

import numpy as np

from .linalg import frob, rel_l2
from .metrics import RunTrace, TraceRow, macs_full_attention
from .model import (
    ATTENTION_KINDS,
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


class BaselineExecutor:
    """Full attention everywhere; records adjacent-step drifts for the trace."""

    def __init__(self, model):
        self.model = model
        self._prev = {}

    def run_unit(self, block_idx: int, kind: str, x_stack: np.ndarray, step: int):
        w = attention_weights_for(self.model[block_idx], kind)
        o_stack, a_stack = attention(x_stack, w)
        inst, seq, m = x_stack.shape
        macs = inst * macs_full_attention(seq, m)
        drift_o = drift_m = None
        prev = self._prev.get((block_idx, kind))
        if prev is not None:
            drift_o = rel_l2(o_stack, prev[0])
            drift_m = rel_l2(a_stack, prev[1])
        self._prev[(block_idx, kind)] = (o_stack, a_stack)
        row = TraceRow(step=step, block=block_idx, kind=kind, decision="full",
                       window=None, drift_output=drift_o, drift_map=drift_m,
                       macs=macs)
        return o_stack, row


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


def denoise_run(cfg: ModelConfig, executor, eta_fn=None, last_step: int | None = None):
    """Run the reverse loop and return (final latent, trace).

    `eta_fn` overrides the built-in step-size schedule (physical step in,
    step size out); tests use it to pin degenerate schedules. `last_step`
    stops the loop after that execution step, so the returned latent and
    trace cover steps 0..last_step only.
    """
    if last_step is None:
        last_step = cfg.num_steps - 1
    if not 0 <= last_step < cfg.num_steps:
        raise ValueError(f"last_step must lie in [0, {cfg.num_steps - 1}], got {last_step}")
    state = init_latent(cfg)
    trace = RunTrace()
    for step in range(last_step + 1):
        t = cfg.num_steps - step
        eta = eta_fn(t) if eta_fn is not None else eta_schedule(t, cfg.num_steps)
        conditioned = state + TEMB_AMP * time_embedding(t, cfg.model_dim)
        h = forward_blocks(executor, conditioned, step, trace)
        # The residual is rescaled to the latent's magnitude so eta(t) sets
        # the relative step size directly; without this the growing latent
        # norm would flatten the drift profile toward the end of the run.
        residual = h - conditioned
        scale = frob(state) / max(frob(residual), 1e-12)
        state = state - eta * scale * residual
        check_finite(state, step)
    return state, trace


def baseline_run(model, cfg: ModelConfig, eta_fn=None):
    return denoise_run(cfg, BaselineExecutor(model), eta_fn=eta_fn)
