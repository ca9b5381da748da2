"""Scripted-drift rig for exercising the cache-window scheduler in isolation.

Sequences of attention results are synthesized so the relative drift between
adjacent steps follows a prescribed profile (U-shapes, spikes). The rig owns
the whole sequence, so each decision sees the candidates for the steps a
window would actually serve, the framing under which cache windows are
chosen; a fixed-window comparator reuses blindly every k-th step. Reuse
error is accumulated as the sum of per-step relative distances between the
reused value and the true value. A profile is the tuple of per-step drifts;
the `harness` command runs `u_profile` with a mid-run spike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .edcw import Decision, DecisionKind, SchedulerConfig, edcw_decide
from .linalg import frob, rel_l2
from .model import AttentionResult


def u_profile(num_steps: int, end_frac: float = 0.2, end_drift: float = 0.2,
              mid_drift: float = 0.01, spike_step: int | None = None,
              spike_magnitude: float = 0.3) -> tuple[float, ...]:
    """U-shaped profile: high drift at each end, low in the middle, one spike."""
    n_end = round(end_frac * num_steps)
    drifts = [end_drift if (t < n_end or t >= num_steps - n_end) else mid_drift
              for t in range(num_steps)]
    if spike_step is not None:
        drifts[spike_step] = spike_magnitude
    return tuple(drifts)


def synthesize_sequence(drifts: tuple[float, ...], shape: tuple[int, int],
                        seed: int) -> list[AttentionResult]:
    """Build attention results whose adjacent-step drift follows `drifts`.

    Outputs move along one fixed random direction scaled per step; maps move
    along a fixed zero-row-sum direction so rows keep summing to one.
    drifts[0] displaces the first result from the random base, so measured
    drift t (vs step t-1) matches drifts[t] for t >= 1.
    """
    s, m = shape
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    base_out = rng.standard_normal((s, m))
    direction_out = rng.standard_normal((s, m))
    direction_out /= frob(direction_out)
    base_map = np.full((s, s), 1.0 / s)
    direction_map = rng.standard_normal((s, s))
    direction_map -= direction_map.mean(axis=1, keepdims=True)
    direction_map /= frob(direction_map)

    results = []
    out = base_out
    amap = base_map
    for d in drifts:
        out = out + d * frob(out) * direction_out
        amap = amap + d * frob(amap) * direction_map
        results.append(AttentionResult(map=amap, output=out))
    return results


@dataclass(frozen=True)
class HarnessStep:
    step: int
    consumed: str | None  # "output" | "map" when served from cache
    reuse_error: float | None
    decision: Decision | None


@dataclass
class HarnessResult:
    steps: list[HarnessStep] = field(default_factory=list)
    accumulated_error: float = 0.0
    fixed_window_errors: dict[int, float] = field(default_factory=dict)


def run_fixed_window(results: list[AttentionResult], window: int) -> float:
    """Accumulated reuse error of caching unconditionally every `window` steps."""
    total = 0.0
    anchor = None
    for i, r in enumerate(results):
        if i % window == 0:
            anchor = r
        else:
            total += rel_l2(anchor.output, r.output)
    return total


def run_scheduler_on_profile(drifts: tuple[float, ...], sched: SchedulerConfig,
                             shape: tuple[int, int] = (16, 8), seed: int = 0,
                             fixed_windows: tuple[int, ...] = (2, 3, 4)) -> HarnessResult:
    """Walk the synthesized sequence through decide and reuse, step by step.

    Each decision sees the results of the next K steps as its history
    (distance k maps to step i+k), so a window only arms when the drift
    across the span it would serve stays under the threshold. Reuse steps
    serve the result that armed the cache and accrue its error against the
    true value. Fixed-window comparators run on the same sequence.
    """
    results = synthesize_sequence(drifts, shape, seed)
    num_steps = len(results)
    res = HarnessResult()
    armed = None  # (decision kind, arming result, last step served)
    for i in range(num_steps):
        if armed is not None and i <= armed[2]:
            kind, anchor, _ = armed
            true = results[i]
            if kind is DecisionKind.REUSE_OUTPUT:
                consumed, err = "output", rel_l2(anchor.output, true.output)
            else:
                consumed, err = "map", rel_l2(anchor.map, true.map)
            res.accumulated_error += err
            res.steps.append(HarnessStep(step=i, consumed=consumed,
                                         reuse_error=err, decision=None))
            continue
        lookahead = [(i - k, results[i + k])
                     for k in range(min(sched.search_window, num_steps - 1 - i), 0, -1)]
        decision = edcw_decide(lookahead, results[i], i, sched)
        res.steps.append(HarnessStep(step=i, consumed=None, reuse_error=None,
                                     decision=decision))
        if decision.window is not None:
            armed = (decision.kind, results[i], i + decision.window - 1)
    for w in fixed_windows:
        res.fixed_window_errors[w] = run_fixed_window(results, w)
    return res

