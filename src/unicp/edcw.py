"""Error-aware dynamic cache window: the per-unit online caching decision.

Steps are execution indices (0 = first denoising iteration). A decide
compares a unit's fresh fully-computed attention result against its earlier
ones at distances K..1. A hit on the output tier reuses the whole attention
output, a hit on the map tier reuses only the softmax map; otherwise the
step is handed to pruning. A hit with window k serves the arming step plus
the k-1 steps that follow it from one full compute. The decide is a pure
function: the caller holds the results and the armed window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .linalg import rel_l2_at_most
from .model import AttentionResult


class DecisionKind(enum.Enum):
    REUSE_OUTPUT = "reuse_output"
    REUSE_MAP = "reuse_map"
    PRUNED = "pruned"


@dataclass(frozen=True)
class SchedulerConfig:
    delta: float
    search_window: int = 4

    def __post_init__(self):
        if not self.delta >= 0:  # also rejects NaN
            raise ValueError(f"delta must be >= 0, got {self.delta!r}")
        if self.search_window < 1:
            raise ValueError("search_window must be >= 1")


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    window: int | None = None


def edcw_decide(history, current: AttentionResult, step: int,
                cfg: SchedulerConfig) -> Decision:
    """Decide the caching strategy for a freshly full-computed result.

    `history` holds (step, AttentionResult) pairs, oldest first; entries at
    distances outside 1..K, such as `current` itself, are ignored, and
    absent distances are skipped, so the first steps of a run cannot match
    at the full window. Scans the distances present in 1..K, largest first,
    on the output tier, then on the map tier; the first hit (largest k)
    wins. A miss on both tiers defers to pruning. Each distance stops as
    soon as it exceeds delta, and each reference's norm is summed once per
    ring entry (`AttentionResult.output_sq`, `map_sq`).
    """
    by_distance = {step - s: result for s, result in history}
    candidates = [(k, by_distance[k]) for k in sorted(by_distance, reverse=True)
                  if 1 <= k <= cfg.search_window]
    for k, candidate in candidates:
        if rel_l2_at_most(current.output, candidate.output, cfg.delta, candidate.output_sq):
            return Decision(kind=DecisionKind.REUSE_OUTPUT, window=k)
    for k, candidate in candidates:
        if rel_l2_at_most(current.map, candidate.map, cfg.delta, candidate.map_sq):
            return Decision(kind=DecisionKind.REUSE_MAP, window=k)
    return Decision(kind=DecisionKind.PRUNED)
