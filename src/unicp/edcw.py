"""Error-aware dynamic cache window: the per-unit online caching decision.

Steps are execution indices (0 = first denoising iteration). A unit's state
holds a ring buffer of its recent fully-computed attention results; when no
cache is active, the fresh result is compared against history entries at
distances K..1. A hit on the output tier reuses the whole attention output,
a hit on the map tier reuses only the softmax map; otherwise the step is
handed to pruning. A hit with window k serves the arming step plus the k-1
steps that follow it from one full compute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .linalg import rel_l2
from .model import AttentionResult


class DecisionKind(enum.Enum):
    REUSE_OUTPUT = "reuse_output"
    REUSE_MAP = "reuse_map"
    PRUNED = "pruned"


CACHE_OUTPUT = "output"
CACHE_MAP = "map"


@dataclass(frozen=True)
class SchedulerConfig:
    delta: float
    search_window: int = 4

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.search_window < 1:
            raise ValueError("search_window must be >= 1")


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    window: int | None = None


@dataclass
class ActiveCache:
    kind: str  # CACHE_OUTPUT | CACHE_MAP
    window: int
    expires_at_step: int


@dataclass
class BlockCacheState:
    """Cache bookkeeping owned by exactly one (block, attention-kind) unit.

    The unit is cached exactly when `active_cache` is set; the cached arrays
    themselves live with whoever executes the reuse.
    """

    capacity: int
    history: list[tuple[int, AttentionResult]] = field(default_factory=list)
    active_cache: ActiveCache | None = None

    def record(self, step: int, result: AttentionResult):
        self.history.append((step, result))
        if len(self.history) > self.capacity:
            del self.history[: len(self.history) - self.capacity]

    def entry_at_distance(self, step: int, k: int) -> AttentionResult | None:
        target = step - k
        for recorded_step, result in reversed(self.history):
            if recorded_step == target:
                return result
            if recorded_step < target:
                break
        return None


def edcw_decide(state: BlockCacheState, current: AttentionResult, step: int,
                cfg: SchedulerConfig) -> Decision:
    """Decide the caching strategy for a freshly full-computed result.

    Scans k = K..1 on the output tier, then on the map tier; the first hit
    (largest k) wins and arms the unit's cache for the k-1 following steps.
    A miss on both tiers defers to pruning. The fresh result enters the
    history either way. Absent history distances are simply skipped, so the
    first steps of a run cannot match at the full window.
    """
    if state.active_cache is not None:
        raise RuntimeError("edcw_decide requires a unit without an active cache")

    decision = None
    for k in range(cfg.search_window, 0, -1):
        candidate = state.entry_at_distance(step, k)
        if candidate is None:
            continue
        if rel_l2(current.output, candidate.output) <= cfg.delta:
            decision = Decision(kind=DecisionKind.REUSE_OUTPUT, window=k)
            break
    if decision is None:
        for k in range(cfg.search_window, 0, -1):
            candidate = state.entry_at_distance(step, k)
            if candidate is None:
                continue
            if rel_l2(current.map, candidate.map) <= cfg.delta:
                decision = Decision(kind=DecisionKind.REUSE_MAP, window=k)
                break
    if decision is None:
        decision = Decision(kind=DecisionKind.PRUNED)

    if decision.window is not None:
        state.active_cache = ActiveCache(
            kind=CACHE_OUTPUT if decision.kind is DecisionKind.REUSE_OUTPUT else CACHE_MAP,
            window=decision.window, expires_at_step=step + decision.window - 1)

    state.record(step, current)
    return decision


def consume_cache(state: BlockCacheState, step: int) -> ActiveCache | None:
    """Return the active cache entry if it still covers `step`.

    Once the step passes the expiry the cache is cleared and the unit decides
    again.
    """
    if state.active_cache is None:
        return None
    if step <= state.active_cache.expires_at_step:
        return state.active_cache
    state.active_cache = None
    return None
