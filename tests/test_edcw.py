import numpy as np
import pytest

from oracles import brute_force_cache_decision_at
from unicp.edcw import (
    CACHE_MAP,
    CACHE_OUTPUT,
    BlockCacheState,
    DecisionKind,
    SchedulerConfig,
    consume_cache,
    edcw_decide,
)
from unicp.model import AttentionResult


def result_from(output, amap=None):
    output = np.asarray(output, dtype=np.float64)
    if amap is None:
        s = output.shape[0]
        amap = np.full((s, s), 1.0 / s)
    return AttentionResult(map=np.asarray(amap, dtype=np.float64), output=output)


def rng_result(rng, s=4, m=4, amap=None):
    return result_from(rng.standard_normal((s, m)), amap)


def fill_history(state, results, start_step=0):
    for i, r in enumerate(results):
        state.record(start_step + i, r)


class TestDecide:
    def test_identical_entry_at_full_window_hits_with_zero_drift(self):
        rng = np.random.default_rng(0)
        sched = SchedulerConfig(delta=0.0, search_window=3)
        state = BlockCacheState(capacity=3)
        base = rng_result(rng)
        fill_history(state, [base, rng_result(rng), rng_result(rng)], start_step=0)
        current = result_from(base.output.copy(), base.map.copy())
        decision = edcw_decide(state, current, step=3, cfg=sched)
        assert decision.kind is DecisionKind.REUSE_OUTPUT
        assert decision.window == 3

    def test_map_tier_hit_when_outputs_drift(self):
        # History where the output drift is 0.5 at every distance but the map
        # at distance 2 matches exactly: same QK structure, different value path.
        from unicp.linalg import rel_l2
        rng = np.random.default_rng(1)
        sched = SchedulerConfig(delta=0.025, search_window=3)
        state = BlockCacheState(capacity=3)
        shared_map = np.abs(rng.standard_normal((4, 4))) + 0.1
        shared_map /= shared_map.sum(axis=1, keepdims=True)
        current_out = rng.standard_normal((4, 4))
        h1 = result_from(current_out * 2.0, rng_dirichlet(rng))
        h2 = result_from(current_out * 2.0, shared_map)  # distance 2 target
        h3 = result_from(current_out * 2.0, rng_dirichlet(rng))
        fill_history(state, [h1, h2, h3], start_step=0)
        current = result_from(current_out, shared_map.copy())
        for h in (h1, h2, h3):
            assert rel_l2(current.output, h.output) == pytest.approx(0.5, abs=1e-15)
        decision = edcw_decide(state, current, step=3, cfg=sched)
        assert decision.kind is DecisionKind.REUSE_MAP
        assert decision.window == 2

    def test_empty_history_prunes(self):
        sched = SchedulerConfig(delta=10.0, search_window=4)
        state = BlockCacheState(capacity=4)
        decision = edcw_decide(state, rng_result(np.random.default_rng(2)), 0, sched)
        assert decision.kind is DecisionKind.PRUNED
        assert decision.window is None

    def test_greedy_maximality_largest_k_wins(self):
        # Two qualifying candidates; the scan runs K..1 so the farthest wins.
        rng = np.random.default_rng(3)
        sched = SchedulerConfig(delta=0.5, search_window=4)
        state = BlockCacheState(capacity=4)
        base = rng.standard_normal((4, 4))
        results = [result_from(base),
                   result_from(base * 10),
                   result_from(base * 1.01),
                   result_from(base * 10)]
        fill_history(state, results, start_step=0)
        current = result_from(base * 1.005)
        decision = edcw_decide(state, current, step=4, cfg=sched)
        assert decision.kind is DecisionKind.REUSE_OUTPUT
        assert decision.window == 4

    def test_tier_ordering_output_beats_map(self):
        rng = np.random.default_rng(4)
        sched = SchedulerConfig(delta=0.5, search_window=2)
        state = BlockCacheState(capacity=2)
        base = rng_result(rng)
        fill_history(state, [base, base], start_step=0)
        current = result_from(base.output.copy(), base.map.copy())
        decision = edcw_decide(state, current, step=2, cfg=sched)
        assert decision.kind is DecisionKind.REUSE_OUTPUT

    def test_requires_no_active_cache(self):
        rng = np.random.default_rng(5)
        sched = SchedulerConfig(delta=0.0, search_window=2)
        state = BlockCacheState(capacity=2)
        base = rng_result(rng)
        fill_history(state, [base, base], start_step=0)
        # An exact repeat hits the output tier at any delta, so the unit arms.
        decision = edcw_decide(state, result_from(base.output.copy(), base.map.copy()), 2, sched)
        assert decision.kind is DecisionKind.REUSE_OUTPUT and decision.window == 2
        assert state.active_cache is not None
        with pytest.raises(RuntimeError):
            edcw_decide(state, rng_result(rng), 3, sched)

    def test_history_gap_is_skipped(self):
        rng = np.random.default_rng(6)
        sched = SchedulerConfig(delta=10.0, search_window=4)
        state = BlockCacheState(capacity=4)
        base = rng_result(rng)
        state.record(0, base)  # distance 3 from step 3; distances 1-2 absent
        decision = edcw_decide(state, result_from(base.output.copy()), step=3, cfg=sched)
        assert decision.kind is DecisionKind.REUSE_OUTPUT
        assert decision.window == 3


def rng_dirichlet(rng, s=4):
    amap = np.abs(rng.standard_normal((s, s))) + 0.05
    return amap / amap.sum(axis=1, keepdims=True)


class TestConsume:
    def test_window_three_serves_two_steps_then_clears(self):
        rng = np.random.default_rng(8)
        sched = SchedulerConfig(delta=10.0, search_window=3)
        state = BlockCacheState(capacity=3)
        base = rng_result(rng)
        fill_history(state, [base] * 3, start_step=7)
        current = result_from(base.output.copy(), base.map.copy())
        decision = edcw_decide(state, current, step=10, cfg=sched)
        assert decision.kind is DecisionKind.REUSE_OUTPUT and decision.window == 3
        hit_11 = consume_cache(state, 11)
        assert hit_11 is not None and hit_11.kind == CACHE_OUTPUT
        hit_12 = consume_cache(state, 12)
        assert hit_12 is not None
        assert consume_cache(state, 13) is None
        assert state.active_cache is None

    def test_window_one_serves_nothing(self):
        rng = np.random.default_rng(9)
        sched = SchedulerConfig(delta=10.0, search_window=1)
        state = BlockCacheState(capacity=1)
        base = rng_result(rng)
        state.record(4, base)
        decision = edcw_decide(state, result_from(base.output.copy()), step=5, cfg=sched)
        assert decision.window == 1
        assert consume_cache(state, 6) is None

    def test_no_cache_returns_none(self):
        state = BlockCacheState(capacity=2)
        assert consume_cache(state, 0) is None

    def test_map_consumption_payload_is_the_map(self):
        rng = np.random.default_rng(10)
        sched = SchedulerConfig(delta=0.05, search_window=2)
        state = BlockCacheState(capacity=2)
        shared_map = rng_dirichlet(rng)
        h = result_from(rng.standard_normal((4, 4)), shared_map)
        fill_history(state, [h, h], start_step=0)
        current = result_from(h.output * 3, shared_map.copy())
        decision = edcw_decide(state, current, step=2, cfg=sched)
        assert decision.kind is DecisionKind.REUSE_MAP
        hit = consume_cache(state, 3)
        assert hit.kind == CACHE_MAP


class TestInvariants:
    def test_no_history_recorded_while_consuming(self):
        # Reuse steps do no full compute, so nothing enters the ring buffer
        # until the cache expires and a fresh decision runs.
        rng = np.random.default_rng(17)
        sched = SchedulerConfig(delta=10.0, search_window=3)
        state = BlockCacheState(capacity=3)
        base = rng_result(rng)
        fill_history(state, [base] * 3, start_step=0)
        edcw_decide(state, result_from(base.output.copy(), base.map.copy()), 3, sched)
        recorded = [s for s, _ in state.history]
        assert consume_cache(state, 4) is not None
        assert consume_cache(state, 5) is not None
        assert [s for s, _ in state.history] == recorded

    def test_history_capacity_bounded(self):
        rng = np.random.default_rng(12)
        state = BlockCacheState(capacity=3)
        for step in range(10):
            state.record(step, rng_result(rng))
            assert len(state.history) <= 3
        assert [s for s, _ in state.history] == [7, 8, 9]

    def test_zero_delta_with_nonzero_drift_never_caches(self):
        rng = np.random.default_rng(13)
        sched = SchedulerConfig(delta=0.0, search_window=4)
        state = BlockCacheState(capacity=4)
        for step in range(8):
            assert consume_cache(state, step) is None
            decision = edcw_decide(state, rng_result(rng, amap=rng_dirichlet(rng)),
                                   step, sched)
            assert decision.kind is DecisionKind.PRUNED

    def test_per_decision_monotonicity_in_delta(self):
        # For fixed decision inputs: if delta1 caches, any delta2 >= delta1
        # caches with an equal-or-larger window and an equal-or-better tier.
        rng = np.random.default_rng(14)
        deltas = [0.0, 0.01, 0.05, 0.1, 0.3, 1.0]
        tier_rank = {DecisionKind.PRUNED: 0, DecisionKind.REUSE_MAP: 1,
                     DecisionKind.REUSE_OUTPUT: 2}
        for trial in range(30):
            history = [rng_result(rng, amap=rng_dirichlet(rng)) for _ in range(4)]
            current = rng_result(rng, amap=rng_dirichlet(rng))
            outcomes = []
            for delta in deltas:
                state = BlockCacheState(capacity=4)
                fill_history(state, history, start_step=0)
                d = edcw_decide(state, result_from(current.output.copy(), current.map.copy()),
                                step=4, cfg=SchedulerConfig(delta=delta, search_window=4))
                outcomes.append(d)
            for lo, hi in zip(outcomes, outcomes[1:]):
                assert tier_rank[hi.kind] >= tier_rank[lo.kind]
                if lo.kind is hi.kind and lo.window is not None:
                    assert hi.window >= lo.window

    def test_conformance_against_brute_force_oracle(self):
        rng = np.random.default_rng(15)
        sched = SchedulerConfig(delta=0.08, search_window=4)
        for trial in range(25):
            history = []
            state = BlockCacheState(capacity=4)
            base = rng.standard_normal((4, 4))
            for step in range(4):
                out = base * (1 + 0.03 * rng.standard_normal())
                amap = rng_dirichlet(rng)
                state.record(step, result_from(out, amap))
                history.append((step, out, amap))
            current = result_from(base * (1 + 0.03 * rng.standard_normal()),
                                  rng_dirichlet(rng))
            decision = edcw_decide(state, current, step=4, cfg=sched)
            kind, window = brute_force_cache_decision_at(
                history, 4, current.output, current.map, sched.delta, 4)
            assert decision.kind.value == kind
            assert decision.window == window
