import numpy as np
import pytest

from oracles import brute_force_cache_decision_at, drive_unit, unit_letters
from unicp.dws import OnlineDispatcher
from unicp.edcw import DecisionKind, SchedulerConfig, edcw_decide
from unicp.model import AttentionResult


def result_from(output, amap=None):
    output = np.asarray(output, dtype=np.float64)
    if amap is None:
        s = output.shape[0]
        amap = np.full((s, s), 1.0 / s)
    return AttentionResult(map=np.asarray(amap, dtype=np.float64), output=output)


def rng_result(rng, s=4, m=4, amap=None):
    return result_from(rng.standard_normal((s, m)), amap)


def history_of(results, start_step=0):
    return [(start_step + i, r) for i, r in enumerate(results)]


class TestDecide:
    def test_identical_entry_at_full_window_hits_with_zero_drift(self):
        rng = np.random.default_rng(0)
        sched = SchedulerConfig(delta=0.0, search_window=3)
        base = rng_result(rng)
        history = history_of([base, rng_result(rng), rng_result(rng)], start_step=0)
        current = result_from(base.output.copy(), base.map.copy())
        decision = edcw_decide(history, current, step=3, cfg=sched)
        assert decision.kind is DecisionKind.REUSE_OUTPUT
        assert decision.window == 3

    def test_map_tier_hit_when_outputs_drift(self):
        # History where the output drift is 0.5 at every distance but the map
        # at distance 2 matches exactly: same QK structure, different value path.
        from unicp.linalg import rel_l2
        rng = np.random.default_rng(1)
        sched = SchedulerConfig(delta=0.025, search_window=3)
        shared_map = np.abs(rng.standard_normal((4, 4))) + 0.1
        shared_map /= shared_map.sum(axis=1, keepdims=True)
        current_out = rng.standard_normal((4, 4))
        h1 = result_from(current_out * 2.0, rng_dirichlet(rng))
        h2 = result_from(current_out * 2.0, shared_map)  # distance 2 target
        h3 = result_from(current_out * 2.0, rng_dirichlet(rng))
        history = history_of([h1, h2, h3], start_step=0)
        current = result_from(current_out, shared_map.copy())
        for h in (h1, h2, h3):
            assert rel_l2(current.output, h.output) == pytest.approx(0.5, abs=1e-15)
        decision = edcw_decide(history, current, step=3, cfg=sched)
        assert decision.kind is DecisionKind.REUSE_MAP
        assert decision.window == 2

    def test_empty_history_prunes(self):
        sched = SchedulerConfig(delta=10.0, search_window=4)
        decision = edcw_decide([], rng_result(np.random.default_rng(2)), 0, sched)
        assert decision.kind is DecisionKind.PRUNED
        assert decision.window is None

    def test_greedy_maximality_largest_k_wins(self):
        # Two qualifying candidates; the scan runs K..1 so the farthest wins.
        rng = np.random.default_rng(3)
        sched = SchedulerConfig(delta=0.5, search_window=4)
        base = rng.standard_normal((4, 4))
        results = [result_from(base),
                   result_from(base * 10),
                   result_from(base * 1.01),
                   result_from(base * 10)]
        current = result_from(base * 1.005)
        decision = edcw_decide(history_of(results), current, step=4, cfg=sched)
        assert decision.kind is DecisionKind.REUSE_OUTPUT
        assert decision.window == 4

    def test_tier_ordering_output_beats_map(self):
        rng = np.random.default_rng(4)
        sched = SchedulerConfig(delta=0.5, search_window=2)
        base = rng_result(rng)
        current = result_from(base.output.copy(), base.map.copy())
        decision = edcw_decide(history_of([base, base]), current, step=2, cfg=sched)
        assert decision.kind is DecisionKind.REUSE_OUTPUT

    def test_decide_is_pure(self):
        # A hit arms nothing and records nothing: the same inputs decide the
        # same way again, and the history comes back untouched.
        rng = np.random.default_rng(5)
        sched = SchedulerConfig(delta=0.0, search_window=2)
        base = rng_result(rng)
        history = history_of([base, base])
        snapshot = list(history)
        current = result_from(base.output.copy(), base.map.copy())
        first = edcw_decide(history, current, 2, sched)
        assert first == edcw_decide(history, current, 2, sched)
        assert first.kind is DecisionKind.REUSE_OUTPUT and first.window == 2
        assert history == snapshot

    def test_entries_outside_the_window_are_ignored(self):
        # The fresh result itself (distance 0), a later step and a step past
        # K never match, however close they are.
        rng = np.random.default_rng(7)
        sched = SchedulerConfig(delta=10.0, search_window=2)
        base = rng_result(rng)
        history = history_of([base, base], start_step=0) + [(5, base), (6, base)]
        decision = edcw_decide(history, base, step=5, cfg=sched)
        assert decision.kind is DecisionKind.PRUNED

    def test_history_gap_is_skipped(self):
        rng = np.random.default_rng(6)
        sched = SchedulerConfig(delta=10.0, search_window=4)
        base = rng_result(rng)
        history = [(0, base)]  # distance 3 from step 3; distances 1-2 absent
        decision = edcw_decide(history, result_from(base.output.copy()), step=3, cfg=sched)
        assert decision.kind is DecisionKind.REUSE_OUTPUT
        assert decision.window == 3


def rng_dirichlet(rng, s=4):
    amap = np.abs(rng.standard_normal((s, s))) + 0.05
    return amap / amap.sum(axis=1, keepdims=True)


class TestConsume:
    def test_window_three_serves_two_steps_then_clears(self, tiny_cfg, tiny_model):
        # With a huge delta every decide arms the largest distance present:
        # k=1 at step 1, k=2 at step 2, then k=3 once the ring reaches back.
        # The k=3 hit at step 4 serves steps 5 and 6; step 7 computes F again.
        online = OnlineDispatcher(tiny_model, SchedulerConfig(delta=1e9, search_window=3))
        _, out, _ = drive_unit(online, tiny_cfg, 11)
        assert "".join(unit_letters(out)) == "FFFOFOOFOOF"
        assert [row.window for _, row in out] == [None, 1, 2, 2, 3, 3, 3, 3, 3, 3, 3]
        o_armed = out[4][0]
        assert out[5][0] is o_armed and out[6][0] is o_armed
        assert out[7][0] is not o_armed


class TestInvariants:
    def test_zero_delta_with_nonzero_drift_never_caches(self):
        rng = np.random.default_rng(13)
        sched = SchedulerConfig(delta=0.0, search_window=4)
        history = []
        for step in range(8):
            current = rng_result(rng, amap=rng_dirichlet(rng))
            decision = edcw_decide(history, current, step, sched)
            assert decision.kind is DecisionKind.PRUNED
            history.append((step, current))

    def test_per_decision_monotonicity_in_delta(self):
        # For fixed decision inputs: if delta1 caches, any delta2 >= delta1
        # caches with an equal-or-larger window and an equal-or-better tier.
        rng = np.random.default_rng(14)
        deltas = [0.0, 0.01, 0.05, 0.1, 0.3, 1.0]
        tier_rank = {DecisionKind.PRUNED: 0, DecisionKind.REUSE_MAP: 1,
                     DecisionKind.REUSE_OUTPUT: 2}
        for trial in range(30):
            history = history_of([rng_result(rng, amap=rng_dirichlet(rng)) for _ in range(4)])
            current = rng_result(rng, amap=rng_dirichlet(rng))
            outcomes = [edcw_decide(history, current, step=4,
                                    cfg=SchedulerConfig(delta=delta, search_window=4))
                        for delta in deltas]
            for lo, hi in zip(outcomes, outcomes[1:]):
                assert tier_rank[hi.kind] >= tier_rank[lo.kind]
                if lo.kind is hi.kind and lo.window is not None:
                    assert hi.window >= lo.window

    def test_conformance_against_brute_force_oracle(self):
        rng = np.random.default_rng(15)
        sched = SchedulerConfig(delta=0.08, search_window=4)
        for trial in range(25):
            history = []
            oracle_history = []
            base = rng.standard_normal((4, 4))
            for step in range(4):
                out = base * (1 + 0.03 * rng.standard_normal())
                amap = rng_dirichlet(rng)
                history.append((step, result_from(out, amap)))
                oracle_history.append((step, out, amap))
            current = result_from(base * (1 + 0.03 * rng.standard_normal()),
                                  rng_dirichlet(rng))
            decision = edcw_decide(history, current, step=4, cfg=sched)
            kind, window = brute_force_cache_decision_at(
                oracle_history, 4, current.output, current.map, sched.delta, 4)
            assert decision.kind.value == kind
            assert decision.window == window

    def test_no_history_recorded_while_consuming(self, tiny_cfg, tiny_model):
        # Served O cells add no ring entry; after each decide the ring keeps
        # only the entries the unit's next decide can read.
        online = OnlineDispatcher(tiny_model, SchedulerConfig(delta=1e9, search_window=3))
        _, _, rings = drive_unit(online, tiny_cfg, 8)
        assert rings[3] == rings[2] == [1, 2]
        assert rings[6] == rings[5] == rings[4] == [4]
        assert rings[7] == [7]
