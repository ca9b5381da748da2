import numpy as np
import pytest

from oracles import (
    armings,
    brute_force_cache_decision_at,
    ref_rel_norm,
    window_spans_step,
)
from unicp.edcw import DecisionKind, SchedulerConfig
from unicp.harness import (
    run_fixed_window,
    run_scheduler_on_profile,
    synthesize_sequence,
    u_profile,
)


class TestSynthesize:
    def test_all_zero_profile_is_constant(self):
        seq = synthesize_sequence((0.0,) * 5, (6, 4), seed=0)
        for a, b in zip(seq, seq[1:]):
            assert np.array_equal(a.output, b.output)
            assert np.array_equal(a.map, b.map)

    def test_measured_drifts_match_profile(self):
        drifts = (0.5, 0.0, 0.0, 0.5)
        seq = synthesize_sequence(drifts, (8, 4), seed=1)
        for t in range(1, 4):
            measured = ref_rel_norm(seq[t].output, seq[t - 1].output)
            assert measured == pytest.approx(drifts[t], abs=1e-6)
            measured_map = ref_rel_norm(seq[t].map, seq[t - 1].map)
            assert measured_map == pytest.approx(drifts[t], abs=1e-6)

    def test_spike_applies_at_its_step_only(self):
        drifts = (0.05,) * 3 + (0.4,) + (0.05,) * 2
        seq = synthesize_sequence(drifts, (8, 4), seed=2)
        for t in range(1, 6):
            measured = ref_rel_norm(seq[t].output, seq[t - 1].output)
            expected = 0.4 if t == 3 else 0.05
            assert measured == pytest.approx(expected, abs=1e-6)

    def test_maps_stay_row_stochastic(self):
        seq = synthesize_sequence((0.3, 0.1, 0.2, 0.05, 0.0), (10, 4), seed=3)
        for r in seq:
            assert np.abs(r.map.sum(axis=1) - 1.0).max() < 1e-10


class TestProfileValidation:
    def test_u_profile_shape(self):
        drifts = u_profile(30, spike_step=15)
        assert isinstance(drifts, tuple) and len(drifts) == 30
        assert drifts[0] == 0.2 and drifts[5] == 0.2 and drifts[24] == 0.2 and drifts[29] == 0.2
        assert drifts[10] == 0.01
        assert drifts[15] == 0.3


class TestScheduler:
    def test_u_profile_middle_caches_ends_do_not(self):
        profile = u_profile(30)
        sched = SchedulerConfig(delta=0.05, search_window=4)
        res = run_scheduler_on_profile(profile, sched, seed=0)
        consumed = {s.step for s in res.steps if s.consumed}
        # Every consumed step sits strictly inside the low-drift middle, and
        # a healthy share of the middle is actually served from cache.
        assert consumed
        assert all(6 <= step < 24 for step in consumed)
        assert len(consumed) >= 8
        decided_prune = {s.step for s in res.steps
                        if s.decision is not None and s.decision.kind is DecisionKind.PRUNED}
        for step in list(range(0, 5)) + list(range(25, 30)):
            assert step in decided_prune

    def test_spike_refusal_and_dominance(self):
        profile = u_profile(30, spike_step=15)
        sched = SchedulerConfig(delta=0.05, search_window=4)
        res = run_scheduler_on_profile(profile, sched, seed=0, fixed_windows=(2, 3, 4))
        for arming_step, window, _ in armings(res):
            assert not window_spans_step(arming_step, window, 15)
        for w, fixed_err in res.fixed_window_errors.items():
            assert res.accumulated_error < fixed_err

    def test_dominance_exhaustive_small_profiles(self):
        # Every profile with one spike above delta, T <= 32: EDCW accumulated
        # error never exceeds any fixed window >= 2.
        sched = SchedulerConfig(delta=0.05, search_window=4)
        for T in (12, 20, 32):
            for spike_pos in range(2, T - 2, 3):
                profile = u_profile(T, spike_step=spike_pos)
                res = run_scheduler_on_profile(profile, sched, seed=1,
                                               fixed_windows=(2, 3, 4, 5))
                for w, fixed_err in res.fixed_window_errors.items():
                    assert res.accumulated_error <= fixed_err

    def test_huge_delta_gives_maximal_windows(self):
        sched = SchedulerConfig(delta=100.0, search_window=4)
        res = run_scheduler_on_profile((0.05,) * 16, sched, seed=2)
        # After each arming, K-1 steps consume; armings away from the tail
        # (where candidates get clipped by the sequence end) use the full window.
        assert all(window == 4 for step, window, _ in armings(res) if step < 12)
        consumed = [s.step for s in res.steps if s.consumed]
        assert len(consumed) >= 9

    def test_decision_sequence_matches_brute_force(self):
        profile = u_profile(24, spike_step=12)
        sched = SchedulerConfig(delta=0.05, search_window=4)
        res = run_scheduler_on_profile(profile, sched, seed=3)
        seq = synthesize_sequence(profile, (16, 8), seed=3)
        for step_rec in res.steps:
            if step_rec.decision is None:
                continue
            # The rig's candidate buffer: distance k holds the result of step i+k.
            i = step_rec.step
            history = [(i - k, seq[i + k].output, seq[i + k].map)
                       for k in range(sched.search_window, 0, -1) if i + k < len(seq)]
            current = seq[i]
            kind, window = brute_force_cache_decision_at(
                history, step_rec.step, current.output, current.map,
                sched.delta, sched.search_window)
            assert step_rec.decision.kind.value == kind
            assert step_rec.decision.window == window

    @pytest.mark.parametrize("delta", [0.05, 100.0])
    def test_window_past_the_sequence_end_matches_t_minus_one(self, delta):
        # No lookahead reaches past the last step, so K = 10**6 decides what
        # K = T - 1 does, at the cost of the distances that exist.
        profile = u_profile(30, spike_step=15)
        huge = run_scheduler_on_profile(profile, SchedulerConfig(delta=delta,
                                                                 search_window=10 ** 6))
        fitted = run_scheduler_on_profile(profile, SchedulerConfig(delta=delta, search_window=29))
        assert huge.steps == fitted.steps

    def test_fixed_window_error_closed_form_on_flat_profile(self):
        # Constant drift d along one direction: reuse error at distance j
        # accumulates the intermediate per-step displacements.
        d = 0.1
        seq = synthesize_sequence((d,) * 9, (8, 4), seed=4)
        total = run_fixed_window(seq, 3)
        expected = 0.0
        for i, r in enumerate(seq):
            if i % 3 == 0:
                anchor = r
            else:
                expected += ref_rel_norm(anchor.output, r.output)
        assert total == pytest.approx(expected, rel=1e-12)

