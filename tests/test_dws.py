import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (attention_rows, baseline_run, drive_unit, exhaustive_n_sweep,
                     ref_width_sweep, unit_letters)
from unicp.artifacts import (
    cache_map_export,
    cache_map_parse,
    load_calib_captures,
    save_calib_captures,
)
from unicp.dws import (
    CacheMap,
    OnlineDispatcher,
    candidate_widths,
    default_calib_steps,
    dws_calibrate,
    run_cache_map,
    sweep_widths,
)
from unicp.edcw import SchedulerConfig
from unicp.linalg import rel_l2
from unicp.metrics import RunTrace, macs_full_attention, macs_map_reuse, macs_sliced, macs_mlp
from unicp.model import ATTENTION_KINDS, ModelConfig, attention, attention_weights_for, init_model
from unicp.runner import CellExecutor, denoise_run, forward_blocks


def assert_same_captures(got, want, calib_steps):
    """Both capture maps hold the same input stacks at exactly the
    calibration steps, bit for bit."""
    assert got.keys() == want.keys()
    for unit, per_step in want.items():
        assert sorted(got[unit]) == calib_steps == sorted(per_step)
        for step, x_stack in per_step.items():
            assert got[unit][step].shape == x_stack.shape
            assert got[unit][step].tobytes() == x_stack.tobytes()


def write_baseline_captures(cfg, model, path):
    """Write the unit inputs a baseline run captures at the calibration
    steps, as `baseline` does, and return them."""
    captured = baseline_run(cfg, model).captured
    save_calib_captures(path, cfg, captured)
    return captured


def tiny(**overrides):
    base = dict(num_blocks=2, model_dim=16, tokens_per_frame=16, num_frames=2,
                num_steps=8, seed=7)
    base.update(overrides)
    return ModelConfig(**base)


class TestFractionGrid:
    def test_default_bounds(self):
        # Pruned fractions 0.1, 0.15, ..., 0.4 of 64 channels.
        assert candidate_widths(64, 0.1, 0.4) == [58, 55, 52, 48, 45, 42, 39]
        # At m=16 the fractions 0.25 and 0.3 both give width 12, kept once.
        assert candidate_widths(16, 0.1, 0.4) == [15, 14, 13, 12, 11, 10]

    def test_degenerate_bounds(self):
        assert candidate_widths(64, 0.2, 0.2) == [52]
        assert candidate_widths(16, 0.0, 0.0) == [16]

    def test_calib_steps_cover_thirds(self):
        assert default_calib_steps(30) == [0, 10, 20]
        assert default_calib_steps(8) == [0, 2, 5]


class TestCalibrate:
    def test_huge_delta_accepts_max_fraction(self, tiny_cfg, tiny_model, tiny_captures):
        sched = SchedulerConfig(delta=1e9, search_window=4)
        calib = dws_calibrate(tiny_model, tiny_cfg, sched, tiny_captures, ratio_bounds=(0.1, 0.4))
        expected_n = math.ceil(tiny_cfg.model_dim * 0.6)
        for sw in calib.sliced.values():
            assert sw.n == expected_n

    def test_zero_delta_rejects_everything(self, tiny_cfg, tiny_model, tiny_captures):
        sched = SchedulerConfig(delta=0.0, search_window=4)
        calib = dws_calibrate(tiny_model, tiny_cfg, sched, tiny_captures)
        for sw in calib.sliced.values():
            assert sw.n == tiny_cfg.model_dim
        # With nothing accepted, pruned cells fall back to full compute.
        online = OnlineDispatcher(tiny_model, sched, calib.sliced)
        _, trace = denoise_run(tiny_cfg, online)
        cmap = run_cache_map(trace, {}, calib.sliced)
        letters = {l for row in cmap.grid.values() for l in row}
        assert "P" not in letters

    def test_final_n_matches_exhaustive_oracle(self, tiny_calibration, tiny_cfg, tiny_model):
        sched, calib, _ = tiny_calibration
        m = tiny_cfg.model_dim
        n_candidates = candidate_widths(m, 0.1, 0.4)
        # Re-capture the baseline inputs independently of the calibration.
        captured = baseline_run(tiny_cfg, tiny_model).captured
        for (block, kind), sw in calib.sliced.items():
            w = attention_weights_for(tiny_model[block], kind)
            x_by_step = captured[(block, kind)]
            o_by_step = {s: attention(x, w)[0] for s, x in x_by_step.items()}
            oracle_n = exhaustive_n_sweep(x_by_step, o_by_step, w.w_q, w.w_k,
                                          w.w_v, w.w_o, sched.delta, n_candidates)
            assert sw.n == oracle_n, (block, kind)

    def test_resumed_calibration_runs_no_step(self, tiny_cfg, tiny_model, tiny_captures,
                                              tiny_calibration, monkeypatch, tmp_path):
        # Calibrating from the captures read back from their file runs no
        # cell and gives the bits of the in-memory captures.
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        save_calib_captures(tmp_path / "captures.bin", tiny_cfg, tiny_captures)
        captured = load_calib_captures(tmp_path / "captures.bin", tiny_cfg)
        sched, in_memory, _ = tiny_calibration
        monkeypatch.setattr(CellExecutor, "run_unit", no_cell)
        resumed = dws_calibrate(tiny_model, tiny_cfg, sched, captured)
        assert resumed.records == in_memory.records
        for unit, sw in in_memory.sliced.items():
            got = resumed.sliced[unit]
            assert got.n == sw.n
            assert got.wq_sliced.tobytes() == sw.wq_sliced.tobytes()
            assert got.wk_sliced.tobytes() == sw.wk_sliced.tobytes()

    def test_unit_finishing_last_changes_no_output(self, tiny_cfg, tiny_model, tiny_captures,
                                                   monkeypatch):
        import threading
        import unicp.dws
        sched = SchedulerConfig(delta=0.075, search_window=4)
        monkeypatch.setattr(unicp.dws.os, "sched_getaffinity", lambda pid: {0})
        one_cpu = dws_calibrate(tiny_model, tiny_cfg, sched, tiny_captures)

        # On two workers, unit (0, spatial) starts first but waits until every
        # other unit has finished.
        calibrate_unit = unicp.dws._calibrate_unit
        last = (0, "spatial")
        others_done = threading.Semaphore(0)
        finished = []

        def last_to_finish(model, cfg, sched, captured, unit, *rest):
            if unit == last:
                for _ in range(len(one_cpu.sliced) - 1):
                    assert others_done.acquire(timeout=60)
            result = calibrate_unit(model, cfg, sched, captured, unit, *rest)
            finished.append(unit)
            if unit != last:
                others_done.release()
            return result

        monkeypatch.setattr(unicp.dws, "_calibrate_unit", last_to_finish)
        monkeypatch.setattr(unicp.dws.os, "sched_getaffinity", lambda pid: {0, 1})
        pooled = dws_calibrate(tiny_model, tiny_cfg, sched, tiny_captures)
        assert finished[-1] == last and len(finished) == len(one_cpu.sliced)
        assert pooled.records == one_cpu.records
        assert list(pooled.sliced) == list(one_cpu.sliced)
        for unit, sw in one_cpu.sliced.items():
            got = pooled.sliced[unit]
            assert got.n == sw.n
            assert got.wq_sliced.tobytes() == sw.wq_sliced.tobytes()
            assert got.wk_sliced.tobytes() == sw.wk_sliced.tobytes()

    def test_error_in_one_units_sweep_is_raised_unchanged(self, tiny_cfg, tiny_model,
                                                          tiny_captures, monkeypatch):
        import unicp.dws
        from unicp.pcas import slice_weights

        class SweepError(Exception):
            pass

        failing = attention_weights_for(tiny_model[1], "temporal")

        def slice_or_fail(w, rotation, n):
            if w is failing:
                raise SweepError("block 1 temporal")
            return slice_weights(w, rotation, n)

        monkeypatch.setattr(unicp.dws, "slice_weights", slice_or_fail)
        monkeypatch.setattr(unicp.dws.os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(SweepError, match="block 1 temporal"):
            dws_calibrate(tiny_model, tiny_cfg, SchedulerConfig(delta=0.075, search_window=4),
                          tiny_captures)

    def test_captures_read_back_as_views_for_their_model_only(self, tiny_cfg, tiny_model,
                                                              tmp_path):
        path = tmp_path / "captures.bin"
        kept = write_baseline_captures(tiny_cfg, tiny_model, path)
        captured = load_calib_captures(path, tiny_cfg)
        calib_steps = default_calib_steps(tiny_cfg.num_steps)
        assert list(captured) == sorted(kept)
        assert_same_captures(captured, kept, calib_steps)
        for per_step in captured.values():
            assert list(per_step) == calib_steps
            for x_stack in per_step.values():
                assert not x_stack.flags.owndata and not x_stack.flags.writeable
        # Units go in sorted (block, kind) order and steps ascend: the file
        # is the stacks' bytes in that order after its header line.
        payload = b"".join(kept[unit][step].tobytes() for unit in sorted(kept)
                           for step in calib_steps)
        assert path.read_bytes().endswith(b"}\n" + payload)
        for other, field in ((tiny(seed=8), "seed"), (tiny(num_steps=10), "steps"),
                             (tiny(num_frames=4), "frames")):
            made, wanted = tiny_cfg.header()[field], other.header()[field]
            with pytest.raises(ValueError, match=f"was made with {field}={made}, "
                                                 f"but this run has {field}={wanted}$"):
                load_calib_captures(path, other)

    def test_records_mark_acceptance_against_threshold(self, tiny_calibration):
        sched, calib, _ = tiny_calibration
        assert calib.records
        for rec in calib.records:
            assert rec.accepted == (rec.measured_error <= sched.delta)

    def test_threshold_soundness_at_calibration_steps(self, tiny_calibration, tiny_cfg, tiny_model):
        # Post-hoc recomputation: the final sliced weights stay within delta
        # of full compute at every calibration step.
        sched, calib, _ = tiny_calibration
        captured = baseline_run(tiny_cfg, tiny_model).captured
        for (block, kind), sw in calib.sliced.items():
            if sw.n == tiny_cfg.model_dim:
                continue
            w = attention_weights_for(tiny_model[block], kind)
            for step, x_stack in captured[(block, kind)].items():
                o_full, _ = attention(x_stack, w)
                o_sliced, _ = attention(x_stack, w, qk=(sw.wq_sliced, sw.wk_sliced))
                assert rel_l2(o_sliced, o_full) <= sched.delta

    def test_conservative_final_n_accepted_at_every_step(self, tiny_calibration,
                                                         desk_calibrations, tiny_cfg, desk_cfg):
        # A conservative final_n < m was itself measured within delta at every
        # calibration step, so no re-verification of the slice is needed.
        runs = [(tiny_cfg, tiny_calibration[1])]
        runs += [(desk_cfg, calib) for _, calib, _ in desk_calibrations.values()]
        sliced_units = 0
        for cfg, calib in runs:
            steps = default_calib_steps(cfg.num_steps)
            for (block, kind), sw in calib.sliced.items():
                if sw.n == cfg.model_dim:
                    continue
                sliced_units += 1
                accepted_steps = {rec.step for rec in calib.records
                                  if (rec.block, rec.kind) == (block, kind)
                                  and rec.candidate_n == sw.n and rec.accepted}
                assert accepted_steps == set(steps), (block, kind, sw.n)
        assert sliced_units > 0

    def test_pruned_fraction_bounds(self, tiny_calibration, tiny_cfg):
        _, calib, _ = tiny_calibration
        m = tiny_cfg.model_dim
        for sw in calib.sliced.values():
            fraction = 1 - sw.n / m
            assert 0.0 <= fraction <= 0.4 + 1e-12

    def test_determinism(self):
        cfg = tiny()
        model = init_model(cfg)
        sched = SchedulerConfig(delta=0.075, search_window=4)
        a = dws_calibrate(model, cfg, sched, baseline_run(cfg, model).captured)
        b = dws_calibrate(model, cfg, sched, baseline_run(cfg, model).captured)
        assert {k: sw.n for k, sw in a.sliced.items()} == {k: sw.n for k, sw in b.sliced.items()}
        maps = []
        for calib in (a, b):
            online = OnlineDispatcher(model, sched, calib.sliced)
            _, trace = denoise_run(cfg, online)
            maps.append(cache_map_export(run_cache_map(trace, {}, calib.sliced)))
        assert maps[0] == maps[1]
        for unit in a.sliced:
            assert np.array_equal(a.sliced[unit].wq_sliced, b.sliced[unit].wq_sliced)

    def test_each_width_measured_once(self, tiny_cfg, tiny_model, tiny_captures):
        # At m=16 the pruned fractions 0.25 and 0.3 both give width 12.
        calib = dws_calibrate(tiny_model, tiny_cfg, SchedulerConfig(delta=0.175, search_window=4),
                              tiny_captures)
        keys = [(r.block, r.kind, r.step, r.candidate_n) for r in calib.records]
        assert any(n == 12 for *_, n in keys)
        assert len(keys) == len(set(keys))


@st.composite
def accept_tables(draw):
    """(m, widths descending, steps ascending, error by (step, n), delta);
    the errors need not be monotone in n."""
    m = draw(st.integers(2, 20))
    widths = sorted(draw(st.sets(st.integers(1, m), min_size=1, max_size=8)), reverse=True)
    steps = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=4)))
    errors = {(step, n): draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
              for step in steps for n in widths}
    return m, widths, steps, errors, draw(st.sampled_from([0.0, 0.25, 0.5, 0.75]))


class TestWidthSweep:
    @settings(max_examples=300, deadline=None)
    @given(table=accept_tables())
    # Not monotone in n: step 0 rejects 14 but would accept 13 and 12.
    @example(table=(16, [15, 14, 13, 12], [0, 2], {(0, 15): 0.0, (0, 14): 1.0, (0, 13): 0.0,
                                                   (0, 12): 0.0, (2, 15): 0.0, (2, 14): 0.0,
                                                   (2, 13): 1.0, (2, 12): 0.0}, 0.5))
    def test_stop_rule_matches_the_per_step_sweep(self, table):
        m, widths, steps, errors, delta = table
        first_reject = max((n for step in steps for n in widths
                            if errors[step, n] > delta
                            and all(errors[step, w] <= delta for w in widths if w > n)),
                           default=None)
        calls = []

        def measure(step, n):
            calls.append((step, n))
            return errors[step, n]

        final_n, measured = sweep_widths(measure, widths, steps, delta, m)
        want_n, want_pairs = ref_width_sweep(lambda step, n: errors[step, n], widths, steps,
                                             delta, m)
        assert final_n == want_n
        assert list(measured) == calls and len(set(calls)) == len(calls)
        assert measured == {pair: errors[pair] for pair in calls}
        assert set(calls) <= set(want_pairs)
        if first_reject is not None:
            assert min(n for _, n in calls) == first_reject
        if final_n < m:
            # The bound itself: every step was measured at final_n, within delta.
            assert all(measured[step, final_n] <= delta for step in steps)


class TestDispatch:
    def test_all_full_grid_step_equals_baseline_step(self, tiny_cfg, tiny_model):
        cmap = CacheMap(key={}, grid={(b, k): ["F"] * tiny_cfg.num_steps
                                      for b in range(tiny_cfg.num_blocks) for k in ATTENTION_KINDS})
        replay = CellExecutor(tiny_model, grid=cmap.grid)
        baseline = CellExecutor(tiny_model, drift=True)
        rng = np.random.default_rng(0)
        h = rng.standard_normal((tiny_cfg.num_frames, tiny_cfg.tokens_per_frame,
                                 tiny_cfg.model_dim))
        out_replay = forward_blocks(replay, h.copy(), 0, RunTrace())
        out_base = forward_blocks(baseline, h.copy(), 0, RunTrace())
        assert np.array_equal(out_replay, out_base)

    def test_all_pruned_full_width_grid_is_bitwise_baseline(self, tiny_cfg, tiny_model):
        from unicp.pcas import compute_basis, slice_weights
        m = tiny_cfg.model_dim
        rng = np.random.default_rng(1)
        basis = compute_basis([rng.standard_normal((m + 4, m))])
        sliced = {(b, k): slice_weights(attention_weights_for(tiny_model[b], k), basis, m)
                  for b in range(tiny_cfg.num_blocks) for k in ATTENTION_KINDS}
        cmap = CacheMap(key={}, grid={unit: ["P"] * tiny_cfg.num_steps for unit in sliced},
                        final_n={unit: m for unit in sliced})
        state_replay, trace_replay = denoise_run(tiny_cfg, CellExecutor(tiny_model, sliced, grid=cmap.grid))
        state_base, trace_base = denoise_run(tiny_cfg, CellExecutor(tiny_model, drift=True))
        assert np.array_equal(state_replay, state_base)
        # Nominal accounting via the sliced formula equals full at n = m.
        assert trace_replay.macs_total == trace_base.macs_total

    def test_map_reuse_cells_recompute_value_path(self, tiny_cfg, tiny_model):
        # Hand-built grid: full compute at step 0, map reuse afterwards. The
        # reused map comes from step 0 while V/output projections track the
        # current input; MACs follow the map-reuse formula.
        grid = {(b, k): ["F"] + ["M"] * (tiny_cfg.num_steps - 1)
                for b in range(tiny_cfg.num_blocks) for k in ATTENTION_KINDS}
        cmap = CacheMap(key={}, grid=grid)
        state, trace = denoise_run(tiny_cfg, CellExecutor(tiny_model, grid=cmap.grid))
        f, s, m = tiny_cfg.num_frames, tiny_cfg.tokens_per_frame, tiny_cfg.model_dim
        for row in attention_rows(trace):
            if row.decision == "reuse_map":
                inst, seq = (f, s) if row.kind == "spatial" else (s, f)
                assert row.macs == inst * macs_map_reuse(seq, m)
        assert any(r.decision == "reuse_map" for r in attention_rows(trace))

    def test_online_replay_equivalence(self, tiny_calibration, tiny_cfg, tiny_model):
        sched, calib, population = tiny_calibration
        online = OnlineDispatcher(tiny_model, sched, calib.sliced)
        state_online, trace_online = denoise_run(tiny_cfg, online)
        assert np.array_equal(state_online, population.state)

        replay = CellExecutor(tiny_model, calib.sliced, grid=population.cache_map.grid)
        state_replay, trace_replay = denoise_run(tiny_cfg, replay)
        assert np.array_equal(state_replay, state_online)
        assert trace_replay.macs_total == trace_online.macs_total
        online_letters = [r.decision for r in attention_rows(trace_online)]
        replay_letters = [r.decision for r in attention_rows(trace_replay)]
        assert online_letters == replay_letters

    def test_mac_recount_from_trace(self, tiny_calibration, tiny_cfg):
        # Independent recount: every row's MACs match the executing path's
        # formula for its unit geometry.
        _, calib, online = tiny_calibration
        f, s, m = tiny_cfg.num_frames, tiny_cfg.tokens_per_frame, tiny_cfg.model_dim
        per_kind = {
            "spatial": (f, s),
            "temporal": (s, f),
        }
        final_n = {unit: sw.n for unit, sw in calib.sliced.items()}
        total = 0
        for row in online.trace.rows:
            if row.kind == "mlp":
                expected = macs_mlp(f * s, m)
            else:
                inst, seq = per_kind[row.kind]
                if row.decision == "full":
                    expected = inst * macs_full_attention(seq, m)
                elif row.decision == "reuse_output":
                    expected = 0
                elif row.decision == "reuse_map":
                    expected = inst * macs_map_reuse(seq, m)
                else:
                    expected = inst * macs_sliced(seq, m, final_n[(row.block, row.kind)])
            assert row.macs == expected, row
            total += expected
        assert total == online.trace.macs_total

    def test_grid_tallies_match_trace_decisions(self, tiny_calibration):
        _, _, online = tiny_calibration
        from collections import Counter
        letter_for = {"full": "F", "reuse_output": "O", "reuse_map": "M", "pruned": "P"}
        trace_tally = Counter(letter_for[r.decision]
                              for r in attention_rows(online.trace))
        grid_tally = Counter(l for row in online.cache_map.grid.values() for l in row)
        assert trace_tally == grid_tally

    def test_grid_covers_every_unit_and_step(self, tiny_calibration, tiny_cfg):
        _, _, online = tiny_calibration
        assert set(online.cache_map.grid) == {(b, k) for b in range(tiny_cfg.num_blocks)
                                              for k in ATTENTION_KINDS}
        for letters in online.cache_map.grid.values():
            assert len(letters) == tiny_cfg.num_steps

    def test_conservative_priority_no_cell_both_cached_and_pruned(self, tiny_calibration):
        # Grid letters form a partition; a cell is exactly one of F/O/M/P.
        _, _, online = tiny_calibration
        for letters in online.cache_map.grid.values():
            assert all(l in "FOMP" for l in letters)


class TestOnlineRing:
    def test_window_one_serves_nothing(self, tiny_cfg, tiny_model):
        # The fresh F enters the ring before the decide, so every decide from
        # step 1 on finds step - 1 at distance K = 1; a ring of depth K would
        # have evicted it and pruned instead.
        online = OnlineDispatcher(tiny_model, SchedulerConfig(delta=1e9, search_window=1))
        _, out, _ = drive_unit(online, tiny_cfg, 6)
        assert unit_letters(out) == ["F"] * 6
        assert [row.window for _, row in out] == [None] + [1] * 5

    def test_map_hit_serves_the_arming_map(self, tiny_cfg, tiny_model, monkeypatch):
        import unicp.dws
        from unicp.edcw import Decision, DecisionKind
        hit = Decision(kind=DecisionKind.REUSE_MAP, window=3)
        monkeypatch.setattr(unicp.dws, "edcw_decide", lambda history, current, step, cfg: hit)
        online = OnlineDispatcher(tiny_model, SchedulerConfig(delta=0.0, search_window=3))
        xs, out, _ = drive_unit(online, tiny_cfg, 4)
        assert unit_letters(out) == ["F", "M", "M", "F"]
        w = attention_weights_for(tiny_model[0], "spatial")
        _, a_armed = attention(xs[0], w)
        for step in (1, 2):
            assert np.array_equal(out[step][0], attention(xs[step], w, amap=a_armed)[0])

    def test_ring_keeps_exactly_the_entries_a_later_decide_can_read(self, tiny_cfg, tiny_model,
                                                                    monkeypatch):
        import unicp.dws
        from unicp.edcw import Decision, DecisionKind
        K = 4
        # Decide step -> the window its decide arms; None is a miss.
        script = {0: None, 1: 2, 3: None, 4: None, 5: 4, 9: 1, 10: None, 11: 3}

        def scripted(history, current, step, cfg):
            if script[step] is None:
                return Decision(kind=DecisionKind.PRUNED)
            return Decision(kind=DecisionKind.REUSE_OUTPUT, window=script[step])

        monkeypatch.setattr(unicp.dws, "edcw_decide", scripted)
        online = OnlineDispatcher(tiny_model, SchedulerConfig(delta=0.0, search_window=K))
        _, out, rings = drive_unit(online, tiny_cfg, 14)
        letters = unit_letters(out)
        assert [s for s, letter in enumerate(letters) if letter == "F"] == list(script)
        for step, window in script.items():
            horizon = step + (window or 1) - K
            assert rings[step] == [s for s in script if horizon <= s <= step]

    @pytest.mark.parametrize("delta", [0.0, 0.175])
    def test_rings_hold_at_most_k_entries_per_unit(self, tiny_cfg, tiny_model, delta):
        # Bytes held stand in for peak RSS, which a unit test cannot assert.
        sched = SchedulerConfig(delta=delta, search_window=4)

        class Measured(OnlineDispatcher):
            peak_bytes = 0

            def run_unit(self, *args):
                out = super().run_unit(*args)
                held = sum(r.map.nbytes + r.output.nbytes
                           for ring in self.rings.values() for _, r in ring)
                self.peak_bytes = max(self.peak_bytes, held)
                return out

        online = Measured(tiny_model, sched)
        denoise_run(tiny_cfg, online)
        entry_bytes = sum(ring[-1][1].map.nbytes + ring[-1][1].output.nbytes
                          for ring in online.rings.values())
        assert len(online.rings) == 2 * tiny_cfg.num_blocks
        assert 0 < online.peak_bytes <= sched.search_window * entry_bytes


class TestCacheMapDocument:
    def test_round_trip_byte_identical(self, tiny_calibration):
        _, _, online = tiny_calibration
        text = cache_map_export(online.cache_map)
        parsed = cache_map_parse(text)
        assert cache_map_export(parsed) == text
        assert parsed.grid == online.cache_map.grid
        assert parsed.final_n == online.cache_map.final_n
        assert parsed.key == online.cache_map.key

    def test_all_full_map_document(self, tiny_cfg):
        cmap = CacheMap(key={}, grid={(0, "spatial"): ["F"] * 4})
        text = cache_map_export(cmap)
        assert "FFFF" in text
        parsed = cache_map_parse(text)
        assert parsed.final_n == {}

    def test_rejects_unknown_letters(self, tiny_cfg):
        cmap = CacheMap(key={}, grid={(0, "spatial"): ["F", "X"]})
        text = cache_map_export(cmap)
        with pytest.raises(ValueError):
            cache_map_parse(text)

    def test_rejects_non_map_text(self):
        with pytest.raises(ValueError):
            cache_map_parse("hello\n")

    @settings(max_examples=200, deadline=None)
    @given(st.builds(
        CacheMap,
        key=st.fixed_dictionaries({
            "model": st.fixed_dictionaries({name: st.integers(0, 10 ** 6) for name in (
                "blocks", "dim", "tokens", "frames", "steps", "seed")}),
            "delta": st.floats(min_value=0.0, allow_nan=False),
            "window": st.integers(1, 64),
            "ratio_lo": st.floats(0.0, 1.0),
            "ratio_hi": st.floats(0.0, 1.0),
        }),
        grid=st.dictionaries(st.tuples(st.integers(0, 99), st.sampled_from(ATTENTION_KINDS)),
                             st.lists(st.sampled_from("FOMP"), min_size=1, max_size=40)),
        final_n=st.dictionaries(st.tuples(st.integers(0, 99), st.sampled_from(ATTENTION_KINDS)),
                                st.integers(1, 4096)),
    ))
    @example(CacheMap(key={"model": {}, "delta": math.inf, "window": 1, "ratio_lo": 0.0,
                           "ratio_hi": 0.0},
                      grid={(0, "spatial"): ["F"]}, final_n={(0, "spatial"): 1}))
    def test_export_parse_round_trip(self, cmap):
        text = cache_map_export(cmap)
        parsed = cache_map_parse(text)
        assert parsed == cmap
        assert cache_map_export(parsed) == text
