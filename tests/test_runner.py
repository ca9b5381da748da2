import numpy as np

from unicp.linalg import rel_l2
from unicp.metrics import macs_sliced
from unicp.model import ModelConfig, attention, attention_weights_for, init_model
from unicp.pcas import compute_basis, slice_weights
from unicp.runner import (
    LETTER_FULL,
    LETTER_MAP,
    LETTER_OUTPUT,
    LETTER_PRUNED,
    CellExecutor,
)

CFG = ModelConfig(num_blocks=1, model_dim=8, tokens_per_frame=6, num_frames=3,
                  num_steps=4, seed=11)
UNIT = (0, "spatial")


def executor_and_stacks(count, n=CFG.model_dim // 2, **options):
    model = init_model(CFG)
    w = attention_weights_for(model[0], "spatial")
    rng = np.random.default_rng(5)
    m = CFG.model_dim
    basis = compute_basis([rng.standard_normal((2 * m, m))])
    executor = CellExecutor(model, {UNIT: slice_weights(w, basis, n)}, **options)
    shape = (CFG.num_frames, CFG.tokens_per_frame, m)
    return executor, w, [rng.standard_normal(shape) for _ in range(count)]


class TestFullWithDrift:
    def test_first_full_has_no_drift(self):
        executor, w, (x,) = executor_and_stacks(1, drift=True)
        o_stack, row = executor.run_unit(*UNIT, x, 0)
        assert (row.drift_output, row.drift_map) == (None, None)
        assert np.array_equal(o_stack, attention(x, w)[0])
        assert row.macs > 0

    def test_drift_is_against_the_last_full_result(self):
        # O, M and P cells between two F cells leave the ring alone, so the
        # second F measures its drift against the first one.
        letters = [LETTER_FULL, LETTER_OUTPUT, LETTER_MAP, LETTER_PRUNED, LETTER_FULL]
        executor, w, xs = executor_and_stacks(5, drift=True, grid={UNIT: letters})
        o_first, a_first = attention(xs[0], w)
        o_stack, row = [executor.run_unit(*UNIT, x, step) for step, x in enumerate(xs)][4]
        o_fresh, a_fresh = attention(xs[4], w)
        assert np.array_equal(o_stack, o_fresh)
        assert row.drift_output == rel_l2(o_fresh, o_first)
        assert row.drift_map == rel_l2(a_fresh, a_first)


class TestRing:
    def test_replay_and_baseline_rings_keep_only_the_newest_full(self):
        # Drift (the baseline) and a grid (replay) read the newest F, so
        # each keeps exactly that one; O, M and P leave it in place.
        for letters, options in (("FFFFFF", {"drift": True}),
                                 ("FOFMPF", {"grid": {UNIT: list("FOFMPF")}})):
            executor, _, xs = executor_and_stacks(len(letters), **options)
            newest = None
            for step, (letter, x) in enumerate(zip(letters, xs)):
                executor.run_unit(*UNIT, x, step)
                newest = step if letter == LETTER_FULL else newest
                assert [s for s, _ in executor.rings[UNIT]] == [newest], (letters, step)

    def test_capture_is_the_input_stack_itself(self):
        # A capture is the cell's input stack, not a copy, kept at its steps.
        executor, _, xs = executor_and_stacks(3, capture_steps=(0, 2))
        for step, x in enumerate(xs):
            executor.run_unit(*UNIT, x, step)
        assert sorted(executor.captured[UNIT]) == [0, 2]
        assert executor.captured[UNIT][0] is xs[0] and executor.captured[UNIT][2] is xs[2]

    def test_reuse_cells_serve_the_newest_entry(self):
        executor, w, xs = executor_and_stacks(4, grid={UNIT: list("FFOM")})
        outs = [executor.run_unit(*UNIT, x, step) for step, x in enumerate(xs)]
        o_newest, a_newest = attention(xs[1], w)
        (o_served, row_o), (o_mapped, _) = outs[2], outs[3]
        assert np.array_equal(o_served, o_newest) and row_o.macs == 0
        assert np.array_equal(o_mapped, attention(xs[3], w, amap=a_newest)[0])


class TestPrunedCell:
    def test_full_width_weights_run_the_full_kernel(self):
        # At n == m the cell runs full attention, which sliced attention
        # matches only to rounding, and charges the sliced formula.
        m = CFG.model_dim
        executor, _, (x,) = executor_and_stacks(1, n=m, grid={UNIT: list("FP")})
        o_full, _ = executor.run_unit(*UNIT, x, 0)
        o_pruned, row = executor.run_unit(*UNIT, x, 1)
        assert row.decision == "pruned"
        assert np.array_equal(o_pruned, o_full)
        assert row.macs == CFG.num_frames * macs_sliced(CFG.tokens_per_frame, m, m)
