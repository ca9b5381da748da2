import numpy as np

from unicp.linalg import rel_l2
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


def executor_and_stacks(count, **options):
    model = init_model(CFG)
    w = attention_weights_for(model[0], "spatial")
    rng = np.random.default_rng(5)
    m = CFG.model_dim
    basis = compute_basis([rng.standard_normal((2 * m, m))])
    executor = CellExecutor(model, {UNIT: slice_weights(w, basis, m // 2)}, **options)
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
    def test_ring_keeps_at_most_depth_entries(self):
        executor, _, xs = executor_and_stacks(6, depth=3)
        for step, x in enumerate(xs):
            executor.execute_cell(LETTER_FULL, *UNIT, x, step)
            assert len(executor.rings[UNIT]) <= 3
        assert [s for s, _ in executor.rings[UNIT]] == [3, 4, 5]

    def test_reuse_cells_serve_the_newest_entry(self):
        executor, w, xs = executor_and_stacks(4, depth=2)
        executor.execute_cell(LETTER_FULL, *UNIT, xs[0], 0)
        executor.execute_cell(LETTER_FULL, *UNIT, xs[1], 1)
        o_newest, a_newest = attention(xs[1], w)
        o_served, macs = executor.execute_cell(LETTER_OUTPUT, *UNIT, xs[2], 2)
        assert np.array_equal(o_served, o_newest) and macs == 0
        o_mapped, _ = executor.execute_cell(LETTER_MAP, *UNIT, xs[3], 3)
        assert np.array_equal(o_mapped, attention(xs[3], w, amap=a_newest)[0])
