import numpy as np

from unicp.linalg import rel_l2
from unicp.model import ModelConfig, attention, attention_weights_for, init_model
from unicp.pcas import compute_basis, slice_weights
from unicp.runner import (
    LETTER_MAP,
    LETTER_OUTPUT,
    LETTER_PRUNED,
    CellExecutor,
)

CFG = ModelConfig(num_blocks=1, model_dim=8, tokens_per_frame=6, num_frames=3,
                  num_steps=4, seed=11)
UNIT = (0, "spatial")


def executor_and_stacks(count):
    model = init_model(CFG)
    w = attention_weights_for(model[0], "spatial")
    rng = np.random.default_rng(5)
    m = CFG.model_dim
    basis = compute_basis([rng.standard_normal((2 * m, m))])
    executor = CellExecutor(model, {UNIT: slice_weights(w, basis, m // 2)})
    shape = (CFG.num_frames, CFG.tokens_per_frame, m)
    return executor, w, [rng.standard_normal(shape) for _ in range(count)]


class TestFullWithDrift:
    def test_first_full_has_no_drift(self):
        executor, w, (x,) = executor_and_stacks(1)
        o_stack, macs, drift_o, drift_m = executor.full_with_drift(*UNIT, x, 0)
        assert (drift_o, drift_m) == (None, None)
        assert np.array_equal(o_stack, attention(x, w)[0])
        assert macs > 0

    def test_drift_is_against_the_last_full_result(self):
        # O, M and P cells between two F cells leave the stash alone, so the
        # second F measures its drift against the first one.
        executor, w, xs = executor_and_stacks(5)
        executor.full_with_drift(*UNIT, xs[0], 0)
        o_first, a_first = attention(xs[0], w)
        for step, letter in enumerate((LETTER_OUTPUT, LETTER_MAP, LETTER_PRUNED), start=1):
            executor.execute_cell(letter, *UNIT, xs[step], step)
        o_stack, _, drift_o, drift_m = executor.full_with_drift(*UNIT, xs[4], 4)
        o_fresh, a_fresh = attention(xs[4], w)
        assert np.array_equal(o_stack, o_fresh)
        assert drift_o == rel_l2(o_fresh, o_first)
        assert drift_m == rel_l2(a_fresh, a_first)
