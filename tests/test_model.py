import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import attention_rows, ref_attention, ref_mlp, ref_sliced_attention_via_reconstruction
from unicp.linalg import rel_l2
from unicp.metrics import macs_full_attention, macs_mlp
from unicp.model import (
    ATTENTION_KINDS,
    SHIFT_FREE_BOUND,
    AttentionWeights,
    ModelConfig,
    MlpWeights,
    apply_mlp,
    apply_unit_output,
    attention,
    attention_weights_for,
    BlockWeights,
    init_latent,
    init_model,
    load_state,
    mlp_forward,
    rms_normalize,
    save_state,
    time_embedding,
    unit_input_stack,
)
from unicp.pcas import compute_basis, slice_weights
from unicp.runner import CellExecutor, denoise_run


def matrices(weights):
    """The arrays of an AttentionWeights or MlpWeights, in field order."""
    return [getattr(weights, f.name) for f in dataclasses.fields(weights)]


def block_forward(state, block):
    """Scheduler-free block: full attention everywhere, then the MLP."""
    for kind in ATTENTION_KINDS:
        x_stack = unit_input_stack(state, kind)
        o_stack, _ = attention(x_stack, attention_weights_for(block, kind))
        state = apply_unit_output(state, kind, o_stack)
    state, _ = apply_mlp(state, block)
    return state


def small_cfg(**overrides):
    base = dict(num_blocks=2, model_dim=8, tokens_per_frame=4, num_frames=2,
                num_steps=4, seed=123)
    base.update(overrides)
    return ModelConfig(**base)


class TestModelConfig:
    def test_rejects_tiny_dim(self):
        with pytest.raises(ValueError):
            small_cfg(model_dim=2)

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            small_cfg(num_steps=1)

    def test_header_round_trip(self):
        cfg = small_cfg()
        assert ModelConfig.from_header(cfg.header()) == cfg


class TestInitModel:
    def test_determinism(self):
        cfg = small_cfg()
        a = init_model(cfg)
        b = init_model(cfg)
        for ba, bb in zip(a, b):
            for wa, wb in zip(matrices(ba.spatial) + matrices(ba.temporal) + matrices(ba.mlp),
                              matrices(bb.spatial) + matrices(bb.temporal) + matrices(bb.mlp)):
                assert np.array_equal(wa, wb)

    def test_shapes(self):
        cfg = small_cfg(model_dim=4)
        model = init_model(cfg)
        for block in model:
            for w in matrices(block.spatial) + matrices(block.temporal):
                assert w.shape == (4, 4)
            assert block.mlp.w1.shape == (4, 8)
            assert block.mlp.w2.shape == (8, 4)

    def test_adjacent_seeds_differ(self):
        a = init_model(small_cfg(seed=5))
        b = init_model(small_cfg(seed=6))
        assert not np.array_equal(a[0].spatial.w_q, b[0].spatial.w_q)


class TestAttentionForward:
    def test_zero_input_gives_uniform_map_and_zero_output(self):
        cfg = small_cfg()
        w = init_model(cfg)[0].spatial
        o, a = attention(np.zeros((5, cfg.model_dim)), w)
        assert np.allclose(a, np.full((5, 5), 0.2), atol=1e-15)
        assert np.array_equal(o, np.zeros((5, cfg.model_dim)))

    def test_single_token(self):
        cfg = small_cfg()
        w = init_model(cfg)[0].temporal
        x = np.random.default_rng(0).standard_normal((1, cfg.model_dim))
        o, a = attention(x, w)
        assert np.array_equal(a, np.ones((1, 1)))
        assert np.allclose(o, (x @ w.w_v) @ w.w_o, atol=1e-15)

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(42)
        m = 4
        x = rng.standard_normal((3, m))
        w = AttentionWeights(*(rng.standard_normal((m, m)) for _ in range(4)))
        o, a = attention(x, w)
        ref_map, ref_out = ref_attention(x, w.w_q, w.w_k, w.w_v, w.w_o)
        assert rel_l2(a, ref_map) < 1e-13
        assert rel_l2(o, ref_out) < 1e-13

    def test_macs_formula(self):
        # The kernel returns no MACs; the full-attention trace row carries them.
        cfg = small_cfg()
        model = init_model(cfg)
        s, m = 5, cfg.model_dim
        _, r = CellExecutor(model, drift=True).run_unit(0, "spatial", np.ones((1, s, m)), 0)
        assert r.macs == 4 * s * m * m + 2 * s * s * m == macs_full_attention(s, m)

    def test_maps_are_row_stochastic(self):
        rng = np.random.default_rng(1)
        cfg = small_cfg()
        w = init_model(cfg)[0].spatial
        _, a = attention(rng.standard_normal((6, cfg.model_dim)) * 5, w)
        assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-10


def out_of_place_attention(x, w, qk=None, shift=False):
    """The kernel's formula without its in-place buffers: the reference for
    bit-equality. `shift` subtracts the row max, as the kernel does above
    SHIFT_FREE_BOUND."""
    wq, wk = qk if qk is not None else (w.w_q, w.w_k)
    scores = ((x @ wq) / np.sqrt(w.w_q.shape[0])) @ (x @ wk).swapaxes(-1, -2)
    if shift:
        scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    amap = e / e.sum(axis=-1, keepdims=True)
    return (amap @ (x @ w.w_v)) @ w.w_o, amap


def score_bound(x, w, qk=None):
    """max |q_i| * max |k_j| of the scaled queries and the keys."""
    wq, wk = qk if qk is not None else (w.w_q, w.w_k)
    q = (x @ wq) / np.sqrt(w.w_q.shape[0])
    return np.linalg.norm(q, axis=-1).max() * np.linalg.norm(x @ wk, axis=-1).max()


class TestInPlaceMap:
    @pytest.mark.parametrize("shape", [(24, 12), (3, 24, 12)], ids=["2d", "3d"])
    @pytest.mark.parametrize("sliced", [False, True], ids=["full", "qk"])
    def test_bitwise_equal_to_out_of_place_formula(self, shape, sliced):
        rng = np.random.default_rng(11)
        m = shape[-1]
        w = AttentionWeights(*(rng.standard_normal((m, m)) / np.sqrt(m) for _ in range(4)))
        x = rng.standard_normal(shape) * 3
        qk = (w.w_q[:, :5], w.w_k[:, :5]) if sliced else None
        o, a = attention(x, w, qk=qk)
        ref_o, ref_a = out_of_place_attention(x, w, qk=qk)
        assert a.shape == shape[:-1] + shape[-2:-1]
        assert np.array_equal(a, ref_a)
        assert np.array_equal(o, ref_o)

    def test_map_reuse_leaves_inputs_unchanged(self):
        rng = np.random.default_rng(12)
        m = 8
        w = AttentionWeights(*(rng.standard_normal((m, m)) for _ in range(4)))
        x = rng.standard_normal((2, 6, m))
        _, a = attention(rng.standard_normal((2, 6, m)), w)
        x_before, a_before = x.copy(), a.copy()
        _, got = attention(x, w, amap=a)
        assert got is a
        assert np.array_equal(x, x_before)
        assert np.array_equal(a, a_before)

    def test_peak_allocation_stays_near_one_map(self):
        # One (4, 256, 256) map is 2 MiB. The out-of-place softmax peaked at
        # about 4x that; building the map in one buffer peaks at about 1.25x.
        rng = np.random.default_rng(13)
        m = 32
        w = AttentionWeights(*(rng.standard_normal((m, m)) / np.sqrt(m) for _ in range(4)))
        x = rng.standard_normal((4, 256, m))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            _, a = attention(x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 1.5 * a.nbytes


class TestSoftmaxBranches:
    """Below SHIFT_FREE_BOUND the softmax skips the row-max shift; above it
    keeps the shift."""

    @staticmethod
    def case(shape, sliced, scale):
        rng = np.random.default_rng(14)
        m = shape[-1]
        w = AttentionWeights(*(rng.standard_normal((m, m)) * scale / np.sqrt(m)
                               for _ in range(4)))
        x = rng.standard_normal(shape) * 3
        qk = (w.w_q[:, :5], w.w_k[:, :5]) if sliced else None
        return x, w, qk

    @pytest.mark.parametrize("shape", [(24, 12), (3, 24, 12)], ids=["2d", "3d"])
    @pytest.mark.parametrize("sliced", [False, True], ids=["full", "qk"])
    def test_below_bound_skips_the_shift(self, shape, sliced):
        x, w, qk = self.case(shape, sliced, scale=1.0)
        assert 1.0 < score_bound(x, w, qk) <= SHIFT_FREE_BOUND
        o, a = attention(x, w, qk=qk)
        ref_o, ref_a = out_of_place_attention(x, w, qk=qk, shift=False)
        assert np.array_equal(a, ref_a)
        assert np.array_equal(o, ref_o)
        wq, wk = qk if qk is not None else (w.w_q, w.w_k)
        for xi, ai, oi in zip(x.reshape(-1, *shape[-2:]), a.reshape(-1, *a.shape[-2:]),
                              o.reshape(-1, *shape[-2:])):
            ref_map, ref_out = ref_attention(xi, wq, wk, w.w_v, w.w_o)
            assert rel_l2(ai, ref_map) < 1e-14
            assert rel_l2(oi, ref_out) < 1e-14

    @pytest.mark.parametrize("shape", [(24, 12), (3, 24, 12)], ids=["2d", "3d"])
    @pytest.mark.parametrize("sliced", [False, True], ids=["full", "qk"])
    def test_above_bound_keeps_the_shift(self, shape, sliced):
        # Scores of order 1e4: exp of the unshifted scores overflows.
        x, w, qk = self.case(shape, sliced, scale=30.0)
        assert score_bound(x, w, qk) > 1e4
        o, a = attention(x, w, qk=qk)
        ref_o, ref_a = out_of_place_attention(x, w, qk=qk, shift=True)
        assert np.array_equal(a, ref_a)
        assert np.array_equal(o, ref_o)
        assert np.all(np.isfinite(a))
        assert np.abs(a.sum(axis=-1) - 1.0).max() < 1e-12


class TestStackedAttention:
    @pytest.mark.parametrize("kind", ["spatial", "temporal"])
    def test_each_path_matches_oracles_and_single_instance_calls(self, kind):
        # Spatial stacks are (f, s, m), temporal stacks (s, f, m); s != f so
        # the two geometries differ.
        cfg = small_cfg(tokens_per_frame=6, num_frames=3)
        rng = np.random.default_rng(21)
        shape = (cfg.num_frames, cfg.tokens_per_frame, cfg.model_dim)
        x_stack = unit_input_stack(rng.standard_normal(shape), kind)
        y_stack = unit_input_stack(rng.standard_normal(shape), kind)
        w = attention_weights_for(init_model(cfg)[0], kind)
        n = 3
        basis = compute_basis(list(x_stack))
        sw = slice_weights(w, basis, n)
        qk = (sw.wq_sliced, sw.wk_sliced)

        o_full, a_full = attention(x_stack, w)
        _, a_other = attention(y_stack, w)
        o_map, a_map = attention(x_stack, w, amap=a_other)
        o_sliced, a_sliced = attention(x_stack, w, qk=qk)
        assert a_map is a_other

        for i, x in enumerate(x_stack):
            ref_map, ref_out = ref_attention(x, w.w_q, w.w_k, w.w_v, w.w_o)
            assert rel_l2(a_full[i], ref_map) < 1e-13
            assert rel_l2(o_full[i], ref_out) < 1e-13
            other_map, _ = ref_attention(y_stack[i], w.w_q, w.w_k, w.w_v, w.w_o)
            assert rel_l2(o_map[i], (other_map @ (x @ w.w_v)) @ w.w_o) < 1e-13
            ref_map, ref_out = ref_sliced_attention_via_reconstruction(
                x, w.w_q, w.w_k, w.w_v, w.w_o, basis, n)
            assert rel_l2(a_sliced[i], ref_map) < 1e-10
            assert rel_l2(o_sliced[i], ref_out) < 1e-10

            one = x_stack[i:i + 1]
            for (o, a), got in (((o_full, a_full), attention(one, w)),
                                ((o_map, a_map), attention(one, w, amap=a_other[i:i + 1])),
                                ((o_sliced, a_sliced), attention(one, w, qk=qk))):
                assert np.array_equal(got[0], o[i:i + 1])
                assert np.array_equal(got[1], a[i:i + 1])


class TestBlockForward:
    def test_zero_state_zero_bias_returns_zero(self):
        cfg = small_cfg()
        block = init_model(cfg)[0]
        zero_mlp = MlpWeights(w1=block.mlp.w1, b1=np.zeros_like(block.mlp.b1),
                              w2=block.mlp.w2, b2=np.zeros_like(block.mlp.b2))
        zeroed = BlockWeights(spatial=block.spatial, temporal=block.temporal, mlp=zero_mlp)
        state = np.zeros((cfg.num_frames, cfg.tokens_per_frame, cfg.model_dim))
        out = block_forward(state, zeroed)
        assert np.array_equal(out, state)

    def test_single_frame_temporal_attention_is_identity_map(self):
        cfg = small_cfg(num_frames=1)
        state = np.random.default_rng(2).standard_normal(
            (1, cfg.tokens_per_frame, cfg.model_dim))
        stack = unit_input_stack(state, "temporal")
        assert stack.shape == (cfg.tokens_per_frame, 1, cfg.model_dim)
        w = init_model(cfg)[0].temporal
        for x in stack:
            _, a = attention(x, w)
            assert np.array_equal(a, np.ones((1, 1)))

    def test_smoke_matches_unit_reference(self):
        # Independent recomputation of one block: spatial per frame, temporal
        # per position, MLP over all tokens, all with RMS pre-norm + residual.
        cfg = small_cfg()
        block = init_model(cfg)[0]
        state = np.random.default_rng(3).standard_normal(
            (cfg.num_frames, cfg.tokens_per_frame, cfg.model_dim))

        def norm(x):
            rms = np.linalg.norm(x) / np.sqrt(x.size)
            return x / max(rms, 1e-12)

        expected = state.copy()
        for fi in range(cfg.num_frames):
            _, o = ref_attention(norm(expected[fi]), block.spatial.w_q,
                                 block.spatial.w_k, block.spatial.w_v, block.spatial.w_o)
            expected[fi] = expected[fi] + o
        tmp = expected.copy()
        for ti in range(cfg.tokens_per_frame):
            _, o = ref_attention(norm(tmp[:, ti, :]), block.temporal.w_q,
                                 block.temporal.w_k, block.temporal.w_v, block.temporal.w_o)
            expected[:, ti, :] = expected[:, ti, :] + o
        tokens = norm(expected.reshape(-1, cfg.model_dim))
        h = tokens @ block.mlp.w1 + block.mlp.b1
        g = 0.5 * h * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (h + 0.044715 * h ** 3)))
        expected = expected + (g @ block.mlp.w2 + block.mlp.b2).reshape(expected.shape)

        got = block_forward(state, block)
        assert rel_l2(got, expected) < 1e-12


class TestMlp:
    @pytest.mark.parametrize("rows, m", [(512, 64), (1024, 32)], ids=["desk", "longseq"])
    def test_matches_power_cube_oracle(self, rows, m):
        # The engine cubes by multiplication; the oracle uses h ** 3.
        w = init_model(small_cfg(model_dim=m))[0].mlp
        x = rms_normalize(np.random.default_rng(rows).standard_normal((rows, m)))
        assert rel_l2(mlp_forward(x, w), ref_mlp(x, w.w1, w.b1, w.w2, w.b2)) <= 1e-14


class TestDenoiseRun:
    def test_trace_row_counts(self):
        cfg = small_cfg(num_steps=2)
        model = init_model(cfg)
        _, trace = denoise_run(cfg, CellExecutor(model, drift=True))
        assert len(attention_rows(trace)) == 2 * cfg.num_blocks * 2
        assert len(trace.rows) == 2 * cfg.num_blocks * 3  # + one MLP row per block

    def test_zero_eta_is_fixed_point(self, monkeypatch):
        cfg = small_cfg()
        model = init_model(cfg)
        monkeypatch.setattr("unicp.runner.eta_schedule", lambda t, num_steps: 0.0)
        state, _ = denoise_run(cfg, CellExecutor(model, drift=True))
        assert np.array_equal(state, init_latent(cfg))

    def test_determinism(self):
        cfg = small_cfg()
        model = init_model(cfg)
        s1, t1 = denoise_run(cfg, CellExecutor(model, drift=True))
        s2, t2 = denoise_run(cfg, CellExecutor(model, drift=True))
        assert np.array_equal(s1, s2)
        assert t1.rows == t2.rows

    def test_mac_total_closed_form(self):
        cfg = small_cfg(num_steps=3)
        model = init_model(cfg)
        _, trace = denoise_run(cfg, CellExecutor(model, drift=True))
        s, m, f = cfg.tokens_per_frame, cfg.model_dim, cfg.num_frames
        per_block = (f * macs_full_attention(s, m) + s * macs_full_attention(f, m)
                     + macs_mlp(f * s, m))
        assert trace.macs_total == cfg.num_steps * cfg.num_blocks * per_block

    def test_all_full_dispatch_equals_scheduler_free_path(self):
        # The dispatched executor with everything forced Full must reproduce
        # the plain block_forward composition bitwise.
        from unicp.linalg import frob
        from unicp.model import TEMB_AMP, eta_schedule
        cfg = small_cfg()
        model = init_model(cfg)
        via_executor, _ = denoise_run(cfg, CellExecutor(model, drift=True))

        state = init_latent(cfg)
        for step in range(cfg.num_steps):
            t = cfg.num_steps - step
            conditioned = state + TEMB_AMP * time_embedding(t, cfg.model_dim)
            h = conditioned
            for block in model:
                h = block_forward(h, block)
            residual = h - conditioned
            scale = frob(state) / max(frob(residual), 1e-12)
            state = state - eta_schedule(t, cfg.num_steps) * scale * residual
        assert np.array_equal(via_executor, state)


class TestTimeEmbedding:
    def test_distinct_steps_distinct_embeddings(self):
        e1 = time_embedding(3, 8)
        e2 = time_embedding(4, 8)
        assert not np.array_equal(e1, e2)

    def test_bounded(self):
        assert np.abs(time_embedding(17, 16)).max() <= 1.0


class TestContainers:
    def test_state_round_trip(self, tmp_path):
        cfg = small_cfg()
        state = init_latent(cfg)
        path = tmp_path / "state.bin"
        save_state(path, state, cfg)
        loaded, loaded_cfg = load_state(path)
        assert np.array_equal(loaded, state)
        assert loaded_cfg == cfg

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_payload_rejected_naming_the_file(self, tmp_path, bad):
        cfg = small_cfg()
        state = init_latent(cfg)
        state[0, 0, 0] = bad
        path = tmp_path / "state.bin"
        save_state(path, state, cfg)
        with pytest.raises(ValueError, match="payload holds non-finite values") as exc:
            load_state(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMAGIC\n{}\n")
        with pytest.raises(ValueError):
            load_state(path)
