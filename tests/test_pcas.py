import numpy as np
import pytest

from oracles import (
    rayleigh_quotients,
    reconstruction_error,
    ref_pca_basis,
    ref_sliced_attention_via_reconstruction,
)
from unicp.artifacts import load_sliced_weights, save_sliced_weights
from unicp.linalg import frob, rel_l2
from unicp.metrics import macs_full_attention, macs_sliced
from unicp.model import AttentionWeights, BlockWeights, attention
from unicp.pcas import compute_basis, slice_weights
from unicp.runner import CellExecutor


def random_weights(rng, m):
    return AttentionWeights(*(rng.standard_normal((m, m)) / np.sqrt(m) for _ in range(4)))


class TestComputeBasis:
    def test_orthogonal_columns_with_known_norms(self):
        # X columns orthogonal with norms 3 and 1: X^T X = diag(9, 1).
        x = np.array([[3.0, 0.0], [0.0, 1.0]])
        basis = compute_basis([x])
        assert np.allclose(rayleigh_quotients(basis, [x]), [9.0, 1.0], atol=1e-10)
        assert np.allclose(np.abs(basis), np.eye(2), atol=1e-8)

    def test_zero_input_succeeds(self):
        x = np.zeros((4, 3))
        basis = compute_basis([x])
        assert np.allclose(rayleigh_quotients(basis, [x]), 0.0)
        assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-8)

    def test_duplicated_input_preserves_eigenvectors(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 6))
        one = compute_basis([x])
        two = compute_basis([x, x])
        assert np.allclose(rayleigh_quotients(two, [x, x]), 2 * rayleigh_quotients(one, [x]),
                           rtol=1e-10)
        assert np.allclose(np.abs(one), np.abs(two), atol=1e-7)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            compute_basis([])

    def test_orthonormality_invariant(self):
        rng = np.random.default_rng(1)
        inputs = [rng.standard_normal((8, 5)) for _ in range(3)]
        basis = compute_basis(inputs)
        assert np.abs(basis.T @ basis - np.eye(5)).max() < 1e-8
        eigenvalues = rayleigh_quotients(basis, inputs)
        assert np.all(np.diff(eigenvalues) <= 1e-10)
        assert eigenvalues.min() >= -1e-10

    def test_identity(self):
        x = np.eye(2)
        basis = compute_basis([x])
        assert np.allclose(rayleigh_quotients(basis, [x]), [1.0, 1.0])
        assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)

    def test_already_diagonal(self):
        # X^T X = diag(4, 1).
        x = np.diag([2.0, 1.0])
        basis = compute_basis([x])
        assert np.allclose(rayleigh_quotients(basis, [x]), [4.0, 1.0])
        assert np.allclose(np.abs(basis), np.eye(2), atol=1e-12)

    def test_two_by_two_hand_solution(self):
        # X^T X = [[2,1],[1,2]], whose eigenpairs are (3, (1,1)/sqrt2) and
        # (1, (1,-1)/sqrt2).
        x = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        basis = compute_basis([x])
        assert np.allclose(rayleigh_quotients(basis, [x]), [3.0, 1.0], atol=1e-12)
        inv_sqrt2 = 1 / np.sqrt(2)
        assert np.allclose(np.abs(basis[:, 0]), [inv_sqrt2, inv_sqrt2], atol=1e-10)
        assert np.allclose(np.abs(basis[:, 1]), [inv_sqrt2, inv_sqrt2], atol=1e-10)
        assert abs(float(basis[:, 0] @ basis[:, 1])) < 1e-12

    @pytest.mark.parametrize("shape", [(130, 3, 5), (8, 64, 16)], ids=["many-small", "few-large"])
    def test_stacks_and_their_instances_give_the_loop_basis(self, shape):
        # A stack is one product and its instances are one each, so the two
        # sums agree to rounding, and both match a loop over the instances.
        rng = np.random.default_rng(12)
        stacks = [rng.standard_normal(shape) for _ in range(3)]
        instances = [x for stack in stacks for x in stack]
        basis = compute_basis(stacks)
        assert np.allclose(basis, compute_basis(instances), rtol=0, atol=1e-10)
        loop_values, loop_vectors = ref_pca_basis(instances)
        assert np.allclose(rayleigh_quotients(basis, instances), loop_values,
                           rtol=1e-12, atol=0)
        assert np.allclose(np.abs(basis), np.abs(loop_vectors), rtol=0, atol=1e-10)

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 6))
        first = compute_basis([x])
        second = compute_basis([x.copy()])
        assert np.array_equal(first, second)
        for j in range(6):
            col = first[:, j]
            assert col[int(np.argmax(np.abs(col)))] > 0

    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_psd_reconstruction_and_orthonormality(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n + 5, n))
        c = x.T @ x
        v = compute_basis([x])
        eigenvalues = rayleigh_quotients(v, [x])
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-8
        recon = v @ np.diag(eigenvalues) @ v.T
        assert frob(recon - c) <= 1e-8 * max(1.0, frob(c))
        assert np.all(np.diff(eigenvalues) <= 1e-12)
        assert eigenvalues.min() >= -1e-10
        # Eigenvalue sum equals the trace.
        assert abs(eigenvalues.sum() - np.trace(c)) <= 1e-8 * abs(np.trace(c))

    def test_agrees_with_numpy_eigenvalues(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((20, 20))
        c = x.T @ x
        expected = np.sort(np.linalg.eigvalsh(c))[::-1]
        got = rayleigh_quotients(compute_basis([x]), [x])
        assert np.abs(got - expected).max() < 1e-9 * max(1.0, frob(c))


class TestSliceWeights:
    def test_full_rank_is_square_rotation(self):
        rng = np.random.default_rng(2)
        m = 6
        w = random_weights(rng, m)
        basis = compute_basis([rng.standard_normal((9, m))])
        sw = slice_weights(w, basis, m)
        assert sw.wq_sliced.shape == (m, m)
        assert np.allclose(sw.wq_sliced, w.w_q @ basis, atol=1e-14)

    def test_single_column(self):
        rng = np.random.default_rng(3)
        m = 5
        w = random_weights(rng, m)
        basis = compute_basis([rng.standard_normal((7, m))])
        sw = slice_weights(w, basis, 1)
        assert sw.wq_sliced.shape == (m, 1)
        assert np.allclose(sw.wq_sliced[:, 0], w.w_q @ basis[:, 0], atol=1e-14)

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(4)
        w = random_weights(rng, 4)
        basis = compute_basis([rng.standard_normal((6, 4))])
        with pytest.raises(ValueError):
            slice_weights(w, basis, 0)
        with pytest.raises(ValueError):
            slice_weights(w, basis, 5)

    def test_reconstruction_identity_matches_compressed_scores(self):
        # Scores from the reduced representation equal scores from the
        # explicitly reconstructed full-width queries/keys.
        rng = np.random.default_rng(5)
        m, s, n = 8, 5, 3
        w = random_weights(rng, m)
        x = rng.standard_normal((s, m))
        basis = compute_basis([x])
        sw = slice_weights(w, basis, n)
        zq = x @ sw.wq_sliced
        zk = x @ sw.wk_sliced
        d = np.eye(m)[:, :n]
        qbar = zq @ d.T @ basis.T
        kbar = zk @ d.T @ basis.T
        assert rel_l2(zq @ zk.T, qbar @ kbar.T) < 1e-12


class TestSlicedAttention:
    def test_full_rank_matches_full_attention(self):
        rng = np.random.default_rng(6)
        m, s = 8, 6
        w = random_weights(rng, m)
        x = rng.standard_normal((s, m))
        basis = compute_basis([x])
        sw = slice_weights(w, basis, m)
        full_o, full_a = attention(x, w)
        sliced_o, sliced_a = attention(x, w, qk=(sw.wq_sliced, sw.wk_sliced))
        assert rel_l2(sliced_o, full_o) < 1e-10
        assert rel_l2(sliced_a, full_a) < 1e-10

    def test_zero_input_uniform_map_zero_output(self):
        rng = np.random.default_rng(7)
        m, s = 6, 4
        w = random_weights(rng, m)
        basis = compute_basis([rng.standard_normal((5, m))])
        for n in (1, 3, 6):
            sw = slice_weights(w, basis, n)
            o, a = attention(np.zeros((s, m)), w, qk=(sw.wq_sliced, sw.wk_sliced))
            assert np.allclose(a, np.full((s, s), 1.0 / s), atol=1e-15)
            assert np.array_equal(o, np.zeros((s, m)))

    def test_matches_reconstruct_then_multiply_oracle(self):
        rng = np.random.default_rng(8)
        s, m, n = 4, 8, 3
        w = random_weights(rng, m)
        x = rng.standard_normal((s, m))
        basis = compute_basis([x])
        sw = slice_weights(w, basis, n)
        got_o, got_a = attention(x, w, qk=(sw.wq_sliced, sw.wk_sliced))
        ref_map, ref_out = ref_sliced_attention_via_reconstruction(
            x, w.w_q, w.w_k, w.w_v, w.w_o, basis, n)
        assert rel_l2(got_a, ref_map) < 1e-10
        assert rel_l2(got_o, ref_out) < 1e-10

    def test_macs_formula(self):
        rng = np.random.default_rng(9)
        s, m, n = 5, 8, 3
        w = random_weights(rng, m)
        x = rng.standard_normal((s, m))
        basis = compute_basis([x])
        sw = slice_weights(w, basis, n)
        # The kernel returns no MACs; the trace row of a pruned cell carries them.
        replay = CellExecutor([BlockWeights(w, w, None)], {(0, "spatial"): sw},
                              grid={(0, "spatial"): ["P"]})
        _, r = replay.run_unit(0, "spatial", x[None], 0)
        assert r.macs == macs_sliced(s, m, n)
        assert r.macs == 2 * s * m * n + 2 * s * m * m + s * s * n + s * s * m


class TestReconstructionError:
    def test_full_rank_is_zero(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((7, 5))
        basis = compute_basis([x])
        assert reconstruction_error(x, basis, 5) == 0.0

    def test_diagonal_closed_form(self):
        x = np.array([[3.0, 0.0], [0.0, 1.0]])
        basis = compute_basis([x])
        assert reconstruction_error(x, basis, 1) == pytest.approx(1.0, rel=1e-10)

    def test_equals_sqrt_of_dropped_eigenvalues(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((12, 6))
        basis = compute_basis([x])
        for n in range(1, 6):
            expected = np.sqrt(max(ref_pca_basis([x])[0][n:].sum(), 0.0))
            assert reconstruction_error(x, basis, n) == pytest.approx(expected, rel=1e-7)

    def test_monotone_in_n(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((9, 7))
        basis = compute_basis([x])
        errors = [reconstruction_error(x, basis, n) for n in range(1, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_energy_conservation(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((10, 6))
        basis = compute_basis([x])
        total = frob(x) ** 2
        for n in range(1, 7):
            err2 = reconstruction_error(x, basis, n) ** 2
            kept = ref_pca_basis([x])[0][:n].sum()
            assert err2 + kept == pytest.approx(total, rel=1e-7)

    def test_l2_optimality_vs_random_projections(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((32, 16))
        basis = compute_basis([x])
        for n in (2, 5, 9, 15):
            pca_err = reconstruction_error(x, basis, n)
            for _ in range(40):
                q, _ = np.linalg.qr(rng.standard_normal((16, n)))
                rand_err = frob(x - x @ q @ q.T)
                assert pca_err <= rand_err + 1e-9


class TestMacComparison:
    def test_sliced_strictly_cheaper_below_full_rank(self):
        for s in (2, 4, 16, 64):
            for m in (2, 8, 64):
                full = macs_full_attention(s, m)
                for n in range(1, m):
                    assert macs_sliced(s, m, n) < full
                assert macs_sliced(s, m, m) == full


class TestSlicedContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        m = 6
        w = random_weights(rng, m)
        basis = compute_basis([rng.standard_normal((8, m))])
        sliced = {
            (0, "spatial"): slice_weights(w, basis, 4),
            (0, "temporal"): slice_weights(w, basis, 6),
            (1, "spatial"): slice_weights(w, basis, 2),
        }
        path = tmp_path / "sliced.bin"
        save_sliced_weights(path, sliced, {"delta": 0.05})
        loaded, header = load_sliced_weights(path, m)
        assert header["delta"] == 0.05
        assert set(loaded) == set(sliced)
        for unit, sw in sliced.items():
            assert loaded[unit].n == sw.n
            assert np.array_equal(loaded[unit].wq_sliced, sw.wq_sliced)
            assert np.array_equal(loaded[unit].wk_sliced, sw.wk_sliced)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONG\n{}\n")
        with pytest.raises(ValueError):
            load_sliced_weights(path, 4)
