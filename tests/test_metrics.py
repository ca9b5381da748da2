import numpy as np
import pytest

from oracles import ref_mse, ref_ssim, report_parse, trace_parse
from unicp.metrics import (
    PSNR_CAP_DB,
    QualityReport,
    RunTrace,
    TraceRow,
    macs_full_attention,
    macs_map_reuse,
    macs_mlp,
    macs_output_reuse,
    macs_sliced,
    psnr,
    quality_report,
    report_export,
    ssim,
    trace_export,
)


def latent(rng, f=2, s=16, m=4):
    return rng.standard_normal((f, s, m))


class TestMacFormulas:
    def test_hand_counted_full(self):
        # s=2, m=4: 3*2*16 + 2*4*4 = 128.
        assert macs_full_attention(2, 4) == 128

    def test_sliced_equals_full_at_n_eq_m(self):
        for s, m in [(2, 4), (8, 16), (64, 64)]:
            assert macs_sliced(s, m, m) == macs_full_attention(s, m)

    def test_orderings_on_shape_grid(self):
        for s in (2, 3, 8, 64):
            for m in (2, 4, 32):
                for n in range(1, m):
                    assert macs_map_reuse(s, m) < macs_sliced(s, m, n) < macs_full_attention(s, m)
        assert macs_output_reuse() == 0

    def test_sliced_rejects_n_above_m(self):
        with pytest.raises(ValueError):
            macs_sliced(2, 4, 5)

    def test_mlp(self):
        assert macs_mlp(3, 4) == 4 * 3 * 16


class TestPsnr:
    def test_identical_inputs_hit_cap(self):
        x = np.ones((2, 4, 4))
        assert psnr(x, x, peak=1.0) == PSNR_CAP_DB == 99.0

    def test_mse_equal_peak_squared_is_zero_db(self):
        a = np.zeros((1, 4, 4))
        b = np.full((1, 4, 4), 2.0)
        assert psnr(a, b, peak=2.0) == pytest.approx(0.0, abs=1e-12)

    def test_hundredth_of_peak_squared_is_twenty_db(self):
        a = np.zeros((1, 4, 4))
        b = np.full((1, 4, 4), 0.1)
        assert psnr(a, b, peak=1.0) == pytest.approx(20.0, abs=1e-9)

    def test_mse_inversion_identity(self):
        rng = np.random.default_rng(0)
        a = latent(rng)
        b = a + 0.3 * rng.standard_normal(a.shape)
        peak = 2.5
        db = psnr(a, b, peak)
        recovered_mse = peak * peak * 10 ** (-db / 10)
        assert recovered_mse == pytest.approx(ref_mse(a, b), rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="psnr shape mismatch"):
            psnr(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)), 1.0)

    def test_nonpositive_peak_rejected(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), 0.0)


class TestSsim:
    def test_identical_inputs_exactly_one(self):
        rng = np.random.default_rng(1)
        x = latent(rng, f=2, s=64, m=3)
        assert ssim(x, x, dynamic_range=1.0) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = latent(rng, f=1, s=64, m=2)
        b = latent(rng, f=1, s=64, m=2)
        assert ssim(a, b, 1.0) == pytest.approx(ssim(b, a, 1.0), abs=1e-12)

    def test_negated_zero_mean_windows_approach_minus_one(self):
        rng = np.random.default_rng(3)
        a = latent(rng, f=1, s=64, m=1)
        a -= a.mean()
        value = ssim(a, -a, dynamic_range=1e-3)
        # Direct formula on the crafted window: luminance ~ 1, structure
        # term (-2*var + c2) / (2*var + c2) ~ -1 for var >> c2.
        grid = a[0].reshape(8, 8)
        mu = grid.mean()
        var = ((grid - mu) ** 2).mean()
        c1 = (0.01 * 1e-3) ** 2
        c2 = (0.03 * 1e-3) ** 2
        mu_b = (-grid).mean()
        cov = ((grid - mu) * (-grid - mu_b)).mean()
        expected = ((2 * mu * mu_b + c1) * (2 * cov + c2) /
                    ((mu ** 2 + mu_b ** 2 + c1) * (2 * var + c2)))
        assert value == pytest.approx(expected, rel=1e-10)
        assert value < -0.99

    def test_constant_shift_matches_luminance_closed_form(self):
        rng = np.random.default_rng(4)
        a = latent(rng, f=1, s=64, m=1)
        shift = 0.7
        b = a + shift
        dynamic_range = 2.0
        value = ssim(a, b, dynamic_range)
        grid_a = a[0].reshape(8, 8)
        grid_b = b[0].reshape(8, 8)
        mu_a, mu_b = grid_a.mean(), grid_b.mean()
        c1 = (0.01 * dynamic_range) ** 2
        c2 = (0.03 * dynamic_range) ** 2
        var_a = ((grid_a - mu_a) ** 2).mean()
        var_b = ((grid_b - mu_b) ** 2).mean()
        cov = ((grid_a - mu_a) * (grid_b - mu_b)).mean()
        expected = ((2 * mu_a * mu_b + c1) * (2 * cov + c2) /
                    ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
        assert value == pytest.approx(expected, rel=1e-12)
        luminance = (2 * mu_a * mu_b + c1) / (mu_a ** 2 + mu_b ** 2 + c1)
        assert value == pytest.approx(luminance, rel=1e-6)

    def test_non_square_token_count_rejected(self):
        rng = np.random.default_rng(5)
        x = latent(rng, f=1, s=12, m=2)
        with pytest.raises(ValueError, match="rel_l2"):
            ssim(x, x, 1.0)

    def test_sliding_windows_average(self):
        # 16x16 grid with an 8x8 window slides to 81 positions per channel.
        rng = np.random.default_rng(6)
        a = latent(rng, f=1, s=256, m=1)
        assert -1.0 <= ssim(a, a + 0.1, 1.0) <= 1.0

    @pytest.mark.parametrize("f, s, m", [(2, 256, 3), (3, 100, 2), (2, 64, 4), (1, 16, 3)],
                             ids=["side16-win8", "side10-win8", "side8-win8", "side4-win4"])
    def test_matches_window_loop_oracle(self, f, s, m):
        rng = np.random.default_rng(8)
        a = latent(rng, f=f, s=s, m=m)
        b = a + 0.3 * latent(rng, f=f, s=s, m=m)
        assert ssim(a, b, 2.5) == pytest.approx(ref_ssim(a, b, 2.5), rel=1e-12, abs=1e-15)


class TestQualityReport:
    def test_self_comparison(self):
        rng = np.random.default_rng(7)
        x = latent(rng, f=2, s=64, m=3)
        rep = quality_report(x, x)
        assert rep.psnr_db == 99.0
        assert rep.ssim == 1.0
        assert rep.rel_l2 == 0.0
        assert rep.peak == pytest.approx(float(x.max() - x.min()))

    @pytest.mark.parametrize("reference, candidate, quantity", [
        (np.array([[[1.7e308]], [[-1.7e308]]]), np.zeros((2, 1, 1)), "peak"),
        (np.zeros((1, 4, 2)), np.full((1, 4, 2), 1e200), "psnr_db"),
        (np.full((1, 4, 2), 1e200), np.full((1, 4, 2), 1e200), "ssim"),
    ], ids=["peak", "psnr", "ssim"])
    def test_overflow_raises_naming_the_quantity(self, reference, candidate, quantity):
        # No numpy warning either: pytest would turn it into an error.
        with pytest.raises(OverflowError, match=f"^{quantity} overflows float64 for these states$"):
            quality_report(reference, candidate)

    def test_report_document_round_trip(self):
        rep = QualityReport(psnr_db=23.5, ssim=0.875, rel_l2=0.0625,
                            peak=4.25)
        text = report_export(rep)
        assert report_parse(text) == rep
        assert {"peak=4.25", "ssim_range=4.25", "ssim_window=8"} <= set(text.splitlines())


def sample_trace():
    trace = RunTrace()
    trace.add(TraceRow(0, 0, "spatial", "full", None, None, None, 160))
    trace.add(TraceRow(0, 0, "temporal", "full", None, 0.1234567890123456789, 0.5, 200))
    trace.add(TraceRow(0, 0, "mlp", "full", None, None, None, 64))
    trace.add(TraceRow(1, 0, "spatial", "reuse_output", 3, None, None, 0))
    trace.add(TraceRow(1, 0, "temporal", "pruned", None, 1e-17, 2.5e-300, 96))
    return trace


class TestTrace:
    def test_empty_trace_exports_header_only(self):
        assert trace_export(RunTrace()) == "step,block,kind,decision,k,drift_output,drift_map,macs\n"

    def test_round_trip_reproduces_rows_and_totals(self):
        trace = sample_trace()
        text = trace_export(trace)
        parsed = trace_parse(text)
        assert parsed.rows == trace.rows
        assert parsed.macs_total == trace.macs_total
        assert trace_export(parsed) == text

    def test_line_count_matches_rows(self):
        trace = sample_trace()
        lines = trace_export(trace).strip().split("\n")
        assert len(lines) == len(trace.rows) + 1

    def test_totals_equal_row_sum(self):
        trace = sample_trace()
        assert trace.macs_total == sum(r.macs for r in trace.rows)

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            trace_parse("nope\n1,2,3\n")
