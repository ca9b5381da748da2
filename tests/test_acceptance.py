"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Desk config throughout: blocks=6, dim=64, tokens=64, frames=8, steps=30,
seed=42.
"""

import contextlib
import math
import sys
import time
from collections import defaultdict

import numpy as np
import pytest

from oracles import (
    armings,
    attention_rows,
    brute_force_cache_decision_at,
    reconstruction_error,
    ref_pca_basis,
    trace_parse,
    window_spans_step,
)
from unicp.cli import main as cli_main
from unicp.edcw import SchedulerConfig
from unicp.harness import run_scheduler_on_profile, u_profile
from unicp.linalg import frob, rel_l2
from unicp.metrics import (
    RunTrace,
    TraceRow,
    psnr,
    ssim,
    trace_export,
)
from unicp.model import attention
from unicp.pcas import compute_basis, slice_weights
from unicp.runner import denoise_run

DESK_FLAGS = ["--blocks", "6", "--dim", "64", "--tokens", "64", "--frames", "8",
              "--steps", "30", "--seed", "42"]
TINY_FLAGS = ["--blocks", "2", "--dim", "16", "--tokens", "16", "--frames", "2",
              "--steps", "8", "--seed", "7"]
PRESET_ORDER = ["E1", "E2", "E3", "E4", "E5"]


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_01_baseline_equivalence(tmp_path):
    with criterion(1, "baseline equivalence (delta=0, pruning disabled)"):
        base_dir = tmp_path / "base"
        run_dir = tmp_path / "run"
        t0 = time.perf_counter()
        assert cli_main(["baseline", "--out", str(base_dir), *DESK_FLAGS]) == 0
        baseline_seconds = time.perf_counter() - t0
        assert cli_main(["run", "--out", str(run_dir), *DESK_FLAGS,
                         "--delta", "0", "--mode", "online"]) == 0
        base_bytes = (base_dir / "baseline_state.bin").read_bytes()
        run_bytes = (run_dir / "run_state.bin").read_bytes()
        assert base_bytes == run_bytes
        assert baseline_seconds < 60.0, f"baseline took {baseline_seconds:.1f}s"


def test_02_pcas_l2_optimality():
    with criterion(2, "PCAS L2-optimality vs random projections"):
        rng = np.random.default_rng(202)
        s, m = 32, 16
        for trial in range(20):
            x = rng.standard_normal((s, m))
            basis = compute_basis([x])
            for n in range(2, m):
                err = reconstruction_error(x, basis, n)
                closed_form = math.sqrt(max(float(ref_pca_basis([x])[0][n:].sum()), 0.0))
                assert err == pytest.approx(closed_form, rel=1e-7)
                for _ in range(100):
                    q, _ = np.linalg.qr(rng.standard_normal((m, n)))
                    rand_err = frob(x - x @ q @ q.T)
                    assert err <= rand_err + 1e-9


def test_03_slicing_exact_at_full_rank():
    with criterion(3, "slicing exactness at n=m"):
        rng = np.random.default_rng(303)
        from unicp.model import AttentionWeights
        for trial in range(50):
            s = int(rng.integers(2, 12))
            m = int(rng.integers(4, 20))
            x = rng.standard_normal((s, m))
            w = AttentionWeights(*(rng.standard_normal((m, m)) / np.sqrt(m)
                                   for _ in range(4)))
            basis = compute_basis([x])
            sw = slice_weights(w, basis, m)
            full_o, _ = attention(x, w)
            sliced_o, _ = attention(x, w, qk=(sw.wq_sliced, sw.wk_sliced))
            assert rel_l2(sliced_o, full_o) < 1e-10


def test_04_algorithm_conformance(desk_calibrations, desk_decide_events):
    with criterion(4, "scheduler conformance vs brute-force oracle (E1-E5)"):
        total = 0
        for preset in PRESET_ORDER:
            sched, _, _ = desk_calibrations[preset]
            events = desk_decide_events[preset]
            assert events, f"no decide events captured for {preset}"
            for i, (step, history, current, decision) in enumerate(events):
                history = [(s, r.output, r.map) for s, r in history]
                kind, window = brute_force_cache_decision_at(
                    history, step, current.output, current.map,
                    sched.delta, sched.search_window)
                assert decision.kind.value == kind, (preset, step, i)
                assert decision.window == window, (preset, step, i)
                total += 1
        assert total > 500


def test_05_spike_robustness():
    with criterion(5, "spike robustness vs fixed windows"):
        profile = u_profile(30, end_frac=0.2, end_drift=0.2, mid_drift=0.01,
                            spike_step=15, spike_magnitude=0.3)
        sched = SchedulerConfig(delta=0.05, search_window=4)
        res = run_scheduler_on_profile(profile, sched, shape=(16, 8), seed=0,
                                       fixed_windows=(2, 3, 4))
        for arming_step, window, _ in armings(res):
            assert not window_spans_step(arming_step, window, 15), \
                f"window armed at {arming_step} (k={window}) spans the spike"
        for w, fixed_err in res.fixed_window_errors.items():
            assert res.accumulated_error < fixed_err, \
                f"EDCW {res.accumulated_error} not below fixed window {w} ({fixed_err})"


def test_06_mac_reduction(desk_baseline, desk_calibrations):
    with criterion(6, "MAC reduction at E5 (<= 0.75x baseline)"):
        base_state, base_trace = desk_baseline
        # Schedule precondition: at least half the steps sit in the
        # low-drift region below the E5 threshold.
        per_step = defaultdict(list)
        for row in attention_rows(base_trace):
            if row.drift_output is not None:
                per_step[row.step].append(row.drift_output)
        quiet_steps = sum(1 for drifts in per_step.values()
                          if float(np.mean(drifts)) < 0.175)
        assert quiet_steps >= 15, f"only {quiet_steps} quiet steps"

        _, _, online = desk_calibrations["E5"]
        ratio = online.trace.macs_total / base_trace.macs_total
        assert ratio <= 0.75, f"MAC ratio {ratio:.4f} exceeds 0.75"


def test_07_calibration_soundness(desk_cfg, desk_model, desk_calibrations):
    with criterion(7, "calibration soundness at every preset"):
        from unicp.dws import default_calib_steps
        from unicp.model import attention_weights_for
        from unicp.runner import CellExecutor
        cap = CellExecutor(desk_model, capture_steps=default_calib_steps(desk_cfg.num_steps))
        denoise_run(desk_cfg, cap)
        for preset in PRESET_ORDER:
            sched, calib, _ = desk_calibrations[preset]
            for (block, kind), sw in calib.sliced.items():
                fraction = 1 - sw.n / desk_cfg.model_dim
                assert 0.0 <= fraction <= 0.4 + 1e-12
                if sw.n == desk_cfg.model_dim:
                    continue
                w = attention_weights_for(desk_model[block], kind)
                for step, x_stack in cap.captured[(block, kind)].items():
                    o_full, _ = attention(x_stack, w)
                    o_sliced, _ = attention(x_stack, w, qk=(sw.wq_sliced, sw.wk_sliced))
                    err = rel_l2(o_sliced, o_full)
                    assert err <= sched.delta, (preset, block, kind, step, err)


def test_08_threshold_monotonicity(desk_baseline, desk_calibrations):
    with criterion(8, "threshold sweep monotonicity E1->E5"):
        base_state, base_trace = desk_baseline
        macs = []
        errs = []
        for preset in PRESET_ORDER:
            _, _, online = desk_calibrations[preset]
            macs.append(online.trace.macs_total)
            errs.append(rel_l2(online.state, base_state))
        assert all(a >= b for a, b in zip(macs, macs[1:])), macs
        assert all(a <= b for a, b in zip(errs, errs[1:])), errs
        assert all(m <= base_trace.macs_total for m in macs)


def test_09_metric_self_tests():
    with criterion(9, "metric self-tests"):
        rng = np.random.default_rng(909)
        x = rng.standard_normal((2, 64, 4))
        assert ssim(x, x, dynamic_range=1.0) == 1.0
        y = x + 0.25 * rng.standard_normal(x.shape)
        peak = 3.0
        db = psnr(x, y, peak)
        mse = float(np.mean((x - y) ** 2))
        assert peak * peak * 10 ** (-db / 10) == pytest.approx(mse, rel=1e-9)
        trace = RunTrace()
        trace.add(TraceRow(0, 0, "spatial", "full", None, 0.125, None, 1234))
        trace.add(TraceRow(1, 2, "temporal", "reuse_map", 3, 1e-30, 0.5, 77))
        parsed = trace_parse(trace_export(trace))
        assert parsed.macs_total == trace.macs_total
        assert parsed.rows == trace.rows


def test_10_determinism(tmp_path):
    with criterion(10, "artifact determinism on rerun"):
        pairs = []
        for tag in ("a", "b"):
            root = tmp_path / tag
            base = root / "base"
            cal = root / "cal"
            har = root / "har"
            assert cli_main(["baseline", "--out", str(base), *TINY_FLAGS]) == 0
            # Calibrate reads the inputs the baseline captured.
            cal.mkdir()
            (cal / "baseline_captures.bin").write_bytes((base / "baseline_captures.bin").read_bytes())
            assert cli_main(["calibrate", "--out", str(cal), *TINY_FLAGS,
                             "--preset", "E5"]) == 0
            assert cli_main(["run", "--out", str(cal), *TINY_FLAGS,
                             "--preset", "E5", "--mode", "online"]) == 0
            assert cli_main(["run", "--out", str(cal), *TINY_FLAGS,
                             "--preset", "E5", "--mode", "replay"]) == 0
            assert cli_main(["harness", "--out", str(har), "--steps", "30"]) == 0
            assert cli_main(["compare", str(base / "baseline_state.bin"),
                             str(cal / "run_state.bin"), "--out", str(root)]) == 0
            pairs.append(root)
        a, b = pairs
        for rel in ("base/baseline_state.bin", "base/baseline_trace.csv",
                    "cal/cache_map.txt", "cal/sliced_weights.bin",
                    "cal/run_state.bin", "cal/run_trace.csv", "cal/run_cache_map.txt",
                    "har/harness_report.txt", "quality_report.txt"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
