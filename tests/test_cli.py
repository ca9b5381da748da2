import json
import os
import re
import shutil
import subprocess
import sys
import time
import types
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import attention_rows, calibration_parse, report_parse, trace_parse
from unicp.artifacts import (
    cache_map_export,
    cache_map_parse,
    load_sliced_weights,
    load_state,
    save_sliced_weights,
    save_state,
)
from unicp.cli import build_parser, build_spec, main
from unicp.dws import CacheMap
from unicp.edcw import Decision, DecisionKind, SchedulerConfig
from unicp.linalg import rel_l2
from unicp.metrics import macs_full_attention
from unicp.model import ModelConfig
from unicp.runner import CellExecutor

TINY_FLAGS = ["--blocks", "2", "--dim", "16", "--tokens", "16", "--frames", "2",
              "--steps", "8", "--seed", "7"]


def run_cli(*argv):
    return main(list(argv))


def calibrate(*argv):
    """`calibrate` with `argv`, after a `baseline` with the same flags wrote
    into its --out the captures calibrate reads."""
    assert run_cli("baseline", *argv) == 0
    return run_cli("calibrate", *argv)


def no_cell(*args, **kwargs):
    raise AssertionError("a cell ran")


def read(path):
    return path.read_bytes()


def container(magic, header, values=0):
    """A container of `values` zeros; a dict header gets their crc32, as the
    container writer adds it."""
    payload = np.zeros(values).astype("<f8").tobytes()
    if isinstance(header, dict):
        header = dict(header, crc32=zlib.crc32(payload))
    return magic + json.dumps(header).encode() + b"\n" + payload


def text_doc(lines):
    return ("\n".join(lines) + "\n").encode()


SLICED_UNIT = {"block": 0, "kind": "spatial", "n": 4, "calib_steps": [0]}
STATE_HEADER = {"blocks": 2, "dim": 16, "tokens": 16, "frames": 2, "steps": 8, "seed": 7}
# The run parameters of a sliced-weight header that TINY_FLAGS accepts.
SLICED_RUN_HEADER = {"model": STATE_HEADER, "delta": 0.05, "window": 4, "ratio_lo": 0.1,
                     "ratio_hi": 0.4}
# The value count of the calibration captures a baseline at TINY_FLAGS
# writes, the input stacks of 2 blocks x 2 kinds at 3 steps, each holding a
# latent's 2 frames x 16 tokens x 16 channels, and their header. The
# calibrate tests named for latents, an earlier name of this file, cover it.
CAPTURE_VALUES = 2 * 2 * 3 * 2 * 16 * 16
CAPTURES_HEADER = dict(STATE_HEADER, calib_steps=[0, 2, 5])
# A cache map with an empty grid whose run key TINY_FLAGS (default delta) accepts.
CACHE_MAP_LINES = ["unicp-cache-map v2", json.dumps(SLICED_RUN_HEADER, sort_keys=True), "grid",
                   "final_n", "end"]


def write_replay_inputs(out, grid, sliced):
    """Write `grid` as the cache map in `out`, and `sliced` as its sliced
    weights (deleting them when None), with the map's final_n taken from
    `sliced`, so the two agree and keep the run key the online run wrote."""
    key = cache_map_parse((out / "cache_map.txt").read_text()).key
    cmap = CacheMap(key=key, grid=grid,
                    final_n={unit: sw.n for unit, sw in (sliced or {}).items()})
    (out / "cache_map.txt").write_text(cache_map_export(cmap))
    if sliced is None:
        (out / "sliced_weights.bin").unlink(missing_ok=True)
    else:
        save_sliced_weights(out / "sliced_weights.bin", sliced, key)


class TestBaseline:
    def test_smoke_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "base"
        assert run_cli("baseline", "--out", str(out), *TINY_FLAGS) == 0
        assert (out / "baseline_state.bin").exists()
        assert (out / "baseline_trace.csv").exists()
        assert (out / "baseline_spec.json").exists()
        assert (out / "baseline_captures.bin").exists()
        assert "baseline complete" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_cli("baseline", "--out", str(a), *TINY_FLAGS)
        run_cli("baseline", "--out", str(b), *TINY_FLAGS)
        for name in ("baseline_state.bin", "baseline_trace.csv", "baseline_captures.bin",
                     "baseline_spec.json"):
            assert read(a / name) == read(b / name)

    def test_trace_macs_match_closed_form(self, tmp_path):
        from unicp.metrics import macs_full_attention, macs_mlp
        out = tmp_path / "base"
        run_cli("baseline", "--out", str(out), *TINY_FLAGS)
        trace = trace_parse((out / "baseline_trace.csv").read_text())
        f, s, m, blocks, steps = 2, 16, 16, 2, 8
        per_block = (f * macs_full_attention(s, m) + s * macs_full_attention(f, m)
                     + macs_mlp(f * s, m))
        assert trace.macs_total == steps * blocks * per_block

    @pytest.mark.parametrize("flags, expected", [
        (["--delta", "nan"], "delta must be >= 0, got nan"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--dim", "2"], "model_dim must be >= 4"),
        (["--ratio-lo", "0.5", "--ratio-hi", "0.2"],
         "ratio bounds must satisfy 0 <= lo <= hi < 1, got [0.5, 0.2]"),
    ], ids=["nan-delta", "negative-seed", "tiny-dim", "inverted-ratio-bounds"])
    def test_invalid_spec_flag_exits_2(self, tmp_path, capsys, flags, expected):
        out = tmp_path / "x"
        assert run_cli("baseline", "--out", str(out), *TINY_FLAGS, *flags) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_full_rows_after_step_0_carry_drift(self, tmp_path):
        # Criterion 6 reads the baseline's drifts; step 0 has no previous F.
        out = tmp_path / "base"
        run_cli("baseline", "--out", str(out), *TINY_FLAGS)
        rows = attention_rows(trace_parse((out / "baseline_trace.csv").read_text()))
        assert rows and all(row.decision == "full" for row in rows)
        for row in rows:
            filled = (row.drift_output is not None, row.drift_map is not None)
            assert filled == ((True, True) if row.step >= 1 else (False, False)), row

    def test_config_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("baseline", "--config", "x.json", "--out", str(tmp_path / "x"))
        assert exc.value.code == 2


class TestConfigFile:
    def test_benchmark_flags_build_the_desk_e5_spec(self):
        # The desk-e5 flags of perfbench/run.py, parsed as its setup_s does.
        argv = ["baseline", "--blocks", "6", "--dim", "64", "--tokens", "64", "--frames", "8",
                "--steps", "30", "--window", "4", "--ratio-lo", "0.1", "--ratio-hi", "0.4",
                "--preset", "E5", "--seed", "42", "--out", "unused"]
        spec = build_spec(build_parser().parse_args(argv))
        assert spec.model == ModelConfig(num_blocks=6, model_dim=64, tokens_per_frame=64,
                                         num_frames=8, num_steps=30, seed=42)
        assert spec.scheduler == SchedulerConfig(delta=0.175, search_window=4)
        assert (spec.ratio_lo, spec.ratio_hi, spec.mode, spec.preset) == (0.1, 0.4, "online", "E5")

    def test_each_model_flag_sets_its_own_field_and_key(self, tmp_path):
        # Six distinct values, so swapping any two fields or keys shows.
        argv = ["baseline", "--blocks", "3", "--dim", "12", "--tokens", "9", "--frames", "5",
                "--steps", "7", "--seed", "11", "--out", "unused"]
        cfg = build_spec(build_parser().parse_args(argv)).model
        assert cfg == ModelConfig(num_blocks=3, model_dim=12, tokens_per_frame=9,
                                  num_frames=5, num_steps=7, seed=11)
        assert cfg.header() == {"blocks": 3, "dim": 12, "tokens": 9, "frames": 5,
                                "steps": 7, "seed": 11}
        state = np.arange(5 * 9 * 12, dtype=np.float64).reshape(5, 9, 12)
        save_state(tmp_path / "state.bin", state, cfg)
        loaded, loaded_cfg = load_state(tmp_path / "state.bin")
        assert loaded_cfg == cfg
        assert np.array_equal(loaded, state)

    def test_preset_sets_delta_and_explicit_delta_wins(self, tmp_path):
        out = tmp_path / "p"
        run_cli("baseline", "--out", str(out), *TINY_FLAGS, "--preset", "E3")
        spec = json.loads((out / "baseline_spec.json").read_text())
        assert spec["delta"] == 0.075
        out2 = tmp_path / "q"
        run_cli("baseline", "--out", str(out2), *TINY_FLAGS, "--preset", "E3",
                "--delta", "0.75")
        spec2 = json.loads((out2 / "baseline_spec.json").read_text())
        assert spec2["delta"] == 0.75


class TestCalibrate:
    def test_writes_weights_not_map_and_echoes_table(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "c"
        flags = ["--out", str(out), *TINY_FLAGS, "--preset", "E5"]
        assert run_cli("baseline", *flags) == 0
        capsys.readouterr()
        # Calibrate reads the baseline's captures and runs no cell.
        monkeypatch.setattr(CellExecutor, "run_unit", no_cell)
        assert run_cli("calibrate", *flags) == 0
        assert not (out / "cache_map.txt").exists()
        assert (out / "sliced_weights.bin").exists()
        stdout = capsys.readouterr().out
        assert stdout.count("final_n") == 4  # 2 blocks x 2 kinds

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            calibrate("--out", str(out), *TINY_FLAGS, "--preset", "E5")
        for name in ("sliced_weights.bin", "calibrate_spec.json"):
            assert read(a / name) == read(b / name)
        assert not (a / "cache_map.txt").exists() and not (b / "cache_map.txt").exists()

    def test_without_captures_exits_3_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run_cli("calibrate", "--out", str(out), *TINY_FLAGS) == 3
        captured = capsys.readouterr()
        assert captured.err == (f"error: calibrate needs baseline_captures.bin in {out}; "
                                f"run `baseline --out {out}` first\n")
        assert captured.out == "" and list(out.iterdir()) == []

    def test_without_sched_getaffinity_writes_the_one_cpu_bytes(self, tmp_path, monkeypatch):
        import unicp.dws
        one, fallback = tmp_path / "one", tmp_path / "fallback"
        with monkeypatch.context() as mp:
            mp.setattr(unicp.dws.os, "sched_getaffinity", lambda pid: {0})
            assert calibrate("--out", str(one), *TINY_FLAGS, "--preset", "E5") == 0
        # As on macOS and Windows: the pool is sized by os.cpu_count instead.
        monkeypatch.delattr(unicp.dws.os, "sched_getaffinity")
        counted = []

        def cpu_count():
            counted.append(2)
            return 2

        monkeypatch.setattr(unicp.dws.os, "cpu_count", cpu_count)
        assert calibrate("--out", str(fallback), *TINY_FLAGS, "--preset", "E5") == 0
        assert counted
        for name in ("sliced_weights.bin", "calibration.csv", "calibrate_spec.json"):
            assert read(one / name) == read(fallback / name)

    @pytest.mark.parametrize("field, value", [("seed", 8), ("steps", 10), ("frames", 4)])
    def test_captures_of_another_model_exit_2(self, tmp_path, capsys, monkeypatch, field,
                                              value):
        assert run_cli("baseline", "--out", str(tmp_path), *TINY_FLAGS) == 0
        written = sorted(tmp_path.iterdir())
        capsys.readouterr()
        monkeypatch.setattr(CellExecutor, "run_unit", no_cell)
        assert run_cli("calibrate", "--out", str(tmp_path), *TINY_FLAGS,
                       f"--{field}", str(value)) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {tmp_path / 'baseline_captures.bin'} was made with "
                                f"{field}={STATE_HEADER[field]}, but this run has "
                                f"{field}={value}\n")
        assert captured.out == "" and sorted(tmp_path.iterdir()) == written

    @pytest.mark.parametrize("content, expected", [
        (container(b"UNICPLT1\n", CAPTURES_HEADER, values=CAPTURE_VALUES), "bad magic"),
        (b"UNICPCX1\n{blocks\n", "header is not JSON"),
        (container(b"UNICPCX1\n", [2, 16], values=CAPTURE_VALUES), "header is not a JSON object"),
        (container(b"UNICPCX1\n", {k: v for k, v in CAPTURES_HEADER.items() if k != "seed"},
                   values=CAPTURE_VALUES), "header lacks seed"),
        (container(b"UNICPCX1\n", dict(CAPTURES_HEADER, calib_steps=0), values=CAPTURE_VALUES),
         "calib_steps is 0, not a list"),
        (container(b"UNICPCX1\n", CAPTURES_HEADER, values=CAPTURE_VALUES - 1),
         f"payload holds {CAPTURE_VALUES - 1} values, expected {CAPTURE_VALUES}"),
        (container(b"UNICPCX1\n", CAPTURES_HEADER, values=CAPTURE_VALUES)[:-1],
         "payload is not whole float64 values"),
        (container(b"UNICPCX1\n", CAPTURES_HEADER)
         + np.full(CAPTURE_VALUES, np.nan).astype("<f8").tobytes(),
         "payload holds non-finite values"),
    ], ids=["bad-magic", "header-not-json", "header-not-object", "header-lacks-key",
            "calib-steps-not-list", "short-payload", "ragged-payload", "nan-payload"])
    def test_malformed_latents_exit_2(self, tmp_path, capsys, content, expected):
        path = tmp_path / "baseline_captures.bin"
        path.write_bytes(content)
        assert run_cli("calibrate", "--out", str(tmp_path), *TINY_FLAGS) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ") and expected in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "sliced_weights.bin").exists()

    def test_writes_calibration_records(self, tmp_path, tiny_calibration):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert calibrate("--out", str(out), *TINY_FLAGS, "--preset", "E3") == 0
        text = (a / "calibration.csv").read_text()
        assert calibration_parse(text) == tiny_calibration[1].records
        assert text.splitlines()[0] == "block,kind,step,candidate_n,measured_error,accepted"
        assert read(a / "calibration.csv") == read(b / "calibration.csv")

    @pytest.mark.parametrize("preset", ["E1", "E3", "E5"])
    def test_conservative_rows_stop_at_the_first_rejected_width(self, tmp_path, preset):
        assert calibrate("--out", str(tmp_path), *TINY_FLAGS, "--preset", preset) == 0
        records = calibration_parse((tmp_path / "calibration.csv").read_text())
        for unit in {(r.block, r.kind) for r in records}:
            rows = [r for r in records if (r.block, r.kind) == unit]
            rejected = [r.candidate_n for r in rows if not r.accepted]
            assert len(rejected) <= 1, unit
            if rejected:
                assert min(r.candidate_n for r in rows) == rejected[0], unit

    def test_calibration_csv_that_is_a_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "calibration.csv"
        path.mkdir()
        monkeypatch.setattr(CellExecutor, "run_unit", no_cell)
        assert run_cli("calibrate", "--out", str(tmp_path), *TINY_FLAGS) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path} is a directory, not a file\n"
        assert captured.out == "" and not (tmp_path / "sliced_weights.bin").exists()


def full_distance_decide(history, current, step, cfg):
    """`edcw_decide` with every distance computed in full by rel_l2."""
    by_distance = {step - s: result for s, result in history}
    windows = [k for k in range(cfg.search_window, 0, -1) if k in by_distance]
    for kind, tier in ((DecisionKind.REUSE_OUTPUT, "output"), (DecisionKind.REUSE_MAP, "map")):
        for k in windows:
            if rel_l2(getattr(current, tier), getattr(by_distance[k], tier)) <= cfg.delta:
                return Decision(kind=kind, window=k)
    return Decision(kind=DecisionKind.PRUNED)


class TestRun:
    def test_online_run_computes_no_rel_l2(self, tmp_path, monkeypatch):
        # The decide stops each distance at delta and decides as rel_l2
        # would: its map is the one a decide of full distances writes.
        import unicp.dws
        out = tmp_path / "o"
        spec = [*TINY_FLAGS, "--preset", "E3", "--out", str(out)]
        assert calibrate(*spec) == 0
        with monkeypatch.context() as mp:
            mp.setattr(unicp.dws, "edcw_decide", full_distance_decide)
            assert run_cli("run", "--mode", "online", *spec) == 0
        expected = read(out / "cache_map.txt")
        letters = {c for row in cache_map_parse(expected.decode()).grid.values() for c in row}
        assert letters == set("FOMP")

        def no_rel_l2(a, b):
            raise AssertionError("an online run computed rel_l2")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "unicp" and getattr(module, "rel_l2", None) is rel_l2:
                monkeypatch.setattr(module, "rel_l2", no_rel_l2)
        (out / "cache_map.txt").unlink()
        assert run_cli("run", "--mode", "online", *spec) == 0
        assert read(out / "cache_map.txt") == expected

    def test_zero_delta_without_artifacts_matches_baseline_bytes(self, tmp_path):
        base = tmp_path / "base"
        run_out = tmp_path / "run"
        run_cli("baseline", "--out", str(base), *TINY_FLAGS)
        assert run_cli("run", "--out", str(run_out), *TINY_FLAGS, "--delta", "0",
                       "--mode", "online") == 0
        base_state = read(base / "baseline_state.bin")
        run_state = read(run_out / "run_state.bin")
        assert base_state == run_state

    def test_replay_without_artifacts_exits_3(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert run_cli("run", "--out", str(out), *TINY_FLAGS, "--mode", "replay") == 3
        assert "run --mode online" in capsys.readouterr().err
        # Calibrate writes the sliced weights only; the map comes from online.
        assert calibrate("--out", str(out), *TINY_FLAGS) == 0
        capsys.readouterr()
        assert run_cli("run", "--out", str(out), *TINY_FLAGS, "--mode", "replay") == 3
        err = capsys.readouterr().err
        assert "cache_map.txt" in err and "run --mode online" in err

    def test_online_writes_the_cache_map(self, tmp_path):
        out = tmp_path / "o"
        calibrate("--out", str(out), *TINY_FLAGS, "--preset", "E5")
        maps = []
        for _ in range(2):
            assert run_cli("run", "--out", str(out), *TINY_FLAGS, "--preset", "E5",
                           "--mode", "online") == 0
            maps.append(read(out / "cache_map.txt"))
            assert maps[-1] == read(out / "run_cache_map.txt")
            (out / "cache_map.txt").write_text("stale\n")
        assert maps[0] == maps[1]

    def test_dispatched_traces_carry_no_drift(self, tmp_path):
        out = tmp_path / "o"
        calibrate("--out", str(out), *TINY_FLAGS, "--preset", "E5")
        for mode in ("online", "replay"):
            assert run_cli("run", "--out", str(out), *TINY_FLAGS, "--preset", "E5",
                           "--mode", mode) == 0
            trace = trace_parse((out / "run_trace.csv").read_text())
            assert any(row.decision == "full" and row.step >= 1
                       for row in attention_rows(trace)), mode
            for row in trace.rows:
                assert (row.drift_output, row.drift_map) == (None, None), (mode, row)

    def test_weights_with_calib_steps_in_their_units_still_run(self, tmp_path):
        # Sliced weights written before the unit entries dropped calib_steps.
        from unicp.artifacts import load_sliced_weights
        new, old = tmp_path / "new", tmp_path / "old"
        assert calibrate("--out", str(new), *TINY_FLAGS, "--preset", "E5") == 0
        magic, header, payload = read(new / "sliced_weights.bin").split(b"\n", 2)
        header = json.loads(header)
        assert all("calib_steps" not in unit for unit in header["units"])
        for unit in header["units"]:
            unit["calib_steps"] = [0, 2, 5]
        old.mkdir()
        (old / "sliced_weights.bin").write_bytes(
            magic + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        loaded = [load_sliced_weights(d / "sliced_weights.bin", 16)[0] for d in (new, old)]
        assert loaded[0].keys() == loaded[1].keys()
        for unit, sw in loaded[0].items():
            assert loaded[1][unit].n == sw.n
            assert np.array_equal(loaded[1][unit].wq_sliced, sw.wq_sliced)
            assert np.array_equal(loaded[1][unit].wk_sliced, sw.wk_sliced)
        for d in (new, old):
            assert run_cli("run", "--out", str(d), *TINY_FLAGS, "--preset", "E5") == 0
        for name in ("run_state.bin", "run_trace.csv", "cache_map.txt"):
            assert read(old / name) == read(new / name)

    def test_artifacts_with_aggregation_in_their_key_still_run(self, tmp_path):
        # Sliced weights and maps written while the run key held "aggregation".
        new, old = tmp_path / "new", tmp_path / "old"
        spec = [*TINY_FLAGS, "--preset", "E5"]
        assert calibrate("--out", str(new), *spec) == 0
        assert run_cli("run", "--mode", "online", "--out", str(new), *spec) == 0
        old.mkdir()
        magic, header, payload = read(new / "sliced_weights.bin").split(b"\n", 2)
        header = dict(json.loads(header), aggregation="conservative")
        (old / "sliced_weights.bin").write_bytes(
            magic + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        lines = (new / "cache_map.txt").read_text().splitlines(keepends=True)
        key = dict(json.loads(lines[1]), aggregation="conservative")
        lines[1] = json.dumps(key, sort_keys=True) + "\n"
        (old / "cache_map.txt").write_text("".join(lines))
        for d in (new, old):
            assert run_cli("run", "--mode", "replay", "--out", str(d), *spec) == 0
        for name in ("run_state.bin", "run_trace.csv", "run_cache_map.txt"):
            assert read(old / name) == read(new / name)
        assert b"aggregation" not in read(old / "run_cache_map.txt")

    def test_weights_header_and_map_record_one_run_key(self, tmp_path):
        from unicp.artifacts import read_container
        out = tmp_path / "o"
        spec = ["--out", str(out), *TINY_FLAGS, "--preset", "E5"]
        assert calibrate(*spec) == 0
        assert run_cli("run", "--mode", "online", *spec) == 0
        header, _ = read_container(out / "sliced_weights.bin", b"UNICPSW1\n")
        del header["units"], header["crc32"]
        key_line = (out / "cache_map.txt").read_text().splitlines()[1]
        assert key_line == json.dumps(header, sort_keys=True)

    def test_map_from_before_calibrate_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        spec = ["--out", str(out), *TINY_FLAGS, "--preset", "E5"]
        assert run_cli("run", "--mode", "online", *spec) == 0
        assert calibrate(*spec) == 0
        capsys.readouterr()
        assert run_cli("run", "--mode", "replay", *spec) == 2
        err = capsys.readouterr().err
        assert ("cache_map.txt gives block 0 spatial final_n=None, but sliced_weights.bin "
                "holds n=16: the map was made with other sliced weights; "
                f"run `run --mode online --out {out}` again") in err

    def test_map_with_final_n_and_no_sliced_weights_exits_2(self, tmp_path, capsys):
        # At delta 0 every unit keeps n = m, so the map has final_n rows and no P cell.
        out = tmp_path / "o"
        spec = ["--out", str(out), *TINY_FLAGS, "--delta", "0"]
        assert calibrate(*spec) == 0
        assert run_cli("run", "--mode", "online", *spec) == 0
        (out / "sliced_weights.bin").unlink()
        capsys.readouterr()
        assert run_cli("run", "--mode", "replay", *spec) == 2
        assert ("cache_map.txt gives block 0 spatial final_n=16, but sliced_weights.bin "
                "holds n=None") in capsys.readouterr().err

    @pytest.mark.parametrize("lacking", ["file", "unit"])
    def test_pruned_cells_without_their_weights_exit_3_before_any_step(
            self, tmp_path, capsys, monkeypatch, lacking):
        from unicp import cli as cli_module
        out = tmp_path / "o"
        spec = ["--out", str(out), *TINY_FLAGS, "--preset", "E5"]
        assert calibrate(*spec) == 0
        assert run_cli("run", "--mode", "online", *spec) == 0
        grid = cache_map_parse((out / "cache_map.txt").read_text()).grid
        pruned = sorted(unit for unit, letters in grid.items() if "P" in letters)
        assert len(pruned) > 1
        if lacking == "file":
            # The map keeps its final_n rows; the first pruned unit is named.
            (out / "sliced_weights.bin").unlink()
            unit, expected = pruned[0], "sliced_weights.bin is missing"
        else:
            # Weights and final_n both lack the last pruned unit, so they agree.
            sliced, _ = load_sliced_weights(out / "sliced_weights.bin", 16)
            unit, expected = pruned[-1], "sliced_weights.bin has no weights for that unit"
            del sliced[unit]
            write_replay_inputs(out, grid, sliced)

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(cli_module, "denoise_run", no_step)
        capsys.readouterr()
        assert run_cli("run", "--mode", "replay", *spec) == 3
        assert (f"replay map has pruned cells at block {unit[0]} {unit[1]}, "
                f"but {expected}") in capsys.readouterr().err

    def test_later_sweep_order_reruns_on_existing_artifacts(self, tmp_path):
        # A full sweep, then the order the benchmark's later sweeps run in,
        # each command rewriting what the sweep before left in the directory.
        out = tmp_path / "o"
        spec = ["--out", str(out), *TINY_FLAGS, "--preset", "E5"]
        commands = {
            "baseline": ["baseline", *spec],
            "calibrate": ["calibrate", *spec],
            "online": ["run", "--mode", "online", *spec],
            "replay": ["run", "--mode", "replay", *spec],
            "compare": ["compare", str(out / "baseline_state.bin"), str(out / "run_state.bin"),
                        "--out", str(out)],
        }
        for order in (("baseline", "calibrate", "online", "replay", "compare"),
                      ("calibrate", "online", "replay", "compare", "baseline")):
            states = {}
            for name in order:
                assert run_cli(*commands[name]) == 0, name
                if name in ("online", "replay"):
                    states[name] = read(out / "run_state.bin")
            assert states["replay"] == states["online"]

    def test_replay_reproduces_online_run(self, tmp_path):
        out = tmp_path / "o"
        calibrate("--out", str(out), *TINY_FLAGS, "--preset", "E5")
        assert run_cli("run", "--out", str(out), *TINY_FLAGS, "--preset", "E5",
                       "--mode", "online") == 0
        online_state = read(out / "run_state.bin")
        online_trace = trace_parse((out / "run_trace.csv").read_text())
        assert run_cli("run", "--out", str(out), *TINY_FLAGS, "--preset", "E5",
                       "--mode", "replay") == 0
        replay_state = read(out / "run_state.bin")
        replay_trace = trace_parse((out / "run_trace.csv").read_text())
        assert replay_state == online_state
        assert replay_trace.macs_total == online_trace.macs_total

    def test_window_past_the_last_step_matches_window_seven(self, tmp_path):
        # A decide loops over the distances its ring holds, so K = 10**7 runs
        # as fast as, and decides the same as, K = 7 on an 8-step run. The
        # ring has no fixed depth, so a K past any machine integer runs too.
        windows = ("7", "10000000", "1000000000000000000000")
        for window in windows:
            t0 = time.perf_counter()
            assert run_cli("run", "--mode", "online", "--out", str(tmp_path / window),
                           *TINY_FLAGS, "--window", window) == 0
            assert time.perf_counter() - t0 < 5.0, window
        for window in windows[1:]:
            for name in ("run_state.bin", "run_trace.csv"):
                assert read(tmp_path / "7" / name) == read(tmp_path / window / name)

    def test_every_run_prints_mac_ratio_against_the_closed_form(self, tmp_path, capsys):
        out = tmp_path / "r"
        flags = [*TINY_FLAGS, "--preset", "E5"]
        assert run_cli("baseline", "--out", str(out), *flags) == 0
        assert run_cli("calibrate", "--out", str(out), *flags) == 0
        base_total = trace_parse((out / "baseline_trace.csv").read_text()).macs_total
        capsys.readouterr()
        for mode in ("online", "replay"):
            assert run_cli("run", "--out", str(out), *flags, "--mode", mode) == 0
            lines = capsys.readouterr().out.splitlines()
            run_total = trace_parse((out / "run_trace.csv").read_text()).macs_total
            assert [ln for ln in lines if ln.startswith("mac_ratio")] == [
                f"mac_ratio {run_total / base_total!r}"], mode
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--out", str(out), *flags, "--baseline-trace", "x")
        assert exc.value.code == 2

    def test_online_prints_executed_macs(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert calibrate("--out", str(out), *TINY_FLAGS, "--preset", "E5") == 0
        capsys.readouterr()
        assert run_cli("run", "--out", str(out), *TINY_FLAGS, "--preset", "E5") == 0
        lines = capsys.readouterr().out.splitlines()
        executed = [int(ln.split()[1]) for ln in lines if ln.startswith("executed_macs ")]
        trace = trace_parse((out / "run_trace.csv").read_text())
        # 2 frames of 16 tokens at width 16: a spatial cell is 2 attentions
        # over 16 tokens, a temporal one 16 attentions over 2 frames.
        full = {"spatial": 2 * macs_full_attention(16, 16),
                "temporal": 16 * macs_full_attention(2, 16)}
        pruned = [r for r in trace.rows if r.decision == "pruned"]
        assert pruned and len(executed) == 1
        assert executed[0] - trace.macs_total == sum(full[r.kind] for r in pruned)
        assert run_cli("run", "--out", str(out), *TINY_FLAGS, "--preset", "E5",
                       "--mode", "replay") == 0
        assert "executed_macs" not in capsys.readouterr().out

    def test_spec_mismatch_with_artifacts_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        calibrate("--out", str(out), *TINY_FLAGS, "--preset", "E5")
        assert run_cli("run", "--out", str(out), *TINY_FLAGS, "--preset", "E5",
                       "--mode", "online") == 0
        # The rejected runs below must write no run spec of their own.
        (out / "run_spec.json").unlink()
        capsys.readouterr()
        for mode in ("online", "replay"):
            assert run_cli("run", "--out", str(out), *TINY_FLAGS, "--preset", "E1",
                           "--mode", mode) == 2
            err = capsys.readouterr().err
            assert "sliced_weights.bin" in err and "delta=0.175" in err
        text = (out / "cache_map.txt").read_text()
        head, _, tail = text.partition("final_n\n0 spatial ")
        (out / "cache_map.txt").write_text(head + "final_n\n0 spatial 5" + tail[tail.index("\n"):])
        assert run_cli("run", "--out", str(out), *TINY_FLAGS, "--preset", "E5",
                       "--mode", "replay") == 2
        err = capsys.readouterr().err
        assert "block 0 spatial final_n=5" in err and "sliced_weights.bin" in err
        (out / "sliced_weights.bin").unlink()
        assert run_cli("run", "--out", str(out), *TINY_FLAGS, "--preset", "E5",
                       "--ratio-hi", "0.3", "--mode", "replay") == 2
        err = capsys.readouterr().err
        assert "cache_map.txt" in err and "ratio_hi=0.4" in err
        assert not (out / "run_spec.json").exists()

    @pytest.mark.parametrize("pattern, replacement, expected", [
        (r"\nfinal_n\n", r"\n7 bogus FFFFFF\nfinal_n\n",
         "grid row '7 bogus FFFFFF' names a unit the model lacks"),
        (r"\n0 spatial [FOMP]+\n", r"\n0 spatial F\n",
         "grid row '0 spatial F' has 1 letters, but the model runs 6 steps"),
        (r"\n1 temporal [FOMP]+\n", r"\n", "cache map has no grid row for block 1 temporal"),
        (r"\n(0 spatial [FOMP]+)\n", r"\n\1\n\1\n", "cache map lists a grid row twice: '0 spatial "),
        # No weights are loaded for a unit the model lacks, so its final_n differs.
        (r"\nend\n", r"\n7 bogus 6\nend\n",
         "cache_map.txt gives block 7 bogus final_n=6, but sliced_weights.bin holds n=None"),
        (r"\n1 temporal [FOMP]+\n", r"\n1 temporal PPOFFF\n",
         "grid row '1 temporal PPOFFF' reuses a cache at step 2 before any F computes one"),
    ], ids=["extra-row", "short-row", "missing-row", "duplicate-row", "foreign-final-n",
            "reuse-before-f"])
    def test_map_must_match_the_model_before_any_step(self, tmp_path, capsys, monkeypatch,
                                                       pattern, replacement, expected):
        from unicp import cli as cli_module
        flags = ["--blocks", "2", "--dim", "8", "--tokens", "16", "--frames", "2",
                 "--steps", "6", "--preset", "E3"]
        out = tmp_path / "o"
        assert calibrate("--out", str(out), *flags) == 0
        assert run_cli("run", "--out", str(out), *flags, "--mode", "online") == 0
        # The rejected replay below must write no run map of its own.
        (out / "run_cache_map.txt").unlink()
        text = (out / "cache_map.txt").read_text()
        edited = re.sub(pattern, replacement, text, count=1)
        assert edited != text
        (out / "cache_map.txt").write_text(edited)

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(cli_module, "denoise_run", no_step)
        capsys.readouterr()
        assert run_cli("run", "--out", str(out), *flags, "--mode", "replay") == 2
        assert expected in capsys.readouterr().err
        assert not (out / "run_cache_map.txt").exists()

    def test_decision_counts_match_map_tallies_in_replay(self, tmp_path):
        from collections import Counter
        from unicp.artifacts import cache_map_parse
        out = tmp_path / "o"
        calibrate("--out", str(out), *TINY_FLAGS, "--preset", "E4")
        run_cli("run", "--out", str(out), *TINY_FLAGS, "--preset", "E4",
                "--mode", "online")
        run_cli("run", "--out", str(out), *TINY_FLAGS, "--preset", "E4",
                "--mode", "replay")
        cmap = cache_map_parse((out / "run_cache_map.txt").read_text())
        trace = trace_parse((out / "run_trace.csv").read_text())
        letter_for = {"full": "F", "reuse_output": "O", "reuse_map": "M", "pruned": "P"}
        trace_tally = Counter(letter_for[r.decision] for r in attention_rows(trace))
        grid_tally = Counter(l for row in cmap.grid.values() for l in row)
        assert trace_tally == grid_tally


TINY_UNITS = [(block, kind) for block in range(2) for kind in ("spatial", "temporal")]


@st.composite
def hand_edited_maps(draw):
    """(grid, units without sliced weights, whether the weights file is
    deleted) for the tiny model: a row of eight F/O/M/P letters per unit,
    most starting with F, some left as drawn, cut short or missing."""
    grid = {}
    for unit in TINY_UNITS:
        letters = draw(st.text("FOMP", min_size=8, max_size=8))
        shape = draw(st.sampled_from(["F first", "F first", "F first", "as drawn", "short",
                                      "missing"]))
        if shape == "F first":
            grid[unit] = ["F", *letters[1:]]
        elif shape == "as drawn":
            grid[unit] = list(letters)
        elif shape == "short":
            grid[unit] = list(letters[:draw(st.integers(1, 7))])
    unweighted = draw(st.sets(st.sampled_from(TINY_UNITS)))
    return grid, unweighted, draw(st.booleans())


def expected_replay_exit(grid, weighted):
    """The exit code of a replay of `grid` with sliced weights for the units
    in `weighted`: 2 for a missing or short row or a reuse before any F, else
    3 for a pruned cell of a unit without weights, else 0."""
    for unit in TINY_UNITS:
        letters = "".join(grid.get(unit, ""))
        if len(letters) != 8 or letters.lstrip("P")[:1] in ("O", "M"):
            return 2
    if any("P" in grid[unit] and unit not in weighted for unit in TINY_UNITS):
        return 3
    return 0


class TestHandEditedMaps:
    @pytest.fixture(scope="class")
    def online_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("online")
        spec = ["--out", str(out), *TINY_FLAGS, "--preset", "E5"]
        assert calibrate(*spec) == 0
        assert run_cli("run", "--mode", "online", *spec) == 0
        # Every example rewrites the weights from this copy.
        shutil.copy(out / "sliced_weights.bin", out / "calibrated.bin")
        return out, spec

    @settings(max_examples=150, deadline=None)
    @given(edit=hand_edited_maps())
    def test_replay_refuses_before_any_step_or_runs_the_grid(self, online_run, edit):
        from unicp import cli as cli_module
        out, spec = online_run
        grid, unweighted, delete_file = edit
        sliced, _ = load_sliced_weights(out / "calibrated.bin", 16)
        kept = None if delete_file else {u: sw for u, sw in sliced.items() if u not in unweighted}
        write_replay_inputs(out, grid, kept)
        real_run, calls = cli_module.denoise_run, []

        def recording_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        # A function-scoped monkeypatch would span every example of the test.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli_module, "denoise_run", recording_run)
            code = run_cli("run", "--mode", "replay", *spec)
        event(f"exit {code}")
        assert code == expected_replay_exit(grid, kept or {})
        assert len(calls) == (code == 0)
        if code == 0:
            # The run's map holds the letters of its trace.
            assert cache_map_parse((out / "run_cache_map.txt").read_text()).grid == grid


class TestExitCodes:
    def test_numeric_failure_exits_4(self, tmp_path, monkeypatch):
        from unicp import cli as cli_module
        from unicp.model import NumericError

        def explode(*args, **kwargs):
            raise NumericError("non-finite latent values at step 3")

        monkeypatch.setattr(cli_module, "denoise_run", explode)
        assert run_cli("baseline", "--out", str(tmp_path / "o"), *TINY_FLAGS) == 4

    def test_spec_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # numpy refuses the 10^7 x 10^7 weight matrix, or the 5.68 PiB
        # latent of 10^14 tokens, at once, allocating nothing, and the
        # command stops before it makes --out.
        for size in (["--dim", "10000000", "--tokens", "4"],
                     ["--dim", "4", "--tokens", "100000000000000"]):
            for command in ("baseline", "calibrate", "run"):
                out = tmp_path / f"{command}{size[1]}"
                assert run_cli(command, *size, "--blocks", "1", "--frames", "2", "--steps", "2",
                               "--out", str(out)) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "Unable to allocate" in err, command
                assert not out.exists(), (command, size)

    @pytest.mark.parametrize("argv", [
        ["compare", "{dir}", "{state}"],
        ["baseline", "--out", "{file}", *TINY_FLAGS],
        ["run", "--out", "{busy}", *TINY_FLAGS, "--mode", "online"],
        ["compare", "{state}", "{state}", "--out", "{busy}"],
        ["harness", "--out", "{busy}", "--steps", "8"],
        ["baseline", "--out", "{busy}", *TINY_FLAGS],
    ], ids=["compare-dir", "baseline-out-file", "run-trace-is-dir",
            "compare-report-is-dir", "harness-report-is-dir", "baseline-latents-is-dir"])
    def test_path_the_os_refuses_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        from unicp import cli as cli_module
        paths = {"dir": tmp_path / "d", "file": tmp_path / "f",
                 "state": tmp_path / "state.bin", "busy": tmp_path / "busy"}
        paths["dir"].mkdir()
        paths["file"].write_text("")
        paths["state"].write_bytes(container(b"UNICPST1\n", STATE_HEADER, values=2 * 16 * 16))
        outputs = ["baseline_captures.bin", "harness_report.txt", "quality_report.txt",
                   "run_trace.csv"]
        for name in outputs:
            (paths["busy"] / name).mkdir(parents=True)
        argv = [arg.format(**paths) for arg in argv]

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(cli_module, "denoise_run", no_step)
        monkeypatch.setattr(cli_module, "run_scheduler_on_profile", no_step)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
        # Nothing is printed or written beside the directories that stand in for outputs.
        assert captured.out == ""
        assert sorted(p.name for p in paths["busy"].iterdir()) == outputs

    @pytest.mark.parametrize("name, argv", [
        ("baseline_captures.bin", ["calibrate", "--out", "{out}", *TINY_FLAGS]),
        ("baseline_state.bin", ["compare", "{out}/baseline_state.bin", "{out}/run_state.bin",
                                "--out", "{out}"]),
        ("run_state.bin", ["compare", "{out}/baseline_state.bin", "{out}/run_state.bin",
                           "--out", "{out}"]),
        ("sliced_weights.bin", ["run", "--mode", "online", "--out", "{out}", *TINY_FLAGS]),
        ("sliced_weights.bin", ["run", "--mode", "replay", "--out", "{out}", *TINY_FLAGS]),
    ], ids=["baseline_captures.bin", "baseline_state.bin", "run_state.bin",
            "sliced_weights.bin-online", "sliced_weights.bin-replay"])
    def test_damaged_container_exits_2(self, tmp_path, capsys, monkeypatch, name, argv):
        for command in (["baseline"], ["calibrate"], ["run", "--mode", "online"]):
            assert run_cli(*command, "--out", str(tmp_path), *TINY_FLAGS) == 0
        path = tmp_path / name
        data = bytearray(path.read_bytes())
        # The lowest mantissa bit of the last payload value: still finite.
        data[-8] ^= 1
        path.write_bytes(bytes(data))
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(CellExecutor, "run_unit", no_cell)
        capsys.readouterr()
        assert run_cli(*[arg.format(out=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: payload does not match its crc32")
        assert "Traceback" not in captured.err and captured.out == ""
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written

    @pytest.mark.parametrize("name, content, expected", [
        ("state.bin", container(b"UNICPST1\n", {"dim": 4}), "model header lacks blocks"),
        ("sliced_weights.bin", container(b"UNICPSW1\n", {"delta": 0.175}), "header lacks units"),
        ("sliced_weights.bin",
         container(b"UNICPSW1\n", {"units": [{"block": 0, "kind": "spatial", "calib_steps": []}]}),
         "unit entry lacks n"),
        ("sliced_weights.bin",
         container(b"UNICPSW1\n", {"units": [dict(SLICED_UNIT, n=None)]}),
         "malformed unit entry"),
        ("sliced_weights.bin",
         container(b"UNICPSW1\n", {"units": [SLICED_UNIT]}, values=2 * 16 * 4 - 1),
         "payload holds 127 values, its units need 128"),
        ("cache_map.txt", text_doc(CACHE_MAP_LINES[:2]), "cache map is missing its grid section"),
        ("cache_map.txt",
         text_doc([CACHE_MAP_LINES[0], json.dumps({k: v for k, v in SLICED_RUN_HEADER.items()
                                                   if k != "window"}), *CACHE_MAP_LINES[2:]]),
         "cache_map.txt run key lacks window"),
        ("cache_map.txt", text_doc([CACHE_MAP_LINES[0], "{blocks=2", *CACHE_MAP_LINES[2:]]),
         "cache map key line is not JSON: "),
        ("cache_map.txt", text_doc([CACHE_MAP_LINES[0], "[2, 16]", *CACHE_MAP_LINES[2:]]),
         "cache_map.txt run key is not a JSON object"),
        ("cache_map.txt",
         text_doc(["unicp-cache-map v1", "blocks=2 dim=16 tokens=16 frames=2 steps=8 seed=7",
                   "delta=0.05 window=4 ratio_lo=0.1 ratio_hi=0.4 mode=online "
                   "aggregation=conservative", "grid", "final_n", "end"]),
         "cache map starts with 'unicp-cache-map v1', not 'unicp-cache-map v2'"),
        ("cache_map.txt", text_doc([*CACHE_MAP_LINES[:3], "0 spatial", *CACHE_MAP_LINES[3:]]),
         "cache map grid row '0 spatial' is malformed: not enough values to unpack"),
        ("cache_map.txt", text_doc([*CACHE_MAP_LINES[:3], "x spatial FF", *CACHE_MAP_LINES[3:]]),
         "cache map grid row 'x spatial FF' is malformed: invalid literal for int()"),
        ("cache_map.txt", text_doc([*CACHE_MAP_LINES[:4], "0 spatial 4 5", "end"]),
         "cache map final_n row '0 spatial 4 5' is malformed: too many values to unpack"),
        ("cache_map.txt", text_doc([*CACHE_MAP_LINES[:4], "0 spatial n", "end"]),
         "cache map final_n row '0 spatial n' is malformed: invalid literal for int()"),
        ("cache_map.txt", text_doc([*CACHE_MAP_LINES, *CACHE_MAP_LINES, "stray"]),
         "cache map has a line after its end marker: 'unicp-cache-map v2'"),
        ("state.bin",
         container(b"UNICPST1\n", dict(STATE_HEADER, dim=float("inf"))).replace(b"Infinity",
                                                                               b"1e999"),
         "dim must be a number, got inf"),
        ("state.bin", container(b"UNICPST1\n", dict(STATE_HEADER, dim=8.5), values=2 * 16 * 8),
         "dim must be a whole number, got 8.5"),
        ("state.bin", container(b"UNICPST1\n", dict(STATE_HEADER, blocks=True)),
         "blocks must be a number, got True"),
        ("state.bin", container(b"UNICPST1\n", dict(STATE_HEADER, seed=None)),
         "seed must be a number, got None"),
        # 4 * (2**62 + 1) * 4 wraps to 16 in int64.
        ("state.bin", container(b"UNICPST1\n", dict(STATE_HEADER, frames=4, tokens=2**62 + 1,
                                                     dim=4), values=16),
         "state.bin: payload holds 16 values, expected 73786976294838206480"),
        ("sliced_weights.bin",
         container(b"UNICPSW1\n", {"units": [dict(SLICED_UNIT, n=float("inf"))]}).replace(
             b"Infinity", b"1e999"),
         "n must be a number, got inf"),
        ("sliced_weights.bin",
         container(b"UNICPSW1\n", {"units": [dict(SLICED_UNIT, n=7.5)]}, values=2 * 16 * 7),
         "n must be a whole number, got 7.5"),
        ("sliced_weights.bin",
         container(b"UNICPSW1\n", dict(SLICED_RUN_HEADER, units=[
             dict(SLICED_UNIT, block=99), dict(SLICED_UNIT, kind="bogus")]), values=2 * 2 * 16 * 4),
         "sliced_weights.bin holds block 0 bogus, block 99 spatial, which the model lacks"),
        ("sliced_weights.bin",
         container(b"UNICPSW1\n", dict(SLICED_RUN_HEADER, units=[SLICED_UNIT, SLICED_UNIT]),
                   values=2 * 2 * 16 * 4),
         "lists block 0 spatial twice"),
    ], ids=["state-missing-keys", "sliced-no-units", "sliced-unit-no-n", "sliced-unit-null-n",
            "sliced-short-payload", "map-truncated", "map-key-lacks-field",
            "map-key-not-json", "map-key-not-object", "map-v1", "map-grid-row-two-fields",
            "map-grid-row-text-block", "map-final-n-row-four-fields", "map-final-n-row-text-n",
            "map-lines-after-end",
            "state-infinite-dim", "state-fractional-dim", "state-bool-blocks", "state-null-seed",
            "state-overflowing-shape",
            "sliced-infinite-n",
            "sliced-fractional-n", "sliced-foreign-units", "sliced-duplicate-unit"])
    def test_malformed_artifact_exits_2(self, tmp_path, capsys, name, content, expected):
        path = tmp_path / name
        path.write_bytes(content)
        if name == "state.bin":
            argv = ["compare", str(path), str(path)]
        elif name == "cache_map.txt":
            argv = ["run", "--out", str(tmp_path), *TINY_FLAGS, "--mode", "replay"]
        else:
            argv = ["run", "--out", str(tmp_path), *TINY_FLAGS]
        assert run_cli(*argv) == 2
        assert expected in capsys.readouterr().err


# baseline -> calibrate -> online -> replay -> compare in one --out; the
# online run's directory is kept beside it before the replay overwrites it.
COMMAND_CHAIN = """
import shutil, sys
from unicp.cli import main
out, flags = sys.argv[1], sys.argv[2:]
for argv in (["baseline"], ["calibrate"], ["run", "--mode", "online"]):
    assert main([*argv, "--out", out, *flags]) == 0
shutil.copytree(out, out + "-online")
assert main(["run", "--mode", "replay", "--out", out, *flags]) == 0
assert main(["compare", out + "/baseline_state.bin", out + "/run_state.bin", "--out", out]) == 0
"""


class TestBlasThreadCount:
    def test_every_artifact_is_the_same_at_one_and_two_threads(self, tmp_path):
        # Maps of 2 x 128 x 128 elements: OpenBLAS would split one dot over
        # them across threads.
        flags = ["--blocks", "2", "--dim", "16", "--tokens", "128", "--frames", "2",
                 "--steps", "8", "--seed", "7", "--preset", "E5"]
        src = str(Path(__file__).parent.parent / "src")
        stdout = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", COMMAND_CHAIN,
                                   str(tmp_path / threads), *flags],
                                  env=env, capture_output=True, check=True)
            stdout[threads] = done.stdout
        assert stdout["1"] == stdout["2"]
        for run in ("", "-online"):
            one, two = tmp_path / ("1" + run), tmp_path / ("2" + run)
            names = sorted(p.name for p in one.iterdir())
            assert names == sorted(p.name for p in two.iterdir())
            for name in names:
                assert read(one / name) == read(two / name), name


class TestAllocatorSetting:
    def test_sets_both_thresholds(self, monkeypatch):
        import ctypes
        from unicp import cli as cli_module
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        cli_module.keep_freed_heap_pages()
        # The two thresholds, then one malloc arena (M_ARENA_MAX is -8).
        assert sorted(calls) == [(-8, 1), (-3, 32 << 20), (-1, 64 << 20)]

    def test_missing_libc_still_runs(self, tmp_path, monkeypatch):
        import ctypes

        def no_library(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        assert run_cli("baseline", "--out", str(tmp_path / "o"), *TINY_FLAGS) == 0

    def test_libc_without_mallopt_still_runs(self, tmp_path, monkeypatch):
        import ctypes
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert run_cli("baseline", "--out", str(tmp_path / "o"), *TINY_FLAGS) == 0


class TestHarnessCommand:
    def test_default_u_profile(self, tmp_path, capsys):
        out = tmp_path / "h"
        assert run_cli("harness", "--out", str(out), "--seed", "7",
                       "--steps", "30", "--delta", "0.05", "--window", "4") == 0
        report = (out / "harness_report.txt").read_text()
        assert report.startswith("unicp-harness-report v1")
        assert "edcw_accumulated_error=" in report
        assert "fixed_window_4_error=" in report

    @pytest.mark.parametrize("flag, value", [
        ("--blocks", "2"), ("--dim", "16"), ("--tokens", "16"), ("--frames", "2"),
        ("--ratio-lo", "0.2"), ("--ratio-hi", "0.3"), ("--profile", "p.txt"),
    ])
    def test_flag_it_does_not_read_is_rejected(self, tmp_path, flag, value):
        out = tmp_path / "h"
        with pytest.raises(SystemExit) as exc:
            run_cli("harness", "--out", str(out), "--steps", "8", flag, value)
        assert exc.value.code == 2
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("harness", "--out", str(out), "--steps", "30")
        assert read(a / "harness_report.txt") == read(b / "harness_report.txt")


class TestCompare:
    def test_self_comparison(self, tmp_path, capsys):
        out = tmp_path / "base"
        run_cli("baseline", "--out", str(out), *TINY_FLAGS)
        state = str(out / "baseline_state.bin")
        capsys.readouterr()
        assert run_cli("compare", state, state) == 0
        report = report_parse(capsys.readouterr().out)
        assert report.ssim == 1.0
        assert report.rel_l2 == 0.0
        assert report.psnr_db == 99.0

    def test_zero_delta_run_equals_self_comparison(self, tmp_path, capsys):
        base = tmp_path / "base"
        run_out = tmp_path / "run"
        run_cli("baseline", "--out", str(base), *TINY_FLAGS)
        run_cli("run", "--out", str(run_out), *TINY_FLAGS, "--delta", "0")
        capsys.readouterr()
        assert run_cli("compare", str(base / "baseline_state.bin"),
                       str(run_out / "run_state.bin")) == 0
        report = report_parse(capsys.readouterr().out)
        assert report.ssim == 1.0 and report.rel_l2 == 0.0 and report.psnr_db == 99.0

    def test_report_values_match_independent_recomputation(self, tmp_path, capsys):
        import math
        base = tmp_path / "base"
        run_out = tmp_path / "run"
        run_cli("baseline", "--out", str(base), *TINY_FLAGS)
        calibrate("--out", str(run_out), *TINY_FLAGS, "--preset", "E5")
        run_cli("run", "--out", str(run_out), *TINY_FLAGS, "--preset", "E5")
        capsys.readouterr()
        run_cli("compare", str(base / "baseline_state.bin"), str(run_out / "run_state.bin"))
        report = report_parse(capsys.readouterr().out)
        ref, _ = load_state(base / "baseline_state.bin")
        cand, _ = load_state(run_out / "run_state.bin")
        # Metric-formula oracle applied to the raw files.
        peak = float(ref.max() - ref.min())
        mse = float(np.mean((cand - ref) ** 2))
        assert report.psnr_db == pytest.approx(10 * math.log10(peak ** 2 / mse), rel=1e-12)
        expected_rel = float(np.linalg.norm(cand - ref) / np.linalg.norm(ref))
        assert report.rel_l2 == pytest.approx(expected_rel, rel=1e-12)

    def test_non_square_token_count_reports_without_ssim(self, tmp_path, capsys):
        base, run_out = tmp_path / "base", tmp_path / "run"
        flags = [*TINY_FLAGS, "--tokens", "12"]  # the last --tokens wins
        run_cli("baseline", "--out", str(base), *flags)
        run_cli("run", "--out", str(run_out), *flags, "--preset", "E5")
        capsys.readouterr()
        assert run_cli("compare", str(base / "baseline_state.bin"),
                       str(run_out / "run_state.bin"), "--out", str(tmp_path / "rep")) == 0
        text = capsys.readouterr().out
        assert "\npsnr_db=" in text and "\nrel_l2=" in text and "\nssim=n/a\n" in text
        report = report_parse(text)
        assert report.ssim is None
        ref, _ = load_state(base / "baseline_state.bin")
        cand, _ = load_state(run_out / "run_state.bin")
        assert ref.shape == (2, 12, 16)
        expected_rel = float(np.linalg.norm(cand - ref) / np.linalg.norm(ref))
        assert report.rel_l2 == pytest.approx(expected_rel, rel=1e-12)
        assert read(tmp_path / "rep" / "quality_report.txt") == text.encode()

    def test_shape_mismatch_exits_2(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_cli("baseline", "--out", str(a), *TINY_FLAGS)
        run_cli("baseline", "--out", str(b), "--blocks", "2", "--dim", "16",
                "--tokens", "16", "--frames", "4", "--steps", "8", "--seed", "7")
        assert run_cli("compare", str(a / "baseline_state.bin"),
                       str(b / "baseline_state.bin")) == 2

    def test_state_near_the_float_range_exits_4(self, tmp_path, capsys, tiny_cfg):
        # The SSIM constants square the state's value range, which overflows.
        state = np.zeros((2, 16, 16))
        state[0, 0, 0] = 1e200
        path = tmp_path / "state.bin"
        save_state(path, state, tiny_cfg)
        assert run_cli("compare", str(path), str(path)) == 4
        assert capsys.readouterr().err == "error: ssim overflows float64 for these states\n"

    def test_squared_difference_that_overflows_exits_4(self, tmp_path, capsys):
        # pytest turns a numpy warning into an exception that escapes main,
        # so exit 4 here also means no warning was printed.
        flags = ["--blocks", "1", "--dim", "8", "--tokens", "4", "--frames", "2", "--steps", "4"]
        assert run_cli("baseline", "--out", str(tmp_path), *flags) == 0
        assert run_cli("run", "--mode", "online", "--out", str(tmp_path), *flags) == 0
        path = tmp_path / "baseline_state.bin"
        state, cfg = load_state(path)
        state[0, 0, 0] = 1e300
        save_state(path, state, cfg)
        capsys.readouterr()
        assert run_cli("compare", str(path), str(tmp_path / "run_state.bin"),
                       "--out", str(tmp_path)) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: psnr_db overflows float64 for these states\n"
        assert captured.out == "" and not (tmp_path / "quality_report.txt").exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_state_exits_2(self, tmp_path, capsys, tiny_cfg, bad):
        state = np.zeros((2, 16, 16))
        state[0, 0, 0] = bad
        path = tmp_path / "state.bin"
        save_state(path, state, tiny_cfg)
        assert run_cli("compare", str(path), str(path)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: payload holds non-finite values\n"
        assert captured.out == ""
        # The same state made finite, compared with itself, reaches the 99 dB cap.
        state[0, 0, 0] = 1.0
        save_state(path, state, tiny_cfg)
        assert run_cli("compare", str(path), str(path)) == 0
        assert report_parse(capsys.readouterr().out).psnr_db == 99.0

    def test_missing_file_exits_3(self, tmp_path):
        assert run_cli("compare", str(tmp_path / "x.bin"), str(tmp_path / "y.bin")) == 3

    def test_report_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "base"
        run_cli("baseline", "--out", str(out), *TINY_FLAGS)
        state = str(out / "baseline_state.bin")
        report_dir = tmp_path / "rep"
        run_cli("compare", state, state, "--out", str(report_dir))
        assert (report_dir / "quality_report.txt").exists()
