"""Command-line front end: baseline runs, calibration, dispatched runs,
scheduler harness, and output comparison.

`baseline`, `calibrate` and `run` take the full spec flag set; `harness`
takes only the flags it reads (`--steps`, `--seed`, `--preset`/`--delta`,
`--window`) and runs the built-in U drift profile.

Exit codes: 0 success, 2 configuration/validation problem, a path the
OS cannot read or write, or a spec too large to allocate, 3 missing
dependency artifact, 4 numeric failure (non-finite latent values, or a
float overflow).
All commands are deterministic given the same spec (seed included);
baseline, calibrate and run write a JSON echo of their full spec beside
their artifacts.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import (
    BASELINE_CAPTURES,
    BASELINE_STATE,
    BASELINE_TRACE,
    CACHE_MAP_FILE,
    CALIBRATION_FILE,
    HARNESS_REPORT,
    QUALITY_REPORT,
    RUN_CACHE_MAP,
    RUN_STATE,
    RUN_TRACE,
    SLICED_WEIGHTS_FILE,
    MissingArtifactError,
    cache_map_export,
    calibration_export,
    load_calib_captures,
    load_run_inputs,
    load_state,
    save_calib_captures,
    save_sliced_weights,
    save_state,
)
from .dws import OnlineDispatcher, default_calib_steps, dws_calibrate, run_cache_map
from .edcw import SchedulerConfig
from .harness import run_scheduler_on_profile, u_profile
from .metrics import macs_full_attention, macs_mlp, quality_report, report_export, trace_export
from .model import SPEC_KEYS, ModelConfig, NumericError, init_model
from .runner import CellExecutor, denoise_run

PRESETS = {"E1": 0.025, "E2": 0.05, "E3": 0.075, "E4": 0.125, "E5": 0.175}
# The error threshold when neither --delta nor --preset is given.
DELTA = 0.05

# Desk-scale defaults: a full sweep (baseline + calibration + five runs)
# stays under two minutes on one CPU core.
DEFAULTS = {
    "blocks": 6,
    "dim": 64,
    "tokens": 64,
    "frames": 8,
    "steps": 30,
    "seed": 42,
    "window": 4,
    "ratio_lo": 0.1,
    "ratio_hi": 0.4,
    "mode": "online",
}

# glibc mallopt parameters and the values its adaptive rule ends at on
# 64-bit: the mmap threshold caps at 32 MiB, the trim threshold is twice it.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20


@dataclass(frozen=True)
class RunSpec:
    model: ModelConfig
    scheduler: SchedulerConfig
    ratio_lo: float
    ratio_hi: float
    mode: str
    preset: str | None

    def key(self) -> dict:
        """The fields an artifact records to bind it to a run: the sliced
        weights and the cache map are valid only where all of them match."""
        return {
            "model": self.model.header(),
            "delta": self.scheduler.delta,
            "window": self.scheduler.search_window,
            "ratio_lo": self.ratio_lo,
            "ratio_hi": self.ratio_hi,
        }

    def as_dict(self) -> dict:
        d = self.key()
        d.update(d.pop("model"), mode=self.mode, preset=self.preset)
        return d


def build_spec(args) -> RunSpec:
    """The run spec of the parsed flags: an explicit --delta beats --preset."""
    if not 0.0 <= args.ratio_lo <= args.ratio_hi < 1.0:
        raise ValueError(
            f"ratio bounds must satisfy 0 <= lo <= hi < 1, got [{args.ratio_lo}, {args.ratio_hi}]")
    delta = args.delta if args.delta is not None else PRESETS.get(args.preset, DELTA)
    model = ModelConfig(**{name: getattr(args, key) for key, name in SPEC_KEYS.items()})
    scheduler = SchedulerConfig(delta=delta, search_window=args.window)
    return RunSpec(model=model, scheduler=scheduler, ratio_lo=args.ratio_lo,
                   ratio_hi=args.ratio_hi, mode=args.mode, preset=args.preset)


def _write_text(path: Path, text: str):
    path.write_bytes(text.encode("utf-8"))


def _write_spec(out_dir: Path, name: str, spec: RunSpec):
    _write_text(out_dir / name, json.dumps(spec.as_dict(), sort_keys=True) + "\n")


def _full_cell_macs(cfg: ModelConfig) -> dict:
    """The MACs of one full spatial, temporal and MLP cell of the model."""
    f, s, m = cfg.num_frames, cfg.tokens_per_frame, cfg.model_dim
    return {"spatial": f * macs_full_attention(s, m),
            "temporal": s * macs_full_attention(f, m), "mlp": macs_mlp(f * s, m)}


def _out_dir(path: str, names) -> Path:
    """Make a command's output directory, then raise ValueError naming the
    first of `names` that exists there as a directory. Commands call it
    before they compute anything, so such a directory leaves nothing written."""
    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        if (out_dir / name).is_dir():
            raise ValueError(f"{out_dir / name} is a directory, not a file")
    return out_dir


def _start(args, names):
    """(spec, weights, out dir) of a model command. The weights and room for
    the latent, no page of it touched, are allocated before `--out` exists."""
    spec = build_spec(args)
    model = init_model(spec.model)
    np.empty((spec.model.num_frames, spec.model.tokens_per_frame, spec.model.model_dim))
    return spec, model, _out_dir(args.out, names)


def cmd_baseline(args) -> int:
    spec, model, out_dir = _start(args, (BASELINE_STATE, BASELINE_TRACE, BASELINE_CAPTURES,
                                         "baseline_spec.json"))
    executor = CellExecutor(model, drift=True,
                            capture_steps=default_calib_steps(spec.model.num_steps))
    state, trace = denoise_run(spec.model, executor)
    save_state(out_dir / BASELINE_STATE, state, spec.model)
    save_calib_captures(out_dir / BASELINE_CAPTURES, spec.model, executor.captured)
    _write_text(out_dir / BASELINE_TRACE, trace_export(trace))
    _write_spec(out_dir, "baseline_spec.json", spec)
    print(f"baseline complete: steps={spec.model.num_steps} macs_total={trace.macs_total}")
    return 0


def cmd_calibrate(args) -> int:
    spec, model, out_dir = _start(args, (SLICED_WEIGHTS_FILE, CALIBRATION_FILE,
                                         "calibrate_spec.json"))
    # A baseline of this model in --out captured the units' inputs at the
    # calibration steps, so calibration runs no forward step.
    captures_path = out_dir / BASELINE_CAPTURES
    if not captures_path.exists():
        raise MissingArtifactError(f"calibrate needs {BASELINE_CAPTURES} in {out_dir}; "
                                   f"run `baseline --out {out_dir}` first")
    result = dws_calibrate(model, spec.model, spec.scheduler,
                           load_calib_captures(captures_path, spec.model),
                           ratio_bounds=(spec.ratio_lo, spec.ratio_hi))
    save_sliced_weights(out_dir / SLICED_WEIGHTS_FILE, result.sliced, spec.key())
    _write_text(out_dir / CALIBRATION_FILE, calibration_export(result.records))
    _write_spec(out_dir, "calibrate_spec.json", spec)
    for (block, kind) in sorted(result.sliced):
        print(f"final_n block={block} kind={kind} n={result.sliced[(block, kind)].n}")
    return 0


def cmd_run(args) -> int:
    spec, model, out_dir = _start(args, (RUN_STATE, RUN_TRACE, RUN_CACHE_MAP, CACHE_MAP_FILE,
                                         "run_spec.json"))
    sliced, cmap = load_run_inputs(out_dir, spec)
    if spec.mode == "replay":
        executor = CellExecutor(model, sliced, grid=cmap.grid)
    else:
        executor = OnlineDispatcher(model, spec.scheduler, sliced)
    state, trace = denoise_run(spec.model, executor)

    save_state(out_dir / RUN_STATE, state, spec.model)
    _write_text(out_dir / RUN_TRACE, trace_export(trace))
    map_text = cache_map_export(run_cache_map(trace, spec.key(), sliced))
    _write_text(out_dir / RUN_CACHE_MAP, map_text)
    if spec.mode == "online":
        _write_text(out_dir / CACHE_MAP_FILE, map_text)
    _write_spec(out_dir, "run_spec.json", spec)

    # One count per attention cell, as in the cache map; MLP rows decide nothing.
    counts = Counter(row.decision for row in trace.rows if row.kind != "mlp")
    print(f"run complete: mode={spec.mode} macs_total={trace.macs_total} "
          f"decisions={json.dumps(counts, sort_keys=True)}")
    full_macs = _full_cell_macs(spec.model)
    if spec.mode == "online":
        # A P cell's trace row charges the sliced path only; online, the
        # decide ran the full path first.
        executed = trace.macs_total + sum(full_macs[row.kind] for row in trace.rows
                                          if row.decision == "pruned")
        print(f"executed_macs {executed}")
    # A baseline computes every cell of every step in full.
    baseline_total = spec.model.num_steps * spec.model.num_blocks * sum(full_macs.values())
    print(f"mac_ratio {trace.macs_total / baseline_total!r}")
    return 0


def cmd_harness(args) -> int:
    spec = build_spec(args)
    num_steps, sched = spec.model.num_steps, spec.scheduler
    out_dir = _out_dir(args.out, (HARNESS_REPORT,))
    result = run_scheduler_on_profile(u_profile(num_steps, spike_step=num_steps // 2), sched,
                                      seed=spec.model.seed)

    lines = ["unicp-harness-report v1",
             f"T={num_steps} delta={sched.delta!r} K={sched.search_window}"]
    for step in result.steps:
        if step.consumed is not None:
            lines.append(f"step={step.step} consumed={step.consumed} "
                         f"reuse_error={step.reuse_error!r}")
        else:
            d = step.decision
            window = "" if d.window is None else d.window
            lines.append(f"step={step.step} decision={d.kind.value} k={window}")
    lines.append(f"edcw_accumulated_error={result.accumulated_error!r}")
    for w in sorted(result.fixed_window_errors):
        lines.append(f"fixed_window_{w}_error={result.fixed_window_errors[w]!r}")
    report = "\n".join(lines) + "\n"
    _write_text(out_dir / HARNESS_REPORT, report)
    print(f"harness complete: edcw_error={result.accumulated_error!r} "
          f"fixed={ {w: result.fixed_window_errors[w] for w in sorted(result.fixed_window_errors)} }")
    return 0


def cmd_compare(args) -> int:
    for path in (args.reference, args.candidate):
        if not Path(path).exists():
            raise MissingArtifactError(f"state file not found: {path}")
    out_dir = _out_dir(args.out, (QUALITY_REPORT,)) if args.out else None
    reference, _ = load_state(args.reference)
    candidate, _ = load_state(args.candidate)
    if reference.shape != candidate.shape:
        raise ValueError(
            f"state shapes differ: {reference.shape} vs {candidate.shape}")
    report = quality_report(reference, candidate)
    text = report_export(report)
    sys.stdout.write(text)
    if out_dir is not None:
        _write_text(out_dir / QUALITY_REPORT, text)
    return 0


def _add_common_flags(p: argparse.ArgumentParser):
    """The flags of baseline, calibrate, run and harness; every spec field
    defaults from DEFAULTS, so a command reads the fields it has no flag for."""
    p.set_defaults(**DEFAULTS)
    p.add_argument("--preset", choices=sorted(PRESETS), help="error-threshold preset")
    p.add_argument("--delta", type=float, help="error threshold (overrides preset)")
    p.add_argument("--window", type=int, help="search window K")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--out", required=True)


def _add_spec_flags(p: argparse.ArgumentParser):
    _add_common_flags(p)
    p.add_argument("--ratio-lo", dest="ratio_lo", type=float, help="lower pruned-fraction bound")
    p.add_argument("--ratio-hi", dest="ratio_hi", type=float, help="upper pruned-fraction bound")
    p.add_argument("--blocks", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--tokens", type=int)
    p.add_argument("--frames", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unicp",
                                     description="caching/pruning inference engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("baseline", help="full-compute run; writes state and trace")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("calibrate", help="calibrate pruning dims from the baseline's captures "
                                         "in --out; writes the sliced weights")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("run", help="dispatched run: online writes the cache map, "
                                   "replay executes it")
    _add_spec_flags(p)
    p.add_argument("--mode", choices=["online", "replay"])
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("harness", help="scheduler rig on the built-in U drift profile")
    _add_common_flags(p)
    p.set_defaults(func=cmd_harness)

    p = sub.add_parser("compare", help="PSNR/SSIM/rel-L2 between two state files")
    p.add_argument("reference")
    p.add_argument("candidate")
    p.add_argument("--out", help="directory for the report document")
    p.set_defaults(func=cmd_compare)

    return parser


def keep_freed_heap_pages():
    """Fix glibc's mmap and trim thresholds at the caps its adaptive rule
    reaches.

    Left adaptive, glibc serves an attention map's temporaries by mmap or
    trims them off the heap when freed, and every later call faults the
    pages in again. Fixed, freed pages stay in the heap for the next call.
    Does nothing where glibc's mallopt is absent.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    keep_freed_heap_pages()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
