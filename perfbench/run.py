"""Benchmark of the unicp command sequence on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload desk-e5 --seed 42 --seconds 60 --trace 0

One client drives the engine in a closed loop: each sweep runs ``baseline
-> calibrate -> run --mode online -> run --mode replay -> compare``, one
command after another, as a user of the CLI does, and then checks the
artifacts the commands wrote. Each command runs in a fresh process, as
from the CLI, and command.py times ``unicp.cli.main`` inside it, so start-up
is not part of a command's time; ``setup_s`` measures start-up on its own,
in the same processes before their command. Later sweeps start at
calibrate and skip each command that would end after ``--seconds``; the
run stops after a cut sweep. The engine is imported from ``src/`` of the
checkout this file sits in; there is nothing to build.

With ``--trace 0`` the last line of stdout is the result with every
end-to-end metric of BENCHMARK.json: medians over the samples of the run.
With ``--trace 1`` pairs of an untraced and a traced sweep repeat while they
fit, and the result carries every per-layer metric (see probes.py). The
line before the result records the environment and any absent probes. Raw
samples go to ``.perfbench/results/``; the artifacts are deleted at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Every command process inherits these. One BLAS thread gave half the
# run-to-run spread of the default on a 2-core machine; calibration threads
# stay at 1 because the tracer's span stack is not thread-safe.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "UNICP_THREADS": "1",
}

# The spec flags of every command. They are spelled out so that a change of
# the CLI defaults does not change a workload.
SCHEDULE = ("--steps", "30", "--window", "4", "--ratio-lo", "0.1", "--ratio-hi", "0.4",
            "--preset", "E5")
WORKLOADS = {
    "desk-e5": ("--blocks", "6", "--dim", "64", "--tokens", "64", "--frames", "8", *SCHEDULE),
    "longseq-e5": ("--blocks", "4", "--dim", "32", "--tokens", "256", "--frames", "4",
                   *SCHEDULE),
}
PHASES = ("baseline", "calibrate", "online", "replay", "compare")
# Order of the sweeps after the first. Starting them at calibrate, the
# longest and noisiest command, gives it one more sample in a run on desk.
# Every command reruns on the artifacts of the sweep before, which it
# rewrites with the same bytes.
LATER_SWEEPS = ("calibrate", "online", "replay", "compare", "baseline")
COMMAND_TIMEOUT_S = 120  # a run must end within 180 s

LETTERS = {"full": "F", "reuse_output": "O", "reuse_map": "M", "pruned": "P"}


def read_trace(path: Path):
    """(kind, decision, macs) per row of a trace CSV, columns found by name."""
    lines = path.read_text().splitlines()
    col = {name: i for i, name in enumerate(lines[0].split(","))}
    rows = [ln.split(",") for ln in lines[1:] if ln]
    return [(r[col["kind"]], r[col["decision"]], int(r[col["macs"]])) for r in rows]


def read_psnr(path: Path) -> float:
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        if key == "psnr_db":
            return float(value)
    raise ValueError(f"{path.name} has no psnr_db line")


def trace_counts(baseline_rows, replay_rows) -> dict:
    """Deterministic counts from the baseline and replay trace CSVs."""
    out = {}
    for phase, rows in (("baseline", baseline_rows), ("replay", replay_rows)):
        for kind in ("spatial", "temporal", "mlp"):
            out[f"{phase}.macs.{kind}"] = sum(m for k, _, m in rows if k == kind)
    attention = [d for k, d, _ in replay_rows if k != "mlp"]
    for letter in "FOMP":
        out[f"dws.cells.{letter}"] = sum(LETTERS.get(d) == letter for d in attention)
    out["edcw.hit_ratio"] = (out["dws.cells.O"] + out["dws.cells.M"]) / len(attention)
    base_attn = out["baseline.macs.spatial"] + out["baseline.macs.temporal"]
    out["attn_mac_ratio"] = (out["replay.macs.spatial"] + out["replay.macs.temporal"]) / base_attn
    return out


def kernel_macs(baseline_rows, replay_rows) -> dict:
    """MACs each kernel executed, keyed like its per-layer stats."""
    def baseline(kind):
        return sum(m for k, _, m in baseline_rows if k == kind)

    def replay(kinds, decision):
        return sum(m for k, d, m in replay_rows if k in kinds and d == decision)

    return {
        "baseline.model.apply_mlp": baseline("mlp"),
        "baseline.model.unit_attention_full.spatial": baseline("spatial"),
        "baseline.model.unit_attention_full.temporal": baseline("temporal"),
        "replay.pcas.unit_attention_sliced.spatial": replay(("spatial",), "pruned"),
        "replay.pcas.unit_attention_sliced.temporal": replay(("temporal",), "pruned"),
        "replay.model.unit_attention_from_map": replay(("spatial", "temporal"), "reuse_map"),
    }


class Bench:
    """Runs sweeps of the five commands and checks what they write."""

    def __init__(self, workload: str, seed: int, work: Path):
        spec = (*WORKLOADS[workload], "--seed", str(seed), "--out", str(work))
        self.work = work
        self.commands = {
            "baseline": ["baseline", *spec],
            "calibrate": ["calibrate", *spec],
            "online": ["run", "--mode", "online", *spec],
            "replay": ["run", "--mode", "replay", *spec],
            "compare": ["compare", str(work / "baseline_state.bin"),
                        str(work / "run_state.bin"), "--out", str(work)],
        }
        self.trace = False
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.samples = {phase: [] for phase in PHASES}
        self.setup = []  # setup_s of every command process that has one
        self.longest = dict.fromkeys(PHASES, 0.0)  # wall seconds of a process
        self.maxrss_kb = 0
        self.last = {}  # phase -> command seconds in the last sweep
        self.stats = {}  # per-layer stats of the last sweep, when traced
        self.calib = {}
        self.absent = []
        self.reference = None  # artifacts of the first sweep
        self.counts = None
        self.kernel_macs = None

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(name)

    def run_command(self, phase: str):
        """Run one command in a fresh process; its report, or None on failure."""
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "command.py"), str(SRC), phase,
                 str(int(self.trace)), *self.commands[phase]],
                cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
            report = json.loads(done.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
            self.errors.append(f"{phase}: {exc!r} {getattr(exc, 'stderr', '')}")
            return None
        if done.returncode != 0 or report["rc"] != 0:
            self.errors.append(f"{phase}: rc={report['rc']} {report.get('output', '')}"
                               f"{done.stderr[-2000:]}")
            return None
        return report

    def invoke(self, phase: str) -> bool:
        t0 = perf_counter()
        report = self.run_command(phase)
        self.check(f"{phase} exit code", report is not None)
        if report is None:
            return False
        self.longest[phase] = max(self.longest[phase], perf_counter() - t0)
        self.samples[phase].append(report["seconds"])
        if report["setup_s"] is not None:
            self.setup.append(report["setup_s"])
        self.last[phase] = report["seconds"]
        self.maxrss_kb = max(self.maxrss_kb, report["maxrss_kb"])
        if self.trace:
            self.stats.update((k, tuple(v)) for k, v in report["stats"].items())
            self.calib.update(report["calib"])
            self.absent = report["absent"]
        return True

    def sweep(self, order=PHASES, deadline: float | None = None) -> bool:
        """The five commands in the given order, then a check of the artifacts.

        Appends each command's seconds to self.samples. With a deadline (a
        perf_counter value), skips each command whose slowest run so far
        would end past it. Returns whether every command ran and succeeded.
        """
        online = {}
        self.last = {}
        self.stats = {}
        complete = True
        for phase in order:
            if deadline is not None and perf_counter() + self.longest[phase] > deadline:
                complete = False
                continue
            if not self.invoke(phase):
                return False
            if phase == "online":
                # Replay overwrites the run artifacts; keep the online ones.
                for name in ("run_state.bin", "run_cache_map.txt"):
                    online[name] = (self.work / name).read_bytes()
        if not complete:
            return False

        artifacts = {
            "baseline_state": (self.work / "baseline_state.bin").read_bytes(),
            "online_state": online["run_state.bin"],
            "replay_state": (self.work / "run_state.bin").read_bytes(),
        }
        self.check("online state == replay state",
                   artifacts["online_state"] == artifacts["replay_state"])
        self.check("online cache map == calibrate cache map",
                   online["run_cache_map.txt"] == (self.work / "cache_map.txt").read_bytes())
        try:
            baseline_rows = read_trace(self.work / "baseline_trace.csv")
            replay_rows = read_trace(self.work / "run_trace.csv")
            artifacts["mac_ratio"] = (sum(m for _, _, m in replay_rows)
                                      / sum(m for _, _, m in baseline_rows))
            artifacts["psnr_db"] = read_psnr(self.work / "quality_report.txt")
        except (OSError, KeyError, IndexError, ValueError, ZeroDivisionError) as exc:
            self.check(f"trace and report parse: {exc!r}", False)
            return False
        if self.reference is None:
            self.reference = artifacts
            self.counts = trace_counts(baseline_rows, replay_rows)
            self.kernel_macs = kernel_macs(baseline_rows, replay_rows)
        for name in ("baseline_state", "online_state", "replay_state", "mac_ratio"):
            self.check(f"{name} same as first sweep", artifacts[name] == self.reference[name])
        return True


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def end_to_end(bench: Bench) -> dict:
    values = {f"{p}_s": statistics.median(bench.samples[p]) for p in PHASES}
    bench.check("setup_s measured", bool(bench.setup))
    values.update({
        "setup_s": statistics.median(bench.setup) if bench.setup else None,
        "sweep_s": sum(values[f"{p}_s"] for p in PHASES),
        "wall_ratio": values["replay_s"] / values["baseline_s"],
        "mac_ratio": bench.reference["mac_ratio"],
        "psnr_db": bench.reference["psnr_db"],
        "peak_rss_mb": bench.maxrss_kb / 1024.0,
        "ok_share": (bench.attempted - bench.failed) / bench.attempted,
    })
    return values


def per_layer(bench: Bench, untraced, traced, stats) -> dict:
    values = {}
    for key in set().union(*stats):
        samples = [s.get(key, (0.0, 0)) for s in stats]
        values[f"{key}.self_s"] = statistics.median([self_s for self_s, _ in samples])
        values[f"{key}.calls"] = samples[0][1]
    for kernel, macs in bench.kernel_macs.items():
        self_s = values.get(f"{kernel}.self_s", 0.0)
        values[f"{kernel}.gmacs_computed"] = macs / self_s / 1e9 if self_s > 0 else 0.0
    values.update(bench.counts)
    values.update(bench.calib)
    for phase in PHASES:
        values[f"{phase}.traced_s"] = statistics.median([t[phase] for t in traced])
    values["trace.overhead_s"] = (statistics.median([sum(t.values()) for t in traced])
                                  - statistics.median([sum(u.values()) for u in untraced]))
    return values


def measure(bench: Bench, trace: bool, deadline: float):
    """The run's metric values, or None when its first sweep failed."""
    if not trace:
        # The first sweep always completes. Later ones skip what would end
        # past the deadline, and the samples of a cut sweep count too.
        if not bench.sweep():
            return None
        while bench.sweep(LATER_SWEEPS, deadline):
            pass
        return end_to_end(bench)
    untraced, traced, stats = [], [], []
    while True:
        t0 = perf_counter()
        bench.trace = False
        if not bench.sweep():
            break
        untraced.append(bench.last)
        bench.trace = True
        if not bench.sweep():
            break
        traced.append(bench.last)
        stats.append(bench.stats)
        if 2 * perf_counter() - t0 > deadline:
            break
    if not traced:
        return None
    return per_layer(bench, untraced, traced, stats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "unicp" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: need src/unicp and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    wanted = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    os.environ.update(PINNED_ENV)

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work)
    try:
        values = measure(bench, bool(args.trace), perf_counter() + args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment(), "absent": bench.absent, "setup_s": bench.setup,
            "samples": bench.samples, "values": values, "errors": bench.errors}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: info[k] for k in ("environment", "absent")}))
    if values is None:
        print(json.dumps({"correct": False, "attempted": max(bench.attempted, 1),
                          "failed": max(bench.failed, 1), "metrics": {}}))
        return 1
    # A per-layer stat with no calls in this run reads 0; probes whose target
    # is gone are listed as absent on the line above.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
