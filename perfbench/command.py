"""Run one unicp CLI command in a fresh process and report its wall time.

    python3 perfbench/command.py SRC PHASE TRACE ARGV...

SRC is the directory holding the unicp package, PHASE names the command
for the per-layer labels, TRACE is 1 to install the probes of probes.py, and
ARGV is what ``unicp.cli.main`` gets. The command is timed around
``cli.main`` only, so interpreter start-up and imports are not part of it.
Before it, ``setup_s`` times importing unicp and building the model that
ARGV describes (null for ``compare``, which names no model).

The last line of stdout is one JSON object: ``rc``, ``seconds``,
``setup_s``, ``maxrss_kb`` and, when traced, ``stats``, ``calib`` and
``absent``.
"""

from time import perf_counter

START = perf_counter()

import contextlib  # noqa: E402  (START must come before every import)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def calibration_counts(tracer) -> dict:
    """Candidates and accept ratio from the records dws_calibrate returned."""
    records = getattr(tracer.returns.get("dws.dws_calibrate"), "records", None)
    if not records:
        return {}
    return {"dws.calib.candidates": len(records),
            "dws.calib.accept_ratio": sum(r.accepted for r in records) / len(records)}


def setup_seconds(cli, argv) -> float | None:
    """Seconds from process start until the model of ARGV is built."""
    try:
        from unicp.model import init_model

        init_model(cli.build_spec(cli.build_parser().parse_args(argv)).model)
    except (ImportError, AttributeError, TypeError, ValueError):
        return None  # a refactored internal; the command still runs
    return perf_counter() - START


def main() -> int:
    src, phase, trace, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    from unicp import cli

    setup_s = None if phase == "compare" else setup_seconds(cli, argv)
    tracer = None
    if trace == "1":
        from probes import Tracer

        tracer = Tracer()
        tracer.phase = phase
        tracer.install()
    sink = io.StringIO()
    rc, error = None, ""
    t0 = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # reported to the parent as a failed command
            error = traceback.format_exc()
    out = {"rc": rc, "seconds": perf_counter() - t0, "setup_s": setup_s,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if rc != 0:
        out["output"] = (error + sink.getvalue())[-2000:]
    if tracer is not None:
        out.update(stats=dict(tracer.stats), calib=calibration_counts(tracer),
                   absent=tracer.absent)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
