"""Per-layer tracing for the benchmark, installed from outside the engine.

Each probe names a public function (or method) of a unicp module. Installing
a probe replaces the function with a timing wrapper in every unicp module
that binds it, so callers that imported it by name (``from .model import
apply_mlp``) go through the wrapper too; methods are replaced on their class.
A probe whose target no longer exists is recorded in ``Tracer.absent`` and
skipped, so a refactor that merges or deletes a function never crashes the
benchmark.

Spans nest: a span's self time is its duration minus the time of the probed
spans inside it. Stats are keyed ``<phase>.<layer>[.<kind>]``, where the
phase is set by the caller around each command. Attention kernels are split
by the ``kind`` argument of the innermost enclosing ``run_unit``; kernel calls
outside any ``run_unit`` (the calibration sweep) get the kind ``sweep``. The
span stack is not thread-safe, so the benchmark pins UNICP_THREADS=1.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Probe:
    module: str  # home module of the target
    target: str  # "function" or "Class.method"
    layer: str  # stats label; several probes may share one (the "io" layer)
    split_kind: bool = False  # label += kind of the enclosing run_unit
    sets_kind: bool = False  # the target takes a `kind` argument (run_unit)
    keep_return: bool = False  # keep the last return value in Tracer.returns


def _layer(module: str, target: str, **flags) -> Probe:
    return Probe(module, target, f"{module.rsplit('.', 1)[-1]}.{target}", **flags)


def _io(module: str, target: str) -> Probe:
    return Probe(module, target, "io")


PROBES = (
    _layer("unicp.runner", "denoise_run"),
    _layer("unicp.runner", "BaselineExecutor.run_unit", sets_kind=True),
    _layer("unicp.dws", "OnlineDispatcher.run_unit", sets_kind=True),
    _layer("unicp.dws", "ReplayDispatcher.run_unit", sets_kind=True),
    _layer("unicp.dws", "dws_calibrate", keep_return=True),
    _layer("unicp.model", "unit_input_stack"),
    _layer("unicp.model", "unit_attention_full", split_kind=True),
    _layer("unicp.model", "unit_attention_from_map"),
    _layer("unicp.model", "apply_mlp"),
    _layer("unicp.pcas", "unit_attention_sliced", split_kind=True),
    _layer("unicp.pcas", "compute_basis"),
    _layer("unicp.pcas", "slice_weights"),
    _layer("unicp.linalg", "sym_eig"),
    _layer("unicp.edcw", "edcw_decide"),
    _layer("unicp.edcw", "drift_vs_previous"),
    _layer("unicp.metrics", "psnr"),
    _layer("unicp.metrics", "ssim"),
    _io("unicp.metrics", "trace_export"),
    _io("unicp.metrics", "trace_parse"),
    _io("unicp.model", "save_state"),
    _io("unicp.model", "load_state"),
    _io("unicp.pcas", "save_sliced_weights"),
    _io("unicp.pcas", "load_sliced_weights"),
    _io("unicp.dws", "cache_map_export"),
    _io("unicp.dws", "cache_map_parse"),
)


class Tracer:
    """Self time and call counts per (phase, layer), plus captured returns."""

    def __init__(self):
        self.phase = "none"
        self.stats = defaultdict(lambda: [0.0, 0])  # key -> [self_s, calls]
        self.returns = {}  # layer -> last return value, for keep_return probes
        self.absent = []  # "module:target" of probes with no target
        self._stack = []  # open spans: [start, child seconds]
        self._kinds = []

    @contextmanager
    def span(self, label: str):
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            duration = perf_counter() - frame[0]
            stat = self.stats[f"{self.phase}.{label}"]
            stat[0] += duration - frame[1]
            stat[1] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def _wrap(self, fn, probe: Probe):
        signature = inspect.signature(fn) if probe.sets_kind else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                self._kinds.append(signature.bind(*args, **kwargs).arguments.get("kind"))
            label = probe.layer
            if probe.split_kind:
                label += "." + (self._kinds[-1] if self._kinds else "sweep")
            try:
                with self.span(label):
                    result = fn(*args, **kwargs)
            finally:
                if signature is not None:
                    self._kinds.pop()
            if probe.keep_return:
                self.returns[probe.layer] = result
            return result

        return traced

    def install(self):
        """Patch every probe's target; call once, before the traced work."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "unicp" or name.startswith("unicp."))]
        for probe in PROBES:
            owner = sys.modules.get(probe.module)
            *path, attr = probe.target.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if not inspect.isfunction(original):
                self.absent.append(f"{probe.module}:{probe.target}")
                continue
            traced = self._wrap(original, probe)
            if path:
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)
