"""Dynamic weight shift: calibration, the cache map, and online dispatch.

Calibration captures every unit's inputs at the calibration steps with
all-F cells, fits a PCA basis per (block, attention-kind) unit from them,
and sweeps the retained width downward, one distinct width at a time,
measuring every calibration step, until the unit's sliced output drifts
past the error threshold at any of them (`sweep_widths`). A unit keeps
the last width every step accepted, so its sliced output is within the
threshold at every calibration step. Calibration yields the sliced
weights and a record of every measurement (`calibration.csv`). The units
are independent, so they are calibrated on one thread per usable CPU, and
their results are kept in unit order. Given
the latents a baseline run kept at the calibration steps
(`baseline_latents.bin`), it runs just those steps; without them, one
capture pass from step 0 up to the last calibration step.

Online dispatch decides live per the cache-window scheduler (caching first,
slicing as the fallback tier); replay is `runner.CellExecutor` reading a
cache map's grid. Both run every cell through that one executor, which
writes the trace, and a run's cache map is built from the letters of its
trace (`run_cache_map`), so a replay of an online run's map reproduces it
by construction.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from .edcw import DecisionKind, SchedulerConfig, edcw_decide
from .linalg import rel_l2
from .metrics import RunTrace
from .model import (
    ATTENTION_KINDS,
    ModelConfig,
    as_number,
    attention,
    attention_weights_for,
    init_latent,
    read_container,
    require_keys,
    write_container,
)
from .pcas import compute_basis, slice_weights
from .runner import (
    DECISION_BY_LETTER,
    LETTER_FULL,
    LETTER_MAP,
    LETTER_OUTPUT,
    LETTER_PRUNED,
    CellExecutor,
    denoise_step,
)

CACHE_MAP_MAGIC = "unicp-cache-map v2"
LATENTS_MAGIC = b"UNICPLT1\n"
CALIBRATION_HEADER = "block,kind,step,candidate_n,measured_error,accepted"


@dataclass(frozen=True)
class CalibrationRecord:
    block: int
    kind: str
    step: int
    candidate_n: int
    measured_error: float
    accepted: bool


@dataclass
class CacheMap:
    """Block x attention-kind x step grid of executed strategies, with the
    run key (a JSON value, checked by the caller) of the run that executed it."""

    key: dict
    grid: dict = field(default_factory=dict)  # (block, kind) -> list of letters
    final_n: dict = field(default_factory=dict)  # (block, kind) -> retained dim


def cache_map_export(cmap: CacheMap) -> str:
    lines = [CACHE_MAP_MAGIC, json.dumps(cmap.key, sort_keys=True), "grid"]
    for (block, kind) in sorted(cmap.grid.keys()):
        lines.append(f"{block} {kind} {''.join(cmap.grid[(block, kind)])}")
    lines.append("final_n")
    for (block, kind) in sorted(cmap.final_n.keys()):
        lines.append(f"{block} {kind} {cmap.final_n[(block, kind)]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _map_row(line: str, section: str, cast=str):
    """Split a grid or final_n row into (block, kind, cast(value)), naming
    the row when it is malformed."""
    try:
        block, kind, value = line.split()
        return int(block), kind, cast(value)
    except ValueError as exc:
        raise ValueError(f"cache map {section} row {line!r} is malformed: {exc}") from exc


def cache_map_parse(text: str) -> CacheMap:
    lines = text.splitlines() or [""]
    if lines[0] != CACHE_MAP_MAGIC:
        raise ValueError(f"cache map starts with {lines[0]!r}, not {CACHE_MAP_MAGIC!r}")
    if len(lines) < 3 or lines[2] != "grid":
        raise ValueError("cache map is missing its grid section")
    try:
        cmap = CacheMap(key=json.loads(lines[1]))
    except json.JSONDecodeError as exc:
        raise ValueError(f"cache map key line is not JSON: {exc}") from exc
    i = 3
    while i < len(lines) and lines[i] != "final_n":
        block, kind, letters = _map_row(lines[i], "grid")
        if any(ch not in DECISION_BY_LETTER for ch in letters):
            raise ValueError(f"cache map row has letters outside F/O/M/P: {lines[i]!r}")
        if (block, kind) in cmap.grid:
            raise ValueError(f"cache map lists a grid row twice: {lines[i]!r}")
        cmap.grid[(block, kind)] = list(letters)
        i += 1
    if i >= len(lines):
        raise ValueError("cache map is missing its final_n section")
    i += 1
    while i < len(lines) and lines[i] != "end":
        block, kind, n = _map_row(lines[i], "final_n", int)
        if (block, kind) in cmap.final_n:
            raise ValueError(f"cache map lists a final_n row twice: {lines[i]!r}")
        cmap.final_n[(block, kind)] = n
        i += 1
    if i >= len(lines):
        raise ValueError("cache map is missing its end marker")
    return cmap


def check_cache_map_units(cmap: CacheMap, cfg: ModelConfig):
    """Raise ValueError, naming the row, unless the grid has one row of
    `cfg.num_steps` letters for each unit of the model and no row reuses a
    cache (O or M) before its first F."""
    units = {(b, kind) for b in range(cfg.num_blocks) for kind in ATTENTION_KINDS}
    for (block, kind), letters in sorted(cmap.grid.items()):
        row = f"{block} {kind} {''.join(letters)}"
        if (block, kind) not in units:
            raise ValueError(f"cache map grid row {row!r} names a unit the model lacks")
        if len(letters) != cfg.num_steps:
            raise ValueError(f"cache map grid row {row!r} has {len(letters)} letters, "
                             f"but the model runs {cfg.num_steps} steps")
        for step, letter in enumerate(letters):
            if letter == LETTER_FULL:
                break
            if letter in (LETTER_OUTPUT, LETTER_MAP):
                raise ValueError(f"cache map grid row {row!r} reuses a cache at step {step} "
                                 f"before any F computes one")
    missing = sorted(units - set(cmap.grid))
    if missing:
        block, kind = missing[0]
        raise ValueError(f"cache map has no grid row for block {block} {kind}")


# ---------------------------------------------------------------------------
# Online dispatch and the run's map.
# ---------------------------------------------------------------------------

class OnlineDispatcher(CellExecutor):
    """Live scheduling: serve an armed cache, else full-compute and decide.

    A decide step executes the fresh full result (recorded as F, with the
    matched window in the trace when it armed a cache). A miss on both cache
    tiers executes sliced attention when the unit has sliced weights with
    n below the width m (the rows of their `wq_sliced`), else falls back to
    full. The fresh F enters the unit's ring before the decide, so the
    entry at distance K survives. The rings have no fixed depth: after the
    decide the ring drops every entry more than K steps before the unit's
    next decide (at step + k, k the armed window or 1), since no later
    decide can read it, which bounds it at K + 1 entries. The arming F, the
    newest entry, always stays for the O and M cells it serves. `armed`
    maps a unit to the letter, window and last step of the cache its latest
    hit armed. Its trace rows carry no drift: the decide measures its own
    distances.
    """

    def __init__(self, model, sched: SchedulerConfig, sliced_weights: dict | None = None):
        super().__init__(model, sliced_weights)
        self.depth = None  # `decide` trims the rings.
        self.sched = sched
        self.armed = {}  # (block, kind) -> (letter, window, last step served)

    def letter(self, unit, step: int):
        armed = self.armed.get(unit)
        if armed is not None and step <= armed[2]:
            return armed[0], armed[1]
        return LETTER_FULL, None

    def decide(self, unit, step: int):
        ring = self.rings[unit]
        decision = edcw_decide(ring, ring[-1][1], step, self.sched)
        window = decision.window
        if window is not None:
            served = LETTER_OUTPUT if decision.kind is DecisionKind.REUSE_OUTPUT else LETTER_MAP
            self.armed[unit] = (served, window, step + window - 1)
        horizon = step + (window or 1) - self.sched.search_window
        while ring[0][0] < horizon:
            ring.popleft()
        sw = self.sliced.get(unit)
        if decision.kind is DecisionKind.PRUNED and sw is not None and sw.n < sw.wq_sliced.shape[0]:
            return LETTER_PRUNED, window
        return LETTER_FULL, window


def run_cache_map(trace: RunTrace, key: dict, sliced: dict | None) -> CacheMap:
    """The cache map of a finished run: each attention unit's letters from
    its trace rows in step order, and final_n from the sliced weights."""
    letter_of = {decision: letter for letter, decision in DECISION_BY_LETTER.items()}
    cmap = CacheMap(key=key, final_n={unit: sw.n for unit, sw in (sliced or {}).items()})
    for row in trace.rows:
        if row.kind in ATTENTION_KINDS:
            cmap.grid.setdefault((row.block, row.kind), []).append(letter_of[row.decision])
    return cmap


# ---------------------------------------------------------------------------
# Calibration.
# ---------------------------------------------------------------------------

def default_calib_steps(num_steps: int) -> list[int]:
    """First step of each third of the schedule."""
    return sorted({0, num_steps // 3, (2 * num_steps) // 3})


def candidate_widths(m: int, lo: float, hi: float) -> list[int]:
    """The distinct retained widths of the pruned fractions lo, lo + 0.05,
    ... up to hi (the last clamped to hi), widest first."""
    widths = set()
    i = 0
    while (frac := lo + 0.05 * i) <= hi + 1e-9:
        widths.add(math.ceil(m * (1.0 - min(frac, hi))))
        i += 1
    return sorted(widths, reverse=True)


@dataclass
class CalibrationResult:
    sliced: dict  # (block, kind) -> SlicedWeights
    # CalibrationRecord of every (step, n) the sweep measured, in (block,
    # kind, step, n descending) order; `calibration_export` writes them.
    records: list


def sweep_widths(measure, widths, steps, delta: float, m: int):
    """Return (final_n, errors) of one unit's width sweep.

    Goes one width at a time, widest first, measuring `measure(step, n)` at
    every step, in `steps` order, and ends at the first error above
    `delta`. final_n is the last width every step accepted: the width
    before the rejected one, m when the first width was rejected, and the
    last width when none was. `errors` maps each measured (step, n) to its
    error, in the order measured.
    """
    errors = {}
    final_n = m
    for n in widths:
        for step in steps:
            errors[step, n] = measure(step, n)
            if errors[step, n] > delta:
                return final_n, errors
        final_n = n
    return final_n, errors


def _calibrate_unit(model, cfg, sched, captured, unit, widths, calib_steps):
    block_idx, kind = unit
    w = attention_weights_for(model[block_idx], kind)
    per_step = captured[unit]
    instances = [x for step in calib_steps for x in per_step[step][0]]
    rotation = compute_basis(instances)
    slices = {}  # n -> SlicedWeights, made when the sweep first reaches n

    def measure(step, n):
        if n not in slices:
            slices[n] = slice_weights(w, rotation, n)
        x_stack, o_full = per_step[step]
        o_sliced, _ = attention(x_stack, w, qk=(slices[n].wq_sliced, slices[n].wk_sliced))
        return rel_l2(o_sliced, o_full)

    final_n, errors = sweep_widths(measure, widths, calib_steps, sched.delta,
                                   cfg.model_dim)
    # calib_steps ascend, so (step, n descending) is the records' order.
    records = [CalibrationRecord(block=block_idx, kind=kind, step=step, candidate_n=n,
                                 measured_error=errors[step, n],
                                 accepted=errors[step, n] <= sched.delta)
               for step, n in sorted(errors, key=lambda sn: (sn[0], -sn[1]))]
    sw = slices[final_n] if final_n in slices else slice_weights(w, rotation, final_n)
    return sw, records


def calibration_export(records) -> str:
    """Render calibration records as CSV, in their order; floats use repr."""
    lines = [CALIBRATION_HEADER]
    for r in records:
        lines.append(f"{r.block},{r.kind},{r.step},{r.candidate_n},"
                     f"{r.measured_error!r},{int(r.accepted)}")
    return "\n".join(lines) + "\n"


def save_calib_latents(path, cfg: ModelConfig, latents: dict):
    """Write the latents entering each calibration step of `cfg`, in step
    order, under the model header plus `calib_steps` and the `crc32` of the
    payload."""
    steps = default_calib_steps(cfg.num_steps)
    payload = np.stack([latents[step] for step in steps]).astype("<f8", copy=False)
    write_container(path, LATENTS_MAGIC,
                    dict(cfg.header(), calib_steps=steps, crc32=zlib.crc32(payload)), [payload])


def load_calib_latents(path, cfg: ModelConfig) -> dict | None:
    """step -> the latent entering it, as read-only views of the file, or
    None when the file was made for another model or other calibration
    steps. Raise ValueError naming `path` when it is malformed or its
    payload does not match its checksum."""
    header, payload = read_container(path, LATENTS_MAGIC)
    require_keys(header, (*cfg.header(), "calib_steps", "crc32"), f"{path}: header")
    try:
        made_for = ModelConfig.from_header(header)
        if not isinstance(header["calib_steps"], list):
            raise ValueError(f"calib_steps is {header['calib_steps']!r}, not a list")
        steps = [as_number(s, "calib_steps") for s in header["calib_steps"]]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if made_for != cfg or steps != default_calib_steps(cfg.num_steps):
        return None
    shape = (len(steps), cfg.num_frames, cfg.tokens_per_frame, cfg.model_dim)
    if payload.size != math.prod(shape):
        raise ValueError(f"{path}: payload holds {payload.size} values, "
                         f"expected {math.prod(shape)}")
    if zlib.crc32(payload) != header["crc32"]:
        raise ValueError(f"{path}: payload does not match its crc32 {header['crc32']!r}")
    return dict(zip(steps, payload.reshape(shape)))


def dws_calibrate(model, cfg: ModelConfig, sched: SchedulerConfig,
                  ratio_bounds=(0.1, 0.4), latents: dict | None = None) -> CalibrationResult:
    """Calibrate per-unit pruning dimensions.

    Returns the sliced weights of each unit and the per-candidate
    calibration records. The cache map comes from an online run with these
    weights (`OnlineDispatcher`). One loop of `denoise_step` captures the
    units' inputs: `latents` maps each calibration step to the latent
    entering it (as `load_calib_latents` reads them), and with it only
    those steps run; without it the loop runs from `init_latent` at step 0
    up to the last calibration step. Both capture the same bits.
    `ratio_bounds` is the (lo, hi) pruned-fraction range `cli.build_spec`
    has checked.
    """
    # Imported here so that commands that never calibrate skip its cost.
    from concurrent.futures import ThreadPoolExecutor

    calib_steps = default_calib_steps(cfg.num_steps)
    # Nothing reads its rings, so the capture pass keeps no attention map.
    capture = CellExecutor(model, capture_steps=calib_steps)
    if latents is None:
        # Only the calibration steps' captures are read, so the loop stops
        # at the last of them.
        steps, state = range(max(calib_steps) + 1), init_latent(cfg)
    else:
        steps = calib_steps
    for step in steps:
        if latents is not None:
            state = latents[step]
        state = denoise_step(cfg, capture, state, step, RunTrace())

    widths = candidate_widths(cfg.model_dim, *ratio_bounds)
    units = [(b, kind) for b in range(len(model)) for kind in ATTENTION_KINDS]

    def calibrate(unit):
        return _calibrate_unit(model, cfg, sched, capture.captured, unit, widths, calib_steps)

    # Units are independent and numpy's kernels release the GIL, so each
    # usable CPU sweeps one unit at a time. map yields in unit order,
    # whatever order the units finish in.
    with ThreadPoolExecutor(min(len(units), len(os.sched_getaffinity(0)))) as pool:
        results = list(pool.map(calibrate, units))
    return CalibrationResult(sliced={unit: sw for unit, (sw, _) in zip(units, results)},
                             records=[r for _, unit_records in results for r in unit_records])
