"""Dynamic weight shift: calibration, the cache map, and online dispatch.

Calibration reads every unit's input stacks at the calibration steps of
an all-F run, fits a PCA basis per (block, attention-kind) unit from them,
and sweeps the retained width downward, one distinct width at a time,
measuring every calibration step against full attention on the same
inputs, until the unit's sliced output drifts past the error threshold at
any of them (`sweep_widths`). A unit keeps the last width every step
accepted, so its sliced output is within the threshold at every
calibration step. Calibration yields the sliced weights and a record of
every measurement (`calibration.csv`). The units are calibrated one after
another, in unit order. The inputs are the ones a baseline run captured
(`baseline_captures.bin`), so calibration runs no forward step.

Online dispatch decides live per the cache-window scheduler (caching first,
slicing as the fallback tier); replay is `runner.CellExecutor` reading a
cache map's grid. Both run every cell through that one executor, which
writes the trace, and a run's cache map is built from the letters of its
trace (`run_cache_map`), so a replay of an online run's map reproduces it
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .edcw import DecisionKind, SchedulerConfig, edcw_decide
from .linalg import rel_l2
from .metrics import RunTrace
from .model import ATTENTION_KINDS, ModelConfig, attention, attention_weights_for
from .pcas import compute_basis, slice_weights
from .runner import (
    DECISION_BY_LETTER,
    LETTER_FULL,
    LETTER_MAP,
    LETTER_OUTPUT,
    LETTER_PRUNED,
    CellExecutor,
)


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
    run key (a JSON value that `artifacts` checks) of the run that executed it."""

    key: dict
    grid: dict = field(default_factory=dict)  # (block, kind) -> list of letters
    final_n: dict = field(default_factory=dict)  # (block, kind) -> retained dim


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
    x_by_step = captured[unit]
    rotation = compute_basis([x_by_step[step] for step in calib_steps])
    # The all-F run computed these outputs from the same inputs, bit for bit.
    o_full = {step: attention(x_by_step[step], w)[0] for step in calib_steps}
    slices = {}  # n -> SlicedWeights, made when the sweep first reaches n

    def measure(step, n):
        if n not in slices:
            slices[n] = slice_weights(w, rotation, n)
        o_sliced, _ = attention(x_by_step[step], w,
                                qk=(slices[n].wq_sliced, slices[n].wk_sliced))
        return rel_l2(o_sliced, o_full[step])

    final_n, errors = sweep_widths(measure, widths, calib_steps, sched.delta,
                                   cfg.model_dim)
    # calib_steps ascend, so (step, n descending) is the records' order.
    records = [CalibrationRecord(block=block_idx, kind=kind, step=step, candidate_n=n,
                                 measured_error=errors[step, n],
                                 accepted=errors[step, n] <= sched.delta)
               for step, n in sorted(errors, key=lambda sn: (sn[0], -sn[1]))]
    sw = slices[final_n] if final_n in slices else slice_weights(w, rotation, final_n)
    return sw, records


def dws_calibrate(model, cfg: ModelConfig, sched: SchedulerConfig, captured: dict,
                  ratio_bounds=(0.1, 0.4)) -> CalibrationResult:
    """Calibrate per-unit pruning dimensions.

    Returns the sliced weights of each unit and the per-candidate
    calibration records. The cache map comes from an online run with these
    weights (`OnlineDispatcher`). `captured` maps each (block, kind) unit
    to {calibration step: its input stack}, as a baseline's
    `CellExecutor.captured` holds them and `artifacts.load_calib_captures`
    reads them back; no forward step runs. `ratio_bounds` is the (lo, hi)
    pruned-fraction range `cli.build_spec` has checked.
    """
    calib_steps = default_calib_steps(cfg.num_steps)
    widths = candidate_widths(cfg.model_dim, *ratio_bounds)
    units = [(b, kind) for b in range(len(model)) for kind in ATTENTION_KINDS]
    results = [_calibrate_unit(model, cfg, sched, captured, unit, widths, calib_steps)
               for unit in units]
    return CalibrationResult(sliced={unit: sw for unit, (sw, _) in zip(units, results)},
                             records=[r for _, unit_records in results for r in unit_records])
