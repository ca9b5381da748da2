"""Every artifact format, and every check that binds an artifact to a run's spec.

Only `cli` imports this module; no other module touches the filesystem.
"""

from __future__ import annotations

import json
import math
import zlib
from pathlib import Path

import numpy as np

from .dws import CacheMap, default_calib_steps
from .model import ATTENTION_KINDS, KIND_AXES, SPEC_KEYS, ModelConfig
from .pcas import SlicedWeights
from .runner import DECISION_BY_LETTER, LETTER_MAP, LETTER_OUTPUT, LETTER_PRUNED

BASELINE_STATE = "baseline_state.bin"
BASELINE_TRACE = "baseline_trace.csv"
BASELINE_CAPTURES = "baseline_captures.bin"
CACHE_MAP_FILE = "cache_map.txt"
SLICED_WEIGHTS_FILE = "sliced_weights.bin"
CALIBRATION_FILE = "calibration.csv"
RUN_STATE = "run_state.bin"
RUN_TRACE = "run_trace.csv"
RUN_CACHE_MAP = "run_cache_map.txt"
HARNESS_REPORT = "harness_report.txt"
QUALITY_REPORT = "quality_report.txt"

STATE_MAGIC = b"UNICPST1\n"
CAPTURES_MAGIC = b"UNICPCX1\n"
SLICED_MAGIC = b"UNICPSW1\n"
CACHE_MAP_MAGIC = "unicp-cache-map v2"
CALIBRATION_HEADER = "block,kind,step,candidate_n,measured_error,accepted"


class MissingArtifactError(RuntimeError):
    """A command needs an artifact that is not available; `main` exits 3."""


def require_keys(h, keys, what: str):
    """Raise ValueError naming every key a parsed JSON header lacks."""
    if not isinstance(h, dict):
        raise ValueError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in h]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(missing)}")


def as_number(value, name: str) -> int:
    """Read a header field as an int.

    Raise ValueError naming the field for a boolean, a non-number, a
    fraction or a non-finite value.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a number, got {value!r}") from exc
    if isinstance(value, float) and out != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return out


def read_model_config(header, path) -> ModelConfig:
    """The ModelConfig that `ModelConfig.header` wrote into the file at `path`."""
    require_keys(header, SPEC_KEYS, f"{path}: model header")
    try:
        return ModelConfig(**{name: as_number(header[key], key) for key, name in SPEC_KEYS.items()})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Binary containers: versioned header line + raw little-endian float64 payload.
# ---------------------------------------------------------------------------

def write_container(path, magic: bytes, header: dict, arrays: list[np.ndarray]):
    """Write `magic`, `header` plus the `crc32` of the payload as one sorted
    JSON line, then `arrays` in order as the little-endian float64 payload."""
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
    crc = 0
    for a in arrays:
        crc = zlib.crc32(a, crc)
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(json.dumps(dict(header, crc32=crc), sort_keys=True).encode("utf-8") + b"\n")
        for a in arrays:
            fh.write(a)


def read_container(path, magic: bytes):
    """(header, payload) of a container; the payload is a read-only view.

    Raise ValueError naming `path` for a bad magic, a header line that is
    not JSON, a payload that is not whole float64 values, a payload holding
    a non-finite value, a header that is not an object or lacks `crc32`, and
    a payload whose CRC-32 differs from the header's `crc32`, in that order.
    """
    with open(path, "rb") as fh:
        got = fh.read(len(magic))
        if got != magic:
            raise ValueError(f"{path}: bad magic {got!r}, expected {magic!r}")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: header is not JSON: {exc}") from exc
        try:
            payload = np.frombuffer(fh.read(), dtype="<f8")
        except ValueError as exc:
            raise ValueError(f"{path}: payload is not whole float64 values: {exc}") from exc
    if not np.isfinite(payload).all():
        raise ValueError(f"{path}: payload holds non-finite values")
    require_keys(header, ("crc32",), f"{path}: header")
    if zlib.crc32(payload) != header["crc32"]:
        raise ValueError(f"{path}: payload does not match its crc32 {header['crc32']!r}")
    return header, payload


def _latents(path, payload: np.ndarray, cfg: ModelConfig, count: int) -> np.ndarray:
    """`payload` as `count` arrays of the shape of `cfg`'s latent, or
    ValueError naming `path`."""
    shape = (count, cfg.num_frames, cfg.tokens_per_frame, cfg.model_dim)
    if payload.size != math.prod(shape):
        raise ValueError(f"{path}: payload holds {payload.size} values, "
                         f"expected {math.prod(shape)}")
    return payload.reshape(shape)


def save_state(path, state: np.ndarray, cfg: ModelConfig):
    write_container(path, STATE_MAGIC, cfg.header(), [state])


def load_state(path):
    header, payload = read_container(path, STATE_MAGIC)
    cfg = read_model_config(header, path)
    return _latents(path, payload, cfg, 1)[0].astype(np.float64), cfg


def _units(cfg: ModelConfig) -> list:
    """Every (block, kind) attention unit of `cfg`, in sorted order."""
    return sorted((b, kind) for b in range(cfg.num_blocks) for kind in ATTENTION_KINDS)


def save_calib_captures(path, cfg: ModelConfig, captured: dict):
    """Write the input stack of every attention unit of `cfg` at each of its
    calibration steps, as `CellExecutor.captured` holds them: units in
    sorted (block, kind) order, steps ascending within a unit. The header
    is the model header plus `calib_steps`."""
    steps = default_calib_steps(cfg.num_steps)
    write_container(path, CAPTURES_MAGIC, dict(cfg.header(), calib_steps=steps),
                    [captured[unit][step] for unit in _units(cfg) for step in steps])


def load_calib_captures(path, cfg: ModelConfig) -> dict:
    """(block, kind) -> {calibration step: input stack}, the stacks
    read-only views of the file. Raise ValueError naming `path` when it is
    malformed or was made for another model or other calibration steps
    (naming the first field that differs)."""
    header, payload = read_container(path, CAPTURES_MAGIC)
    require_keys(header, (*cfg.header(), "calib_steps"), f"{path}: header")
    made_for = read_model_config(header, path)
    if not isinstance(header["calib_steps"], list):
        raise ValueError(f"{path}: calib_steps is {header['calib_steps']!r}, not a list")
    steps = [as_number(s, f"{path}: calib_steps") for s in header["calib_steps"]]
    _check_key(dict(cfg.header(), calib_steps=default_calib_steps(cfg.num_steps)),
               dict(made_for.header(), calib_steps=steps), str(path))
    units = _units(cfg)
    stacks = iter(_latents(path, payload, cfg, len(units) * len(steps)))
    # Each stack holds a latent's values in its kind's axis order.
    latent_shape = (cfg.num_frames, cfg.tokens_per_frame, cfg.model_dim)
    shape = {kind: tuple(latent_shape[a] for a in KIND_AXES[kind]) for kind in ATTENTION_KINDS}
    return {unit: {step: next(stacks).reshape(shape[unit[1]]) for step in steps}
            for unit in units}


def save_sliced_weights(path, sliced: dict, header_extra: dict):
    """Write per-unit sliced projections keyed by (block, kind).

    `sliced` maps (block index, attention kind) -> SlicedWeights; the header
    records n per unit plus whatever run parameters the caller passes in
    `header_extra`.
    """
    units = []
    arrays = []
    for (block, kind) in sorted(sliced.keys()):
        sw = sliced[(block, kind)]
        units.append({"block": block, "kind": kind, "n": sw.n})
        arrays.append(sw.wq_sliced)
        arrays.append(sw.wk_sliced)
    header = dict(header_extra)
    header["units"] = units
    write_container(path, SLICED_MAGIC, header, arrays)


def load_sliced_weights(path, model_dim: int):
    """Read the sliced-weight container back into a (block, kind) -> SlicedWeights map.

    Other fields of a unit entry, such as a `calib_steps`, are ignored.
    """
    header, payload = read_container(path, SLICED_MAGIC)
    require_keys(header, ("units",), f"{path}: header")
    if not isinstance(header["units"], list):
        raise ValueError(f"{path}: header units is not a list")
    units = []
    for unit in header["units"]:
        require_keys(unit, ("block", "kind", "n"), f"{path}: unit entry")
        try:
            units.append((as_number(unit["block"], "block"), str(unit["kind"]),
                          as_number(unit["n"], "n")))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed unit entry {unit!r}: {exc}") from exc
    for _, _, n in units:
        if not 1 <= n <= model_dim:
            raise ValueError(f"{path}: retained dimension n={n} out of range [1, {model_dim}]")
    expected = sum(2 * model_dim * n for _, _, n in units)
    if payload.size != expected:
        raise ValueError(f"{path}: payload holds {payload.size} values, its units need {expected}")
    cursor = 0
    out = {}
    for block, kind, n in units:
        size = 2 * model_dim * n
        wq, wk = payload[cursor:cursor + size].reshape(2, model_dim, n).astype(np.float64)
        cursor += size
        if (block, kind) in out:
            raise ValueError(f"{path}: lists block {block} {kind} twice")
        out[(block, kind)] = SlicedWeights(n=n, wq_sliced=wq, wk_sliced=wk)
    return out, header


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
    if i + 1 < len(lines):
        raise ValueError(f"cache map has a line after its end marker: {lines[i + 1]!r}")
    return cmap


def calibration_export(records) -> str:
    """Render calibration records as CSV, in their order; floats use repr."""
    lines = [CALIBRATION_HEADER]
    for r in records:
        lines.append(f"{r.block},{r.kind},{r.step},{r.candidate_n},"
                     f"{r.measured_error!r},{int(r.accepted)}")
    return "\n".join(lines) + "\n"


def _check_key(key: dict, recorded: dict, artifact: str):
    """Reject an artifact made under another run key than `key`, naming
    the first field that differs."""
    require_keys(recorded, key, f"{artifact} run key")
    for field, wanted in key.items():
        if recorded[field] != wanted:
            raise ValueError(f"{artifact} was made with {field}={recorded[field]!r}, "
                             f"but this run has {field}={wanted!r}")


def load_run_inputs(out_dir: Path, spec):
    """(sliced weights or None, replay's cache map or None) of a `run` of
    `spec` (a `cli.RunSpec`) in `out_dir`, checked against the spec. A
    replay without a map or the weights of a P cell raises
    MissingArtifactError; every other mismatch, ValueError."""
    cfg, key = spec.model, spec.key()
    units = set(_units(cfg))
    sliced = None
    sliced_path = out_dir / SLICED_WEIGHTS_FILE
    if sliced_path.exists():
        sliced, header = load_sliced_weights(sliced_path, cfg.model_dim)
        _check_key(key, header, SLICED_WEIGHTS_FILE)
        foreign = sorted(set(sliced) - units)
        if foreign:
            raise ValueError(f"{SLICED_WEIGHTS_FILE} holds " + ", ".join(
                f"block {b} {kind}" for b, kind in foreign) + ", which the model lacks")
    if spec.mode != "replay":
        return sliced, None

    map_path = out_dir / CACHE_MAP_FILE
    if not map_path.exists():
        raise MissingArtifactError(
            f"replay mode needs {CACHE_MAP_FILE} in {out_dir}; "
            f"run `run --mode online --out {out_dir}` first")
    cmap = cache_map_parse(map_path.read_text())
    _check_key(key, cmap.key, CACHE_MAP_FILE)
    for (block, kind), letters in sorted(cmap.grid.items()):
        row = f"{block} {kind} {''.join(letters)}"
        if (block, kind) not in units:
            raise ValueError(f"cache map grid row {row!r} names a unit the model lacks")
        if len(letters) != cfg.num_steps:
            raise ValueError(f"cache map grid row {row!r} has {len(letters)} letters, "
                             f"but the model runs {cfg.num_steps} steps")
        # Only P cells may come before the first F.
        served = "".join(letters).lstrip(LETTER_PRUNED)
        if served[:1] in (LETTER_OUTPUT, LETTER_MAP):
            raise ValueError(f"cache map grid row {row!r} reuses a cache at step "
                             f"{len(letters) - len(served)} before any F computes one")
    missing = min(units - set(cmap.grid), default=None)
    if missing is not None:
        raise ValueError(f"cache map has no grid row for block {missing[0]} {missing[1]}")
    weights_n = {unit: sw.n for unit, sw in (sliced or {}).items()}
    for unit in sorted(cmap.grid):
        if LETTER_PRUNED in cmap.grid[unit] and unit not in weights_n:
            lack = "is missing" if sliced is None else "has no weights for that unit"
            raise MissingArtifactError(f"replay map has pruned cells at block {unit[0]} "
                                       f"{unit[1]}, but {SLICED_WEIGHTS_FILE} {lack}")
    for unit in sorted(set(cmap.final_n) | set(weights_n)):
        if cmap.final_n.get(unit) != weights_n.get(unit):
            raise ValueError(
                f"{CACHE_MAP_FILE} gives block {unit[0]} {unit[1]} "
                f"final_n={cmap.final_n.get(unit)}, but {SLICED_WEIGHTS_FILE} "
                f"holds n={weights_n.get(unit)}: the map was made with other sliced "
                f"weights; run `run --mode online --out {out_dir}` again")
    return sliced, cmap
