"""The checks that bind a run's inputs to its spec, called directly, and the
boundary that keeps file access in `artifacts` and `cli`."""

from pathlib import Path

import numpy as np
import pytest

import unicp
from unicp.artifacts import (
    SLICED_MAGIC,
    MissingArtifactError,
    cache_map_export,
    load_run_inputs,
    save_sliced_weights,
    write_container,
)
from unicp.cli import RunSpec
from unicp.dws import CacheMap
from unicp.edcw import SchedulerConfig
from unicp.model import ModelConfig
from unicp.pcas import SlicedWeights

CFG = ModelConfig(num_blocks=1, model_dim=4, tokens_per_frame=2, num_frames=2, num_steps=3,
                  seed=0)
UNITS = [(0, "spatial"), (0, "temporal")]


def run_spec(mode="replay", delta=0.05, ratio_hi=0.4):
    return RunSpec(model=CFG, scheduler=SchedulerConfig(delta=delta), ratio_lo=0.1,
                   ratio_hi=ratio_hi, mode=mode, preset=None)


def sliced_for(units, n=2):
    return {unit: SlicedWeights(n=n, wq_sliced=np.zeros((4, n)), wk_sliced=np.zeros((4, n)))
            for unit in units}


def write_map(out, grid, final_n, key=None):
    cmap = CacheMap(key=run_spec().key() if key is None else key, grid=grid, final_n=final_n)
    (out / "cache_map.txt").write_text(cache_map_export(cmap))


@pytest.fixture
def out(tmp_path):
    """Replay inputs that pass every check: weights of n=2 for both units
    and a grid with an F, an O and a P in each row."""
    save_sliced_weights(tmp_path / "sliced_weights.bin", sliced_for(UNITS), run_spec().key())
    write_map(tmp_path, {unit: list("FOP") for unit in UNITS}, dict.fromkeys(UNITS, 2))
    return tmp_path


class TestLoadRunInputs:
    def test_matching_inputs_load(self, out):
        sliced, cmap = load_run_inputs(out, run_spec())
        assert {unit: sw.n for unit, sw in sliced.items()} == dict.fromkeys(UNITS, 2)
        assert cmap.grid == {unit: list("FOP") for unit in UNITS}

    def test_online_reads_no_map(self, out):
        (out / "cache_map.txt").write_text("not a cache map\n")
        sliced, cmap = load_run_inputs(out, run_spec("online"))
        assert sorted(sliced) == UNITS and cmap is None
        (out / "sliced_weights.bin").unlink()
        assert load_run_inputs(out, run_spec("online")) == (None, None)

    def test_foreign_sliced_unit(self, out):
        save_sliced_weights(out / "sliced_weights.bin", sliced_for([*UNITS, (1, "spatial")]),
                            run_spec().key())
        for mode in ("online", "replay"):
            with pytest.raises(ValueError, match="sliced_weights.bin holds block 1 spatial, "
                                                 "which the model lacks"):
                load_run_inputs(out, run_spec(mode))

    def test_duplicate_sliced_unit(self, out):
        entry = {"block": 0, "kind": "spatial", "n": 2}
        header = dict(run_spec().key(), units=[entry, entry])
        write_container(out / "sliced_weights.bin", SLICED_MAGIC, header, [np.zeros(32)])
        with pytest.raises(ValueError, match="lists block 0 spatial twice"):
            load_run_inputs(out, run_spec())

    def test_weights_key_mismatch(self, out):
        with pytest.raises(ValueError, match="sliced_weights.bin was made with delta=0.05, "
                                             "but this run has delta=0.1"):
            load_run_inputs(out, run_spec(delta=0.1))

    def test_map_key_mismatch(self, out):
        key = run_spec(ratio_hi=0.3).key()
        write_map(out, {unit: list("FFF") for unit in UNITS}, dict.fromkeys(UNITS, 2), key)
        with pytest.raises(ValueError, match="cache_map.txt was made with ratio_hi=0.3, "
                                             "but this run has ratio_hi=0.4"):
            load_run_inputs(out, run_spec())

    def test_map_key_lacking_a_field(self, out):
        key = {k: v for k, v in run_spec().key().items() if k != "window"}
        write_map(out, {unit: list("FFF") for unit in UNITS}, dict.fromkeys(UNITS, 2), key)
        with pytest.raises(ValueError, match="cache_map.txt run key lacks window"):
            load_run_inputs(out, run_spec())

    @pytest.mark.parametrize("grid, expected", [
        ({UNITS[0]: list("FF"), UNITS[1]: list("FFF")},
         "grid row '0 spatial FF' has 2 letters, but the model runs 3 steps"),
        ({UNITS[0]: list("FFF")}, "cache map has no grid row for block 0 temporal"),
        ({**{unit: list("FFF") for unit in UNITS}, (1, "spatial"): list("FFF")},
         "grid row '1 spatial FFF' names a unit the model lacks"),
        ({UNITS[0]: list("FFF"), UNITS[1]: list("POF")},
         "grid row '0 temporal POF' reuses a cache at step 1 before any F computes one"),
        ({UNITS[0]: list("MFF"), UNITS[1]: list("FFF")},
         "grid row '0 spatial MFF' reuses a cache at step 0 before any F computes one"),
    ], ids=["short", "missing", "foreign", "output-before-f", "map-before-f"])
    def test_grid_that_does_not_fit_the_model(self, out, grid, expected):
        write_map(out, grid, dict.fromkeys(UNITS, 2))
        with pytest.raises(ValueError, match=expected):
            load_run_inputs(out, run_spec())

    def test_pruned_cell_of_a_unit_without_weights(self, out):
        save_sliced_weights(out / "sliced_weights.bin", sliced_for(UNITS[:1]), run_spec().key())
        write_map(out, {unit: list("FFP") for unit in UNITS}, {UNITS[0]: 2})
        with pytest.raises(MissingArtifactError, match="pruned cells at block 0 temporal, but "
                                                       "sliced_weights.bin has no weights for"):
            load_run_inputs(out, run_spec())

    def test_pruned_cell_without_a_weights_file(self, out):
        (out / "sliced_weights.bin").unlink()
        with pytest.raises(MissingArtifactError, match="pruned cells at block 0 spatial, but "
                                                       "sliced_weights.bin is missing"):
            load_run_inputs(out, run_spec())

    def test_final_n_mismatch(self, out):
        write_map(out, {unit: list("FOP") for unit in UNITS}, {UNITS[0]: 3, UNITS[1]: 2})
        with pytest.raises(ValueError, match="cache_map.txt gives block 0 spatial final_n=3, "
                                             "but sliced_weights.bin holds n=2"):
            load_run_inputs(out, run_spec())

    def test_replay_without_a_map(self, out):
        (out / "cache_map.txt").unlink()
        with pytest.raises(MissingArtifactError, match="replay mode needs cache_map.txt"):
            load_run_inputs(out, run_spec())


def test_only_artifacts_and_cli_touch_the_filesystem():
    package = Path(unicp.__file__).parent
    computing = sorted(p for p in package.glob("*.py") if p.stem not in ("artifacts", "cli"))
    assert {"model", "pcas", "dws", "runner", "edcw"} <= {p.stem for p in computing}
    for path in computing:
        source = path.read_text()
        for name in ("open(", "read_bytes", "write_bytes", "read_text", "write_text",
                     "frombuffer"):
            assert name not in source, f"{path.name} names {name}"

