"""Seeded mutations of every file a tiny run reads, each run through `cli.main`.

Each case truncates, flips a byte of, deletes a span of or duplicates a span
of one input of one command: the sliced weights (read by an online run and
by a replay), the cache map, a state file or the calibration captures. Five
readers, four mutations and 20 cases each make 400 mutated runs. Every
binary file carries the crc32 of its payload, so each mutation of one exits
2. A mutated cache map may still be a valid one, so exit 0 is allowed there;
anything else must be a documented exit code, and no exception may escape
`main`.
"""

import random
import shutil

import pytest

from unicp.cli import main

TINY_FLAGS = ["--blocks", "2", "--dim", "16", "--tokens", "16", "--frames", "2",
              "--steps", "8", "--seed", "7", "--preset", "E5"]
MUTATIONS = ("truncate", "flip", "delete", "duplicate")
CASES_PER_MUTATION = 20


def reader(name, d):
    """(the input it mutates, the command that reads it) of reader `name` in
    the artifact directory `d`."""
    run = ["run", "--out", str(d), *TINY_FLAGS]
    return {
        "sliced_weights.bin": ("sliced_weights.bin", [*run, "--mode", "online"]),
        "sliced_weights.bin-replay": ("sliced_weights.bin", [*run, "--mode", "replay"]),
        "cache_map.txt": ("cache_map.txt", [*run, "--mode", "replay"]),
        "baseline_state.bin": ("baseline_state.bin",
                               ["compare", str(d / "baseline_state.bin"),
                                str(d / "run_state.bin")]),
        # Named for the baseline's calibration inputs, kept as unit captures.
        "baseline_latents.bin": ("baseline_captures.bin",
                                 ["calibrate", "--out", str(d), *TINY_FLAGS]),
    }[name]


def mutate(data: bytes, how: str, rng: random.Random) -> bytes:
    i = rng.randrange(len(data))
    if how == "truncate":
        return data[:i]
    if how == "flip":
        return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]
    j = min(len(data), i + rng.randrange(1, 9))
    if how == "delete":
        return data[:i] + data[j:]
    return data[:j] + data[i:j] + data[j:]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    d = tmp_path_factory.mktemp("pristine")
    for argv in (["baseline", "--out", str(d), *TINY_FLAGS],
                 ["calibrate", "--out", str(d), *TINY_FLAGS],
                 ["run", "--mode", "online", "--out", str(d), *TINY_FLAGS]):
        assert main(argv) == 0
    return d


@pytest.mark.parametrize("how", MUTATIONS)
@pytest.mark.parametrize("name", ["sliced_weights.bin", "sliced_weights.bin-replay",
                                  "cache_map.txt", "baseline_state.bin", "baseline_latents.bin"])
def test_mutated_input_exits_with_a_documented_code(pristine, tmp_path, capsys, name, how):
    rng = random.Random(f"{name}-{how}")
    mutated, _ = reader(name, pristine)
    data = (pristine / mutated).read_bytes()
    for case in range(CASES_PER_MUTATION):
        d = tmp_path / str(case)
        shutil.copytree(pristine, d)
        (d / mutated).write_bytes(mutate(data, how, rng))
        _, argv = reader(name, d)
        allowed = (0, 2, 3, 4) if name == "cache_map.txt" else (2,)
        assert main(argv) in allowed, (case, capsys.readouterr().err)
