import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import unicp.dws
from oracles import baseline_run
from unicp.cli import PRESETS, RunSpec
from unicp.dws import OnlineDispatcher, dws_calibrate, run_cache_map
from unicp.edcw import SchedulerConfig, edcw_decide
from unicp.model import ModelConfig, init_model
from unicp.runner import denoise_run

DESK = dict(num_blocks=6, model_dim=64, tokens_per_frame=64, num_frames=8,
            num_steps=30, seed=42)
TINY = dict(num_blocks=2, model_dim=16, tokens_per_frame=16, num_frames=2,
            num_steps=8, seed=7)


def online_pass(model, cfg, sched, calib):
    """What `run --mode online` does with a calibration's sliced weights (at
    the default ratio bounds): its state, trace and map."""
    dispatcher = OnlineDispatcher(model, sched, calib.sliced)
    state, trace = denoise_run(cfg, dispatcher)
    key = RunSpec(model=cfg, scheduler=sched, ratio_lo=0.1, ratio_hi=0.4, mode="online",
                  preset=None).key()
    cache_map = run_cache_map(trace, key, calib.sliced)
    return SimpleNamespace(state=state, trace=trace, cache_map=cache_map)


@pytest.fixture(scope="session")
def desk_cfg():
    return ModelConfig(**DESK)


@pytest.fixture(scope="session")
def tiny_cfg():
    return ModelConfig(**TINY)


@pytest.fixture(scope="session")
def desk_model(desk_cfg):
    return init_model(desk_cfg)


@pytest.fixture(scope="session")
def tiny_model(tiny_cfg):
    return init_model(tiny_cfg)


@pytest.fixture(scope="session")
def desk_baseline_run(desk_cfg, desk_model):
    return baseline_run(desk_cfg, desk_model)


@pytest.fixture(scope="session")
def desk_baseline(desk_baseline_run):
    return desk_baseline_run.state, desk_baseline_run.trace


@pytest.fixture(scope="session")
def desk_decide_events():
    """preset -> [(step, history, current, decision)], one entry per live
    decide of that preset's online pass; filled by `desk_calibrations`."""
    return {}


@pytest.fixture(scope="session")
def desk_calibrations(desk_cfg, desk_model, desk_baseline_run, desk_decide_events):
    """preset -> (sched, calibration, online pass); the expensive shared
    fixture. Every preset calibrates from the one baseline's captures."""
    out = {}
    for preset, delta in PRESETS.items():
        sched = SchedulerConfig(delta=delta, search_window=4)
        events = desk_decide_events.setdefault(preset, [])

        def recording_decide(history, current, step, cfg, events=events):
            history = tuple(history)
            decision = edcw_decide(history, current, step, cfg)
            events.append((step, history, current, decision))
            return decision

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(unicp.dws, "edcw_decide", recording_decide)
            calib = dws_calibrate(desk_model, desk_cfg, sched, desk_baseline_run.captured)
            out[preset] = (sched, calib, online_pass(desk_model, desk_cfg, sched, calib))
    return out


@pytest.fixture(scope="session")
def tiny_captures(tiny_cfg, tiny_model):
    return baseline_run(tiny_cfg, tiny_model).captured


@pytest.fixture(scope="session")
def tiny_calibration(tiny_cfg, tiny_model, tiny_captures):
    sched = SchedulerConfig(delta=0.075, search_window=4)
    calib = dws_calibrate(tiny_model, tiny_cfg, sched, tiny_captures)
    return sched, calib, online_pass(tiny_model, tiny_cfg, sched, calib)
