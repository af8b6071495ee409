"""The rad and hybrid planners' ticks, and the episode step around them, call
numpy through ufuncs, ndarray methods and slicing only: numpy's Python-level
wrappers cost 1.5-4x their C-level equivalents on the tick's small arrays."""

import numpy as np
import pytest

from radstack import simulator
from radstack.planhead import init_model
from radstack.planner import Planner
from radstack.scene import SCENARIO_KINDS, generate_synthetic_scenario
from radstack.simulator import run_episode

from conftest import four_prototype_vocabulary, with_traffic

# Python-level numpy functions with a C-level form the tick uses instead.
WRAPPERS = (
    "diff",
    "stack",
    "clip",
    "tile",
    "take_along_axis",
    "searchsorted",
    "argmin",
    "nonzero",
    "cumsum",
    "repeat",
    "zeros_like",
    "argmax",
    "append",
    "unique",
    "moveaxis",
)

# The episode step's calls in run_episode, outside Planner.plan.
EPISODE_STEP = ("step_agents", "lqr_track", "bicycle_step", "_ego_collides", "footprint_inside_drivable")


def _forbidden(name, where):
    def call(*args, **kwargs):
        raise AssertionError(f"np.{name} called inside {where}")

    return call


def _guarded(fn, where):
    """fn, failing on any call of WRAPPERS while it runs."""

    def call(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            for name in WRAPPERS:
                mp.setattr(np, name, _forbidden(name, where))
            return fn(*args, **kwargs)

    return call


class GuardedPlanner(Planner):
    """A planner whose plan calls fail on any of WRAPPERS."""

    plan = _guarded(Planner.plan, "Planner.plan")


@pytest.mark.parametrize(
    "scenario",
    [pytest.param(generate_synthetic_scenario(kind, 7), id=kind) for kind in SCENARIO_KINDS]
    + [pytest.param(with_traffic("blocked_lane"), id="moving_agents")]
    + [pytest.param(with_traffic("intersection_turn"), id="moving_agents_turn")],
)
def test_rad_tick_calls_no_python_level_numpy_wrapper(scenario, monkeypatch):
    """The planner tick, and each call of the episode step: agent stepping,
    tracking, ego integration and the event checks."""
    for name in EPISODE_STEP:
        monkeypatch.setattr(simulator, name, _guarded(getattr(simulator, name), name))
    log = run_episode(scenario, GuardedPlanner(scenario, "rad"))
    assert len(log.records) > 0


@pytest.mark.parametrize("kind", ["blocked_lane", "intersection_turn"])
def test_hybrid_tick_calls_no_python_level_numpy_wrapper(kind):
    """The hybrid adds features, the plan head, the vocabulary and the learned rows to the tick."""
    scenario = generate_synthetic_scenario(kind, 7)
    vocab = four_prototype_vocabulary()
    planner = GuardedPlanner(scenario, "hybrid", vocabulary=vocab, model=init_model(vocab, seed=0))
    log = run_episode(scenario, planner)
    assert len(log.records) > 0
