"""The rad and hybrid planners' ticks call numpy through ufuncs, ndarray
methods and slicing only: numpy's Python-level wrappers cost 1.5-4x their
C-level equivalents on the tick's small arrays."""

from dataclasses import replace

import numpy as np
import pytest

from radstack.planhead import init_model
from radstack.planner import Planner
from radstack.scene import SCENARIO_KINDS, AgentState, Pose2, generate_synthetic_scenario
from radstack.simulator import run_episode

from conftest import four_prototype_vocabulary

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
)


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"np.{name} called inside Planner.plan")

    return call


class GuardedPlanner(Planner):
    """A planner whose plan calls fail on any of WRAPPERS."""

    def plan(self, ego, agents, t=0.0):
        with pytest.MonkeyPatch.context() as mp:
            for name in WRAPPERS:
                mp.setattr(np, name, _forbidden(name))
            return super().plan(ego, agents, t)


def _with_traffic(scenario):
    """blocked_lane plus a vehicle ahead on each lane, so rollouts follow moving leads."""
    vehicles = tuple(
        AgentState(id=f"vehicle_{i}", pose=Pose2(x, y, 0.0), speed=v, half_length=2.3, half_width=1.0, kind="vehicle")
        for i, (x, y, v) in enumerate([(22.0, 0.0, 4.0), (30.0, 3.5, 6.0)])
    )
    return replace(scenario, agents=scenario.agents + vehicles)


@pytest.mark.parametrize(
    "scenario",
    [pytest.param(generate_synthetic_scenario(kind, 7), id=kind) for kind in SCENARIO_KINDS]
    + [pytest.param(_with_traffic(generate_synthetic_scenario("blocked_lane", 7)), id="moving_agents")],
)
def test_rad_tick_calls_no_python_level_numpy_wrapper(scenario):
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
