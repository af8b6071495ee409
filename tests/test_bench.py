import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from radstack.bench import route_completion
from radstack.scene import generate_synthetic_scenario
from radstack.simulator import EpisodeLog


def test_route_completion_partway_through_a_multi_lane_route():
    # intersection_turn: a straight approach from x = 0, a quarter circle of
    # radius 8 drawn as 8 equal chords, then north to the goal at y = 55.
    # The log stops at the fourth arc vertex, before the goal.
    s = generate_synthetic_scenario("intersection_turn", 7)
    approach, turn, _ = s.lanes
    approach_len = approach.points[-1][0]
    chord = 2 * 8.0 * math.sin(math.pi / 32)
    s_start = s.ego.pose.x
    s_end = approach_len + 4 * chord
    s_goal = approach_len + 8 * chord + (s.goal.y - 8.0)
    x, y = turn.points[4]
    log = EpisodeLog(scenario=s, planner_kind="rad", dt=0.1)
    log.records.append({"ego": [float(x), float(y), math.pi / 4, 3.0, 0.0, 0.0]})
    expected = (s_end - s_start) / (s_goal - s_start)
    assert 0.2 < expected < 0.8
    assert route_completion(log) == pytest.approx(expected, rel=1e-12)


def test_perfbench_trace_targets_resolve(monkeypatch):
    # A traced benchmark run swaps each (module, attr) of TARGETS for a
    # wrapper; a renamed or removed name would crash it, so check them here.
    # Some targets exist only to be wrapped: proposals.trajectory_from_arrays
    # is a one-line constructor call, and it is the proposals.materialize span.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look the module up
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
