"""Every input boundary rejects a bad field with its own documented error type.

Each test starts from a valid document, replaces one field with a value
drawn from VALUES and loads it: the load succeeds or raises that boundary's
error type, never a raw Python exception.
"""

import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radstack.config import build_planner_config, build_sim_config, validate_config
from radstack.errors import ConfigError, ParseError, ValidationError
from radstack.planhead import init_model, load_model, save_model
from radstack.planner import PlannerConfig
from radstack.proposals import MIN_DT, IdmParams, ProposalConfig
from radstack.scene import generate_synthetic_scenario, scenario_from_dict, scenario_to_dict
from radstack.scoring import ScoreWeights
from radstack.simulator import EpisodeLog, SimConfig, load_episode_log, save_episode_log
from radstack.vocabulary import Vocabulary, load_vocabulary, save_vocabulary

from conftest import static_car, straight_scenario

VALUES = [None, True, "x", [], {}, [1], math.nan, 1e400]
EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True)


def _field_paths(doc, prefix=()):
    """The key path of every field of a JSON document, containers included."""
    fields = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in fields:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = copy.deepcopy(value)
    return doc


def _one_field_replaced(doc):
    return st.tuples(st.sampled_from(list(_field_paths(doc))), st.sampled_from(VALUES))


SCENARIO = scenario_to_dict(generate_synthetic_scenario("blocked_lane", 7))

CONFIG = {
    "planner": {"replan": True, "max_paths": 3, "horizon_length": 60.0, "learned_offsets": [-1.0, 0.5]},
    "weights": {"w_ttc": 4.0, "w_goal": 1.0},
    "proposal": {"offsets": [-1.0, 0.0, 1.0], "speed_fractions": [0.5, 1.0], "horizon": 4.0, "dt": 0.1},
    "idm": {"v0": 9.0, "delta": 4.0},
    "sim": {"dt": 0.1, "planner_period": 2, "agent_policy": "replay", "disturbances": [[30, 2.0]]},
    "model_path": "model.json",
}


def _log_lines(tmp_path_factory):
    log = EpisodeLog(scenario=straight_scenario(agents=(static_car("car", 40.0, 0.0),)), planner_kind="rad", dt=0.1)
    for tick in range(3):
        log.records.append(
            {
                "tick": tick,
                "ego": [0.5 * tick, 0.0, 0.0, 5.0, 0.0, 0.0],
                "agents": [["car", 40.0, 0.0, 0.0, 0.0, 2.3, 1.0, "static"]],
                "tag": "idm",
                "breakdown": {"aggregate": 0.5},
            }
        )
    log.proposal_records.append({"tick": 0, "index": 0})
    log.events.append((3, "goal_reached"))
    path = tmp_path_factory.mktemp("log") / "ep.jsonl"
    save_episode_log(log, path)
    return [json.loads(ln) for ln in path.read_text().splitlines()]


def _model_doc(tmp_path_factory):
    t = np.arange(1, 4) * 0.1
    vocab = Vocabulary(prototypes=np.stack([np.stack([s * t, 0.0 * t], axis=1) for s in (4.0, 8.0)]), dt=0.1)
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(init_model(vocab, d=3, h=4, seed=0), path)
    return json.loads(path.read_text())


@EXAMPLES
@given(change=_one_field_replaced(SCENARIO))
def test_scenario_fields_raise_validation_error(change):
    try:
        scenario_from_dict(_replaced(SCENARIO, *change))
    except ValidationError:
        pass


@EXAMPLES
@given(change=_one_field_replaced(CONFIG))
def test_config_fields_raise_config_error(change):
    doc = _replaced(CONFIG, *change)
    try:
        validate_config(doc)
        build_planner_config(doc)
        build_sim_config(doc)
    except ConfigError:
        pass


@pytest.mark.parametrize(
    "cls, kwargs, field",
    [
        (IdmParams, {"v0": math.nan}, "IdmParams.v0"),
        (IdmParams, {"delta": math.inf}, "IdmParams.delta"),
        (IdmParams, {"s0": 0.0}, "IdmParams.s0"),
        (ProposalConfig, {"offsets": (0.0, math.nan)}, "ProposalConfig.offsets[1]"),
        (ProposalConfig, {"offsets": (-math.inf, 0.0)}, "ProposalConfig.offsets[0]"),
        (ProposalConfig, {"speed_fractions": (math.nan,)}, "ProposalConfig.speed_fractions[0]"),
        (ProposalConfig, {"speed_fractions": (0.5, math.inf)}, "ProposalConfig.speed_fractions[1]"),
        (PlannerConfig, {"max_paths": 0}, "PlannerConfig.max_paths"),
        (PlannerConfig, {"max_paths": 2.5}, "PlannerConfig.max_paths"),
        (PlannerConfig, {"horizon_length": -5.0}, "PlannerConfig.horizon_length"),
        (PlannerConfig, {"horizon_length": math.inf}, "PlannerConfig.horizon_length"),
        (PlannerConfig, {"min_progress": -0.1}, "PlannerConfig.min_progress"),
        (PlannerConfig, {"learned_offsets": (0.5, math.nan)}, "PlannerConfig.learned_offsets[1]"),
        (PlannerConfig, {"planhead_budget": "all"}, "PlannerConfig.planhead_budget"),
        (ScoreWeights, {"w_ttc": math.nan}, "ScoreWeights.w_ttc"),
        (ScoreWeights, {"w_goal": math.inf}, "ScoreWeights.w_goal"),
        (ScoreWeights, {"w_dr": -1.0}, "ScoreWeights.w_dr"),
        # Constructor only: an episode at a dt below MIN_DT runs duration / dt planner ticks.
        (SimConfig, {"dt": 1e-6}, "SimConfig.dt"),
        (SimConfig, {"dt": float(np.nextafter(MIN_DT, 0.0))}, "SimConfig.dt"),
        (SimConfig, {"dt": math.nan}, "SimConfig.dt"),
        (SimConfig, {"planner_period": 0}, "SimConfig.planner_period"),
        (SimConfig, {"planner_period": -2}, "SimConfig.planner_period"),
        (SimConfig, {"planner_period": 1.5}, "SimConfig.planner_period"),
        (SimConfig, {"agent_policy": "idm"}, "SimConfig.agent_policy"),
        (SimConfig, {"goal_radius": -0.1}, "SimConfig.goal_radius"),
        (SimConfig, {"goal_radius": math.inf}, "SimConfig.goal_radius"),
        (SimConfig, {"deadlock_window": 0.0}, "SimConfig.deadlock_window"),
        (SimConfig, {"deadlock_displacement": math.nan}, "SimConfig.deadlock_displacement"),
        (SimConfig, {"disturbances": ((3, math.nan),)}, "SimConfig.disturbances[0][1]"),
        (SimConfig, {"disturbances": ((3, 1.0), (0.5, 1.0))}, "SimConfig.disturbances[1][0]"),
        (SimConfig, {"disturbances": ((-2, 1.0),)}, "SimConfig.disturbances[0][0]"),
        (SimConfig, {"disturbances": ((3, 1.0, 0.0),)}, "SimConfig.disturbances[0]"),
        (SimConfig, {"disturbances": ("ab",)}, "SimConfig.disturbances[0]"),
        (SimConfig, {"disturbances": "ab"}, "SimConfig.disturbances"),
    ],
)
def test_config_dataclasses_reject_a_bad_field_by_name(cls, kwargs, field):
    with pytest.raises(ValueError, match=f"^{re.escape(field)}: expected "):
        cls(**kwargs)


def test_config_dataclasses_accept_their_bounds():
    SimConfig(dt=MIN_DT, planner_period=1, goal_radius=0.0, deadlock_displacement=0.0)
    ScoreWeights(w_dr=0.0, w_goal=0.0)
    ProposalConfig(offsets=(-3.0, 0.0, 3.0), speed_fractions=(1.0,))
    PlannerConfig(max_paths=1, min_progress=0.0, learned_offsets=(), planhead_budget="classify_only")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundaries")


def test_episode_log_fields_raise_parse_error(tmp_path_factory, workdir):
    lines = _log_lines(tmp_path_factory)

    @EXAMPLES
    @given(change=_one_field_replaced(lines))
    def check(change):
        path = workdir / "ep.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in _replaced(lines, *change)))
        try:
            load_episode_log(path)
        except ParseError:
            pass

    check()


def test_model_fields_raise_parse_error(tmp_path_factory, workdir):
    doc = _model_doc(tmp_path_factory)

    @EXAMPLES
    @given(change=_one_field_replaced(doc))
    def check(change):
        path = workdir / "model.json"
        path.write_text(json.dumps(_replaced(doc, *change)))
        try:
            load_model(path)
        except ParseError:
            pass

    check()


def test_vocabulary_fields_raise_parse_error(tmp_path_factory, workdir):
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    save_vocabulary(Vocabulary(prototypes=np.zeros((2, 3, 2)), dt=0.1), path)
    tokens = [line.split() for line in path.read_text().splitlines()]
    token_paths = [(i, j) for i, line in enumerate(tokens) for j in range(len(line))]

    @EXAMPLES
    @given(where=st.sampled_from(token_paths), value=st.sampled_from(VALUES))
    def check(where, value):
        edited = _replaced(tokens, where, str(value))
        (workdir / "vocab.txt").write_text("".join(" ".join(line) + "\n" for line in edited))
        try:
            load_vocabulary(workdir / "vocab.txt")
        except ParseError:
            pass

    check()
