import json
import math

import pytest

from radstack.cli import main
from radstack.config import build_planner_config, build_sim_config, validate_config
from radstack.errors import ConfigError
from radstack.scene import generate_synthetic_scenario, scenario_to_dict


GOOD = {
    "planner": {
        "replan": False,
        "max_paths": 3,
        "horizon_length": 60.0,
        "min_progress": 0,
        "learned_offsets": [-1, 0.5],
        "planhead_budget": "classify_only",
    },
    "weights": {"w_ttc": 4, "w_goal": 0.0},
    "proposal": {"offsets": [-1.0, 0.0, 1.0], "speed_fractions": [0.5, 1], "horizon": 4.0, "dt": 0.1},
    "idm": {"v0": 9.0, "delta": 4},
    "sim": {
        "planner_period": 2,
        "agent_policy": "replay",
        "disturbances": [[30, 2.0]],
        "goal_radius": 0.0,
        "record_breakdowns": True,
    },
    "model_path": "model.json",
}


def test_good_values_pass_and_build():
    validate_config(GOOD)
    planner = build_planner_config(GOOD)
    sim = build_sim_config(GOOD)
    assert planner.max_paths == 3 and planner.learned_offsets == (-1, 0.5)
    assert sim.planner_period == 2 and sim.disturbances == ((30, 2.0),)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("planner", "max_paths", "abc"),
        ("planner", "max_paths", 0),
        ("planner", "max_paths", 2.5),
        ("planner", "replan", 1),
        ("planner", "horizon_length", -5.0),
        ("planner", "learned_offsets", [0.5, "x"]),
        ("planner", "planhead_budget", "all"),
        ("weights", "w_ttc", -1.0),
        ("weights", "w_goal", math.nan),
        ("proposal", "speed_fractions", [0.5, 1.5]),
        ("proposal", "dt", "x"),
        ("idm", "v0", 0),
        ("idm", "delta", True),
        ("sim", "dt", "x"),
        ("sim", "planner_period", 0),
        ("sim", "horizon", math.inf),
        ("sim", "agent_policy", "idm"),
        ("sim", "disturbances", [[30]]),
        ("sim", "deadlock_window", 0.0),
        ("sim", "record_breakdowns", "yes"),
    ],
)
def test_bad_value_names_its_field(section, key, value):
    doc = {section: {key: value}}
    with pytest.raises(ConfigError, match=f"^{section}\\.{key}: expected "):
        validate_config(doc)


def test_sim_seed_is_an_unknown_key():
    # Nothing reads a simulator seed: episodes are deterministic without one.
    with pytest.raises(ConfigError, match="unknown keys in config section 'sim': \\['seed'\\]"):
        validate_config({"sim": {"seed": 3}})


@pytest.mark.parametrize("key", ["model_path", "vocab_path"])
def test_asset_path_must_be_a_string(key):
    with pytest.raises(ConfigError, match=f"^{key}: expected a string"):
        validate_config({key: 5})


def _scenario_file(tmp_path, **overrides):
    doc = scenario_to_dict(generate_synthetic_scenario("blocked_lane", 7))
    doc.update(overrides)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize(
    "seed, message",
    [
        (None, "run: seed: expected an integer, got None\n"),
        (True, "run: seed: expected an integer, got True\n"),
        (1.5, "run: seed: expected an integer, got 1.5\n"),
    ],
)
def test_cli_reports_malformed_scenario_seed_in_one_line(tmp_path, capsys, seed, message):
    assert main(["run", "--scenario", _scenario_file(tmp_path, seed=seed), "--planner", "rad"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize(
    "config, message",
    [
        ({"planner": {"max_paths": "abc"}}, "run: planner.max_paths: expected an integer >= 1, got 'abc'\n"),
        ({"sim": {"dt": "x"}}, "run: sim.dt: expected a finite number > 0, got 'x'\n"),
        ({"sim": {"planner_period": 0}}, "run: sim.planner_period: expected an integer >= 1, got 0\n"),
    ],
)
def test_cli_reports_malformed_config_value_in_one_line(tmp_path, capsys, config, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = ["run", "--scenario", _scenario_file(tmp_path), "--planner", "rad", "--config", str(cfg)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
