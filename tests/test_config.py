import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radstack
from radstack.cli import main
from radstack.config import build_planner_config, build_sim_config, validate_config
from radstack.errors import ConfigError
from radstack.scene import generate_synthetic_scenario, scenario_to_dict
from radstack.simulator import EpisodeLog, save_episode_log
from radstack.vocabulary import Vocabulary, save_vocabulary

from conftest import straight_scenario


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
        ("sim", "goal_radius", math.inf),
        ("sim", "agent_policy", "idm"),
        ("sim", "disturbances", [[30]]),
        ("sim", "disturbances", [[3, 1.0], [-2, 1.0]]),
        ("sim", "disturbances", [[3, 1.0], [0.5, 1.0]]),
        ("sim", "deadlock_window", 0.0),
        ("sim", "record_breakdowns", "yes"),
    ],
)
def test_bad_value_names_its_field(section, key, value):
    # The config reader names the field, or the dataclass check after it does
    # (e.g. "sim.dt: SimConfig.dt: expected ..."); a bad element is named by
    # its index, and a bad tick by its pair's index and its own.
    doc = {section: {key: value}}
    element = r"\[1\]" if key in ("learned_offsets", "speed_fractions") else ""
    if key == "disturbances" and len(value) == 2:
        element = r"\[1\]\[0\]"
    with pytest.raises(ConfigError, match=f"^{section}\\.{key}({element}|: [A-Za-z]+\\.{key}{element}): expected "):
        validate_config(doc)
        build_planner_config(doc)
        build_sim_config(doc)


def test_sim_seed_is_an_unknown_key():
    # Nothing reads a simulator seed: episodes are deterministic without one.
    with pytest.raises(ConfigError, match="^sim: unknown keys \\['seed'\\]$"):
        validate_config({"sim": {"seed": 3}})


@pytest.mark.parametrize("key", ["model_path", "vocab_path"])
def test_asset_path_must_be_a_string(key):
    with pytest.raises(ConfigError, match=f"^{key}: expected a string"):
        validate_config({key: 5})


def _in_file(message, what, path):
    """message as the CLI prints it when the loader names the file: `run: malformed {what} {path}: ...`."""
    command, rest = message.split(": ", 1)
    return f"{command}: malformed {what} {path}: {rest}"


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
    path = _scenario_file(tmp_path, seed=seed)
    assert main(["run", "--scenario", path, "--planner", "rad"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _in_file(message, "scenario file", path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["ego"].update(speed=True), "run: ego.speed: expected a finite number, got True\n"),
        (lambda doc: doc["ego"].update(speed="3.5"), "run: ego.speed: expected a finite number, got '3.5'\n"),
        (lambda doc: doc["agents"][0].update(id=None), "run: agents[0].id: expected a string, got None\n"),
        (
            lambda doc: doc["lanes"][0].update(left_adjacent=[1]),
            "run: lanes[0].left_adjacent: expected a string, got [1]\n",
        ),
    ],
)
def test_cli_reports_a_mistyped_scenario_field_in_one_line(tmp_path, capsys, edit, message):
    doc = scenario_to_dict(generate_synthetic_scenario("blocked_lane", 7))
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--planner", "rad"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _in_file(message, "scenario file", path)


@pytest.mark.parametrize(
    "config, message",
    [
        ({"planner": {"max_paths": "abc"}}, "run: planner.max_paths: expected an integer, got 'abc'\n"),
        ({"sim": {"dt": "x"}}, "run: sim.dt: expected a finite number, got 'x'\n"),
        (
            {"planner": {"max_paths": 0}},
            "run: planner.max_paths: PlannerConfig.max_paths: expected an integer >= 1, got 0\n",
        ),
    ],
)
def test_cli_reports_malformed_config_value_in_one_line(tmp_path, capsys, config, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = ["run", "--scenario", _scenario_file(tmp_path), "--planner", "rad", "--config", str(cfg)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _in_file(message, "config file", cfg)


@pytest.mark.parametrize(
    "config, message",
    [
        ({"proposal": {"horizon": 0.01}}, "run: proposal.horizon: ProposalConfig.horizon must be a multiple of dt\n"),
        (
            {"proposal": {"horizon": 0.25, "dt": 0.1}},
            "run: proposal.horizon, proposal.dt: ProposalConfig.horizon must be a multiple of dt\n",
        ),
        (
            {"proposal": {"offsets": [1.0]}},
            "run: proposal.offsets: ProposalConfig.offsets must contain 0 (the centerline)\n",
        ),
        (
            {"proposal": {"offsets": [0.0, 9.0]}},
            "run: proposal.offsets: ProposalConfig.offsets[1]: expected a finite number >= -3.0 and <= 3.0, got 9.0\n",
        ),
        (
            {"proposal": {"speed_fractions": []}},
            "run: proposal.speed_fractions: ProposalConfig.speed_fractions must not be empty\n",
        ),
        # Rejected before any planner runs: the TTC grid at dt = 1e-9 would need gigabytes.
        (
            {"proposal": {"dt": 1e-9, "horizon": 1e-8}},
            "run: proposal.dt, proposal.horizon: ProposalConfig.dt: expected a finite number >= 0.01, got 1e-09\n",
        ),
        (
            {"proposal": {"dt": 0.001}},
            "run: proposal.dt: ProposalConfig.dt: expected a finite number >= 0.01, got 0.001\n",
        ),
        # Rejected before the episode: at sim.dt = 1e-6 a 30 s scenario runs 3e7 ticks.
        ({"sim": {"dt": 0.001}}, "run: sim.dt: SimConfig.dt: expected a finite number >= 0.01, got 0.001\n"),
        ({"sim": {"dt": -1}}, "run: sim.dt: SimConfig.dt: expected a finite number >= 0.01, got -1.0\n"),
        (
            {"sim": {"planner_period": 0}},
            "run: sim.planner_period: SimConfig.planner_period: expected an integer >= 1, got 0\n",
        ),
        (
            {"weights": {"w_ttc": 0, "w_dr": 0, "w_sp": 0, "w_ep": 0, "w_cf": 0}},
            "run: weights.w_ttc, weights.w_dr, weights.w_sp, weights.w_ep, weights.w_cf: "
            "at least one objective weight must be positive\n",
        ),
    ],
)
def test_cli_names_the_config_keys_a_dataclass_check_rejects(tmp_path, capsys, config, message):
    # Values of the right type that a config dataclass's own checks reject,
    # also across keys, as proposal.horizon against proposal.dt.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = ["run", "--scenario", _scenario_file(tmp_path), "--planner", "rad", "--config", str(cfg)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _in_file(message, "config file", cfg)


@pytest.mark.parametrize(
    "line, text, problem",
    [
        (3, "dt nan", "line 3: dt: expected 'dt <a finite number > 0>', got 'dt nan'"),
        (3, "dt -0.1", "line 3: dt: expected 'dt <a finite number > 0>', got 'dt -0.1'"),
        (3, "dt", "line 3: dt: expected 'dt <a finite number > 0>', got 'dt'"),
        (1, "K two", "line 1: K: expected 'K <an integer >= 1>', got 'K two'"),
        (2, "steps 40", "line 2: T: expected 'T <an integer >= 1>', got 'steps 40'"),
        (5, "nan" + " 0.0" * 79, "line 5: prototypes[1][0]: expected a finite number, got 'nan'"),
        (4, "0.0 x" + " 0.0" * 78, "line 4: prototypes[0][1]: expected a finite number, got 'x'"),
        (4, "0.0", "line 4: prototypes[0]: 1 values, expected 80"),
    ],
)
def test_cli_reports_malformed_vocabulary_in_one_line(tmp_path, capsys, line, text, problem):
    path = tmp_path / "vocab.txt"
    save_vocabulary(Vocabulary(prototypes=np.zeros((2, 40, 2)), dt=0.1), path)
    lines = path.read_text().splitlines()
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    argv = ["run", "--scenario", _scenario_file(tmp_path), "--planner", "rad", "--vocab", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"run: malformed vocabulary file {path} {problem}\n"


# -- CLI boundaries: episode logs and numeric flags ---------------------------


def _episode_log_lines(tmp_path):
    """The lines of a small valid log: 12 ticks of straight driving at 5 m/s and one event."""
    log = EpisodeLog(scenario=straight_scenario(), planner_kind="rad", dt=0.1)
    for tick in range(12):
        log.records.append(
            {"tick": tick, "ego": [0.5 * tick, 0.0, 0.0, 5.0, 0.0, 0.0], "agents": [], "tag": "idm", "breakdown": None}
        )
    log.events.append((12, "goal_reached"))
    p = tmp_path / "ep.jsonl"
    save_episode_log(log, p)
    return [json.loads(ln) for ln in p.read_text().splitlines()]


def _cluster_vocab(tmp_path, lines):
    logs = tmp_path / "logs"
    logs.mkdir()
    path = logs / "ep.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
    argv = ["cluster-vocab", "--episodes", str(logs), "--k", "1", "--horizon-steps", "4", "--stride", "2"]
    return main(argv + ["--out", str(tmp_path / "vocab.txt")]), path


def test_cli_clusters_a_valid_episode_log(tmp_path, capsys):
    assert _cluster_vocab(tmp_path, _episode_log_lines(tmp_path))[0] == 0
    assert capsys.readouterr().err == ""


def _set(line, key, value):
    def edit(lines):
        lines[line][key] = value

    return edit


def _drop(line, key):
    def edit(lines):
        del lines[line][key]

    return edit


@pytest.mark.parametrize(
    "edit, problem",
    [
        (_set(0, "dt", None), "line 1: dt: expected a finite number > 0, got None"),
        (_set(0, "dt", -0.1), "line 1: dt: expected a finite number > 0, got -0.1"),
        (lambda lines: lines.__setitem__(0, [1]), "line 1: expected an object, got [1]"),
        (_drop(0, "planner"), "line 1: planner: missing"),
        (_set(0, "scenario", {}), "line 1: scenario: lanes: missing"),
        (lambda lines: lines.pop(0), "line 1: type: expected one of ['header'], got 'tick'"),
        (_set(1, "type", "note"), "line 2: type: expected one of ['tick', 'proposal', 'event'], got 'note'"),
        (_set(1, "ego", [0.0]), "line 2: ego: expected [x, y, heading, speed, accel, steering] as finite numbers, got [0.0]"),
        (_set(1, "agents", [["a", 1.0]]), "line 2: agents: expected a list of [id, x, y, heading, speed, half_length, half_width, kind], got [['a', 1.0]]"),
        (_set(2, "tag", "rules"), "line 3: tag: expected one of ['idm', 'learned', 'learned_offset', 'vocabulary', 'replay'], got 'rules'"),
        (_set(2, "breakdown", {"aggregate": "high"}), "line 3: breakdown: expected null or an object with a finite aggregate, got {'aggregate': 'high'}"),
        (_set(3, "tick", -1), "line 4: tick: expected an integer >= 0, got -1"),
        (_set(3, "ego", [1.5, 0.0, 0.0, -5.0, 0.0, 0.0]), "line 4: ego.speed: must be >= 0"),
        (_set(4, "agents", [["a", 1.0, 2.0, 0.0, 0.0, 2.3, 1.0, "truck"]]), "line 5: agents[a].kind: unknown kind 'truck'"),
        (_set(5, "agents", [["a", 1.0, 2.0, 0.0, 0.0, 2.3, 0.0, "static"]]), "line 6: agents[a]: half extents must be > 0"),
        (_drop(13, "tick"), "line 14: tick: missing"),
        (_set(13, "name", "crash"), "line 14: name: expected one of ['collision', 'off_road', 'goal_reached', 'deadlock', 'off_map_error'], got 'crash'"),
    ],
)
def test_cli_reports_malformed_episode_log_in_one_line(tmp_path, capsys, edit, problem):
    lines = _episode_log_lines(tmp_path)
    edit(lines)
    code, path = _cluster_vocab(tmp_path, lines)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cluster-vocab: malformed episode log {path} {problem}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["gen-scenarios", "--kind", "blocked_lane", "--count", "-1", "--out", "o"], "--count: expected an integer >= 1, got '-1'"),
        (["cluster-vocab", "--episodes", "e", "--k", "0", "--out", "o"], "--k: expected an integer >= 1, got '0'"),
        (["cluster-vocab", "--episodes", "e", "--k", "2", "--stride", "0", "--out", "o"], "--stride: expected an integer >= 1, got '0'"),
        (["cluster-vocab", "--episodes", "e", "--k", "2", "--horizon-steps", "0", "--out", "o"], "--horizon-steps: expected an integer >= 1, got '0'"),
        (["train-head", "--samples", "e", "--vocab", "v", "--epochs", "-3", "--out", "o"], "--epochs: expected an integer >= 1, got '-3'"),
        (["train-head", "--samples", "e", "--vocab", "v", "--lr", "nan", "--out", "o"], "--lr: expected a finite number > 0, got 'nan'"),
        (["train-head", "--samples", "e", "--vocab", "v", "--lr", "0", "--out", "o"], "--lr: expected a finite number > 0, got '0'"),
        (["train-head", "--samples", "e", "--vocab", "v", "--lr", "inf", "--out", "o"], "--lr: expected a finite number > 0, got 'inf'"),
    ],
)
def test_cli_rejects_out_of_range_flags_as_usage_errors(capsys, argv, problem):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"radstack {argv[0]}: error: argument {problem}"


@pytest.mark.parametrize("case", ["existing_file", "under_a_file"])
@pytest.mark.parametrize("command, flag", [("gen-scenarios", "--out"), ("bench", "--logs-dir")])
def test_cli_reports_an_unusable_output_directory_in_one_line(tmp_path, capsys, command, flag, case):
    taken = tmp_path / "taken"
    taken.write_text("")
    target = taken if case == "existing_file" else taken / "sub"
    if command == "gen-scenarios":
        argv = ["gen-scenarios", "--kind", "blocked_lane", "--out", str(target)]
    else:
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        _scenario_file(scenarios, duration=0.3)
        report = str(tmp_path / "report.json")
        argv = ["bench", "--scenarios", str(scenarios), "--planners", "rad", "--report", report, "--logs-dir", str(target)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{command}: {flag} {target}: cannot create directory: ")
    assert captured.err.count("\n") == 1


def test_python_dash_m_radstack_runs_the_cli():
    src = str(Path(radstack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "radstack", "--help"], env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.startswith("usage: radstack")
