import json
import xml.etree.ElementTree as ET

import pytest

from radstack.cli import main
from radstack.simulator import load_episode_log

SVG_LINE = "{http://www.w3.org/2000/svg}line"


def test_cli_commands_chain_from_scenarios_to_a_hybrid_run(tmp_path, monkeypatch, capsys):
    # Each command's success path, in process, each reading what the one
    # before it wrote: scenario file, episode log, SVG, vocabulary, model,
    # and the hybrid planner's episode log.
    monkeypatch.delenv("RADSTACK_SEED", raising=False)
    scenario = tmp_path / "scenarios" / "blocked_lane_0007.json"
    log = tmp_path / "logs" / "rad.jsonl"
    svg = tmp_path / "rad.svg"
    vocab = tmp_path / "vocab.json"
    model = tmp_path / "model.json"
    hybrid_log = tmp_path / "hybrid.jsonl"
    log.parent.mkdir()  # run writes its log into an existing directory
    commands = [
        ["gen-scenarios", "--kind", "blocked_lane", "--seed", "7", "--out", str(scenario.parent)],
        ["run", "--scenario", str(scenario), "--planner", "rad", "--log", str(log), "--breakdowns"],
        ["render", "--log", str(log), "--out", str(svg)],
        ["cluster-vocab", "--episodes", str(log.parent), "--k", "4", "--out", str(vocab)],
        ["train-head", "--samples", str(log.parent), "--vocab", str(vocab), "--epochs", "2", "--out", str(model)],
        ["run", "--scenario", str(scenario), "--planner", "hybrid", "--vocab", str(vocab), "--model", str(model),
         "--log", str(hybrid_log)],
    ]
    for argv, written in zip(commands, (scenario, log, svg, vocab, model, hybrid_log)):
        assert main(argv) == 0, capsys.readouterr().err
        assert written.stat().st_size > 0, argv[0]
    assert load_episode_log(hybrid_log).planner_kind == "hybrid"
    records = load_episode_log(log).records
    assert len(records) > 1
    assert len(list(ET.parse(svg).getroot().iter(SVG_LINE))) == len(records) - 1


def test_every_output_flag_creates_its_directory(tmp_path, monkeypatch, capsys):
    # Each of the five file outputs into a fresh nested directory, which the
    # command creates as gen-scenarios --out and bench --logs-dir create theirs.
    monkeypatch.delenv("RADSTACK_SEED", raising=False)
    scenarios = tmp_path / "scenarios"
    assert main(["gen-scenarios", "--kind", "intersection_turn", "--seed", "7", "--out", str(scenarios)]) == 0
    log = tmp_path / "run" / "logs" / "rad.jsonl"
    outputs = {
        "run": log,
        "render": tmp_path / "render" / "svg" / "rad.svg",
        "cluster-vocab": tmp_path / "vocab" / "k4" / "vocab.json",
        "train-head": tmp_path / "model" / "e2" / "model.json",
        "bench": tmp_path / "bench" / "reports" / "report.json",
    }
    commands = {
        "run": ["--scenario", str(scenarios / "intersection_turn_0007.json"), "--planner", "rad", "--log"],
        "render": ["--log", str(log), "--out"],
        "cluster-vocab": ["--episodes", str(log.parent), "--k", "4", "--out"],
        "train-head": ["--samples", str(log.parent), "--vocab", str(outputs["cluster-vocab"]), "--epochs", "2",
                       "--out"],
        "bench": ["--scenarios", str(scenarios), "--planners", "baseline-static", "--report"],
    }
    for command, path in outputs.items():
        assert main([command, *commands[command], str(path)]) == 0, capsys.readouterr().err
        assert path.stat().st_size > 0, command

    # A directory that cannot be made: the command names the flag in one line.
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    capsys.readouterr()
    for command, flag in (("run", "--log"), ("render", "--out"), ("bench", "--report")):
        assert main([command, *commands[command], str(blocker / "sub" / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"{command}: {flag} {blocker / 'sub'}: cannot create directory"), err


def test_bench_rejects_an_empty_planner_or_toggle_list(tmp_path, monkeypatch, capsys):
    # A list that names nothing is a usage error naming its flag, not a 0-row report.
    monkeypatch.delenv("RADSTACK_SEED", raising=False)
    scenarios = tmp_path / "scenarios"
    assert main(["gen-scenarios", "--kind", "blocked_lane", "--seed", "7", "--out", str(scenarios)]) == 0
    report = tmp_path / "report.json"
    capsys.readouterr()
    for flag, other in (("--planners", []), ("--toggles", ["--planners", "rad"])):
        for empty in ("", " , "):
            with pytest.raises(SystemExit) as exit_info:
                main(["bench", "--scenarios", str(scenarios), *other, flag, empty, "--report", str(report)])
            assert exit_info.value.code == 2
            assert f"argument {flag}: no name in {empty!r}" in capsys.readouterr().err
    assert not report.exists()


def test_bench_names_the_scenario_file_it_cannot_load(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("RADSTACK_SEED", raising=False)
    scenarios = tmp_path / "scenarios"
    assert main(["gen-scenarios", "--kind", "blocked_lane", "--seed", "7", "--count", "2", "--out", str(scenarios)]) == 0
    bad = sorted(scenarios.glob("*.json"))[1]
    doc = json.loads(bad.read_text())
    doc["ego"]["speed"] = -1.0
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["bench", "--scenarios", str(scenarios), "--planners", "rad", "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"bench: malformed scenario file {bad}: ego.speed: must be >= 0\n"
