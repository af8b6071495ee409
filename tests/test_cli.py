import xml.etree.ElementTree as ET

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
