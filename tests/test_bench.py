import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from radstack.bench import route_completion, run_suite
from radstack.cli import main
from radstack.planhead import init_model, save_model
from radstack.planner import PlannerConfig
from radstack.proposals import ProposalConfig
from radstack.scene import generate_synthetic_scenario, scenario_to_dict
from radstack.simulator import EpisodeLog
from radstack.vocabulary import Vocabulary, save_vocabulary


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


def test_bench_runs_end_to_end_and_repeats_byte_for_byte(tmp_path, capsys):
    # One scenario cut to 1 s, two planners, two toggle presets: 4 rows.
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    doc = scenario_to_dict(generate_synthetic_scenario("blocked_lane", 7))
    (scenarios / "blocked_lane_0007.json").write_text(json.dumps({**doc, "duration": 1.0}))
    formats = ("structured", "text_table", "svg_summary")
    for run in ("a", "b"):
        for fmt in formats:
            argv = [
                "bench", "--scenarios", str(scenarios), "--planners", "rad,baseline_static",
                "--toggles", "full,no_goal", "--format", fmt,
                "--report", str(tmp_path / run / f"report_{fmt}"), "--logs-dir", str(tmp_path / run / f"logs_{fmt}"),
            ]
            assert main(argv) == 0
    assert capsys.readouterr().err == ""

    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert len(files) == len(formats) * (1 + 4)
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), str(rel)

    report = json.loads((tmp_path / "a" / "report_structured").read_text())
    assert set(report) == {"rows", "config"}
    keys = [(r["scenario"], r["planner"], r["toggles"]) for r in report["rows"]]
    assert keys == sorted(keys) and len(keys) == 4
    assert {k[1:] for k in keys} == {(p, t) for p in ("rad", "baseline_static") for t in ("full", "no_goal")}
    table = (tmp_path / "a" / "report_text_table").read_text()
    assert len(table.splitlines()) == 2 + 4 and "latency" not in table


def test_bench_reads_model_and_vocabulary_paths_from_config(tmp_path, capsys):
    # The hybrid planner's assets named only in --config, as `run` reads them.
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    doc = scenario_to_dict(generate_synthetic_scenario("blocked_lane", 7))
    (scenarios / "blocked_lane_0007.json").write_text(json.dumps({**doc, "duration": 0.5}))
    t = np.arange(1, 41) * 0.1
    vocab = Vocabulary(prototypes=np.stack([np.stack([s * t, 0.0 * t], axis=1) for s in (4.0, 8.0)]), dt=0.1)
    save_vocabulary(vocab, tmp_path / "vocab.txt")
    save_model(init_model(vocab, seed=0), tmp_path / "model.npz")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model_path": str(tmp_path / "model.npz"), "vocab_path": str(tmp_path / "vocab.txt")}))
    report = tmp_path / "report.json"
    argv = ["bench", "--scenarios", str(scenarios), "--planners", "hybrid", "--config", str(cfg), "--report", str(report)]
    assert main(argv) == 0, capsys.readouterr().err
    rows = json.loads(report.read_text())["rows"]
    assert [(r["scenario"], r["planner"]) for r in rows] == [("blocked_lane_0007", "hybrid")]


def test_bench_echoes_the_planned_horizon():
    report = run_suite([], ["rad"], planner_cfg=PlannerConfig(proposal=ProposalConfig(horizon=2.0)))
    assert report.config_echo["sim"] == {"dt": 0.1, "horizon": 2.0, "agent_policy": "reactive_idm"}
