"""Tests of the benchmark's own helpers: inputs, statistics, checks, tracing."""

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from radstack import generate_synthetic_scenario
from radstack.planner import PlanResult
from radstack.scene import SCENARIO_KINDS, scenario_from_dict, scenario_to_dict, trajectory_from_arrays
from radstack.scoring import RelaxationState

import closedloop
import compare
import hostspeed
import tracing
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- traffic generator ---------------------------------------------------------


def _traffic(kind, seed=3):
    kind_index = SCENARIO_KINDS.index(kind)
    base = generate_synthetic_scenario(kind, 11)
    return base, workloads.add_traffic(base, seed, kind_index)


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_traffic_round_trips_through_scenario_from_dict(kind):
    base, scenario = _traffic(kind)
    again = scenario_from_dict(scenario_to_dict(scenario))
    assert scenario_to_dict(again) == scenario_to_dict(scenario)
    moving = [a for a in scenario.agents if a.id.startswith("traffic_")]
    # The intersection's single lane chain holds only 6 or 7 at this spacing.
    assert workloads.TRAFFIC_VEHICLES - 2 <= len(moving) <= workloads.TRAFFIC_VEHICLES
    assert all(a.kind == "vehicle" and a.speed > 0 for a in moving)
    assert scenario.duration == min(base.duration, workloads.TRAFFIC_DURATION_S)


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_traffic_keeps_its_spacing(kind):
    _, scenario = _traffic(kind)
    ego = (scenario.ego.pose.x, scenario.ego.pose.y)
    pts = [(a.pose.x, a.pose.y) for a in scenario.agents]
    for i, p in enumerate(pts):
        if scenario.agents[i].id.startswith("traffic_"):
            assert math.dist(p, ego) >= workloads.TRAFFIC_EGO_CLEARANCE
        for q in pts[i + 1 :]:
            assert math.dist(p, q) >= workloads.TRAFFIC_SPACING


def test_traffic_is_a_function_of_the_seed():
    _, a = _traffic("blocked_lane", seed=5)
    _, b = _traffic("blocked_lane", seed=5)
    _, c = _traffic("blocked_lane", seed=6)
    assert scenario_to_dict(a) == scenario_to_dict(b)
    assert scenario_to_dict(a) != scenario_to_dict(c)


def test_measured_and_setup_seeds_are_disjoint():
    for seed in range(20):
        measured = workloads.measured_scenario_seeds(seed)
        setup = workloads.setup_scenario_seeds(seed)
        assert all(workloads.MEASURED_SEEDS[0] <= s < workloads.MEASURED_SEEDS[1] for s in measured)
        assert all(workloads.SETUP_SEEDS[0] <= s < workloads.SETUP_SEEDS[1] for s in setup)


# -- percentile helper -----------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    values = np.arange(1, 1001, dtype=float)
    assert closedloop.percentile_with_tail(values, 99) == 990.0
    assert closedloop.percentile_with_tail(values, 50) == 500.0
    with pytest.raises(ValueError, match="at least 10 samples beyond"):
        closedloop.percentile_with_tail(values[:999], 99)


def test_highest_percentile():
    assert closedloop.highest_percentile(1000) == 99.0
    assert closedloop.highest_percentile(1500) == 99.3
    assert closedloop.highest_percentile(10) == 0.0
    n = 1234
    q = closedloop.highest_percentile(n)
    closedloop.percentile_with_tail(np.arange(n), q)  # does not raise


# -- host clock -------------------------------------------------------------------


class FakeClock:
    """Each call advances time by one unit."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_host_clock_cuts_out_slices_and_scales_each_stretch(monkeypatch):
    now = [0.0]
    slice_s = [1.0, 2.0, 4.0, 8.0]

    def calibration_slice():
        now[0] += slice_s.pop(0)

    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(hostspeed, "calibration_slice", calibration_slice)
    monkeypatch.setattr(hostspeed, "REF_SLICE_S", 8.0)
    clock = hostspeed.HostClock()
    for _ in range(3):
        now[0] += 10.0
        clock.checkpoint()
    now[0] += 10.0
    assert clock.slices == [1.0, 2.0, 4.0, 8.0]
    assert clock.wall() == 40.0  # 55 s in all, less 15 s of slices
    # Stretch k, from wall 10k, scales by 8 over the median of slices k-1 .. k+2.
    medians = [2.0, 3.0, 4.0, 6.0]
    expected = [10 * 8 / m for m in medians] + [5 * 8 / 2.0 + 5 * 8 / 3.0]
    got = clock.scale([(0, 10), (10, 20), (20, 30), (30, 40), (5, 15)])
    assert list(got) == pytest.approx(expected)


# -- output checks and failure accounting -------------------------------------


def _straight_plan(ego, offset=0.0, steps=workloads.HORIZON_STEPS):
    t = np.arange(steps + 1) * 0.1
    c, s = math.cos(ego.pose.heading), math.sin(ego.pose.heading)
    v = max(ego.speed, 1.0)
    xy = np.stack([ego.pose.x + c * v * t, ego.pose.y + s * v * t + offset], axis=1)
    heads = np.full(steps + 1, ego.pose.heading)
    speeds = np.full(steps + 1, v)
    traj = trajectory_from_arrays(0.1, xy, heads, speeds, "idm")
    return PlanResult(
        trajectory=traj, breakdowns=[], proposals=None, paths=[], stage_times=[],
        relax=RelaxationState(), replan_root_gap=0.0,
    )


class StubPlanner:
    kind = "rad"

    def __init__(self, error=None, offset=0.0):
        self.error = error
        self.offset = offset

    def plan(self, ego, agents, t=0.0):
        if self.error is not None:
            raise self.error
        return _straight_plan(ego, self.offset)


def test_trajectory_problems():
    ego = generate_synthetic_scenario("lane_change_required", 1).ego
    assert closedloop.trajectory_problems(_straight_plan(ego).trajectory, ego) == []
    short = _straight_plan(ego, steps=30).trajectory
    assert "horizon" in closedloop.trajectory_problems(short, ego)[0]
    moved = closedloop.trajectory_problems(_straight_plan(ego, offset=0.5).trajectory, ego)
    assert moved and "from the ego" in moved[0]
    bad = _straight_plan(ego).trajectory
    bad.speeds[3] = np.nan
    assert "non-finite sample" in closedloop.trajectory_problems(bad, ego)


def _lap():
    return [(k, generate_synthetic_scenario(k, 1)) for k in ("lane_change_required", "intersection_turn")]


def test_failure_accounting_records_the_error_and_goes_on():
    planners = {
        "lane_change_required": StubPlanner(ValueError("paths must be nonempty")),
        "intersection_turn": StubPlanner(),
    }
    lap = _lap()
    by_scenario = {id(sc): planners[name] for name, sc in lap}
    rec = closedloop.Recorder(budget=25)
    loop = closedloop.run_closed_loop(lap, lambda sc: by_scenario[id(sc)], rec)
    summary = closedloop.outcome_summary(loop.episodes)
    assert rec.ticks == 25  # the run went on to the next episode
    assert summary["attempted"] == 2 and summary["failed"] == 1
    assert summary["error_rate"] == 0.5
    assert summary["rows"] == [
        {"scenario": "lane_change_required", "outcome": "error",
         "error": "ValueError: paths must be nonempty"}
    ]
    assert loop.episodes[-1].cut


def test_a_lap_of_failures_ends_the_run():
    rec = closedloop.Recorder(budget=1000)
    loop = closedloop.run_closed_loop(_lap(), lambda sc: StubPlanner(RuntimeError("boom")), rec)
    assert rec.ticks == 0 and len(loop.episodes) == 2
    assert closedloop.outcome_summary(loop.episodes)["failed"] == 2


def test_output_check_failure_counts_the_episode_as_failed():
    rec = closedloop.Recorder(budget=10)
    loop = closedloop.run_closed_loop(_lap(), lambda sc: StubPlanner(offset=0.5), rec)
    summary = closedloop.outcome_summary(loop.episodes)
    assert summary["failed"] == 1 and summary["attempted"] == 1
    assert len(summary["output_check_failures"]) == 10


def test_repeats_and_digest():
    a = closedloop.EpisodeRecord("s", 0, row={"scenario": "s", "outcome": "goal_reached"},
                                 ego_trace=[(0, 0), (1, 0)])
    cut = closedloop.EpisodeRecord("s", 1, cut=True, ego_trace=[(0, 0)])
    same = closedloop.EpisodeRecord("s", 2, row=dict(a.row), ego_trace=list(a.ego_trace))
    other = closedloop.EpisodeRecord("s", 3, row={"scenario": "s", "outcome": "timeout"},
                                     ego_trace=list(a.ego_trace))
    assert closedloop.repeat_mismatches([a, cut, same]) == []
    assert closedloop.repeat_mismatches([a, other]) == ["s (lap 3)"]
    rows = [a.row]
    assert closedloop.outcome_digest(rows) == closedloop.outcome_digest([dict(a.row)])
    assert closedloop.outcome_digest(rows) != closedloop.outcome_digest([other.row])


# -- tracer ---------------------------------------------------------------------


def test_self_time_of_nested_calls():
    tracer = tracing.Tracer(clock=FakeClock())
    leaf = tracer.wrap("leaf", lambda: None)

    def inner_fn():
        leaf()

    inner = tracer.wrap("inner", inner_fn)

    def outer_fn():
        inner()
        inner()

    outer = tracer.wrap("outer", outer_fn)
    outer()
    # Clock ticks: outer 1, inner 2, leaf 3-4, inner end 5, inner 6, leaf 7-8,
    # inner end 9, outer end 10.
    spans = {(s.name, s.start): s for s in tracer.spans}
    assert [s.name for s in tracer.spans] == ["outer", "inner", "leaf", "inner", "leaf"]
    assert spans[("outer", 1.0)].duration == 9.0
    assert spans[("inner", 2.0)].duration == 3.0
    assert tracer.spans[1].parent == 0 and tracer.spans[2].parent == 1
    assert tracer.self_times() == [9.0 - 3.0 - 3.0, 3.0 - 1.0, 1.0, 3.0 - 1.0, 1.0]
    dur, own = tracing.totals(tracer)
    assert dur == {"outer": 9.0, "inner": 6.0, "leaf": 2.0}
    assert own == {"outer": 3.0, "inner": 4.0, "leaf": 2.0}


def test_span_closes_when_the_call_raises():
    tracer = tracing.Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    with tracer.span("after"):
        pass
    assert tracer.spans[0].duration == 1.0
    assert tracer.spans[1].parent == -1


def test_patched_restores_the_originals(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.work = lambda x: x + 1
    original = mod.work
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracer, [("fake_layer", "work", "layer.work")]):
            assert mod.work(1) == 2
            assert mod.work is not original
            raise RuntimeError
    assert mod.work is original
    assert [s.name for s in tracer.spans] == ["layer.work"]


def test_stage_agreement_counts_direct_children_of_plan():
    tracer = tracing.Tracer(clock=FakeClock())
    select = tracer.wrap("scoring.select_best", lambda: None)
    hybrid = tracer.wrap("hybrid.select", lambda: select())
    search = tracer.wrap("topology.graph_search", lambda: None)
    with tracer.span(tracing.PLAN_SPAN):
        search()  # 1 unit
        hybrid()  # 3 units, select_best inside it
    result = types.SimpleNamespace(stage_times=[("topology", 1.0), ("scoring", 3.0), ("proposals", 0.0)])
    agreement = tracing.stage_agreement(tracer, [result])
    assert agreement["topology"] == 1.0 and agreement["scoring"] == 1.0
    assert math.isnan(agreement["proposals"])


# -- compare mode and the benchmark's declared metrics --------------------------


def _record(workload, seed, value, digest="d"):
    return {
        "workload": workload, "seed": seed, "trace": 0,
        "result": {"metrics": {"tick_p50_ms": {"value": value, "unit": "ms"}}},
        "detail": {"outcomes": {"outcome_digest": digest}, "host": {"slice_ms_median": 2.3}},
    }


def test_compare_flags_a_regression_beyond_the_bound():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "tick_p50_ms", "better": "lower", "bound": 0.1}]}
    base = [_record("w", s, v) for s, v in enumerate([10.0, 10.1, 9.9, 10.0])]
    same = [_record("w", s, v) for s, v in enumerate([10.05, 10.0, 9.95, 10.1])]
    slow = [_record("w", s, v) for s, v in enumerate([12.0, 12.1, 11.9, 12.0])]
    lines, regressed = compare.compare(base, same, spec)
    assert not regressed and any(line.endswith(": ok") for line in lines)
    lines, regressed = compare.compare(base, slow, spec)
    assert regressed and any(line.endswith(": worse") for line in lines)
    changed = [_record("w", 0, 10.0, digest="other")]
    _, regressed = compare.compare(base, changed, spec)
    assert regressed


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_the_contract_line(monkeypatch, capsys, trace):
    import run

    monkeypatch.setattr(run, "MIN_TICKS", 40)
    monkeypatch.setattr(closedloop, "MIN_TAIL_SAMPLES", 0)  # a p99 from a short run
    monkeypatch.setattr(run, "SETUP_MIN_REPS", 1)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    assert run.main(["--workload", "rad_sparse", "--seed", "3", "--seconds", "1", "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    spec = json.loads(BENCHMARK_JSON.read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
