from dataclasses import replace

import numpy as np
import pytest

from radstack import planhead, planner, topology
from radstack.errors import HorizonMismatchError
from radstack.hybrid import hybrid_select, inject_learned
from radstack.planhead import init_model
from radstack.planner import Planner
from radstack.proposals import ProposalConfig, ProposalSet, generate_proposals
from radstack.scene import EgoState, Trajectory, generate_synthetic_scenario
from radstack.simulator import run_episode
from radstack.scoring import ScoreContext, ScoreWeights, forecast_agents, select_best
from radstack.topology import graph_search

from conftest import four_prototype_vocabulary, static_car, straight_path, straight_scenario


def _straight_learned(v=8.0, steps=40, dt=0.1, y=0.0, tag="learned"):
    xs = np.arange(steps + 1) * v * dt
    xy = np.stack([xs, np.full(steps + 1, y)], axis=1)
    return Trajectory(
        dt=dt, positions=xy, headings=np.zeros(steps + 1), speeds=np.full(steps + 1, v), tag=tag
    )


def _rule_proposals(scenario, agents=()):
    path = straight_path(scenario)
    return generate_proposals(scenario.ego, [path], list(agents), ProposalConfig()), path


def test_inject_adds_one_without_offsets(plain_scenario):
    ps, _ = _rule_proposals(plain_scenario)
    n = len(ps)
    out = inject_learned(ps, _straight_learned(), offsets=())
    assert len(out) == n + 1
    assert out[n].tag == "learned"
    assert len(ps) == n  # input set untouched


def test_inject_offsets_cardinality_and_tags(plain_scenario):
    ps, _ = _rule_proposals(plain_scenario)
    n = len(ps)
    out = inject_learned(ps, _straight_learned(), offsets=(-0.5, 0.5))
    assert len(out) == n + 3
    tags = [p.tag for p in out][n:]
    assert tags == ["learned", "learned_offset", "learned_offset"]


def test_inject_normal_shift_oracle(plain_scenario):
    # At 8 m/s the IDM offset rows' rate cap is min(0.75, 0.5 * 8) * 0.1 = 0.075 m
    # per step, so the shift reaches 0.5 m after 7 steps; sample 0 stays at the ego.
    ps, _ = _rule_proposals(plain_scenario)
    learned = _straight_learned()
    out = inject_learned(ps, learned, offsets=(0.5, -0.5))
    ramp = np.minimum(0.075 * np.arange(41), 0.5)
    for row, sign in ((len(out) - 2, 1.0), (len(out) - 1, -1.0)):
        delta = out.trajectory(row).positions - learned.positions
        assert np.array_equal(delta[0], [0.0, 0.0])
        assert np.allclose(delta[:, 0], 0.0, atol=1e-12)
        assert np.allclose(delta[:, 1], sign * ramp, atol=1e-12)


def test_learned_offset_ramp_follows_speed():
    # Slow samples cap the step at half the speed: 0.5 * 1 m/s * 0.1 s = 0.05 m,
    # then 0.75 m/s from 1.5 m/s on; a standing plan never leaves the line.
    learned = _straight_learned(v=8.0)
    speeds = np.where(np.arange(41) < 5, 1.0, 8.0)
    slow = Trajectory(learned.dt, learned.positions, learned.headings, speeds, "learned")
    delta = inject_learned(ProposalSet.empty(0.1, 40), slow, offsets=(1.0,)).positions[1, :, 1]
    want = np.minimum(np.concatenate([[0.0], np.cumsum(np.where(np.arange(40) < 5, 0.05, 0.075))]), 1.0)
    assert np.allclose(delta, want, atol=1e-12)
    assert delta[6] == pytest.approx(0.325)
    standing = Trajectory(learned.dt, learned.positions, learned.headings, np.zeros(41), "learned")
    out = inject_learned(ProposalSet.empty(0.1, 40), standing, offsets=(0.5, -0.5))
    assert np.array_equal(out.positions[1:], learned.positions[None].repeat(2, axis=0))


def test_inject_horizon_mismatch(plain_scenario):
    ps, _ = _rule_proposals(plain_scenario)
    with pytest.raises(HorizonMismatchError):
        inject_learned(ps, _straight_learned(steps=20))
    with pytest.raises(HorizonMismatchError):
        inject_learned(ps, _straight_learned(dt=0.2))


def _ctx(scenario, path, agents=()):
    return ScoreContext(
        scenario=scenario,
        forecast=forecast_agents(list(agents), 40, 0.1),
        route_path=path,
        goal_norm=100.0,
    )


def test_hybrid_without_learned_equals_rule_selection(plain_scenario):
    ps, path = _rule_proposals(plain_scenario)
    ctx = _ctx(plain_scenario, path)
    rad_winner, rad_breakdowns, rad_best = select_best(ps, ctx)
    winner, breakdowns, out, best = hybrid_select(ps, None, ctx)
    assert best == rad_best and np.array_equal(winner.positions, rad_winner.positions)
    assert len(out) == len(ps)
    assert [b.aggregate for b in breakdowns] == [b.aggregate for b in rad_breakdowns]


def test_hybrid_tie_keeps_idm_tag(plain_scenario):
    ps, path = _rule_proposals(plain_scenario)
    ctx = _ctx(plain_scenario, path)
    rad_winner, _, _ = select_best(ps, ctx)
    # Inject a learned plan identical to the rule winner: tie broken by tag.
    learned = replace(rad_winner, tag="learned")
    winner, breakdowns, out, best = hybrid_select(ps, learned, ctx, offsets=())
    assert winner.tag == "idm"
    learned_b = breakdowns[len(ps)]
    winner_b = breakdowns[best]
    assert learned_b.aggregate == pytest.approx(winner_b.aggregate, abs=1e-9)


def test_hybrid_learned_wins_when_only_escape(plain_scenario):
    # Two parked cars leave a 2.4 m gap: wide enough to drive through but
    # inside the rule rollouts' caution band, so every IDM proposal creeps
    # short while the learned plan threads the gap collision-free.
    agents = [
        static_car("a", 25.0, -2.2),
        static_car("b", 25.0, 2.2),
    ]
    ps, path = _rule_proposals(plain_scenario, agents)
    ctx = _ctx(plain_scenario, agents=agents, path=path)
    learned = _straight_learned(v=5.0, y=0.0)
    winner, breakdowns, out, best = hybrid_select(ps, learned, ctx, offsets=())
    assert winner.tag == "learned" and best == len(ps)
    assert breakdowns[best].c_col == 1
    assert breakdowns[best].c_ttc == 1


def test_hybrid_monotone_safety_collision_variants(plain_scenario):
    # If every learned variant collides, the winner equals the rule-only one.
    blocker = static_car("c", 30.0, 0.0)
    ps, path = _rule_proposals(plain_scenario, [blocker])
    ctx = _ctx(plain_scenario, agents=[blocker], path=path)
    rad_winner, _, _ = select_best(ps, ctx)
    learned = _straight_learned(v=10.0, y=0.0)  # rams the blocker
    winner, breakdowns, out, _ = hybrid_select(ps, learned, ctx, offsets=(-0.3, 0.3))
    assert list(breakdowns.c_col[len(ps):]) == [0, 0, 0]
    assert np.array_equal(winner.positions, rad_winner.positions)


def test_hybrid_breakdown_schema_shared(plain_scenario):
    # Learned proposals are scored by the same operations: identical record
    # fields and identical values on identical inputs.
    ps, path = _rule_proposals(plain_scenario)
    ctx = _ctx(plain_scenario, path)
    idm_clone = replace(ps.trajectory(10), tag="learned")
    winner, breakdowns, out, _ = hybrid_select(ps, idm_clone, ctx, offsets=())
    rec_idm = breakdowns[10].to_record()
    rec_learned = breakdowns[len(ps)].to_record()
    assert rec_idm.keys() == rec_learned.keys()
    for key in ("c_col", "c_ra", "c_ttc", "c_sp", "c_cf", "goal_cost"):
        assert rec_idm[key] == pytest.approx(rec_learned[key], abs=1e-9)


def test_no_hybrid_tick_projects_the_ego_onto_a_path_again(monkeypatch):
    # The features and the root gap read the rollout's ego projection; only
    # the planhead kind and training harvests call project_onto_path.
    def forbidden(*args):
        raise AssertionError("project_onto_path called on a hybrid tick")

    for module in (planner, planhead, topology):
        monkeypatch.setattr(module, "project_onto_path", forbidden)
    vocab = four_prototype_vocabulary()
    model = init_model(vocab, seed=0)
    for kind in ("blocked_lane", "intersection_turn"):
        scenario = generate_synthetic_scenario(kind, 7)
        log = run_episode(scenario, Planner(scenario, "hybrid", vocabulary=vocab, model=model))
        assert len(log.records) > 10
