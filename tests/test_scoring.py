import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radstack.proposals import IdmParams, ProposalConfig, ProposalSet, generate_proposals
from radstack.scene import AgentState, EgoState, Pose2, Trajectory
from radstack.scoring import (
    RELAX_FLOOR,
    RelaxationState,
    ScoreContext,
    ScoreWeights,
    aggregate_score,
    check_collision,
    check_drivable_area,
    check_min_progress,
    detect_relaxation,
    forecast_agents,
    goal_cost,
    score_proposals,
    select_best,
    weighted_objectives,
)
from radstack.topology import graph_search

from conftest import static_car, straight_path, straight_scenario


def _traj_from_xy(xy, dt=0.1, speeds=None, tag="idm", heading=None):
    xy = np.asarray(xy, dtype=float)
    d = np.diff(xy, axis=0)
    if heading is None:
        heads = np.arctan2(d[:, 1], d[:, 0])
        heads = np.concatenate([heads[:1], heads])
    else:
        heads = np.full(len(xy), heading)
    if speeds is None:
        seg = np.hypot(d[:, 0], d[:, 1]) / dt
        speeds = np.concatenate([seg[:1], seg])
    return Trajectory(dt=dt, positions=xy, headings=heads, speeds=speeds, tag=tag)


def _straight_traj(v=10.0, steps=40, dt=0.1, y=0.0, tag="idm"):
    xs = np.arange(steps + 1) * v * dt
    return _traj_from_xy(np.stack([xs, np.full(steps + 1, y)], axis=1), dt=dt, tag=tag)


# -- forecasting ------------------------------------------------------------


def test_forecast_static_agent_stationary():
    a = static_car("s", 10.0, 0.0)
    f = forecast_agents([a], 40, 0.1)
    assert np.allclose(f.positions[0], f.positions[0, 0])
    assert np.array_equal(f.positions[0, 0], f.positions[0, -1])


def test_forecast_constant_velocity_advance():
    a = AgentState(id="m", pose=Pose2(0, 0, 0), speed=10.0, half_length=2, half_width=1)
    f = forecast_agents([a], 10, 0.1)
    assert np.allclose(np.diff(f.positions[0, :, 0]), 1.0)
    assert np.allclose(f.positions[0, :, 1], 0.0)


def test_forecast_heading_trig_oracle():
    h = math.pi / 3
    a = AgentState(id="m", pose=Pose2(0, 0, h), speed=6.0, half_length=2, half_width=1)
    f = forecast_agents([a], 5, 0.1)
    step = f.positions[0, 1] - f.positions[0, 0]
    assert step[0] == pytest.approx(0.6 * math.cos(h), abs=1e-12)
    assert step[1] == pytest.approx(0.6 * math.sin(h), abs=1e-12)


# -- multiplicative penalty terms --------------------------------------------


def test_collision_identical_boxes_step_zero():
    traj = _straight_traj(v=0.0, steps=10)
    f = forecast_agents([static_car("c", 0.0, 0.0)], 10, 0.1)
    assert check_collision(traj, f) == 0


def test_collision_far_agents_clear():
    traj = _straight_traj(v=10.0, steps=40)
    f = forecast_agents([static_car("c", 20.0, 60.0)], 40, 0.1)
    assert check_collision(traj, f) == 1


def test_collision_grazing_pass_sat_oracle():
    traj = _straight_traj(v=10.0, steps=40)  # ego half width 0.95 around y = 0
    dims = (2.3, 0.95)
    clear = static_car("c", 20.0, 0.95 + 1.0 + 0.01)  # 0.01 m clearance
    graze = static_car("g", 20.0, 0.95 + 1.0 - 0.01)  # 0.01 m interpenetration
    assert check_collision(traj, forecast_agents([clear], 40, 0.1), dims) == 1
    assert check_collision(traj, forecast_agents([graze], 40, 0.1), dims) == 0


def test_drivable_area_checks(plain_scenario):
    center = _straight_traj(v=10.0, steps=40)
    assert check_drivable_area(center, plain_scenario) == 1
    offroad = _straight_traj(v=10.0, steps=40, y=10.0)
    assert check_drivable_area(offroad, plain_scenario) == 0


def test_drivable_boundary_inclusive(plain_scenario):
    # Drivable polygon spans y in [-4, 4]; ego half width 0.95: corners at
    # exactly y = 4.0 remain compliant.
    edge = _straight_traj(v=10.0, steps=40, y=4.0 - 0.95)
    assert check_drivable_area(edge, plain_scenario, ego_dims=(2.3, 0.95)) == 1
    beyond = _straight_traj(v=10.0, steps=40, y=4.0 - 0.95 + 1e-3)
    assert check_drivable_area(beyond, plain_scenario, ego_dims=(2.3, 0.95)) == 0


def test_min_progress_relative_exemption(plain_path):
    stationary = _straight_traj(v=0.0, steps=40)
    mover = _straight_traj(v=10.0, steps=40)
    assert check_min_progress(stationary, plain_path, 2.0, max_feasible_gain=10.0) == 0
    assert check_min_progress(mover, plain_path, 2.0, max_feasible_gain=10.0) == 1
    # Nothing can progress: exemption.
    assert check_min_progress(stationary, plain_path, 2.0, max_feasible_gain=0.0) == 1
    assert check_min_progress(stationary, plain_path, 2.0) == 1


# -- weighted objective terms -------------------------------------------------


def test_weighted_objectives_clean_drive(plain_scenario, plain_path):
    traj = _straight_traj(v=9.0, steps=40)
    f = forecast_agents([], 40, 0.1)
    c_ttc, c_dr, c_sp, c_ep, c_cf = weighted_objectives(
        traj, f, plain_scenario, plain_path, max_route_gain=36.0
    )
    assert (c_ttc, c_dr, c_sp, c_cf) == (1.0, 1.0, 1.0, 1.0)
    assert c_ep == pytest.approx(1.0)


def test_speed_compliance_double_limit(plain_scenario, plain_path):
    traj = _straight_traj(v=20.0, steps=40)  # limit is 10
    f = forecast_agents([], 40, 0.1)
    _, _, c_sp, _, _ = weighted_objectives(traj, f, plain_scenario, plain_path)
    assert c_sp == 0.0


def test_direction_compliance_reversing_oracle(plain_scenario, plain_path):
    # 5 m of travel against the lane direction.
    xs = np.linspace(30.0, 25.0, 41)
    traj = _traj_from_xy(np.stack([xs, np.zeros(41)], axis=1), heading=0.0)
    f = forecast_agents([], 40, 0.1)
    _, c_dr, _, _, _ = weighted_objectives(traj, f, plain_scenario, plain_path)
    assert c_dr == 0.0
    # Under two metres of reversing: half credit.
    xs2 = np.linspace(30.0, 29.0, 41)
    traj2 = _traj_from_xy(np.stack([xs2, np.zeros(41)], axis=1), heading=0.0)
    _, c_dr2, _, _, _ = weighted_objectives(traj2, f, plain_scenario, plain_path)
    assert c_dr2 == 0.5


def test_ttc_projection_detects_near_stop_conflict(plain_scenario, plain_path):
    # Ego driving at 10 toward a static car 12 m ahead: within the 0.95 s
    # window the projected footprint reaches the blocker.
    traj = _straight_traj(v=10.0, steps=40)
    blocker = static_car("b", 16.0, 0.0)
    f = forecast_agents([blocker], 40, 0.1)
    c_ttc, _, _, _, _ = weighted_objectives(traj, f, plain_scenario, plain_path)
    assert c_ttc == 0.0


def test_comfort_flags_hard_braking(plain_scenario, plain_path):
    speeds = np.concatenate([[10.0], np.maximum(0.0, 10.0 - 0.6 * np.arange(1, 41))])
    xs = np.concatenate([[0.0], np.cumsum(speeds[1:] * 0.1)])
    traj = _traj_from_xy(np.stack([xs, np.zeros(41)], axis=1), speeds=speeds, heading=0.0)
    f = forecast_agents([], 40, 0.1)
    _, _, _, _, c_cf = weighted_objectives(traj, f, plain_scenario, plain_path)
    assert c_cf < 1.0  # -6 m/s^2 exceeds the comfortable deceleration bound


# -- goal cost ----------------------------------------------------------------


def test_goal_cost_zero_and_345():
    traj = _straight_traj(v=1.0, steps=10)
    end = traj.end_position
    assert goal_cost(traj, Pose2(end[0], end[1], 0.0)) == 0.0
    assert goal_cost(traj, Pose2(end[0] + 3.0, end[1] + 4.0, 0.0)) == pytest.approx(5.0)


@given(st.floats(-100, 100), st.floats(-100, 100))
def test_goal_cost_hypot_oracle(dx, dy):
    traj = _straight_traj(v=2.0, steps=5)
    end = traj.end_position
    g = Pose2(end[0] + dx, end[1] + dy, 0.0)
    assert goal_cost(traj, g) == pytest.approx(math.hypot(dx, dy), abs=1e-12)


# -- relaxation ----------------------------------------------------------------


def _history(speeds):
    return [EgoState(pose=Pose2(50.0, 0.0, 0.0), speed=v) for v in speeds]


def test_relaxation_inactive_in_free_flow(plain_path):
    hist = _history([8.0] * 60)
    r = detect_relaxation(hist, [], plain_path, dt=0.1)
    assert not r.active


def test_relaxation_active_behind_static_blocker(plain_path):
    hist = _history([0.0] * 50)
    blocker = static_car("b", 58.0, 0.0)
    r = detect_relaxation(hist, [blocker], plain_path, dt=0.1)
    assert r.active
    assert r.stopped_duration >= 3.0
    assert r.blocker_distance == pytest.approx(58.0 - 50.0 - 2.3 - 2.3, abs=0.3)


def test_relaxation_requires_blocker(plain_path):
    hist = _history([0.0] * 50)
    r = detect_relaxation(hist, [], plain_path, dt=0.1)
    assert not r.active
    assert r.stopped_duration >= 3.0


def test_relaxation_requires_stop_duration(plain_path):
    hist = _history([8.0] * 40 + [0.0] * 10)  # only 1 s stopped
    blocker = static_car("b", 58.0, 0.0)
    r = detect_relaxation(hist, [blocker], plain_path, dt=0.1)
    assert not r.active


# -- aggregation ----------------------------------------------------------------


def test_aggregate_all_ones_is_one():
    b = aggregate_score(1, 1, 1, (1, 1, 1, 1, 1), 0.0, ScoreWeights(), goal_norm=100.0)
    assert b.aggregate == pytest.approx(1.0)


def test_aggregate_collision_kills_exactly():
    w = ScoreWeights(w_goal=0.0)
    b = aggregate_score(0, 1, 1, (1, 1, 1, 1, 1), 37.0, w, goal_norm=100.0)
    assert b.aggregate == 0.0


def test_aggregate_scalar_oracle():
    # weights (ttc, dr, sp, ep, cf) = (5, 1, 4, 5, 2); objectives (1, .5, 1, .8, 1)
    w = ScoreWeights(w_ttc=5, w_dr=1, w_sp=4, w_ep=5, w_cf=2, w_goal=0.0)
    b = aggregate_score(1, 1, 1, (1.0, 0.5, 1.0, 0.8, 1.0), 0.0, w)
    assert b.aggregate == pytest.approx((5 + 0.5 + 4 + 4 + 2) / 17)
    assert b.aggregate == pytest.approx(0.9118, abs=1e-4)


def test_relaxation_lifts_ra_and_dr_only():
    w = ScoreWeights()
    relax = RelaxationState(active=True, stopped_duration=4.0, blocker_distance=5.0)
    b = aggregate_score(1, 0, 1, (1, 0, 1, 1, 1), 0.0, w, relax=relax)
    expected_weighted = (5 + 1 * RELAX_FLOOR + 4 + 5 + 2) / 17
    assert b.aggregate == pytest.approx(RELAX_FLOOR * expected_weighted)
    # c_col is never lifted.
    b2 = aggregate_score(0, 0, 1, (1, 0, 1, 1, 1), 0.0, w, relax=relax)
    assert b2.aggregate == pytest.approx(0.0)


def test_relaxation_never_changes_collision_term():
    rng = np.random.default_rng(1)
    w = ScoreWeights()
    for _ in range(100):
        terms = rng.uniform(0, 1, size=5)
        c_col = float(rng.integers(0, 2))
        c_ra = float(rng.integers(0, 2))
        c_mp = float(rng.integers(0, 2))
        gc = float(rng.uniform(0, 120))
        relax = RelaxationState(active=True, stopped_duration=5.0, blocker_distance=4.0)
        b_rel = aggregate_score(c_col, c_ra, c_mp, tuple(terms), gc, w, relax, goal_norm=100.0)
        # Recompute by lifting only c_ra / c_dr by hand.
        terms_l = terms.copy()
        terms_l[1] = max(terms_l[1], RELAX_FLOOR)
        manual = aggregate_score(
            c_col, max(c_ra, RELAX_FLOOR), c_mp, tuple(terms_l), gc, w, goal_norm=100.0
        )
        assert b_rel.aggregate == pytest.approx(manual.aggregate, abs=1e-12)
        assert b_rel.c_col == c_col


def test_aggregate_bounds():
    w = ScoreWeights()
    rng = np.random.default_rng(2)
    for _ in range(300):
        terms = tuple(rng.uniform(0, 1, size=5))
        pens = rng.integers(0, 2, size=3)
        gc = float(rng.uniform(0, 500))
        b = aggregate_score(*pens, terms, gc, w, goal_norm=100.0)
        assert -w.w_goal - 1e-12 <= b.aggregate <= 1.0 + 1e-12


def test_aggregate_monotone_in_each_objective():
    w = ScoreWeights(w_goal=0.0)
    base = (0.9, 0.8, 0.7, 0.6, 0.5)
    b0 = aggregate_score(1, 1, 1, base, 0.0, w).aggregate
    for i in range(5):
        worse = list(base)
        worse[i] -= 0.3
        assert aggregate_score(1, 1, 1, tuple(worse), 0.0, w).aggregate < b0


def test_goal_null_equivalence_with_pdm_only():
    # With w_goal = 0 the ranking equals the goal-free scorer's on random sets.
    rng = np.random.default_rng(3)
    w_goal0 = ScoreWeights(w_goal=0.0)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        aggs, aggs_pdm = [], []
        for _ in range(n):
            terms = tuple(rng.uniform(0, 1, size=5))
            pens = tuple(rng.integers(0, 2, size=3))
            gc = float(rng.uniform(0, 100))
            aggs.append(aggregate_score(*pens, terms, gc, w_goal0, goal_norm=80.0).aggregate)
            aggs_pdm.append(aggregate_score(*pens, terms, 0.0, w_goal0, goal_norm=1.0).aggregate)
        assert int(np.argmax(aggs)) == int(np.argmax(aggs_pdm))


# -- selection -----------------------------------------------------------------


def _score_context(scenario, path, agents=(), relax=RelaxationState(), weights=None):
    return ScoreContext(
        scenario=scenario,
        forecast=forecast_agents(list(agents), 40, 0.1),
        route_path=path,
        weights=weights or ScoreWeights(),
        relax=relax,
        goal_norm=100.0,
    )


def _proposal_set(trajs):
    ps = ProposalSet(proposals=[], dt=0.1, horizon_steps=40)
    for t in trajs:
        ps.add(t)
    return ps


def test_select_single_proposal(plain_scenario, plain_path):
    ps = _proposal_set([_straight_traj(v=8.0)])
    ctx = _score_context(plain_scenario, plain_path)
    winner, breakdowns = select_best(ps, ctx)
    assert winner is ps[0].trajectory
    assert len(breakdowns) == 1


def test_select_safe_slow_over_colliding_fast(plain_scenario, plain_path):
    blocker = static_car("b", 25.0, 0.0)
    fast = _straight_traj(v=10.0)  # drives through the blocker
    slow = _straight_traj(v=2.0)  # stays short of it
    ps = _proposal_set([fast, slow])
    ctx = _score_context(plain_scenario, plain_path, agents=[blocker])
    winner, breakdowns = select_best(ps, ctx)
    assert winner is slow
    assert breakdowns[0].c_col == 0
    assert breakdowns[1].c_col == 1


def test_select_lane_change_wins_when_only_escape(blocked_scenario):
    # Construct the full proposal set near the blocker and check that the
    # winner rides the adjacent lane.
    s = blocked_scenario
    blocker_x = s.agents[0].pose.x
    ego = EgoState(pose=Pose2(blocker_x - 30.0, 0.0, 0.0), speed=8.0)
    from radstack.topology import augment_with_adjacents

    paths = graph_search(ego, s)
    paths = augment_with_adjacents(paths, s, ego)
    ps = generate_proposals(ego, paths, list(s.agents), ProposalConfig())
    ctx = ScoreContext(
        scenario=s,
        forecast=forecast_agents(list(s.agents), 40, 0.1),
        route_path=paths[0],
        goal_norm=120.0,
    )
    breakdowns = score_proposals(ps, ctx)
    winner, _ = select_best(ps, ctx)
    best_idx = max(range(len(ps)), key=lambda i: (breakdowns[i].aggregate, -i))
    winner_prop = ps[best_idx]
    assert winner_prop.path.source == "left_adjacent"
    assert breakdowns[best_idx].c_col == 1


def test_select_deterministic_under_permutation(plain_scenario, plain_path):
    rng = np.random.default_rng(5)
    trajs = [_straight_traj(v=float(v)) for v in rng.uniform(2, 9, size=8)]
    ps = _proposal_set(trajs)
    ctx = _score_context(plain_scenario, plain_path)
    winner, _ = select_best(ps, ctx)
    # Same trajectories, permuted arrival order, indices reassigned: the
    # winner is the same trajectory value.
    perm = list(reversed(trajs))
    ps2 = _proposal_set(perm)
    winner2, _ = select_best(ps2, ctx)
    assert winner.positions == pytest.approx(winner2.positions)


def test_batch_scorer_matches_scalar_operations(plain_scenario, plain_path):
    # The vectorized scorer must agree with the per-term contract operations.
    rng = np.random.default_rng(7)
    agents = [static_car("b", 30.0, 0.5), static_car("c", 60.0, -2.0)]
    trajs = []
    for _ in range(10):
        v = float(rng.uniform(0, 10))
        y = float(rng.uniform(-2, 2))
        trajs.append(_straight_traj(v=v, y=y))
    ps = _proposal_set(trajs)
    ctx = _score_context(plain_scenario, plain_path, agents=agents)
    batch = score_proposals(ps, ctx)

    f = ctx.forecast
    gains = [max(0.0, _route_gain(t, plain_path)) for t in trajs]
    feasible = [
        check_collision(t, f, ctx.ego_dims) * check_drivable_area(t, plain_scenario, ctx.ego_dims)
        for t in trajs
    ]
    feas_gain = max((g for g, ok in zip(gains, feasible) if ok), default=0.0)
    max_gain = max(gains)
    for t, b in zip(trajs, batch):
        assert b.c_col == check_collision(t, f, ctx.ego_dims)
        assert b.c_ra == check_drivable_area(t, plain_scenario, ctx.ego_dims)
        assert b.c_mp == check_min_progress(t, plain_path, ctx.min_progress, feas_gain)
        c_ttc, c_dr, c_sp, c_ep, c_cf = weighted_objectives(
            t, f, plain_scenario, plain_path, max_route_gain=max_gain, ego_dims=ctx.ego_dims
        )
        assert b.c_ttc == c_ttc
        assert b.c_dr == c_dr
        assert b.c_sp == pytest.approx(c_sp)
        assert b.c_ep == pytest.approx(c_ep)
        assert b.c_cf == pytest.approx(c_cf)
        assert b.goal_cost == pytest.approx(goal_cost(t, plain_scenario.goal))


def _route_gain(traj, path):
    from radstack.scoring import route_progress

    return route_progress(traj, path)
