import itertools
import math
import sys
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radstack import scoring
from radstack.geometry import CONTACT_TOL, SegmentTable, boxes_overlap, rect_corners_batch
from radstack.planhead import init_model
from radstack.planner import RELAX_HOLD_TIMEOUT, STOPPED_TICKS_MAX, Planner
from radstack.proposals import ProposalConfig, ProposalSet, generate_proposals
from radstack.scene import (
    SCENARIO_KINDS,
    TRAJECTORY_TAGS,
    AgentState,
    EgoState,
    Pose2,
    Trajectory,
    agent_footprint,
    footprint_inside_drivable,
    generate_synthetic_scenario,
)
from radstack.simulator import run_episode
from radstack.scoring import (
    RELAX_FLOOR,
    SPEED_TOL,
    STOPPED_SPEED,
    T_BLOCK,
    TTC_WINDOW,
    RelaxationState,
    ScoreContext,
    Scores,
    ScoreWeights,
    _batch_comfort,
    _batch_direction,
    _batch_ttc,
    aggregate,
    detect_relaxation,
    forecast_agents,
    score_proposals,
    select_best,
)
from radstack.topology import ProposalPath, augment_with_adjacents, graph_search

from conftest import (
    four_prototype_vocabulary,
    rect,
    reference_batch_comfort,
    reference_batch_direction,
    reference_footprint_inside_drivable,
    reference_points_in_polygons,
    reference_project_points,
    reference_route_arclengths,
    reference_scores,
    static_car,
    straight_path,
    straight_scenario,
    with_traffic,
)


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
    xy = f.planes[:, 0]  # (2, S+1)
    assert np.allclose(xy, xy[:, :1])
    assert np.array_equal(xy[:, 0], xy[:, -1])


def test_forecast_constant_velocity_advance():
    a = AgentState(id="m", pose=Pose2(0, 0, 0), speed=10.0, half_length=2, half_width=1)
    f = forecast_agents([a], 10, 0.1)
    assert np.allclose(np.diff(f.planes[0, 0]), 1.0)
    assert np.allclose(f.planes[1, 0], 0.0)


def test_forecast_heading_trig_oracle():
    h = math.pi / 3
    a = AgentState(id="m", pose=Pose2(0, 0, h), speed=6.0, half_length=2, half_width=1)
    f = forecast_agents([a], 5, 0.1)
    step = f.planes[:, 0, 1] - f.planes[:, 0, 0]
    assert step[0] == pytest.approx(0.6 * math.cos(h), abs=1e-12)
    assert step[1] == pytest.approx(0.6 * math.sin(h), abs=1e-12)


def _proposal_set(trajs):
    dt = trajs[0].dt
    ps = ProposalSet.empty(dt=dt, horizon_steps=trajs[0].horizon_steps)
    ps.append(
        dt,
        np.stack([t.positions for t in trajs]),
        np.stack([t.headings for t in trajs]),
        np.stack([t.speeds for t in trajs]),
        [t.tag for t in trajs],
    )
    return ps


def _score(trajs, scenario=None, path=None, agents=(), min_progress=0.5):
    """Scores of a batch of trajectories on the straight road (ego dims 2.3 x 0.95)."""
    scenario = scenario or straight_scenario()
    ctx = ScoreContext(
        scenario=scenario,
        forecast=forecast_agents(list(agents), trajs[0].horizon_steps, trajs[0].dt),
        route_path=path or straight_path(scenario),
        goal_norm=100.0,
        min_progress=min_progress,
    )
    return score_proposals(_proposal_set(trajs), ctx)


# -- multiplicative penalty terms (batches of one) ---------------------------


def test_collision_identical_boxes_step_zero():
    traj = _straight_traj(v=0.0, steps=10)
    assert _score([traj], agents=[static_car("c", 0.0, 0.0)]).c_col[0] == 0


def test_collision_far_agents_clear():
    traj = _straight_traj(v=10.0, steps=40)
    assert _score([traj], agents=[static_car("c", 20.0, 60.0)]).c_col[0] == 1


def test_collision_grazing_pass_sat_oracle():
    traj = _straight_traj(v=10.0, steps=40)  # ego half width 0.95 around y = 0
    clear = static_car("c", 20.0, 0.95 + 1.0 + 0.01)  # 0.01 m clearance
    graze = static_car("g", 20.0, 0.95 + 1.0 - 0.01)  # 0.01 m interpenetration
    assert _score([traj], agents=[clear]).c_col[0] == 1
    assert _score([traj], agents=[graze]).c_col[0] == 0


def _reference_collision(pos, heads, f, ego_dims):
    """c_col from the box test on every (row, agent, sample), without the distance prefilter."""
    out = np.ones(len(pos))
    for p in range(len(pos)):
        hit = boxes_overlap(
            f.planes[0] - pos[p, :, 0], f.planes[1] - pos[p, :, 1], np.cos(heads[p]), np.sin(heads[p]), *ego_dims,
            f.trig[0][:, None], f.trig[1][:, None], f.half_lengths[:, None], f.half_widths[:, None],
        )
        out[p] = 0.0 if hit.any() else 1.0
    return out


def _spy_on_ttc_forecasts(monkeypatch):
    """The number of agents of each forecast score_proposals hands _batch_ttc, in call order."""
    seen, batch_ttc = [], scoring._batch_ttc

    def spy(xy, cs, speeds, f, *rest):
        seen.append(len(f))
        return batch_ttc(xy, cs, speeds, f, *rest)

    monkeypatch.setattr(scoring, "_batch_ttc", spy)
    return seen


def test_rows_beyond_every_agents_reach_skip_the_pair_stages(monkeypatch, plain_scenario, plain_path):
    # No (row, agent) pair comes within reach: the cull drops both agents, so
    # the collision and TTC terms see an empty forecast, and every column is
    # the one their full formulas and an agent-free scoring give.
    rows = [_straight_traj(v=v, steps=40, y=y) for v, y in ((10.0, 0.0), (6.0, 1.0), (0.0, 0.0), (3.0, -1.0))]
    agents = [
        static_car("parked", 30.0, 40.0),
        AgentState(id="moving", pose=Pose2(0.0, -30.0, 0.0), speed=8.0, half_length=2.3, half_width=1.0),
    ]
    ps = _proposal_set(rows)

    def ctx(agents):
        forecast = forecast_agents(agents, 40, 0.1)
        return ScoreContext(scenario=plain_scenario, forecast=forecast, route_path=plain_path, goal_norm=100.0)

    free = score_proposals(ps, ctx([]))
    f = ctx(agents).forecast
    monkeypatch.setattr(scoring, "boxes_overlap", None)  # any call fails
    seen = _spy_on_ttc_forecasts(monkeypatch)
    got = score_proposals(ps, ctx(agents))
    assert seen == [0]
    assert np.array_equal(got.c_col, _reference_collision(ps.positions, ps.headings, f, (2.3, 0.95)))
    assert np.array_equal(got.c_ttc, _reference_batch_ttc(ps.positions, ps.headings, ps.speeds, f, (2.3, 0.95), TTC_WINDOW))
    assert got.relaxed == free.relaxed
    for name in scoring._TERMS:
        assert np.array_equal(getattr(got, name).view(np.int64), getattr(free, name).view(np.int64))


def test_one_box_contact_at_contact_tol_kills_the_row():
    # Samples 10 m apart: only the one at x = 20 comes within reach of the
    # parked car, whose edge lies CONTACT_TOL from the ego's (summed in
    # boxes_overlap's order), which counts as contact.
    row = _traj_from_xy(np.stack([10.0 * np.arange(41), np.zeros(41)], axis=1), heading=0.0)
    car = static_car("c", 20.0, 0.95 + 1.0 + CONTACT_TOL)
    reach = math.hypot(2.3, 0.95) + math.hypot(car.half_length, car.half_width)
    assert np.count_nonzero(np.hypot(row.positions[:, 0] - 20.0, row.positions[:, 1] - car.pose.y) < reach) == 1
    assert _score([row], agents=[car]).c_col[0] == 0


def test_drivable_area_checks(plain_scenario):
    center = _straight_traj(v=10.0, steps=40)
    assert _score([center], plain_scenario).c_ra[0] == 1
    offroad = _straight_traj(v=10.0, steps=40, y=10.0)
    assert _score([offroad], plain_scenario).c_ra[0] == 0


def test_drivable_boundary_inclusive(plain_scenario):
    # Drivable polygon spans y in [-4, 4]; ego half width 0.95: corners at
    # exactly y = 4.0 remain compliant.
    edge = _straight_traj(v=10.0, steps=40, y=4.0 - 0.95)
    assert _score([edge], plain_scenario).c_ra[0] == 1
    beyond = _straight_traj(v=10.0, steps=40, y=4.0 - 0.95 + 1e-3)
    assert _score([beyond], plain_scenario).c_ra[0] == 0


def test_min_progress_relative_exemption(plain_path):
    stationary = _straight_traj(v=0.0, steps=40)
    mover = _straight_traj(v=10.0, steps=40)
    assert list(_score([stationary, mover], path=plain_path, min_progress=2.0).c_mp) == [0, 1]
    # Nothing can progress: exemption.
    assert _score([stationary], path=plain_path, min_progress=2.0).c_mp[0] == 1
    # The only mover leaves the road, so it does not obligate progress.
    offroad = _straight_traj(v=10.0, steps=40, y=10.0)
    assert list(_score([stationary, offroad], path=plain_path, min_progress=2.0).c_mp) == [1, 1]


def test_progress_gain_is_measured_from_each_row_start(plain_path):
    # Rows 0, 1 and 3 start at the ego, row 2 starts 6 m ahead and offset
    # rows like it start beside it: each row's gain runs from its own start.
    def row(x0, step, y=0.0):
        return _traj_from_xy(np.stack([x0 + step * np.arange(41), np.full(41, y)], axis=1))

    rows = [row(0.0, 0.5), row(0.0, 0.5, y=0.5), row(6.0, 0.25), row(0.0, 0.25)]
    # Gains 20, 20, 10 and 10 m over the best gain of 20 m.
    assert list(_score(rows, path=plain_path).c_ep) == [1.0, 1.0, 0.5, 0.5]


# -- weighted objective terms -------------------------------------------------


def test_weighted_objectives_clean_drive(plain_scenario, plain_path):
    b = _score([_straight_traj(v=9.0, steps=40)], plain_scenario, plain_path)[0]
    assert (b.c_ttc, b.c_dr, b.c_sp, b.c_ep, b.c_cf) == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_speed_compliance_double_limit(plain_scenario, plain_path):
    traj = _straight_traj(v=20.0, steps=40)  # limit is 10
    assert _score([traj], plain_scenario, plain_path).c_sp[0] == 0.0


def test_direction_compliance_reversing_oracle(plain_scenario, plain_path):
    # 5 m of travel against the lane direction.
    xs = np.linspace(30.0, 25.0, 41)
    traj = _traj_from_xy(np.stack([xs, np.zeros(41)], axis=1), heading=0.0)
    assert _score([traj], plain_scenario, plain_path).c_dr[0] == 0.0
    # Under two metres of reversing: half credit.
    xs2 = np.linspace(30.0, 29.0, 41)
    traj2 = _traj_from_xy(np.stack([xs2, np.zeros(41)], axis=1), heading=0.0)
    assert _score([traj2], plain_scenario, plain_path).c_dr[0] == 0.5


def test_ttc_projection_detects_near_stop_conflict(plain_scenario, plain_path):
    # Ego driving at 10 toward a static car 12 m ahead: within the 0.95 s
    # window the projected footprint reaches the blocker.
    traj = _straight_traj(v=10.0, steps=40)
    blocker = static_car("b", 16.0, 0.0)
    assert _score([traj], plain_scenario, plain_path, agents=[blocker]).c_ttc[0] == 0.0


def test_comfort_flags_hard_braking(plain_scenario, plain_path):
    speeds = np.concatenate([[10.0], np.maximum(0.0, 10.0 - 0.6 * np.arange(1, 41))])
    xs = np.concatenate([[0.0], np.cumsum(speeds[1:] * 0.1)])
    traj = _traj_from_xy(np.stack([xs, np.zeros(41)], axis=1), speeds=speeds, heading=0.0)
    # -6 m/s^2 exceeds the comfortable deceleration bound on steps 0-15; the
    # stop (-4 m/s^2, then 0) breaks the jerk bound on steps 16 and 17.
    assert _score([traj], plain_scenario, plain_path).c_cf[0] == pytest.approx(22 / 40)


# -- goal cost ----------------------------------------------------------------


def _goal_cost(traj, dx, dy):
    end = traj.positions[-1]
    scenario = replace(straight_scenario(), goal=Pose2(end[0] + dx, end[1] + dy, 0.0))
    return _score([traj], scenario).goal_cost[0]


def test_goal_cost_zero_and_345():
    traj = _straight_traj(v=1.0, steps=10)
    assert _goal_cost(traj, 0.0, 0.0) == 0.0
    assert _goal_cost(traj, 3.0, 4.0) == pytest.approx(5.0)


@given(st.floats(-100, 100), st.floats(-100, 100))
def test_goal_cost_hypot_oracle(dx, dy):
    traj = _straight_traj(v=2.0, steps=5)
    assert _goal_cost(traj, dx, dy) == pytest.approx(math.hypot(dx, dy), abs=1e-12)


# -- TTC broad phase ------------------------------------------------------------


def _planes(pos, heads):
    """The samples' positions and their headings' cos and sin as (2, P, S+1) planes, as the scorer reads them."""
    return pos.transpose(2, 0, 1).copy(), np.stack([np.cos(heads), np.sin(heads)])


def _reference_batch_ttc(pos, heads, speeds, f, ego_dims, window):
    """The TTC flags from the full (agents, live samples, sub-steps) grid."""
    out = np.ones(len(speeds))
    n_sub = int(window / f.dt)
    if len(f) == 0 or n_sub < 1:
        return out
    p_l, s_l = np.nonzero(speeds > 0.05)
    taus = np.arange(1, n_sub + 1) * f.dt
    head = heads[p_l, s_l]
    adv = speeds[p_l, s_l, None] * taus
    px = pos[p_l, s_l, 0, None] + adv * np.cos(head)[:, None]
    py = pos[p_l, s_l, 1, None] + adv * np.sin(head)[:, None]
    j_idx = np.minimum(s_l[:, None] + np.arange(1, n_sub + 1), f.steps)
    dx = f.planes[0][:, j_idx] - px  # (A, L, J)
    dy = f.planes[1][:, j_idx] - py
    reach = math.hypot(*ego_dims) + np.hypot(f.half_lengths, f.half_widths)
    near = dx * dx + dy * dy < (reach**2)[:, None, None]
    a_i, l_i, j_i = np.nonzero(near)
    hit = boxes_overlap(
        dx[a_i, l_i, j_i], dy[a_i, l_i, j_i], np.cos(head[l_i]), np.sin(head[l_i]), *ego_dims,
        f.trig[0][a_i], f.trig[1][a_i], f.half_lengths[a_i], f.half_widths[a_i],
    )
    out[p_l[l_i[hit]]] = 0.0
    return out


_SAMPLE_SPEED = st.one_of(
    st.just(0.0), st.just(0.05), st.just(float(np.nextafter(0.05, 1.0))), st.floats(0.0, 15.0)
)


@st.composite
def _ttc_case(draw):
    """Proposals in a 30 m square and agents aimed at their projections.

    Agents are static (forecast speed 0), stationary vehicles, or moving;
    each starts where its forecast passes within 3 m of one sample's projected
    centre at one sub-step. Samples include speeds at the 0.05 m/s live
    threshold and samples close enough to the horizon that forecast indices
    clamp. One agent may sit exactly at reach from one projected centre.
    Agents beside a projected centre sit on the edge of _batch_ttc's slab:
    at that sub-step's forecast step, their centre lies along the sample's
    left or right normal at the ego-lateral contact distance hw_ego + hl |sin D|
    + hw |cos D|, offset by -1e-6 m, -1 ulp, 0, +1 ulp, +1e-6 m or +2e-6 m, at a
    relative heading D of 0, pi/2 or oblique; static, moving along the ego's
    heading (D = 0), across it (D = pi/2), or obliquely. A moving one's centre
    at the pair's midpoint step lies off that distance, so only the slab's
    |v_a . n| t_half term can keep its pair.
    """
    dt = draw(st.sampled_from([0.1, 0.125]))
    steps = draw(st.integers(2, 20))
    n_props = draw(st.integers(1, 4))
    n = n_props * (steps + 1)
    angle = st.floats(-math.pi, math.pi)
    pos = np.array(draw(st.lists(st.floats(-15.0, 15.0), min_size=2 * n, max_size=2 * n))).reshape(n_props, steps + 1, 2)
    heads = np.array(draw(st.lists(angle, min_size=n, max_size=n))).reshape(n_props, steps + 1)
    speeds = np.array(draw(st.lists(_SAMPLE_SPEED, min_size=n, max_size=n))).reshape(n_props, steps + 1)
    ego_dims = draw(st.sampled_from([(2.3, 0.95), (3.0, 4.0)]))
    agents = []
    for i in range(draw(st.integers(0, 5))):
        p, k, j = draw(st.integers(0, n_props - 1)), draw(st.integers(0, steps)), draw(st.integers(1, 9))
        kind = draw(st.sampled_from(["static", "vehicle", "vehicle"]))
        speed = 0.0 if kind == "static" else draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0)))
        heading = draw(angle)
        target = pos[p, k] + speeds[p, k] * j * dt * np.array([math.cos(heads[p, k]), math.sin(heads[p, k])])
        target += np.array([draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))])
        start = target - speed * min(k + j, steps) * dt * np.array([math.cos(heading), math.sin(heading)])
        agents.append(
            AgentState(
                id=f"a{i}", pose=Pose2(float(start[0]), float(start[1]), heading), speed=speed,
                half_length=draw(st.floats(0.3, 2.5)), half_width=draw(st.floats(0.3, 1.2)), kind=kind,
            )
        )
    if draw(st.booleans()):
        # A static agent at reach from a sample's heading-0 projection at
        # sub-step j; with dt = 0.125 and ego dims (3, 4) every value is
        # exact, so the centres are exactly reach apart.
        p, k, j = draw(st.integers(0, n_props - 1)), draw(st.integers(0, steps)), draw(st.integers(1, 7))
        pos[p, k] = (draw(st.integers(-8, 8)), draw(st.integers(-8, 8)))
        heads[p, k], speeds[p, k] = 0.0, 2.0
        reach = math.hypot(*ego_dims) + math.hypot(1.0, 0.75)
        x = pos[p, k, 0] + 2.0 * (j * dt) + reach
        agents.append(AgentState(id="r", pose=Pose2(x, pos[p, k, 1], 0.0), speed=0.0,
                                 half_length=1.0, half_width=0.75, kind="static"))
    for i in range(draw(st.integers(0, 3))):
        p, k, j = draw(st.integers(0, n_props - 1)), draw(st.integers(0, steps)), draw(st.integers(1, 9))
        rel = draw(st.one_of(st.just(0.0), st.just(0.5 * math.pi), st.floats(0.1, 1.4)))
        heading = float(heads[p, k]) + rel + draw(st.sampled_from([0.0, math.pi]))
        hl, hw = draw(st.floats(0.3, 2.5)), draw(st.floats(0.3, 1.2))
        contact = ego_dims[1] + hl * abs(math.sin(rel)) + hw * abs(math.cos(rel))
        offset = draw(st.sampled_from(["-ulp", "+ulp", -1e-6, 0.0, 1e-6, 2e-6]))
        if isinstance(offset, str):
            lateral = math.nextafter(contact, math.inf if offset == "+ulp" else -math.inf)
        else:
            lateral = contact + offset
        side = draw(st.sampled_from([1.0, -1.0]))
        normal = side * np.array([-math.sin(heads[p, k]), math.cos(heads[p, k])])
        centre = pos[p, k] + speeds[p, k] * j * dt * np.array([math.cos(heads[p, k]), math.sin(heads[p, k])])
        centre += lateral * normal
        speed = draw(st.sampled_from([0.0, 0.5, 4.0, 15.0]))
        start = centre - speed * min(k + j, steps) * dt * np.array([math.cos(heading), math.sin(heading)])
        agents.append(AgentState(
            id=f"slab{i}", pose=Pose2(float(start[0]), float(start[1]), heading), speed=speed,
            half_length=hl, half_width=hw, kind="static" if speed == 0.0 else "vehicle",
        ))
    return pos, heads, speeds, forecast_agents(agents, steps, dt), ego_dims


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_ttc_case(), st.sampled_from([TTC_WINDOW, 0.875]))
def test_batch_ttc_broad_phase_matches_full_grid(case, window):
    pos, heads, speeds, f, ego_dims = case
    # The proposals as drawn, and one row per sample with only that sample
    # live, so that a single missed hit changes a flag.
    p, k = np.nonzero(np.ones_like(speeds, dtype=bool))
    single = np.zeros((len(p), speeds.shape[1]))
    single[np.arange(len(p)), k] = speeds[p, k]
    for rows in ((pos, heads, speeds), (pos[p], heads[p], single)):
        expected = _reference_batch_ttc(*rows, f, ego_dims, window)
        assert np.array_equal(_batch_ttc(*_planes(*rows[:2]), rows[2], f, ego_dims, window), expected)


def test_ttc_widening_keeps_an_agent_only_the_last_projection_reaches(monkeypatch, plain_scenario, plain_path):
    # Every sample sits at the origin heading +x; only sample 0 is live, at
    # 10 m/s, so its projected centre reaches x = (n_sub dt) * 10 at the last
    # sub-step and 1 m short of it at the one before. A static post there,
    # edge to edge with that projection, lies beyond every sample's reach.
    # Thin boxes put the contact within 1 cm of the cull bound: the post is
    # kept and flags the row; 1 cm farther out it is culled and the row clear.
    ego_dims, steps, v = (2.3, 0.1), 20, 10.0
    speeds = np.zeros(steps + 1)
    speeds[0] = v
    ps = _proposal_set([_traj_from_xy(np.zeros((steps + 1, 2)), speeds=speeds, heading=0.0)])
    contact = int(TTC_WINDOW / 0.1) * 0.1 * v + ego_dims[0] + 1.0
    reach = math.hypot(*ego_dims) + math.hypot(1.0, 0.1)
    assert contact > reach
    seen = _spy_on_ttc_forecasts(monkeypatch)
    for x, c_ttc, kept in ((contact, 0.0, 1), (contact + 0.01, 1.0, 0)):
        post = static_car("post", x, 0.0, half_length=1.0, half_width=0.1)
        ctx = ScoreContext(
            scenario=plain_scenario, forecast=forecast_agents([post], steps, 0.1), route_path=plain_path,
            goal_norm=100.0, ego_dims=ego_dims,
        )
        got = score_proposals(ps, ctx)
        assert (got.c_col[0], got.c_ttc[0], seen[-1]) == (1.0, c_ttc, kept)


def test_ttc_slab_oracle_row_passing_a_parked_car_matches_full_grid():
    # A row at 5 m/s heading +x passes a car parked beside x = 10. With the
    # car's side edge to edge with the row's projected footprint (lateral
    # centre gap hw_ego + hw_car) the projection touches it; 1 cm farther out
    # it clears. A car 1 m beyond contact that drives at the row's line at
    # 2 m/s closes that gap within TTC_WINDOW, and the projection meets it.
    # Each flag is also the full grid's.
    row = _straight_traj(v=5.0, steps=40)
    edge = 0.95 + 1.0
    crossing = AgentState(
        id="m", pose=Pose2(10.0, 0.95 + 2.3 + 1.0, -0.5 * math.pi), speed=2.0, half_length=2.3, half_width=1.0
    )
    assert 1.0 / crossing.speed < TTC_WINDOW
    for car, c_ttc in ((static_car("c", 10.0, edge), 0.0), (static_car("c", 10.0, edge + 0.01), 1.0), (crossing, 0.0)):
        got = _score([row], agents=[car]).c_ttc
        f = forecast_agents([car], 40, 0.1)
        assert got[0] == c_ttc
        assert np.array_equal(got, _reference_batch_ttc(row.positions[None], row.headings[None], row.speeds[None], f,
                                                        (2.3, 0.95), TTC_WINDOW))


def _at_cull_bound(lo, hi, bound, sign, inside):
    """A coordinate above hi (sign 1) or below lo (sign -1) whose gap to
    [lo, hi], rounded as the scorer rounds it, is the largest at most bound
    (inside) or the smallest above it (outside)."""
    def gap(c):
        return c - hi if sign > 0 else lo - c

    c = hi + bound if sign > 0 else lo - bound
    while gap(c) > bound:
        c = math.nextafter(c, -sign * math.inf)
    while gap(math.nextafter(c, sign * math.inf)) <= bound:
        c = math.nextafter(c, sign * math.inf)
    return c if inside else math.nextafter(c, sign * math.inf)


@st.composite
def _cull_case(draw):
    """A _ttc_case with agents at the cull bound and one agent that only a
    live sample's projection at the last sub-step reaches.

    Agents at the bound start just inside or just outside it, on any side of
    the samples' box widened by the TTC projection, centred on it along the
    other axis, static or moving away from it. Returns the case, its full
    forecast, and the ids of the agents at the bound with whether each is
    inside.
    """
    pos, heads, speeds, f, ego_dims = draw(_ttc_case())
    dt, steps, n_sub = f.dt, f.steps, int(TTC_WINDOW / f.dt)
    agents = list(f.agents)
    if draw(st.booleans()):
        # Sample k of row p, moved to the +x edge of the square and heading
        # +x: its projection at the last sub-step touches the agent's rear
        # edge, more than 11 m beyond every sample.
        p, k = draw(st.integers(0, len(pos) - 1)), draw(st.integers(0, steps))
        v, y = draw(st.floats(10.0, 15.0)), draw(st.floats(-15.0, 15.0))
        pos[p, k], heads[p, k], speeds[p, k] = (15.0, y), 0.0, v
        hl, hw = draw(st.floats(0.3, 2.5)), draw(st.floats(0.3, 1.2))
        x = 15.0 + n_sub * dt * v + ego_dims[0] + hl
        agents.append(AgentState(id="last", pose=Pose2(x, y, 0.0), speed=0.0, half_length=hl, half_width=hw, kind="static"))
    widen = n_sub * dt * max(float(speeds.max()), 0.0)
    lo, hi = pos.reshape(-1, 2).min(axis=0) - widen, pos.reshape(-1, 2).max(axis=0) + widen
    at_bound = {}
    for i in range(draw(st.integers(0, 3))):
        axis, sign, inside = draw(st.integers(0, 1)), draw(st.sampled_from([1, -1])), draw(st.booleans())
        hl, hw = draw(st.floats(0.3, 2.5)), draw(st.floats(0.3, 1.2))
        bound = math.hypot(*ego_dims) + float(np.hypot(hl, hw)) + scoring.BROAD_PHASE_SLACK
        centre = 0.5 * (lo + hi)
        centre[axis] = _at_cull_bound(lo[axis], hi[axis], bound, sign, inside)
        heading = (0.0, math.pi, 0.5 * math.pi, -0.5 * math.pi)[2 * axis + (sign < 0)]  # away from the box
        speed = draw(st.sampled_from([0.0, 0.0, 5.0]))
        agents.append(AgentState(
            id=f"b{i}", pose=Pose2(float(centre[0]), float(centre[1]), heading), speed=speed,
            half_length=hl, half_width=hw, kind="static" if speed == 0.0 else "vehicle",
        ))
        at_bound[f"b{i}"] = inside
    return (pos, heads, speeds, ego_dims), forecast_agents(agents, steps, dt), at_bound


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_cull_case())
def test_collision_and_ttc_with_the_agent_cull_match_the_full_grid_bitwise(case):
    (pos, heads, speeds, ego_dims), f, at_bound = case
    ps = ProposalSet.empty(f.dt, f.steps)
    ps.append(f.dt, pos, heads, speeds, ["idm"] * len(pos))
    scenario = straight_scenario()
    ctx = ScoreContext(scenario=scenario, forecast=f, route_path=straight_path(scenario), ego_dims=ego_dims)
    got = score_proposals(ps, ctx)
    assert np.array_equal(got.c_col.view(np.int64), _reference_collision(pos, heads, f, ego_dims).view(np.int64))
    want = _reference_batch_ttc(pos, heads, speeds, f, ego_dims, TTC_WINDOW)
    assert np.array_equal(got.c_ttc.view(np.int64), want.view(np.int64))
    kept = {a.id for a in scoring._agents_in_reach(f, _planes(pos, heads)[0], speeds, ego_dims).agents}
    assert {i for i, inside in at_bound.items() if inside} <= kept
    assert not {i for i, inside in at_bound.items() if not inside} & kept


# -- relaxation ----------------------------------------------------------------


_STOPPED_EGO = EgoState(pose=Pose2(50.0, 0.0, 0.0), speed=0.0)


def _stopped_ticks(speeds):
    """The stopped count a Planner holds after plan calls at these speeds, oldest first."""
    run = 0
    for v in speeds:
        run = min(run + 1, STOPPED_TICKS_MAX) if v < STOPPED_SPEED else 0
    return run


def test_relaxation_inactive_in_free_flow(plain_path):
    r = detect_relaxation(_stopped_ticks([8.0] * 60), [], plain_path, 0.1, _STOPPED_EGO)
    assert not r.active


def test_relaxation_active_behind_static_blocker(plain_path):
    blocker = static_car("b", 58.0, 0.0)
    r = detect_relaxation(_stopped_ticks([0.0] * 50), [blocker], plain_path, 0.1, _STOPPED_EGO)
    assert r.active
    assert r.stopped_duration >= 3.0
    assert r.blocker_distance == pytest.approx(58.0 - 50.0 - 2.3 - 2.3, abs=0.3)


def test_relaxation_requires_blocker(plain_path):
    r = detect_relaxation(_stopped_ticks([0.0] * 50), [], plain_path, 0.1, _STOPPED_EGO)
    assert not r.active
    assert r.stopped_duration >= 3.0


def test_relaxation_requires_stop_duration(plain_path):
    blocker = static_car("b", 58.0, 0.0)
    r = detect_relaxation(_stopped_ticks([8.0] * 40 + [0.0] * 10), [blocker], plain_path, 0.1, _STOPPED_EGO)
    assert not r.active  # only 1 s stopped


def test_relaxation_skips_blocker_search_below_t_block(plain_path):
    # Stopped just under T_BLOCK behind a blocker the search would find.
    blocker = static_car("b", 58.0, 0.0)
    r = detect_relaxation(_stopped_ticks([8.0] * 40 + [0.0] * 29), [blocker], plain_path, 0.1, _STOPPED_EGO)
    assert not r.active
    assert r.blocker_distance is None
    assert r.stopped_duration == pytest.approx(2.9)
    r = detect_relaxation(_stopped_ticks([8.0] * 40 + [0.0] * 30), [blocker], plain_path, 0.1, _STOPPED_EGO)
    assert r.active and r.blocker_distance is not None


# -- relaxation hold (Planner._relaxation) -------------------------------------


def _blocked_planner():
    """A rad planner on the straight road, a static car parked on the lane at x = 58."""
    blocker = static_car("b", 58.0, 0.0)
    return Planner(straight_scenario(agents=(blocker,)), "rad"), [blocker]


def _moving(x, y):
    return EgoState(pose=Pose2(x, y, 0.0), speed=2.0)


def _trigger(planner, agents):
    """Plan calls with the ego stopped 8 m behind the blocker, t = 0, 0.1, ...;
    the relaxation state of each call."""
    stopped = EgoState(pose=Pose2(50.0, 0.0, 0.0), speed=0.0)
    return [planner.plan(stopped, agents, t=0.1 * k).relax for k in range(round(T_BLOCK / 0.1))]


def test_relaxation_triggers_on_the_thirtieth_stopped_plan_call():
    planner, agents = _blocked_planner()
    states = _trigger(planner, agents)
    assert [r.active for r in states] == [False] * 29 + [True]
    assert [r.blocker_distance for r in states[:29]] == [None] * 29
    assert states[-1].stopped_duration >= T_BLOCK
    assert states[-1].blocker_distance == pytest.approx((58.0 - 2.3) - (50.0 + 2.3))


def test_relaxation_counts_a_stop_of_700_plan_calls_as_600_and_one_moving_call_resets_it():
    # A stop of more than STOPPED_TICKS_MAX = 600 plan calls reads as 600 of them: 60 s at dt = 0.1.
    planner, agents = _blocked_planner()
    stopped = EgoState(pose=Pose2(50.0, 0.0, 0.0), speed=0.0)
    for k in range(700):
        relax = planner.plan(stopped, agents, t=0.1 * k).relax
    assert relax.active and relax.stopped_duration == 60.0
    moving = planner.plan(_moving(50.0, 0.0), agents, t=70.0).relax
    assert moving.stopped_duration == 0.0
    assert planner.plan(stopped, agents, t=70.1).relax.stopped_duration == 0.1


def test_relaxation_hold_stays_while_blocked_or_off_road_and_releases_when_both_clear():
    planner, agents = _blocked_planner()
    assert _trigger(planner, agents)[-1].active  # at t = 2.9
    # Moving again: the trigger is off, but the blocker is still in the corridor ahead.
    held = planner.plan(_moving(52.0, 0.0), agents, t=3.0).relax
    assert held.active and held.stopped_duration == 0.0
    assert held.blocker_distance == pytest.approx((58.0 - 2.3) - (52.0 + 2.3))
    # Past the blocker, which is now fully behind, with the footprint's left
    # corners at y = 4.45, beyond the drivable edge y = 4.
    off_road = planner.plan(_moving(65.0, 3.5), agents, t=3.1).relax
    assert off_road.active and off_road.blocker_distance is None
    # Back on the road with nothing ahead: released, and it stays released.
    for t in (3.2, 3.3):
        assert not planner.plan(_moving(66.0, 0.0), agents, t=t).relax.active


def test_relaxation_hold_releases_after_the_timeout_with_the_blocker_still_there():
    planner, agents = _blocked_planner()
    assert _trigger(planner, agents)[-1].active  # held since t = 2.9
    ego = _moving(52.0, 0.0)  # behind the blocker, which stays in the corridor
    assert planner.plan(ego, agents, t=2.9 + RELAX_HOLD_TIMEOUT - 0.1).relax.active
    assert not planner.plan(ego, agents, t=2.9 + RELAX_HOLD_TIMEOUT + 0.1).relax.active
    # Released, it holds again only after a new trigger.
    assert not planner.plan(ego, agents, t=2.9 + RELAX_HOLD_TIMEOUT + 0.2).relax.active


# -- aggregation ----------------------------------------------------------------


def test_aggregate_all_ones_is_one():
    assert aggregate(1, 1, 1, (1, 1, 1, 1, 1), 0.0, ScoreWeights(), goal_norm=100.0) == pytest.approx(1.0)


def test_aggregate_collision_kills_exactly():
    w = ScoreWeights(w_goal=0.0)
    assert aggregate(0, 1, 1, (1, 1, 1, 1, 1), 37.0, w, goal_norm=100.0) == 0.0


def test_aggregate_scalar_oracle():
    # weights (ttc, dr, sp, ep, cf) = (5, 1, 4, 5, 2); objectives (1, .5, 1, .8, 1)
    w = ScoreWeights(w_ttc=5, w_dr=1, w_sp=4, w_ep=5, w_cf=2, w_goal=0.0)
    agg = aggregate(1, 1, 1, (1.0, 0.5, 1.0, 0.8, 1.0), 0.0, w)
    assert agg == pytest.approx((5 + 0.5 + 4 + 4 + 2) / 17)
    assert agg == pytest.approx(0.9118, abs=1e-4)


def _reference_aggregate(c_col, c_ra, c_mp, objectives, goal_cost, w, relax, goal_norm):
    """One row's aggregate in Python floats, term by term."""
    c_ttc, c_dr, c_sp, c_ep, c_cf = objectives
    c_ra_eff = max(c_ra, RELAX_FLOOR) if relax.active else c_ra
    c_dr_eff = max(c_dr, RELAX_FLOOR) if relax.active else c_dr
    penalty = c_col * c_ra_eff * c_mp
    weighted = (
        w.w_ttc * c_ttc + w.w_dr * c_dr_eff + w.w_sp * c_sp + w.w_ep * c_ep + w.w_cf * c_cf
    ) / w.weighted_total
    norm_goal = min(goal_cost / goal_norm, 1.0) if goal_norm > 0 else 0.0
    return penalty * weighted - w.w_goal * norm_goal


def test_aggregate_array_matches_scalar_reference_bitwise():
    rng = np.random.default_rng(4)
    terms = rng.uniform(0, 1, size=(5, 400))
    terms[:, ::7] = rng.integers(0, 2, size=(5, 58))
    pens = rng.integers(0, 2, size=(3, 400)).astype(float)
    gc = rng.uniform(0, 150, size=400)
    w = ScoreWeights(w_ttc=4.5, w_dr=1.3, w_sp=3.7, w_ep=5.1, w_cf=2.2, w_goal=0.3)
    for relax in (RelaxationState(), RelaxationState(active=True)):
        batch = aggregate(*pens, tuple(terms), gc, w, relax, goal_norm=90.0)
        for i in range(400):
            row = _reference_aggregate(*pens[:, i].tolist(), tuple(terms[:, i].tolist()), float(gc[i]), w, relax, 90.0)
            assert batch[i] == row


def test_relaxation_lifts_ra_and_dr_only():
    w = ScoreWeights()
    relax = RelaxationState(active=True, stopped_duration=4.0, blocker_distance=5.0)
    expected_weighted = (5 + 1 * RELAX_FLOOR + 4 + 5 + 2) / 17
    assert aggregate(1, 0, 1, (1, 0, 1, 1, 1), 0.0, w, relax=relax) == pytest.approx(RELAX_FLOOR * expected_weighted)
    # c_col is never lifted.
    assert aggregate(0, 0, 1, (1, 0, 1, 1, 1), 0.0, w, relax=relax) == pytest.approx(0.0)


def test_relaxation_never_changes_collision_term():
    rng = np.random.default_rng(1)
    w = ScoreWeights()
    relax = RelaxationState(active=True, stopped_duration=5.0, blocker_distance=4.0)
    terms = rng.uniform(0, 1, size=(5, 100))
    c_col, c_ra, c_mp = rng.integers(0, 2, size=(3, 100)).astype(float)
    gc = rng.uniform(0, 120, size=100)
    relaxed = aggregate(c_col, c_ra, c_mp, tuple(terms), gc, w, relax, goal_norm=100.0)
    # Recompute by lifting only c_ra / c_dr by hand.
    lifted = terms.copy()
    lifted[1] = np.maximum(lifted[1], RELAX_FLOOR)
    manual = aggregate(c_col, np.maximum(c_ra, RELAX_FLOOR), c_mp, tuple(lifted), gc, w, goal_norm=100.0)
    assert relaxed == pytest.approx(manual, abs=1e-12)
    assert np.all(relaxed[c_col == 0] <= 0.0)


def test_aggregate_bounds():
    w = ScoreWeights()
    rng = np.random.default_rng(2)
    terms = rng.uniform(0, 1, size=(5, 300))
    pens = rng.integers(0, 2, size=(3, 300))
    gc = rng.uniform(0, 500, size=300)
    agg = aggregate(*pens, tuple(terms), gc, w, goal_norm=100.0)
    assert np.all((-w.w_goal - 1e-12 <= agg) & (agg <= 1.0 + 1e-12))


def test_aggregate_monotone_in_each_objective():
    w = ScoreWeights(w_goal=0.0)
    base = (0.9, 0.8, 0.7, 0.6, 0.5)
    b0 = aggregate(1, 1, 1, base, 0.0, w)
    for i in range(5):
        worse = list(base)
        worse[i] -= 0.3
        assert aggregate(1, 1, 1, tuple(worse), 0.0, w) < b0


def test_goal_null_equivalence_with_pdm_only():
    # With w_goal = 0 the ranking equals the goal-free scorer's on random sets.
    rng = np.random.default_rng(3)
    w_goal0 = ScoreWeights(w_goal=0.0)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        terms = tuple(rng.uniform(0, 1, size=(5, n)))
        pens = rng.integers(0, 2, size=(3, n))
        gc = rng.uniform(0, 100, size=n)
        aggs = aggregate(*pens, terms, gc, w_goal0, goal_norm=80.0)
        aggs_pdm = aggregate(*pens, terms, np.zeros(n), w_goal0, goal_norm=1.0)
        assert int(np.argmax(aggs)) == int(np.argmax(aggs_pdm))


# -- selection -----------------------------------------------------------------


def _rows(poses, steps=10, dt=0.1):
    """Trajectories standing at each (x, y, heading), one row per pose."""
    return [
        Trajectory(dt, np.tile([x, y], (steps + 1, 1)), np.full(steps + 1, h), np.zeros(steps + 1))
        for x, y, h in poses
    ]


# Ego 2.0 x 1.0 half extents at heading 0: corners land at exact binary offsets.
_EDGE = [(3.0, 3.0, 0.0), (123.0, -3.0, 0.0), (-3.0, 0.0, 0.0), (3.0, 3.0 + 2**-40, 0.0), (60.0, 0.0, 0.3)]
_STRADDLE = [(49.0, 0.0, 0.0), (50.0, 2.5, 0.0), (60.0, 3.5, 0.2), (55.0, 0.0, math.pi / 2)]
_TRIANGLE = [(70.0, 5.0, 0.0), (70.0, 6.0, 0.0), (70.0, 9.0, 0.0), (64.0, 5.0, 0.1), (20.0, 0.0, 0.0)]


@pytest.mark.parametrize(
    "polygons, poses",
    [
        ((rect(-5.0, -4.0, 125.0, 4.0),), _EDGE),
        ((rect(-5.0, -4.0, 50.0, 4.0), rect(50.0, -4.0, 130.0, 4.0)), _STRADDLE),
        ((rect(-5.0, -4.0, 125.0, 4.0), np.array([[60.0, 4.0], [80.0, 4.0], [70.0, 12.0]])), _TRIANGLE),
        ((rect(-5.0, -4.0, 125.0, 4.0),), []),
    ],
    ids=["corner_on_box_edge", "straddles_two_boxes", "triangle", "no_rows"],
)
def test_drivable_term_matches_the_union_of_polygons_bitwise(polygons, poses):
    scenario = replace(straight_scenario(), drivable_area=polygons)
    ps = _proposal_set(_rows(poses)) if poses else ProposalSet.empty(0.1, 10)
    ctx = replace(_score_context(scenario, straight_path(scenario)), forecast=forecast_agents([], 10, 0.1))
    ctx.ego_dims = (2.0, 1.0)
    c_ra = score_proposals(ps, ctx).c_ra
    corners = rect_corners_batch(*_planes(ps.positions, ps.headings), *ctx.ego_dims)  # (2, 4, P, 11)
    inside = reference_points_in_polygons(corners.transpose(2, 1, 3, 0).reshape(-1, 2), polygons)
    want = inside.reshape(len(ps), 11 * 4).all(axis=1).astype(float)
    assert c_ra.shape == want.shape == (len(poses),)
    assert np.array_equal(c_ra.view(np.int64), want.view(np.int64))
    if poses:  # the cases hold rows on both sides of the boundary
        assert 0.0 < c_ra.mean() < 1.0


@lru_cache(maxsize=None)
def _box_and_triangle():
    """The straight road's drivable box plus a triangle on its left edge, and the route path."""
    tri = np.array([[60.0, 4.0], [80.0, 4.0], [70.0, 12.0]])
    scenario = replace(straight_scenario(), drivable_area=(rect(-5.0, -4.0, 125.0, 4.0), tri))
    return scenario, straight_path(scenario)


_BOX_EDGES = ((1, 4.0, 1), (1, -4.0, -1), (0, -5.0, -1), (0, 125.0, 1))  # (plane, value, outward sign)


@st.composite
def _footprint_pose(draw):
    """(x, y, heading, half_length, half_width, edge): a pose anywhere around
    the drivable area (edge None), or one whose outermost corner k toward a
    box edge lies within a few ulps of it, the other corners inside (edge
    (k, plane, value))."""
    heading = Pose2(0.0, 0.0, draw(st.floats(-math.pi, math.pi))).heading
    hl, hw = draw(st.floats(0.5, 3.0)), draw(st.floats(0.3, 1.5))
    if draw(st.booleans()):
        return draw(st.floats(-10.0, 130.0)), draw(st.floats(-8.0, 14.0)), heading, hl, hw, None
    plane, value, outward = draw(st.sampled_from(_BOX_EDGES))
    c, s = np.cos(heading), np.sin(heading)
    corners = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))  # rect_corners_batch's order
    offsets = [float(lx * c - ly * s if plane == 0 else lx * s + ly * c) for lx, ly in corners]
    k = max(range(4), key=lambda i: outward * offsets[i])
    at = value - offsets[k]
    nudge = draw(st.integers(-2, 2))
    for _ in range(abs(nudge)):
        at = math.nextafter(at, math.copysign(math.inf, nudge))
    along = draw(st.floats(-0.5, 0.5) if plane == 0 else st.floats(5.0, 55.0))
    x, y = (at, along) if plane == 0 else (along, at)
    return x, y, heading, hl, hw, (k, plane, value)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_footprint_pose())
def test_footprint_inside_drivable_is_the_drivable_term_of_a_standing_row(case):
    # The off_road event and the relaxation hold read the ego's footprint as
    # score_proposals reads a row's: the same corners, at the boundary too.
    x, y, heading, hl, hw, edge = case
    scenario, path = _box_and_triangle()
    ego = EgoState(pose=Pose2(x, y, heading), speed=0.0, half_length=hl, half_width=hw)
    if edge is not None:
        k, plane, value = edge
        assert abs(agent_footprint(ego)[k, plane] - value) <= 16 * math.ulp(value)
    ps = _proposal_set(_rows([(ego.pose.x, ego.pose.y, ego.pose.heading)]))
    ctx = ScoreContext(
        scenario=scenario, forecast=forecast_agents([], 10, 0.1), route_path=path, goal_norm=100.0, ego_dims=(hl, hw)
    )
    assert score_proposals(ps, ctx).c_ra[0] == float(footprint_inside_drivable(ego, scenario))


_AT_TRIANGLE = st.tuples(
    st.floats(58.0, 82.0), st.floats(2.0, 12.0), st.floats(-math.pi, math.pi), st.floats(0.5, 3.0),
    st.floats(0.3, 1.5), st.none(),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(_footprint_pose(), _AT_TRIANGLE), st.sampled_from([(0, 1), (1, 0), (0,)]))
def test_footprint_inside_drivable_matches_points_in_polygons_bitwise(case, order):
    # One pose's corners in scalars against the boxes, the rest through
    # points_in_polygon: the batch routine's answer, at a box edge +- ulps
    # and over the triangle (no box), which comes before or after the box
    # or not at all.
    x, y, heading, hl, hw, _ = case
    scenario, _ = _box_and_triangle()
    scenario = replace(scenario, drivable_area=tuple(scenario.drivable_area[i] for i in order))
    ego = EgoState(pose=Pose2(x, y, heading), speed=0.0, half_length=hl, half_width=hw)
    assert footprint_inside_drivable(ego, scenario) is reference_footprint_inside_drivable(ego, scenario)


def test_scoring_an_empty_set_returns_empty_scores():
    scenario = generate_synthetic_scenario("blocked_lane", 1)
    path = graph_search(scenario.ego, scenario)[0]
    ctx = _score_context(scenario, path, agents=scenario.agents)
    scores = score_proposals(ProposalSet.empty(0.1, 40), ctx)
    assert len(scores) == 0
    for name in ("c_col", "c_ra", "c_mp", "c_ttc", "c_dr", "c_sp", "c_ep", "c_cf", "goal_cost", "aggregate"):
        assert getattr(scores, name).shape == (0,)


def _mixed_set():
    """deadlock_pair with two moving vehicles (one oncoming in the opposing
    lane, one ahead in the route lane), its route and opposing-bypass paths
    and their rollout rows, then three appended rows: one over the speed
    limit, one creeping backwards, one swerving into the opposing lane."""
    scenario = generate_synthetic_scenario("deadlock_pair", 1)
    movers = (
        AgentState("oncoming", Pose2(30.0, 1.8, math.pi), 6.0, 2.3, 1.0, "vehicle"),
        AgentState("lead", Pose2(14.0, -1.8, 0.0), 3.0, 2.3, 1.0, "vehicle"),
    )
    scenario = replace(scenario, agents=scenario.agents + movers)
    ego = scenario.ego
    paths = augment_with_adjacents(graph_search(ego, scenario), scenario, ego, enable_opposing=True)
    cfg = ProposalConfig()
    ps = generate_proposals(ego, paths, scenario.agents, cfg)
    t = np.arange(cfg.horizon_steps + 1) * cfg.dt
    pos = np.empty((3, len(t), 2))
    pos[:, :, 1] = ego.pose.y
    pos[0, :, 0] = ego.pose.x + 9.0 * t
    pos[1, :, 0] = ego.pose.x + 1.0 - 0.5 * t
    pos[2, :, 0] = ego.pose.x + 5.0 * t
    pos[2, :, 1] += 3.6 * np.minimum(t / 2.0, 1.0)
    heads = np.zeros((3, len(t)))
    heads[2, 1:] = np.arctan2(np.diff(pos[2, :, 1]), np.diff(pos[2, :, 0]))
    speeds = np.array([9.0, 0.5, 5.0])[:, None].repeat(len(t), axis=1)
    ps.append(cfg.dt, pos, heads, speeds, ("learned", "vocabulary", "learned_offset"))
    forecast = forecast_agents(scenario.agents, cfg.horizon_steps, cfg.dt)
    return ps, ScoreContext(scenario=scenario, forecast=forecast, route_path=paths[0], goal_norm=100.0)


def test_scores_of_a_mixed_set_match_the_references_bitwise():
    ps, ctx = _mixed_set()
    got = score_proposals(ps, ctx)
    pos, heads, speeds, f, route = ps.positions, ps.headings, ps.speeds, ctx.forecast, ctx.route_path
    paths = ps.paths + (route,)
    n, width = len(ps), ps.horizon_steps + 1
    appended = ps.path_index < 0
    opposing_rows = np.array([paths[j].opposing_mask.any() for j in ps.path_index]) & ~appended
    # The set holds what each term's shortcut must not skip.
    assert appended.sum() == 3 and opposing_rows.any()
    for name in ("c_col", "c_ra", "c_ttc", "c_sp"):
        assert set(getattr(got, name).tolist()) == {0.0, 1.0}, name

    corners = rect_corners_batch(*_planes(pos, heads), *ctx.ego_dims)  # (2, 4, P, S+1)
    inside = reference_points_in_polygons(corners.transpose(2, 1, 3, 0).reshape(-1, 2), ctx.scenario.drivable_area)
    c_ra = inside.reshape(n, -1).all(axis=1).astype(float)
    c_col = _reference_collision(pos, heads, f, ctx.ego_dims)
    s_start = reference_project_points(pos[:, 0], route.points)[0]
    s_end = reference_project_points(pos[:, -1], route.points)[0]
    gains = s_end - s_start
    feasible = c_col * c_ra > 0
    exempt = (gains[feasible].max() if feasible.any() else 0.0) < ctx.min_progress
    c_mp = np.ones(n) if exempt else np.where(gains < ctx.min_progress, 0.0, 1.0)
    c_ep = np.minimum(1.0, np.maximum(gains, 0.0) / np.maximum(gains, 0.0).max())
    limits = np.array([p.speed_limit for p in paths])[ps.path_index]
    c_sp = 1.0 - (speeds > (limits + SPEED_TOL)[:, None]).mean(axis=1)
    s = ps.s_track.copy()
    s[appended] = reference_project_points(pos[appended].reshape(-1, 2), route.points)[0].reshape(-1, width)
    c_dr = reference_batch_direction(s, ps.path_index, paths)
    assert (c_dr[opposing_rows] < 1.0).any() and (c_dr[appended] < 1.0).any()
    c_ttc = _reference_batch_ttc(pos, heads, speeds, f, ctx.ego_dims, TTC_WINDOW)
    c_cf = reference_batch_comfort(speeds, heads, ps.dt)
    goal = ctx.scenario.goal
    goal_cost = np.hypot(pos[:, -1, 0] - goal.x, pos[:, -1, 1] - goal.y)
    agg = np.array([
        _reference_aggregate(*row[:3], row[3:8], row[8], ctx.weights, ctx.relax, ctx.goal_norm)
        for row in zip(c_col, c_ra, c_mp, c_ttc, c_dr, c_sp, c_ep, c_cf, goal_cost)
    ])
    want = dict(
        c_col=c_col, c_ra=c_ra, c_mp=c_mp, c_ttc=c_ttc, c_dr=c_dr, c_sp=c_sp, c_ep=c_ep, c_cf=c_cf,
        goal_cost=goal_cost, aggregate=agg,
    )
    for name, ref in want.items():
        assert np.array_equal(getattr(got, name).view(np.int64), ref.view(np.int64)), name


@lru_cache(maxsize=None)
def _kind_rollouts(kind, seed):
    """A synthetic kind's paths (opposing bypass included) and their rollout rows at the start."""
    scenario = generate_synthetic_scenario(kind, seed)
    ego = scenario.ego
    paths = augment_with_adjacents(graph_search(ego, scenario), scenario, ego, enable_opposing=True)
    return scenario, paths, generate_proposals(ego, paths, scenario.agents, ProposalConfig())


APPENDED_TAGS = ("learned", "learned_offset", "vocabulary")


@st.composite
def _appended_case(draw):
    """Rollout rows of a synthetic kind plus appended rows, with relaxation
    on or off. The appended rows, each under a drawn tag: 0-12 random walks
    anchored at the ego, some holding their samples still for a while, some
    passing close to the route's chunk-boundary vertices, one in five
    starting off the ego; 0-3 route rollout rows run backwards from a drawn
    sample, so their direction credit is 0, 0.5 or 1; 0-2 copies of the
    best rollout row, which tie its aggregate and lose on tag and row; 0-2
    copies of it that step back once, by 1-4 samples, so their credit may
    fall while their other terms barely move; and 0-2 duplicates of rows
    already appended. Half the sets drop the best rollout row itself, so
    that appended rows can win."""
    scenario, paths, rollouts = _kind_rollouts(draw(st.sampled_from(SCENARIO_KINDS)), draw(st.integers(7, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = rollouts.horizon_steps + 1
    ctx = ScoreContext(
        scenario=scenario,
        forecast=forecast_agents(scenario.agents, rollouts.horizon_steps, rollouts.dt),
        route_path=paths[0],
        relax=RelaxationState(active=draw(st.booleans())),
        goal_norm=100.0,
    )
    best = int(score_proposals(rollouts, ctx).aggregate.argmax())
    kept = np.arange(len(rollouts)) != best if draw(st.booleans()) else np.ones(len(rollouts), dtype=bool)
    # A new set either way: append rebinds the arrays, and the cached set stays as it is.
    ps = replace(rollouts, **{
        name: getattr(rollouts, name)[kept]
        for name in ("positions", "headings", "speeds", "s_track", "path_index", "offsets", "fractions", "tags")
    })
    rows = []  # (positions, headings, speeds) per appended row
    m = draw(st.integers(0, 12))
    if m:
        ego = scenario.ego
        step = rng.normal(0.0, 1.0, (m, width - 1, 2)) + [ego.speed * ps.dt, 0.0]
        step[rng.random((m, width - 1)) < 0.3] = 0.0  # repeated samples
        pos = np.empty((m, width, 2))
        pos[:, 0] = ego.pose.x, ego.pose.y
        pos[rng.random(m) < 0.2, 0] += rng.normal(0.0, 2.0, 2)
        pos[:, 1:] = pos[:, :1] + step.cumsum(axis=1)
        vertices = paths[0].points
        near = rng.random((m, width)) < 0.2
        near[:, 0] = False
        k = int(near.sum())
        pos[near] = vertices[rng.integers(len(vertices), size=k)] + rng.normal(0.0, 1e-6, (k, 2))
        rows += zip(pos, rng.uniform(-math.pi, math.pi, (m, width)), rng.uniform(0.0, 12.0, (m, width)))
    route_rows = (rollouts.path_index == 0).nonzero()[0]
    for _ in range(draw(st.integers(0, 3))):
        r, k = rng.choice(route_rows), draw(st.integers(1, width - 1))
        back = np.maximum(k - np.arange(width), 0)
        rows.append((rollouts.positions[r, back], rollouts.headings[r, back], rollouts.speeds[r, back]))
    rows += [(rollouts.positions[best], rollouts.headings[best], rollouts.speeds[best])] * draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 2))):
        j, back = draw(st.integers(2, width - 2)), draw(st.integers(1, 4))
        step_back = np.arange(width)
        step_back[j] = max(j - back - 1, 0)
        rows.append((rollouts.positions[best, step_back], rollouts.headings[best], rollouts.speeds[best]))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        rows.append(rows[rng.integers(len(rows))])
    if rows:
        pos, heads, speeds = (np.stack(column) for column in zip(*rows))
        ps.append(ps.dt, pos, heads, speeds, rng.choice(APPENDED_TAGS, len(rows)).tolist())
    return ps, ctx


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_appended_case())
def test_route_arclengths_of_the_shortened_batch_match_the_full_batch_bitwise(case):
    # The gains batch holds the distinct row starts and the row ends only:
    # its gains, and the start and end arclengths a pending row's direction
    # term reads, must be those of a batch holding every appended sample.
    ps, ctx = case
    appended = ~ps.tracked
    s_start, s_end = scoring._route_arclengths(ps.positions, ctx.route_path)
    gains, s_appended = reference_route_arclengths(ps.positions, appended, ctx.route_path)
    _assert_bitwise(s_end - s_start, gains)
    _assert_bitwise(s_start[appended], s_appended[:, 0])
    _assert_bitwise(s_end[appended], s_appended[:, -1])


@pytest.mark.parametrize("kind", ["rad", "hybrid"])
def test_every_scored_set_shares_sample_0_across_its_rows(kind, monkeypatch):
    # _route_arclengths projects one start for a set whose rows all start at
    # one point. Every set the planner scores is one: the rollout rows (each
    # lateral offset), the vocabulary rows, the learned row and its offsets
    # all start at the ego, bit for bit.
    vocab = four_prototype_vocabulary()
    model = init_model(vocab, seed=0) if kind == "hybrid" else None
    sets = []
    score = scoring.score_proposals
    monkeypatch.setattr(scoring, "score_proposals", lambda proposals, ctx: sets.append(proposals) or score(proposals, ctx))
    for scenario in (generate_synthetic_scenario("blocked_lane", 7), with_traffic("intersection_turn")):
        run_episode(scenario, Planner(scenario, kind, vocabulary=vocab, model=model))
    assert len(sets) > 100
    tags = set()
    for proposals in sets:
        start = proposals.positions[:, 0]
        assert (start == start[0]).all()
        tags.update(TRAJECTORY_TAGS[t] for t in proposals.tags)
    assert any((proposals.offsets != 0).any() for proposals in sets)
    assert tags == {"idm", "vocabulary"} | ({"learned", "learned_offset"} if kind == "hybrid" else set())


def _record_terms(record):
    return np.array([getattr(record, name) for name in scoring._TERMS])


def _row_terms(columns, i):
    return np.array([columns[name][i] for name in scoring._TERMS])


def _assert_reads_bitwise(scores, want, order):
    """Records indexed in order, then every record and column, hold want's bits."""
    for i in order:
        _assert_bitwise(_record_terms(scores[i]), _row_terms(want, i))
    for i in range(len(scores)):
        _assert_bitwise(_record_terms(scores[i]), _row_terms(want, i))
    for name in scoring._TERMS:
        _assert_bitwise(getattr(scores, name), want[name])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_appended_case(), data=st.data())
def test_pending_direction_terms_match_the_eager_scorer_bitwise(case, data):
    # Every way of reading the scores gives the eager scorer's bits: records
    # indexed in any order (negative indices too) before the columns, the
    # columns first, iteration, and each of these after select_best, whose
    # winner is the one a lexsort of the eager aggregate picks.
    ps, ctx = case
    n = len(ps)
    want = reference_scores(ps, ctx)
    order = data.draw(st.lists(st.integers(-n, n - 1), max_size=n))
    _assert_reads_bitwise(score_proposals(ps, ctx), want, order)
    scores = score_proposals(ps, ctx)
    for name in scoring._TERMS:  # the columns first
        _assert_bitwise(getattr(scores, name), want[name])
    _assert_reads_bitwise(scores, want, order)
    scores = score_proposals(ps, ctx)
    for i, record in enumerate(scores):
        _assert_bitwise(_record_terms(record), _row_terms(want, i))
        assert record.relaxed == ctx.relax.active
    _, scores, best = select_best(ps, ctx)
    assert best == np.lexsort((np.arange(n), ps.tags, -want["aggregate"]))[0]
    _assert_reads_bitwise(scores, want, order)


# An objective term: [0, 1] and its edge values, -0.0 among them.
_UNIT = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    weights=st.tuples(*[st.floats(0.0, 10.0)] * 6).filter(lambda w: sum(w[:5]) > 0),
    terms=st.tuples(*[_UNIT] * 7),
    credits=st.lists(_UNIT, max_size=8),
    goal_cost=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e3)),
    goal_norm=st.sampled_from([0.0, 1.0, 100.0]),
    relax=st.booleans(),
)
def test_aggregate_is_non_decreasing_in_the_direction_credit_bitwise(weights, terms, credits, goal_cost, goal_norm, relax):
    # select_best's premise: with every other term fixed, the aggregate as
    # computed, rounding included, never falls as c_dr rises, so its values
    # at c_dr = 0 and 1 bound it at every credit between.
    c_col, c_ra, c_mp, c_ttc, c_sp, c_ep, c_cf = (np.full(len(credits) + 2, t) for t in terms)
    c_dr = np.array(sorted([0.0, 1.0] + credits))
    agg = aggregate(
        c_col, c_ra, c_mp, (c_ttc, c_dr, c_sp, c_ep, c_cf), np.full(len(c_dr), goal_cost),
        ScoreWeights(*weights), RelaxationState(active=relax), goal_norm,
    )
    assert (agg[:-1] <= agg[1:]).all()


def _spy_route_projections(mp, record):
    """Make scoring's projection hand each batch of the scorer's route
    projections (_route_arclengths, _PendingDirection.resolve) to record
    before projecting it. The relaxation check's corridor projection
    (_blocker_distance) goes to the same function and is not recorded."""
    project = scoring.project_points_to_polyline

    def spy(ps, table):
        if sys._getframe(1).f_code.co_name in ("_route_arclengths", "resolve"):
            record(np.array(ps))
        return project(ps, table)

    mp.setattr(scoring, "project_points_to_polyline", spy)


def test_a_pending_row_with_a_nan_bound_is_resolved_and_never_wins(monkeypatch, plain_scenario, plain_path):
    # Three appended rows; a NaN comfort term gives row 0 a NaN aggregate at
    # both bounds. select_best must take its direction term (its inner
    # samples open the candidates' projection batch) and pick a finite row.
    ps = _proposal_set([_straight_traj(v=v) for v in (9.0, 8.0, 3.0)])
    ctx = _score_context(plain_scenario, plain_path)
    comfort = scoring._batch_comfort

    def nan_first(speeds, heads, dt):
        c = comfort(speeds, heads, dt)
        c[0] = np.nan
        return c

    monkeypatch.setattr(scoring, "_batch_comfort", nan_first)
    want = reference_scores(ps, ctx)
    assert np.isnan(want["aggregate"][0]) and np.isfinite(want["aggregate"][1:]).all()
    batches = []
    _spy_route_projections(monkeypatch, batches.append)
    _, scores, best = select_best(ps, ctx)
    assert best != 0 and best == np.lexsort((np.arange(len(ps)), ps.tags, -want["aggregate"]))[0]
    inner = ps.positions[0, 1:-1]
    assert len(batches) == 2 and np.array_equal(batches[1][: len(inner)], inner)
    _assert_bitwise(_record_terms(scores[0]), _row_terms(want, 0))
    assert len(batches) == 2


def test_a_pending_row_whose_upper_bound_ties_the_threshold_is_resolved_and_wins(monkeypatch, plain_scenario, plain_path):
    # Two appended rows with one start, end, speed and heading profile. Row 1
    # steps back 2.4 m once (c_dr 0) and row 0 has c_ttc 0, so with w_ttc =
    # w_dr their aggregates tie bit for bit. Row 1 at its lower bound is the
    # threshold, and row 0's upper bound only ties it: row 0 must still be
    # resolved, and win on its lower row.
    base = _straight_traj(v=8.0)
    step_back = np.arange(base.horizon_steps + 1)
    step_back[20] = 16
    ps = _proposal_set([base, replace(base, positions=base.positions[step_back])])
    ctx = _score_context(plain_scenario, plain_path, weights=ScoreWeights(w_ttc=1.0, w_dr=1.0))
    ttc = scoring._batch_ttc

    def first_unclear(*args):
        c = ttc(*args)
        c[0] = 0.0
        return c

    monkeypatch.setattr(scoring, "_batch_ttc", first_unclear)
    want = reference_scores(ps, ctx)
    assert want["c_dr"].tolist() == [1.0, 0.0] and want["c_ttc"].tolist() == [0.0, 1.0]
    assert want["aggregate"][0] == want["aggregate"][1]
    _, scores, best = select_best(ps, ctx)
    assert best == 0
    for name in scoring._TERMS:
        _assert_bitwise(getattr(scores, name), want[name])


def test_indexing_a_pending_row_projects_that_row_alone(monkeypatch):
    # run_episode reads the winner's record every tick: indexing takes the
    # indexed row's direction term only, once. Reading an eager column or a
    # rollout row projects nothing; the aggregate column, then, the other
    # pending rows, in one call.
    ps, ctx = _mixed_set()
    n = len(ps)
    batches = []
    _spy_route_projections(monkeypatch, batches.append)
    scores = score_proposals(ps, ctx)
    assert len(batches) == 1  # the gains
    scores[n - 2]
    scores[-2]
    scores[0]
    scores.c_ep
    assert len(batches) == 2 and np.array_equal(batches[1], ps.positions[n - 2, 1:-1])
    scores.aggregate
    scores.c_dr
    list(scores)
    assert len(batches) == 3 and np.array_equal(batches[2], ps.positions[[n - 3, n - 1], 1:-1].reshape(-1, 2))


def test_repr_leaves_pending_rows_pending():
    # A debugger or a log line that shows the scores must not take the
    # pending rows' direction terms.
    scenario = generate_synthetic_scenario("blocked_lane", 7)
    planner = Planner(scenario, "rad", vocabulary=four_prototype_vocabulary())
    scores = planner.plan(scenario.ego, list(scenario.agents), t=0.0).breakdowns
    assert isinstance(scores, Scores)
    pending = scores._pending.mask.copy()
    assert pending.any()
    repr(scores)
    assert scores._pending is not None
    assert np.array_equal(scores._pending.mask, pending)


def test_only_rows_that_can_win_enter_the_route_projection(monkeypatch):
    # Seed-7 hybrid ticks without record_breakdowns. Each score call projects
    # the one distinct start and the row ends; select_best then projects the
    # inner samples of the appended rows that can win, by the eager bounds,
    # in one more call if there are any, and reading the winner's record
    # projects nothing. Iterating the scores afterwards, as record_breakdowns
    # does, projects the inner samples of the rest in one call.
    scenario = generate_synthetic_scenario("intersection_turn", 7)
    vocab = four_prototype_vocabulary()
    calls = []  # [proposals, context, projection batches, scores] per score call
    score = scoring.score_proposals

    def spy_score(proposals, ctx):
        calls.append([proposals, ctx, [], None])
        calls[-1][3] = score(proposals, ctx)
        return calls[-1][3]

    monkeypatch.setattr(scoring, "score_proposals", spy_score)
    _spy_route_projections(monkeypatch, lambda batch: calls[-1][2].append(batch))
    run_episode(scenario, Planner(scenario, "hybrid", vocabulary=vocab, model=init_model(vocab, seed=0)))
    monkeypatch.undo()
    assert len(calls) > 10
    resolved = 0
    for proposals, ctx, scored, scores in calls:
        n, pos = len(proposals), proposals.positions
        appended = ~proposals.tracked
        assert appended.sum() == 4 + 3  # the vocabulary, the learned plan and its two offset variants
        want = reference_scores(proposals, ctx)
        bounds = []
        for credit in (0.0, 1.0):
            c_dr = np.where(appended, credit, want["c_dr"])
            objectives = (want["c_ttc"], c_dr, want["c_sp"], want["c_ep"], want["c_cf"])
            bounds.append(aggregate(
                want["c_col"], want["c_ra"], want["c_mp"], objectives, want["goal_cost"],
                ctx.weights, ctx.relax, ctx.goal_norm,
            ))
        lower, upper = bounds
        keys = list(zip(-lower, proposals.tags, range(n)))
        first = min(keys)
        can_win = appended & np.array([(-upper[i], proposals.tags[i], i) <= first for i in range(n)])
        assert np.array_equal(scored[0], np.concatenate([pos[:1, 0], pos[:, -1]]))
        assert len(scored) == 1 + bool(can_win.any())
        if can_win.any():
            assert np.array_equal(scored[1], pos[can_win, 1:-1].reshape(-1, 2))
        resolved += int(can_win.sum())
        batches = []
        with pytest.MonkeyPatch.context() as mp:
            _spy_route_projections(mp, batches.append)
            records = list(scores)
        rest = appended & ~can_win
        assert len(batches) == 1 and np.array_equal(batches[0], pos[rest, 1:-1].reshape(-1, 2))
        for i, record in enumerate(records):
            _assert_bitwise(_record_terms(record), _row_terms(want, i))
    assert 0 < resolved < 7 * len(calls)


def _score_context(scenario, path, agents=(), relax=RelaxationState(), weights=None):
    return ScoreContext(
        scenario=scenario,
        forecast=forecast_agents(list(agents), 40, 0.1),
        route_path=path,
        weights=weights or ScoreWeights(),
        relax=relax,
        goal_norm=100.0,
    )


def test_select_single_proposal(plain_scenario, plain_path):
    traj = _straight_traj(v=8.0)
    ps = _proposal_set([traj])
    ctx = _score_context(plain_scenario, plain_path)
    winner, breakdowns, best = select_best(ps, ctx)
    assert best == 0
    assert np.array_equal(winner.positions, traj.positions) and winner.tag == traj.tag
    assert len(breakdowns) == 1


def test_select_safe_slow_over_colliding_fast(plain_scenario, plain_path):
    blocker = static_car("b", 25.0, 0.0)
    fast = _straight_traj(v=10.0)  # drives through the blocker
    slow = _straight_traj(v=2.0)  # stays short of it
    ps = _proposal_set([fast, slow])
    ctx = _score_context(plain_scenario, plain_path, agents=[blocker])
    winner, breakdowns, best = select_best(ps, ctx)
    assert best == 1
    assert np.array_equal(winner.positions, slow.positions)
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
    _, _, best = select_best(ps, ctx)
    assert best == max(range(len(ps)), key=lambda i: (breakdowns[i].aggregate, -i))
    assert ps.path(best).source == "left_adjacent"
    assert breakdowns[best].c_col == 1


def test_select_deterministic_under_permutation(plain_scenario, plain_path):
    rng = np.random.default_rng(5)
    trajs = [_straight_traj(v=float(v)) for v in rng.uniform(2, 9, size=8)]
    ps = _proposal_set(trajs)
    ctx = _score_context(plain_scenario, plain_path)
    winner, _, _ = select_best(ps, ctx)
    # Same trajectories, permuted arrival order, indices reassigned: the
    # winner is the same trajectory value.
    perm = list(reversed(trajs))
    ps2 = _proposal_set(perm)
    winner2, _, _ = select_best(ps2, ctx)
    assert winner.positions == pytest.approx(winner2.positions)


def test_select_ties_break_on_tag_priority_then_index(plain_scenario, plain_path):
    # One trajectory under five tags scores identically; the winner is the
    # idm row, and among the two idm rows the lower index, in any order.
    base = _straight_traj(v=7.0)
    tags = ["vocabulary", "idm", "learned_offset", "learned", "idm"]
    ctx = _score_context(plain_scenario, plain_path, agents=[static_car("c", 60.0, 3.0)])
    for order in itertools.permutations(range(5)):
        ps = _proposal_set([replace(base, tag=tags[i]) for i in order])
        winner, scores, best = select_best(ps, ctx)
        assert len(set(scores.aggregate)) == 1
        assert winner.tag == "idm"
        assert best == min(k for k, i in enumerate(order) if tags[i] == "idm")
    # Without idm rows, learned beats learned_offset beats vocabulary.
    for order in itertools.permutations(["vocabulary", "learned_offset", "learned"]):
        winner, _, _ = select_best(_proposal_set([replace(base, tag=t) for t in order]), ctx)
        assert winner.tag == "learned"


def _assert_bitwise(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 30),
    steps=st.integers(1, 40),
    dt=st.sampled_from([0.05, 0.1, 0.5]),
)
def test_batch_comfort_matches_reference_bitwise(seed, rows, steps, dt):
    # Speeds that hold, ramp and jump; headings that turn and wrap past +-pi.
    rng = np.random.default_rng(seed)
    speeds = np.maximum(0.0, rng.uniform(0.0, 15.0, (rows, 1)) + np.cumsum(rng.normal(0.0, 0.3, (rows, steps + 1)), axis=1))
    speeds[rng.random((rows, steps + 1)) < 0.1] = 0.0
    heads = np.cumsum(rng.normal(0.0, 0.08, (rows, steps + 1)), axis=1) + rng.uniform(-math.pi, math.pi, (rows, 1))
    heads = (heads + math.pi) % (2.0 * math.pi) - math.pi
    _assert_bitwise(_batch_comfort(speeds, heads, dt), reference_batch_comfort(speeds, heads, dt))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_paths=st.integers(1, 4), rows=st.integers(1, 30), steps=st.integers(1, 40))
def test_batch_direction_matches_reference_bitwise(seed, n_paths, rows, steps):
    # Paths with repeated vertices and mixed opposing flags or none; rollouts that
    # advance, stop and reverse, also before the start and past the end. The
    # last path serves the rows with path index -1, as the route does.
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(n_paths):
        m = int(rng.integers(2, 30))
        step = rng.choice([0.0, 0.5, 1.0], m - 1, p=[0.1, 0.3, 0.6])
        pts = np.stack([np.concatenate([[0.0], np.cumsum(step)]), np.zeros(m)], axis=1)
        paths.append(
            ProposalPath((), SegmentTable(pts), "ego_route", 10.0, rng.random(m) < rng.choice([0.0, 0.4]))
        )
    path_index = rng.integers(-1, n_paths - 1, rows)
    s = rng.uniform(-3.0, 5.0, (rows, 1)) + np.cumsum(rng.normal(0.4, 0.6, (rows, steps + 1)), axis=1)
    _assert_bitwise(_batch_direction(s, path_index, tuple(paths)), reference_batch_direction(s, path_index, tuple(paths)))
