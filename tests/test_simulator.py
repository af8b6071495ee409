import hashlib
import math

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from radstack.geometry import normalize_angle
from radstack.planner import Planner, PlannerConfig
from radstack.proposals import CORRIDOR_MARGIN, IdmParams, idm_accel
from radstack.scene import (
    SCENARIO_KINDS,
    AgentState,
    EgoState,
    Pose2,
    Trajectory,
    generate_synthetic_scenario,
)
from radstack.simulator import (
    STEER_LIMIT,
    LqrConfig,
    SimConfig,
    bicycle_step,
    load_episode_log,
    lqr_gain,
    lqr_track,
    run_episode,
    save_episode_log,
    step_agents,
)

from radstack.vocabulary import Vocabulary

from conftest import reference_project_points, static_car, straight_lane, straight_scenario


def _ego(x=0.0, y=0.0, heading=0.0, speed=5.0):
    return EgoState(pose=Pose2(x, y, heading), speed=speed)


def test_bicycle_straight_constant_speed():
    ego = _ego(speed=5.0)
    for _ in range(10):
        ego = bicycle_step(ego, 0.0, 0.0, 0.1)
    assert ego.pose.x == pytest.approx(5.0)
    assert ego.pose.y == pytest.approx(0.0)
    assert ego.speed == pytest.approx(5.0)


def test_bicycle_constant_steer_turning_radius():
    # Closed-form radius wheelbase / tan(steer); integrate one lap at 1 ms.
    steer = 0.3
    ego = _ego(speed=5.0)
    radius = ego.wheelbase / math.tan(steer)
    dt = 0.001
    lap_time = 2 * math.pi * radius / ego.speed
    xs, ys = [], []
    for _ in range(int(lap_time / dt)):
        ego = bicycle_step(ego, 0.0, steer, dt)
        xs.append(ego.pose.x)
        ys.append(ego.pose.y)
    cx, cy = np.mean(xs), np.mean(ys)
    radii = np.hypot(np.array(xs) - cx, np.array(ys) - cy)
    assert abs(radii.mean() - radius) < 1e-3
    assert radii.std() < 1e-3


def test_bicycle_no_reverse():
    ego = _ego(speed=0.0)
    out = bicycle_step(ego, -1.0, 0.0, 0.1)
    assert out.speed == 0.0
    assert out.pose.x == pytest.approx(0.0)


def test_bicycle_clamps_commands():
    ego = _ego(speed=5.0)
    out = bicycle_step(ego, 99.0, 99.0, 0.1)
    assert out.accel == pytest.approx(3.0)
    assert out.steering == pytest.approx(0.6)


def _reference(v=5.0, steps=60, dt=0.1, y=0.0):
    xs = np.arange(steps + 1) * v * dt
    xy = np.stack([xs, np.full(steps + 1, y)], axis=1)
    return Trajectory(
        dt=dt, positions=xy, headings=np.zeros(steps + 1), speeds=np.full(steps + 1, v), tag="replay"
    )


def test_lqr_on_reference_near_zero_commands():
    ref = _reference(v=5.0)
    ego = _ego(speed=5.0)
    accel, steer = lqr_track(ego, ref)
    assert accel == pytest.approx(0.0, abs=1e-9)
    assert steer == pytest.approx(0.0, abs=1e-9)


def test_lqr_converges_from_half_metre_offset():
    # Acceptance-grade: 0.5 m initial offset on a straight 5 m/s reference;
    # cross-track < 0.1 m within 4 s, steady state < 0.05 m.
    dt = 0.1
    ego = _ego(y=0.5, speed=5.0)
    errors = []
    for k in range(80):
        ref = _reference(v=5.0, steps=60, dt=dt)
        # Reference re-rooted at the ego's arclength like the closed loop does.
        accel, steer = lqr_track(ego, ref)
        ego = bicycle_step(ego, accel, steer, dt)
        errors.append(abs(ego.pose.y))
    assert min(errors[:40]) < 0.1
    assert max(errors[40:]) < 0.1
    assert max(errors[60:]) < 0.05


def test_riccati_fixed_point_converged():
    cfg = LqrConfig()
    k49 = lqr_gain(5.0, 0.1, 2.7, cfg, iterations=49)
    k50 = lqr_gain(5.0, 0.1, 2.7, cfg, iterations=50)
    assert np.abs(k49 - k50).max() < 1e-9


def _dare_gain_by_recursion(speed, dt, wheelbase, cfg):
    """Oracle: the textbook matrix Riccati recursion, iterated to a 1e-12 step."""
    A = np.array([[1.0, speed * dt], [0.0, 1.0]])
    B = np.array([[0.0], [speed * dt / wheelbase]])
    Q = np.diag([cfg.q_lateral, cfg.q_heading])
    R = np.array([[cfg.r_steer]])
    P = Q
    for _ in range(100_000):
        K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        P_next = Q + A.T @ P @ (A - B @ K)
        done = np.abs(P_next - P).max() <= 1e-12 * np.abs(P_next).max()
        P = P_next
        if done:
            return np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A).ravel()
    raise AssertionError("oracle recursion did not converge")


@pytest.mark.parametrize("speed", [0.2, 0.5, 1.0, 2.0, 5.0])
def test_lqr_gain_matches_dare_fixed_point(speed):
    # Low speeds are the creep/relaxation regime, where a fixed short
    # recursion is furthest from the fixed point.
    cfg = LqrConfig()
    expected = _dare_gain_by_recursion(speed, 0.1, 2.7, cfg)
    got = lqr_gain(speed, 0.1, 2.7, cfg)
    assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()


def test_lqr_gain_raises_when_unsolvable_or_capped():
    cfg = LqrConfig()
    with pytest.raises(ValueError, match="speed 0.0"):
        lqr_gain(0.0, 0.1, 2.7, cfg)  # B = 0: not stabilisable
    with pytest.raises(ValueError, match="speed 5.0"):
        lqr_gain(5.0, 0.1, 2.7, cfg, iterations=2)


@pytest.mark.parametrize("speed", [0.0, 0.05, LqrConfig().low_speed * 0.999])
def test_lqr_track_below_low_speed_uses_fixed_gain(speed):
    cfg = LqrConfig()
    ego = _ego(y=0.5, speed=speed)
    _, steer = lqr_track(ego, _reference(v=5.0), cfg)
    assert steer == pytest.approx(-cfg.low_speed_gain[0] * 0.5, abs=1e-12)


def test_step_agents_idm_approaches_reference_speed():
    s = straight_scenario()
    agent = AgentState(id="v", pose=Pose2(10.0, 0.0, 0.0), speed=0.0, half_length=2.3, half_width=1.0)
    agents = [agent]
    for _ in range(600):
        agents = step_agents(agents, s, "reactive_idm", 0.1)
    assert agents[0].speed == pytest.approx(8.0, abs=0.3)  # capped by agent v0


def test_step_agents_platoon_no_collision():
    from radstack.geometry import boxes_overlap

    s = straight_scenario(length=600.0, goal_x=550.0)
    agents = [
        AgentState(id=f"v{i}", pose=Pose2(10.0 + 12.0 * i, 0.0, 0.0), speed=float(3 + 2 * i), half_length=2.3, half_width=1.0)
        for i in range(3)
    ]
    for _ in range(600):
        agents = step_agents(agents, s, "reactive_idm", 0.1)
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = agents[i], agents[j]
                assert not boxes_overlap(
                    b.pose.x - a.pose.x, b.pose.y - a.pose.y, a.pose.heading, a.half_length, a.half_width,
                    b.pose.heading, b.half_length, b.half_width,
                )


def _reference_project(pose, lane):
    """(s, lateral, heading) of one pose's position on a lane, by the dense reference."""
    s, lat, head, _ = reference_project_points(np.array([[pose.x, pose.y]]), lane.points)
    return s[0], lat[0], head[0]


def _reference_agent_lane(scenario, agent):
    """Lane whose direction best matches the agent heading, within 3 m."""
    best = None
    for lane in scenario.lanes:
        s, lat, head = _reference_project(agent.pose, lane)
        if abs(lat) > 3.0:
            continue
        align = math.cos(agent.pose.heading - head)
        if align < 0.5:
            continue
        key = (abs(lat), lane.id)
        if best is None or key < best[0]:
            best = (key, lane)
    return best[1] if best else None


_REFERENCE_IDM = IdmParams(v0=8.0, T_h=1.5, s0=2.0, a_max=1.5, b_comf=2.0)


def _reference_step_vehicle(agent, agents, scenario, dt, ego):
    """Reference: one vehicle at a time, one scalar projection per entity."""
    lane = _reference_agent_lane(scenario, agent)
    if lane is None:
        p = agent.pose
        return replace(
            agent,
            pose=Pose2(
                p.x + agent.speed * math.cos(p.heading) * dt,
                p.y + agent.speed * math.sin(p.heading) * dt,
                p.heading,
            ),
        )
    s_cum = lane.s
    s_self, _, _ = _reference_project(agent.pose, lane)

    # Nearest entity ahead in this lane corridor (other agents and the ego).
    gap = math.inf
    v_lead = 0.0
    entities = [(a.pose, a.speed, a.half_length, a.half_width) for a in agents if a.id != agent.id]
    if ego is not None:
        entities.append((ego.pose, ego.speed, ego.half_length, ego.half_width))
    for pose, speed, half_len, half_w in entities:
        s_o, lat_o, head_o = _reference_project(pose, lane)
        if abs(lat_o) > agent.half_width + half_w + CORRIDOR_MARGIN:
            continue
        d = s_o - s_self - half_len - agent.half_length
        if d <= 0:
            continue
        if d < gap:
            gap = d
            v_lead = speed * math.cos(pose.heading - head_o)

    p = replace(_REFERENCE_IDM, v0=min(_REFERENCE_IDM.v0, lane.speed_limit))
    a_cmd = idm_accel(agent.speed, v_lead, max(gap, 0.05) if math.isfinite(gap) else math.inf, p)
    v_new = max(0.0, agent.speed + a_cmd * dt)

    # Pure-pursuit steer toward a point ahead on the lane.
    look = max(3.0, 1.5 * agent.speed)
    s_target = min(s_self + look, s_cum[-1])
    x_t = np.interp(s_target, s_cum, lane.points[:, 0])
    y_t = np.interp(s_target, s_cum, lane.points[:, 1])
    alpha = normalize_angle(
        math.atan2(y_t - agent.pose.y, x_t - agent.pose.x) - agent.pose.heading
    )
    wheelbase = max(1.0, agent.half_length)
    steer = math.atan2(2.0 * wheelbase * math.sin(alpha), look)
    steer = min(STEER_LIMIT, max(-STEER_LIMIT, steer))
    heading = normalize_angle(agent.pose.heading + agent.speed / wheelbase * math.tan(steer) * dt)
    x = agent.pose.x + agent.speed * math.cos(agent.pose.heading) * dt
    y = agent.pose.y + agent.speed * math.sin(agent.pose.heading) * dt
    return replace(agent, pose=Pose2(x, y, heading), speed=v_new)


def _reference_step_agents(agents, scenario, dt, ego):
    out = []
    for a in agents:
        if a.kind == "static":
            out.append(a)
        elif a.kind == "pedestrian":
            p = a.pose
            out.append(replace(a, pose=Pose2(
                p.x + a.speed * math.cos(p.heading) * dt, p.y + a.speed * math.sin(p.heading) * dt, p.heading
            )))
        else:
            out.append(_reference_step_vehicle(a, agents, scenario, dt, ego))
    return out


@st.composite
def _traffic_case(draw):
    """A synthetic scenario with 1-10 vehicles placed about its lanes.

    Most sit near a lane with its heading (or against it), some 3.5-8 m off
    every lane; `twins` copy a vehicle's pose and length under a new id, so a
    follower sees two leads at exactly the same gap. A static agent and a
    pedestrian ride along, and an ego is present or not.
    """
    scenario = generate_synthetic_scenario(draw(st.sampled_from(SCENARIO_KINDS)), draw(st.integers(0, 3)))
    n = draw(st.integers(1, 10))
    twins = draw(st.integers(0, min(3, n - 1)))
    with_ego = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pose_near_lanes():
        lane = scenario.lanes[rng.integers(len(scenario.lanes))]
        xy, head = lane.segments.pose_at(rng.uniform(0.0, lane.length))
        off = rng.uniform(-1.8, 1.8) if rng.random() < 0.8 else rng.choice([-1, 1]) * rng.uniform(3.5, 8.0)
        head += rng.uniform(-0.4, 0.4) + (math.pi if rng.random() < 0.15 else 0.0)
        return Pose2(xy[0] - off * math.sin(head), xy[1] + off * math.cos(head), head)

    agents = []
    for i in range(n - twins):
        agents.append(AgentState(
            id=f"v{i}", pose=pose_near_lanes(), speed=float(rng.uniform(0.0, 12.0)),
            half_length=float(rng.uniform(1.5, 3.0)), half_width=float(rng.uniform(0.8, 1.2)),
        ))
    for i in range(twins):
        src = agents[rng.integers(len(agents))]
        agents.append(replace(src, id=f"t{i}", speed=float(rng.uniform(0.0, 12.0))))
    agents.insert(rng.integers(len(agents) + 1), AgentState(
        id="ped", pose=pose_near_lanes(), speed=1.2, half_length=0.3, half_width=0.3, kind="pedestrian"
    ))
    agents.insert(rng.integers(len(agents) + 1), AgentState(
        id="parked", pose=pose_near_lanes(), speed=0.0, half_length=2.3, half_width=1.0, kind="static"
    ))
    ego = None
    if with_ego:
        ego = EgoState(pose=pose_near_lanes(), speed=float(rng.uniform(0.0, 12.0)))
    return scenario, agents, ego


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_traffic_case())
def test_step_agents_matches_scalar_reference(case):
    # Not bit-identical: the array projection, power and trig may round the
    # last bit differently from the scalar calls.
    scenario, agents, ego = case
    got = step_agents(agents, scenario, "reactive_idm", 0.1, ego=ego)
    want = _reference_step_agents(agents, scenario, 0.1, ego)
    assert [a.id for a in got] == [a.id for a in want]
    for g, w in zip(got, want):
        assert g.kind == w.kind and g.half_length == w.half_length
        assert abs(g.pose.x - w.pose.x) <= 1e-12
        assert abs(g.pose.y - w.pose.y) <= 1e-12
        assert abs(normalize_angle(g.pose.heading - w.pose.heading)) <= 1e-12
        assert abs(g.speed - w.speed) <= 1e-12


def test_step_agents_follows_first_of_equal_gap_leads():
    # Two leads 20 m ahead at the same arclength: the slow one listed first
    # sets the follower's IDM lead speed, as the scalar strict < did.
    s = straight_scenario()
    follower = AgentState(id="f", pose=Pose2(10.0, 0.0, 0.0), speed=8.0, half_length=2.3, half_width=1.0)
    slow = AgentState(id="s", pose=Pose2(34.6, 0.4, 0.0), speed=0.0, half_length=2.3, half_width=1.0)
    fast = replace(slow, id="q", pose=Pose2(34.6, -0.4, 0.0), speed=8.0)
    a_slow = step_agents([follower, slow, fast], s, "reactive_idm", 0.1)[0].speed
    a_fast = step_agents([follower, fast, slow], s, "reactive_idm", 0.1)[0].speed
    assert a_slow < a_fast < 8.0
    assert a_slow == pytest.approx(_reference_step_agents([follower, slow, fast], s, 0.1, None)[0].speed, abs=1e-12)


def test_step_agents_lane_tie_goes_to_lower_lane_id():
    # Two lanes on the same centreline tie on |lateral|; "lane_a" (4 m/s)
    # wins over "lane_b" (10 m/s) though it is listed second, so the vehicle
    # brakes toward 4 m/s instead of speeding up toward the 8 m/s agent cap.
    s = replace(straight_scenario(), lanes=(straight_lane("lane_b", limit=10.0), straight_lane("lane_a", limit=4.0)))
    car = AgentState(id="v", pose=Pose2(10.0, 0.5, 0.0), speed=6.0, half_length=2.3, half_width=1.0)
    out = step_agents([car], s, "reactive_idm", 0.1)[0]
    assert out.speed < 6.0
    assert out.speed == pytest.approx(_reference_step_agents([car], s, 0.1, None)[0].speed, abs=1e-12)


def test_step_agents_replay_exact_script():
    s = straight_scenario()
    a = AgentState(id="r", pose=Pose2(5.0, 1.0, 0.25), speed=4.0, half_length=2.3, half_width=1.0)
    agents = [a]
    for k in range(1, 21):
        agents = step_agents(agents, s, "replay", 0.1)
        expect_x = 5.0 + 4.0 * math.cos(0.25) * 0.1 * k
        expect_y = 1.0 + 4.0 * math.sin(0.25) * 0.1 * k
        assert agents[0].pose.x == pytest.approx(expect_x, abs=1e-12)
        assert agents[0].pose.y == pytest.approx(expect_y, abs=1e-12)
        assert agents[0].speed == 4.0


def test_step_agents_pedestrian_constant_velocity():
    s = straight_scenario()
    ped = AgentState(id="p", pose=Pose2(5.0, -2.0, math.pi / 2), speed=1.2, half_length=0.3, half_width=0.3, kind="pedestrian")
    agents = step_agents([ped], s, "reactive_idm", 0.1)
    assert agents[0].pose.y == pytest.approx(-2.0 + 0.12)


def test_static_agents_never_move():
    s = straight_scenario()
    blocker = static_car("b", 30.0, 0.0)
    for policy in ("reactive_idm", "replay"):
        out = step_agents([blocker], s, policy, 0.1)
        assert out[0].pose == blocker.pose


def test_run_episode_empty_road_reaches_goal():
    s = straight_scenario(ego_speed=8.0)
    log = run_episode(s, "rad", SimConfig())
    assert log.event_names == ["goal_reached"]


def test_run_episode_blocked_baseline_deadlocks(blocked_scenario):
    log = run_episode(blocked_scenario, "baseline_static", SimConfig())
    assert "deadlock" in log.event_names
    assert "goal_reached" not in log.event_names
    assert "collision" not in log.event_names


def test_run_episode_blocked_rad_escapes_via_adjacent(blocked_scenario):
    log = run_episode(blocked_scenario, "rad", SimConfig())
    assert "goal_reached" in log.event_names
    assert "collision" not in log.event_names
    sources = {r["source"] for r in log.records}
    assert "left_adjacent" in sources


def test_run_episode_bit_deterministic(tmp_path, blocked_scenario):
    cfg = SimConfig(record_breakdowns=True)
    a = run_episode(blocked_scenario, "rad", cfg)
    b = run_episode(blocked_scenario, "rad", cfg)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_episode_log(a, pa)
    save_episode_log(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


# sha256 of the `rad` episode log with every proposal's breakdown on
# blocked_lane seed 7 (one static blocker; 160 ticks, 4800 proposal rows).
# A change that keeps planning byte-identical keeps this value. To regenerate
# after a deliberate behaviour change, run this test's episode, save the log
# with save_episode_log and take `sha256sum` of the file; say why it moved.
BLOCKED_LANE_7_BREAKDOWN_LOG_SHA256 = "b7e7dcecba1ef6972230955694e139f7756d6a7748d077378c0edc03e786d482"


def test_rad_breakdown_log_matches_recorded_digest(tmp_path, blocked_scenario):
    log = run_episode(blocked_scenario, "rad", SimConfig(record_breakdowns=True))
    p = tmp_path / "rad.jsonl"
    save_episode_log(log, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == BLOCKED_LANE_7_BREAKDOWN_LOG_SHA256


# sha256 of the same episode log when `rad` also scores a hand-made
# 4-prototype vocabulary (151 ticks to goal_reached, 38 of them won by a
# vocabulary row, 5134 proposal rows). Each tick re-projects the 164 samples of
# the vocabulary rows onto the route, above PRUNE_MIN_PAIRS, so this pins the
# broad-phase projection. Regenerate as above.
BLOCKED_LANE_7_VOCABULARY_LOG_SHA256 = "80d22b1cc85eb1b3c6728d9bcdf425ec4bf77f6909615225931cf212e2778f50"


def _four_prototype_vocabulary():
    t = np.arange(1, 41) * 0.1  # s, the default 4 s horizon
    ramp = np.minimum(t / 3.0, 1.0)
    return Vocabulary(
        prototypes=np.stack(
            [
                np.stack([4.0 * t, 0.0 * t], axis=1),  # slow, straight
                np.stack([8.0 * t, 0.0 * t], axis=1),  # at the limit, straight
                np.stack([7.0 * t, 3.5 * ramp], axis=1),  # one lane left
                np.stack([6.0 * t, -1.0 * ramp], axis=1),  # a metre right
            ]
        ),
        dt=0.1,
    )


def test_rad_vocabulary_log_matches_recorded_digest(tmp_path, blocked_scenario):
    planner = Planner(blocked_scenario, kind="rad", vocabulary=_four_prototype_vocabulary())
    log = run_episode(blocked_scenario, planner, SimConfig(record_breakdowns=True))
    p = tmp_path / "rad_vocabulary.jsonl"
    save_episode_log(log, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == BLOCKED_LANE_7_VOCABULARY_LOG_SHA256


def test_episode_log_round_trip(tmp_path, blocked_scenario):
    log = run_episode(blocked_scenario, "rad", SimConfig())
    p = tmp_path / "ep.jsonl"
    save_episode_log(log, p)
    loaded = load_episode_log(p)
    assert loaded.planner_kind == log.planner_kind
    assert len(loaded.records) == len(log.records)
    assert loaded.events == log.events
    p2 = tmp_path / "ep2.jsonl"
    save_episode_log(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_disturbance_replanning_invariant(plain_scenario):
    cfg = SimConfig(disturbances=((30, 2.0),))
    log = run_episode(plain_scenario, "rad", cfg)
    rec = log.records[31]  # first planning tick after the jolt
    assert rec["replan_root_gap"] <= 0.5


def test_ego_step_bounded_by_speed(plain_scenario):
    log = run_episode(plain_scenario, "rad", SimConfig())
    xs = np.array([r["ego"][:2] for r in log.records])
    vmax = max(r["ego"][3] for r in log.records)
    steps = np.linalg.norm(np.diff(xs, axis=0), axis=1)
    assert steps.max() <= vmax * 0.1 + 1e-6


def test_events_recorded_once(blocked_scenario):
    log = run_episode(blocked_scenario, "baseline_static", SimConfig())
    names = log.event_names
    assert len(names) == len(set(names))
