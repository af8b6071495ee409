import math

import numpy as np
import pytest

from radstack.planner import Planner, PlannerConfig
from radstack.scene import AgentState, EgoState, Pose2, Trajectory, generate_synthetic_scenario
from radstack.simulator import (
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

from conftest import static_car, straight_scenario


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
    from radstack.scene import agent_footprint
    from radstack.geometry import rects_overlap

    s = straight_scenario(length=600.0, goal_x=550.0)
    agents = [
        AgentState(id=f"v{i}", pose=Pose2(10.0 + 12.0 * i, 0.0, 0.0), speed=float(3 + 2 * i), half_length=2.3, half_width=1.0)
        for i in range(3)
    ]
    for _ in range(600):
        agents = step_agents(agents, s, "reactive_idm", 0.1)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not rects_overlap(agent_footprint(agents[i]), agent_footprint(agents[j]))


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
