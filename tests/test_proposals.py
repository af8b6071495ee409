import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radstack.proposals import (
    B_HARD,
    IdmParams,
    ProposalConfig,
    generate_proposals,
    idm_accel,
    rollout_idm,
)
from radstack.scene import EgoState, Pose2

from conftest import static_car, straight_path, straight_scenario


def test_idm_free_flow_equilibrium():
    p = IdmParams(v0=10.0)
    assert idm_accel(10.0, 0.0, math.inf, p) == pytest.approx(0.0)


def test_idm_standstill_equilibrium():
    p = IdmParams()
    assert idm_accel(0.0, 0.0, p.s0, p) == pytest.approx(0.0)


def test_idm_scalar_oracle():
    # a_max * (1 - (v/v0)^delta) with no interaction term.
    p = IdmParams(v0=10.0, a_max=2.0, delta=4.0)
    assert idm_accel(5.0, 0.0, math.inf, p) == pytest.approx(2.0 * (1 - 0.0625))
    assert idm_accel(5.0, 0.0, math.inf, p) == pytest.approx(1.875)


def test_idm_clamped():
    p = IdmParams(v0=10.0, a_max=2.0)
    assert idm_accel(10.0, 0.0, 0.1, p) == pytest.approx(-B_HARD)


@settings(max_examples=200, deadline=None)
@given(
    v=st.floats(0.0, 20.0),
    dv=st.floats(0.01, 5.0),
    v_lead=st.floats(0.0, 20.0),
    gap=st.floats(0.5, 200.0),
)
def test_idm_monotone_non_increasing_in_v(v, dv, v_lead, gap):
    p = IdmParams(v0=12.0)
    assert idm_accel(v + dv, v_lead, gap, p) <= idm_accel(v, v_lead, gap, p) + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    v=st.floats(0.0, 20.0),
    v_lead=st.floats(0.0, 20.0),
    gap=st.floats(0.5, 100.0),
    dgap=st.floats(0.01, 100.0),
)
def test_idm_monotone_non_decreasing_in_gap(v, v_lead, gap, dgap):
    p = IdmParams(v0=12.0)
    assert idm_accel(v, v_lead, gap + dgap, p) >= idm_accel(v, v_lead, gap, p) - 1e-12


def _default_cfg():
    return ProposalConfig()


def test_rollout_empty_road_constant_speed():
    s = straight_scenario(ego_speed=10.0, limit=10.0)
    path = straight_path(s)
    p = IdmParams(v0=10.0)
    traj = rollout_idm(s.ego, path, 0.0, p, [], _default_cfg())
    assert traj.tag == "idm"
    assert traj.horizon_steps == 40
    assert np.allclose(traj.speeds, 10.0, atol=1e-6)
    assert np.abs(traj.positions[:, 1]).max() < 1e-9
    # First sample equals the ego state exactly.
    assert tuple(traj.positions[0]) == (s.ego.pose.x, s.ego.pose.y)
    assert traj.headings[0] == s.ego.pose.heading
    assert traj.speeds[0] == s.ego.speed


def _fine_step_idm_reference(v_init, gap_init, p, horizon, dt_fine=0.001):
    """Scalar forward-Euler IDM vs a static lead at fine resolution."""
    v, gap = v_init, gap_init
    for _ in range(int(horizon / dt_fine)):
        a = idm_accel(v, 0.0, max(gap, 0.05), p)
        gap -= v * dt_fine
        v = max(0.0, v + a * dt_fine)
    return v, gap


def test_rollout_static_lead_matches_fine_step_reference():
    s = straight_scenario(ego_speed=8.0, limit=10.0)
    path = straight_path(s)
    lead = static_car("lead", 20.0 + s.ego.half_length + 2.3, 0.0)
    p = IdmParams(v0=8.0)
    cfg = ProposalConfig(horizon=8.0, dt=0.1)
    traj = rollout_idm(s.ego, path, 0.0, p, [lead], cfg)
    # Bumper gap over the rollout (lead rear face minus ego front face).
    gaps = (lead.pose.x - lead.half_length) - (traj.positions[:, 0] + s.ego.half_length)
    assert traj.speeds[-1] < 0.5
    assert gaps.min() >= p.s0 - 0.1
    v_ref, gap_ref = _fine_step_idm_reference(8.0, 20.0, p, 8.0)
    assert traj.speeds[-1] == pytest.approx(v_ref, abs=0.3)
    assert gaps[-1] == pytest.approx(gap_ref, abs=0.3)


def test_rollout_offset_reaches_target_on_long_straight():
    s = straight_scenario(ego_speed=8.0)
    path = straight_path(s)
    cfg = ProposalConfig(horizon=6.0, dt=0.1)
    traj = rollout_idm(s.ego, path, 1.0, IdmParams(v0=8.0), [], cfg)
    assert traj.positions[-1, 1] == pytest.approx(1.0, abs=0.05)


def test_proposal_count_fifteen_per_path():
    s = straight_scenario()
    path = straight_path(s)
    ps = generate_proposals(s.ego, [path], [], _default_cfg())
    assert len(ps) == 15  # 1 path x 3 offsets x 5 fractions


def test_proposal_count_product_rule():
    s = straight_scenario()
    path = straight_path(s)
    ps = generate_proposals(s.ego, [path, path, path], [], _default_cfg())
    assert len(ps) == 45
    assert all(p.trajectory.tag == "idm" for p in ps)
    cfg = ProposalConfig(offsets=(-1.0, 0.0), speed_fractions=(0.5, 1.0))
    ps2 = generate_proposals(s.ego, [path, path], [], cfg)
    assert len(ps2) == 2 * 2 * 2


def test_every_proposal_starts_at_ego_pose():
    s = straight_scenario(ego_speed=6.0)
    path = straight_path(s)
    ps = generate_proposals(s.ego, [path], [static_car("c", 30.0, 0.0)], _default_cfg())
    for prop in ps:
        traj = prop.trajectory
        assert tuple(traj.positions[0]) == (s.ego.pose.x, s.ego.pose.y)
        assert traj.headings[0] == s.ego.pose.heading
        assert traj.speeds[0] == s.ego.speed


def test_proposal_order_is_path_offset_fraction():
    s = straight_scenario()
    path = straight_path(s)
    cfg = _default_cfg()
    ps = generate_proposals(s.ego, [path], [], cfg)
    seen = [(p.offset, p.speed_fraction) for p in ps]
    expected = [(o, f) for o in cfg.offsets for f in cfg.speed_fractions]
    assert seen == expected
    assert [p.index for p in ps] == list(range(15))


def test_closed_loop_following_never_negative_gap():
    # 50 random parameter/lead-profile draws, 60 s at dt = 0.1.
    rng = np.random.default_rng(42)
    dt = 0.1
    for trial in range(50):
        p = IdmParams(
            v0=float(rng.uniform(5, 15)),
            T_h=float(rng.uniform(1.0, 2.5)),
            s0=float(rng.uniform(1.0, 4.0)),
            a_max=float(rng.uniform(0.8, 2.5)),
            b_comf=float(rng.uniform(1.0, 3.0)),
        )
        v = float(rng.uniform(0, 12))
        gap = float(rng.uniform(p.s0 + 0.5, 60.0))
        lead_v = float(rng.uniform(0, 10))
        phase = float(rng.uniform(0, 2 * math.pi))
        min_gap = gap
        for k in range(600):
            lead_v_now = max(0.0, lead_v + 3.0 * math.sin(0.05 * k + phase))
            a = idm_accel(v, lead_v_now, gap, p)
            gap += (lead_v_now - v) * dt
            v = max(0.0, v + a * dt)
            min_gap = min(min_gap, gap)
        assert min_gap > 0.0, f"trial {trial}: gap went negative"


def test_config_requires_centerline_offset():
    with pytest.raises(ValueError):
        ProposalConfig(offsets=(-1.0, 1.0))
    with pytest.raises(ValueError):
        ProposalConfig(speed_fractions=(0.0, 1.0))


def test_rollout_rejects_large_offset():
    s = straight_scenario()
    path = straight_path(s)
    with pytest.raises(ValueError):
        rollout_idm(s.ego, path, 5.0, IdmParams(), [], _default_cfg())
