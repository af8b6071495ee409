import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radstack.proposals import (
    B_HARD,
    CORRIDOR_MARGIN,
    CREEP_MIN_GAP,
    CREEP_SPEED,
    LATERAL_RATE,
    LATERAL_SPEED_RATIO,
    IdmParams,
    ProposalConfig,
    _step_kernel,
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


# --------------------------------------------------------------------------
# Rollout kernel: the vectorized kernel against the scalar loop it replaced,
# and hand oracles for the terminus, creep and lead-choice branches.


def _reference_step_kernel(
    s_hist,
    l_hist,
    s,
    l,
    v,
    targets,
    v0,
    T_h,
    s0,
    a_max,
    brake_scale,
    delta,
    creep_v0,
    a_s,
    a_lat,
    a_vlon,
    a_band,
    a_hlen,
    bypass_clear,
    path_len,
    terminus,
    ego_half_length,
    dt,
    steps,
):
    """The scalar steps x rows x agents loop that `_step_kernel` vectorizes.

    Per step: pick the nearest agent ahead whose lateral band covers the
    current blend position; follow it with IDM, or creep past it when the
    proposal's target offset clears the band; brake for the path terminus.
    """
    n = len(s)
    n_agents = a_s.shape[1]
    for k in range(steps):
        t_now = k * dt
        for i in range(n):
            gap = np.inf
            v_lead = 0.0
            bypass = False
            overlap = 0.0
            for j in range(n_agents):
                s_ak = a_s[i, j] + a_vlon[i, j] * t_now
                if s_ak <= s[i] + 1e-9:
                    continue
                dl_j = abs(a_lat[i, j] - l[i])
                if dl_j >= a_band[i, j]:
                    continue
                g = s_ak - s[i] - a_hlen[i, j] - ego_half_length
                if g < gap:
                    gap = g
                    v_lead = a_vlon[i, j]
                    bypass = bypass_clear[i, j]
                    overlap = 1.0 - dl_j / a_band[i, j]
            if terminus[i]:
                term_gap = path_len[i] - s[i] - ego_half_length
                if term_gap < gap:
                    gap = max(term_gap, 0.05)
                    v_lead = 0.0
                    bypass = False
            if gap < 0.05:
                gap = 0.05

            s_star = s0[i] + max(0.0, v[i] * T_h[i] + v[i] * (v[i] - v_lead) / brake_scale[i])
            if math.isinf(gap):
                interaction = 0.0
            else:
                interaction = (s_star / gap) ** 2
            a = a_max[i] * (1.0 - (v[i] / v0[i]) ** delta[i] - interaction)
            if bypass and not math.isinf(gap):
                # The go-around gap floor shrinks as the blend gains lateral
                # clearance, so the rollout can spiral out of a tight pocket;
                # the scorer's collision check remains the safety authority.
                floor = CREEP_MIN_GAP * overlap
                creep_gap = max(gap - floor + s0[i], 0.05)
                a_creep = a_max[i] * (
                    1.0 - (v[i] / creep_v0[i]) ** delta[i] - (s_star / creep_gap) ** 2
                )
                if a_creep > a:
                    a = a_creep
            if a > a_max[i]:
                a = a_max[i]
            elif a < -B_HARD:
                a = -B_HARD

            rate = min(LATERAL_RATE, LATERAL_SPEED_RATIO * v[i]) * dt
            s[i] = s[i] + v[i] * dt
            v[i] = max(0.0, v[i] + a * dt)
            dl = targets[i] - l[i]
            if dl > rate:
                dl = rate
            elif dl < -rate:
                dl = -rate
            l[i] = l[i] + dl
            s_hist[k + 1, i] = s[i]
            l_hist[k + 1, i] = l[i]


@st.composite
def _kernel_case(draw):
    """Random kernel inputs: rows 1-40, agents 0-9, steps 1-40.

    Agents are moving or static; some rows end at a path terminus; targets
    clear some agents' bands (bypass_clear); tie rows give agents 0 and 1 the
    same gap but different lateral positions.
    """
    n = draw(st.integers(1, 40))
    n_agents = draw(st.integers(0, 9))
    steps = draw(st.integers(1, 40))
    static_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    terminus_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    tie_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    s = rng.uniform(0.0, 5.0, n)
    l = rng.uniform(-1.5, 1.5, n)
    v = rng.uniform(0.0, 12.0, n)
    targets = rng.choice([-3.0, -1.0, 0.0, 1.0, 3.0], n)
    v0 = rng.uniform(0.5, 15.0, n)
    a_max = rng.uniform(0.8, 2.5, n)
    a_s = s[:, None] + rng.uniform(-10.0, 60.0, (n, n_agents))
    a_lat = rng.uniform(-4.0, 4.0, (n, n_agents))
    a_vlon = np.where(rng.random((n, n_agents)) < static_share, 0.0, rng.uniform(-3.0, 10.0, (n, n_agents)))
    a_band = rng.uniform(2.0, 3.0, (n, n_agents))
    a_hlen = rng.uniform(0.3, 2.5, (n, n_agents))
    if n_agents >= 2:
        tie = rng.random(n) < tie_share
        for col in (a_s, a_vlon, a_hlen):
            col[tie, 1] = col[tie, 0]
        a_lat[tie, 1] = a_lat[tie, 0] + rng.choice([-1.0, 1.0], int(tie.sum()))
    return dict(
        s=s,
        l=l,
        v=v,
        targets=targets,
        v0=v0,
        T_h=rng.uniform(1.0, 2.5, n),
        s0=rng.uniform(1.0, 4.0, n),
        a_max=a_max,
        brake_scale=2.0 * np.sqrt(a_max * rng.uniform(1.0, 3.0, n)),
        delta=rng.choice([2.0, 4.0, 4.5], n),
        creep_v0=np.minimum(v0, CREEP_SPEED),
        a_s=a_s,
        a_lat=a_lat,
        a_vlon=a_vlon,
        a_band=a_band,
        a_hlen=a_hlen,
        bypass_clear=np.abs(a_lat - targets[:, None]) >= a_band,
        path_len=s + rng.uniform(3.0, 80.0, n),
        terminus=rng.random(n) < terminus_share,
        ego_half_length=2.3,
        dt=0.1,
        steps=steps,
    )


def _run_kernel(kernel, case):
    args = dict(case)
    n, steps = len(case["s"]), case["steps"]
    s_hist, l_hist = np.empty((steps + 1, n)), np.empty((steps + 1, n))
    s_hist[0], l_hist[0] = case["s"], case["l"]
    for name in ("s", "l", "v"):
        args[name] = case[name].copy()
    kernel(s_hist, l_hist, **args)
    return s_hist, l_hist


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_kernel_case())
def test_step_kernel_matches_scalar_reference(case):
    # Not bit-identical: numpy's array power may round x ** delta 1 ulp away
    # from the libm pow the scalar loop calls.
    s_ref, l_ref = _run_kernel(_reference_step_kernel, case)
    s_vec, l_vec = _run_kernel(_step_kernel, case)
    np.testing.assert_allclose(s_vec, s_ref, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(l_vec, l_ref, rtol=0.0, atol=1e-12)


def test_rollout_stops_before_path_terminus():
    # The lane ends 40 m ahead and nothing else is on it.
    s = straight_scenario(ego_speed=8.0, length=40.0, goal_x=35.0)
    path = straight_path(s)
    assert path.ends_at_terminus
    traj = rollout_idm(s.ego, path, 0.0, IdmParams(v0=8.0), [], ProposalConfig(horizon=20.0))
    stopped = np.flatnonzero(traj.speeds == 0.0)
    assert len(stopped) > 0
    first = stopped[0]
    assert (traj.speeds[first:] == 0.0).all()
    assert (traj.positions[first:] == traj.positions[first]).all()
    assert traj.positions[:, 0].max() <= path.length - s.ego.half_length


def test_rollout_creeps_past_blocker_only_when_offset_clears_its_band():
    # The ego waits 5.4 m (bumper to bumper) behind a parked car; the car's
    # lateral band is 1.0 + 0.95 + CORRIDOR_MARGIN = 2.25 m, so offset 3.0
    # clears it and offset 0.0 does not.
    s = straight_scenario(ego_speed=0.0)
    path = straight_path(s)
    blocker = static_car("b", 10.0, 0.0)
    band = blocker.half_width + s.ego.half_width + CORRIDOR_MARGIN
    cfg = ProposalConfig(horizon=15.0)
    around = rollout_idm(s.ego, path, 3.0, IdmParams(v0=8.0), [blocker], cfg)
    x, y = around.positions.T
    in_band = np.abs(y[:-1]) < band
    assert in_band[0] and not in_band[-1]
    assert (np.diff(x)[in_band] / cfg.dt).max() <= CREEP_SPEED
    assert x[-1] > blocker.pose.x + blocker.half_length + s.ego.half_length

    behind = rollout_idm(s.ego, path, 0.0, IdmParams(v0=8.0), [blocker], cfg)
    rear = blocker.pose.x - blocker.half_length - s.ego.half_length
    assert behind.positions[:, 0].max() < rear
    assert behind.speeds[-1] == 0.0
    assert np.abs(behind.positions[:, 1]).max() == 0.0


def test_rollout_follows_in_band_lead_and_ignores_nearer_out_of_band_agent():
    s = straight_scenario(ego_speed=8.0)
    path = straight_path(s)
    beside = static_car("beside", 15.0, 2.6)  # 2.6 m off the centerline, band 2.25 m
    ahead = static_car("ahead", 30.0, 0.0)
    cfg = ProposalConfig(horizon=10.0)
    both = rollout_idm(s.ego, path, 0.0, IdmParams(v0=8.0), [beside, ahead], cfg)
    only_ahead = rollout_idm(s.ego, path, 0.0, IdmParams(v0=8.0), [ahead], cfg)
    assert np.array_equal(both.positions, only_ahead.positions)
    assert np.array_equal(both.speeds, only_ahead.speeds)
    x = both.positions[:, 0]
    assert x[-1] > beside.pose.x
    assert x.max() < ahead.pose.x - ahead.half_length - s.ego.half_length
    assert both.speeds[-1] < 0.1
