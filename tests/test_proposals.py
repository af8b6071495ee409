import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from radstack import proposals
from radstack.proposals import (
    B_HARD,
    CORRIDOR_MARGIN,
    CREEP_MIN_GAP,
    CREEP_SPEED,
    LATERAL_RATE,
    LATERAL_SPEED_RATIO,
    IdmParams,
    MIN_DT,
    ProposalConfig,
    _can_lead,
    _rollout_rows,
    _step_kernel,
    generate_proposals,
    idm_accel,
)
from radstack.geometry import normalize_angle, project_points_to_polyline
from radstack.scene import SCENARIO_KINDS, AgentState, EgoState, Pose2, Trajectory, generate_synthetic_scenario
from radstack.topology import augment_with_adjacents, graph_search, project_onto_path

from conftest import (
    reference_read_back,
    reference_rollout_rows,
    reference_step_kernel,
    static_car,
    straight_path,
    straight_scenario,
)


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


def _rollout(ego, path, offset, p, agents, cfg):
    """One rollout row along path toward a lateral offset, with p as it stands (v0 included)."""
    positions, headings, speeds = _rollout_rows(
        ego, [path], np.zeros(1, dtype=int), np.array([float(offset)]), np.array([p.v0]), p, agents, cfg
    )[:3]
    return Trajectory(cfg.dt, positions[0], headings[0], speeds[0], "idm")


def test_rollout_empty_road_constant_speed():
    s = straight_scenario(ego_speed=10.0, limit=10.0)
    path = straight_path(s)
    p = IdmParams(v0=10.0)
    traj = _rollout(s.ego, path, 0.0, p, [], _default_cfg())
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
    traj = _rollout(s.ego, path, 0.0, p, [lead], cfg)
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
    traj = _rollout(s.ego, path, 1.0, IdmParams(v0=8.0), [], cfg)
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
    assert all(p.tag == "idm" for p in ps)
    cfg = ProposalConfig(offsets=(-1.0, 0.0), speed_fractions=(0.5, 1.0))
    ps2 = generate_proposals(s.ego, [path, path], [], cfg)
    assert len(ps2) == 2 * 2 * 2


def test_every_proposal_starts_at_ego_pose():
    s = straight_scenario(ego_speed=6.0)
    path = straight_path(s)
    ps = generate_proposals(s.ego, [path], [static_car("c", 30.0, 0.0)], _default_cfg())
    for i in range(len(ps)):
        traj = ps.trajectory(i)
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


@pytest.mark.parametrize("horizon, dt", [(0.25, 0.1), (0.01, 0.1), (4.05, 0.1), (1.0, 0.3)])
def test_config_rejects_a_horizon_that_is_not_a_multiple_of_dt(horizon, dt):
    with pytest.raises(ValueError, match="^ProposalConfig.horizon must be a multiple of dt$"):
        ProposalConfig(horizon=horizon, dt=dt)


@pytest.mark.parametrize("horizon, dt, steps", [(4.0, 0.1, 40), (6.0, 0.1, 60), (0.3, 0.1, 3), (0.1, 0.1, 1)])
def test_config_horizon_steps(horizon, dt, steps):
    assert ProposalConfig(horizon=horizon, dt=dt).horizon_steps == steps


def test_config_requires_centerline_offset():
    with pytest.raises(ValueError):
        ProposalConfig(offsets=(-1.0, 1.0))
    with pytest.raises(ValueError):
        ProposalConfig(speed_fractions=(0.0, 1.0))


def test_config_rejects_empty_speed_fractions():
    # An empty tuple passes the range check vacuously and leaves no proposal to select.
    with pytest.raises(ValueError, match="^ProposalConfig.speed_fractions must not be empty$"):
        ProposalConfig(speed_fractions=())


@pytest.mark.parametrize("dt, horizon", [(1e-9, 1e-8), (0.005, 4.0), (np.nextafter(MIN_DT, 0.0), 1.0)])
def test_config_rejects_dt_below_its_floor(dt, horizon):
    # Constructor only: a planner at such a dt builds a TTC grid that grows as 1 / dt**2.
    with pytest.raises(ValueError, match=r"^ProposalConfig.dt: expected a finite number >= 0.01, got "):
        ProposalConfig(dt=dt, horizon=horizon)


def test_config_accepts_dt_at_its_floor():
    assert ProposalConfig(dt=MIN_DT, horizon=4.0).horizon_steps == 400


def test_config_rejects_an_offset_past_max_offset():
    # generate_proposals takes its offsets from the config alone.
    message = r"^ProposalConfig.offsets\[1\]: expected a finite number >= -3.0 and <= 3.0, got 5.0$"
    with pytest.raises(ValueError, match=message):
        ProposalConfig(offsets=(0.0, 5.0))


# --------------------------------------------------------------------------
# Rollout kernel: the vectorized kernel against the scalar loop it replaced,
# and hand oracles for the terminus, creep and lead-choice branches.


def _reference_step_kernel(
    start, speed, targets, v0, p, a_rows, a_band, a_hlen, path_len, terminus, ego_half_length, dt, steps
):
    """The scalar steps x rows x agents loop that `_step_kernel` vectorizes.

    Per step: pick the nearest agent ahead whose lateral band covers the
    current blend position; follow it with IDM, or creep past it when the
    proposal's target offset clears the band; brake for the path terminus.
    """
    a_s, a_lat, a_vlon = a_rows
    n, n_agents = a_s.shape
    s, l = start.tolist()
    v = [speed] * n
    s_hist, l_hist = np.empty((steps + 1, n)), np.empty((steps + 1, n))
    s_hist[0], l_hist[0] = s, l
    brake_scale = 2.0 * math.sqrt(p.a_max * p.b_comf)
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
                if dl_j >= a_band[j]:
                    continue
                g = s_ak - s[i] - a_hlen[j] - ego_half_length
                if g < gap:
                    gap = g
                    v_lead = a_vlon[i, j]
                    bypass = abs(a_lat[i, j] - targets[i]) >= a_band[j]
                    overlap = 1.0 - dl_j / a_band[j]
            if terminus[i]:
                term_gap = path_len[i] - s[i] - ego_half_length
                if term_gap < gap:
                    gap = max(term_gap, 0.05)
                    v_lead = 0.0
                    bypass = False
            if gap < 0.05:
                gap = 0.05

            s_star = p.s0 + max(0.0, v[i] * p.T_h + v[i] * (v[i] - v_lead) / brake_scale)
            if math.isinf(gap):
                interaction = 0.0
            else:
                interaction = (s_star / gap) ** 2
            a = p.a_max * (1.0 - (v[i] / v0[i]) ** p.delta - interaction)
            if bypass and not math.isinf(gap):
                # The go-around gap floor shrinks as the blend gains lateral
                # clearance, so the rollout can spiral out of a tight pocket;
                # the scorer's collision check remains the safety authority.
                floor = CREEP_MIN_GAP * overlap
                creep_gap = max(gap - floor + p.s0, 0.05)
                a_creep = p.a_max * (
                    1.0 - (v[i] / min(v0[i], CREEP_SPEED)) ** p.delta - (s_star / creep_gap) ** 2
                )
                if a_creep > a:
                    a = a_creep
            if a > p.a_max:
                a = p.a_max
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
    return s_hist, l_hist


@st.composite
def _kernel_case(draw, bypass_heavy=False, all_terminus=False, no_agents=False, standstill=False):
    """Random kernel inputs, every array read-only: rows 1-40, agents 0-9,
    steps 1-40, and one IdmParams.

    Agents are moving or static; some rows end at a path terminus, some of
    them starting within 1e-9 m of the path end or past it; targets clear
    some agents' bands, or (no_clear) every agent lies within 1.9 m of its
    row's target, inside every band (>= 2 m), so no target clears one. Tie
    rows give agents 0 and 1 the same gap but different lateral positions;
    end-tie rows put agent 0 at the path end with half length 0, so its gap
    equals the terminus gap to the bit. bypass_heavy puts every agent 2-15 m
    ahead inside the row's band with a target that clears it, so most rows
    creep; all_terminus ends every row at a path terminus; no_agents has no
    agents and some terminus rows. standstill starts the rows at exactly
    +0.0 or -0.0 m/s most of the time and puts half of the rows in free flow
    (no terminus, every agent static behind them), where q = 0 and r = 0, so
    their first step accelerates at a_max exactly.
    """
    n = draw(st.integers(1, 40))
    n_agents = 0 if no_agents else draw(st.integers(1 if bypass_heavy else 0, 9))
    steps = draw(st.integers(1, 40))
    static_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    terminus_share = 1.0 if all_terminus else draw(st.sampled_from([0.5, 1.0] if no_agents else [0.0, 0.5, 1.0]))
    tie_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    at_end_share, end_tie_share = draw(st.sampled_from([0.0, 0.5])), draw(st.sampled_from([0.0, 0.5]))
    no_clear = not bypass_heavy and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    s = rng.uniform(0.0, 5.0, n)
    l = rng.uniform(-1.5, 1.5, n)
    speed = rng.uniform(0.0, 12.0)
    targets = rng.choice([-3.0, -1.0, 0.0, 1.0, 3.0], n)
    v0 = rng.uniform(0.5, 15.0, n)
    p = IdmParams(
        T_h=rng.uniform(1.0, 2.5),
        s0=rng.uniform(1.0, 4.0),
        a_max=rng.uniform(0.8, 2.5),
        b_comf=rng.uniform(1.0, 3.0),
        delta=float(rng.choice([2.0, 4.0, 4.5])),
    )
    a_s = s[:, None] + rng.uniform(-10.0, 60.0, (n, n_agents))
    a_lat = rng.uniform(-4.0, 4.0, (n, n_agents))
    a_vlon = np.where(rng.random((n, n_agents)) < static_share, 0.0, rng.uniform(-3.0, 10.0, (n, n_agents)))
    a_band = rng.uniform(2.0, 3.0, n_agents)
    a_hlen = rng.uniform(0.3, 2.5, n_agents)
    if no_clear:
        a_lat = targets[:, None] + rng.uniform(-0.9, 0.9, (n, n_agents))
    if standstill and rng.random() < 0.8:
        speed = float(rng.choice([0.0, -0.0]))
    if bypass_heavy:
        a_s = s[:, None] + rng.uniform(2.0, 15.0, (n, n_agents))
        a_lat = l[:, None] + rng.uniform(-0.5, 0.5, (n, n_agents))
        targets = np.where(a_lat[:, 0] < 0.0, 3.0, -3.0)
    path_len = s + rng.uniform(3.0, 80.0, n)
    terminus = rng.random(n) < terminus_share
    at_end = rng.random(n) < at_end_share
    path_len[at_end] = s[at_end] + rng.choice([-3.0, -1e-9, 0.0, 5e-10, 1e-9], int(at_end.sum()))
    terminus |= at_end
    if standstill:
        free = rng.random(n) < 0.5
        terminus[free] = False
        a_s[free] = s[free, None] - rng.uniform(0.0, 10.0, (int(free.sum()), n_agents))
        a_vlon[free] = 0.0
    if n_agents:
        end_tie = rng.random(n) < end_tie_share
        a_s[end_tie, 0] = path_len[end_tie]
        if end_tie.any():
            a_hlen[0] = 0.0
        if no_clear:
            l[end_tie] = a_lat[end_tie, 0]
        else:
            a_lat[end_tie, 0] = l[end_tie]
        terminus |= end_tie
    if n_agents >= 2:
        tie = rng.random(n) < tie_share
        for col in (a_s, a_vlon):
            col[tie, 1] = col[tie, 0]
        if tie.any():
            a_hlen[1] = a_hlen[0]
        a_lat[tie, 1] = a_lat[tie, 0] + rng.choice([-1.0, 1.0], int(tie.sum()))
    if no_clear:
        assert not (np.abs(a_lat - targets[:, None]) >= a_band).any()
    case = dict(
        start=np.array([s, l]),
        speed=speed,
        targets=targets,
        v0=v0,
        p=p,
        a_rows=np.array([a_s, a_lat, a_vlon]),
        a_band=a_band,
        a_hlen=a_hlen,
        path_len=path_len,
        terminus=terminus,
        ego_half_length=2.3,
        dt=0.1,
        steps=steps,
    )
    for value in case.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return case


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_kernel_case())
def test_step_kernel_matches_scalar_reference(case):
    # Not bit-identical: numpy's array power may round x ** delta 1 ulp away
    # from the libm pow the scalar loop calls.
    s_ref, l_ref = _reference_step_kernel(**case)
    s_vec, l_vec = _step_kernel(**case)
    np.testing.assert_allclose(s_vec, s_ref, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(l_vec, l_ref, rtol=0.0, atol=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    case=st.one_of(
        _kernel_case(), _kernel_case(bypass_heavy=True), _kernel_case(all_terminus=True), _kernel_case(no_agents=True),
        _kernel_case(standstill=True), _kernel_case(standstill=True, no_agents=True),
    )
)
def test_step_kernel_matches_numpy_reference_bitwise(case):
    # The buffered kernel must compute the reference's arithmetic in the same
    # order: every history sample agrees in all 64 bits. The reference keeps
    # every clamp and v - v_lead, so each call the kernel leaves out is
    # checked, at its boundaries too on the standstill cases: speeds of +0.0
    # and -0.0, and free-flow rows at a = a_max exactly. Every input array is
    # read-only, so a kernel that writes into one raises.
    with pytest.raises(ValueError, match="read-only"):
        case["start"][0] = case["start"][0]
    n, steps = case["targets"].shape[0], case["steps"]
    for ref, new in zip(reference_step_kernel(**case), _step_kernel(**case)):
        assert new.shape == (steps + 1, n)
        assert np.array_equal(_bits(new), _bits(ref))


def test_rollout_stops_before_path_terminus():
    # The lane ends 40 m ahead and nothing else is on it.
    s = straight_scenario(ego_speed=8.0, length=40.0, goal_x=35.0)
    path = straight_path(s)
    assert path.ends_at_terminus
    traj = _rollout(s.ego, path, 0.0, IdmParams(v0=8.0), [], ProposalConfig(horizon=20.0))
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
    around = _rollout(s.ego, path, 3.0, IdmParams(v0=8.0), [blocker], cfg)
    x, y = around.positions.T
    in_band = np.abs(y[:-1]) < band
    assert in_band[0] and not in_band[-1]
    assert (np.diff(x)[in_band] / cfg.dt).max() <= CREEP_SPEED
    assert x[-1] > blocker.pose.x + blocker.half_length + s.ego.half_length

    behind = _rollout(s.ego, path, 0.0, IdmParams(v0=8.0), [blocker], cfg)
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
    both = _rollout(s.ego, path, 0.0, IdmParams(v0=8.0), [beside, ahead], cfg)
    only_ahead = _rollout(s.ego, path, 0.0, IdmParams(v0=8.0), [ahead], cfg)
    assert np.array_equal(both.positions, only_ahead.positions)
    assert np.array_equal(both.speeds, only_ahead.speeds)
    x = both.positions[:, 0]
    assert x[-1] > beside.pose.x
    assert x.max() < ahead.pose.x - ahead.half_length - s.ego.half_length
    assert both.speeds[-1] < 0.1


@lru_cache(maxsize=None)
def _kind_paths(kind, seed):
    scenario = generate_synthetic_scenario(kind, seed)
    paths = graph_search(scenario.ego, scenario)
    return scenario, tuple(augment_with_adjacents(paths, scenario, scenario.ego, enable_opposing=True))


@st.composite
def _rollout_case(draw):
    """Rows over the first paths of a synthetic kind, and 0-10 moving agents
    placed behind a path's start, past its end, exactly on a vertex (any, or
    one where the path bends) or near one."""
    kind = draw(st.sampled_from(SCENARIO_KINDS))
    scenario, paths = _kind_paths(kind, draw(st.integers(7, 8)))
    paths = paths[: draw(st.integers(1, len(paths)))]
    agents = []
    for i in range(draw(st.integers(0, 10))):
        table = paths[draw(st.integers(0, len(paths) - 1))].segments
        pts = table.points
        where = draw(st.sampled_from(("behind", "past", "vertex", "bend", "near")))
        if where in ("behind", "past"):
            end, prev = (pts[0], pts[1]) if where == "behind" else (pts[-1], pts[-2])
            d = end - prev
            xy = end + d / np.hypot(*d) * draw(st.floats(0.1, 20.0))
        elif where == "bend" and (bends := np.flatnonzero(np.diff(table.headings)) + 1).size:
            # A bend vertex projects to the end of the segment before it, at
            # the arclength where the next segment's heading starts.
            xy = pts[bends[draw(st.integers(0, len(bends) - 1))]]
        else:
            xy = pts[draw(st.integers(0, len(pts) - 1))]
            if where == "near":
                xy = xy + np.array([draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))])
        agents.append(
            AgentState(
                id=f"agent_{i}",
                pose=Pose2(float(xy[0]), float(xy[1]), draw(st.floats(-math.pi, math.pi))),
                speed=draw(st.floats(0.0, 12.0)),
                half_length=draw(st.floats(0.3, 3.0)),
                half_width=draw(st.floats(0.3, 1.2)),
            )
        )
    counts = [draw(st.integers(1, 4)) for _ in paths]
    n = sum(counts)
    targets = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    v0 = draw(st.lists(st.floats(0.1, 15.0), min_size=n, max_size=n))
    return _rows_case(scenario.ego, paths, counts, targets, v0, agents)


def _rows_case(ego, paths, counts, targets, v0, agents):
    return dict(
        ego=ego,
        paths=paths,
        path_of_row=np.repeat(np.arange(len(paths)), counts),
        targets=np.array(targets, dtype=float),
        v0=np.array(v0, dtype=float),
        p=IdmParams(),
        agents=tuple(agents),
        cfg=ProposalConfig(),
    )


def _bend_case():
    """A moving agent on each of the first bend vertices of the intersection_turn path."""
    scenario, paths = _kind_paths("intersection_turn", 7)
    table = paths[0].segments
    bends = np.flatnonzero(np.diff(table.headings)) + 1
    agents = [
        AgentState(f"agent_{i}", Pose2(*table.points[k].tolist(), 1.0), 8.0, 2.0, 1.0)
        for i, k in enumerate(bends[::4])
    ]
    return _rows_case(scenario.ego, paths[:1], [3], [0.0, 1.0, -1.0], [5.0, 10.0, 15.0], agents)


def _assert_bitwise_equal(new, ref):
    for a, b in zip(new, ref):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_rollout_case())
@example(case=_bend_case())
def test_rollout_rows_match_reference_set_up_bitwise(case):
    # One [ego; agents] projection per path, the agents' path heading read
    # from the segment table, the lead-column cut and the rebuild on row
    # slices must give the per-path projections, every agent column and
    # boolean-mask rebuild of the reference to the bit.
    _assert_bitwise_equal(_rollout_rows(**case)[:4], reference_rollout_rows(**case))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_rollout_case(), dx=st.floats(-5.0, 30.0), dy=st.floats(-4.0, 4.0), dh=st.floats(-1.0, 1.0))
def test_rollout_carries_the_ego_projection_and_centre_points_bitwise(case, dx, dy, dh):
    # With the ego moved off the paths' root, the carried projection (row 0
    # of the [ego; agents] batch) must be project_onto_path's on every path,
    # and the carried centre point (sample 0 of the read-back) points_at(s).
    pose = case["ego"].pose
    ego = replace(case["ego"], pose=Pose2(pose.x + dx, pose.y + dy, pose.heading + dh))
    _, _, _, s_track, projection, centres = _rollout_rows(**{**case, "ego": ego})
    paths = case["paths"]
    assert projection.shape == (len(paths), 3) and centres.shape == (len(paths), 2)
    first_rows = case["path_of_row"].searchsorted(np.arange(len(paths)))
    for j, path in enumerate(paths):
        s, lateral, heading_err = project_onto_path(path, ego.pose)
        (path_heading,) = project_points_to_polyline(np.array([[ego.pose.x, ego.pose.y]]), path.segments)[2]
        assert np.array_equal(_bits(projection[j]), _bits([s, lateral, path_heading]))
        assert normalize_angle(ego.pose.heading - projection[j, 2]) == heading_err
        assert np.array_equal(_bits(s_track[first_rows[j], 0]), _bits(s))
        assert np.array_equal(_bits(centres[j]), _bits(path.segments.points_at(s)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_rollout_case(), seed=st.integers(0, 2**32 - 1), monotone=st.booleans())
def test_read_back_matches_the_sin_cos_reference_bitwise(case, seed, monotone):
    # Arclengths before the start, past the end, exactly on vertices and
    # between them; laterals of either sign and exactly 0. The read-back takes
    # them row-major, so np.interp reads each row in time order: unsorted
    # rows pin its cold search, and the monotone arm's rows, non-decreasing
    # with standstill repeats as a rollout's are, its guessed one.
    rng = np.random.default_rng(seed)
    paths, path_of_row = case["paths"], case["path_of_row"]
    n = len(path_of_row)
    shape = (41, n)
    lengths = np.array([p.length for p in paths])[path_of_row]
    if monotone:
        # Rows start before the path, at its start, on a vertex or along it;
        # the longer ones run past its end.
        step = rng.uniform(0.0, 0.06, shape) * lengths
        step[rng.random(shape) < 0.3] = 0.0
        step[0] = rng.uniform(-0.1, 0.9, n) * lengths
        step[0, rng.random(n) < 0.2] = 0.0
        for j in (rng.random(n) < 0.2).nonzero()[0]:
            vertices = paths[path_of_row[j]].s
            step[0, j] = vertices[rng.integers(len(vertices))]
        s = step.cumsum(axis=0)
    else:
        s = rng.uniform(-0.1, 1.1, shape) * lengths
        on_vertex = rng.random(shape) < 0.3
        for i, j in zip(*on_vertex.nonzero()):
            vertices = paths[path_of_row[j]].s
            s[i, j] = vertices[rng.integers(len(vertices))]
    l = rng.uniform(-3.0, 3.0, shape)
    l[rng.random(shape) < 0.2] = 0.0
    got = proposals._read_back(paths, path_of_row, s.T, l.T)
    xy, centres = reference_read_back(paths, path_of_row, s, l)
    for a, b in zip(got, (xy.transpose(1, 0, 2), centres)):
        assert a.shape == b.shape
        assert np.array_equal(_bits(a), _bits(b))


def _kernel_columns(monkeypatch):
    """The agent-column count of each _step_kernel call, as a list filled while the test runs."""
    seen = []

    def spy(*args):
        seen.append(args[5].shape[2])  # a_rows, (3, n, A)
        return _step_kernel(*args)

    monkeypatch.setattr(proposals, "_step_kernel", spy)
    return seen


def _straight_rows_case(agents):
    s = straight_scenario(ego_speed=8.0)
    return _rows_case(s.ego, (straight_path(s),), [3], [0.0, 1.0, -1.0], [5.0, 10.0, 15.0], agents)


def test_rollout_drops_a_static_car_behind_the_ego_bitwise(monkeypatch):
    # The path starts at the ego, so the car projects to s = 0 and never passes s + 1e-9.
    case = _straight_rows_case([static_car("behind", -10.0, 0.0)])
    seen = _kernel_columns(monkeypatch)
    new = _rollout_rows(**case)[:4]
    assert seen == [0]
    _assert_bitwise_equal(new, reference_rollout_rows(**case))  # the reference passes every agent


def test_rollout_keeps_a_faster_car_that_passes_the_ego_bitwise(monkeypatch):
    car = AgentState("passer", Pose2(-10.0, 0.0, 0.0), speed=12.0, half_length=2.3, half_width=1.0)
    case = _straight_rows_case([static_car("behind", -10.0, 0.0), car])
    seen = _kernel_columns(monkeypatch)
    new = _rollout_rows(**case)[:4]
    assert seen == [1]
    _assert_bitwise_equal(new, reference_rollout_rows(**case))
    # The kept column leads: without it the rollout differs.
    assert not np.array_equal(new[2], _rollout_rows(**_straight_rows_case([]))[2])


def test_can_lead_boundary_is_the_kernels_lead_test():
    # Dropped at exactly s + 1e-9 (the kernel's s_ak <= s + 1e-9 fails to lead), kept one float up.
    steps, dt = 40, 0.1
    ego_s = np.array([3.0])
    at = ego_s[0] + 1e-9
    up = np.nextafter(at, np.inf)
    assert not _can_lead(np.array([[at]]), np.zeros((1, 1)), ego_s, dt, steps)[0]
    assert _can_lead(np.array([[up]]), np.zeros((1, 1)), ego_s, dt, steps)[0]
    # Moving away: the largest arclength is a_s, at step 0.
    assert not _can_lead(np.array([[at]]), np.full((1, 1), -5.0), ego_s, dt, steps)[0]
    assert _can_lead(np.array([[up]]), np.full((1, 1), -5.0), ego_s, dt, steps)[0]
    # Moving ahead: the largest arclength is a_s + a_vlon * ((steps - 1) * dt), at the last step.
    reach = (steps - 1) * dt
    a_s = at - reach
    while a_s + reach > at:
        a_s = np.nextafter(a_s, -np.inf)
    while a_s + reach < at:
        a_s = np.nextafter(a_s, np.inf)
    assert a_s + reach == at
    a_s_up = a_s
    while a_s_up + reach == at:
        a_s_up = np.nextafter(a_s_up, np.inf)
    assert a_s_up + reach == up
    assert not _can_lead(np.array([[a_s]]), np.ones((1, 1)), ego_s, dt, steps)[0]
    assert _can_lead(np.array([[a_s_up]]), np.ones((1, 1)), ego_s, dt, steps)[0]


def test_can_lead_keeps_an_agent_that_can_lead_on_any_path():
    # Agent 0 is behind on both paths, agent 1 is ahead on path 1 only, agent 2 is NaN.
    a_s = np.array([[0.0, 1.0, np.nan], [0.0, 9.0, np.nan]])
    lead = _can_lead(a_s, np.zeros((2, 3)), np.array([2.0, 5.0]), 0.1, 40)
    assert lead.tolist() == [False, True, True]
