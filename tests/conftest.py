import math

import numpy as np
import pytest

from radstack.geometry import polyline_arclengths
from radstack.proposals import B_HARD, CREEP_MIN_GAP, LATERAL_RATE, LATERAL_SPEED_RATIO
from radstack.scene import (
    AgentState,
    EgoState,
    Lane,
    Pose2,
    Scenario,
    generate_synthetic_scenario,
)
from radstack.topology import ProposalPath, graph_search


def straight_lane(lane_id="lane_a", y=0.0, x0=0.0, x1=120.0, limit=10.0, **kw):
    xs = np.arange(x0, x1 + 1e-9, 10.0)
    pts = tuple(Pose2(float(x), float(y), 0.0) for x in xs)
    return Lane(id=lane_id, centerline=pts, speed_limit=limit, **kw)


def rect(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def straight_scenario(agents=(), ego_speed=8.0, limit=10.0, length=120.0, goal_x=100.0):
    lane = straight_lane(x1=length, limit=limit)
    return Scenario(
        lanes=(lane,),
        drivable_area=(rect(-5.0, -4.0, length + 5.0, 4.0),),
        crosswalks=(),
        agents=tuple(agents),
        ego=EgoState(pose=Pose2(0.0, 0.0, 0.0), speed=ego_speed),
        route=("lane_a",),
        goal=Pose2(goal_x, 0.0, 0.0),
        duration=30.0,
        seed=0,
    )


def straight_path(scenario=None, horizon_length=120.0) -> ProposalPath:
    scenario = scenario or straight_scenario()
    return graph_search(scenario.ego, scenario, horizon_length=horizon_length)[0]


@pytest.fixture
def plain_scenario():
    return straight_scenario()


@pytest.fixture
def plain_path(plain_scenario):
    return graph_search(plain_scenario.ego, plain_scenario)[0]


@pytest.fixture
def blocked_scenario():
    return generate_synthetic_scenario("blocked_lane", 7)


@pytest.fixture
def deadlock_scenario():
    return generate_synthetic_scenario("deadlock_pair", 7)


def static_car(agent_id, x, y, heading=0.0, half_length=2.3, half_width=1.0):
    return AgentState(
        id=agent_id,
        pose=Pose2(x, y, heading),
        speed=0.0,
        half_length=half_length,
        half_width=half_width,
        kind="static",
    )


def reference_project_points(ps, pts):
    """The dense projection over every segment: the tests' reference for project_points_to_polyline.

    Returns (s, lateral, heading, foot) like the program's projection: each
    point takes the first segment of least squared distance to its clamped
    foot point.
    """
    ps = np.asarray(ps, dtype=float)
    pts = np.asarray(pts, dtype=float)
    s_cum = polyline_arclengths(pts)
    ax, ay = pts[:-1, 0], pts[:-1, 1]
    ex = np.diff(pts[:, 0])
    ey = np.diff(pts[:, 1])
    len2 = ex * ex + ey * ey
    inv_len2 = np.where(len2 > 0, 1.0 / np.maximum(len2, 1e-300), 0.0)
    dx = ps[:, 0, None] - ax
    dy = ps[:, 1, None] - ay
    u = np.clip((dx * ex + dy * ey) * inv_len2, 0.0, 1.0)
    fx = dx - u * ex
    fy = dy - u * ey
    d2 = fx * fx + fy * fy
    idx = np.argmin(d2, axis=1)
    rows = np.arange(len(ps))
    u = u[rows, idx]
    s = s_cum[idx] + u * np.sqrt(len2[idx])
    head = np.array([math.atan2(y, x) for x, y in zip(ex[idx], ey[idx])])
    lateral = -np.sin(head) * fx[rows, idx] + np.cos(head) * fy[rows, idx]
    foot = np.stack([ax[idx] + u * ex[idx], ay[idx] + u * ey[idx]], axis=1)
    return s, lateral, head, foot


def reference_step_kernel(
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
    """The allocating numpy form of the rollout kernel: the tests' bitwise
    reference for proposals._step_kernel, which computes the same arithmetic
    in the same order into preallocated buffers.

    Per step and row: pick the nearest agent ahead whose lateral band covers
    the current blend position (the first such agent on equal gaps); follow it
    with IDM, or creep past it when the proposal's target offset clears the
    band; brake for the path terminus. s, l and v are advanced in place.
    """
    n = len(s)
    rows = np.arange(n)
    has_agents = a_s.shape[1] > 0
    any_terminus = bool(terminus.any())
    free_flow = np.full(n, np.inf)
    no_bypass = np.zeros(n, dtype=bool)
    for k in range(steps):
        gap, v_lead, bypass = free_flow, 0.0, no_bypass
        if has_agents:
            s_col = s[:, None]
            s_ak = a_s + a_vlon * (k * dt)
            dl_a = np.abs(a_lat - l[:, None])
            lead = (s_ak > s_col + 1e-9) & (dl_a < a_band)
            g = np.where(lead, s_ak - s_col - a_hlen - ego_half_length, np.inf)
            j = np.argmin(g, axis=1)
            gap = g[rows, j]
            # A row without a lead keeps gap = inf, where v_lead only enters
            # through s_star / gap = 0, so it needs no masking.
            v_lead = a_vlon[rows, j]
            bypass = lead[rows, j] & bypass_clear[rows, j]
        if any_terminus:
            term_gap = path_len - s - ego_half_length
            stop = terminus & (term_gap < gap)
            gap = np.where(stop, term_gap, gap)
            v_lead = np.where(stop, 0.0, v_lead)
            bypass = bypass & ~stop
        gap = np.maximum(gap, 0.05)

        s_star = s0 + np.maximum(0.0, v * T_h + v * (v - v_lead) / brake_scale)
        q = s_star / gap  # 0 in free flow
        a = a_max * (1.0 - (v / v0) ** delta - q * q)
        if bypass.any():
            # The go-around gap floor shrinks as the blend gains lateral
            # clearance, so the rollout can spiral out of a tight pocket;
            # the scorer's collision check remains the safety authority.
            overlap = 1.0 - dl_a[rows, j] / a_band[rows, j]
            creep_gap = np.maximum(gap - CREEP_MIN_GAP * overlap + s0, 0.05)
            q_creep = s_star / creep_gap
            a_creep = a_max * (1.0 - (v / creep_v0) ** delta - q_creep * q_creep)
            a = np.where(bypass, np.maximum(a, a_creep), a)
        a = np.minimum(np.maximum(a, -B_HARD), a_max)

        rate = np.minimum(LATERAL_RATE, LATERAL_SPEED_RATIO * v) * dt
        s += v * dt
        v[:] = np.maximum(0.0, v + a * dt)
        l += np.minimum(np.maximum(targets - l, -rate), rate)
        s_hist[k + 1] = s
        l_hist[k + 1] = l
