import math
from dataclasses import replace

import numpy as np
import pytest

from radstack.geometry import (
    SegmentTable,
    boxes_overlap,
    normalize_angle,
    normalize_angles,
    points_in_polygon,
    points_in_polygons,
    polygon_as_aabb,
    project_points_to_polyline,
)
from radstack.proposals import (
    B_HARD,
    CORRIDOR_HALF_WIDTH,
    CORRIDOR_MARGIN,
    CREEP_MIN_GAP,
    CREEP_SPEED,
    LATERAL_RATE,
    LATERAL_SPEED_RATIO,
    _step_kernel,
)
from radstack.scene import (
    AgentState,
    EgoState,
    Lane,
    Pose2,
    Scenario,
    agent_footprint,
    generate_synthetic_scenario,
    segment_headings_and_speeds,
)
from radstack import scoring
from radstack.scoring import (
    COMFORT_ACCEL_MAX,
    COMFORT_DECEL_MAX,
    COMFORT_JERK,
    COMFORT_LAT_ACCEL,
    COMFORT_YAW_ACCEL,
    COMFORT_YAW_RATE,
    DIR_EPS,
    DIR_TOL,
)
from radstack.simulator import K_SPEED, LOOKAHEAD_STEPS, LOW_SPEED, LOW_SPEED_GAIN, lqr_gain
from radstack.topology import ProposalPath, graph_search, project_onto_path
from radstack.vocabulary import Vocabulary


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


def four_prototype_vocabulary():
    """A hand-made vocabulary of four 4 s prototypes at dt 0.1, built without clustering."""
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


# Moving vehicles (x, y, heading, speed) added to a synthetic kind's seed-7
# scenario by with_traffic: every lane holds one, and some follow another
# vehicle or are followed by the ego.
TRAFFIC = {
    # Route lane: one between the ego and the static blocker. Left lane: two,
    # the rear one faster than its lead.
    "blocked_lane": ((22.0, 0.0, 0.0, 4.0), (30.0, 3.5, 0.0, 6.0), (12.0, 3.5, 0.0, 7.0)),
    # One ahead of the ego on the approach, one in the turn, two in a column
    # on the northbound lane, the rear one faster.
    "intersection_turn": (
        (14.0, 0.0, 0.0, 3.0),
        (36.6, 2.3, 0.69, 2.5),
        (38.96, 20.0, math.pi / 2, 4.0),
        (38.96, 30.0, math.pi / 2, 2.0),
    ),
}


def with_traffic(kind):
    """The kind's seed-7 scenario plus its TRAFFIC vehicles, so rollouts
    follow moving leads and step_agents runs its vehicle branch."""
    scenario = generate_synthetic_scenario(kind, 7)
    vehicles = tuple(
        AgentState(id=f"vehicle_{i}", pose=Pose2(x, y, h), speed=v, half_length=2.3, half_width=1.0, kind="vehicle")
        for i, (x, y, h, v) in enumerate(TRAFFIC[kind])
    )
    return replace(scenario, agents=scenario.agents + vehicles)


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
    ax, ay = pts[:-1, 0], pts[:-1, 1]
    ex = np.diff(pts[:, 0])
    ey = np.diff(pts[:, 1])
    len2 = ex * ex + ey * ey
    s_cum = np.concatenate([[0.0], np.cumsum(np.sqrt(len2))])
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
    start, speed, targets, v0, p, a_rows, a_band, a_hlen, path_len, terminus, ego_half_length, dt, steps
):
    """The allocating numpy form of the rollout kernel: the tests' bitwise
    reference for proposals._step_kernel, which computes the same arithmetic
    in the same order into preallocated buffers. Takes its arguments and
    returns its (S+1, n) arclength and lateral histories as it does.

    Per step and row: pick the nearest agent ahead whose lateral band covers
    the current blend position (the first such agent on equal gaps); follow it
    with IDM, or creep past it when the proposal's target offset clears the
    band; brake for the path terminus.
    """
    a_s, a_lat, a_vlon = a_rows
    s, l = start.copy()
    n = len(s)
    v = np.full(n, speed)
    T_h, s0, a_max, brake_scale, delta = np.repeat(
        [[p.T_h], [p.s0], [p.a_max], [2.0 * math.sqrt(p.a_max * p.b_comf)], [p.delta]], n, axis=1
    )
    creep_v0 = np.minimum(v0, CREEP_SPEED)
    bypass_clear = np.abs(a_lat - targets[:, None]) >= a_band
    s_hist = np.empty((steps + 1, n))
    l_hist = np.empty((steps + 1, n))
    s_hist[0], l_hist[0] = s, l
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
            overlap = 1.0 - dl_a[rows, j] / a_band[j]
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
    return s_hist, l_hist


def reference_points_in_polygons(pts, polygons):
    """Inclusive membership of points (N, 2) in a union of polygons, each
    polygon classified as a box on every call: the tests' reference for the
    scorer's drivable-area term, which reads a scenario's boxes built once."""
    pts = np.asarray(pts, dtype=float)
    inside = np.zeros(len(pts), dtype=bool)
    for poly in polygons:
        todo = ~inside
        if not todo.any():
            break
        aabb = polygon_as_aabb(poly)
        sub = pts[todo]
        if aabb is not None:
            x0, y0, x1, y1 = aabb
            hit = (sub[:, 0] >= x0) & (sub[:, 0] <= x1) & (sub[:, 1] >= y0) & (sub[:, 1] <= y1)
        else:
            hit = points_in_polygon(sub, poly)
        inside[todo] |= hit
    return inside


def reference_rollout_rows(ego, paths, path_of_row, targets, v0, p, agents, cfg):
    """The rollout set-up as one projection of the ego per path, one batch
    projection of the agents per path (path heading by pose_at) and a
    world-frame rebuild per boolean row mask: the tests' bitwise reference
    for proposals._rollout_rows, with the same kernel and return values.
    """
    n = len(path_of_row)
    steps = cfg.horizon_steps
    n_agents = len(agents)
    s_ego_p = np.empty(len(paths))
    l_ego_p = np.empty(len(paths))
    ag = np.zeros((3, len(paths), n_agents))  # s, lat, v_lon
    if n_agents:
        x, y, heading, speed, half_length, half_width = np.array(
            [[a.pose.x, a.pose.y, a.pose.heading, a.speed, a.half_length, a.half_width] for a in agents]
        ).T
        agent_xy = np.stack([x, y], axis=1)
    for j, path in enumerate(paths):
        s_ego_p[j], l_ego_p[j], _ = project_onto_path(path, ego.pose)
        if n_agents:
            s_a, lat_a, _, _ = project_points_to_polyline(agent_xy, path.segments)
            _, path_head = path.segments.pose_at(s_a)
            ag[:, j] = s_a, lat_a, speed * np.cos(heading - path_head)

    if n_agents:
        band = np.maximum(CORRIDOR_HALF_WIDTH, half_width + ego.half_width + CORRIDOR_MARGIN)
    else:
        band = half_length = np.zeros(0)
    s_hist, l_hist = _step_kernel(
        np.stack([s_ego_p, l_ego_p])[:, path_of_row], ego.speed, targets, v0, p, ag[:, path_of_row],
        band, half_length, np.array([path.length for path in paths])[path_of_row],
        np.array([path.ends_at_terminus for path in paths], dtype=bool)[path_of_row],
        float(ego.half_length), cfg.dt, steps,
    )

    xy = np.empty((steps + 1, n, 2))
    for j, path in enumerate(paths):
        members = path_of_row == j
        s_flat = np.clip(s_hist[:, members].reshape(-1), 0.0, path.length)
        pos, head = path.segments.pose_at(s_flat)
        m = int(members.sum())
        pos = pos.reshape(steps + 1, m, 2)
        head = head.reshape(steps + 1, m)
        normal = np.stack([-np.sin(head), np.cos(head)], axis=-1)
        xy[:, members, :] = pos + l_hist[:, members, None] * normal

    heads, speeds = segment_headings_and_speeds(xy, ego.pose.heading, ego.speed, cfg.dt)
    positions = np.ascontiguousarray(xy.transpose(1, 0, 2))
    positions[:, 0] = (ego.pose.x, ego.pose.y)
    headings = np.ascontiguousarray(heads.T)
    headings[:, 0] = ego.pose.heading
    speeds = np.ascontiguousarray(speeds.T)
    speeds[:, 0] = ego.speed
    return positions, headings, speeds, np.ascontiguousarray(s_hist.T)


def reference_read_back(paths, path_of_row, s_hist, l_hist):
    """The rollout read-back by pose_at and np.sin and np.cos of the
    gathered headings, and each path's centre point by points_at at its
    first row's sample 0: the tests' bitwise reference for
    proposals._read_back, which reads the segment array's cached -sin and
    cos instead."""
    xy = np.empty(s_hist.shape + (2,))
    centres = np.empty((len(paths), 2))
    edges = np.searchsorted(path_of_row, np.arange(len(paths) + 1))
    for j, path in enumerate(paths):
        rows = slice(edges[j], edges[j + 1])
        pos, head = path.segments.pose_at(s_hist[:, rows])
        xy[:, rows, 0] = pos[..., 0] - l_hist[:, rows] * np.sin(head)
        xy[:, rows, 1] = pos[..., 1] + l_hist[:, rows] * np.cos(head)
        centres[j] = path.segments.points_at(s_hist[0, edges[j]])
    return xy, centres


def reference_route_arclengths(pos, appended, route):
    """The scorer's route projection with every sample of the appended rows
    in the batch: the tests' bitwise reference for scoring._route_arclengths,
    which projects only their samples 1..S-1 and reads samples 0 and S from
    the rows' start and end entries."""
    n, width = pos.shape[:2]
    start = pos[:, 0, :]
    _, first, start_of_row = np.unique(start[:, 0] + 1j * start[:, 1], return_index=True, return_inverse=True)
    s_route = project_points_to_polyline(
        np.concatenate([start[first], pos[:, -1, :], pos[appended].reshape(-1, 2)]), route.segments
    )[0]
    k = len(first)
    return s_route[k : k + n] - s_route[start_of_row], s_route[k + n :].reshape(-1, width)


def reference_scores(proposals, ctx):
    """The scorer with every direction term taken eagerly: score_proposals'
    other columns, c_dr of every row at once, each appended row's samples
    all projected onto the route in one batch (reference_route_arclengths),
    and the aggregate over every row. A dict of columns by name: the tests'
    bitwise reference for scoring.Scores, whose appended rows' c_dr and
    aggregate are taken when read."""
    scores = scoring.score_proposals(proposals, ctx)
    c = {name: getattr(scores, name) for name in scoring._TERMS if name not in ("c_dr", "aggregate")}
    appended = ~proposals.tracked
    _, s_appended = reference_route_arclengths(proposals.positions, appended, ctx.route_path)
    s = proposals.s_track.copy()
    s[appended] = s_appended
    c["c_dr"] = reference_batch_direction(s, proposals.path_index, proposals.paths + (ctx.route_path,))
    objectives = tuple(c[name] for name in ("c_ttc", "c_dr", "c_sp", "c_ep", "c_cf"))
    c["aggregate"] = scoring.aggregate(
        c["c_col"], c["c_ra"], c["c_mp"], objectives, c["goal_cost"], ctx.weights, ctx.relax, ctx.goal_norm
    )
    return c


class ReferenceSegmentTable:
    """Arclengths, points_at, pose_at and segment_index of a polyline by
    np.diff, np.cumsum, np.stack and np.searchsorted: the tests' bitwise
    reference for geometry.SegmentTable, which takes the same values by
    slicing and ndarray methods."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        d = np.diff(self.points, axis=0)
        self.s = np.concatenate([[0.0], np.cumsum(np.sqrt((d * d).sum(axis=1)))])
        self.headings = np.array([math.atan2(dy, dx) for dx, dy in d.tolist()])

    def segment_index(self, s):
        return np.minimum(np.searchsorted(self.s, s, side="right") - 1, len(self.s) - 2)

    def points_at(self, s):
        c = np.minimum(np.maximum(np.asarray(s, dtype=float), self.s[0]), self.s[-1])
        x, y = self.points[:, 0], self.points[:, 1]
        return np.stack([np.interp(c, self.s, x), np.interp(c, self.s, y)], axis=-1)

    def pose_at(self, s):
        c = np.minimum(np.maximum(np.asarray(s, dtype=float), self.s[0]), self.s[-1])
        return self.points_at(c), self.headings[self.segment_index(c)]


def reference_segment_headings_and_speeds(waypoints, heading0, speed0, dt):
    """The concatenating form by np.diff and np.take_along_axis: the tests'
    bitwise reference for scene.segment_headings_and_speeds."""
    d = np.diff(waypoints, axis=0)
    seg = np.hypot(d[..., 0], d[..., 1])
    raw = np.arctan2(d[..., 1], d[..., 0])
    steps = len(seg)
    step_no = np.arange(1, steps + 1).reshape((steps,) + (1,) * (seg.ndim - 1))
    last_move = np.maximum.accumulate(step_no * (seg > 1e-6), axis=0)
    first_heading = np.full((1,) + seg.shape[1:], heading0)
    held = np.take_along_axis(np.concatenate([first_heading, raw]), last_move, axis=0)
    headings = np.concatenate([first_heading, held])
    speeds = np.concatenate([np.full((1,) + seg.shape[1:], speed0), seg / dt])
    return headings, speeds


def reference_batch_comfort(speeds, heads, dt):
    """The comfort term by np.diff and np.zeros_like: the tests' bitwise
    reference for scoring._batch_comfort."""
    a_lon = np.diff(speeds, axis=1) / dt
    yaw_rate = normalize_angles(np.diff(heads, axis=1)) / dt
    a_lat = speeds[:, :-1] * yaw_rate
    jerk = np.zeros_like(a_lon)
    jerk[:, 1:] = np.diff(a_lon, axis=1) / dt
    yaw_acc = np.zeros_like(yaw_rate)
    yaw_acc[:, 1:] = np.diff(yaw_rate, axis=1) / dt
    ok = (
        (a_lon <= COMFORT_ACCEL_MAX)
        & (a_lon >= -COMFORT_DECEL_MAX)
        & (np.abs(a_lat) <= COMFORT_LAT_ACCEL)
        & (np.abs(jerk) <= COMFORT_JERK)
        & (np.abs(yaw_rate) <= COMFORT_YAW_RATE)
        & (np.abs(yaw_acc) <= COMFORT_YAW_ACCEL)
    )
    return ok.mean(axis=1)


def reference_batch_direction(s, path_index, paths):
    """The direction term by np.searchsorted, np.clip and np.diff: the tests'
    bitwise reference for scoring._batch_direction."""
    opposing = np.empty((len(s), s.shape[1] - 1), dtype=bool)
    for j, path in enumerate(paths):
        rows = path_index == (j if j < len(paths) - 1 else -1)
        seg = np.searchsorted(path.s, s[rows, :-1], side="right") - 1
        opposing[rows] = path.opposing_mask[np.clip(seg, 0, len(path.opposing_mask) - 1)]
    ds = np.diff(s, axis=1)
    against = np.where(opposing, np.maximum(ds, 0.0), np.maximum(-ds, 0.0)).sum(axis=1)
    return np.where(against < DIR_EPS, 1.0, np.where(against < DIR_TOL, 0.5, 0.0))


def reference_lqr_track(ego, reference):
    """The tracker with the dense projection on every call: the tests'
    bitwise reference for simulator.lqr_track, which skips the projection
    when the ego is the plan's pinned sample 0."""
    pts = reference.positions
    table = SegmentTable(pts)
    s_cum = table.s
    (s,), (e_lat,), (ref_head,), _ = project_points_to_polyline(np.array([[ego.pose.x, ego.pose.y]]), table)
    e_head = normalize_angle(ego.pose.heading - ref_head)
    idx = min(max(int(s_cum.searchsorted(s, side="right")) - 1, 0), len(pts) - 2)
    look = min(idx + LOOKAHEAD_STEPS, len(pts) - 1)
    accel_cmd = K_SPEED * (float(reference.speeds[look]) - ego.speed)
    heads = reference.headings
    j = min(idx + 1, len(heads) - 1)
    ds = max(s_cum[j] - s_cum[idx], 1e-6) if j > idx else 1e-6
    kappa = normalize_angle(heads[j] - heads[idx]) / ds if j > idx else 0.0
    kappa = float(min(max(kappa, -0.5), 0.5))
    if ego.speed < LOW_SPEED:
        k1, k2 = LOW_SPEED_GAIN
        steer_fb = -k1 * e_lat - k2 * e_head
    else:
        k = lqr_gain(ego.speed, reference.dt, ego.wheelbase)
        steer_fb = float(-(k[0] * e_lat + k[1] * e_head))
    return accel_cmd, steer_fb + math.atan(ego.wheelbase * kappa)


def reference_ego_collides(ego, agents):
    """Every agent through one boxes_overlap call: the tests' bitwise
    reference for simulator._ego_collides, which drops agents out of reach
    first."""
    if not agents:
        return False
    x, y, h, hl, hw = np.array(
        [[a.pose.x, a.pose.y, a.pose.heading, a.half_length, a.half_width] for a in agents]
    ).T
    e = ego.pose
    ca, sa = np.cos(e.heading), np.sin(e.heading)
    hit = boxes_overlap(x - e.x, y - e.y, ca, sa, ego.half_length, ego.half_width, np.cos(h), np.sin(h), hl, hw)
    return bool(hit.any())


def reference_footprint_inside_drivable(a, scenario):
    """points_in_polygons on agent_footprint's corners: the tests' bitwise
    reference for scene.footprint_inside_drivable, which tests one pose's
    corners in scalars."""
    x, y = agent_footprint(a).T
    return bool(points_in_polygons(x, y, scenario.drivable_area, scenario.drivable_boxes).all())
