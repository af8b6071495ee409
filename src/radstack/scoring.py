"""Proposal scoring: multiplicative safety penalties scaling a weighted sum of
driving-quality objectives, a terminal goal-distance term entering negatively,
and context-aware relaxation of drivable-area / driving-direction penalties.

Sign convention: higher is better. A proposal's aggregate is

    P * (sum_i w_i * c_i) / (sum_i w_i) - w_goal * min(goal_cost / goal_norm, 1)

with P = c_col * c_ra * c_mp. When relaxation is active, zero-valued c_ra and
c_dr are lifted to the relaxation floor; c_col is never relaxed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    boxes_overlap,
    normalize_angles,
    points_in_polygon,
    points_in_polygons,
    project_points_to_polyline,
    rect_corners_batch,
)
from .proposals import CORRIDOR_HALF_WIDTH, CORRIDOR_MARGIN
from .scene import AgentState, EgoState, Pose2, Scenario, Trajectory
from .topology import ProposalPath

RELAX_FLOOR = 0.5
T_BLOCK = 3.0  # s stopped before relaxation may trigger
D_BLOCK = 15.0  # m blocker lookahead
STOPPED_SPEED = 0.5  # m/s
MIN_PROGRESS = 0.5  # m; a feasible proposal gaining this much obligates progress
TTC_WINDOW = 0.95  # s
SPEED_TOL = 0.2  # m/s over the limit before speed compliance decays
DIR_TOL = 2.0  # m of against-direction travel tolerated at half credit
DIR_EPS = 0.1  # m of against-direction travel treated as none

# nuPlan-style comfort bounds.
COMFORT_ACCEL_MAX = 2.40  # m/s^2
COMFORT_DECEL_MAX = 4.05  # m/s^2 (magnitude)
COMFORT_LAT_ACCEL = 4.89  # m/s^2
COMFORT_JERK = 8.37  # m/s^3
COMFORT_YAW_RATE = 0.95  # rad/s
COMFORT_YAW_ACCEL = 1.93  # rad/s^2


@dataclass(frozen=True)
class ScoreWeights:
    w_ttc: float = 5.0
    w_dr: float = 1.0
    w_sp: float = 4.0
    w_ep: float = 5.0
    w_cf: float = 2.0
    w_goal: float = 0.3

    def __post_init__(self):
        if min(self.w_ttc, self.w_dr, self.w_sp, self.w_ep, self.w_cf, self.w_goal) < 0:
            raise ValueError("score weights must be non-negative")
        if self.weighted_total <= 0:
            raise ValueError("at least one objective weight must be positive")

    @property
    def weighted_total(self) -> float:
        return self.w_ttc + self.w_dr + self.w_sp + self.w_ep + self.w_cf


@dataclass(frozen=True)
class RelaxationState:
    active: bool = False
    stopped_duration: float = 0.0
    blocker_distance: float | None = None


@dataclass(frozen=True)
class ScoreBreakdown:
    c_col: float
    c_ra: float
    c_mp: float
    c_ttc: float
    c_dr: float
    c_sp: float
    c_ep: float
    c_cf: float
    goal_cost: float
    aggregate: float
    relaxed: bool = False

    def to_record(self) -> dict:
        return {
            "c_col": self.c_col,
            "c_ra": self.c_ra,
            "c_mp": self.c_mp,
            "c_ttc": self.c_ttc,
            "c_dr": self.c_dr,
            "c_sp": self.c_sp,
            "c_ep": self.c_ep,
            "c_cf": self.c_cf,
            "goal_cost": self.goal_cost,
            "aggregate": self.aggregate,
            "relaxed": self.relaxed,
        }


class WorldForecast:
    """Constant-velocity, constant-heading agent extrapolation over the horizon."""

    def __init__(self, agents, horizon_steps: int, dt: float):
        self.dt = dt
        self.steps = horizon_steps
        self.agents = tuple(agents)
        n = len(self.agents)
        t = np.arange(horizon_steps + 1) * dt
        pos0 = np.array([[a.pose.x, a.pose.y] for a in self.agents]).reshape(n, 2)
        heads = np.array([a.pose.heading for a in self.agents])
        speeds = np.array([0.0 if a.kind == "static" else a.speed for a in self.agents])
        vel = speeds[:, None] * np.stack([np.cos(heads), np.sin(heads)], axis=1)
        # (A, S+1, 2)
        self.positions = pos0[:, None, :] + vel[:, None, :] * t[None, :, None]
        self.headings = heads
        self.half_lengths = np.array([a.half_length for a in self.agents])
        self.half_widths = np.array([a.half_width for a in self.agents])

    def __len__(self):
        return len(self.agents)


def forecast_agents(agents, horizon_steps: int, dt: float) -> WorldForecast:
    return WorldForecast(agents, horizon_steps, dt)


def check_collision(traj: Trajectory, f: WorldForecast, ego_dims=(2.3, 0.95)) -> int:
    """1 if the ego footprint never overlaps any forecast footprint, else 0.

    Touching counts as overlap. traj and f must share dt and step count.
    """
    if len(f) == 0:
        return 1
    if traj.horizon_steps != f.steps:
        raise ValueError("trajectory and forecast horizons differ")
    hit = boxes_overlap(
        f.positions[..., 0] - traj.positions[:, 0],  # (A, S+1)
        f.positions[..., 1] - traj.positions[:, 1],
        traj.headings, *ego_dims,
        f.headings[:, None], f.half_lengths[:, None], f.half_widths[:, None],
    )
    return 0 if bool(hit.any()) else 1


def check_drivable_area(traj: Trajectory, scenario: Scenario, ego_dims=(2.3, 0.95)) -> int:
    """1 if every footprint corner stays inside the drivable union (boundary inclusive)."""
    corners = rect_corners_batch(traj.positions, traj.headings, *ego_dims).reshape(-1, 2)
    inside = np.zeros(len(corners), dtype=bool)
    for poly in scenario.drivable_area:
        inside |= points_in_polygon(corners, poly)
        if inside.all():
            return 1
    return 1 if inside.all() else 0


def route_progress(traj: Trajectory, path: ProposalPath) -> float:
    """Arclength gain of the trajectory projected onto a reference path."""
    ends = np.stack([traj.positions[0], traj.positions[-1]])
    s, _, _ = project_points_to_polyline(ends, path.points, path.s)
    return float(s[1] - s[0])


def check_min_progress(
    traj: Trajectory,
    path: ProposalPath,
    min_progress: float = MIN_PROGRESS,
    max_feasible_gain: float | None = None,
) -> int:
    """0 iff this trajectory stalls while some feasible proposal can progress.

    max_feasible_gain is the best route gain among proposals that are not
    multiplicatively killed; None means no such context (single-proposal use),
    in which case a stalled trajectory is exempt.
    """
    gain = route_progress(traj, path)
    if gain >= min_progress:
        return 1
    if max_feasible_gain is None or max_feasible_gain < min_progress:
        return 1  # nothing can progress; no penalty
    return 0


def _ttc_clear(traj: Trajectory, f: WorldForecast, ego_dims, window: float) -> int:
    """1 unless projecting the ego forward at each step's speed hits the forecast."""
    if len(f) == 0:
        return 1
    n_sub = int(window / f.dt)
    if n_sub < 1:
        return 1
    pos = traj.positions
    heads = traj.headings
    speeds = traj.speeds
    live = speeds > 0.05
    if not live.any():
        return 1
    idx_i = np.nonzero(live)[0]
    taus = (np.arange(1, n_sub + 1) * f.dt)[None, :]  # (1, J)
    dirs = np.stack([np.cos(heads[idx_i]), np.sin(heads[idx_i])], axis=1)  # (I, 2)
    adv = speeds[idx_i, None] * taus  # (I, J)
    proj = pos[idx_i, None, :] + adv[:, :, None] * dirs[:, None, :]  # (I, J, 2)
    # Forecast index i + j, clamped to the horizon.
    j_idx = np.minimum(idx_i[:, None] + np.arange(1, n_sub + 1)[None, :], f.steps)  # (I, J)
    agents = f.positions[:, j_idx]  # (A, I, J, 2)
    hit = boxes_overlap(
        agents[..., 0] - proj[..., 0], agents[..., 1] - proj[..., 1],
        heads[idx_i, None], *ego_dims,
        f.headings[:, None, None], f.half_lengths[:, None, None], f.half_widths[:, None, None],
    )
    return 0 if bool(hit.any()) else 1


def _speed_compliance(traj: Trajectory, limit: float, tol: float) -> float:
    over = traj.speeds > limit + tol
    return float(1.0 - over.mean())


def _direction_compliance(traj: Trajectory, path: ProposalPath, dir_tol: float) -> float:
    s, _, _ = project_points_to_polyline(traj.positions, path.points, path.s)
    ds = np.diff(s)
    idx = np.clip(np.searchsorted(path.s, s[:-1], side="right") - 1, 0, len(path.opposing_mask) - 1)
    opposing = path.opposing_mask[idx]
    against = float(np.where(opposing, np.maximum(ds, 0.0), np.maximum(-ds, 0.0)).sum())
    if against < DIR_EPS:
        return 1.0
    if against < dir_tol:
        return 0.5
    return 0.0


def _comfort(traj: Trajectory) -> float:
    dt = traj.dt
    v = traj.speeds
    heads = traj.headings
    a_lon = np.diff(v) / dt
    yaw_rate = normalize_angles(np.diff(heads)) / dt
    a_lat = v[:-1] * yaw_rate
    jerk = np.diff(a_lon, prepend=a_lon[:1]) / dt
    yaw_acc = np.diff(yaw_rate, prepend=yaw_rate[:1]) / dt
    ok = (
        (a_lon <= COMFORT_ACCEL_MAX)
        & (a_lon >= -COMFORT_DECEL_MAX)
        & (np.abs(a_lat) <= COMFORT_LAT_ACCEL)
        & (np.abs(jerk) <= COMFORT_JERK)
        & (np.abs(yaw_rate) <= COMFORT_YAW_RATE)
        & (np.abs(yaw_acc) <= COMFORT_YAW_ACCEL)
    )
    return float(ok.mean())


def weighted_objectives(
    traj: Trajectory,
    f: WorldForecast,
    scenario: Scenario,
    path: ProposalPath,
    max_route_gain: float | None = None,
    ego_dims=(2.3, 0.95),
    ttc_window: float = TTC_WINDOW,
    speed_tol: float = SPEED_TOL,
    dir_tol: float = DIR_TOL,
) -> tuple:
    """(c_ttc, c_dr, c_sp, c_ep, c_cf), each in [0, 1].

    max_route_gain normalizes ego progress across the proposal set; when it is
    None or non-positive every proposal is exempt (c_ep = 1).
    """
    c_ttc = float(_ttc_clear(traj, f, ego_dims, ttc_window))
    c_sp = _speed_compliance(traj, path.speed_limit, speed_tol)
    gain = max(0.0, route_progress(traj, path))
    if max_route_gain is None or max_route_gain <= 0.0:
        c_ep = 1.0
    else:
        c_ep = min(1.0, gain / max_route_gain)
    c_dr = _direction_compliance(traj, path, dir_tol)
    c_cf = _comfort(traj)
    return c_ttc, c_dr, c_sp, c_ep, c_cf


def goal_cost(traj: Trajectory, goal: Pose2) -> float:
    """Euclidean distance from the trajectory's last position to the goal."""
    end = traj.end_position
    return float(math.hypot(end[0] - goal.x, end[1] - goal.y))


def detect_relaxation(
    history,
    agents,
    path: ProposalPath,
    dt: float = 0.1,
    ego: EgoState | None = None,
    t_block: float = T_BLOCK,
    d_block: float = D_BLOCK,
) -> RelaxationState:
    """Relaxation triggers when the ego has idled behind a static blocker.

    history: recent ego states (oldest first, current last), spaced dt apart.
    Active iff speed stayed < 0.5 m/s for at least t_block seconds and a
    stopped agent occupies the route corridor within d_block ahead.
    """
    if not history:
        return RelaxationState()
    ego = ego or history[-1]
    run = 0
    for state in reversed(history):
        if state.speed < STOPPED_SPEED:
            run += 1
        else:
            break
    stopped_duration = run * dt
    blocker_distance = _blocker_distance(ego, agents, path, d_block)
    active = stopped_duration >= t_block and blocker_distance is not None
    return RelaxationState(
        active=active, stopped_duration=stopped_duration, blocker_distance=blocker_distance
    )


def _blocker_distance(ego: EgoState, agents, path: ProposalPath, d_block: float):
    """Bumper distance to the nearest stopped agent in the route corridor, or None."""
    stopped = [a for a in agents if a.kind == "static" or a.speed < 0.1]
    if not stopped:
        return None
    pos = np.array([[a.pose.x, a.pose.y] for a in stopped])
    s_a, lat_a, _ = project_points_to_polyline(pos, path.points, path.s)
    s_e, _, _ = project_points_to_polyline(
        np.array([[ego.pose.x, ego.pose.y]]), path.points, path.s
    )
    s_e = float(s_e[0])
    _, head0 = path.pose_at(0.0)
    start = path.start
    best = None
    for i, a in enumerate(stopped):
        band = max(CORRIDOR_HALF_WIDTH, a.half_width + ego.half_width + CORRIDOR_MARGIN)
        if abs(lat_a[i]) >= band:
            continue
        s_i = s_a[i]
        if s_i < 0.25:
            # Clamped projection: resolve longitudinal position against the
            # path start frame so agents behind the start are excluded.
            rel = np.array([a.pose.x, a.pose.y]) - start
            s_i = float(rel[0] * math.cos(head0[0]) + rel[1] * math.sin(head0[0]))
        if s_i + a.half_length < s_e - ego.half_length:  # fully behind
            continue
        d = max(0.0, (s_i - a.half_length) - (s_e + ego.half_length))
        if d <= d_block and (best is None or d < best):
            best = d
    return best


def aggregate_score(
    c_col: float,
    c_ra: float,
    c_mp: float,
    objectives: tuple,
    goal_cost_m: float,
    weights: ScoreWeights,
    relax: RelaxationState = RelaxationState(),
    goal_norm: float = 1.0,
) -> ScoreBreakdown:
    """Combine penalty and objective terms into one breakdown (higher is better)."""
    c_ttc, c_dr, c_sp, c_ep, c_cf = objectives
    c_ra_eff = max(c_ra, RELAX_FLOOR) if relax.active else c_ra
    c_dr_eff = max(c_dr, RELAX_FLOOR) if relax.active else c_dr
    penalty = c_col * c_ra_eff * c_mp
    weighted = (
        weights.w_ttc * c_ttc
        + weights.w_dr * c_dr_eff
        + weights.w_sp * c_sp
        + weights.w_ep * c_ep
        + weights.w_cf * c_cf
    ) / weights.weighted_total
    norm_goal = min(goal_cost_m / goal_norm, 1.0) if goal_norm > 0 else 0.0
    aggregate = penalty * weighted - weights.w_goal * norm_goal
    return ScoreBreakdown(
        c_col=c_col,
        c_ra=c_ra,
        c_mp=c_mp,
        c_ttc=c_ttc,
        c_dr=c_dr,
        c_sp=c_sp,
        c_ep=c_ep,
        c_cf=c_cf,
        goal_cost=goal_cost_m,
        aggregate=float(aggregate),
        relaxed=relax.active,
    )


@dataclass
class ScoreContext:
    """Everything the scorer needs beyond the proposals themselves."""

    scenario: Scenario
    forecast: WorldForecast
    route_path: ProposalPath
    weights: ScoreWeights = ScoreWeights()
    relax: RelaxationState = RelaxationState()
    goal_norm: float = 1.0
    min_progress: float = MIN_PROGRESS
    ego_dims: tuple = (2.3, 0.95)


TAG_PRIORITY = {"idm": 0, "learned": 1, "learned_offset": 2, "vocabulary": 3, "replay": 4}


def _batch_ttc(pos, heads, speeds, f: WorldForecast, ego_dims, window: float) -> np.ndarray:
    """Vectorized forward-projection clearance flag per proposal (1 = clear).

    Only live samples (speed > 0.05 m/s) are projected, and pairs are
    prefiltered by center distance so the box test only runs where footprints
    could possibly meet.
    """
    n_props = len(speeds)
    out = np.ones(n_props)
    n_sub = int(window / f.dt)
    if len(f) == 0 or n_sub < 1:
        return out
    p_l, s_l = np.nonzero(speeds > 0.05)  # (L,) live samples
    taus = np.arange(1, n_sub + 1) * f.dt  # (J,)
    head = heads[p_l, s_l]
    adv = speeds[p_l, s_l, None] * taus  # (L, J)
    px = pos[p_l, s_l, 0, None] + adv * np.cos(head)[:, None]
    py = pos[p_l, s_l, 1, None] + adv * np.sin(head)[:, None]
    j_idx = np.minimum(s_l[:, None] + np.arange(1, n_sub + 1), f.steps)  # (L, J)
    dx = f.positions[:, j_idx, 0] - px  # (A, L, J)
    dy = f.positions[:, j_idx, 1] - py

    reach = math.hypot(*ego_dims) + np.hypot(f.half_lengths, f.half_widths)  # (A,)
    near = dx * dx + dy * dy < (reach**2)[:, None, None]
    a_i, l_i, j_i = np.nonzero(near)
    hit = boxes_overlap(
        dx[a_i, l_i, j_i], dy[a_i, l_i, j_i], head[l_i], *ego_dims,
        f.headings[a_i], f.half_lengths[a_i], f.half_widths[a_i],
    )
    out[p_l[l_i[hit]]] = 0.0
    return out


def _batch_comfort(speeds, heads, dt) -> np.ndarray:
    a_lon = np.diff(speeds, axis=1) / dt
    yaw_rate = normalize_angles(np.diff(heads, axis=1)) / dt
    a_lat = speeds[:, :-1] * yaw_rate
    jerk = np.diff(a_lon, axis=1, prepend=a_lon[:, :1]) / dt
    yaw_acc = np.diff(yaw_rate, axis=1, prepend=yaw_rate[:, :1]) / dt
    ok = (
        (a_lon <= COMFORT_ACCEL_MAX)
        & (a_lon >= -COMFORT_DECEL_MAX)
        & (np.abs(a_lat) <= COMFORT_LAT_ACCEL)
        & (np.abs(jerk) <= COMFORT_JERK)
        & (np.abs(yaw_rate) <= COMFORT_YAW_RATE)
        & (np.abs(yaw_acc) <= COMFORT_YAW_ACCEL)
    )
    return ok.mean(axis=1)


def score_proposals(proposals, ctx: ScoreContext) -> list:
    """One ScoreBreakdown per proposal, in proposal order.

    Semantically identical to applying the per-term operations proposal by
    proposal; evaluated as one vectorized batch.
    """
    props = list(proposals)
    if not props:
        return []
    n = len(props)
    steps = props[0].trajectory.horizon_steps
    pos = np.stack([p.trajectory.positions for p in props])  # (P, S+1, 2)
    heads = np.stack([p.trajectory.headings for p in props])
    speeds = np.stack([p.trajectory.speeds for p in props])
    f = ctx.forecast
    if any(p.trajectory.horizon_steps != f.steps for p in props):
        raise ValueError("trajectory and forecast horizons differ")

    # Multiplicative terms; collision pairs prefiltered by center distance.
    cols = np.ones(n)
    if len(f):
        reach = math.hypot(*ctx.ego_dims) + np.hypot(f.half_lengths, f.half_widths)  # (A,)
        dx = f.positions[None, :, :, 0] - pos[:, None, :, 0]  # (P, A, S+1)
        dy = f.positions[None, :, :, 1] - pos[:, None, :, 1]
        near = dx * dx + dy * dy < (reach**2)[None, :, None]
        p_i, a_i, s_i = np.nonzero(near)
        hit = boxes_overlap(
            dx[p_i, a_i, s_i], dy[p_i, a_i, s_i], heads[p_i, s_i], *ctx.ego_dims,
            f.headings[a_i], f.half_lengths[a_i], f.half_widths[a_i],
        )
        cols[p_i[hit]] = 0.0
    corners = rect_corners_batch(pos, heads, *ctx.ego_dims)  # (P, S+1, 4, 2)
    inside = points_in_polygons(corners.reshape(-1, 2), ctx.scenario.drivable_area)
    ras = inside.reshape(n, -1).all(axis=1).astype(float)

    # Route progress for every proposal, in one projection call.
    endpoints = np.concatenate([pos[:, 0, :], pos[:, -1, :]])
    s_ends, _, _ = project_points_to_polyline(endpoints, ctx.route_path.points, ctx.route_path.s)
    gains = s_ends[n:] - s_ends[:n]

    relax_active = ctx.relax.active
    ras_eff = np.maximum(ras, RELAX_FLOOR) if relax_active else ras
    feasible = (cols * ras_eff) > 0
    feasible_gain = float(gains[feasible].max()) if feasible.any() else 0.0
    max_gain = float(np.maximum(gains, 0.0).max()) if n else 0.0

    stall = gains < ctx.min_progress
    exempt = feasible_gain < ctx.min_progress
    mps = np.where(stall & ~exempt, 0.0, 1.0)

    c_ttcs = _batch_ttc(pos, heads, speeds, f, ctx.ego_dims, TTC_WINDOW)
    c_cfs = _batch_comfort(speeds, heads, props[0].trajectory.dt)
    if max_gain <= 0:
        c_eps = np.ones(n)
    else:
        c_eps = np.minimum(1.0, np.maximum(gains, 0.0) / max_gain)

    # Speed and direction compliance depend on each proposal's own path.
    # Rollouts carry their along-path arclength, sparing a re-projection;
    # externally injected trajectories (vocabulary, learned) are projected.
    c_sps = np.empty(n)
    c_drs = np.empty(n)
    groups = {}
    for i, p in enumerate(props):
        path = p.path if p.path is not None else ctx.route_path
        key = id(path)
        if key not in groups:
            groups[key] = (path, [], [])
        groups[key][1 if p.s_track is not None else 2].append(i)
    for path, idx_track, idx_proj in groups.values():
        idxs = np.asarray(idx_track + idx_proj)
        over = speeds[idxs] > path.speed_limit + SPEED_TOL
        c_sps[idxs] = 1.0 - over.mean(axis=1)
        parts = []
        if idx_track:
            parts.append(np.stack([props[i].s_track for i in idx_track]))
        if idx_proj:
            pts_flat = pos[np.asarray(idx_proj)].reshape(-1, 2)
            s_flat, _, _ = project_points_to_polyline(pts_flat, path.points, path.s)
            parts.append(s_flat.reshape(len(idx_proj), steps + 1))
        s_grp = np.concatenate(parts)
        ds = np.diff(s_grp, axis=1)
        seg_idx = np.clip(
            np.searchsorted(path.s, s_grp[:, :-1], side="right") - 1,
            0,
            len(path.opposing_mask) - 1,
        )
        opposing = path.opposing_mask[seg_idx]
        against = np.where(opposing, np.maximum(ds, 0.0), np.maximum(-ds, 0.0)).sum(axis=1)
        c_drs[idxs] = np.where(against < DIR_EPS, 1.0, np.where(against < DIR_TOL, 0.5, 0.0))

    goal = ctx.scenario.goal
    goal_costs = np.hypot(pos[:, -1, 0] - goal.x, pos[:, -1, 1] - goal.y)

    out = []
    for i in range(n):
        out.append(
            aggregate_score(
                float(cols[i]),
                float(ras[i]),
                float(mps[i]),
                (float(c_ttcs[i]), float(c_drs[i]), float(c_sps[i]), float(c_eps[i]), float(c_cfs[i])),
                float(goal_costs[i]),
                ctx.weights,
                ctx.relax,
                ctx.goal_norm,
            )
        )
    return out


def select_best(proposals, ctx: ScoreContext) -> tuple:
    """(winning trajectory, breakdowns). Deterministic argmax of aggregate.

    Ties break on tag priority (idm first), then lowest proposal index, so the
    result is independent of input permutation given stable indices.
    """
    breakdowns = score_proposals(proposals, ctx)
    if not breakdowns:
        raise ValueError("cannot select from an empty proposal set")
    best = None
    best_key = None
    for p, b in zip(proposals, breakdowns):
        key = (-b.aggregate, TAG_PRIORITY.get(p.trajectory.tag, 9), p.index)
        if best_key is None or key < best_key:
            best_key = key
            best = p
    return best.trajectory, breakdowns
