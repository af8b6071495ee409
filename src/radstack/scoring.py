"""Proposal scoring over a columnar ProposalSet: multiplicative safety
penalties scaling a weighted sum of driving-quality objectives, a terminal
goal-distance term entering negatively, and context-aware relaxation of
drivable-area / driving-direction penalties (the nuPlan/PDM metric split).

Every term is a (P,) column over the proposal rows. Sign convention: higher
is better. A proposal's aggregate is

    P * (sum_i w_i * c_i) / (sum_i w_i) - w_goal * min(goal_cost / goal_norm, 1)

with P = c_col * c_ra * c_mp. When relaxation is active, zero-valued c_ra and
c_dr are lifted to the relaxation floor; c_col is never relaxed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import (
    boxes_overlap,
    normalize_angles,
    points_in_polygons,
    project_points_to_polyline,
    rect_corners_batch,
    to_local_frame,
)
from .proposals import CORRIDOR_HALF_WIDTH, CORRIDOR_MARGIN, ProposalSet
from .scene import EgoState, Scenario
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
        self.velocities = vel  # (A, 2)
        self.headings = heads
        self.half_lengths = np.array([a.half_length for a in self.agents])
        self.half_widths = np.array([a.half_width for a in self.agents])

    def __len__(self):
        return len(self.agents)


def forecast_agents(agents, horizon_steps: int, dt: float) -> WorldForecast:
    return WorldForecast(agents, horizon_steps, dt)


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
    pos = np.array([[ego.pose.x, ego.pose.y]] + [[a.pose.x, a.pose.y] for a in stopped])
    s_all, lat_all, _, _ = project_points_to_polyline(pos, path.segments)
    s_e, s_a, lat_a = float(s_all[0]), s_all[1:], lat_all[1:]
    _, head0 = path.segments.pose_at(0.0)
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
            s_i = float(to_local_frame(pos[i + 1], start[0], start[1], float(head0))[0])
        if s_i + a.half_length < s_e - ego.half_length:  # fully behind
            continue
        d = max(0.0, (s_i - a.half_length) - (s_e + ego.half_length))
        if d <= d_block and (best is None or d < best):
            best = d
    return best


def aggregate(
    c_col,
    c_ra,
    c_mp,
    objectives: tuple,
    goal_cost,
    weights: ScoreWeights,
    relax: RelaxationState = RelaxationState(),
    goal_norm: float = 1.0,
):
    """Aggregate score, elementwise over arrays of terms (higher is better).

    objectives is (c_ttc, c_dr, c_sp, c_ep, c_cf).
    """
    c_ttc, c_dr, c_sp, c_ep, c_cf = objectives
    if relax.active:
        c_ra = np.maximum(c_ra, RELAX_FLOOR)
        c_dr = np.maximum(c_dr, RELAX_FLOOR)
    weighted = (
        weights.w_ttc * c_ttc
        + weights.w_dr * c_dr
        + weights.w_sp * c_sp
        + weights.w_ep * c_ep
        + weights.w_cf * c_cf
    ) / weights.weighted_total
    norm_goal = np.minimum(goal_cost / goal_norm, 1.0) if goal_norm > 0 else 0.0
    return c_col * c_ra * c_mp * weighted - weights.w_goal * norm_goal


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


BROAD_PHASE_SLACK = 1e-6  # m; keeps the TTC broad phase conservative under rounding


def _batch_ttc(pos, heads, speeds, f: WorldForecast, ego_dims, window: float) -> np.ndarray:
    """Forward-projection clearance flag per proposal (1 = clear).

    Each live sample i (speed > 0.05 m/s) is projected along its heading at
    sub-steps tau = dt .. J dt and checked against the forecast at step i + j,
    clamped to the horizon. Broad phase: per (agent, live sample) pair, the
    ego's projected centres lie on a segment, and so do the agent's forecast
    centres over its clamped steps; each segment lies in the circle around its
    midpoint. Only pairs whose circles come within reach get the (pairs, J)
    centre-distance grid, and only centres within reach get the box test.
    """
    out = np.ones(len(speeds))
    n_sub = int(window / f.dt)
    if len(f) == 0 or n_sub < 1:
        return out
    p_l, s_l = np.nonzero(speeds > 0.05)  # (L,) live samples
    taus = np.arange(1, n_sub + 1) * f.dt  # (J,)
    v = speeds[p_l, s_l]
    head = heads[p_l, s_l]
    cos, sin = np.cos(head), np.sin(head)
    x, y = pos[p_l, s_l, 0], pos[p_l, s_l, 1]
    reach = math.hypot(*ego_dims) + np.hypot(f.half_lengths, f.half_widths)  # (A,)

    tau_mid, tau_half = 0.5 * (taus[0] + taus[-1]), 0.5 * (taus[-1] - taus[0])
    j0, j1 = np.minimum(s_l + 1, f.steps), np.minimum(s_l + n_sub, f.steps)
    t_mid, t_half = 0.5 * (j0 + j1) * f.dt, 0.5 * (j1 - j0) * f.dt  # (L,)
    gap_x = f.positions[:, 0, 0, None] + f.velocities[:, 0, None] * t_mid - (x + v * tau_mid * cos)  # (A, L)
    gap_y = f.positions[:, 0, 1, None] + f.velocities[:, 1, None] * t_mid - (y + v * tau_mid * sin)
    bound = (
        reach[:, None] + v * tau_half + np.hypot(*f.velocities.T)[:, None] * t_half + BROAD_PHASE_SLACK
    )
    a_i, l_i = np.nonzero(gap_x * gap_x + gap_y * gap_y <= bound * bound)

    adv = v[l_i, None] * taus  # (pairs, J)
    j_idx = np.minimum(s_l[l_i, None] + np.arange(1, n_sub + 1), f.steps)
    dx = f.positions[a_i[:, None], j_idx, 0] - (x[l_i, None] + adv * cos[l_i, None])
    dy = f.positions[a_i[:, None], j_idx, 1] - (y[l_i, None] + adv * sin[l_i, None])
    k, j = np.nonzero(dx * dx + dy * dy < (reach**2)[a_i, None])
    a_k = a_i[k]
    hit = boxes_overlap(
        dx[k, j], dy[k, j], head[l_i[k]], *ego_dims,
        f.headings[a_k], f.half_lengths[a_k], f.half_widths[a_k],
    )
    out[p_l[l_i[k[hit]]]] = 0.0
    return out


def _batch_comfort(speeds, heads, dt) -> np.ndarray:
    a_lon = np.diff(speeds, axis=1) / dt
    yaw_rate = normalize_angles(np.diff(heads, axis=1)) / dt
    a_lat = speeds[:, :-1] * yaw_rate
    # Jerk and yaw acceleration are 0 at the first step.
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


@dataclass(frozen=True, eq=False)
class Scores:
    """Score terms as (P,) columns over the proposal rows.

    Reads as a sequence of ScoreBreakdown: a record is built only when an
    entry is indexed or iterated.
    """

    c_col: np.ndarray
    c_ra: np.ndarray
    c_mp: np.ndarray
    c_ttc: np.ndarray
    c_dr: np.ndarray
    c_sp: np.ndarray
    c_ep: np.ndarray
    c_cf: np.ndarray
    goal_cost: np.ndarray
    aggregate: np.ndarray
    relaxed: bool = False

    def __len__(self):
        return len(self.aggregate)

    def __getitem__(self, i) -> ScoreBreakdown:
        return ScoreBreakdown(
            *(float(getattr(self, f.name)[i]) for f in fields(ScoreBreakdown)[:-1]), relaxed=self.relaxed
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def score_proposals(proposals: ProposalSet, ctx: ScoreContext) -> Scores:
    """Score every row of the set in one batch.

    Multiplicative terms: c_col (no footprint overlap with the forecast), c_ra
    (every footprint corner inside the drivable area) and c_mp (0 when the row
    gains less than min_progress along the route while a row that c_col and
    c_ra keep can). Objectives: c_ttc (forward projection clear), c_dr and c_sp
    (driving direction and speed limit of the row's own path, the route path
    for rows without one), c_ep (route gain over the best gain) and c_cf
    (nuPlan comfort bounds). goal_cost is the end point's distance to the goal.
    """
    n = len(proposals)
    steps = proposals.horizon_steps
    pos, heads, speeds = proposals.positions, proposals.headings, proposals.speeds
    f = ctx.forecast
    route = ctx.route_path
    if steps != f.steps:
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

    # Route progress for every proposal, in one projection call. Most rows
    # start at the ego pose, so each distinct start point is projected once
    # (keyed as x + iy; -0.0 and 0.0 merge, which leaves s unchanged).
    start = pos[:, 0, :]
    _, first, start_of_row = np.unique(start[:, 0] + 1j * start[:, 1], return_index=True, return_inverse=True)
    s_ends, _, _, _ = project_points_to_polyline(np.concatenate([start[first], pos[:, -1, :]]), route.segments)
    gains = s_ends[len(first):] - s_ends[start_of_row]

    ras_eff = np.maximum(ras, RELAX_FLOOR) if ctx.relax.active else ras
    feasible = (cols * ras_eff) > 0
    feasible_gain = float(gains[feasible].max()) if feasible.any() else 0.0
    max_gain = float(np.maximum(gains, 0.0).max()) if n else 0.0
    stall = gains < ctx.min_progress
    exempt = feasible_gain < ctx.min_progress
    mps = np.where(stall & ~exempt, 0.0, 1.0)

    c_ttcs = _batch_ttc(pos, heads, speeds, f, ctx.ego_dims, TTC_WINDOW)
    c_cfs = _batch_comfort(speeds, heads, proposals.dt)
    if max_gain <= 0:
        c_eps = np.ones(n)
    else:
        c_eps = np.minimum(1.0, np.maximum(gains, 0.0) / max_gain)

    # Speed and direction compliance against each row's own path; path index
    # -1 (an appended row) picks the route path, appended last. Rollouts carry
    # their arclength along their path; appended rows are projected.
    paths = proposals.paths + (route,)
    limits = np.array([p.speed_limit for p in paths])[proposals.path_index]
    c_sps = 1.0 - (speeds > (limits + SPEED_TOL)[:, None]).mean(axis=1)
    s = proposals.s_track
    appended = ~proposals.tracked
    if appended.any():
        s = s.copy()
        s_flat, _, _, _ = project_points_to_polyline(pos[appended].reshape(-1, 2), route.segments)
        s[appended] = s_flat.reshape(-1, steps + 1)
    opposing = np.empty((n, steps), dtype=bool)
    for j, path in enumerate(paths):
        rows = proposals.path_index == (j if j < len(proposals.paths) else -1)
        seg = np.searchsorted(path.s, s[rows, :-1], side="right") - 1
        opposing[rows] = path.opposing_mask[np.clip(seg, 0, len(path.opposing_mask) - 1)]
    ds = np.diff(s, axis=1)
    against = np.where(opposing, np.maximum(ds, 0.0), np.maximum(-ds, 0.0)).sum(axis=1)
    c_drs = np.where(against < DIR_EPS, 1.0, np.where(against < DIR_TOL, 0.5, 0.0))

    goal = ctx.scenario.goal
    goal_costs = np.hypot(pos[:, -1, 0] - goal.x, pos[:, -1, 1] - goal.y)
    objectives = (c_ttcs, c_drs, c_sps, c_eps, c_cfs)
    return Scores(
        cols, ras, mps, *objectives, goal_costs,
        aggregate(cols, ras, mps, objectives, goal_costs, ctx.weights, ctx.relax, ctx.goal_norm),
        relaxed=ctx.relax.active,
    )


def select_best(proposals: ProposalSet, ctx: ScoreContext) -> tuple:
    """(winning trajectory, Scores, winner's row). Deterministic argmax of aggregate.

    Ties break on tag priority (idm first), then lowest row, so the result is
    independent of input permutation given stable indices. Only the winner
    becomes a Trajectory.
    """
    if not len(proposals):
        raise ValueError("cannot select from an empty proposal set")
    scores = score_proposals(proposals, ctx)
    best = int(np.lexsort((np.arange(len(proposals)), proposals.tags, -scores.aggregate))[0])
    return proposals.trajectory(best), scores, best
