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

from .errors import number
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
        for f in fields(self):
            number(getattr(self, f.name), f"ScoreWeights.{f.name}", ValueError, at_least=0)
        if self.weighted_total <= 0:
            raise ValueError("at least one objective weight must be positive")

    @property
    def weighted_total(self) -> float:
        return self.w_ttc + self.w_dr + self.w_sp + self.w_ep + self.w_cf


@dataclass(frozen=True)
class RelaxationState:
    """Whether rule relaxation is on, and what triggered it.

    blocker_distance is None until the ego has been stopped for T_BLOCK: the
    blocker search runs only once relaxation can trigger.
    """

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
        # The fields in declaration order; dataclasses.asdict would deep-copy
        # each float, about 20x slower, on every logged proposal row.
        return dict(vars(self))


class WorldForecast:
    """Constant-velocity, constant-heading agent extrapolation over the horizon.

    radii holds each agent's circumradius, hypot(half_length, half_width),
    which the agent cull, the collision term and _batch_ttc read.
    """

    def __init__(self, agents, horizon_steps: int, dt: float):
        self.dt = dt
        self.steps = horizon_steps
        self.agents = tuple(agents)
        n = len(self.agents)
        t = np.arange(horizon_steps + 1) * dt
        pos0 = np.array([[a.pose.x, a.pose.y] for a in self.agents]).reshape(n, 2)
        heads = np.array([a.pose.heading for a in self.agents])
        speeds = np.array([0.0 if a.kind == "static" else a.speed for a in self.agents])
        trig = np.empty((2, n))
        np.cos(heads, out=trig[0])
        np.sin(heads, out=trig[1])
        vel = trig * speeds  # (2, A)
        self.planes = pos0.T[:, :, None] + vel[:, :, None] * t  # (2, A, S+1): x and y planes
        self.velocities = vel.T  # (A, 2)
        self.trig = trig  # (2, A): cos and sin of the headings
        self.half_lengths = np.array([a.half_length for a in self.agents])
        self.half_widths = np.array([a.half_width for a in self.agents])
        self.radii = np.hypot(self.half_lengths, self.half_widths)

    def __len__(self):
        return len(self.agents)


def forecast_agents(agents, horizon_steps: int, dt: float) -> WorldForecast:
    return WorldForecast(agents, horizon_steps, dt)


def detect_relaxation(stopped_ticks: int, agents, path: ProposalPath, dt: float, ego: EgoState) -> RelaxationState:
    """Relaxation triggers when the ego has idled behind a static blocker.

    stopped_ticks: the number of consecutive ticks, dt apart and up to the
    current one, with speed below STOPPED_SPEED. Active iff that run lasts at
    least T_BLOCK seconds and a stopped agent occupies the route corridor
    within D_BLOCK ahead of ego. The blocker is searched for only after
    T_BLOCK stopped; before that blocker_distance is None.
    """
    stopped_duration = stopped_ticks * dt
    if stopped_duration < T_BLOCK:
        return RelaxationState(stopped_duration=stopped_duration)
    blocker_distance = _blocker_distance(ego, agents, path)
    return RelaxationState(
        active=blocker_distance is not None,
        stopped_duration=stopped_duration,
        blocker_distance=blocker_distance,
    )


def _blocker_distance(ego: EgoState, agents, path: ProposalPath):
    """Bumper distance to the nearest stopped agent in the route corridor within D_BLOCK, or None."""
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
        if d <= D_BLOCK and (best is None or d < best):
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


def _agents_in_reach(f: WorldForecast, xy, speeds, ego_dims) -> WorldForecast:
    """The forecast less the agents whose box over their planes lies farther
    than hypot(ego_dims) + hypot(half extents) + BROAD_PHASE_SLACK, in x or in
    y, from the (2, P, S+1) samples' box widened on every side by (n_sub dt) *
    max(speeds), the farthest a TTC projection moves a sample. Kept agents keep
    their order; a NaN keeps an agent, and so does an empty set of rows."""
    if not len(f) or not xy.size:
        return f
    widen = int(TTC_WINDOW / f.dt) * f.dt * max(float(speeds.max()), 0.0)
    box = xy.reshape(2, -1)
    lo, hi = box.min(axis=1) - widen, box.max(axis=1) + widen
    gap = np.maximum(f.planes.min(axis=2) - hi[:, None], lo[:, None] - f.planes.max(axis=2))  # (2, A)
    far = gap > math.hypot(*ego_dims) + f.radii + BROAD_PHASE_SLACK
    (keep,) = (~(far[0] | far[1])).nonzero()
    if len(keep) == len(f):
        return f
    sub = object.__new__(WorldForecast)
    sub.dt, sub.steps, sub.agents = f.dt, f.steps, tuple(f.agents[i] for i in keep.tolist())
    sub.planes, sub.trig, sub.velocities = f.planes.take(keep, axis=1), f.trig.take(keep, axis=1), f.velocities[keep]
    sub.half_lengths, sub.half_widths = f.half_lengths.take(keep), f.half_widths.take(keep)
    sub.radii = f.radii.take(keep)
    return sub


def _batch_ttc(xy, cs, speeds, f: WorldForecast, ego_dims, window: float) -> np.ndarray:
    """Forward-projection clearance flag per proposal (1 = clear).

    xy and cs are the samples' positions and their headings' cos and sin as
    (2, P, S+1) planes. Each live sample i (speed > 0.05 m/s) is projected
    along its heading at sub-steps tau = dt .. J dt and checked against the
    forecast at step i + j, clamped to the horizon. Broad phase: per (agent,
    live sample) pair, the ego's projected centres lie on a segment, and so
    do the agent's forecast centres over its clamped steps; each segment lies
    in the circle around its midpoint. Only pairs whose circles come within
    reach pass. Slab: a passing pair is dropped when the midpoint gap's
    component along the sample's left normal n = (-sin, cos) exceeds
    hw_ego + hl_a |sin D| + hw_a |cos D| + |v_a . n| t_half + BROAD_PHASE_SLACK,
    D the agent's heading relative to the sample's (|sin D| and |cos D| are
    boxes_overlap's s and c). The cut is exact: the projection moves the ego
    only along its own heading, so every projected centre of the pair has
    the midpoint's offset along n; over its clamped steps the agent's centre
    moves along n by at most |v_a . n| t_half from its midpoint; so past the
    bound every sub-step's centre offset along n exceeds boxes_overlap's
    bound on its second axis, the ego's width axis, which separates the
    boxes. The slack covers CONTACT_TOL and rounding, as for the circles.
    The kept pairs get the (J, pairs) centre-distance grid, pairs along its
    inner axis, and only centres within reach get the box test; when a stage
    leaves no pair, every flag is 1 and the function returns. x and y go
    through each stage as one stacked array, and every stage reads its
    inputs by flat index with take, at a fraction of a fancy index's cost.
    score_proposals passes only the agents of _agents_in_reach; one it drops
    has no projected centre within reach, so the flags are the full forecast's.
    """
    out = np.ones(len(speeds))
    n_sub = int(window / f.dt)
    if len(f) == 0 or n_sub < 1:
        return out
    width = speeds.shape[1]
    live = (speeds > 0.05).reshape(-1).nonzero()[0]  # (L,) flat (row, sample) index
    s_l = live % width
    v = speeds.reshape(-1).take(live)
    live_xy = xy.reshape(2, -1).take(live, axis=1)  # (2, L)
    live_cs = cs.reshape(2, -1).take(live, axis=1)
    taus = np.arange(1, n_sub + 1) * f.dt  # (J,)
    reach = math.hypot(*ego_dims) + f.radii  # (A,)

    tau_mid, tau_half = 0.5 * (taus[0] + taus[-1]), 0.5 * (taus[-1] - taus[0])
    j0, j1 = np.minimum(s_l + 1, f.steps), np.minimum(s_l + n_sub, f.steps)
    t_mid, t_half = 0.5 * (j0 + j1) * f.dt, 0.5 * (j1 - j0) * f.dt  # (L,)
    gap = f.planes[:, :, :1] + f.velocities.T[:, :, None] * t_mid - (live_xy + v * tau_mid * live_cs)[:, None]
    gap2 = gap * gap  # (2, A, L); the slab reads the signed gap
    bound = (
        reach[:, None] + v * tau_half + np.hypot(*f.velocities.T)[:, None] * t_half + BROAD_PHASE_SLACK
    )
    pair = (gap2[0] + gap2[1] <= bound * bound).reshape(-1).nonzero()[0]  # flat (agent, live sample)
    if not len(pair):
        return out
    a_i = pair // len(live)
    l_i = pair - a_i * len(live)
    pair_cs = live_cs.take(l_i, axis=1)  # (2, pairs)

    # Slab: rows (agent cos, sin), (velocity) and (midpoint gap), each crossed with the sample's heading.
    w = np.empty((3, 2, len(pair)))
    f.trig.take(a_i, axis=1, out=w[0], mode="clip")
    f.velocities.T.take(a_i, axis=1, out=w[1], mode="clip")
    gap.reshape(2, -1).take(pair, axis=1, out=w[2], mode="clip")
    across = np.abs(w[:, 1] * pair_cs[0] - w[:, 0] * pair_cs[1])  # (3, pairs): |sin D|, |v_a . n|, |gap . n|
    c = np.abs(w[0, 0] * pair_cs[0] + w[0, 1] * pair_cs[1])  # |cos D|
    slab = f.half_lengths.take(a_i) * across[0] + f.half_widths.take(a_i) * c + across[1] * t_half.take(l_i)
    slab += ego_dims[1] + BROAD_PHASE_SLACK
    (kept,) = (across[2] <= slab).nonzero()
    if not len(kept):
        return out
    a_i, l_i, pair_cs = a_i.take(kept), l_i.take(kept), pair_cs.take(kept, axis=1)

    adv = taus[:, None] * v.take(l_i)  # (J, pairs)
    j_idx = np.minimum(s_l.take(l_i) + np.arange(1, n_sub + 1)[:, None], f.steps)
    pair_xy = live_xy.take(l_i, axis=1)[:, None]  # (2, 1, pairs)
    d = f.planes.reshape(2, -1).take(a_i * (f.steps + 1) + j_idx, axis=1) - (pair_xy + adv * pair_cs[:, None])
    d2 = d * d  # (2, J, pairs)
    near = (d2[0] + d2[1] < (reach * reach).take(a_i)).reshape(-1).nonzero()[0]  # flat (sub-step, pair)
    if not len(near):
        return out
    k = near % len(kept)
    a_k = a_i.take(k)
    dk = d.reshape(2, -1).take(near, axis=1)
    ego_cs = pair_cs.take(k, axis=1)
    agent_cs = f.trig.take(a_k, axis=1)
    hit = boxes_overlap(
        dk[0], dk[1], ego_cs[0], ego_cs[1], *ego_dims,
        agent_cs[0], agent_cs[1], f.half_lengths.take(a_k), f.half_widths.take(a_k),
    )
    out[live.take(l_i.take(k[hit])) // width] = 0.0
    return out


# The |x| <= bound tests of the comfort term: yaw rate, jerk, yaw acceleration
# and lateral acceleration, in the order _batch_comfort stacks them.
_COMFORT_ABS_BOUNDS = np.array([COMFORT_YAW_RATE, COMFORT_JERK, COMFORT_YAW_ACCEL, COMFORT_LAT_ACCEL])[:, None, None]


def _batch_comfort(speeds, heads, dt) -> np.ndarray:
    """Share of each row's steps inside the nuPlan comfort bounds.

    The step quantities are stacked in one buffer: longitudinal acceleration
    and yaw rate, then jerk and yaw acceleration (their differences, taken in
    one call on the flattened pair, each row's first step then set to 0),
    then lateral acceleration. The four |x| <= bound tests are one stacked
    comparison.
    """
    q = np.empty((5, len(speeds), speeds.shape[1] - 1))
    a_lon, yaw_rate, _, _, a_lat = q
    np.subtract(speeds[:, 1:], speeds[:, :-1], out=a_lon)
    a_lon /= dt
    np.divide(normalize_angles(heads[:, 1:] - heads[:, :-1]), dt, out=yaw_rate)
    np.multiply(speeds[:, :-1], yaw_rate, out=a_lat)
    rates, accel = q[:2].reshape(2, -1), q[2:4].reshape(2, -1)
    np.subtract(rates[:, 1:], rates[:, :-1], out=accel[:, 1:])
    accel[:, 1:] /= dt
    q[2:4, :, 0] = 0.0  # jerk and yaw acceleration are 0 at the first step
    dev = q[1:]
    np.absolute(dev, out=dev)
    ok = np.logical_and.reduce(dev <= _COMFORT_ABS_BOUNDS, axis=0)
    ok &= a_lon <= COMFORT_ACCEL_MAX
    ok &= a_lon >= -COMFORT_DECEL_MAX
    return ok.mean(axis=1)


def _batch_direction(s, path_index, paths) -> np.ndarray:
    """Driving-direction credit per row from its arclengths s (P, S+1) along
    paths[path_index], path index -1 taking the last path: 1 below DIR_EPS m
    of travel against the lane direction, 0.5 below DIR_TOL m, else 0. A
    path with no opposing flag needs no segment lookup: its rows run with
    the lane at every step."""
    opposing = np.zeros((len(s), s.shape[1] - 1), dtype=bool)
    for j in set(path_index.tolist()):
        path = paths[j]
        if not np.count_nonzero(path.opposing_mask):
            continue
        rows = path_index == j
        seg = path.s.searchsorted(s[rows, :-1], side="right") - 1
        opposing[rows] = path.opposing_mask[np.minimum(np.maximum(seg, 0), len(path.opposing_mask) - 1)]
    ds = s[:, 1:] - s[:, :-1]
    against = np.where(opposing, np.maximum(ds, 0.0), np.maximum(-ds, 0.0)).sum(axis=1)
    return np.where(against < DIR_EPS, 1.0, np.where(against < DIR_TOL, 0.5, 0.0))


# ScoreBreakdown's score fields in declaration order (all but relaxed).
_TERMS = tuple(f.name for f in fields(ScoreBreakdown)[:-1])
# The columns an appended row's pending direction term leaves open.
_LAZY = ("c_dr", "aggregate")
_C_DR, _AGGREGATE = (_TERMS.index(name) for name in _LAZY)


class _PendingDirection:
    """The direction credit c_dr of the appended rows, taken when it is read.

    An appended row carries no arclength of its own, so its c_dr needs its
    samples 1..S-1 projected onto the route; samples 0 and S are the row's
    start and end entries of the gains batch. Until resolve takes a row, the
    columns hold its c_dr as 0 and its aggregate at c_dr = 0, a lower bound.
    The arrays read here are captured when the rows are scored, not the
    ProposalSet, whose append rebinds its arrays.
    """

    def __init__(self, mask, columns, pos, s_start, s_end, ctx: ScoreContext):
        self.mask = mask  # (P,) rows still pending
        self.columns = columns  # Scores' columns in _TERMS order; resolve writes c_dr and aggregate
        self.pos, self.s_start, self.s_end = pos, s_start, s_end
        self.route, self.weights, self.relax, self.goal_norm = ctx.route_path, ctx.weights, ctx.relax, ctx.goal_norm

    def aggregate(self, rows, c_dr):
        """The aggregate of rows (indices) at direction credit c_dr."""
        c_col, c_ra, c_mp, c_ttc, _, c_sp, c_ep, c_cf, goal_cost, _ = (c.take(rows) for c in self.columns)
        return aggregate(
            c_col, c_ra, c_mp, (c_ttc, c_dr, c_sp, c_ep, c_cf), goal_cost, self.weights, self.relax, self.goal_norm
        )

    def resolve(self, rows) -> None:
        """Write the exact c_dr and aggregate of pending rows (indices) into
        the columns, their inner samples projected onto the route in one batch."""
        m, width = len(rows), self.pos.shape[1]
        s = np.empty((m, width))
        s[:, 0] = self.s_start.take(rows)
        s[:, -1] = self.s_end.take(rows)
        inner = self.pos[rows, 1:-1].reshape(-1, 2)
        s[:, 1:-1] = project_points_to_polyline(inner, self.route.segments)[0].reshape(m, width - 2)
        c_dr = _batch_direction(s, np.zeros(m, dtype=np.intp), (self.route,))
        self.columns[_C_DR][rows] = c_dr
        self.columns[_AGGREGATE][rows] = self.aggregate(rows, c_dr)
        self.mask[rows] = False


class Scores:
    """Score terms as (P,) columns over the proposal rows, one attribute per
    ScoreBreakdown field.

    Reads as a sequence of ScoreBreakdown: a record is built only when an
    entry is indexed or iterated.

    The appended rows' c_dr and aggregate are pending (_PendingDirection)
    until read: indexing takes the indexed row's, and reading the c_dr or
    aggregate column, or iterating, takes every pending row's in one batch.
    Either way a value has the bits an eager scorer gives it.
    """

    def __init__(self, *columns, relaxed: bool = False, pending: _PendingDirection | None = None):
        self._columns = columns
        self._pending = pending
        self.relaxed = relaxed
        for name, column in zip(_TERMS, columns):
            if pending is None or name not in _LAZY:
                setattr(self, name, column)

    def __getattr__(self, name):
        # Reached only for c_dr and aggregate, and only while rows are pending.
        if name not in _LAZY:
            raise AttributeError(name)
        self._resolve_all()
        return self.__dict__[name]

    def _resolve_all(self) -> None:
        """Take every pending row's direction term in one batch, then hold
        the finished c_dr and aggregate columns as plain attributes."""
        pending = self._pending
        if pending is None:
            return
        (rows,) = pending.mask.nonzero()
        if len(rows):
            pending.resolve(rows)
        self._pending = None
        self.c_dr, self.aggregate = self._columns[_C_DR], self._columns[_AGGREGATE]

    def __len__(self):
        return len(self.c_col)

    def __getitem__(self, i) -> ScoreBreakdown:
        pending = self._pending
        if pending is not None and pending.mask[i]:
            pending.resolve([i % len(self)])
        return ScoreBreakdown(*(float(column[i]) for column in self._columns), relaxed=self.relaxed)

    def __iter__(self):
        self._resolve_all()
        return (self[i] for i in range(len(self)))


def _route_arclengths(pos, route: ProposalPath) -> tuple:
    """Route arclengths of each row's start and end sample, (P,) each, from
    one project_points_to_polyline call.

    The batch holds the rows' shared start once when every row starts at one
    point (in practice the ego pose), else every row's start, then every
    row's end point. A point's projection does not depend on the rest of the
    batch.
    """
    n = len(pos)
    start = pos[:, 0, :]
    if n and (start == start[0]).all():
        start, start_of_row = start[:1], np.zeros(n, dtype=np.intp)
    else:
        start_of_row = np.arange(n)
    s_route = project_points_to_polyline(np.concatenate([start, pos[:, -1, :]]), route.segments)[0]
    return s_route.take(start_of_row), s_route[len(start) :]


def score_proposals(proposals: ProposalSet, ctx: ScoreContext) -> Scores:
    """Score every row of the set in one batch.

    Multiplicative terms: c_col (no footprint overlap with the forecast), c_ra
    (every footprint corner inside the drivable area, tested against the
    scenario's drivable_boxes, built once per scenario) and c_mp (0 when the row
    gains less than min_progress along the route while a row that c_col and
    c_ra keep can). Objectives: c_ttc (forward projection clear), c_dr and c_sp
    (driving direction and speed limit of the row's own path, the route path
    for rows without one), c_ep (route gain over the best gain) and c_cf
    (nuPlan comfort bounds). goal_cost is the end point's distance to the goal.

    The samples are read once as one contiguous copy of their (x, y)
    planes, (2, P, S+1), and their headings' cos and sin are taken once as
    two more planes. The collision term takes the (agent, row, sample)
    offsets in x and y from one subtraction against the forecast's planes,
    and its box test reads the trig planes (and the forecast's) by flat
    index; the drivable-area term lays the footprint corners out
    corner-first, (4, P, S+1) per plane; _batch_ttc reads both planes by
    flat index and runs its sub-step grid as (J, pairs) on stacked x/y; and
    _batch_comfort makes its four |x| <= bound tests one comparison.

    The route is projected once per call (_route_arclengths), and only the
    arclengths are read: the row starts and every row's end point give the
    gains. An appended row's direction term also needs its
    samples 1..S-1 on the route (rollout rows carry their own arclength), so
    it is left pending (Scores, _PendingDirection): its c_dr and aggregate
    are taken when read, and select_best takes only the rows that can win.
    The collision and TTC terms see only the agents of _agents_in_reach: its
    box holds every sample and projected centre (the rounding is monotone,
    |cos|, |sin| <= 1), so a dropped agent has no centre within reach in
    either term, and kept agents keep their order and arithmetic. The
    collision term skips its box test when no (row, agent, sample) centre
    pair is within reach, as _batch_ttc does. _batch_ttc also drops the
    (agent, live sample) pairs outside the slab along the sample's left
    normal that the ego's width axis separates at every sub-step (see its
    docstring); all are exact.
    Of the rollout rows, the direction term runs only on those on a path
    with an opposing flag. A rollout row's arclength never decreases (the
    rollout's speed is never negative), so every other one's credit is
    exactly 1.
    """
    n = len(proposals)
    steps = proposals.horizon_steps
    pos, heads, speeds = proposals.positions, proposals.headings, proposals.speeds
    xy = pos.transpose(2, 0, 1).copy()  # (2, P, S+1)
    cs = np.empty(xy.shape)  # cos and sin of the headings
    np.cos(heads, out=cs[0])
    np.sin(heads, out=cs[1])
    f = ctx.forecast
    route = ctx.route_path
    if steps != f.steps:
        raise ValueError("trajectory and forecast horizons differ")
    f = _agents_in_reach(f, xy, speeds, ctx.ego_dims)

    # Multiplicative terms; collision pairs prefiltered by center distance.
    cols = np.ones(n)
    if len(f):
        samples = n * (steps + 1)
        reach = math.hypot(*ctx.ego_dims) + f.radii  # (A,)
        d = f.planes[:, :, None] - xy[:, None]  # (2, A, P, S+1)
        d2 = d * d
        near = (d2[0] + d2[1] < (reach * reach)[:, None, None]).reshape(-1).nonzero()[0]  # flat (agent, row, sample)
        if len(near):
            a_i = near // samples
            sample = near - a_i * samples  # flat (row, sample)
            dk = d.reshape(2, -1).take(near, axis=1)
            ego_cs = cs.reshape(2, -1).take(sample, axis=1)
            agent_cs = f.trig.take(a_i, axis=1)
            hit = boxes_overlap(
                dk[0], dk[1], ego_cs[0], ego_cs[1], *ctx.ego_dims,
                agent_cs[0], agent_cs[1], f.half_lengths.take(a_i), f.half_widths.take(a_i),
            )
            cols[sample[hit] // (steps + 1)] = 0.0
    wx, wy = rect_corners_batch(xy, cs, *ctx.ego_dims)  # each (4, P, S+1)
    inside = points_in_polygons(wx, wy, ctx.scenario.drivable_area, ctx.scenario.drivable_boxes)
    ras = np.logical_and.reduce(inside, axis=(0, 2)).astype(float)

    s_start, s_end = _route_arclengths(pos, route)
    gains = s_end - s_start

    ras_eff = np.maximum(ras, RELAX_FLOOR) if ctx.relax.active else ras
    feasible = (cols * ras_eff) > 0
    feasible_gain = float(gains[feasible].max()) if feasible.any() else 0.0
    max_gain = float(np.maximum(gains, 0.0).max()) if n else 0.0
    # No row stalls when no feasible row makes the minimum progress.
    mps = np.ones(n) if feasible_gain < ctx.min_progress else np.where(gains < ctx.min_progress, 0.0, 1.0)

    c_ttcs = _batch_ttc(xy, cs, speeds, f, ctx.ego_dims, TTC_WINDOW)
    c_cfs = _batch_comfort(speeds, heads, proposals.dt)
    if max_gain <= 0:
        c_eps = np.ones(n)
    else:
        c_eps = np.minimum(1.0, np.maximum(gains, 0.0) / max_gain)

    # Speed and direction compliance against each row's own path; path index
    # -1 (an appended row) picks the route path, appended last. Rollouts carry
    # their arclength along their path; appended rows' c_dr is pending, 0
    # until resolved.
    paths = proposals.paths + (route,)
    limits = np.array([p.speed_limit for p in paths])[proposals.path_index]
    c_sps = 1.0 - (speeds > (limits + SPEED_TOL)[:, None]).mean(axis=1)
    may_oppose = np.array([np.count_nonzero(p.opposing_mask) > 0 for p in proposals.paths] + [False])
    (rows,) = may_oppose[proposals.path_index].nonzero()
    c_drs = np.ones(n)
    if len(rows):
        c_drs[rows] = _batch_direction(proposals.s_track[rows], proposals.path_index[rows], paths)
    appended = ~proposals.tracked
    (rows,) = appended.nonzero()
    c_drs[rows] = 0.0

    goal = ctx.scenario.goal
    goal_costs = np.hypot(xy[0, :, -1] - goal.x, xy[1, :, -1] - goal.y)
    objectives = (c_ttcs, c_drs, c_sps, c_eps, c_cfs)
    columns = (
        cols, ras, mps, *objectives, goal_costs,
        aggregate(cols, ras, mps, objectives, goal_costs, ctx.weights, ctx.relax, ctx.goal_norm),
    )
    pending = _PendingDirection(appended, columns, pos, s_start, s_end, ctx) if len(rows) else None
    return Scores(*columns, relaxed=ctx.relax.active, pending=pending)


def select_best(proposals: ProposalSet, ctx: ScoreContext) -> tuple:
    """(winning trajectory, Scores, winner's row). Deterministic argmax of aggregate.

    Ties break on tag priority (idm first), then lowest row, so the result is
    independent of input permutation given stable indices. Only the winner
    becomes a Trajectory.

    Only the pending rows that can win get their direction term. A pending
    row's aggregate lies between its values at c_dr = 0 and c_dr = 1, under
    rounding too: every step from c_dr to the aggregate is non-decreasing
    (w_dr >= 0, P >= 0, a division by a positive weight total, the relax
    floor a maximum). T is the first key (-aggregate, tag, row) with each
    pending row at its lower bound; the winner's key sorts at or before it.
    A pending row whose key at its upper bound sorts after T cannot win and
    stays pending; the others, and any with a NaN bound, are resolved. Every
    row left pending then sorts after T at its lower bound too, so the
    lexsort picks the winner the exact aggregate gives.
    """
    if not len(proposals):
        raise ValueError("cannot select from an empty proposal set")
    scores = score_proposals(proposals, ctx)
    keys = (np.arange(len(proposals)), proposals.tags)
    lower = scores._columns[_AGGREGATE]  # exact, or a pending row's lower bound
    best = int(np.lexsort(keys + (-lower,))[0])
    pending = scores._pending
    if pending is not None:
        (rows,) = pending.mask.nonzero()
        upper, first = pending.aggregate(rows, 1.0), lower[best]
        tags, tag = proposals.tags.take(rows), proposals.tags[best]
        can_win = (upper > first) | ((upper == first) & ((tags < tag) | ((tags == tag) & (rows <= best))))
        can_win |= np.isnan(upper) | np.isnan(lower.take(rows))
        if np.count_nonzero(can_win):
            pending.resolve(rows[can_win])
            best = int(np.lexsort(keys + (-lower,))[0])
    return proposals.trajectory(best), scores, best
