"""Candidate trajectory generation: IDM longitudinal rollouts along each
proposal path, crossed with lateral offsets and reference-speed fractions.

Rollouts react per step to the nearest blocking agent in the ego's own lateral
band, so a lane-change rollout brakes while still behind a blocker and
accelerates once the blend carries it clear. Proposals that plan around a
blocker may creep toward it at low speed; the scorer's collision check remains
the safety authority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import HorizonMismatchError, number
from .geometry import project_points_to_polyline
from .scene import TRAJECTORY_TAGS, EgoState, Trajectory, segment_headings_and_speeds, trajectory_from_arrays
from .topology import ProposalPath

B_HARD = 6.0  # m/s^2, hard braking clamp
MAX_OFFSET = 3.0  # m
LATERAL_RATE = 0.75  # m/s, lateral blend rate cap
LATERAL_SPEED_RATIO = 0.5  # blend rate also capped at this fraction of speed,
# keeping references trackable by a bicycle (~26 deg relative heading)
CORRIDOR_HALF_WIDTH = 2.0  # m, lead-agent lateral band (widened per agent size)
CORRIDOR_MARGIN = 0.3  # m, extra clearance beyond summed half widths
CREEP_SPEED = 1.0  # m/s, approach cap while maneuvering around a lead
CREEP_MIN_GAP = 1.2  # m, bumper gap floor while creeping
MIN_DT = 0.01  # s, smallest sampling step: the scorer's TTC grid has TTC_WINDOW / dt
# sub-steps per step (95 at this floor) over horizon / dt steps, so it grows as 1 / dt**2


@dataclass(frozen=True)
class IdmParams:
    v0: float = 10.0  # reference speed, m/s
    T_h: float = 2.0  # time headway, s; settles at the jam distance without undershoot
    s0: float = 3.5  # jam distance, m; generous so a stopped ego keeps swing room
    a_max: float = 1.5  # m/s^2
    b_comf: float = 2.0  # m/s^2
    delta: float = 4.0

    def __post_init__(self):
        for name in ("v0", "T_h", "s0", "a_max", "b_comf", "delta"):
            number(getattr(self, name), f"IdmParams.{name}", ValueError, above=0)


@dataclass(frozen=True)
class ProposalConfig:
    offsets: tuple = (-1.0, 0.0, 1.0)  # m
    speed_fractions: tuple = (0.2, 0.4, 0.6, 0.8, 1.0)  # of lane speed limit
    horizon: float = 4.0  # s
    dt: float = 0.1  # s

    def __post_init__(self):
        if 0.0 not in self.offsets:
            raise ValueError("ProposalConfig.offsets must contain 0 (the centerline)")
        for i, o in enumerate(self.offsets):
            number(o, f"ProposalConfig.offsets[{i}]", ValueError, at_least=-MAX_OFFSET, at_most=MAX_OFFSET)
        if not self.speed_fractions:
            raise ValueError("ProposalConfig.speed_fractions must not be empty")
        for i, f in enumerate(self.speed_fractions):
            number(f, f"ProposalConfig.speed_fractions[{i}]", ValueError, above=0, at_most=1)
        number(self.horizon, "ProposalConfig.horizon", ValueError, above=0)
        number(self.dt, "ProposalConfig.dt", ValueError, at_least=MIN_DT)
        steps = self.horizon / self.dt
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9:
            raise ValueError("ProposalConfig.horizon must be a multiple of dt")

    @property
    def horizon_steps(self) -> int:
        return int(round(self.horizon / self.dt))


class Proposal(NamedTuple):
    """One row of a ProposalSet, read back for logs; s_track is None off a rollout."""

    index: int
    tag: str
    path_index: int
    offset: float
    speed_fraction: float
    s_track: np.ndarray | None


@dataclass(eq=False)
class ProposalSet:
    """Candidate trajectories as columns, one row per proposal.

    Rows from generate_proposals come first, in its product order, and carry
    their path (path_index into paths) and rollout arclength s_track. Rows
    added by append (vocabulary and learned plans) have path_index
    -1, offset and fraction 0 and a NaN s_track. A row's index is its position.

    Per path, the set also carries what the rollout computed at the ego:
    ego_projection holds the ego's projection onto the path (arclength,
    signed lateral and the heading of the segment under the foot point, the
    values project_onto_path reads), and path_centres the path's centre
    point at that arclength (points_at). The planner reads the features'
    route projection and the replan root gap from them.
    """

    dt: float
    positions: np.ndarray  # (P, S+1, 2)
    headings: np.ndarray  # (P, S+1)
    speeds: np.ndarray  # (P, S+1)
    s_track: np.ndarray  # (P, S+1) arclength along the row's own path
    path_index: np.ndarray  # (P,) int
    offsets: np.ndarray  # (P,)
    fractions: np.ndarray  # (P,)
    tags: np.ndarray  # (P,) int codes into TRAJECTORY_TAGS
    paths: tuple = ()
    ego_projection: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))  # (paths, 3): s, lateral, heading
    path_centres: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))  # (paths, 2)

    @classmethod
    def empty(cls, dt: float, horizon_steps: int) -> "ProposalSet":
        n = horizon_steps + 1
        z = np.zeros((0, n))
        return cls(dt, np.zeros((0, n, 2)), z, z, z, np.zeros(0, int), np.zeros(0), np.zeros(0), np.zeros(0, int))

    @property
    def horizon_steps(self) -> int:
        return self.positions.shape[1] - 1

    @property
    def tracked(self) -> np.ndarray:
        """Row mask: rows with a path and a rollout arclength."""
        return self.path_index >= 0

    def __len__(self):
        return len(self.positions)

    def __getitem__(self, i) -> Proposal:
        j = int(self.path_index[i])
        return Proposal(
            i, TRAJECTORY_TAGS[self.tags[i]], j, float(self.offsets[i]), float(self.fractions[i]),
            self.s_track[i] if j >= 0 else None,
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def path(self, i):
        """The row's ProposalPath, or None for an appended row."""
        j = self.path_index[i]
        return self.paths[j] if j >= 0 else None

    def trajectory(self, i) -> Trajectory:
        """Row i as a Trajectory (copies of its arrays)."""
        return trajectory_from_arrays(
            self.dt, self.positions[i].copy(), self.headings[i].copy(), self.speeds[i].copy(),
            TRAJECTORY_TAGS[self.tags[i]],
        )

    def append(self, dt: float, positions, headings, speeds, tags) -> None:
        """Append rows without a path: positions (m, S+1, 2), headings and
        speeds (m, S+1), and one tag name per row. Raises HorizonMismatchError
        when dt or S differs from the set's."""
        steps = positions.shape[1] - 1
        if not abs(dt - self.dt) <= 1e-12 or steps != self.horizon_steps:  # a NaN dt fails too
            raise HorizonMismatchError(
                f"trajectory has dt={dt}, steps={steps}; set expects dt={self.dt}, steps={self.horizon_steps}"
            )
        n = len(positions)
        self.positions = np.concatenate([self.positions, positions])
        self.headings = np.concatenate([self.headings, headings])
        self.speeds = np.concatenate([self.speeds, speeds])
        self.s_track = np.concatenate([self.s_track, np.full((n, self.s_track.shape[1]), np.nan)])
        self.path_index = np.concatenate([self.path_index, np.full(n, -1)])
        self.offsets = np.concatenate([self.offsets, np.zeros(n)])
        self.fractions = np.concatenate([self.fractions, np.zeros(n)])
        self.tags = np.concatenate([self.tags, [TRAJECTORY_TAGS.index(t) for t in tags]])


def idm_accel(v, v_lead, gap, p: IdmParams, v0=None):
    """Intelligent-driver-model acceleration, clamped to [-B_HARD, a_max].

    Elementwise over arrays; gap may be inf for free flow. v0 (default p.v0)
    may be an array, one reference speed per vehicle. The dynamic part of the
    desired gap is floored at zero so the response stays monotone in v and
    gap.
    """
    s_star = p.s0 + np.maximum(0.0, v * p.T_h + v * (v - v_lead) / (2.0 * math.sqrt(p.a_max * p.b_comf)))
    q = s_star / gap  # 0 in free flow
    a = p.a_max * (1.0 - (v / (p.v0 if v0 is None else v0)) ** p.delta - q * q)
    return np.minimum(np.maximum(a, -B_HARD), p.a_max)


# The ufuncs of _step_kernel's loop, bound once: a module attribute lookup
# per call is a measurable share of a call on arrays this small.
_add, _subtract, _multiply, _divide, _power = np.add, np.subtract, np.multiply, np.divide, np.power
_absolute, _negative, _maximum, _minimum = np.absolute, np.negative, np.maximum, np.minimum
_less_equal, _greater_equal, _greater, _bitwise_or = np.less_equal, np.greater_equal, np.greater, np.bitwise_or


def _step_kernel(
    start, speed, targets, v0, p: IdmParams, a_rows, a_band, a_hlen, path_len, terminus, ego_half_length, dt, steps
):
    """IDM + lateral-blend integration, one array update per step for all rows.

    Per step and row: pick the nearest agent ahead whose lateral band covers
    the current blend position (the first such agent on equal gaps); follow it
    with IDM, or creep past it when the proposal's target offset clears the
    band; brake for the path terminus.

    The n rows start at start, (2, n) (s, l), all at the ego's speed, and row
    i drives toward lateral targets[i] at reference speed v0[i]; the other
    IDM parameters come from p. a_rows holds the A agents' (3, n, A)
    arclength, lateral and longitudinal speed on each row's path, a_band and
    a_hlen their (A,) lateral bands and half lengths. Returns the (S+1, n)
    arclength and lateral histories, views of one buffer allocated here; no
    argument is written.

    On arrays this small a ufunc call costs mostly its own overhead, and a
    call that broadcasts an (n, 1) operand against (n, A) costs about twice a
    same-shape one. So the loop makes as few calls as the arithmetic allows:
    every constant is an (n,) or (n, A) array (a Python-float operand costs
    more per call), every result lands in a buffer allocated here, whatever
    does not depend on (s, l, v) is computed before the loop, quantities that
    take the same operation share one call as rows of a stacked buffer, and
    the row state reaches its (row, column) pairs by one flat take.

    Lead columns: the A agents (_rollout_rows passes only those that can
    lead some row, see its docstring for why the result is the same to the
    bit), then, when any row's path ends at a terminus,
    the path end as one more column: at path_len with half length 0, speed 0,
    an infinite band and no bypass. Its gap ((path_len - s) - 0) - ehl has the
    bits of the terminus gap (path_len - s) - ehl. Its lead test value stands
    in for s_ak: +inf on terminus rows and -inf on the others, so it leads
    exactly the terminus rows, also past the path end. argmin takes the first
    of equal gaps, so an agent wins a tie with the path end, as the strict
    "terminus gap < agent gap" of the elementwise form does.

    The loop calls the ufuncs through the module-level names bound above
    (_add, _subtract, ...), not through the numpy namespace, and passes the
    output buffer positionally, which costs less per call than out=. The
    exceptions are _maximum and _minimum, which keep out=: numpy 2.4
    deprecates a third positional argument to np.maximum and np.minimum, and
    the tests turn that DeprecationWarning into an error.

    Each step's row views come from one zip over the history and per-step
    buffers, made before the loop: the same memory as an index per step.

    Three calls of the elementwise form are left out, their result known
    before they run, given v >= 0 (the ego's speed, then max(0, v + a dt))
    and v0, delta and a_max > 0:
    - min(a, a_max), on every step: r = (v / v0) ** delta >= 0 and q * q
      >= 0, so y = fl(fl(1 - r) - q * q) <= 1 and, rounding being
      monotone, fl(a_max * y) <= a_max. The creep value is bounded the same
      way, and so are max(a, a_creep) and max(a, -B_HARD). A NaN passes
      min unchanged.
    - v - v_lead and max(0, s_star), on a lead-free step: v_lead is 0 on
      every row (lead_gap is never written there), and v - 0 is v, also for
      -0.0; v * T_h + v * v / brake_scale is then a sum of terms >= 0 (v =
      -0.0 gives -0.0 + +0.0 = +0.0), which max(0, .) returns unchanged.
      With agents a lead can be faster than the row, so both calls stay.

    Every other value is computed by the same operations in the same order
    as in the elementwise form, so the result is the same to the bit.
    """
    a_s, a_lat, a_vlon = a_rows
    n, n_agents = a_s.shape
    # The IDM parameters are (n,) columns too: a scalar exponent of 2 or 0.5
    # rounds differently from a column of them.
    eps, gap_floor, zero, one, neg_b_hard, lat_rate, lat_ratio, creep_floor, ehl, T_h, s0, a_max, brake_scale, delta = (
        np.array(
            [[1e-9], [0.05], [0.0], [1.0], [-B_HARD], [LATERAL_RATE], [LATERAL_SPEED_RATIO], [CREEP_MIN_GAP],
             [ego_half_length], [p.T_h], [p.s0], [p.a_max], [2.0 * math.sqrt(p.a_max * p.b_comf)], [p.delta]]
        ).repeat(n, axis=1)
    )
    any_terminus = bool(terminus.any())

    # Stacked buffers, one row per quantity:
    #   sl[k] = (s, l, s + 1e-9) at step k, the last row written by step k
    #   and only with agents;
    #   state = (a, rate, v, s_star) and incr = (a dt, rate dt, v dt, dl):
    #   incr[:3] = state[:3] * dt, and sl[k + 1, :2] = sl[k, :2] + incr[2:];
    #   ratio = state[2:] / (v0, gap) = (v / v0, s_star / gap), or
    #   state[2:] / (creep_v0, creep_gap) on the creep branch;
    #   lead_gap = (gap before its floor, v_lead) of the chosen lead.
    sl = np.empty((steps + 1, 3, n))
    sl[0, :2] = start
    sl_flat, s_l, s_eps = sl.reshape(steps + 1, -1), sl[:, :2], sl[:, 2]
    state = np.zeros((4, n))
    a, rate, v_now, s_star = state
    v_now[:] = speed
    incr = np.empty((4, n))
    a_dt, rate_dt, _, dl = incr
    a_rate_v, v_s_star, scaled, ds_dl = state[:3], state[2:], incr[:3], incr[2:]
    dts = np.full((3, n), dt)
    den, den_creep = np.zeros((2, 2, n))
    den[0] = v0
    _minimum(v0, CREEP_SPEED, out=den_creep[0])
    gap, creep_gap = den[1], den_creep[1]
    ratio = np.empty((2, n))
    v_ratio, q = ratio
    lead_gap = np.zeros((2, n))
    raw_gap, v_lead = lead_gap
    a_creep, neg_rate, tmp = np.zeros((3, n))
    bypass = np.zeros(n, dtype=bool)
    if n_agents:
        n_cols = n_agents + any_terminus
        end = slice(n_agents, None)  # the path-end column; empty without a terminus
        # (s_ak, a_lat, lead test value) per step and column, s_ak = a_s + a_vlon * (k * dt)
        slak = np.empty((steps, 3, n, n_cols))
        slak[:, 0, :, :n_agents] = a_s + a_vlon * (np.arange(steps) * dt)[:, None, None]
        slak[:, 0, :, end] = path_len[:, None]
        slak[:, 1, :, :n_agents], slak[:, 1, :, end] = a_lat, 0.0
        slak[:, 2] = slak[:, 0]
        slak[:, 2, :, end] = np.where(terminus, np.inf, -np.inf)[:, None]
        sl_ak, lead_test = slak[:, :2], slak[:, 2]
        # pairs[:, i, c] = sl[k][:, i]: the flat index of row i's quantity, per column
        pair_index = np.arange(3 * n).repeat(n_cols).reshape(3, n, n_cols)
        pairs = np.empty((3, n, n_cols))
        pair_s_l, pair_s_eps = pairs[:2], pairs[2]
        # rel = (s_ak - s, |a_lat - l|, band) and g_v = (g, v_lon) per pair
        rel = np.empty((3, n, n_cols))
        rel_s_l, rel_s, dl_a, band = rel[:2], rel[0], rel[1], rel[2]
        band[:, :n_agents], band[:, end] = a_band, np.inf  # the (A,) rows broadcast over the n rows
        g_v = np.empty((2, n, n_cols))
        g = g_v[0]
        g_v[1, :, :n_agents], g_v[1, :, end] = a_vlon, 0.0
        hlen = np.zeros((n, n_cols))
        hlen[:, :n_agents] = a_hlen
        clear = np.zeros((n, n_cols), dtype=bool)
        clear[:, :n_agents] = np.abs(a_lat - targets[:, None]) >= a_band  # the target clears the band
        ehl_a = np.full((n, n_cols), ego_half_length)
        inf_a = np.full((n, n_cols), np.inf)
        not_lead, mask = np.zeros((2, n, n_cols), dtype=bool)
        g_v_flat, dl_band_flat, mask_flat = g_v.reshape(2, -1), rel.reshape(3, -1)[1:], mask.reshape(-1)
        dl_band = np.empty((2, n))  # (dl, band) of the chosen lead, on the creep branch
        row_base = np.arange(n) * n_cols
        j = np.zeros(n, dtype=np.intp)
        flat = np.zeros(n, dtype=np.intp)
    else:
        # A row without a terminus never stops for the path end: (inf - s) - ehl
        # = inf, the free-flow gap, where v_lead = 0 only enters through s_star / gap = 0.
        path_end = np.where(terminus, path_len, np.inf)

    # Per step: s, l, the (s, l) row and the next one; with agents also the
    # s + 1e-9 row, the flat state, (s_ak, a_lat) and the lead test value.
    agent_rows = (s_eps[:-1], sl_flat[:-1], sl_ak, lead_test) if n_agents else (repeat(None),) * 4
    step_rows = zip(sl[:-1, 0], sl[:-1, 1], s_l[:-1], s_l[1:], *agent_rows)
    for s_k, l_k, sl_k, sl_next, eps_k, flat_k, ak_k, test_k in step_rows:
        # s_star = s0 + max(0, v * T_h + v * (v - v_lead) / brake_scale)
        _multiply(v_now, T_h, s_star)
        if n_agents:
            _add(s_k, eps, eps_k)
            flat_k.take(pair_index, out=pairs, mode="clip")
            _subtract(ak_k, pair_s_l, rel_s_l)
            _absolute(dl_a, dl_a)
            # Not a lead: at or behind s + 1e-9, or outside the band.
            _less_equal(test_k, pair_s_eps, not_lead)
            _greater_equal(dl_a, band, mask)
            _bitwise_or(not_lead, mask, not_lead)
            # g = ((s_ak - s) - hlen) - ego_half_length for a lead, else inf
            _subtract(rel_s, hlen, rel_s)
            _subtract(rel_s, ehl_a, g)
            np.putmask(g, not_lead, inf_a)  # putmask: cheaper per call than copyto(where=)
            g.argmin(axis=1, out=j)
            _add(row_base, j, flat)
            # A row without a lead keeps gap = inf, where v_lead only enters
            # through s_star / gap = 0, so it needs no masking.
            g_v_flat.take(flat, axis=1, out=lead_gap, mode="clip")
            _greater(clear, not_lead, mask)  # clear and a lead
            mask_flat.take(flat, out=bypass, mode="clip")
            _subtract(v_now, v_lead, tmp)
            _multiply(v_now, tmp, tmp)
            _divide(tmp, brake_scale, tmp)
            _add(s_star, tmp, s_star)
            _maximum(zero, s_star, out=s_star)
        else:
            _subtract(path_end, s_k, raw_gap)
            _subtract(raw_gap, ehl, raw_gap)
            # v_lead = 0: v * (v - 0) is v * v, and max(0, .) keeps the sum
            _multiply(v_now, v_now, tmp)
            _divide(tmp, brake_scale, tmp)
            _add(s_star, tmp, s_star)
        _maximum(raw_gap, gap_floor, out=gap)
        _add(s0, s_star, s_star)
        # a = a_max * (1 - (v / v0) ** delta - q * q), q = s_star / gap (0 in free flow)
        _divide(v_s_star, den, ratio)
        _power(v_ratio, delta, v_ratio)
        _multiply(q, q, q)
        _subtract(one, v_ratio, a)
        _subtract(a, q, a)
        _multiply(a_max, a, a)
        # Without agent columns bypass stays all False. count_nonzero: a third of any()'s call cost.
        if n_agents and np.count_nonzero(bypass):
            # The go-around gap floor shrinks as the blend gains lateral
            # clearance, so the rollout can spiral out of a tight pocket;
            # the scorer's collision check remains the safety authority.
            # creep_gap = max(gap - CREEP_MIN_GAP * (1 - dl / band) + s0, 0.05)
            dl_band_flat.take(flat, axis=1, out=dl_band, mode="clip")
            _divide(dl_band[0], dl_band[1], creep_gap)
            _subtract(one, creep_gap, creep_gap)
            _multiply(creep_floor, creep_gap, creep_gap)
            _subtract(gap, creep_gap, creep_gap)
            _add(creep_gap, s0, creep_gap)
            _maximum(creep_gap, gap_floor, out=creep_gap)
            _divide(v_s_star, den_creep, ratio)
            _power(v_ratio, delta, v_ratio)
            _multiply(q, q, q)
            _subtract(one, v_ratio, a_creep)
            _subtract(a_creep, q, a_creep)
            _multiply(a_max, a_creep, a_creep)
            _maximum(a, a_creep, out=a_creep)
            np.putmask(a, bypass, a_creep)
        # a <= a_max already (see the docstring): only the braking clamp
        _maximum(a, neg_b_hard, out=a)

        # rate = min(LATERAL_RATE, LATERAL_SPEED_RATIO * v) * dt, all from the step's starting v
        _multiply(lat_ratio, v_now, rate)
        _minimum(lat_rate, rate, out=rate)
        _multiply(a_rate_v, dts, scaled)
        _add(v_now, a_dt, v_now)
        _maximum(zero, v_now, out=v_now)
        # dl = clip(targets - l, -rate, rate); then (s, l) += (v dt, dl)
        _negative(rate_dt, neg_rate)
        _subtract(targets, l_k, dl)
        _maximum(dl, neg_rate, out=dl)
        _minimum(dl, rate_dt, out=dl)
        _add(sl_k, ds_dl, sl_next)
    return sl[:, 0], sl[:, 1]


def _can_lead(a_s, a_vlon, ego_s, dt, steps):
    """(A,) mask of the agents that can lead some row: those whose largest
    horizon arclength passes ego_s + 1e-9 on some path.

    a_s and a_vlon are (paths, A), ego_s is (paths,). An agent's arclength at
    step k is _step_kernel's a_s + a_vlon * (k * dt), monotone in k under
    rounding, so its largest value over the steps 0..steps-1 is at one end:
    max(a_s, a_s + a_vlon * ((steps - 1) * dt)). A NaN there keeps the agent.
    """
    reach = _maximum(a_s, a_s + a_vlon * ((steps - 1) * dt))
    return ~_less_equal(reach, (ego_s + 1e-9)[:, None]).all(axis=0)


def _rollout_rows(ego: EgoState, paths, path_of_row, targets, v0, p: IdmParams, agents, cfg: ProposalConfig):
    """Roll out many (path, offset, v0) rows in one vectorized loop.

    Row i follows paths[path_of_row[i]] toward lateral offset targets[i] at
    reference speed v0[i]; every other IDM parameter comes from p. Rows are
    path-major: path_of_row is non-decreasing, so each path's rows are one
    slice, and every path has at least one row. The ego and all agents are
    projected onto each path in one call, the ego as point 0. Returns
    (positions (n, S+1, 2), headings, speeds, arclengths along each row's
    path), the last three (n, S+1), then the ego's projection onto each path
    (paths, 3): its arclength, lateral and the heading of the segment under
    its foot point, row 0 of that call; and each path's centre point at that
    arclength (paths, 2), sample 0 of the read-back (_read_back) before
    sample 0 is pinned to the ego.

    The kernel's lead columns are only the agents that can lead some row
    (_can_lead); the others are dropped before the rows are expanded, and
    with none left the kernel takes its lead-free step. The cut is exact:
    - a row's arclength never decreases (its speed stays >= 0), so a dropped
      agent fails the lead test s_ak <= s + 1e-9 at every step;
    - the kept columns keep their order, so argmin still takes the first of
      equal gaps;
    - a row with no lead keeps gap = inf, so q = s_star / gap is 0 whatever
      v_lead the new column 0 gives, and its bypass stays False.
    """
    steps = cfg.horizon_steps
    dt = cfg.dt

    # Per-path projections of [ego; agents], expanded to rows. An agent's
    # longitudinal speed is taken against the heading of the path segment
    # holding its arclength.
    n_agents = len(agents)
    ego_proj = np.empty((3, len(paths)))  # s, lat, path heading
    ag = np.zeros((3, len(paths), n_agents))  # s, lat, v_lon
    pts = np.array([[ego.pose.x, ego.pose.y]] + [[a.pose.x, a.pose.y] for a in agents])
    if n_agents:
        heading, speed, half_length, half_width = np.array(
            [[a.pose.heading, a.speed, a.half_length, a.half_width] for a in agents]
        ).T
    for j, path in enumerate(paths):
        table = path.segments
        s_j, l_j, h_j, _ = project_points_to_polyline(pts, table)
        ego_proj[:, j] = s_j[0], l_j[0], h_j[0]
        if n_agents:
            ag[0, j], ag[1, j] = s_j[1:], l_j[1:]
            ag[2, j] = speed * np.cos(heading - table.headings[table.segment_index(s_j[1:])])

    if n_agents:
        lead = _can_lead(ag[0], ag[2], ego_proj[0], dt, steps)
        if np.count_nonzero(lead) < n_agents:
            ag, half_length, half_width = ag[:, :, lead], half_length[lead], half_width[lead]
        band = np.maximum(CORRIDOR_HALF_WIDTH, half_width + ego.half_width + CORRIDOR_MARGIN)
    else:
        band = half_length = np.zeros(0)
    path_len = np.array([path.length for path in paths])[path_of_row]
    terminus = np.array([path.ends_at_terminus for path in paths], dtype=bool)[path_of_row]
    s_hist, l_hist = _step_kernel(
        ego_proj[:2, path_of_row], ego.speed, targets, v0, p, ag[:, path_of_row], band, half_length,
        path_len, terminus, float(ego.half_length), dt, steps,
    )

    s_track = np.ascontiguousarray(s_hist.T)
    positions, centres = _read_back(paths, path_of_row, s_track, np.ascontiguousarray(l_hist.T))
    heads, speeds = segment_headings_and_speeds(positions.transpose(1, 0, 2), ego.pose.heading, ego.speed, dt)
    # Rows first; sample 0 is pinned to the exact ego state.
    positions[:, 0] = (ego.pose.x, ego.pose.y)
    headings = np.ascontiguousarray(heads.T)
    headings[:, 0] = ego.pose.heading
    speeds = np.ascontiguousarray(speeds.T)
    speeds[:, 0] = ego.speed
    return positions, headings, speeds, s_track, np.ascontiguousarray(ego_proj.T), centres


def _read_back(paths, path_of_row, s_rows, l_rows):
    """World-frame samples (n, S+1, 2) of the rows' (s, l) histories, each
    (n, S+1), and each path's centre point at its first row's sample 0
    (paths, 2).

    A sample is the path's centre point at s plus l along the left normal
    (-sin, cos) of the segment holding s (SegmentTable.frame_at), one slice
    of rows per path. The normal comes from the segment array's cached rows,
    which hold np.sin and np.cos of the heading row; x + l * (-sin) equals
    x - l * sin to the bit, so the samples are those of np.sin and np.cos
    taken on the gathered headings.

    The histories come row-major, so np.interp reads each row's arclengths
    in time order. A rollout's arclengths never decrease, so its guessed
    search mostly hits; every value is elementwise in s, so the order
    changes no bit.
    """
    xy = np.empty(s_rows.shape + (2,))
    centres = np.empty((len(paths), 2))
    edges = path_of_row.searchsorted(np.arange(len(paths) + 1))
    for j, path in enumerate(paths):
        rows = slice(edges[j], edges[j + 1])
        pos, normal = path.segments.frame_at(s_rows[rows])
        centres[j] = pos[0, 0]
        normal *= l_rows[rows]
        _add(pos, normal.transpose(1, 2, 0), xy[rows])
    return xy, centres


def generate_proposals(
    ego: EgoState,
    paths: list,
    agents,
    cfg: ProposalConfig,
    base_params: IdmParams = IdmParams(),
) -> ProposalSet:
    """The full candidate set: |paths| x |offsets| x |speed_fractions| rollouts.

    Output order is the deterministic product order (path-major, then offset,
    then fraction). Each row follows base_params with v0 = max(0.1, fraction
    * path speed limit).
    """
    if not paths:
        raise ValueError("paths must be nonempty")
    n_off, n_frac = len(cfg.offsets), len(cfg.speed_fractions)
    path_index = np.arange(len(paths)).repeat(n_off * n_frac)
    offsets = np.array(cfg.offsets, dtype=float).repeat(n_frac)[None].repeat(len(paths), axis=0).reshape(-1)
    fractions = np.array(cfg.speed_fractions, dtype=float)[None].repeat(len(paths) * n_off, axis=0).reshape(-1)
    limits = np.array([path.speed_limit for path in paths], dtype=float)[path_index]
    v0 = np.maximum(0.1, fractions * limits)
    positions, headings, speeds, s_track, ego_projection, centres = _rollout_rows(
        ego, paths, path_index, offsets, v0, base_params, agents, cfg
    )
    return ProposalSet(
        cfg.dt, positions, headings, speeds, s_track, path_index,
        offsets, fractions, np.zeros(len(path_index), int), tuple(paths), ego_projection, centres,
    )
