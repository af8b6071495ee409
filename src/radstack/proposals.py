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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HorizonMismatchError
from .geometry import project_points_to_polyline
from .scene import EgoState, Trajectory, segment_headings_and_speeds, trajectory_from_arrays
from .topology import ProposalPath, project_onto_path

B_HARD = 6.0  # m/s^2, hard braking clamp
MAX_OFFSET = 3.0  # m
LATERAL_RATE = 0.75  # m/s, lateral blend rate cap
LATERAL_SPEED_RATIO = 0.5  # blend rate also capped at this fraction of speed,
# keeping references trackable by a bicycle (~26 deg relative heading)
CORRIDOR_HALF_WIDTH = 2.0  # m, lead-agent lateral band (widened per agent size)
CORRIDOR_MARGIN = 0.3  # m, extra clearance beyond summed half widths
CREEP_SPEED = 1.0  # m/s, approach cap while maneuvering around a lead
CREEP_MIN_GAP = 1.2  # m, bumper gap floor while creeping


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
            if getattr(self, name) <= 0:
                raise ValueError(f"IdmParams.{name} must be positive")


@dataclass(frozen=True)
class ProposalConfig:
    offsets: tuple = (-1.0, 0.0, 1.0)  # m
    speed_fractions: tuple = (0.2, 0.4, 0.6, 0.8, 1.0)  # of lane speed limit
    horizon: float = 4.0  # s
    dt: float = 0.1  # s

    def __post_init__(self):
        if 0.0 not in self.offsets:
            raise ValueError("ProposalConfig.offsets must contain 0 (the centerline)")
        if any(f <= 0 or f > 1 for f in self.speed_fractions):
            raise ValueError("ProposalConfig.speed_fractions must lie in (0, 1]")
        if self.horizon <= 0 or self.dt <= 0:
            raise ValueError("ProposalConfig horizon and dt must be positive")

    @property
    def horizon_steps(self) -> int:
        return int(round(self.horizon / self.dt))


# Trajectory tags in tie-break order; a row's tag code is its position here.
TAG_PRIORITY = ("idm", "learned", "learned_offset", "vocabulary", "replay")


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
    appended by append or add (vocabulary and learned plans) have path_index
    -1, offset and fraction 0 and a NaN s_track. A row's index is its position.
    """

    dt: float
    positions: np.ndarray  # (P, S+1, 2)
    headings: np.ndarray  # (P, S+1)
    speeds: np.ndarray  # (P, S+1)
    s_track: np.ndarray  # (P, S+1) arclength along the row's own path
    path_index: np.ndarray  # (P,) int
    offsets: np.ndarray  # (P,)
    fractions: np.ndarray  # (P,)
    tags: np.ndarray  # (P,) int codes into TAG_PRIORITY
    paths: tuple = ()

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
            i, TAG_PRIORITY[self.tags[i]], j, float(self.offsets[i]), float(self.fractions[i]),
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
            TAG_PRIORITY[self.tags[i]],
        )

    def add(self, *trajectories: Trajectory) -> None:
        """Append one row per trajectory. Raises HorizonMismatchError when a
        trajectory's sampling differs from the set's."""
        for t in trajectories:
            self._check_sampling(t.dt, t.horizon_steps)
        self.append(
            self.dt,
            np.array([t.positions for t in trajectories]),
            np.array([t.headings for t in trajectories]),
            np.array([t.speeds for t in trajectories]),
            [t.tag for t in trajectories],
        )

    def append(self, dt: float, positions, headings, speeds, tags) -> None:
        """Append rows without a path: positions (m, S+1, 2), headings and
        speeds (m, S+1), and one tag name per row. Raises HorizonMismatchError
        when dt or S differs from the set's."""
        self._check_sampling(dt, positions.shape[1] - 1)
        n = len(positions)
        self.positions = np.concatenate([self.positions, positions])
        self.headings = np.concatenate([self.headings, headings])
        self.speeds = np.concatenate([self.speeds, speeds])
        self.s_track = np.concatenate([self.s_track, np.full((n, self.s_track.shape[1]), np.nan)])
        self.path_index = np.concatenate([self.path_index, np.full(n, -1)])
        self.offsets = np.concatenate([self.offsets, np.zeros(n)])
        self.fractions = np.concatenate([self.fractions, np.zeros(n)])
        self.tags = np.concatenate([self.tags, [TAG_PRIORITY.index(t) for t in tags]])

    def _check_sampling(self, dt: float, steps: int) -> None:
        if not abs(dt - self.dt) <= 1e-12 or steps != self.horizon_steps:  # a NaN dt fails too
            raise HorizonMismatchError(
                f"trajectory has dt={dt}, steps={steps}; set expects dt={self.dt}, steps={self.horizon_steps}"
            )


def idm_accel(v, v_lead, gap, p: IdmParams):
    """Intelligent-driver-model acceleration, clamped to [-B_HARD, a_max].

    Elementwise over arrays; gap may be inf for free flow. The dynamic part of
    the desired gap is floored at zero so the response stays monotone in v and
    gap.
    """
    s_star = p.s0 + np.maximum(0.0, v * p.T_h + v * (v - v_lead) / (2.0 * math.sqrt(p.a_max * p.b_comf)))
    q = s_star / gap  # 0 in free flow
    a = p.a_max * (1.0 - (v / p.v0) ** p.delta - q * q)
    return np.minimum(np.maximum(a, -B_HARD), p.a_max)


def _step_kernel(
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
    """IDM + lateral-blend integration, one array update per step for all rows.

    Per step and row: pick the nearest agent ahead whose lateral band covers
    the current blend position (the first such agent on equal gaps); follow it
    with IDM, or creep past it when the proposal's target offset clears the
    band; brake for the path terminus. Fills s_hist and l_hist (rows 0..steps)
    and leaves s, l and v at the last step.

    On arrays this small a ufunc call costs mostly its own overhead, so the
    loop makes as few calls as the arithmetic allows: every constant is an
    (n,) or (n, A) array (a Python-float operand costs more per call), every
    result lands in a buffer allocated here, whatever does not depend on
    (s, l, v) is computed before the loop, and quantities that take the same
    operation share one call as rows of a stacked buffer. Each value is
    computed by the same operations in the same order as in the elementwise
    form, so the result is the same to the bit.
    """
    n, n_agents = a_s.shape
    eps, gap_floor, zero, one, neg_b_hard, lat_rate, lat_ratio, creep_floor, ehl = np.repeat(
        [[1e-9], [0.05], [0.0], [1.0], [-B_HARD], [LATERAL_RATE], [LATERAL_SPEED_RATIO], [CREEP_MIN_GAP],
         [ego_half_length]],
        n,
        axis=1,
    )
    any_terminus = bool(terminus.any())
    # A row without a terminus never stops for the path end: inf - s < gap is false.
    path_end = np.where(terminus, path_len, np.inf)

    # Stacked buffers, one row per quantity:
    #   sl[k] = (s, l) at step k;
    #   state = (a, rate, v, s_star) and incr = (a dt, rate dt, v dt, dl):
    #   incr[:3] = state[:3] * dt, and sl[k + 1] = sl[k] + incr[2:];
    #   ratio = state[2:] / (v0, gap) = (v / v0, s_star / gap), or
    #   state[2:] / (creep_v0, creep_gap) on the creep branch.
    sl = np.empty((steps + 1, 2, n))
    sl[0] = s, l
    state = np.zeros((4, n))
    a, rate, v_now, s_star = state
    v_now[:] = v
    incr = np.empty((4, n))
    a_dt, rate_dt, _, dl = incr
    a_rate_v, v_s_star, scaled, ds_dl = state[:3], state[2:], incr[:3], incr[2:]
    dts = np.full((3, n), dt)
    den = np.stack([v0, np.zeros(n)])
    gap = den[1]
    den_creep = np.stack([creep_v0, np.zeros(n)])
    creep_gap = den_creep[1]
    ratio = np.empty((2, n))
    v_ratio, q = ratio
    v_lead, term_gap, a_creep, neg_rate, tmp = np.zeros((5, n))
    bypass, stop, clear = np.zeros((3, n), dtype=bool)
    tmp_col = tmp[:, None]
    if n_agents:
        # (s_ak, a_lat) per step, s_ak = a_s + a_vlon * (k * dt) as in the scalar form.
        slak = np.empty((steps, 2, n, n_agents))
        slak[:, 0] = a_s + a_vlon * (np.arange(steps) * dt)[:, None, None]
        slak[:, 1] = a_lat
        s_ak_all = slak[:, 0]
        sl_cols = sl[:, :, :, None]
        rel = np.empty((2, n, n_agents))  # (s_ak - s, a_lat - l), then |a_lat - l|
        rel_s, dl_a = rel
        ehl_a = np.full((n, n_agents), ego_half_length)
        inf_a = np.full((n, n_agents), np.inf)
        g = np.empty((n, n_agents))
        lead, mask = np.zeros((2, n, n_agents), dtype=bool)
        g_flat, dl_flat, lead_flat = g.reshape(-1), dl_a.reshape(-1), lead.reshape(-1)
        vlon_flat, band_flat, clear_flat = (
            np.ascontiguousarray(x).reshape(-1) for x in (a_vlon, a_band, bypass_clear)
        )
        row_base = np.arange(n) * n_agents
        j = np.zeros(n, dtype=np.intp)
        flat = np.zeros(n, dtype=np.intp)

    for k in range(steps):
        sl_k = sl[k]
        s_k, l_k = sl_k
        if n_agents:
            np.subtract(slak[k], sl_cols[k], out=rel)
            np.abs(dl_a, out=dl_a)
            np.add(s_k, eps, out=tmp)
            np.greater(s_ak_all[k], tmp_col, out=lead)
            np.less(dl_a, a_band, out=mask)
            np.logical_and(lead, mask, out=lead)
            # g = ((s_ak - s) - a_hlen) - ego_half_length where lead, else inf
            np.subtract(rel_s, a_hlen, out=rel_s)
            np.subtract(rel_s, ehl_a, out=g)
            np.logical_not(lead, out=mask)
            np.copyto(g, inf_a, where=mask)
            g.argmin(axis=1, out=j)
            np.add(row_base, j, out=flat)
            # A row without a lead keeps gap = inf, where v_lead only enters
            # through s_star / gap = 0, so it needs no masking.
            g_flat.take(flat, out=gap, mode="clip")
            vlon_flat.take(flat, out=v_lead, mode="clip")
            lead_flat.take(flat, out=bypass, mode="clip")
            clear_flat.take(flat, out=clear, mode="clip")
            np.logical_and(bypass, clear, out=bypass)
        else:
            gap.fill(np.inf)
        if any_terminus:
            np.subtract(path_end, s_k, out=term_gap)
            np.subtract(term_gap, ehl, out=term_gap)
            np.less(term_gap, gap, out=stop)
            np.copyto(gap, term_gap, where=stop)
            if n_agents:  # without agents v_lead stays 0 and bypass False
                np.copyto(v_lead, zero, where=stop)
                np.logical_not(stop, out=stop)
                np.logical_and(bypass, stop, out=bypass)
        np.maximum(gap, gap_floor, out=gap)

        # s_star = s0 + max(0, v * T_h + v * (v - v_lead) / brake_scale)
        np.multiply(v_now, T_h, out=s_star)
        np.subtract(v_now, v_lead, out=tmp)
        np.multiply(v_now, tmp, out=tmp)
        np.divide(tmp, brake_scale, out=tmp)
        np.add(s_star, tmp, out=s_star)
        np.maximum(zero, s_star, out=s_star)
        np.add(s0, s_star, out=s_star)
        # a = a_max * (1 - (v / v0) ** delta - q * q), q = s_star / gap (0 in free flow)
        np.divide(v_s_star, den, out=ratio)
        np.power(v_ratio, delta, out=v_ratio)
        np.multiply(q, q, out=q)
        np.subtract(one, v_ratio, out=a)
        np.subtract(a, q, out=a)
        np.multiply(a_max, a, out=a)
        if n_agents and np.count_nonzero(bypass):  # count_nonzero: a third of any()'s call cost
            # The go-around gap floor shrinks as the blend gains lateral
            # clearance, so the rollout can spiral out of a tight pocket;
            # the scorer's collision check remains the safety authority.
            # creep_gap = max(gap - CREEP_MIN_GAP * (1 - dl / band) + s0, 0.05)
            dl_flat.take(flat, out=creep_gap, mode="clip")
            band_flat.take(flat, out=tmp, mode="clip")
            np.divide(creep_gap, tmp, out=creep_gap)
            np.subtract(one, creep_gap, out=creep_gap)
            np.multiply(creep_floor, creep_gap, out=creep_gap)
            np.subtract(gap, creep_gap, out=creep_gap)
            np.add(creep_gap, s0, out=creep_gap)
            np.maximum(creep_gap, gap_floor, out=creep_gap)
            np.divide(v_s_star, den_creep, out=ratio)
            np.power(v_ratio, delta, out=v_ratio)
            np.multiply(q, q, out=q)
            np.subtract(one, v_ratio, out=a_creep)
            np.subtract(a_creep, q, out=a_creep)
            np.multiply(a_max, a_creep, out=a_creep)
            np.maximum(a, a_creep, out=a_creep)
            np.copyto(a, a_creep, where=bypass)
        np.maximum(a, neg_b_hard, out=a)
        np.minimum(a, a_max, out=a)

        # rate = min(LATERAL_RATE, LATERAL_SPEED_RATIO * v) * dt, all from the step's starting v
        np.multiply(lat_ratio, v_now, out=rate)
        np.minimum(lat_rate, rate, out=rate)
        np.multiply(a_rate_v, dts, out=scaled)
        np.add(v_now, a_dt, out=v_now)
        np.maximum(zero, v_now, out=v_now)
        # dl = clip(targets - l, -rate, rate); then (s, l) += (v dt, dl)
        np.negative(rate_dt, out=neg_rate)
        np.subtract(targets, l_k, out=dl)
        np.maximum(dl, neg_rate, out=dl)
        np.minimum(dl, rate_dt, out=dl)
        np.add(sl_k, ds_dl, out=sl[k + 1])
    s_hist[:] = sl[:, 0]
    l_hist[:] = sl[:, 1]
    s[:], l[:] = sl[steps]
    v[:] = v_now


def _project_agents(path: ProposalPath, agent_xy, agent_heading, agent_speed):
    """Per-agent along-path state: (s, lateral, longitudinal speed)."""
    s, lat, _, _ = project_points_to_polyline(agent_xy, path.segments)
    _, path_head = path.segments.pose_at(s)
    return s, lat, agent_speed * np.cos(agent_heading - path_head)


def _rollout_rows(ego: EgoState, paths, path_of_row, targets, v0, p: IdmParams, agents, cfg: ProposalConfig):
    """Roll out many (path, offset, v0) rows in one vectorized loop.

    Row i follows paths[path_of_row[i]] toward lateral offset targets[i] at
    reference speed v0[i]; every other IDM parameter comes from p. Returns
    (positions (n, S+1, 2), headings, speeds, arclengths along each row's
    path), the last three (n, S+1).
    """
    n = len(path_of_row)
    steps = cfg.horizon_steps
    dt = cfg.dt

    # Per-path ego projection and agent projections, expanded to rows.
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
            ag[:, j] = _project_agents(path, agent_xy, heading, speed)

    a_s, a_lat, a_vlon = ag[:, path_of_row]  # each (n, A)
    if n_agents:
        band = np.maximum(CORRIDOR_HALF_WIDTH, half_width + ego.half_width + CORRIDOR_MARGIN)
        a_band = np.tile(band, (n, 1))  # contiguous (n, A): cheaper per step than a broadcast view
        a_hlen = np.tile(half_length, (n, 1))
    else:
        a_band = a_hlen = np.zeros((n, 0))

    creep_v0 = np.minimum(v0, CREEP_SPEED)
    path_len = np.array([p.length for p in paths])[path_of_row]
    terminus = np.array([p.ends_at_terminus for p in paths], dtype=bool)[path_of_row]

    s = s_ego_p[path_of_row].copy()
    l = l_ego_p[path_of_row].copy()
    v = np.full(n, ego.speed)

    s_hist = np.empty((steps + 1, n))
    l_hist = np.empty((steps + 1, n))

    bypass_clear = np.abs(a_lat - targets[:, None]) >= a_band
    # The shared IDM parameters go in as (n,) columns: on arrays this small a
    # Python-scalar operand costs more per ufunc call than a column, and a
    # scalar exponent of 2 or 0.5 rounds differently from a column of them.
    T_h, s0, a_max, brake_scale, delta = np.repeat(
        [[p.T_h], [p.s0], [p.a_max], [2.0 * math.sqrt(p.a_max * p.b_comf)], [p.delta]], n, axis=1
    )
    _step_kernel(
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
        float(ego.half_length),
        dt,
        steps,
    )

    # Reconstruct world-frame samples: centerline point + lateral along normal.
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

    heads, speeds = segment_headings_and_speeds(xy, ego.pose.heading, ego.speed, dt)
    # Rows first; sample 0 is pinned to the exact ego state.
    positions = np.ascontiguousarray(xy.transpose(1, 0, 2))
    positions[:, 0] = (ego.pose.x, ego.pose.y)
    headings = np.ascontiguousarray(heads.T)
    headings[:, 0] = ego.pose.heading
    speeds = np.ascontiguousarray(speeds.T)
    speeds[:, 0] = ego.speed
    return positions, headings, speeds, np.ascontiguousarray(s_hist.T)


def rollout_idm(
    ego: EgoState,
    path: ProposalPath,
    offset: float,
    p: IdmParams,
    agents,
    cfg: ProposalConfig,
) -> Trajectory:
    """Single IDM rollout along a path toward a lateral offset target."""
    if abs(offset) > MAX_OFFSET:
        raise ValueError(f"offset {offset} exceeds max offset {MAX_OFFSET}")
    positions, headings, speeds, _ = _rollout_rows(
        ego, [path], np.zeros(1, dtype=int), np.array([float(offset)]), np.array([p.v0]), p, agents, cfg
    )
    return trajectory_from_arrays(cfg.dt, positions[0], headings[0], speeds[0], "idm")


def generate_proposals(
    ego: EgoState,
    paths: list,
    agents,
    cfg: ProposalConfig,
    base_params: IdmParams | None = None,
) -> ProposalSet:
    """The full candidate set: |paths| x |offsets| x |speed_fractions| rollouts.

    Output order is the deterministic product order (path-major, then offset,
    then fraction). Each row follows base_params with v0 = max(0.1, fraction
    * path speed limit).
    """
    if not paths:
        raise ValueError("paths must be nonempty")
    n_off, n_frac = len(cfg.offsets), len(cfg.speed_fractions)
    path_index = np.repeat(np.arange(len(paths)), n_off * n_frac)
    offsets = np.tile(np.repeat(np.asarray(cfg.offsets, dtype=float), n_frac), len(paths))
    fractions = np.tile(np.asarray(cfg.speed_fractions, dtype=float), len(paths) * n_off)
    limits = np.array([path.speed_limit for path in paths], dtype=float)[path_index]
    v0 = np.maximum(0.1, fractions * limits)
    positions, headings, speeds, s_track = _rollout_rows(
        ego, paths, path_index, offsets, v0, base_params or IdmParams(), agents, cfg
    )
    return ProposalSet(
        cfg.dt, positions, headings, speeds, s_track, path_index,
        offsets, fractions, np.zeros(len(path_index), int), tuple(paths),
    )
