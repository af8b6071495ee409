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
from dataclasses import dataclass, field, replace

import numpy as np

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


@dataclass(frozen=True, eq=False)
class Proposal:
    """A scored-candidate trajectory with its provenance."""

    trajectory: Trajectory
    path: ProposalPath | None
    path_index: int
    offset: float
    speed_fraction: float
    index: int  # position in the deterministic product order
    s_track: np.ndarray | None = None  # rollout arclength along its own path


@dataclass(eq=False)
class ProposalSet:
    proposals: list
    dt: float
    horizon_steps: int

    def __len__(self):
        return len(self.proposals)

    def __iter__(self):
        return iter(self.proposals)

    def __getitem__(self, i):
        return self.proposals[i]

    def add(self, trajectory: Trajectory, path=None, path_index=-1, offset=0.0, fraction=0.0, s_track=None):
        self.proposals.append(
            Proposal(
                trajectory=trajectory,
                path=path,
                path_index=path_index,
                offset=offset,
                speed_fraction=fraction,
                index=len(self.proposals),
                s_track=s_track,
            )
        )


def idm_accel(v: float, v_lead: float, gap: float, p: IdmParams) -> float:
    """Intelligent-driver-model acceleration, clamped to [-B_HARD, a_max].

    gap may be math.inf for free flow. The dynamic part of the desired gap is
    floored at zero so the response stays monotone in v and gap.
    """
    free = 1.0 - (v / p.v0) ** p.delta
    if math.isinf(gap):
        interaction = 0.0
    else:
        s_star = p.s0 + max(0.0, v * p.T_h + v * (v - v_lead) / (2.0 * math.sqrt(p.a_max * p.b_comf)))
        interaction = (s_star / gap) ** 2
    a = p.a_max * (free - interaction)
    return float(min(p.a_max, max(-B_HARD, a)))


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


def _project_agents(path: ProposalPath, agents, ego: EgoState):
    """Per-agent along-path state: (s, lateral, longitudinal speed, band, half_len)."""
    if not agents:
        z = np.zeros(0)
        return z, z, z, z, z
    pos = np.array([[a.pose.x, a.pose.y] for a in agents])
    s, lat = project_points_to_polyline(pos, path.points, path.s)
    _, path_head = path.pose_at(s)
    heads = np.array([a.pose.heading for a in agents])
    v_lon = np.array([a.speed for a in agents]) * np.cos(heads - path_head)
    band = np.maximum(
        CORRIDOR_HALF_WIDTH,
        np.array([a.half_width for a in agents]) + ego.half_width + CORRIDOR_MARGIN,
    )
    half_len = np.array([a.half_length for a in agents])
    return s, lat, v_lon, band, half_len


def _rollout_rows(ego: EgoState, rows: list, agents, cfg: ProposalConfig):
    """Roll out many (path, offset, params) rows in one vectorized loop.

    rows: list of (path, offset, IdmParams). Returns one Trajectory per row.
    """
    n = len(rows)
    steps = cfg.horizon_steps
    dt = cfg.dt

    paths = []
    path_of_row = np.empty(n, dtype=int)
    for i, (path, _, _) in enumerate(rows):
        for j, seen in enumerate(paths):
            if seen is path:
                path_of_row[i] = j
                break
        else:
            paths.append(path)
            path_of_row[i] = len(paths) - 1

    # Per-path ego projection and agent projections, expanded to rows.
    n_agents = len(agents)
    s_ego_p = np.empty(len(paths))
    l_ego_p = np.empty(len(paths))
    ag = np.zeros((len(paths), n_agents, 5))  # s, lat, v_lon, band, half_len
    for j, path in enumerate(paths):
        s_ego_p[j], l_ego_p[j], _ = project_onto_path(path, ego.pose)
        if n_agents:
            a_s, a_lat, a_vlon, a_band, a_hlen = _project_agents(path, agents, ego)
            ag[j] = np.stack([a_s, a_lat, a_vlon, a_band, a_hlen], axis=1)

    a_s = ag[path_of_row, :, 0]  # (n, A)
    a_lat = ag[path_of_row, :, 1]
    a_vlon = ag[path_of_row, :, 2]
    a_band = ag[path_of_row, :, 3]
    a_hlen = ag[path_of_row, :, 4]

    targets = np.array([off for _, off, _ in rows], dtype=float)
    params = [p for _, _, p in rows]
    v0 = np.array([p.v0 for p in params])
    T_h = np.array([p.T_h for p in params])
    s0 = np.array([p.s0 for p in params])
    a_max = np.array([p.a_max for p in params])
    brake_scale = 2.0 * np.sqrt(a_max * np.array([p.b_comf for p in params]))
    delta = np.array([p.delta for p in params])
    creep_v0 = np.minimum(v0, CREEP_SPEED)

    path_len = np.array([p.length for p in paths])[path_of_row]
    terminus = np.array([p.ends_at_terminus for p in paths], dtype=bool)[path_of_row]

    s = s_ego_p[path_of_row].copy()
    l = l_ego_p[path_of_row].copy()
    v = np.full(n, ego.speed)

    s_hist = np.empty((steps + 1, n))
    l_hist = np.empty((steps + 1, n))
    s_hist[0], l_hist[0] = s, l

    bypass_clear = (
        np.abs(a_lat - targets[:, None]) >= a_band
        if n_agents
        else np.zeros((n, 0), dtype=bool)
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
        pos, head = path.pose_at(s_flat)
        m = int(members.sum())
        pos = pos.reshape(steps + 1, m, 2)
        head = head.reshape(steps + 1, m)
        normal = np.stack([-np.sin(head), np.cos(head)], axis=-1)
        xy[:, members, :] = pos + l_hist[:, members, None] * normal

    all_heads, all_speeds = segment_headings_and_speeds(xy, ego.pose.heading, ego.speed, dt)
    first = (ego.pose, ego.speed)
    trajectories = [
        trajectory_from_arrays(dt, xy[:, i, :], all_heads[:, i], all_speeds[:, i], "idm", first)
        for i in range(n)
    ]
    return trajectories, s_hist.T  # (n, steps + 1) arclengths


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
    return _rollout_rows(ego, [(path, offset, p)], agents, cfg)[0][0]


def generate_proposals(
    ego: EgoState,
    paths: list,
    agents,
    cfg: ProposalConfig,
    params_per_fraction: list | None = None,
    base_params: IdmParams | None = None,
) -> ProposalSet:
    """The full candidate set: |paths| x |offsets| x |speed_fractions| rollouts.

    Output order is the deterministic product order (path-major, then offset,
    then fraction). When params_per_fraction is None, each fraction maps to
    base_params with v0 = fraction * path speed limit.
    """
    if not paths:
        raise ValueError("paths must be nonempty")
    ps = ProposalSet(proposals=[], dt=cfg.dt, horizon_steps=cfg.horizon_steps)
    base = base_params or IdmParams()
    rows = []
    meta = []
    for path_index, path in enumerate(paths):
        for off in cfg.offsets:
            for frac_i, frac in enumerate(cfg.speed_fractions):
                if params_per_fraction is not None:
                    p = params_per_fraction[frac_i]
                else:
                    p = replace(base, v0=max(0.1, frac * path.speed_limit))
                rows.append((path, off, p))
                meta.append((path, path_index, off, frac))
    trajectories, s_tracks = _rollout_rows(ego, rows, agents, cfg)
    for traj, s_track, (path, path_index, off, frac) in zip(trajectories, s_tracks, meta):
        ps.add(traj, path=path, path_index=path_index, offset=off, fraction=frac, s_track=s_track)
    return ps
