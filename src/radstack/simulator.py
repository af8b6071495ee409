"""Deterministic closed-loop episode runner: kinematic-bicycle ego dynamics,
an LQR trajectory tracker, reactive IDM or replay background agents, event
detection, and per-tick planner invocation.

Episode logs serialize as line-delimited JSON and hold no wall-clock data, so
identical runs produce byte-identical log files. Planner timing is measured by
perfbench.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    OffMapError,
    ParseError,
    ValidationError,
    array,
    expected,
    finite,
    integer,
    number,
    obj,
    read_text,
    string,
    write_text,
)
from .geometry import (
    boxes_overlap,
    normalize_angle,
    normalize_angles,
    project_points_to_polyline,
    SegmentTable,
)
from .planner import Planner
from .proposals import CORRIDOR_MARGIN, MIN_DT, IdmParams, idm_accel
from .scoring import BROAD_PHASE_SLACK
from .scene import (
    AgentState,
    EgoState,
    Pose2,
    STEER_LIMIT,
    TRAJECTORY_TAGS,
    Scenario,
    Trajectory,
    footprint_inside_drivable,
    scenario_from_dict,
    scenario_to_dict,
)

MAX_ACCEL_CMD = 3.0  # m/s^2
MAX_BRAKE_CMD = 6.0  # m/s^2

AGENT_POLICIES = ("reactive_idm", "replay")
EVENT_NAMES = ("collision", "off_road", "goal_reached", "deadlock", "off_map_error")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.1
    planner_period: int = 1  # planner ticks every N sim ticks
    agent_policy: str = "reactive_idm"
    disturbances: tuple = ()  # ((tick, lateral metres), ...)
    goal_radius: float = 3.0
    deadlock_window: float = 10.0
    deadlock_displacement: float = 0.5
    record_breakdowns: bool = False

    def __post_init__(self):
        # MIN_DT: the episode runs duration / dt ticks, each with a planner call.
        number(self.dt, "SimConfig.dt", ValueError, at_least=MIN_DT)
        integer(self.planner_period, "SimConfig.planner_period", ValueError, at_least=1)
        string(self.agent_policy, "SimConfig.agent_policy", ValueError, AGENT_POLICIES)
        number(self.goal_radius, "SimConfig.goal_radius", ValueError, at_least=0)
        number(self.deadlock_window, "SimConfig.deadlock_window", ValueError, above=0)
        number(self.deadlock_displacement, "SimConfig.deadlock_displacement", ValueError, at_least=0)
        # run_episode fires a disturbance at its exact tick: a fractional or
        # negative one would never fire.
        if not isinstance(self.disturbances, (tuple, list)):
            raise expected(ValueError, "SimConfig.disturbances", "a sequence of (tick, metres) pairs", self.disturbances)
        for i, pair in enumerate(self.disturbances):
            path = f"SimConfig.disturbances[{i}]"
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise expected(ValueError, path, "a (tick, metres) pair", pair)
            integer(pair[0], f"{path}[0]", ValueError, at_least=0)
            number(pair[1], f"{path}[1]", ValueError)


@dataclass
class EpisodeLog:
    scenario: Scenario
    planner_kind: str
    dt: float
    records: list = field(default_factory=list)  # per-tick dicts
    events: list = field(default_factory=list)  # (tick, name)
    proposal_records: list = field(default_factory=list)

    @property
    def event_names(self):
        return [name for _, name in self.events]

    def ego_states(self):
        return [record_ego(r, self.scenario.ego) for r in self.records]


def bicycle_step(ego: EgoState, accel_cmd: float, steer_cmd: float, dt: float) -> EgoState:
    """One kinematic-bicycle integration step; commands clamped, no reverse."""
    a = min(MAX_ACCEL_CMD, max(-MAX_BRAKE_CMD, accel_cmd))
    steer = min(STEER_LIMIT, max(-STEER_LIMIT, steer_cmd))
    x = ego.pose.x + ego.speed * math.cos(ego.pose.heading) * dt
    y = ego.pose.y + ego.speed * math.sin(ego.pose.heading) * dt
    heading = normalize_angle(
        ego.pose.heading + ego.speed / ego.wheelbase * math.tan(steer) * dt
    )
    v = max(0.0, ego.speed + a * dt)
    return EgoState(Pose2(x, y, heading), v, a, steer, ego.wheelbase, ego.half_length, ego.half_width)


# The tracker's weights and gains.
LQR_Q_LATERAL = 1.0
LQR_Q_HEADING = 0.5
LQR_R_STEER = 2.0
K_SPEED = 1.5  # 1/s, longitudinal gain on the speed error
LOOKAHEAD_STEPS = 5  # speed reference index offset
LOW_SPEED = 0.1  # m/s; below it the fixed LOW_SPEED_GAIN replaces the LQR gain
LOW_SPEED_GAIN = (0.6, 1.2)  # on cross-track and heading error
RICCATI_STEPS = 50  # cap on Riccati doubling steps; lqr_gain raises past it
RICCATI_RTOL = 1e-13  # relative step in trace(H) at which the doubling has converged


def lqr_gain(speed: float, dt: float, wheelbase: float) -> np.ndarray:
    """Infinite-horizon feedback gain for the [cross-track, heading] error state.

    Solves the discrete algebraic Riccati equation for P by the doubling
    iteration (G0 = B R^-1 B^T, H0 = Q, W = I + G H):
        A' = A W^-1 A,  G' = G + A W^-1 G A^T,  H' = H + A^T H W^-1 A,
    which converges quadratically with H -> P. It stops once the relative step
    in H is at most RICCATI_RTOL, measured in the trace (H and each step are
    positive semidefinite, so the trace bounds every entry), and returns
    K = (R + B^T P B)^-1 B^T P A, (2,).
    Q = diag(LQR_Q_LATERAL, LQR_Q_HEADING) and R = LQR_R_STEER. Reaching
    RICCATI_STEPS doubling steps raises ValueError, as at speed 0 where B = 0
    and no stabilising gain exists. The 2x2 iteration is unrolled in scalars
    (the control is 1-dimensional).
    """
    ad = speed * dt  # A = [[1, ad], [0, 1]]
    beta = speed * dt / wheelbase  # B = [0, beta]
    r = LQR_R_STEER
    a00, a01, a10, a11 = 1.0, ad, 0.0, 1.0
    g00, g01, g11 = 0.0, 0.0, beta * beta / r
    h00, h01, h11 = LQR_Q_LATERAL, 0.0, LQR_Q_HEADING
    for _ in range(RICCATI_STEPS):
        # W = I + G H and its inverse.
        w00 = 1.0 + g00 * h00 + g01 * h01
        w01 = g00 * h01 + g01 * h11
        w10 = g01 * h00 + g11 * h01
        w11 = 1.0 + g01 * h01 + g11 * h11
        inv = 1.0 / (w00 * w11 - w01 * w10)
        v00, v01, v10, v11 = w11 * inv, -w01 * inv, -w10 * inv, w00 * inv
        # X = W^-1 A
        x00 = v00 * a00 + v01 * a10
        x01 = v00 * a01 + v01 * a11
        x10 = v10 * a00 + v11 * a10
        x11 = v10 * a01 + v11 * a11
        # Y = W^-1 G (symmetric)
        y00 = v00 * g00 + v01 * g01
        y01 = v00 * g01 + v01 * g11
        y11 = v10 * g01 + v11 * g11
        # Z = H X; the step in H is A^T Z (symmetric)
        z00 = h00 * x00 + h01 * x10
        z01 = h00 * x01 + h01 * x11
        z10 = h01 * x00 + h11 * x10
        z11 = h01 * x01 + h11 * x11
        d00 = a00 * z00 + a10 * z10
        d01 = a00 * z01 + a10 * z11
        d11 = a01 * z01 + a11 * z11
        # The step in G is A Y A^T (symmetric), with A Y = U
        u00 = a00 * y00 + a01 * y01
        u01 = a00 * y01 + a01 * y11
        u10 = a10 * y00 + a11 * y01
        u11 = a10 * y01 + a11 * y11
        g00 += u00 * a00 + u01 * a01
        g01 += u00 * a10 + u01 * a11
        g11 += u10 * a10 + u11 * a11
        a00, a01, a10, a11 = (
            a00 * x00 + a01 * x10,
            a00 * x01 + a01 * x11,
            a10 * x00 + a11 * x10,
            a10 * x01 + a11 * x11,
        )
        h00 += d00
        h01 += d01
        h11 += d11
        if d00 + d11 <= RICCATI_RTOL * (h00 + h11):
            denom = r + beta * beta * h11
            return np.array([beta * h01 / denom, beta * (h01 * ad + h11) / denom])
    raise ValueError(
        f"Riccati doubling did not converge in {RICCATI_STEPS} steps at speed {speed} m/s"
    )


def lqr_track(ego: EgoState, reference: Trajectory) -> tuple:
    """(accel_cmd, steer_cmd) tracking the reference trajectory.

    Lateral: LQR on [cross-track error, heading error] linearized at the
    current speed, plus curvature feedforward. Longitudinal: proportional to
    the speed error at a short lookahead. Commands are clamped by bicycle_step.

    The planner pins the plan's sample 0 to the ego on every tick it runs,
    so at planner_period 1 the ego is always there. When both coordinate
    differences to sample 0 are exactly +0.0 and segment 0 has positive
    length, the dense projection's result is known without a SegmentTable,
    to the bit: the offset from segment 0's start is (+0, +0) and stays so
    when the foot point's +-0 products are taken off, so segment 0 has
    squared distance 0 and is the first minimum, at u = +-0; s = 0 + u *
    length = +0.0, so idx = 0 and ds is segment 0's length; the lateral is
    (+0, +0) . (-sin h0, cos h0), whose sign only the signs of the sine and
    cosine decide, h0 being segment 0's math.atan2 as in the segment array.
    Any other ego (planner_period > 1, a zero-length segment 0, a -0.0
    difference) takes the dense projection (project_points_to_polyline).
    Exact for finite coordinates at map scale, where no product of the
    dense pass overflows into a NaN that it would pick.
    """
    pts = reference.positions
    (x0, y0), (x1, y1) = pts[:2].tolist()
    ex, ey = ego.pose.x - x0, ego.pose.y - y0
    dx, dy = x1 - x0, y1 - y0
    len2 = dx * dx + dy * dy
    if ex == 0.0 == ey and math.copysign(1.0, ex) == 1.0 == math.copysign(1.0, ey) and len2 > 0.0:
        idx, ref_head, seg_len = 0, math.atan2(dy, dx), math.sqrt(len2)
        e_lat = 0.0 * -np.sin(ref_head) + 0.0 * np.cos(ref_head)
    else:
        table = SegmentTable(pts)
        (s,), (e_lat,), (ref_head,), _ = project_points_to_polyline(np.array([[ego.pose.x, ego.pose.y]]), table)
        idx = min(max(int(table.s.searchsorted(s, side="right")) - 1, 0), len(pts) - 2)
        seg_len = table.s[idx + 1] - table.s[idx]
    e_head = normalize_angle(ego.pose.heading - ref_head)

    look = min(idx + LOOKAHEAD_STEPS, len(pts) - 1)
    v_ref = float(reference.speeds[look])
    accel_cmd = K_SPEED * (v_ref - ego.speed)

    # Curvature feedforward from the reference headings around the projection.
    heads = reference.headings
    kappa = normalize_angle(heads[idx + 1] - heads[idx]) / max(seg_len, 1e-6)
    kappa = float(min(max(kappa, -0.5), 0.5))  # np.clip's NaN and -0.0, without its wrapper

    if ego.speed < LOW_SPEED:
        k1, k2 = LOW_SPEED_GAIN
        steer_fb = -k1 * e_lat - k2 * e_head
    else:
        k = lqr_gain(ego.speed, reference.dt, ego.wheelbase)
        steer_fb = float(-(k[0] * e_lat + k[1] * e_head))
    steer_cmd = steer_fb + math.atan(ego.wheelbase * kappa)
    return accel_cmd, steer_cmd


# --------------------------------------------------------------------------
# Background agents


_AGENT_IDM = IdmParams(v0=8.0, T_h=1.5, s0=2.0, a_max=1.5, b_comf=2.0)


def step_agents(agents, scenario: Scenario, policy: str, dt: float, ego: EgoState | None = None):
    """Advance background agents one step, every agent from the previous states.

    reactive_idm: a vehicle takes the lane whose direction matches its heading
    (cos >= 0.5) with the least |lateral| within 3 m, ties to the lower lane
    id. It follows that lane with IDM against the nearest entity ahead in its
    corridor (other agents and the ego; the first one on equal gaps) and
    steers by pure pursuit. Vehicles off every lane and pedestrians move at
    constant velocity; static agents do not move.
    replay: every non-static agent continues at its scripted constant velocity.
    A list of static agents alone comes back as it is, before any array is
    built.

    One pass serves every vehicle: one projection of the agents and the ego
    onto every lane (Scenario.project_onto_lanes, which keeps the ego's for
    the next tick's topology), the lane choice as one masked
    argmin over the lanes in id order, then the lead search, IDM and pure
    pursuit once over all laned vehicles, each on its own lane's row.
    """
    if policy not in AGENT_POLICIES:
        raise ValueError(f"unknown agent policy {policy!r}")
    agents = list(agents)
    if all(a.kind == "static" for a in agents):
        return agents  # the same objects, as below: static agents never move
    n = len(agents)
    lanes = scenario.lanes
    veh = [i for i, a in enumerate(agents) if a.kind == "vehicle"] if policy == "reactive_idm" and lanes else []
    # The entities a vehicle may follow: every agent, then the ego.
    ent = [[a.pose.x, a.pose.y, a.pose.heading, a.speed, a.half_length, a.half_width] for a in agents]
    if veh and ego is not None:
        ent.append([ego.pose.x, ego.pose.y, ego.pose.heading, ego.speed, ego.half_length, ego.half_width])
    ent = np.array(ent)
    x, y, h, v, hl, hw = ent[:n].T
    heading, speed = h.copy(), v.copy()
    if veh:
        veh = np.array(veh)
        _, _, eh, ev, ehl, ehw = ent.T
        s_e, lat_e, head_e, _ = scenario.project_onto_lanes(ent[:, :2])

        # The first least |lateral| over the eligible lanes in id order.
        by_id = np.array(sorted(range(len(lanes)), key=lambda k: lanes[k].id))
        lanes_by_id_veh = (by_id[:, None], veh)
        lat = np.abs(lat_e[lanes_by_id_veh])
        eligible = (lat <= 3.0) & (np.cos(h[veh] - head_e[lanes_by_id_veh]) >= 0.5)
        pick = np.where(eligible, lat, np.inf).argmin(axis=0)
        on_lane = eligible[pick, np.arange(len(veh))]
        rows, lane_of = veh[on_lane], by_id[pick[on_lane]]

        if len(rows):
            r = np.arange(len(rows))
            s_lane, lat_lane, head_lane = s_e[lane_of], lat_e[lane_of], head_e[lane_of]  # (rows, entities)
            s_self = s_lane[r, rows]
            # A vehicle's own column has d = -2 half lengths, so it never leads.
            d = s_lane - s_self[:, None] - ehl - hl[rows, None]
            lead = (np.abs(lat_lane) <= hw[rows, None] + ehw + CORRIDOR_MARGIN) & (d > 0)
            g = np.where(lead, d, np.inf)
            j = g.argmin(axis=1)
            gap = g[r, j]
            # Without a lead the gap stays inf and v_lead drops out of IDM.
            v_lead = ev[j] * np.cos(eh[j] - head_lane[r, j])
            v0 = np.array([min(_AGENT_IDM.v0, lane.speed_limit) for lane in lanes])[lane_of]
            a_cmd = idm_accel(v[rows], v_lead, np.maximum(gap, 0.05), _AGENT_IDM, v0)
            speed[rows] = np.maximum(0.0, v[rows] + a_cmd * dt)

            # Pure-pursuit steer toward a point ahead on the lane.
            look = np.maximum(3.0, 1.5 * v[rows])
            lane_end = np.array([lane.length for lane in lanes])[lane_of]
            s_target = np.minimum(s_self + look, lane_end)
            target = np.empty((len(rows), 2))
            for k in set(lane_of.tolist()):
                on_k = lane_of == k
                target[on_k] = lanes[k].segments.points_at(s_target[on_k])
            alpha = normalize_angles(np.arctan2(target[:, 1] - y[rows], target[:, 0] - x[rows]) - h[rows])
            wheelbase = np.maximum(1.0, hl[rows])
            steer = np.arctan2(2.0 * wheelbase * np.sin(alpha), look)
            steer = np.minimum(np.maximum(steer, -STEER_LIMIT), STEER_LIMIT)
            heading[rows] = normalize_angles(h[rows] + v[rows] / wheelbase * np.tan(steer) * dt)
    x_new = (x + v * np.cos(h) * dt).tolist()
    y_new = (y + v * np.sin(h) * dt).tolist()
    heading, speed = heading.tolist(), speed.tolist()
    return [
        a if a.kind == "static"
        else AgentState(a.id, Pose2(x_new[i], y_new[i], heading[i]), speed[i], a.half_length, a.half_width, a.kind)
        for i, a in enumerate(agents)
    ]


# --------------------------------------------------------------------------
# Episode loop


def _ego_record(ego: EgoState):
    return [ego.pose.x, ego.pose.y, ego.pose.heading, ego.speed, ego.accel, ego.steering]


def _agents_record(agents):
    return [
        [a.id, a.pose.x, a.pose.y, a.pose.heading, a.speed, a.half_length, a.half_width, a.kind]
        for a in agents
    ]


def record_ego(rec: dict, ego: EgoState) -> EgoState:
    """Rebuild the ego state of one tick record; dimensions come from `ego`."""
    x, y, heading, speed, accel, steering = rec["ego"]
    return replace(ego, pose=Pose2(x, y, heading), speed=speed, accel=accel, steering=steering)


def record_agents(rec: dict):
    """Rebuild AgentState values from one tick record's agents field."""
    out = []
    for aid, x, y, heading, speed, hl, hw, kind in rec["agents"]:
        out.append(
            AgentState(
                id=aid, pose=Pose2(x, y, heading), speed=speed,
                half_length=hl, half_width=hw, kind=kind,
            )
        )
    return out


def _ego_collides(ego: EgoState, agents) -> bool:
    """True iff the ego's box overlaps some agent's (boxes_overlap).

    Agents whose centre lies farther from the ego's than the two
    circumradii plus BROAD_PHASE_SLACK are dropped first, as
    scoring._agents_in_reach drops them, and with none left no array is
    built. The cut is exact: a box lies within its circumradius of its
    centre, and CONTACT_TOL widens boxes_overlap's four axis tests by 1e-9 m,
    which moves the touching set at most sqrt(2) * 1e-9 m beyond the circles
    (adjacent axes of the two boxes meet at 90 degrees or less), far inside
    the slack; a kept agent's flag does not depend on the others.
    """
    e = ego.pose
    reach = math.hypot(ego.half_length, ego.half_width) + BROAD_PHASE_SLACK
    agents = [
        a for a in agents
        if math.hypot(a.pose.x - e.x, a.pose.y - e.y) <= reach + math.hypot(a.half_length, a.half_width)
    ]
    if not agents:
        return False
    x, y, h, hl, hw = np.array(
        [[a.pose.x, a.pose.y, a.pose.heading, a.half_length, a.half_width] for a in agents]
    ).T
    ca, sa = np.cos(e.heading), np.sin(e.heading)
    hit = boxes_overlap(x - e.x, y - e.y, ca, sa, ego.half_length, ego.half_width, np.cos(h), np.sin(h), hl, hw)
    return bool(hit.any())


def run_episode(scenario: Scenario, planner, cfg: SimConfig = SimConfig()) -> EpisodeLog:
    """Closed-loop episode: plan, track one tick, step agents, record, repeat.

    planner is a Planner instance or a planner kind string. A kind string
    plans with the default PlannerConfig, so its plans are sampled by the
    default ProposalConfig (horizon and dt), whatever cfg.dt is. Terminates
    at the scenario duration, on collision, or on reaching the goal; deadlock
    and off-road are recorded as events but do not terminate. An OffMapError
    from the planner ends the episode with an off_map_error event.
    """
    if isinstance(planner, str):
        planner = Planner(scenario, kind=planner)
    log = EpisodeLog(scenario=scenario, planner_kind=planner.kind, dt=cfg.dt)
    ego = scenario.ego
    agents = list(scenario.agents)
    disturbances = dict(cfg.disturbances)
    n_ticks = int(round(scenario.duration / cfg.dt))
    seen_events = set()
    positions = []  # for deadlock detection
    current_plan = None

    def record_event(tick, name):
        if name not in seen_events:
            seen_events.add(name)
            log.events.append((tick, name))

    for tick in range(n_ticks):
        if tick % cfg.planner_period == 0 or current_plan is None:
            try:
                result = planner.plan(ego, agents, t=tick * cfg.dt)
            except OffMapError:
                record_event(tick, "off_map_error")
                break
            current_plan = result
            if cfg.record_breakdowns and result.proposals is not None:
                for prop, b in zip(result.proposals, result.breakdowns):
                    log.proposal_records.append(
                        {
                            "tick": tick,
                            "index": prop.index,
                            "tag": prop.tag,
                            "path_index": prop.path_index,
                            "offset": prop.offset,
                            "fraction": prop.speed_fraction,
                            **b.to_record(),
                        }
                    )

        winner_breakdown = None
        winner_source = current_plan.trajectory.tag
        if current_plan.breakdowns and current_plan.proposals is not None:
            winner_breakdown = current_plan.breakdowns[current_plan.winner].to_record()
            path = current_plan.proposals.path(current_plan.winner)
            if path is not None:
                winner_source = path.source

        log.records.append(
            {
                "tick": tick,
                "t": round(tick * cfg.dt, 9),
                "ego": _ego_record(ego),
                "agents": _agents_record(agents),
                "tag": current_plan.trajectory.tag,
                "source": winner_source,
                "breakdown": winner_breakdown,
                "relaxed": current_plan.relax.active,
                "replan_root_gap": current_plan.replan_root_gap,
                "path_starts": [[float(p.start[0]), float(p.start[1])] for p in current_plan.paths],
            }
        )

        accel_cmd, steer_cmd = lqr_track(ego, current_plan.trajectory)
        ego = bicycle_step(ego, accel_cmd, steer_cmd, cfg.dt)
        if tick in disturbances:
            jolt = disturbances[tick]
            ego = replace(
                ego,
                pose=Pose2(
                    ego.pose.x - jolt * math.sin(ego.pose.heading),
                    ego.pose.y + jolt * math.cos(ego.pose.heading),
                    ego.pose.heading,
                ),
            )
        agents = step_agents(agents, scenario, cfg.agent_policy, cfg.dt, ego=ego)

        positions.append((ego.pose.x, ego.pose.y))
        if _ego_collides(ego, agents):
            record_event(tick + 1, "collision")
            break
        if not footprint_inside_drivable(ego, scenario):
            record_event(tick + 1, "off_road")
        if math.hypot(ego.pose.x - scenario.goal.x, ego.pose.y - scenario.goal.y) <= cfg.goal_radius:
            record_event(tick + 1, "goal_reached")
            break
        window = int(cfg.deadlock_window / cfg.dt)
        if len(positions) > window:
            x0, y0 = positions[-window - 1]
            if math.hypot(ego.pose.x - x0, ego.pose.y - y0) < cfg.deadlock_displacement:
                record_event(tick + 1, "deadlock")
    return log


# --------------------------------------------------------------------------
# Log serialization (line-delimited JSON; wall-clock timings excluded so
# identical runs give identical bytes)


def save_episode_log(log: EpisodeLog, path) -> None:
    lines = [
        json.dumps(
            {
                "type": "header",
                "planner": log.planner_kind,
                "dt": log.dt,
                "scenario": scenario_to_dict(log.scenario),
            }
        )
    ]
    for rec in log.records:
        lines.append(json.dumps({"type": "tick", **rec}))
    for rec in log.proposal_records:
        lines.append(json.dumps({"type": "proposal", **rec}))
    for tick, name in log.events:
        lines.append(json.dumps({"type": "event", "tick": tick, "name": name}))
    write_text(path, "\n".join(lines) + "\n", "episode log")


# The keys each record type must hold; other keys are kept unread.
_RECORD_KEYS = {
    "header": ("planner", "dt", "scenario"),
    "tick": ("tick", "ego", "agents", "tag", "breakdown"),
    "proposal": ("tick",),
    "event": ("tick", "name"),
}


def _read_line(rec, log: EpisodeLog | None) -> EpisodeLog:
    """log with one parsed line added, or a new log for the header line (log
    None). Every field the program reads is checked; ParseError names it."""
    rec = obj(rec, "", ParseError, optional=None)
    kinds = ("header",) if log is None else ("tick", "proposal", "event")
    kind = string(rec.pop("type", None), "type", ParseError, kinds)
    obj(rec, "", ParseError, _RECORD_KEYS[kind], optional=None)
    if kind == "header":
        planner, dt = string(rec["planner"], "planner", ParseError), number(rec["dt"], "dt", ParseError, above=0)
        try:
            return EpisodeLog(scenario=scenario_from_dict(rec["scenario"]), planner_kind=planner, dt=dt)
        except ValidationError as e:
            raise ParseError(f"scenario: {e}") from e
    integer(rec["tick"], "tick", ParseError, at_least=0)
    if kind == "tick":
        array(rec["ego"], "ego", ParseError, (6,), "[x, y, heading, speed, accel, steering] as finite numbers")
        agents = rec["agents"]
        if not (isinstance(agents, list) and all(isinstance(row, list) and len(row) == 8 for row in agents)):
            what = "a list of [id, x, y, heading, speed, half_length, half_width, kind]"
            raise expected(ParseError, "agents", what, agents)
        for i, row in enumerate(agents):
            for j, v in enumerate(row):
                (string if j in (0, 7) else number)(v, f"agents[{i}][{j}]", ParseError)
        string(rec["tag"], "tag", ParseError, TRAJECTORY_TAGS)
        breakdown = rec["breakdown"]
        if breakdown is not None and not (isinstance(breakdown, dict) and finite(breakdown.get("aggregate"))):
            raise expected(ParseError, "breakdown", "null or an object with a finite aggregate", breakdown)
        # The checks of EgoState and AgentState, e.g. a speed >= 0.
        record_ego(rec, log.scenario.ego)
        record_agents(rec)
        log.records.append(rec)
    elif kind == "proposal":
        log.proposal_records.append(rec)
    else:
        log.events.append((rec["tick"], string(rec["name"], "name", ParseError, EVENT_NAMES)))
    return log


def load_episode_log(path) -> EpisodeLog:
    """Read a log written by save_episode_log.

    Every field the program reads is checked; a malformed line raises
    ParseError naming the line and the field.
    """
    log = None
    for number_, ln in enumerate(read_text(path, "episode log").splitlines(), start=1):
        if ln.strip():
            try:
                log = _read_line(json.loads(ln), log)
            except (json.JSONDecodeError, ParseError, ValidationError) as e:
                raise ParseError(f"malformed episode log {path} line {number_}: {e}") from e
    if log is None:
        raise ParseError(f"episode log {path} is empty")
    return log
