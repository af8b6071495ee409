"""Deterministic closed-loop episode runner: kinematic-bicycle ego dynamics,
an LQR trajectory tracker, reactive IDM or replay background agents, event
detection, and per-tick planner invocation.

Episode logs serialize as line-delimited JSON. Wall-clock planner timings are
kept in memory only so identical runs produce byte-identical log files.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import IoError, OffMapError, ParseError, ValidationError
from .geometry import (
    boxes_overlap,
    normalize_angle,
    normalize_angles,
    project_points_to_polyline,
    SegmentTable,
)
from .planner import Planner, PlannerConfig
from .proposals import CORRIDOR_MARGIN, IdmParams, idm_accel
from .scene import (
    AgentState,
    EgoState,
    Pose2,
    TRAJECTORY_TAGS,
    Scenario,
    Trajectory,
    footprint_inside_drivable,
    scenario_from_dict,
    scenario_to_dict,
)

MAX_ACCEL_CMD = 3.0  # m/s^2
MAX_BRAKE_CMD = 6.0  # m/s^2
STEER_LIMIT = 0.6  # rad

AGENT_POLICIES = ("reactive_idm", "replay")
EVENT_NAMES = ("collision", "off_road", "goal_reached", "deadlock", "off_map_error")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.1
    planner_period: int = 1  # planner ticks every N sim ticks
    horizon: float = 4.0
    agent_policy: str = "reactive_idm"
    disturbances: tuple = ()  # ((tick, lateral metres), ...)
    goal_radius: float = 3.0
    deadlock_window: float = 10.0
    deadlock_displacement: float = 0.5
    record_breakdowns: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("SimConfig.dt must be positive")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("SimConfig.horizon must be a multiple of dt")
        if self.agent_policy not in AGENT_POLICIES:
            raise ValueError(f"unknown agent policy {self.agent_policy!r}")


@dataclass
class EpisodeLog:
    scenario: Scenario
    planner_kind: str
    dt: float
    records: list = field(default_factory=list)  # per-tick dicts
    events: list = field(default_factory=list)  # (tick, name)
    plan_times: list = field(default_factory=list)  # seconds, in memory only
    proposal_records: list = field(default_factory=list)

    @property
    def event_names(self):
        return [name for _, name in self.events]

    def ego_states(self):
        return [record_ego(r, self.scenario.ego) for r in self.records]


def bicycle_step(
    ego: EgoState,
    accel_cmd: float,
    steer_cmd: float,
    dt: float,
    max_accel: float = MAX_ACCEL_CMD,
    max_brake: float = MAX_BRAKE_CMD,
    steer_limit: float = STEER_LIMIT,
) -> EgoState:
    """One kinematic-bicycle integration step; commands clamped, no reverse."""
    a = min(max_accel, max(-max_brake, accel_cmd))
    steer = min(steer_limit, max(-steer_limit, steer_cmd))
    x = ego.pose.x + ego.speed * math.cos(ego.pose.heading) * dt
    y = ego.pose.y + ego.speed * math.sin(ego.pose.heading) * dt
    heading = normalize_angle(
        ego.pose.heading + ego.speed / ego.wheelbase * math.tan(steer) * dt
    )
    v = max(0.0, ego.speed + a * dt)
    return replace(ego, pose=Pose2(x, y, heading), speed=v, accel=a, steering=steer)


@dataclass(frozen=True)
class LqrConfig:
    q_lateral: float = 1.0
    q_heading: float = 0.5
    r_steer: float = 2.0
    k_speed: float = 1.5
    iterations: int = 50  # cap on Riccati doubling steps; lqr_gain raises past it
    lookahead_steps: int = 5  # speed reference index offset
    low_speed: float = 0.1
    low_speed_gain: tuple = (0.6, 1.2)


RICCATI_RTOL = 1e-13  # relative step in trace(H) at which the doubling has converged


def lqr_gain(speed: float, dt: float, wheelbase: float, cfg: LqrConfig, iterations=None) -> np.ndarray:
    """Infinite-horizon feedback gain for the [cross-track, heading] error state.

    Solves the discrete algebraic Riccati equation for P by the doubling
    iteration (G0 = B R^-1 B^T, H0 = Q, W = I + G H):
        A' = A W^-1 A,  G' = G + A W^-1 G A^T,  H' = H + A^T H W^-1 A,
    which converges quadratically with H -> P. It stops once the relative step
    in H is at most RICCATI_RTOL, measured in the trace (H and each step are
    positive semidefinite, so the trace bounds every entry), and returns
    K = (R + B^T P B)^-1 B^T P A, (2,).
    `iterations` (default cfg.iterations) caps the doubling steps; reaching
    the cap raises ValueError, as at speed 0 where B = 0 and no stabilising
    gain exists. The 2x2 iteration is unrolled in scalars (the control is
    1-dimensional).
    """
    n = cfg.iterations if iterations is None else iterations
    ad = speed * dt  # A = [[1, ad], [0, 1]]
    beta = speed * dt / wheelbase  # B = [0, beta]
    r = cfg.r_steer
    a00, a01, a10, a11 = 1.0, ad, 0.0, 1.0
    g00, g01, g11 = 0.0, 0.0, beta * beta / r
    h00, h01, h11 = cfg.q_lateral, 0.0, cfg.q_heading
    for _ in range(n):
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
        f"Riccati doubling did not converge in {n} steps at speed {speed} m/s"
    )


def lqr_track(ego: EgoState, reference: Trajectory, cfg: LqrConfig = LqrConfig()) -> tuple:
    """(accel_cmd, steer_cmd) tracking the reference trajectory.

    Lateral: LQR on [cross-track error, heading error] linearized at the
    current speed, plus curvature feedforward. Longitudinal: proportional to
    the speed error at a short lookahead. Commands are clamped by bicycle_step.
    """
    pts = reference.positions
    table = SegmentTable(pts)
    s_cum = table.s
    (s,), (e_lat,), (ref_head,), _ = project_points_to_polyline(np.array([[ego.pose.x, ego.pose.y]]), table)
    e_head = normalize_angle(ego.pose.heading - ref_head)

    idx = int(np.clip(np.searchsorted(s_cum, s, side="right") - 1, 0, len(pts) - 2))
    look = min(idx + cfg.lookahead_steps, len(pts) - 1)
    v_ref = float(reference.speeds[look])
    accel_cmd = cfg.k_speed * (v_ref - ego.speed)

    # Curvature feedforward from the reference headings around the projection.
    heads = reference.headings
    j = min(idx + 1, len(heads) - 1)
    ds = max(s_cum[j] - s_cum[idx], 1e-6) if j > idx else 1e-6
    kappa = normalize_angle(heads[j] - heads[idx]) / ds if j > idx else 0.0
    kappa = float(np.clip(kappa, -0.5, 0.5))

    if ego.speed < cfg.low_speed:
        k1, k2 = cfg.low_speed_gain
        steer_fb = -k1 * e_lat - k2 * e_head
    else:
        k = lqr_gain(ego.speed, reference.dt, ego.wheelbase, cfg)
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
    """
    if policy not in AGENT_POLICIES:
        raise ValueError(f"unknown agent policy {policy!r}")
    agents = list(agents)
    if not agents:
        return []
    x, y, h, v, hl, hw = np.array(
        [[a.pose.x, a.pose.y, a.pose.heading, a.speed, a.half_length, a.half_width] for a in agents]
    ).T
    heading, speed = h.copy(), v.copy()
    veh = [i for i, a in enumerate(agents) if a.kind == "vehicle"] if policy == "reactive_idm" else []
    if veh:
        veh = np.asarray(veh)
        # The entities a vehicle may follow: every agent, then the ego.
        ent = (x, y, h, v, hl, hw)
        if ego is not None:
            e = (ego.pose.x, ego.pose.y, ego.pose.heading, ego.speed, ego.half_length, ego.half_width)
            ent = tuple(np.append(col, val) for col, val in zip(ent, e))
        ex, ey, eh, ev, ehl, ehw = ent
        lanes = scenario.lanes
        proj = [project_points_to_polyline(np.stack([ex, ey], axis=1), lane.segments) for lane in lanes]

        # Lanes in id order; only a strictly smaller |lateral| takes over.
        best = np.full(len(veh), np.inf)
        lane_of = np.full(len(veh), -1)
        for k in sorted(range(len(lanes)), key=lambda k: lanes[k].id):
            _, lat, head, _ = proj[k]
            lat = np.abs(lat[veh])
            take = (lat <= 3.0) & (np.cos(h[veh] - head[veh]) >= 0.5) & (lat < best)
            best[take] = lat[take]
            lane_of[take] = k

        for k in np.unique(lane_of[lane_of >= 0]):
            lane = lanes[k]
            rows = veh[lane_of == k]
            s_e, lat_e, head_e, _ = proj[k]
            s_self = s_e[rows]
            # A vehicle's own column has d = -2 half lengths, so it never leads.
            d = s_e - s_self[:, None] - ehl - hl[rows, None]
            lead = (np.abs(lat_e) <= hw[rows, None] + ehw + CORRIDOR_MARGIN) & (d > 0)
            g = np.where(lead, d, np.inf)
            j = np.argmin(g, axis=1)
            gap = g[np.arange(len(rows)), j]
            # Without a lead the gap stays inf and v_lead drops out of IDM.
            v_lead = ev[j] * np.cos(eh[j] - head_e[j])
            p = replace(_AGENT_IDM, v0=min(_AGENT_IDM.v0, lane.speed_limit))
            a_cmd = idm_accel(v[rows], v_lead, np.maximum(gap, 0.05), p)
            speed[rows] = np.maximum(0.0, v[rows] + a_cmd * dt)

            # Pure-pursuit steer toward a point ahead on the lane.
            look = np.maximum(3.0, 1.5 * v[rows])
            s_target = np.minimum(s_self + look, lane.s[-1])
            x_t, y_t = lane.segments.points_at(s_target).T
            alpha = normalize_angles(np.arctan2(y_t - y[rows], x_t - x[rows]) - h[rows])
            wheelbase = np.maximum(1.0, hl[rows])
            steer = np.clip(np.arctan2(2.0 * wheelbase * np.sin(alpha), look), -STEER_LIMIT, STEER_LIMIT)
            heading[rows] = normalize_angles(h[rows] + v[rows] / wheelbase * np.tan(steer) * dt)
    x_new = (x + v * np.cos(h) * dt).tolist()
    y_new = (y + v * np.sin(h) * dt).tolist()
    heading, speed = heading.tolist(), speed.tolist()
    return [
        a if a.kind == "static"
        else replace(a, pose=Pose2(x_new[i], y_new[i], heading[i]), speed=speed[i])
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
    if not agents:
        return False
    x, y, h, hl, hw = np.array(
        [[a.pose.x, a.pose.y, a.pose.heading, a.half_length, a.half_width] for a in agents]
    ).T
    e = ego.pose
    return bool(boxes_overlap(x - e.x, y - e.y, e.heading, ego.half_length, ego.half_width, h, hl, hw).any())


def run_episode(scenario: Scenario, planner, cfg: SimConfig = SimConfig()) -> EpisodeLog:
    """Closed-loop episode: plan, track one tick, step agents, record, repeat.

    planner is a Planner instance or a planner kind string. Terminates at the
    scenario duration, on collision, or on reaching the goal; deadlock and
    off-road are recorded as events but do not terminate.
    """
    if isinstance(planner, str):
        planner = Planner(scenario, kind=planner, config=PlannerConfig(
            proposal=replace(PlannerConfig().proposal, horizon=cfg.horizon, dt=cfg.dt)
        ))
    log = EpisodeLog(scenario=scenario, planner_kind=planner.kind, dt=cfg.dt)
    ego = scenario.ego
    agents = list(scenario.agents)
    disturbances = dict(cfg.disturbances)
    lqr_cfg = LqrConfig()
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
            t0 = time.perf_counter()
            try:
                result = planner.plan(ego, agents, t=tick * cfg.dt)
            except OffMapError:
                record_event(tick, "off_map_error")
                break
            log.plan_times.append(time.perf_counter() - t0)
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

        accel_cmd, steer_cmd = lqr_track(ego, current_plan.trajectory, lqr_cfg)
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
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as e:
        raise IoError(f"cannot write episode log {path}: {e}") from e


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_agent_row(v) -> bool:
    return (
        isinstance(v, list) and len(v) == 8 and isinstance(v[0], str)
        and all(map(_is_number, v[1:7])) and isinstance(v[7], str)
    )


# Episode-log fields the program reads: (description for the error message, predicate).
_LOG_FIELDS = {
    "planner": ("a string", lambda v: isinstance(v, str)),
    "dt": ("a finite number > 0", lambda v: _is_number(v) and v > 0),
    "scenario": ("an object", lambda v: isinstance(v, dict)),
    "tick": ("an integer >= 0", lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0),
    "ego": ("[x, y, heading, speed, accel, steering] as finite numbers",
            lambda v: isinstance(v, list) and len(v) == 6 and all(map(_is_number, v))),
    "agents": ("a list of [id, x, y, heading, speed, half_length, half_width, kind]",
               lambda v: isinstance(v, list) and all(map(_is_agent_row, v))),
    "tag": (f"one of {list(TRAJECTORY_TAGS)}", lambda v: v in TRAJECTORY_TAGS),
    "breakdown": ("null or an object with a finite aggregate",
                  lambda v: v is None or (isinstance(v, dict) and _is_number(v.get("aggregate")))),
    "name": (f"one of {list(EVENT_NAMES)}", lambda v: v in EVENT_NAMES),
}
_RECORD_FIELDS = {
    "header": ("planner", "dt", "scenario"),
    "tick": ("tick", "ego", "agents", "tag", "breakdown"),
    "proposal": ("tick",),
    "event": ("tick", "name"),
}


def load_episode_log(path) -> EpisodeLog:
    """Read a log written by save_episode_log.

    Every field the program reads is checked; a malformed line raises
    ParseError naming the line and the field.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise IoError(f"cannot read episode log {path}: {e}") from e
    records = []
    for number, ln in enumerate(lines, start=1):
        if not ln.strip():
            continue
        where = f"malformed episode log {path} line {number}"
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as e:
            raise ParseError(f"{where}: {e}") from e
        if not isinstance(rec, dict):
            raise ParseError(f"{where}: expected an object, got {type(rec).__name__}")
        kind = rec.pop("type", None)
        allowed = ("header",) if not records else ("tick", "proposal", "event")
        if kind not in allowed:
            raise ParseError(f"{where}: type: expected one of {list(allowed)}, got {kind!r}")
        for key in _RECORD_FIELDS[kind]:
            if key not in rec:
                raise ParseError(f"{where}: {key}: missing")
            desc, ok = _LOG_FIELDS[key]
            if not ok(rec[key]):
                raise ParseError(f"{where}: {key}: expected {desc}, got {rec[key]!r}")
        if kind == "header":
            try:
                scenario = scenario_from_dict(rec["scenario"])
            except (ParseError, ValidationError) as e:
                raise ParseError(f"{where}: scenario: {e}") from e
        elif kind == "tick":
            try:  # the checks of EgoState and AgentState, e.g. a speed >= 0
                record_ego(rec, scenario.ego)
                record_agents(rec)
            except ValidationError as e:
                raise ParseError(f"{where}: {e}") from e
        records.append((kind, rec))
    if not records:
        raise ParseError(f"episode log {path} is empty")
    header = records[0][1]
    log = EpisodeLog(scenario=scenario, planner_kind=header["planner"], dt=float(header["dt"]))
    for kind, rec in records[1:]:
        if kind == "tick":
            log.records.append(rec)
        elif kind == "proposal":
            log.proposal_records.append(rec)
        else:
            log.events.append((rec["tick"], rec["name"]))
    return log
