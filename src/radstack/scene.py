"""Domain types for maps, agents, ego state and scenarios, plus scenario I/O
and a deterministic synthetic-scenario generator.

World frame: right-handed, meters, heading 0 = +x, angles in (-pi, pi].
Scenario files are JSON documents in meters, seconds and radians (schema v1):
lanes, drivable_area, crosswalks, agents, ego, route, goal, duration and seed;
scenario_to_dict writes every key and scenario_from_dict checks them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError, array, expected, integer, items, load_json, number, obj, string, write_text
from .geometry import (
    normalize_angle,
    points_in_polygon,
    polygon_as_aabb,
    project_points_to_polylines,
    rect_corners_batch,
    SegmentStack,
    SegmentTable,
)

AGENT_KINDS = ("vehicle", "pedestrian", "static")
LANE_DIRECTIONS = ("route_aligned", "opposing")
# Trajectory tags in tie-break order: a proposal row's tag code is its position here.
TRAJECTORY_TAGS = ("idm", "learned", "learned_offset", "vocabulary", "replay")

MAX_SEGMENT_LENGTH = 25.0  # m, max spacing between centerline points
JOIN_EPSILON = 0.1  # m, successor start must join within this of lane end
STEER_LIMIT = 0.6  # rad: EgoState checks it, bicycle_step and step_agents' pure pursuit clamp to it


@dataclass(frozen=True)
class Pose2:
    """Planar pose of finite numbers; heading is normalized into (-pi, pi] on construction."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)):
            name = next(name for name in ("x", "y", "heading") if not math.isfinite(getattr(self, name)))
            raise ValidationError(f"pose.{name}: must be finite")
        object.__setattr__(self, "heading", normalize_angle(self.heading))

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])


# The numeric fields each state checks for NaN and inf on construction, with
# math.isfinite per field: step_agents replaces every agent every tick.
_EGO_FINITE = ("speed", "accel", "steering", "wheelbase", "half_length", "half_width")
_AGENT_FINITE = ("speed", "half_length", "half_width")


@dataclass(frozen=True)
class EgoState:
    pose: Pose2
    speed: float  # m/s, >= 0
    accel: float = 0.0  # m/s^2
    steering: float = 0.0  # rad
    wheelbase: float = 2.7  # m, > 0
    half_length: float = 2.3  # m, > 0
    half_width: float = 0.95  # m, > 0

    def __post_init__(self):
        for name in _EGO_FINITE:
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"ego.{name}: must be finite")
        if self.speed < 0:
            raise ValidationError("ego.speed: must be >= 0")
        if self.wheelbase <= 0:
            raise ValidationError("ego.wheelbase: must be > 0")
        if self.half_length <= 0 or self.half_width <= 0:
            raise ValidationError("ego half extents must be > 0")
        if abs(self.steering) > STEER_LIMIT + 1e-9:
            raise ValidationError("ego.steering: exceeds steering limit")


@dataclass(frozen=True)
class AgentState:
    id: str
    pose: Pose2
    speed: float  # m/s
    half_length: float
    half_width: float
    kind: str = "vehicle"  # vehicle | pedestrian | static

    def __post_init__(self):
        for name in _AGENT_FINITE:
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"agents[{self.id}].{name}: must be finite")
        if self.kind not in AGENT_KINDS:
            raise ValidationError(f"agents[{self.id}].kind: unknown kind {self.kind!r}")
        if self.kind == "static" and self.speed != 0.0:
            raise ValidationError(f"agents[{self.id}].speed: static agents have speed = 0")
        if self.half_length <= 0 or self.half_width <= 0:
            raise ValidationError(f"agents[{self.id}]: half extents must be > 0")


@dataclass(frozen=True)
class Lane:
    id: str
    centerline: tuple  # tuple of Pose2 with monotone arclength
    speed_limit: float  # m/s
    successors: tuple = ()
    left_adjacent: str | None = None
    right_adjacent: str | None = None
    direction: str = "route_aligned"

    def __post_init__(self):
        if len(self.centerline) < 2:
            raise ValidationError(f"lanes[{self.id}].centerline: needs >= 2 points")
        if self.direction not in LANE_DIRECTIONS:
            raise ValidationError(f"lanes[{self.id}].direction: unknown {self.direction!r}")
        pts = np.array([[p.x, p.y] for p in self.centerline])
        pts.flags.writeable = False
        segments = SegmentTable(pts)
        if (segments.lengths <= 0).any():
            raise ValidationError(f"lanes[{self.id}].centerline: arclength not monotone")
        if (segments.lengths > MAX_SEGMENT_LENGTH + 1e-9).any():
            raise ValidationError(
                f"lanes[{self.id}].centerline: segment exceeds max length {MAX_SEGMENT_LENGTH} m"
            )
        segments.s.flags.writeable = False
        object.__setattr__(self, "_segments", segments)

    @property
    def points(self) -> np.ndarray:
        """(N, 2) centerline points, built once and read-only."""
        return self._segments.points

    @property
    def s(self) -> np.ndarray:
        """(N,) cumulative arclength of the centerline, read-only."""
        return self._segments.s

    @property
    def segments(self) -> SegmentTable:
        """The centerline's segment table: projection, positions and poses at arclengths."""
        return self._segments

    @property
    def length(self) -> float:
        return float(self._segments.s[-1])

    @property
    def start(self) -> Pose2:
        return self.centerline[0]

    @property
    def end(self) -> Pose2:
        return self.centerline[-1]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed plan: sample i is the state at t = i * dt.

    positions (S+1, 2), headings (S+1,) and speeds (S+1,) hold the samples;
    sample 0 is the current state and S = horizon_steps.
    """

    dt: float
    positions: np.ndarray
    headings: np.ndarray
    speeds: np.ndarray
    tag: str = "idm"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("trajectory.dt: must be > 0")
        for name in ("positions", "headings", "speeds"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.positions)
        if n < 2:
            raise ValidationError("trajectory.positions: needs >= 2 samples")
        if len(self.headings) != n or len(self.speeds) != n:
            raise ValidationError(
                f"trajectory: {n} positions, {len(self.headings)} headings, "
                f"{len(self.speeds)} speeds; lengths must match"
            )
        if self.tag not in TRAJECTORY_TAGS:
            raise ValidationError(f"trajectory.tag: unknown tag {self.tag!r}")

    @property
    def horizon_steps(self) -> int:
        return len(self.positions) - 1


def segment_headings_and_speeds(waypoints: np.ndarray, heading0: float, speed0: float, dt: float):
    """Headings and speeds of waypoints (S+1, 2) or a batch (S+1, n, 2).

    Sample 0 takes heading0 and speed0. Each later sample takes its segment's
    direction, held from the last moving segment through standstill (heading0
    until the first motion), and speed = segment length / dt. Returns arrays
    shaped (S+1,) or (S+1, n).
    """
    d = waypoints[1:] - waypoints[:-1]
    seg = np.hypot(d[..., 0], d[..., 1])
    steps = len(seg)
    step_no = np.arange(1, steps + 1).reshape((steps,) + (1,) * (seg.ndim - 1))
    last_move = np.maximum.accumulate(step_no * (seg > 1e-6), axis=0)  # 0 before any motion
    # raw[k] = (heading0, then each segment's direction)[k]; sample k + 1 holds raw[last_move[k]]
    raw = np.empty(waypoints.shape[:-1])
    raw[0] = heading0
    np.arctan2(d[..., 1], d[..., 0], out=raw[1:])
    width = raw[0].size
    headings = np.empty(raw.shape)
    headings[0] = heading0
    headings[1:] = raw.reshape(-1)[last_move * width + np.arange(width)]
    speeds = np.empty(raw.shape)
    speeds[0] = speed0
    np.divide(seg, dt, out=speeds[1:])
    return headings, speeds


def trajectory_from_arrays(dt: float, xy: np.ndarray, headings: np.ndarray, speeds: np.ndarray, tag: str) -> Trajectory:
    """Trajectory from sample arrays: where the proposals layer materializes a row.

    A thin wrapper on purpose: perfbench's proposals.materialize span is
    recorded around this name as the proposals module looks it up."""
    return Trajectory(dt, xy, headings, speeds, tag)


@dataclass(frozen=True, eq=False)
class Scenario:
    lanes: tuple  # tuple of Lane
    drivable_area: tuple  # tuple of (M, 2) float arrays (simple polygons)
    crosswalks: tuple  # stored but not scored in v1
    agents: tuple  # tuple of AgentState
    ego: EgoState
    route: tuple  # ordered lane-id tuple
    goal: Pose2
    duration: float
    seed: int

    def __post_init__(self):
        # reversed: of duplicate ids (which validate_scenario rejects) the first wins
        object.__setattr__(self, "_lanes", {lane.id: lane for lane in reversed(self.lanes)})
        object.__setattr__(self, "_chains", {})
        object.__setattr__(self, "_reversed", {})
        object.__setattr__(self, "_on_lanes", (None, None))

    def lane_by_id(self, lane_id: str) -> Lane:
        return self._lanes[lane_id]

    def chain(self, lane_ids) -> tuple:
        """(SegmentTable, opposing flag per point, min speed limit) of lanes joined in order.

        A lane's first point is dropped where it lies within 1e-6 m of the
        previous lane's last point. Each chain is built once and kept, its
        arrays read-only.
        """
        lane_ids = tuple(lane_ids)
        chain = self._chains.get(lane_ids)
        if chain is None:
            lanes = [self._lanes[lane_id] for lane_id in lane_ids]
            pts, opposing = [], []
            for lane in lanes:
                p = lane.points
                if pts and math.dist(pts[-1][-1], p[0]) < 1e-6:
                    p = p[1:]
                pts.append(p)
                opposing.append(np.full(len(p), lane.direction == "opposing"))
            pts, opposing = np.concatenate(pts), np.concatenate(opposing)
            pts.flags.writeable = opposing.flags.writeable = False
            chain = (SegmentTable(pts), opposing, min(lane.speed_limit for lane in lanes))
            self._chains[lane_ids] = chain
        return chain

    def reversed_lane(self, lane_id: str) -> SegmentTable:
        """The lane's centerline run backwards (an opposing lane as a bypass
        drives it), as a SegmentTable built once and kept, like chain's."""
        table = self._reversed.get(lane_id)
        if table is None:
            table = SegmentTable(self._lanes[lane_id].points[::-1])
            self._reversed[lane_id] = table
        return table

    @cached_property
    def drivable_boxes(self) -> tuple:
        """polygon_as_aabb of each drivable_area polygon (None if no box), built once."""
        return tuple(polygon_as_aabb(p) for p in self.drivable_area)

    @cached_property
    def lane_stack(self) -> SegmentStack:
        """The lanes' segment tables stacked in lane order, built once: one
        project_points_to_polylines call projects onto every lane."""
        return SegmentStack(lane.segments for lane in self.lanes)

    def project_onto_lanes(self, ps: np.ndarray) -> tuple:
        """project_points_to_polylines(ps, self.lane_stack): (s, lateral,
        heading), each (L, N), and the foot points (L, N, 2).

        The last point's arclengths and foot points go into on_lanes' memo:
        step_agents projects the post-step ego as its last entity, and the
        next tick's graph_search asks on_lanes for that same position. Row k
        of a batch holds the bits of a batch of that point alone, so the
        memo returns what a fresh projection would.
        """
        s, lateral, heading, foot = project_points_to_polylines(ps, self.lane_stack)
        last = s[:, -1], foot[:, -1]
        for a in last:
            a.flags.writeable = False
        object.__setattr__(self, "_on_lanes", (tuple(ps[-1].tolist()), last))
        return s, lateral, heading, foot

    def on_lanes(self, x: float, y: float) -> tuple:
        """(arclength (L,), foot point (L, 2)) of the point (x, y) on every
        lane, in lane order, from one project_onto_lanes call.

        The last point projected onto the lanes is remembered: on a tick,
        graph_search and augment_with_adjacents ask for the same ego
        position and share one projection, and that position is the ego
        that step_agents projected last.
        """
        key, result = self._on_lanes
        if key != (x, y):
            self.project_onto_lanes(np.array([[x, y]]))
            _, result = self._on_lanes
        return result

    @property
    def lane_ids(self) -> tuple:
        return tuple(lane.id for lane in self.lanes)


def validate_scenario(s: Scenario) -> None:
    """Check cross-field invariants; raises ValidationError naming the field."""
    ids = set()
    for lane in s.lanes:
        if lane.id in ids:
            raise ValidationError(f"lanes[{lane.id}]: duplicate lane id")
        ids.add(lane.id)
    for lane in s.lanes:
        for ref, label in (
            *((x, "successors") for x in lane.successors),
            (lane.left_adjacent, "left_adjacent"),
            (lane.right_adjacent, "right_adjacent"),
        ):
            if ref is not None and ref not in ids:
                raise ValidationError(f"lanes[{lane.id}].{label}: unknown lane id {ref!r}")
        for succ_id in lane.successors:
            succ = s.lane_by_id(succ_id)
            gap = math.dist(succ.start.xy, lane.end.xy)
            if gap > JOIN_EPSILON:
                raise ValidationError(
                    f"lanes[{lane.id}].successors: {succ_id!r} starts {gap:.3f} m from lane end"
                )
    if not s.route:
        raise ValidationError("route: must not be empty")
    for i, lane_id in enumerate(s.route):
        if lane_id not in ids:
            raise ValidationError(f"route[{i}]: unknown lane id {lane_id!r}")
    for i in range(len(s.route) - 1):
        lane = s.lane_by_id(s.route[i])
        if s.route[i + 1] not in lane.successors:
            raise ValidationError(
                f"route[{i + 1}]: {s.route[i + 1]!r} is not a successor of {s.route[i]!r}"
            )
    if not s.drivable_area:
        raise ValidationError("drivable_area: must not be empty")
    for i, poly in enumerate(s.drivable_area):
        if len(poly) < 3:
            raise ValidationError(f"drivable_area[{i}]: needs >= 3 points")
    lo = np.min([poly.min(axis=0) for poly in s.drivable_area], axis=0)
    hi = np.max([poly.max(axis=0) for poly in s.drivable_area], axis=0)
    gx, gy = s.goal.x, s.goal.y
    if not (lo[0] <= gx <= hi[0] and lo[1] <= gy <= hi[1]):
        raise ValidationError("goal: lies outside the drivable-area bounding box")
    ego_xy = np.array([[s.ego.pose.x, s.ego.pose.y]])
    if not any(points_in_polygon(ego_xy, poly)[0] for poly in s.drivable_area):
        raise ValidationError("ego.pose: start pose not inside drivable_area")
    if s.duration <= 0:
        raise ValidationError("duration: must be > 0")
    seen = set()
    for a in s.agents:
        if a.id in seen:
            raise ValidationError(f"agents[{a.id}]: duplicate agent id")
        seen.add(a.id)


def agent_footprint(a) -> np.ndarray:
    """Oriented-rectangle footprint: the 4 world-frame corners (4, 2),
    counterclockwise, of rect_corners_batch on the one pose, with the
    heading's np.cos and np.sin, as score_proposals takes them.

    Accepts AgentState or EgoState.
    """
    p = a.pose
    cs = np.array([np.cos(p.heading), np.sin(p.heading)])
    return rect_corners_batch(np.array([p.x, p.y]), cs, a.half_length, a.half_width).T


def footprint_inside_drivable(a, scenario: Scenario) -> bool:
    """True iff every footprint corner lies in the drivable union (boundary inclusive).

    One pose, so no array pass per polygon: each corner of agent_footprint
    is tested against Scenario.drivable_boxes in scalars, and only the
    corners no box holds go through points_in_polygon, once per polygon
    without a box. This is points_in_polygons on the corners, to the bit:
    a box test is the same four comparisons on the same floats, and
    points_in_polygon decides each point by its own row of elementwise
    operations, so a corner's answer does not depend on its batch.
    """
    boxes = scenario.drivable_boxes
    left = []
    for x, y in agent_footprint(a).tolist():
        for box in boxes:
            if box is not None and box[0] <= x <= box[2] and box[1] <= y <= box[3]:
                break
        else:
            left.append((x, y))
    for poly, box in zip(scenario.drivable_area, boxes):
        if left and box is None:
            left = [p for p, hit in zip(left, points_in_polygon(np.array(left), poly).tolist()) if not hit]
    return not left


# --------------------------------------------------------------------------
# Serialization (schema v1). Keys follow the dataclasses' field order, so
# save -> load -> save is byte-identical; floats use repr round-tripping via json.


def _to_json(v):
    """v as JSON values: a Pose2 as [x, y, heading], any other dataclass as an
    object of its fields in declaration order, an array as a list of floats,
    a tuple as a list of its elements' values."""
    if isinstance(v, Pose2):
        return [v.x, v.y, v.heading]
    if is_dataclass(v):
        return {f.name: _to_json(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, np.ndarray):
        return v.astype(float).tolist()
    if isinstance(v, tuple):
        return [_to_json(x) for x in v]
    return v


def scenario_to_dict(s: Scenario) -> dict:
    return _to_json(s)


_SCENARIO_KEYS = ("lanes", "drivable_area", "crosswalks", "agents", "ego", "route", "goal", "duration", "seed")
_EGO_NUMBERS = ("speed", "wheelbase", "half_length", "half_width")


def _pose(v, path: str) -> Pose2:
    # Three reads cost less than one numpy conversion of three numbers.
    if not (isinstance(v, list) and len(v) == 3):
        raise expected(ValidationError, path, "[x, y, heading]", v)
    return Pose2(*[number(x, f"{path}[{i}]") for i, x in enumerate(v)])


def _polygon(v, path: str) -> np.ndarray:
    return array(v, path, ValidationError, (None, 2), "a list of [x, y] points")


def _lane(d, path: str) -> Lane:
    refs = ("left_adjacent", "right_adjacent")
    d = obj(d, path, required=("id", "centerline", "speed_limit"), optional=("successors", "direction", *refs))
    centerline = array(d["centerline"], f"{path}.centerline", ValidationError, (None, 3), "a list of [x, y, heading]")
    return Lane(
        id=string(d["id"], f"{path}.id"),
        centerline=tuple(Pose2(x, y, h) for x, y, h in centerline.tolist()),
        speed_limit=number(d["speed_limit"], f"{path}.speed_limit", at_least=0),
        successors=tuple(string(x, p) for p, x in items(d.get("successors", []), f"{path}.successors")),
        direction=string(d.get("direction", "route_aligned"), f"{path}.direction"),
        **{k: None if d.get(k) is None else string(d[k], f"{path}.{k}") for k in refs},
    )


def _agent(d, path: str) -> AgentState:
    d = obj(d, path, required=("id", "pose", "speed", "half_length", "half_width"), optional=("kind",))
    return AgentState(
        id=string(d["id"], f"{path}.id"),
        pose=_pose(d["pose"], f"{path}.pose"),
        speed=number(d["speed"], f"{path}.speed"),
        half_length=number(d["half_length"], f"{path}.half_length"),
        half_width=number(d["half_width"], f"{path}.half_width"),
        kind=string(d.get("kind", "vehicle"), f"{path}.kind"),
    )


def _ego(d) -> EgoState:
    d = obj(d, "ego", required=("pose", *_EGO_NUMBERS), optional=("accel", "steering"))
    numbers = {k: number(d.get(k, 0.0), f"ego.{k}") for k in (*_EGO_NUMBERS, "accel", "steering")}
    return EgoState(pose=_pose(d["pose"], "ego.pose"), **numbers)


def scenario_from_dict(doc: dict) -> Scenario:
    """The Scenario of a schema-v1 document; a bad field raises ValidationError naming it."""
    doc = obj(doc, "", required=_SCENARIO_KEYS)
    scenario = Scenario(
        lanes=tuple(_lane(d, p) for p, d in items(doc["lanes"], "lanes")),
        drivable_area=tuple(_polygon(v, p) for p, v in items(doc["drivable_area"], "drivable_area")),
        crosswalks=tuple(_polygon(v, p) for p, v in items(doc["crosswalks"], "crosswalks")),
        agents=tuple(_agent(d, p) for p, d in items(doc["agents"], "agents")),
        ego=_ego(doc["ego"]),
        route=tuple(string(x, p) for p, x in items(doc["route"], "route")),
        goal=_pose(doc["goal"], "goal"),
        duration=number(doc["duration"], "duration"),
        seed=integer(doc["seed"], "seed"),
    )
    validate_scenario(scenario)
    return scenario


def save_scenario(s: Scenario, path) -> None:
    validate_scenario(s)
    write_text(path, json.dumps(scenario_to_dict(s), indent=2) + "\n", "scenario file")


def load_scenario(path) -> Scenario:
    """Read a scenario file; a bad field raises ValidationError naming the file and the field."""
    return load_json(path, "scenario file", scenario_from_dict, ValidationError)


# --------------------------------------------------------------------------
# Synthetic scenarios. Pure functions of (kind, seed).

_CAR_HALF_LENGTH = 2.3
_CAR_HALF_WIDTH = 1.0


def _straight_lane(lane_id, y, x0, x1, limit, step=10.0, **kw) -> Lane:
    n = max(2, int(round((x1 - x0) / step)) + 1)
    xs = np.linspace(x0, x1, n)
    pts = tuple(Pose2(float(x), float(y), 0.0) for x in xs)
    return Lane(id=lane_id, centerline=pts, speed_limit=limit, **kw)


def _reverse_straight_lane(lane_id, y, x0, x1, limit, step=10.0, **kw) -> Lane:
    n = max(2, int(round((x1 - x0) / step)) + 1)
    xs = np.linspace(x1, x0, n)
    pts = tuple(Pose2(float(x), float(y), math.pi) for x in xs)
    return Lane(id=lane_id, centerline=pts, speed_limit=limit, **kw)


def _rect(x0, y0, x1, y1) -> np.ndarray:
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def _blocked_lane(rng: np.random.Generator, seed: int) -> Scenario:
    # Two same-direction lanes; a static vehicle blocks the route lane.
    limit = 10.0
    lane_w = 3.5
    length = 180.0
    route = _straight_lane("lane_route", 0.0, 0.0, length, limit, left_adjacent="lane_left")
    left = _straight_lane("lane_left", lane_w, 0.0, length, limit, right_adjacent="lane_route")
    blocker_s = float(rng.uniform(42.0, 60.0))
    ego_speed = float(rng.uniform(6.0, 9.0))
    agents = (
        AgentState(
            id="blocker",
            pose=Pose2(blocker_s, 0.0, 0.0),
            speed=0.0,
            half_length=_CAR_HALF_LENGTH,
            half_width=_CAR_HALF_WIDTH,
            kind="static",
        ),
    )
    return Scenario(
        lanes=(route, left),
        drivable_area=(_rect(-5.0, -lane_w / 2, length + 5.0, lane_w * 1.5),),
        crosswalks=(),
        agents=agents,
        ego=EgoState(pose=Pose2(2.0, 0.0, 0.0), speed=ego_speed),
        route=("lane_route",),
        goal=Pose2(135.0, 0.0, 0.0),
        duration=32.0,
        seed=seed,
    )


def _lane_change_required(rng: np.random.Generator, seed: int) -> Scenario:
    # The route lane dead-ends; only the left-adjacent chain reaches the goal.
    limit = 9.0
    lane_w = 3.5
    end_route = float(rng.uniform(55.0, 70.0))
    route = _straight_lane("lane_route", 0.0, 0.0, end_route, limit, left_adjacent="lane_left")
    left = _straight_lane("lane_left", lane_w, 0.0, 170.0, limit, right_adjacent="lane_route")
    return Scenario(
        lanes=(route, left),
        drivable_area=(_rect(-5.0, -lane_w / 2, 175.0, lane_w * 1.5),),
        crosswalks=(),
        agents=(),
        ego=EgoState(pose=Pose2(2.0, 0.0, 0.0), speed=float(rng.uniform(5.0, 8.0))),
        route=("lane_route",),
        goal=Pose2(140.0, lane_w, 0.0),
        duration=45.0,
        seed=seed,
    )


def _intersection_turn(rng: np.random.Generator, seed: int) -> Scenario:
    # Eastbound approach, 90-degree left turn onto a northbound lane.
    limit = 6.0
    r = 8.0
    x_turn = float(rng.uniform(38.0, 46.0))
    approach_pts = [Pose2(float(x), 0.0, 0.0) for x in np.arange(0.0, x_turn - r + 1e-6, 8.0)]
    if approach_pts[-1].x < x_turn - r:
        approach_pts.append(Pose2(x_turn - r, 0.0, 0.0))
    approach = Lane(
        id="lane_approach",
        centerline=tuple(approach_pts),
        speed_limit=limit,
        successors=("lane_turn",),
    )
    angles = np.linspace(-math.pi / 2, 0.0, 9)
    arc = [
        Pose2(
            x_turn - r + r * math.cos(a),
            r + r * math.sin(a),
            a + math.pi / 2,
        )
        for a in angles
    ]
    turn = Lane(id="lane_turn", centerline=tuple(arc), speed_limit=limit, successors=("lane_north",))
    north_pts = tuple(
        Pose2(x_turn - r + r, float(y), math.pi / 2) for y in np.arange(r, 70.0 + 1e-6, 10.0)
    )
    north = Lane(id="lane_north", centerline=north_pts, speed_limit=limit)
    x_north = x_turn  # arc ends at x = x_turn - r + r
    return Scenario(
        lanes=(approach, turn, north),
        drivable_area=(
            _rect(-5.0, -3.0, x_north + 5.0, 3.0),
            _rect(x_north - 5.0, -3.0, x_north + 5.0, 75.0),
        ),
        crosswalks=(_rect(x_north - 12.0, -3.0, x_north - 9.0, 3.0),),
        agents=(),
        ego=EgoState(pose=Pose2(2.0, 0.0, 0.0), speed=float(rng.uniform(3.0, 5.0))),
        route=("lane_approach", "lane_turn", "lane_north"),
        goal=Pose2(x_north, 55.0, math.pi / 2),
        duration=40.0,
        seed=seed,
    )


def _deadlock_pair(rng: np.random.Generator, seed: int) -> Scenario:
    # Bidirectional road. An oncoming vehicle is stalled across the route lane;
    # the only way past runs through the opposing lane, outside the mapped
    # drivable corridor, so escape requires rule relaxation.
    limit = 8.0
    lane_w = 3.6
    length = 140.0
    y_route = -lane_w / 2  # -1.8
    y_opp = lane_w / 2  # +1.8
    route = _straight_lane("lane_route", y_route, 0.0, length, limit, left_adjacent="lane_opp")
    opp = _reverse_straight_lane(
        "lane_opp", y_opp, 0.0, length, limit, right_adjacent="lane_route", direction="opposing"
    )
    blocker_s = float(rng.uniform(36.0, 50.0))
    agents = (
        AgentState(
            id="stalled_oncoming",
            pose=Pose2(blocker_s, -3.4, math.pi),
            speed=0.0,
            half_length=_CAR_HALF_LENGTH,
            half_width=1.15,
            kind="static",
        ),
    )
    return Scenario(
        lanes=(route, opp),
        # Drivable corridor covers the route lane plus shoulder only; the
        # opposing lane is mapped but not ego-drivable.
        drivable_area=(_rect(-5.0, -lane_w - 1.2, length + 5.0, 0.0),),
        crosswalks=(),
        agents=agents,
        ego=EgoState(pose=Pose2(2.0, y_route, 0.0), speed=float(rng.uniform(5.0, 7.0))),
        route=("lane_route",),
        goal=Pose2(100.0, y_route, 0.0),
        duration=45.0,
        seed=seed,
    )


_GENERATORS = {
    "blocked_lane": _blocked_lane,
    "lane_change_required": _lane_change_required,
    "intersection_turn": _intersection_turn,
    "deadlock_pair": _deadlock_pair,
}
SCENARIO_KINDS = tuple(_GENERATORS)


def generate_synthetic_scenario(kind: str, seed: int) -> Scenario:
    """Deterministic desk-scale scenario for the given kind and seed."""
    if kind not in _GENERATORS:
        raise ValidationError(f"kind: unknown scenario kind {kind!r} (expected one of {SCENARIO_KINDS})")
    kind_index = SCENARIO_KINDS.index(kind)
    rng = np.random.default_rng(np.random.SeedSequence([kind_index, seed & 0xFFFFFFFF]))
    scenario = _GENERATORS[kind](rng, seed)
    validate_scenario(scenario)
    return scenario
