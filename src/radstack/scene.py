"""Domain types for maps, agents, ego state and scenarios, plus scenario I/O
and a deterministic synthetic-scenario generator.

World frame: right-handed, meters, heading 0 = +x, angles in (-pi, pi].
Scenario files are JSON documents with explicit units (schema v1, see README).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IoError, ParseError, ValidationError
from .geometry import (
    normalize_angle,
    point_in_polygon,
    points_in_polygons,
    rect_corners,
    SegmentTable,
)

AGENT_KINDS = ("vehicle", "pedestrian", "static")
LANE_DIRECTIONS = ("route_aligned", "opposing")
TRAJECTORY_TAGS = ("idm", "vocabulary", "learned", "learned_offset", "replay")

MAX_SEGMENT_LENGTH = 25.0  # m, max spacing between centerline points
JOIN_EPSILON = 0.1  # m, successor start must join within this of lane end
DEFAULT_STEERING_LIMIT = 0.6  # rad


@dataclass(frozen=True)
class Pose2:
    """Planar pose; heading is normalized into (-pi, pi] on construction."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        object.__setattr__(self, "heading", normalize_angle(self.heading))

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])


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
        if self.speed < 0:
            raise ValidationError("ego.speed: must be >= 0")
        if self.wheelbase <= 0:
            raise ValidationError("ego.wheelbase: must be > 0")
        if self.half_length <= 0 or self.half_width <= 0:
            raise ValidationError("ego half extents must be > 0")
        if abs(self.steering) > DEFAULT_STEERING_LIMIT + 1e-9:
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

    def retag(self, tag: str) -> "Trajectory":
        return replace(self, tag=tag)


def segment_headings_and_speeds(waypoints: np.ndarray, heading0: float, speed0: float, dt: float):
    """Headings and speeds of waypoints (S+1, 2) or a batch (S+1, n, 2).

    Sample 0 takes heading0 and speed0. Each later sample takes its segment's
    direction, held from the last moving segment through standstill (heading0
    until the first motion), and speed = segment length / dt. Returns arrays
    shaped (S+1,) or (S+1, n).
    """
    d = np.diff(waypoints, axis=0)
    seg = np.hypot(d[..., 0], d[..., 1])
    raw = np.arctan2(d[..., 1], d[..., 0])
    steps = len(seg)
    step_no = np.arange(1, steps + 1).reshape((steps,) + (1,) * (seg.ndim - 1))
    last_move = np.maximum.accumulate(step_no * (seg > 1e-6), axis=0)  # 0 before any motion
    first_heading = np.full((1,) + seg.shape[1:], heading0)
    held = np.take_along_axis(np.concatenate([first_heading, raw]), last_move, axis=0)
    headings = np.concatenate([first_heading, held])
    speeds = np.concatenate([np.full((1,) + seg.shape[1:], speed0), seg / dt])
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
                if pts and np.linalg.norm(pts[-1][-1] - p[0]) < 1e-6:
                    p = p[1:]
                pts.append(p)
                opposing.append(np.full(len(p), lane.direction == "opposing"))
            pts, opposing = np.concatenate(pts), np.concatenate(opposing)
            pts.flags.writeable = opposing.flags.writeable = False
            chain = (SegmentTable(pts), opposing, min(lane.speed_limit for lane in lanes))
            self._chains[lane_ids] = chain
        return chain

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
            gap = float(np.linalg.norm(succ.start.xy - lane.end.xy))
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
    lo = np.min([poly.min(axis=0) for poly in s.drivable_area], axis=0)
    hi = np.max([poly.max(axis=0) for poly in s.drivable_area], axis=0)
    gx, gy = s.goal.x, s.goal.y
    if not (lo[0] <= gx <= hi[0] and lo[1] <= gy <= hi[1]):
        raise ValidationError("goal: lies outside the drivable-area bounding box")
    if not any(point_in_polygon((s.ego.pose.x, s.ego.pose.y), poly) for poly in s.drivable_area):
        raise ValidationError("ego.pose: start pose not inside drivable_area")
    if s.duration <= 0:
        raise ValidationError("duration: must be > 0")
    seen = set()
    for a in s.agents:
        if a.id in seen:
            raise ValidationError(f"agents[{a.id}]: duplicate agent id")
        seen.add(a.id)


def agent_footprint(a) -> np.ndarray:
    """Oriented-rectangle footprint (4 world-frame corners, counterclockwise).

    Accepts AgentState or EgoState.
    """
    return rect_corners(a.pose.x, a.pose.y, a.pose.heading, a.half_length, a.half_width)


def footprint_inside_drivable(a, scenario: Scenario) -> bool:
    """True iff every footprint corner lies in the drivable union (boundary inclusive)."""
    return bool(points_in_polygons(agent_footprint(a), scenario.drivable_area).all())


# --------------------------------------------------------------------------
# Serialization (schema v1). Key order is fixed so save -> load -> save is
# byte-identical; floats use repr round-tripping via json.


def _pose_to_list(p: Pose2):
    return [p.x, p.y, p.heading]


def _number(v, path: str) -> float:
    """v as a finite float; ValidationError naming path otherwise."""
    try:
        x = float(v)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{path}: expected a number, got {v!r}") from e
    if not math.isfinite(x):
        raise ValidationError(f"{path}: must be finite, got {x}")
    return x


def _integer(v, path: str) -> int:
    """v as an int; ValidationError naming path for bools, non-integral or non-finite values."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v) or v != int(v):
        raise ValidationError(f"{path}: expected an integer, got {v!r}")
    return int(v)


def _list(v, path: str) -> list:
    if not isinstance(v, list):
        raise ValidationError(f"{path}: expected a list, got {type(v).__name__}")
    return v


def _object(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ValidationError(f"{path}: expected an object, got {type(v).__name__}")
    return v


def _pose_from_list(v, path: str) -> Pose2:
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise ValidationError(f"{path}: expected [x, y, heading]")
    return Pose2(*(_number(x, f"{path}[{k}]") for k, x in enumerate(v)))


def _polygon_from_list(v, path: str) -> np.ndarray:
    try:
        poly = np.asarray(_list(v, path), dtype=float)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{path}: expected a list of [x, y] points") from e
    if poly.ndim != 2 or poly.shape[1] != 2:
        raise ValidationError(f"{path}: expected a list of [x, y] points")
    if not np.isfinite(poly).all():
        raise ValidationError(f"{path}: points must be finite")
    return poly


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "lanes": [
            {
                "id": lane.id,
                "centerline": [_pose_to_list(p) for p in lane.centerline],
                "speed_limit": lane.speed_limit,
                "successors": list(lane.successors),
                "left_adjacent": lane.left_adjacent,
                "right_adjacent": lane.right_adjacent,
                "direction": lane.direction,
            }
            for lane in s.lanes
        ],
        "drivable_area": [[[float(x), float(y)] for x, y in poly] for poly in s.drivable_area],
        "crosswalks": [[[float(x), float(y)] for x, y in poly] for poly in s.crosswalks],
        "agents": [
            {
                "id": a.id,
                "pose": _pose_to_list(a.pose),
                "speed": a.speed,
                "half_length": a.half_length,
                "half_width": a.half_width,
                "kind": a.kind,
            }
            for a in s.agents
        ],
        "ego": {
            "pose": _pose_to_list(s.ego.pose),
            "speed": s.ego.speed,
            "accel": s.ego.accel,
            "steering": s.ego.steering,
            "wheelbase": s.ego.wheelbase,
            "half_length": s.ego.half_length,
            "half_width": s.ego.half_width,
        },
        "route": list(s.route),
        "goal": _pose_to_list(s.goal),
        "duration": s.duration,
        "seed": s.seed,
    }


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    known = {
        "lanes",
        "drivable_area",
        "crosswalks",
        "agents",
        "ego",
        "route",
        "goal",
        "duration",
        "seed",
    }
    unknown = set(doc) - known
    if unknown:
        raise ValidationError(f"unknown top-level keys: {sorted(unknown)}")
    missing = known - set(doc)
    if missing:
        raise ValidationError(f"missing top-level keys: {sorted(missing)}")

    lanes = []
    for i, d in enumerate(_list(doc["lanes"], "lanes")):
        d = _object(d, f"lanes[{i}]")
        try:
            speed_limit = _number(d["speed_limit"], f"lanes[{i}].speed_limit")
            if speed_limit < 0:
                raise ValidationError(f"lanes[{i}].speed_limit: must be >= 0, got {speed_limit}")
            lanes.append(
                Lane(
                    id=str(d["id"]),
                    centerline=tuple(
                        _pose_from_list(p, f"lanes[{i}].centerline[{j}]")
                        for j, p in enumerate(_list(d["centerline"], f"lanes[{i}].centerline"))
                    ),
                    speed_limit=speed_limit,
                    successors=tuple(
                        str(x) for x in _list(d.get("successors", []), f"lanes[{i}].successors")
                    ),
                    left_adjacent=d.get("left_adjacent"),
                    right_adjacent=d.get("right_adjacent"),
                    direction=str(d.get("direction", "route_aligned")),
                )
            )
        except KeyError as e:
            raise ValidationError(f"lanes[{i}]: missing key {e.args[0]!r}") from e
    agents = []
    for i, d in enumerate(_list(doc["agents"], "agents")):
        d = _object(d, f"agents[{i}]")
        try:
            agents.append(
                AgentState(
                    id=str(d["id"]),
                    pose=_pose_from_list(d["pose"], f"agents[{i}].pose"),
                    speed=_number(d["speed"], f"agents[{i}].speed"),
                    half_length=_number(d["half_length"], f"agents[{i}].half_length"),
                    half_width=_number(d["half_width"], f"agents[{i}].half_width"),
                    kind=str(d.get("kind", "vehicle")),
                )
            )
        except KeyError as e:
            raise ValidationError(f"agents[{i}]: missing key {e.args[0]!r}") from e
    e = _object(doc["ego"], "ego")
    try:
        ego = EgoState(
            pose=_pose_from_list(e["pose"], "ego.pose"),
            speed=_number(e["speed"], "ego.speed"),
            accel=_number(e.get("accel", 0.0), "ego.accel"),
            steering=_number(e.get("steering", 0.0), "ego.steering"),
            wheelbase=_number(e["wheelbase"], "ego.wheelbase"),
            half_length=_number(e["half_length"], "ego.half_length"),
            half_width=_number(e["half_width"], "ego.half_width"),
        )
    except KeyError as err:
        raise ValidationError(f"ego: missing key {err.args[0]!r}") from err

    scenario = Scenario(
        lanes=tuple(lanes),
        drivable_area=tuple(
            _polygon_from_list(p, f"drivable_area[{i}]")
            for i, p in enumerate(_list(doc["drivable_area"], "drivable_area"))
        ),
        crosswalks=tuple(
            _polygon_from_list(p, f"crosswalks[{i}]")
            for i, p in enumerate(_list(doc["crosswalks"], "crosswalks"))
        ),
        agents=tuple(agents),
        ego=ego,
        route=tuple(str(x) for x in _list(doc["route"], "route")),
        goal=_pose_from_list(doc["goal"], "goal"),
        duration=_number(doc["duration"], "duration"),
        seed=_integer(doc["seed"], "seed"),
    )
    validate_scenario(scenario)
    return scenario


def save_scenario(s: Scenario, path) -> None:
    validate_scenario(s)
    text = json.dumps(scenario_to_dict(s), indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise IoError(f"cannot write scenario file {path}: {e}") from e


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise IoError(f"cannot read scenario file {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed scenario file {path}: {e}") from e
    return scenario_from_dict(doc)


# --------------------------------------------------------------------------
# Synthetic scenarios. Pure functions of (kind, seed).

SCENARIO_KINDS = ("blocked_lane", "lane_change_required", "intersection_turn", "deadlock_pair")

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


def generate_synthetic_scenario(kind: str, seed: int) -> Scenario:
    """Deterministic desk-scale scenario for the given kind and seed."""
    if kind not in _GENERATORS:
        raise ValidationError(f"kind: unknown scenario kind {kind!r} (expected one of {SCENARIO_KINDS})")
    kind_index = SCENARIO_KINDS.index(kind)
    rng = np.random.default_rng(np.random.SeedSequence([kind_index, seed & 0xFFFFFFFF]))
    scenario = _GENERATORS[kind](rng, seed)
    validate_scenario(scenario)
    return scenario
