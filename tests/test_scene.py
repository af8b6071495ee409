import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radstack.errors import IoError, ParseError, ValidationError
from radstack.geometry import SegmentTable, project_points_to_polyline, project_points_to_polylines
from radstack.scene import (
    SCENARIO_KINDS,
    AgentState,
    EgoState,
    Lane,
    Pose2,
    Scenario,
    Trajectory,
    agent_footprint,
    footprint_inside_drivable,
    generate_synthetic_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    segment_headings_and_speeds,
)
from radstack.simulator import step_agents
from radstack.topology import augment_with_adjacents, graph_search

from conftest import rect, reference_segment_headings_and_speeds, straight_lane, straight_scenario


def test_pose_heading_normalized():
    assert Pose2(0, 0, 3 * math.pi).heading == pytest.approx(math.pi)
    assert Pose2(0, 0, -math.pi).heading == pytest.approx(math.pi)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x", "y", "heading"])
def test_non_finite_pose_numbers_are_rejected_by_name(field, value):
    # A NaN heading would otherwise pass normalize_angle into every plan, and
    # an infinite one raise math's bare "math domain error".
    with pytest.raises(ValidationError, match=rf"^pose\.{field}: must be finite$"):
        Pose2(**{"x": 0.0, "y": 0.0, "heading": 0.0, field: value})


def test_ego_invariants():
    with pytest.raises(ValidationError):
        EgoState(pose=Pose2(0, 0, 0), speed=-1.0)
    with pytest.raises(ValidationError):
        EgoState(pose=Pose2(0, 0, 0), speed=0.0, wheelbase=0.0)


def test_nan_ego_speed_is_rejected():
    ego = generate_synthetic_scenario("blocked_lane", 7).ego
    with pytest.raises(ValidationError, match=r"^ego\.speed: must be finite$"):
        replace(ego, speed=math.nan)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["speed", "accel", "steering", "wheelbase", "half_length", "half_width"])
def test_non_finite_ego_numbers_are_rejected_by_name(field, value):
    ego = EgoState(pose=Pose2(0, 0, 0), speed=5.0)
    with pytest.raises(ValidationError, match=rf"^ego\.{field}: must be finite$"):
        replace(ego, **{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["speed", "half_length", "half_width"])
def test_non_finite_agent_numbers_are_rejected_by_name(field, value):
    agent = AgentState(id="car", pose=Pose2(0, 0, 0), speed=3.0, half_length=2.3, half_width=1.0)
    with pytest.raises(ValidationError, match=rf"^agents\[car\]\.{field}: must be finite$"):
        replace(agent, **{field: value})


def test_static_agent_speed_invariant():
    with pytest.raises(ValidationError):
        AgentState(id="a", pose=Pose2(0, 0, 0), speed=1.0, half_length=2, half_width=1, kind="static")


def test_lane_needs_two_points():
    with pytest.raises(ValidationError):
        Lane(id="l", centerline=(Pose2(0, 0, 0),), speed_limit=10.0)


def test_trajectory_invariants():
    xy, heads, speeds = np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros(2), np.ones(2)
    with pytest.raises(ValidationError):
        Trajectory(dt=0.0, positions=xy, headings=heads, speeds=speeds)
    with pytest.raises(ValidationError):
        Trajectory(dt=0.1, positions=xy[:1], headings=heads[:1], speeds=speeds[:1])
    with pytest.raises(ValidationError):
        Trajectory(dt=0.1, positions=xy, headings=heads, speeds=speeds, tag="nonsense")


def test_trajectory_rejects_unequal_array_lengths():
    xy, heads, speeds = np.zeros((3, 2)), np.zeros(3), np.ones(3)
    with pytest.raises(ValidationError, match="lengths must match"):
        Trajectory(dt=0.1, positions=xy, headings=heads[:2], speeds=speeds)
    with pytest.raises(ValidationError, match="lengths must match"):
        Trajectory(dt=0.1, positions=xy, headings=heads, speeds=np.ones(4))
    with pytest.raises(ValidationError, match="lengths must match"):
        Trajectory(dt=0.1, positions=xy[:2], headings=heads, speeds=speeds)


def test_segment_headings_hold_through_standstill():
    # Still, then east, then north, then stopped: the first heading is the
    # ego's until motion starts; the stop keeps the last moving heading.
    pts = np.array([[0, 0], [0, 0], [1, 0], [1, 1], [1, 1], [1, 1]], dtype=float)
    heads, speeds = segment_headings_and_speeds(pts, 0.25, 3.0, 0.5)
    assert heads.tolist() == [0.25, 0.25, 0.0, math.pi / 2, math.pi / 2, math.pi / 2]
    assert speeds.tolist() == [3.0, 0.0, 2.0, 2.0, 0.0, 0.0]


def test_segment_headings_batch_matches_rows():
    rng = np.random.default_rng(4)
    steps = rng.normal(size=(12, 5, 2))
    steps[rng.random((12, 5)) < 0.3] = 0.0  # standstill segments, some at the start
    steps[:2, 0] = 0.0
    batch = np.concatenate([np.zeros((1, 5, 2)), np.cumsum(steps, axis=0)])
    heads, speeds = segment_headings_and_speeds(batch, -1.0, 2.5, 0.1)
    assert heads.shape == speeds.shape == (13, 5)
    for i in range(5):
        row_heads, row_speeds = segment_headings_and_speeds(batch[:, i], -1.0, 2.5, 0.1)
        assert np.array_equal(heads[:, i], row_heads)
        assert np.array_equal(speeds[:, i], row_speeds)


@st.composite
def _waypoint_case(draw):
    """Waypoints (S+1, 2) or a batch (S+1, n, 2) from random steps.

    Some steps are 0 (a standstill at the start, in the middle or
    throughout) and some lie just above or just below the 1e-6 m motion
    threshold.
    """
    steps = draw(st.integers(1, 40))
    batch = draw(st.one_of(st.none(), st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (steps,) if batch is None else (steps, batch)
    length = rng.uniform(0.0, 3.0, shape)
    tiny = rng.random(shape) < 0.2
    length[tiny] = 1e-6 * (1.0 + rng.choice([-1e-6, 1e-6], shape))[tiny]
    a, b = sorted(rng.integers(0, steps + 1, 2))
    standstill = draw(st.sampled_from(["none", "start", "middle", "all"]))
    if standstill == "start":
        length[: max(b, 1)] = 0.0
    elif standstill == "middle":
        length[a:b] = 0.0
    elif standstill == "all":
        length[:] = 0.0
    angle = rng.uniform(-math.pi, math.pi, shape)
    moves = np.stack([length * np.cos(angle), length * np.sin(angle)], axis=-1)
    start = rng.uniform(-100.0, 100.0, (1,) + shape[1:] + (2,))
    waypoints = np.concatenate([start, start + np.cumsum(moves, axis=0)])
    heading0 = draw(st.floats(-math.pi, math.pi))
    speed0 = draw(st.floats(0.0, 20.0))
    dt = draw(st.sampled_from([0.05, 0.1, 0.5]))
    return waypoints, heading0, speed0, dt


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_waypoint_case())
def test_segment_headings_and_speeds_match_reference_bitwise(case):
    got = segment_headings_and_speeds(*case)
    ref = reference_segment_headings_and_speeds(*case)
    for a, b in zip(got, ref, strict=True):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


MINIMAL = {
    "lanes": [
        {
            "id": "only",
            "centerline": [[0.0, 0.0, 0.0], [20.0, 0.0, 0.0]],
            "speed_limit": 10.0,
            "successors": [],
            "left_adjacent": None,
            "right_adjacent": None,
            "direction": "route_aligned",
        }
    ],
    "drivable_area": [[[-2.0, -3.0], [22.0, -3.0], [22.0, 3.0], [-2.0, 3.0]]],
    "crosswalks": [],
    "agents": [],
    "ego": {
        "pose": [0.0, 0.0, 0.0],
        "speed": 5.0,
        "accel": 0.0,
        "steering": 0.0,
        "wheelbase": 2.7,
        "half_length": 2.3,
        "half_width": 0.95,
    },
    "route": ["only"],
    "goal": [18.0, 0.0, 0.0],
    "duration": 10.0,
    "seed": 1,
}


def test_load_minimal_single_lane(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(MINIMAL))
    s = load_scenario(p)
    assert len(s.lanes) == 1
    assert len(s.agents) == 0


def test_load_unknown_route_lane_names_route(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["route"] = ["missing"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="route"):
        load_scenario(p)


def test_malformed_file_parse_error(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{ not json")
    with pytest.raises(ParseError):
        load_scenario(p)


def test_round_trip_structurally_identical(tmp_path):
    s = generate_synthetic_scenario("blocked_lane", 3)
    p = tmp_path / "s.json"
    save_scenario(s, p)
    s2 = load_scenario(p)
    assert scenario_to_dict(s) == scenario_to_dict(s2)


def test_save_load_save_byte_identical(tmp_path):
    s = generate_synthetic_scenario("deadlock_pair", 5)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_scenario(s, p1)
    save_scenario(load_scenario(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_agents_serialized_as_empty_list(tmp_path):
    s = straight_scenario()
    p = tmp_path / "s.json"
    save_scenario(s, p)
    doc = json.loads(p.read_text())
    assert doc["agents"] == []


def test_unwritable_path_raises_io_error(tmp_path):
    s = straight_scenario()
    with pytest.raises(IoError):
        save_scenario(s, tmp_path / "nodir" / "s.json")


def test_generator_deterministic():
    for kind in SCENARIO_KINDS:
        a = generate_synthetic_scenario(kind, 7)
        b = generate_synthetic_scenario(kind, 7)
        assert scenario_to_dict(a) == scenario_to_dict(b)


def test_generator_round_trip_lossless_100_seeds(tmp_path):
    for seed in range(100):
        kind = SCENARIO_KINDS[seed % len(SCENARIO_KINDS)]
        s = generate_synthetic_scenario(kind, seed)
        p = tmp_path / f"{kind}_{seed}.json"
        save_scenario(s, p)
        assert scenario_to_dict(load_scenario(p)) == scenario_to_dict(s)


def test_blocked_lane_has_one_blocker_on_route_corridor():
    for seed in (0, 7, 13):
        s = generate_synthetic_scenario("blocked_lane", seed)
        statics = [a for a in s.agents if a.kind == "static"]
        assert len(statics) == 1
        lane = s.lane_by_id(s.route[0])
        lateral = abs(statics[0].pose.y - lane.centerline[0].y)
        assert lateral < 1.75  # inside the route lane corridor


def test_lane_change_required_goal_reachable_only_via_adjacent():
    s = generate_synthetic_scenario("lane_change_required", 3)
    paths = graph_search(s.ego, s, horizon_length=200.0)
    aug = augment_with_adjacents(paths, s, s.ego, horizon_length=200.0)
    goal = np.array([s.goal.x, s.goal.y])

    def reaches_goal(path):
        return np.linalg.norm(path.points - goal, axis=1).min() < 5.0

    route_only = [p for p in aug if p.source == "ego_route"]
    adjacent = [p for p in aug if p.source in ("left_adjacent", "right_adjacent")]
    assert route_only and adjacent
    assert not any(reaches_goal(p) for p in route_only)
    assert any(reaches_goal(p) for p in adjacent)


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        generate_synthetic_scenario("wormhole", 0)


def test_agent_footprint_axis_aligned():
    a = AgentState(id="a", pose=Pose2(0, 0, 0), speed=0.0, half_length=2, half_width=1, kind="static")
    corners = agent_footprint(a)
    assert set(map(tuple, np.round(corners, 9))) == {(2, 1), (-2, 1), (-2, -1), (2, -1)}


def test_agent_footprint_rotation():
    a = AgentState(
        id="a", pose=Pose2(0, 0, math.pi / 2), speed=0.0, half_length=2, half_width=1, kind="static"
    )
    corners = agent_footprint(a)
    assert np.abs(corners[:, 0]).max() == pytest.approx(1.0)
    assert np.abs(corners[:, 1]).max() == pytest.approx(2.0)


def test_goal_outside_drivable_bbox_rejected():
    from radstack.scene import validate_scenario

    s = Scenario(
        lanes=(straight_lane(),),
        drivable_area=(rect(-5, -4, 125, 4),),
        crosswalks=(),
        agents=(),
        ego=EgoState(pose=Pose2(0, 0, 0), speed=5.0),
        route=("lane_a",),
        goal=Pose2(500.0, 0.0, 0.0),
        duration=10.0,
        seed=0,
    )
    with pytest.raises(ValidationError, match="goal"):
        validate_scenario(s)


# -- scenario input boundary ------------------------------------------------------


def _minimal_with_agent() -> dict:
    doc = json.loads(json.dumps(MINIMAL))
    doc["agents"] = [
        {
            "id": "car",
            "pose": [12.0, 0.0, 0.0],
            "speed": 2.0,
            "half_length": 2.3,
            "half_width": 1.0,
            "kind": "vehicle",
        }
    ]
    return doc


def _set(doc: dict, keys: tuple, value):
    target = doc
    for k in keys[:-1]:
        target = target[k]
    target[keys[-1]] = value


def test_minimal_with_agent_loads():
    assert len(scenario_from_dict(_minimal_with_agent()).agents) == 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "3.5"])
@pytest.mark.parametrize(
    "keys, field",
    [
        (("lanes", 0, "centerline", 1, 0), r"lanes\[0\]\.centerline\[1\]\[0\]"),
        (("ego", "pose", 2), r"ego\.pose\[2\]"),
        (("ego", "speed"), r"ego\.speed"),
        (("ego", "steering"), r"ego\.steering"),
        (("ego", "half_width"), r"ego\.half_width"),
        (("agents", 0, "pose", 1), r"agents\[0\]\.pose\[1\]"),
        (("agents", 0, "speed"), r"agents\[0\]\.speed"),
        (("agents", 0, "half_length"), r"agents\[0\]\.half_length"),
        (("lanes", 0, "speed_limit"), r"lanes\[0\]\.speed_limit"),
        (("goal", 0), r"goal\[0\]"),
        (("duration",), r"duration"),
    ],
)
def test_non_finite_number_rejected_with_field_path(keys, field, value):
    doc = _minimal_with_agent()
    _set(doc, keys, value)
    # A bool or a numeric string is no number either.
    with pytest.raises(ValidationError, match=f"^{field}: expected a finite number(, | >= 0, )got {value!r}$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("key", ["drivable_area", "crosswalks"])
@pytest.mark.parametrize(
    "polygon, problem",
    [
        ([[0.0, 0.0], [1.0, math.nan], [1.0, 1.0]], "expected a finite number, got nan"),
        ([[0.0, 0.0], [1.0, 0.0, 2.0], [1.0, 1.0]], "expected a list of"),
        ([0.0, 1.0, 2.0], "expected a list of"),
    ],
)
def test_malformed_polygon_rejected_with_field_path(key, polygon, problem):
    doc = _minimal_with_agent()
    doc[key] = [polygon]
    point = r"\[1\]\[1\]" if "finite" in problem else ""  # a bad number is named by its indices
    with pytest.raises(ValidationError, match=f"^{key}\\[0\\]{point}: {problem}"):
        scenario_from_dict(doc)


def test_negative_speed_limit_rejected():
    doc = _minimal_with_agent()
    doc["lanes"][0]["speed_limit"] = -1.0
    with pytest.raises(ValidationError, match=r"^lanes\[0\]\.speed_limit: expected a finite number >= 0, got -1.0$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("key", ["lanes", "agents", "drivable_area", "crosswalks", "route"])
@pytest.mark.parametrize("value", [5, "only", {"id": "only"}, None])
def test_top_level_collection_must_be_a_list(key, value):
    doc = _minimal_with_agent()
    doc[key] = value
    with pytest.raises(ValidationError, match=f"^{key}: expected a list"):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "keys, field",
    [
        (("lanes", 0), r"lanes\[0\]"),
        (("agents", 0), r"agents\[0\]"),
        (("ego",), r"ego"),
    ],
)
@pytest.mark.parametrize("value", [5, [1.0, 2.0], "car", None])
def test_entry_must_be_an_object(keys, field, value):
    doc = _minimal_with_agent()
    _set(doc, keys, value)
    with pytest.raises(ValidationError, match=f"^{field}: expected an object"):
        scenario_from_dict(doc)


def test_cli_run_reports_malformed_scenario_in_one_line(tmp_path, capsys):
    from radstack.cli import main

    doc = _minimal_with_agent()
    doc["lanes"] = 5
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(p), "--planner", "rad"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"run: malformed scenario file {p}: lanes: expected a list, got 5\n"


@pytest.mark.parametrize("value", [None, True, False, 1.5, math.nan, math.inf, "7", [7]])
def test_seed_must_be_an_integer(value):
    doc = _minimal_with_agent()
    doc["seed"] = value
    with pytest.raises(ValidationError, match="^seed: expected an integer"):
        scenario_from_dict(doc)


def test_integral_float_seed_is_taken_as_int():
    doc = _minimal_with_agent()
    doc["seed"] = 7.0
    seed = scenario_from_dict(doc).seed
    assert seed == 7 and type(seed) is int


def test_scenario_chain_is_built_once_and_joins_lanes():
    a = straight_lane("a", x0=0.0, x1=50.0, limit=10.0, successors=("b",))
    b = straight_lane("b", x0=50.0, x1=100.0, limit=7.0, successors=("c",), direction="opposing")
    c = straight_lane("c", x0=100.001, x1=150.0, limit=9.0)  # 1 mm gap: both vertices stay
    s = Scenario(
        lanes=(a, b, c),
        drivable_area=(rect(-5.0, -4.0, 155.0, 4.0),),
        crosswalks=(),
        agents=(),
        ego=EgoState(pose=Pose2(0.0, 0.0, 0.0), speed=5.0),
        route=("a", "b", "c"),
        goal=Pose2(140.0, 0.0, 0.0),
        duration=10.0,
        seed=0,
    )
    table, opposing, limit = chain = s.chain(("a", "b", "c"))
    assert s.chain(["a", "b", "c"]) is chain
    assert np.array_equal(table.points, np.concatenate([a.points, b.points[1:], c.points]))
    want = [False] * len(a.points) + [True] * (len(b.points) - 1) + [False] * len(c.points)
    assert opposing.tolist() == want
    assert limit == 7.0
    assert s.chain(("b",))[0].n_segments == len(b.points) - 1
    with pytest.raises(ValueError):
        table.points[0, 0] = 1.0  # shared by every caller, so read-only
    assert s.lane_by_id("c") is c
    with pytest.raises(KeyError):
        s.lane_by_id("d")


def _drivable_reads(s):
    ego = s.ego
    assert s.drivable_boxes == ((-5.0, -4.0, 125.0, 4.0), None)
    assert footprint_inside_drivable(ego, s)
    assert not footprint_inside_drivable(replace(ego, pose=Pose2(64.0, 6.0, 0.0)), s)  # a corner left of the triangle
    assert footprint_inside_drivable(replace(ego, pose=Pose2(70.0, 6.0, 0.0)), s)  # triangle plus box


def _lane_reads(s):
    for x in (10.0, 20.0):  # two points: on_lanes keeps only the last one's projection
        s.on_lanes(x, 0.5)


def _heading_reads(t):
    # headings, pose_at and frame_at read the segment array without projecting
    t.headings
    t.pose_at(np.array([0.0, 50.5, 100.0]))
    t.frame_at(np.array([0.0, 50.5, 100.0]))


@pytest.mark.parametrize(
    "cls, name, reads",
    [
        (Scenario, "drivable_boxes", _drivable_reads),
        (Scenario, "lane_stack", _lane_reads),
        (SegmentTable, "seg", lambda t: project_points_to_polyline(np.array([[3.0, 1.0]]), t)),
        (SegmentTable, "seg", _heading_reads),
    ],
)
def test_lazy_caches_are_built_once_per_object(monkeypatch, cls, name, reads):
    prop = cls.__dict__[name]
    build, built = prop.func, []
    monkeypatch.setattr(prop, "func", lambda obj: built.append(obj) or build(obj))
    if cls is Scenario:
        tri = np.array([[60.0, 4.0], [80.0, 4.0], [70.0, 12.0]])
        obj = replace(straight_scenario(), drivable_area=(rect(-5.0, -4.0, 125.0, 4.0), tri))
        fresh = replace(obj)
    else:
        obj, fresh = (SegmentTable(np.c_[np.arange(101.0), np.zeros(101)]) for _ in range(2))
    assert built == []  # built on first use
    reads(obj)
    reads(obj)
    assert built == [obj]  # once, however many reads
    value = getattr(obj, name)
    reads(fresh)
    assert built == [obj, fresh] and getattr(fresh, name) is not value  # a new object builds its own


@pytest.mark.parametrize(
    "keys, value, field",
    [
        (("agents", 0, "id"), None, r"agents\[0\]\.id"),
        (("agents", 0, "kind"), 1, r"agents\[0\]\.kind"),
        (("lanes", 0, "id"), 7, r"lanes\[0\]\.id"),
        (("lanes", 0, "left_adjacent"), [1], r"lanes\[0\]\.left_adjacent"),
        (("lanes", 0, "successors"), [True], r"lanes\[0\]\.successors\[0\]"),
        (("route", 0), 1.0, r"route\[0\]"),
    ],
)
def test_ids_and_lane_references_must_be_strings(keys, value, field):
    doc = _minimal_with_agent()
    _set(doc, keys, value)
    with pytest.raises(ValidationError, match=f"^{field}: expected a string, got "):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (("lanes", 0), {**MINIMAL["lanes"][0], "width": 3.5}, "lanes[0]: unknown keys ['width']"),
        (("ego",), {"pose": [0.0, 0.0, 0.0]}, "ego.speed: missing"),
        (("drivable_area", 0), [[0.0, 0.0], [1.0, 0.0]], "drivable_area[0]: needs >= 3 points"),
    ],
)
def test_scenario_keys_and_polygon_sizes_are_checked(keys, value, message):
    doc = _minimal_with_agent()
    _set(doc, keys, value)
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == message


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(SCENARIO_KINDS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
)
def test_on_lanes_memo_seeded_by_step_agents_matches_a_fresh_projection_bitwise(kind, seed, n):
    # step_agents projects vehicles and then the ego onto every lane; the
    # ego's row, kept for on_lanes, must hold the bits of the one-point
    # projection the next tick's graph_search would otherwise make.
    scenario = generate_synthetic_scenario(kind, 7)
    rng = np.random.default_rng(seed)

    def pose_near_lanes():
        lane = scenario.lanes[rng.integers(len(scenario.lanes))]
        (x, y), head = lane.segments.pose_at(rng.uniform(0.0, lane.length))
        return Pose2(float(x + rng.normal(0.0, 1.5)), float(y + rng.normal(0.0, 1.5)), float(head))

    agents = [AgentState(f"v{i}", pose_near_lanes(), float(rng.uniform(0.0, 10.0)), 2.3, 1.0) for i in range(n)]
    ego = EgoState(pose=pose_near_lanes(), speed=5.0)
    step_agents(agents, scenario, "reactive_idm", 0.1, ego=ego)
    key, (s, foot) = scenario._on_lanes
    assert key == (ego.pose.x, ego.pose.y)
    assert scenario.on_lanes(ego.pose.x, ego.pose.y)[0] is s  # a memo hit
    fresh_s, _, _, fresh_foot = project_points_to_polylines(np.array([[ego.pose.x, ego.pose.y]]), scenario.lane_stack)
    assert np.array_equal(s.view(np.int64), fresh_s[:, 0].view(np.int64))
    assert np.array_equal(foot.view(np.int64), fresh_foot[:, 0].view(np.int64))
