import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from radstack.errors import OffMapError
from radstack.planner import Planner
from radstack.scene import EgoState, Lane, Pose2, Scenario, generate_synthetic_scenario
from radstack.simulator import SimConfig, run_episode
from radstack.topology import _enumerate_chains, augment_with_adjacents, graph_search, project_onto_path

from conftest import rect, straight_lane, straight_scenario

SNAP_RADIUS = 0.5  # m, how far a path's start may lie from the ego's projection


def test_single_lane_single_path(plain_scenario):
    paths = graph_search(plain_scenario.ego, plain_scenario)
    assert len(paths) == 1
    p = paths[0]
    assert p.source == "ego_route"
    assert p.lane_sequence == ("lane_a",)
    # Path hugs the centerline (y = 0 throughout).
    assert np.abs(p.points[:, 1]).max() < 1e-9


def test_path_starts_at_displaced_ego_projection(plain_scenario):
    ego = EgoState(pose=Pose2(30.0, 2.0, 0.1), speed=5.0)
    paths = graph_search(ego, plain_scenario)
    start = paths[0].points[0]
    # Replanning property: the path roots at the projection of the new pose.
    assert start[0] == pytest.approx(30.0, abs=1e-6)
    assert start[1] == pytest.approx(0.0, abs=1e-9)
    assert np.hypot(start[0] - 30.0, start[1] - 0.0) <= SNAP_RADIUS


def _diamond_scenario():
    trunk = Lane(
        id="a_trunk",
        centerline=(Pose2(0, 0, 0), Pose2(20, 0, 0)),
        speed_limit=10.0,
        successors=("b_up", "b_down"),
    )
    up = Lane(
        id="b_up",
        centerline=(Pose2(20, 0, 0), Pose2(40, 5, 0), Pose2(60, 5, 0)),
        speed_limit=10.0,
        successors=("c_merge",),
    )
    down = Lane(
        id="b_down",
        centerline=(Pose2(20, 0, 0), Pose2(40, -5, 0), Pose2(60, -5, 0)),
        speed_limit=10.0,
        successors=(),
    )
    merge = Lane(
        id="c_merge",
        centerline=(Pose2(60, 5, 0), Pose2(75, 5, 0), Pose2(90, 5, 0)),
        speed_limit=10.0,
    )
    return Scenario(
        lanes=(trunk, up, down, merge),
        drivable_area=(rect(-5, -10, 95, 10),),
        crosswalks=(),
        agents=(),
        ego=EgoState(pose=Pose2(2.0, 0.0, 0.0), speed=5.0),
        route=("a_trunk", "b_up", "c_merge"),
        goal=Pose2(85.0, 5.0, 0.0),
        duration=20.0,
        seed=0,
    )


def test_diamond_fork_returns_both_branches():
    s = _diamond_scenario()
    paths = graph_search(s.ego, s, max_paths=2)
    assert len(paths) == 2
    seqs = {p.lane_sequence for p in paths}
    assert ("a_trunk", "b_up", "c_merge") in seqs
    assert ("a_trunk", "b_down") in seqs
    # Route-aligned chain sorts first.
    assert paths[0].lane_sequence == ("a_trunk", "b_up", "c_merge")


def test_chains_on_a_two_lane_loop_never_repeat_a_lane():
    # Each lane is the other's successor: expansion stops where the next lane
    # is already in the chain, however long the horizon.
    a = Lane(id="loop_a", centerline=(Pose2(0, 0, 0), Pose2(20, 0, 0), Pose2(20, 20, 0)),
             speed_limit=10.0, successors=("loop_b",))
    b = Lane(id="loop_b", centerline=(Pose2(20, 20, 0), Pose2(0, 20, 0), Pose2(0, 0, 0)),
             speed_limit=10.0, successors=("loop_a",))
    s = Scenario(
        lanes=(a, b),
        drivable_area=(rect(-5, -5, 25, 25),),
        crosswalks=(),
        agents=(),
        ego=EgoState(pose=Pose2(10.0, 0.0, 0.0), speed=5.0),
        route=("loop_a", "loop_b"),
        goal=Pose2(0.0, 10.0, 0.0),
        duration=20.0,
        seed=0,
    )
    assert _enumerate_chains(s, "loop_a", 10.0, 1000.0) == [("loop_a", "loop_b")]
    assert _enumerate_chains(s, "loop_b", 0.0, 1000.0) == [("loop_b", "loop_a")]
    paths = graph_search(s.ego, s, horizon_length=1000.0)
    assert [p.lane_sequence for p in paths] == [("loop_a", "loop_b")]


def test_off_map_error():
    s = straight_scenario()
    ego = EgoState(pose=Pose2(50.0, 200.0, 0.0), speed=5.0)
    with pytest.raises(OffMapError):
        graph_search(ego, s)


def test_dead_end_is_an_off_map_error():
    # The ego 1 m past the end of lane_route, which has no successor: every
    # chain ends behind it, so no path is left to plan on.
    s = generate_synthetic_scenario("deadlock_pair", 320502424)
    s = replace(s, ego=replace(s.ego, pose=Pose2(141.0, -1.8, 0.0)))
    with pytest.raises(OffMapError, match=r"^no lane continues ahead of ego at \(141.0, -1.8\)"):
        graph_search(s.ego, s)
    with pytest.raises(OffMapError):
        Planner(s, "rad").plan(s.ego, list(s.agents))
    log = run_episode(s, "rad", SimConfig())
    assert log.events == [(0, "off_map_error")] and log.records == []


def test_augment_identity_without_adjacents(plain_scenario):
    paths = graph_search(plain_scenario.ego, plain_scenario)
    out = augment_with_adjacents(
        paths, plain_scenario, plain_scenario.ego, enable_adjacents=False, enable_opposing=False
    )
    assert out == paths


def _three_parallel_scenario():
    mid = straight_lane("mid", 0.0, left_adjacent="left", right_adjacent="right")
    left = straight_lane("left", 3.5, right_adjacent="mid")
    right = straight_lane("right", -3.5, left_adjacent="mid")
    return Scenario(
        lanes=(mid, left, right),
        drivable_area=(rect(-5, -6, 125, 6),),
        crosswalks=(),
        agents=(),
        ego=EgoState(pose=Pose2(1.0, 0.0, 0.0), speed=5.0),
        route=("mid",),
        goal=Pose2(100.0, 0.0, 0.0),
        duration=20.0,
        seed=0,
    )


def test_augment_adds_left_and_right_sources():
    s = _three_parallel_scenario()
    paths = graph_search(s.ego, s)
    out = augment_with_adjacents(paths, s, s.ego)
    sources = {p.source for p in out}
    assert sources == {"ego_route", "left_adjacent", "right_adjacent"}
    # Superset of the input, no duplicate lane sequences.
    assert all(p in out for p in paths)
    seqs = [p.lane_sequence for p in out]
    assert len(seqs) == len(set(seqs))


def test_augment_adds_exactly_one_opposing_path(deadlock_scenario):
    s = deadlock_scenario
    paths = graph_search(s.ego, s)
    out = augment_with_adjacents(paths, s, s.ego, enable_opposing=True)
    opposing = [p for p in out if p.source == "opposing"]
    assert len(opposing) == 1
    # Without the toggle no opposing path appears.
    out2 = augment_with_adjacents(paths, s, s.ego, enable_opposing=False)
    assert [p.source for p in out2].count("opposing") == 0


def test_opposing_path_is_flagged_and_splices_back(deadlock_scenario):
    s = deadlock_scenario
    paths = graph_search(s.ego, s)
    out = augment_with_adjacents(paths, s, s.ego, enable_opposing=True)
    opp = [p for p in out if p.source == "opposing"][0]
    assert opp.opposing_mask[:5].all()  # starts on the opposing lane
    assert not opp.opposing_mask[-5:].any()  # merges back onto the route lane
    assert opp.points[0][1] == pytest.approx(1.8, abs=0.2)  # opposing centerline
    assert opp.points[-1][1] == pytest.approx(-1.8, abs=0.2)  # route centerline


def test_project_onto_path_basics(plain_path):
    s, lat, dh = project_onto_path(plain_path, Pose2(30.0, 0.0, 0.0))
    assert lat == pytest.approx(0.0, abs=1e-9)
    assert s == pytest.approx(30.0, abs=1e-6)
    assert dh == pytest.approx(0.0)
    _, lat, dh = project_onto_path(plain_path, Pose2(30.0, 1.0, 0.0))
    assert lat == pytest.approx(1.0, abs=1e-9)
    assert dh == pytest.approx(0.0)


def test_graph_search_deterministic(blocked_scenario):
    a = graph_search(blocked_scenario.ego, blocked_scenario)
    b = graph_search(blocked_scenario.ego, blocked_scenario)
    assert [p.lane_sequence for p in a] == [p.lane_sequence for p in b]
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.points, pb.points)


def test_replanning_invariant_over_displacements(plain_scenario):
    # Every returned path starts within the snap radius of the ego projection,
    # including poses displaced well off the centerline.
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = float(rng.uniform(5, 100))
        y = float(rng.uniform(-2, 2))
        ego = EgoState(pose=Pose2(x, y, float(rng.uniform(-0.3, 0.3))), speed=5.0)
        for path in graph_search(ego, plain_scenario):
            s_ego, _, _ = project_onto_path(path, ego.pose)
            assert np.linalg.norm(path.segments.points_at(s_ego) - path.start) <= SNAP_RADIUS


def _route_pose(scenario, offset):
    """The pose `offset` metres along the route centerlines, by arithmetic of its own."""
    lanes = {lane.id: lane for lane in scenario.lanes}
    pts = np.concatenate([lanes[lane_id].points for lane_id in scenario.route])
    s = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
    k = int(np.searchsorted(s, offset, side="right")) - 1
    d = pts[k + 1] - pts[k]
    x, y = pts[k] + (offset - s[k]) / np.hypot(*d) * d
    return Pose2(float(x), float(y), math.atan2(d[1], d[0]))


# sha256 of the graph_search + augment_with_adjacents paths below, pinned
# before the path builder moved onto SegmentTable, which holds the move to
# the same bits.
TOPOLOGY_GOLDEN_SHA256 = "93b4a8167ff13c5ce31b206e05d8ec16c6abad69b036c81cbd82e954c2aaec1d"


def test_topology_paths_match_golden_digest():
    h = hashlib.sha256()
    for kind in ("blocked_lane", "lane_change_required", "intersection_turn", "deadlock_pair"):
        for seed in (7, 8):
            scenario = generate_synthetic_scenario(kind, seed)
            for offset in (None, 20.0, 50.0):
                pose = scenario.ego.pose if offset is None else _route_pose(scenario, offset)
                ego = replace(scenario.ego, pose=pose)
                paths = augment_with_adjacents(graph_search(ego, scenario), scenario, ego, enable_opposing=True)
                for p in paths:
                    key = (kind, seed, offset, p.lane_sequence, p.source, bool(p.ends_at_terminus), float(p.speed_limit))
                    h.update(repr(key).encode())
                    h.update(np.ascontiguousarray(p.points, dtype=float).tobytes())
                    h.update(np.asarray(p.opposing_mask, dtype=bool).tobytes())
    assert h.hexdigest() == TOPOLOGY_GOLDEN_SHA256
