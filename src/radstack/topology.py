"""Per-tick proposal-path extraction over the lane graph.

Paths are re-rooted at the current ego projection on every call, so the
planner's search space always reflects the instantaneous topology. Adjacent
and opposing centerlines extend the base route paths for lane changes and
short bypasses.

Lane chains are fixed per scenario, and Scenario.chain joins each one into a
SegmentTable once. Per call, a path is rooted at the ego's foot point on its
polyline (a chain, or an opposing bypass spliced back onto a route path),
and every path then goes through one builder, _make_path: cut at the
horizon, resample at RESAMPLE_DS, carry the opposing flags over.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import OffMapError
from .geometry import (
    normalize_angle,
    project_points_to_polyline,
    SegmentTable,
)
from .scene import EgoState, Pose2, Scenario

LOCALIZATION_RADIUS = 10.0  # m
CONTAINMENT_RADIUS = 2.0  # m, ego counts as "on" lanes this close
DEFAULT_MAX_PATHS = 5
DEFAULT_HORIZON_LENGTH = 120.0  # m
RESAMPLE_DS = 1.0  # m
BYPASS_LENGTH = 40.0  # m, opposing-lane excursions splice back after this
MERGE_GAP = 12.0  # m, longitudinal run of the splice-back segment


@dataclass(frozen=True, eq=False)
class ProposalPath:
    """A drivable reference line rooted at the ego projection."""

    lane_sequence: tuple
    segments: SegmentTable  # the polyline, resampled at uniform ds
    source: str  # ego_route | left_adjacent | right_adjacent | opposing
    speed_limit: float  # min over traversed lanes
    opposing_mask: np.ndarray  # (N,) True where the point lies on opposing-direction lane
    ends_at_terminus: bool = False  # chain exhausted before the horizon cut

    @property
    def points(self) -> np.ndarray:
        return self.segments.points

    @property
    def s(self) -> np.ndarray:
        return self.segments.s

    @property
    def length(self) -> float:
        return self.segments.length

    @property
    def start(self) -> np.ndarray:
        return self.segments.points[0]


def project_onto_path(path: ProposalPath, pose: Pose2) -> tuple:
    """(arclength, signed lateral offset (+left), heading error) of a pose."""
    (s,), (lateral,), (path_heading,), _ = project_points_to_polyline(np.array([[pose.x, pose.y]]), path.segments)
    return float(s), float(lateral), normalize_angle(pose.heading - path_heading)


def _make_path(pts, opposing, horizon_length, lane_sequence, source, speed_limit):
    """The path along pts, cut at horizon_length and resampled; None if it has no length.

    opposing flags each point of pts, and a resampled point takes the flag of
    the point that starts its segment. The path ends at a terminus when,
    before resampling, it is more than 1 m shorter than the horizon.
    """
    table = SegmentTable(pts)
    if table.length > horizon_length:
        cut = int(table.s.searchsorted(horizon_length, side="right"))
        table = SegmentTable(np.concatenate([pts[:cut], table.points_at(horizon_length)[None]]))
        opposing = np.concatenate([opposing[:cut], opposing[cut - 1 : cut]])
    if table.length < 1e-6:
        return None
    res = table.resample(RESAMPLE_DS)
    idx = np.minimum(np.maximum(table.s.searchsorted(res.s, side="right") - 1, 0), len(opposing) - 1)
    return ProposalPath(
        lane_sequence=lane_sequence,
        segments=res,
        source=source,
        speed_limit=speed_limit,
        opposing_mask=opposing[idx],
        ends_at_terminus=table.length < horizon_length - 1.0,
    )


def _build_path(scenario, lane_ids, ego_xy, horizon_length, source):
    """The lane chain's path from the ego projection onto it."""
    table, opposing, limit = scenario.chain(lane_ids)
    (s0,), _, _, foot = project_points_to_polyline(np.array([ego_xy]), table)
    keep = table.s > s0 + 1e-9
    pts = np.concatenate([foot, table.points[keep]])
    first = opposing[min(int(table.s.searchsorted(s0)), len(opposing) - 1)]
    opp = np.concatenate([[first], opposing[keep]])
    return _make_path(pts, opp, horizon_length, tuple(lane_ids), source, limit)


def _enumerate_chains(scenario: Scenario, start_lane_id: str, s_ego: float, horizon_length: float):
    """Lane-id chains from a start lane, expanded by cumulative arclength.

    Uniform-cost expansion over successor edges (cost = lane arclength),
    depth-limited by horizon_length past the ego projection s_ego on the
    start lane. Forks yield one chain per branch; ties resolve by lane-id
    order so output is deterministic.
    """
    start = scenario.lane_by_id(start_lane_id)
    remaining0 = start.length - s_ego

    chains = []
    # Heap entries: (consumed_length, chain); equal lengths pop in lane-id order.
    heap = [(remaining0, (start_lane_id,))]
    while heap:
        consumed, chain = heapq.heappop(heap)
        lane = scenario.lane_by_id(chain[-1])
        succs = sorted(lane.successors)
        if consumed >= horizon_length or not succs:
            chains.append(chain)
            continue
        for succ_id in succs:
            if succ_id in chain:  # guard against cyclic maps
                chains.append(chain)
                continue
            succ = scenario.lane_by_id(succ_id)
            heapq.heappush(heap, (consumed + succ.length, chain + (succ_id,)))
    # Drop chains that are strict prefixes of another chain (forks keep leaves).
    chains = sorted(set(chains))
    leaves = [c for c in chains if not any(len(o) > len(c) and o[: len(c)] == c for o in chains)]
    return leaves


def graph_search(
    ego: EgoState,
    scenario: Scenario,
    max_paths: int = DEFAULT_MAX_PATHS,
    horizon_length: float = DEFAULT_HORIZON_LENGTH,
) -> list:
    """Proposal paths rooted at the current ego projection.

    Expands the lane successor graph from every lane within the localization
    radius. Output is sorted route-aligned first, then by lateral distance of
    the start lane to the ego, then lexicographically; deterministic.
    Raises OffMapError when no lane is within the radius, or when the ego is
    past the end of every chain it can root on (a dead end).
    """
    ego_xy = (ego.pose.x, ego.pose.y)
    s, foot = scenario.on_lanes(*ego_xy)
    s_on_lane = dict(zip(scenario.lane_ids, s.tolist()))
    # The distance to the foot point orders the candidates.
    dist = np.hypot(ego_xy[0] - foot[:, 0], ego_xy[1] - foot[:, 1]).tolist()
    reachable = [
        (d, lane.id)
        for lane, d in zip(scenario.lanes, dist)
        if d <= LOCALIZATION_RADIUS and lane.direction == "route_aligned"
    ]
    if not reachable:
        raise OffMapError(
            f"no lane within {LOCALIZATION_RADIUS} m of ego at ({ego.pose.x:.1f}, {ego.pose.y:.1f})"
        )
    # Root at the lane(s) containing the ego projection; if the ego sits
    # between lanes (mid lane change) several qualify. Laterally distant lanes
    # are the augmentation step's job, not the base search's.
    candidates = [(d, lid) for d, lid in reachable if d <= CONTAINMENT_RADIUS]
    if not candidates:
        candidates = [min(reachable)]
    route_set = set(scenario.route)
    keyed = []
    for d, lane_id in candidates:
        for chain in _enumerate_chains(scenario, lane_id, s_on_lane[lane_id], horizon_length):
            route_overlap = sum(1 for l in chain if l in route_set)
            keyed.append(((-route_overlap, d, chain), chain))
    keyed.sort(key=lambda kv: kv[0])
    paths = []
    seen = set()
    for _, chain in keyed:
        if chain in seen:
            continue
        seen.add(chain)
        path = _build_path(scenario, chain, ego_xy, horizon_length, "ego_route")
        if path is None:
            continue
        paths.append(path)
        if len(paths) >= max_paths:
            break
    if not paths:
        raise OffMapError(
            f"no lane continues ahead of ego at ({ego.pose.x:.1f}, {ego.pose.y:.1f}): every chain ends behind it"
        )
    return paths


def _adjacent_chain_start(scenario, path: ProposalPath, side: str):
    """First same-direction adjacent lane along a path, or None."""
    for lane_id in path.lane_sequence:
        lane = scenario.lane_by_id(lane_id)
        adj_id = lane.left_adjacent if side == "left" else lane.right_adjacent
        if adj_id is None:
            continue
        return adj_id
    return None


def _splice_opposing(scenario, opp_lane_id, base: ProposalPath, ego_xy, horizon_length):
    """Reversed opposing centerline for a bounded bypass, spliced back to the route."""
    opp = scenario.lane_by_id(opp_lane_id)
    rev = scenario.reversed_lane(opp_lane_id)
    (s0,), _, _, foot = project_points_to_polyline(np.array([ego_xy]), rev)
    s_end = min(s0 + BYPASS_LENGTH, rev.length)
    keep = (rev.s > s0 + 1e-9) & (rev.s < s_end - 1e-9)
    bypass_pts = np.concatenate([foot, rev.points[keep], rev.points_at(s_end)[None]])

    # Merge back onto the base path MERGE_GAP metres past the bypass end.
    (s_merge,), _, _, _ = project_points_to_polyline(bypass_pts[-1:], base.segments)
    s_back = min(s_merge + MERGE_GAP, base.length)
    tail = np.concatenate([base.segments.points_at(s_back)[None], base.points[base.s > s_back + 1e-9]])
    pts = np.concatenate([bypass_pts, tail])
    return _make_path(
        pts,
        np.arange(len(pts)) < len(bypass_pts),
        horizon_length,
        (opp_lane_id,) + base.lane_sequence,
        "opposing",
        min(opp.speed_limit, base.speed_limit),
    )


def augment_with_adjacents(
    paths: list,
    scenario: Scenario,
    ego: EgoState,
    horizon_length: float = DEFAULT_HORIZON_LENGTH,
    enable_adjacents: bool = True,
    enable_opposing: bool = False,
) -> list:
    """Extend route paths with adjacent-lane and (optionally) opposing-lane paths.

    Output is a superset of the input with no duplicate lane sequences. With
    both toggles off this is the identity.
    """
    if not paths:
        raise ValueError("paths must be nonempty")
    out = list(paths)
    seen = {p.lane_sequence for p in paths}
    ego_xy = (ego.pose.x, ego.pose.y)
    for base in paths:
        if base.source != "ego_route":
            continue
        for side, source in (("left", "left_adjacent"), ("right", "right_adjacent")):
            adj_id = _adjacent_chain_start(scenario, base, side)
            if adj_id is None:
                continue
            adj = scenario.lane_by_id(adj_id)
            if adj.direction == "opposing":
                if not enable_opposing:
                    continue
                path = _splice_opposing(scenario, adj_id, base, ego_xy, horizon_length)
                if path is not None and path.lane_sequence not in seen:
                    seen.add(path.lane_sequence)
                    out.append(path)
                continue
            if not enable_adjacents:
                continue
            s_ego = float(scenario.on_lanes(*ego_xy)[0][scenario.lane_ids.index(adj_id)])
            for chain in _enumerate_chains(scenario, adj_id, s_ego, horizon_length):
                if chain in seen:
                    continue
                path = _build_path(scenario, chain, ego_xy, horizon_length, source)
                if path is not None:
                    seen.add(chain)
                    out.append(path)
                break  # one adjacent path per side per base path
    return out
