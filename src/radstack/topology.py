"""Per-tick proposal-path extraction over the lane graph.

Paths are re-rooted at the current ego projection on every call, so the
planner's search space always reflects the instantaneous topology. Adjacent
and opposing centerlines extend the base route paths for lane changes and
short bypasses.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import OffMapError
from .geometry import (
    interpolate_on_polyline,
    normalize_angle,
    polyline_arclengths,
    project_point_to_polyline,
    resample_polyline,
)
from .scene import EgoState, Pose2, Scenario

LOCALIZATION_RADIUS = 10.0  # m
CONTAINMENT_RADIUS = 2.0  # m, ego counts as "on" lanes this close
SNAP_RADIUS = 0.5  # m
DEFAULT_MAX_PATHS = 5
DEFAULT_HORIZON_LENGTH = 120.0  # m
MIN_PATH_LENGTH = 5.0  # m, unless the route ends earlier
RESAMPLE_DS = 1.0  # m
BYPASS_LENGTH = 40.0  # m, opposing-lane excursions splice back after this
MERGE_GAP = 12.0  # m, longitudinal run of the splice-back segment

PATH_SOURCES = ("ego_route", "left_adjacent", "right_adjacent", "opposing")


@dataclass(frozen=True, eq=False)
class ProposalPath:
    """A drivable reference line rooted at the ego projection."""

    lane_sequence: tuple
    points: np.ndarray  # (N, 2) resampled at uniform ds
    source: str  # ego_route | left_adjacent | right_adjacent | opposing
    speed_limit: float  # min over traversed lanes
    opposing_mask: np.ndarray  # (N,) True where the point lies on opposing-direction lane
    ends_at_terminus: bool = False  # chain exhausted before the horizon cut

    def __post_init__(self):
        object.__setattr__(self, "_s", polyline_arclengths(self.points))

    @property
    def s(self) -> np.ndarray:
        return self._s

    @property
    def length(self) -> float:
        return float(self._s[-1])

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    def pose_at(self, s) -> tuple:
        """(positions, headings) at arclengths s (scalar or array), clamped."""
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        pos, head = interpolate_on_polyline(self.points, self._s, arr)
        return pos, head


def project_onto_path(path: ProposalPath, pose: Pose2) -> tuple:
    """(arclength, signed lateral offset (+left), heading error) of a pose."""
    s, lateral, path_heading, _ = project_point_to_polyline(
        (pose.x, pose.y), path.points, path.s
    )
    return s, lateral, normalize_angle(pose.heading - path_heading)


def _chain_points(scenario: Scenario, lane_ids, reverse_first: bool = False):
    """Concatenate lane centerlines into one polyline with per-point flags."""
    pts = []
    opposing = []
    limit = math.inf
    for idx, lane_id in enumerate(lane_ids):
        lane = scenario.lane_by_id(lane_id)
        p = lane.points
        if reverse_first and idx == 0:
            p = p[::-1]
        if pts and np.linalg.norm(pts[-1] - p[0]) < 1e-6:
            p = p[1:]
        pts.extend(p)
        opposing.extend([lane.direction == "opposing"] * len(p))
        limit = min(limit, lane.speed_limit)
    return np.asarray(pts, dtype=float), np.asarray(opposing, dtype=bool), limit


def _root_at_ego(points: np.ndarray, opposing: np.ndarray, ego_xy, horizon_length: float):
    """Cut a polyline at the ego projection and truncate to the horizon."""
    s_cum = polyline_arclengths(points)
    s0, _, _, foot = project_point_to_polyline(ego_xy, points, s_cum)
    keep = s_cum > s0 + 1e-9
    pts = np.concatenate([[foot], points[keep]])
    opp = np.concatenate([[opposing[min(int(np.searchsorted(s_cum, s0)), len(opposing) - 1)]], opposing[keep]])
    s_new = polyline_arclengths(pts)
    if s_new[-1] > horizon_length:
        cut = int(np.searchsorted(s_new, horizon_length, side="right"))
        end_pos, _ = interpolate_on_polyline(pts, s_new, np.array([horizon_length]))
        pts = np.concatenate([pts[:cut], end_pos])
        opp = np.concatenate([opp[:cut], opp[cut - 1 : cut]])
    return pts, opp


def _resample_with_mask(pts: np.ndarray, opp: np.ndarray):
    res = resample_polyline(pts, RESAMPLE_DS)
    s_orig = polyline_arclengths(pts)
    s_res = polyline_arclengths(res)
    idx = np.clip(np.searchsorted(s_orig, s_res, side="right") - 1, 0, len(opp) - 1)
    return res, opp[idx]


def _build_path(scenario, lane_ids, ego_xy, horizon_length, source, reverse_first=False):
    points, opposing, limit = _chain_points(scenario, lane_ids, reverse_first=reverse_first)
    pts, opp = _root_at_ego(points, opposing, ego_xy, horizon_length)
    length = polyline_arclengths(pts)[-1]
    if length < 1e-6:
        return None
    res, mask = _resample_with_mask(pts, opp)
    if len(res) < 2:
        return None
    return ProposalPath(
        lane_sequence=tuple(lane_ids),
        points=res,
        source=source,
        speed_limit=limit,
        opposing_mask=mask,
        ends_at_terminus=length < horizon_length - 1.0,
    )


def _nearest_distance(lane, ego_xy) -> float:
    _, _, _, foot = project_point_to_polyline(ego_xy, lane.points, lane.s)
    return float(np.hypot(*(np.asarray(ego_xy) - foot)))


def _enumerate_chains(scenario: Scenario, start_lane_id: str, ego_xy, horizon_length: float):
    """Lane-id chains from a start lane, expanded by cumulative arclength.

    Uniform-cost expansion over successor edges (cost = lane arclength),
    depth-limited by horizon_length past the ego projection. Forks yield one
    chain per branch; ties resolve by lane-id order so output is deterministic.
    """
    start = scenario.lane_by_id(start_lane_id)
    s_ego, _, _, _ = project_point_to_polyline(ego_xy, start.points, start.s)
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
    """
    ego_xy = (ego.pose.x, ego.pose.y)
    reachable = []
    for lane in scenario.lanes:
        d = _nearest_distance(lane, ego_xy)
        if d <= LOCALIZATION_RADIUS and lane.direction == "route_aligned":
            reachable.append((d, lane.id))
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
        for chain in _enumerate_chains(scenario, lane_id, ego_xy, horizon_length):
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
    rev = opp.points[::-1]
    s_cum = polyline_arclengths(rev)
    s0, _, _, foot = project_point_to_polyline(ego_xy, rev, s_cum)
    s_end = min(s0 + BYPASS_LENGTH, s_cum[-1])
    keep = (s_cum > s0 + 1e-9) & (s_cum < s_end - 1e-9)
    end_pos, _ = interpolate_on_polyline(rev, s_cum, np.array([s_end]))
    bypass_pts = np.concatenate([[foot], rev[keep], end_pos])

    # Merge back onto the base path MERGE_GAP metres past the bypass end.
    s_merge, _, _, _ = project_point_to_polyline(bypass_pts[-1], base.points, base.s)
    s_back = min(s_merge + MERGE_GAP, base.length)
    keep_base = base.s > s_back + 1e-9
    back_pos, _ = base.pose_at(s_back)
    tail = np.concatenate([back_pos, base.points[keep_base]])
    pts = np.concatenate([bypass_pts, tail])
    opp_mask = np.concatenate(
        [np.ones(len(bypass_pts), dtype=bool), np.zeros(len(tail), dtype=bool)]
    )
    s_all = polyline_arclengths(pts)
    if s_all[-1] > horizon_length:
        cut = int(np.searchsorted(s_all, horizon_length, side="right"))
        end_p, _ = interpolate_on_polyline(pts, s_all, np.array([horizon_length]))
        pts = np.concatenate([pts[:cut], end_p])
        opp_mask = np.concatenate([opp_mask[:cut], opp_mask[cut - 1 : cut]])
    res, mask = _resample_with_mask(pts, opp_mask)
    if len(res) < 2:
        return None
    return ProposalPath(
        lane_sequence=(opp_lane_id,) + base.lane_sequence,
        points=res,
        source="opposing",
        speed_limit=min(opp.speed_limit, base.speed_limit),
        opposing_mask=mask,
        ends_at_terminus=polyline_arclengths(res)[-1] < horizon_length - 1.0,
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
            for chain in _enumerate_chains(scenario, adj_id, ego_xy, horizon_length):
                if chain in seen:
                    continue
                path = _build_path(scenario, chain, ego_xy, horizon_length, source)
                if path is not None:
                    seen.add(chain)
                    out.append(path)
                break  # one adjacent path per side per base path
    return out
