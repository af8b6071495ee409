"""Planar geometry primitives: angles, oriented rectangles, polylines, polygons.

Everything operates on plain floats / numpy arrays in the world frame
(right-handed, meters, heading 0 = +x).

SegmentTable is the one polyline type: it holds a polyline's points and
cumulative arclengths, and gives positions and poses at arclengths
(points_at, pose_at) and a uniform resampling (resample). A polyline's owner
(a scene Lane, a Scenario's lane chain or reversed lane, or a topology
ProposalPath) builds its table once and keeps it for its lifetime; a caller
with a polyline of its own builds one table and reads every point it needs
through it. Its first projection builds its segment array (SegmentTable.seg),
one column per segment holding start x/y, direction x/y, inverse squared
length, start arclength, length, heading and the heading's -sin and cos; the
table keeps it.

Projection onto a polyline takes a batch of points (one point is a batch of
one) as (x, y) planes, and does each x/y pair of operations as one call on
stacked (2, ...) arrays. One core serves every projection: _nearest_segments
runs one dense pass of every point against every segment and keeps each
point's nearest, one take of the segment array reads the chosen columns, and
_projection gives arclength, signed lateral, heading and foot point on them.
It has one entry per layout, each returning all four, which a caller unpacks:
- project_points_to_polyline, onto one polyline (a SegmentTable);
- project_points_to_polylines, onto every polyline of a SegmentStack, which
  stacks several tables' segment arrays padded to the longest; its row k
  holds the first entry's bits for table k.
A point's projection does not depend on the rest of its batch.

A Scenario stacks its lanes once (Scenario.lane_stack): step_agents projects
every agent and the ego onto every lane with one call
(Scenario.project_onto_lanes), and the topology's graph_search and
augment_with_adjacents read the ego's row of it on the next tick
(Scenario.on_lanes).

The planner's per-tick path calls numpy through ufuncs, ndarray methods and
slicing, not through numpy's Python-level functions (np.diff, np.clip,
np.tile, np.argmin, ...), whose wrapper costs as much as the work on arrays
this small.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi
CONTACT_TOL = 1e-9  # m; boxes this close count as touching, so rounding never decides contact


def normalize_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


def normalize_angles(a: np.ndarray) -> np.ndarray:
    """Vectorized wrap of an array into (-pi, pi], in the bits of
    np.mod(a, 2 pi) moved down by 2 pi above pi.

    numpy's float remainder is fmod's, made +0.0 where it is zero and moved
    up by 2 pi where it is negative; it also computes a quotient that np.mod
    discards, which costs four times the rest. np.fmod is exact, so these
    steps give np.mod's bits. The result in [0, 2 pi] less 2 pi above pi
    lies in (-pi, pi].
    """
    out = np.fmod(a, TWO_PI)
    out += 0.0  # -0.0 -> +0.0
    np.add(out, TWO_PI, out=out, where=out < 0.0)
    np.subtract(out, TWO_PI, out=out, where=out > math.pi)
    return out


def to_local_frame(points, x: float, y: float, heading: float) -> np.ndarray:
    """World points (..., 2) in the frame of the pose (x, y, heading): x forward, y left."""
    points = np.asarray(points, dtype=float)
    c, s = math.cos(heading), math.sin(heading)
    dx = points[..., 0] - x
    dy = points[..., 1] - y
    out = np.empty(points.shape[:-1] + (2,))
    out[..., 0] = c * dx + s * dy
    out[..., 1] = -s * dx + c * dy
    return out


def rect_corners_batch(xy: np.ndarray, cs: np.ndarray, half_length: float, half_width: float) -> np.ndarray:
    """Corners of oriented rectangles, counterclockwise, corner-first:
    positions xy and the headings' cos and sin cs, each as planes (2, ...),
    -> the corners' (x, y) planes, (2, 4, ...). The corners are front-left,
    rear-left, rear-right, front-right; for heading 0, (+l, +w), (-l, +w),
    (-l, -w), (+l, -w). Each corner is x + lx cos - ly sin, y + lx sin +
    ly cos, both planes in one call per operation: elementwise products and
    sums, so a pose's corners do not depend on the rest of its batch."""
    shape = (1, 4) + (1,) * (cs.ndim - 1)
    l, w = half_length, half_width
    out = np.array([l, -l, -l, l]).reshape(shape) * cs[:, None]
    out += xy[:, None]
    # -ly for x against sin, +ly for y against cos: x - a == x + (-a) exactly
    out += np.array([[-w, -w, w, w], [w, w, -w, -w]]).reshape((2,) + shape[1:]) * cs[::-1, None]
    return out


def boxes_overlap(dx, dy, ca, sa, half_length_a, half_width_a, cb, sb, half_length_b, half_width_b):
    """Separating-axis test for oriented boxes, broadcast over all arguments.

    Box a's heading is given as its cos ca and sin sa, with its half extents;
    box b's centre lies at d = (dx, dy) from a's centre, its heading given as
    cb and sb. On each of the 4 box axes u the boxes are apart iff |d.u|
    exceeds the sum of their projected half extents, e.g. on a's length axis
    la + lb |cos(hb - ha)| + wb |sin(hb - ha)|, by more than CONTACT_TOL.
    Touching counts as overlap: boxes laid edge to edge by construction (a
    lane offset plus two half widths) land a few ulps apart either way, and
    must not be told apart by rounding.
    Returns a boolean array of the broadcast shape.
    """
    c = np.abs(ca * cb + sa * sb)  # |cos(hb - ha)|
    s = np.abs(ca * sb - sa * cb)  # |sin(hb - ha)|
    tol = CONTACT_TOL
    return (
        (np.abs(dx * ca + dy * sa) <= half_length_a + half_length_b * c + half_width_b * s + tol)
        & (np.abs(dy * ca - dx * sa) <= half_width_a + half_length_b * s + half_width_b * c + tol)
        & (np.abs(dx * cb + dy * sb) <= half_length_b + half_length_a * c + half_width_a * s + tol)
        & (np.abs(dy * cb - dx * sb) <= half_width_b + half_length_a * s + half_width_a * c + tol)
    )


def points_in_polygon(pts: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Vectorized inclusive point-in-polygon (ray casting + boundary check).

    pts: (N, 2), polygon: (M, 2) simple ring (closing edge implied).
    """
    pts = np.asarray(pts, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.concatenate((x0[1:], x0[:1])), np.concatenate((y0[1:], y0[:1]))

    # Ray cast to +x: count crossings of edges straddling the horizontal line.
    straddle = (y0[None, :] > y[:, None]) != (y1[None, :] > y[:, None])
    dy = y1 - y0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (y[:, None] - y0[None, :]) / dy[None, :]
    x_cross = x0[None, :] + t * (x1 - x0)[None, :]
    crossings = (straddle & (x[:, None] < x_cross)).sum(axis=1)
    inside = (crossings % 2) == 1

    # Boundary: distance from each point to each edge segment == 0.
    ex = (x1 - x0)[None, :]
    ey = (y1 - y0)[None, :]
    px = x[:, None] - x0[None, :]
    py = y[:, None] - y0[None, :]
    seg_len2 = ex * ex + ey * ey
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.minimum(np.maximum(np.where(seg_len2 > 0, (px * ex + py * ey) / seg_len2, 0.0), 0.0), 1.0)
    dx = px - u * ex
    dy2 = py - u * ey
    on_edge = (dx * dx + dy2 * dy2 < 1e-18).any(axis=1)
    return inside | on_edge


def polygon_as_aabb(polygon: np.ndarray):
    """(x0, y0, x1, y1) when the polygon is an axis-aligned rectangle, else None."""
    poly = np.asarray(polygon, dtype=float)
    if len(poly) != 4:
        return None
    corners = {(x, y) for x, y in poly.tolist()}
    xs = sorted({x for x, _ in corners})
    ys = sorted({y for _, y in corners})
    if len(xs) != 2 or len(ys) != 2 or corners != {(x, y) for x in xs for y in ys}:
        return None
    return xs[0], ys[0], xs[1], ys[1]


def points_in_polygons(x: np.ndarray, y: np.ndarray, polygons, boxes) -> np.ndarray:
    """Inclusive membership of points (x, y, of one shape) in a union of polygons.

    boxes[i] is polygon_as_aabb(polygons[i]), computed once by the caller: a
    box is tested against its bounds, any other polygon by points_in_polygon.
    """
    inside = np.zeros(x.shape, dtype=bool)
    for poly, box in zip(polygons, boxes):
        if box is None:
            pts = np.empty((x.size, 2))
            pts[:, 0], pts[:, 1] = x.reshape(-1), y.reshape(-1)
            hit = points_in_polygon(pts, poly).reshape(inside.shape)
        else:
            x0, y0, x1, y1 = box
            hit = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        inside |= hit
    return inside


SEG_ROWS = 10  # rows of a SegmentTable's per-segment array


class SegmentTable:
    """A polyline's points, arclengths and per-segment array, built once.

    The program's one polyline type: positions and poses at arclengths,
    uniform resampling and (through project_points_to_polyline) projection
    all read it. `seg` is the per-segment array (SEG_ROWS, n_segments):
    each column holds one segment's start x and y, direction x and y, inverse
    squared length (0 for a degenerate segment), start arclength, length,
    heading (by math.atan2, 0 if degenerate) and the heading's -sin and cos.
    `seg` is built by the first projection (or the first read of
    `headings`, its heading row), so a polyline that is never projected pays
    only for its arclengths.
    """

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        self._d = pts[1:] - pts[:-1]
        self.points = pts
        self.len2 = (self._d * self._d).sum(axis=1)
        self.lengths = np.sqrt(self.len2)
        self.s = np.empty(len(self.lengths) + 1)
        self.s[0] = 0.0
        self.lengths.cumsum(out=self.s[1:])

    @cached_property
    def seg(self) -> np.ndarray:
        seg = np.empty((SEG_ROWS, self.n_segments))
        seg[:2] = self.points[:-1].T
        seg[2:4] = self._d.T
        seg[4] = np.where(self.len2 > 0, 1.0 / np.maximum(self.len2, 1e-300), 0.0)
        seg[5] = self.s[:-1]
        seg[6] = self.lengths
        dx, dy = self._d.T.tolist()
        seg[7] = list(map(math.atan2, dy, dx))  # map: less per-segment overhead than a comprehension
        # -sin and cos on the contiguous heading row: the same vector routine,
        # and so the same bits, as on any gathered copy of it
        np.sin(seg[7], out=seg[8])
        np.negative(seg[8], out=seg[8])
        np.cos(seg[7], out=seg[9])
        return seg

    @property
    def headings(self) -> np.ndarray:
        """Direction angle of every segment (0 if degenerate): the heading row of `seg`.

        By math.atan2: numpy's arctan2 may take a vector routine that differs
        from it in the last bit on some CPUs."""
        return self.seg[7]

    @property
    def n_segments(self) -> int:
        return len(self.len2)

    @property
    def length(self) -> float:
        return float(self.s[-1])

    def _clamp(self, s) -> np.ndarray:
        return np.minimum(np.maximum(np.asarray(s, dtype=float), self.s[0]), self.s[-1])

    def _interp(self, s: np.ndarray) -> np.ndarray:
        out = np.empty(s.shape + (2,))
        out[..., 0] = np.interp(s, self.s, self.points[:, 0])
        out[..., 1] = np.interp(s, self.s, self.points[:, 1])
        return out

    def segment_index(self, s) -> np.ndarray:
        """Index of the segment holding each arclength s in [0, length]; at a
        vertex, the segment starting there (the last segment at the end)."""
        return np.minimum(self.s.searchsorted(s, side="right") - 1, self.n_segments - 1)

    def points_at(self, s) -> np.ndarray:
        """Positions (..., 2) at arclengths s (any shape), clamped to the polyline."""
        return self._interp(self._clamp(s))

    def pose_at(self, s) -> tuple:
        """(positions (..., 2), headings (...)) at arclengths s (any shape),
        clamped to the polyline once (by np.minimum/np.maximum, which cost less
        per call than np.clip). A heading is that of the segment holding s
        (segment_index): at a vertex, the one starting there."""
        s = self._clamp(s)
        return self._interp(s), self.headings[self.segment_index(s)]

    def frame_at(self, s) -> tuple:
        """(positions (..., 2), left normals (2, ...)) at arclengths s: the
        positions of pose_at, and the (-sin, cos) of its heading read from
        the segment array's cached rows, not recomputed."""
        s = self._clamp(s)
        return self._interp(s), self.seg[8:10].take(self.segment_index(s), axis=1)

    def resample(self, ds: float) -> "SegmentTable":
        """The polyline at uniform arclength step ds, the last step shorter.

        Both endpoints are kept exactly; a polyline of no length gives one point.
        """
        total = self.s[-1]
        if total <= 0:
            return SegmentTable(self.points[:1].copy())
        n = max(1, int(math.floor(total / ds + 1e-9)))
        targets = np.arange(n + 1) * ds
        if total - targets[-1] > 1e-9:
            targets = np.concatenate([targets, [total]])
        else:
            targets[-1] = total
        return SegmentTable(self.points_at(targets))


def _nearest_segments(p: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Index of each point's first segment of least squared distance to its
    clamped foot point (_nearest_foot): p holds the points as (x, y) planes,
    (2, N, 1) against a table's segment columns seg (SEG_ROWS or 5, 1, W),
    giving (N,); or (2, 1, N, 1) against a stack's (SEG_ROWS, L, 1, W),
    giving (L, N)."""
    u, d = _nearest_foot(p, seg)
    d -= u * seg[2:4]  # the offset from the foot point
    d *= d
    return (d[0] + d[1]).argmin(axis=-1)


def _nearest_foot(p: np.ndarray, seg: np.ndarray):
    """The core of every projection: for points p as (x, y) planes and the
    columns seg of their segments (broadcast against each other: (2, N) and
    (rows, N) for each point's chosen segment, or as _nearest_segments
    lays them out for every segment), the clamped foot parameter u and the
    offset d (2, ...) from the segment start. Each x/y pair of operations is
    one call on the stacked planes, and the chosen segment's values come
    from the dense pass's own arithmetic, so every value is bit-identical
    to it."""
    d = p - seg[:2]
    t = d * seg[2:4]
    u = t[0] + t[1]
    u *= seg[4]
    np.maximum(u, 0.0, out=u)  # np.clip, at less call overhead
    np.minimum(u, 1.0, out=u)
    return u, d


def _projection(p: np.ndarray, seg: np.ndarray):
    """(s, lateral, heading, foot point (..., N, 2)) of points p on their
    chosen segments, p and seg (SEG_ROWS, ..., N) as for _nearest_foot."""
    u, d = _nearest_foot(p, seg)
    along = u * seg[2:4]
    d -= along  # the offset from the foot point
    d *= seg[8:10]  # by (-sin, cos) of the heading
    foot = np.empty(u.shape + (2,))
    np.add(seg[:2], along, out=foot.transpose(u.ndim, *range(u.ndim)))
    return seg[5] + u * seg[6], d[0] + d[1], seg[7], foot


def project_points_to_polyline(ps: np.ndarray, table: SegmentTable):
    """Vectorized projection of many points onto one polyline.

    ps: (N, 2). Returns (s, lateral, heading at the foot point), each (N,),
    and the foot points (N, 2); lateral is positive to the left of the travel
    direction. Each point takes the first segment of least squared distance
    to its clamped foot point (_nearest_segments).
    """
    p = np.asarray(ps, dtype=float).T
    seg = table.seg
    return _projection(p, seg.take(_nearest_segments(p[:, :, None], seg[:, None]), axis=1))


class SegmentStack:
    """Several polylines' segment arrays stacked, for one projection of a
    batch of points onto all of them (project_points_to_polylines).

    Row k holds tables[k]'s segment array (SegmentTable.seg), padded to the
    longest polyline by repeating its last segment: a padded copy ties with
    the real last segment, and the first minimum keeps the real one. `seg`
    is (SEG_ROWS, L, 1, W), for the dense pass against (2, 1, N, 1) points.
    """

    def __init__(self, tables):
        self.tables = tuple(tables)
        width = max((t.n_segments for t in self.tables), default=1)
        seg = np.empty((SEG_ROWS, len(self.tables), width))
        for k, t in enumerate(self.tables):
            m = t.n_segments
            seg[:, k, :m] = t.seg
            seg[:, k, m:] = seg[:, k, m - 1 : m]
        self.seg = seg[:, :, None, :]
        self._flat = seg.reshape(SEG_ROWS, -1)  # gathered at row * width + segment
        self._row_start = (np.arange(len(self.tables)) * width)[:, None]


def project_points_to_polylines(ps: np.ndarray, stack: SegmentStack):
    """Projection of a batch of points onto every polyline of a stack.

    ps: (N, 2). Returns (s, lateral, heading), each (L, N), and the foot
    points (L, N, 2); row k holds project_points_to_polyline(ps,
    stack.tables[k]) in every bit: one dense pass covers every pair.
    """
    ps = np.asarray(ps, dtype=float)
    p = ps.T[:, None]  # (2, 1, N)
    idx = _nearest_segments(p[..., None], stack.seg)
    return _projection(p, stack._flat.take(idx + stack._row_start, axis=1))
