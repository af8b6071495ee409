"""Planar geometry primitives: angles, oriented rectangles, polylines, polygons.

Everything operates on plain floats / numpy arrays in the world frame
(right-handed, meters, heading 0 = +x).

SegmentTable is the one polyline type: it holds a polyline's points,
cumulative arclengths and per-segment headings, and gives positions and
poses at arclengths (points_at, pose_at) and a uniform resampling
(resample). project_points_to_polyline is the one projection onto a
polyline: it takes a batch of points (one point is a batch of one) and
returns arclength, signed lateral, heading and foot point per point. A
polyline's owner (a scene Lane, a Scenario's lane chain or a topology
ProposalPath) builds its table once and keeps it for its lifetime; a caller
with a polyline of its own builds one table and reads every point it needs
through it. Large batches prune segments chunk by chunk before the exact
pass and return the same bits as the dense pass.
"""

from __future__ import annotations

import math

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
    """Vectorized wrap into (-pi, pi]."""
    out = np.mod(a, TWO_PI)
    out = np.where(out > math.pi, out - TWO_PI, out)
    # np.mod maps exact -pi to +pi already; keep +pi, move anything <= -pi up
    out = np.where(out <= -math.pi, out + TWO_PI, out)
    return out


def to_local_frame(points, x: float, y: float, heading: float) -> np.ndarray:
    """World points (..., 2) in the frame of the pose (x, y, heading): x forward, y left."""
    points = np.asarray(points, dtype=float)
    c, s = math.cos(heading), math.sin(heading)
    dx = points[..., 0] - x
    dy = points[..., 1] - y
    return np.stack([c * dx + s * dy, -s * dx + c * dy], axis=-1)


def rect_corners(
    x: float, y: float, heading: float, half_length: float, half_width: float
) -> np.ndarray:
    """Corners of an oriented rectangle, counterclockwise, world frame.

    Order: front-left, rear-left, rear-right, front-right for heading 0 this is
    (+l,+w), (-l,+w), (-l,-w), (+l,-w) -- counterclockwise.
    """
    c, s = math.cos(heading), math.sin(heading)
    local = np.array(
        [
            [half_length, half_width],
            [-half_length, half_width],
            [-half_length, -half_width],
            [half_length, -half_width],
        ]
    )
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([x, y])


def rect_corners_batch(
    xy: np.ndarray, heading: np.ndarray, half_length: float, half_width: float
) -> np.ndarray:
    """Corners for a batch of poses. xy: (..., 2), heading: (...,) -> (..., 4, 2)."""
    c = np.cos(heading)
    s = np.sin(heading)
    lx = np.array([half_length, -half_length, -half_length, half_length])
    ly = np.array([half_width, half_width, -half_width, -half_width])
    # (...,4)
    wx = xy[..., 0:1] + lx * c[..., None] - ly * s[..., None]
    wy = xy[..., 1:2] + lx * s[..., None] + ly * c[..., None]
    return np.stack([wx, wy], axis=-1)


def boxes_overlap(dx, dy, heading_a, half_length_a, half_width_a, heading_b, half_length_b, half_width_b):
    """Separating-axis test for oriented boxes in pose form, broadcast over all arguments.

    Box a has the given heading and half extents; box b's centre lies at
    d = (dx, dy) from a's centre. On each of the 4 box axes u the boxes are
    apart iff |d.u| exceeds the sum of their projected half extents, e.g. on
    a's length axis la + lb |cos(hb - ha)| + wb |sin(hb - ha)|, by more than
    CONTACT_TOL. Touching counts as overlap: boxes laid edge to edge by
    construction (a lane offset plus two half widths) land a few ulps apart
    either way, and must not be told apart by rounding.
    Returns a boolean array of the broadcast shape.
    """
    ca, sa = np.cos(heading_a), np.sin(heading_a)
    cb, sb = np.cos(heading_b), np.sin(heading_b)
    c = np.abs(ca * cb + sa * sb)  # |cos(hb - ha)|
    s = np.abs(ca * sb - sa * cb)  # |sin(hb - ha)|
    tol = CONTACT_TOL
    return (
        (np.abs(dx * ca + dy * sa) <= half_length_a + half_length_b * c + half_width_b * s + tol)
        & (np.abs(dy * ca - dx * sa) <= half_width_a + half_length_b * s + half_width_b * c + tol)
        & (np.abs(dx * cb + dy * sb) <= half_length_b + half_length_a * c + half_width_a * s + tol)
        & (np.abs(dy * cb - dx * sb) <= half_width_b + half_length_a * s + half_width_a * c + tol)
    )


def point_in_polygon(pt, polygon: np.ndarray) -> bool:
    """Inclusive point-in-polygon test (boundary counts as inside)."""
    return bool(points_in_polygon(np.asarray(pt, dtype=float)[None, :], polygon)[0])


def points_in_polygon(pts: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Vectorized inclusive point-in-polygon (ray casting + boundary check).

    pts: (N, 2), polygon: (M, 2) simple ring (closing edge implied).
    """
    pts = np.asarray(pts, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)

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
        u = np.clip(np.where(seg_len2 > 0, (px * ex + py * ey) / seg_len2, 0.0), 0.0, 1.0)
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


def points_in_polygons(pts: np.ndarray, polygons) -> np.ndarray:
    """Inclusive membership of points in a union of polygons.

    Axis-aligned rectangles take a fast bounding-box path.
    """
    pts = np.asarray(pts, dtype=float)
    inside = np.zeros(len(pts), dtype=bool)
    for poly in polygons:
        todo = ~inside
        if not todo.any():
            break
        aabb = polygon_as_aabb(poly)
        sub = pts[todo]
        if aabb is not None:
            x0, y0, x1, y1 = aabb
            hit = (sub[:, 0] >= x0) & (sub[:, 0] <= x1) & (sub[:, 1] >= y0) & (sub[:, 1] <= y1)
        else:
            hit = points_in_polygon(sub, poly)
        inside[todo] |= hit
    return inside


CHUNK = 8  # segments per broad-phase chunk of a SegmentTable
PRUNE_MIN_PAIRS = 12_000  # points x segments from which the broad phase pays for itself
PRUNE_MARGIN = 1e-6  # m; slack on the broad phase's upper bound, far above rounding


class SegmentTable:
    """A polyline's points, arclengths and per-segment arrays, built once.

    The program's one polyline type: positions and poses at arclengths,
    uniform resampling and (through project_points_to_polyline) projection
    all read it. Rows of `cols` are segment start x, start y, direction x,
    direction y and the inverse squared length (0 for a degenerate segment),
    padded to whole CHUNK-segment chunks by repeating the last segment.
    `cols` is built by the first projection, the headings by their first
    use and the chunks' bounding boxes by the first large projection, so a
    polyline that is never projected pays only for its arclengths.
    """

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        self._d = np.diff(pts, axis=0)
        self.points = pts
        self.len2 = (self._d * self._d).sum(axis=1)
        self.lengths = np.sqrt(self.len2)
        self.s = np.concatenate([[0.0], np.cumsum(self.lengths)])
        self.n_chunks = -(-len(self.len2) // CHUNK)
        self._headings = None
        self._cols = None
        self._boxes = None

    @property
    def cols(self) -> np.ndarray:
        if self._cols is None:
            m = self.n_segments
            cols = np.empty((5, self.n_chunks * CHUNK))
            cols[:2, :m] = self.points[:-1].T
            cols[2:4, :m] = self._d.T
            cols[4, :m] = np.where(self.len2 > 0, 1.0 / np.maximum(self.len2, 1e-300), 0.0)
            cols[:, m:] = cols[:, m - 1 : m]
            self._cols = cols
        return self._cols

    @property
    def headings(self) -> np.ndarray:
        """Direction angle of every segment (0 if degenerate), taken on first use.

        By math.atan2: numpy's arctan2 may take a vector routine that differs
        from it in the last bit on some CPUs."""
        if self._headings is None:
            self._headings = np.array([math.atan2(dy, dx) for dx, dy in self._d.tolist()])
        return self._headings

    @property
    def n_segments(self) -> int:
        return len(self.len2)

    @property
    def length(self) -> float:
        return float(self.s[-1])

    def points_at(self, s) -> np.ndarray:
        """Positions (..., 2) at arclengths s (any shape), clamped to the polyline."""
        s = np.clip(np.asarray(s, dtype=float), self.s[0], self.s[-1])
        return np.stack([np.interp(s, self.s, self.points[:, 0]), np.interp(s, self.s, self.points[:, 1])], axis=-1)

    def pose_at(self, s) -> tuple:
        """(positions (..., 2), headings (...)) at arclengths s, clamped.

        A heading is that of the segment holding s; at a vertex, the one
        starting there."""
        s = np.clip(np.asarray(s, dtype=float), self.s[0], self.s[-1])
        idx = np.clip(np.searchsorted(self.s, s, side="right") - 1, 0, self.n_segments - 1)
        return self.points_at(s), self.headings[idx]

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

    def boxes(self) -> tuple:
        """(x0, y0, x1, y1) per chunk over its vertices, and the chunk-boundary vertices."""
        if self._boxes is None:
            m, c = self.n_segments, self.n_chunks
            pad = np.concatenate([self.points, np.repeat(self.points[-1:], c * CHUNK - m, axis=0)])
            inner = pad[:-1].reshape(c, CHUNK, 2)
            ends = pad[CHUNK::CHUNK]  # each chunk's closing vertex
            lo = np.minimum(inner.min(axis=1), ends)
            hi = np.maximum(inner.max(axis=1), ends)
            self._boxes = (lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1], pad[::CHUNK].T.copy())
        return self._boxes


def _segment_window(ps: np.ndarray, table: SegmentTable):
    """Segment indices (N, K) per point that hold its nearest segment, or None for all.

    A chunk is pruned when the distance from the point to its box exceeds the
    distance to the nearest chunk-boundary vertex plus PRUNE_MARGIN: every
    segment in it is then farther than a point of the polyline, so it holds
    neither the minimum nor a tie with it. Each point gets the contiguous run
    of chunks from its first to its last survivor, widened to the widest run
    of the batch.
    """
    x0, y0, x1, y1, (vx, vy) = table.boxes()
    px, py = ps[:, 0, None], ps[:, 1, None]
    gx = np.maximum(np.maximum(x0 - px, px - x1), 0.0)
    gy = np.maximum(np.maximum(y0 - py, py - y1), 0.0)
    dvx, dvy = vx - px, vy - py
    reach = np.sqrt((dvx * dvx + dvy * dvy).min(axis=1)) + PRUNE_MARGIN
    keep = gx * gx + gy * gy <= (reach * reach)[:, None]  # (N, C)
    c = table.n_chunks
    first = keep.argmax(axis=1)
    width = c - int((keep[:, ::-1].argmax(axis=1) + first).min())
    if width * CHUNK >= table.n_segments:
        return None
    start = np.minimum(first, c - width) * CHUNK
    return start[:, None] + np.arange(width * CHUNK)


def project_points_to_polyline(ps: np.ndarray, table: SegmentTable):
    """Vectorized projection of many points onto one polyline.

    ps: (N, 2). Returns (s, lateral, heading at the foot point), each (N,),
    and the foot points (N, 2); lateral is positive to the left of the travel
    direction. Each point takes the first segment of least squared distance
    to its clamped foot point. Above PRUNE_MIN_PAIRS points x segments a
    broad phase over the table's chunk boxes narrows each point to a
    contiguous window of segments (_segment_window); the narrow phase is the
    same elementwise arithmetic over the window in ascending segment order,
    so the result is bit-identical to the dense pass.
    """
    ps = np.asarray(ps, dtype=float)
    window = None
    if len(ps) * table.n_segments >= PRUNE_MIN_PAIRS:
        window = _segment_window(ps, table)
    if window is None:
        ax, ay, ex, ey, inv_len2 = table.cols[:, : table.n_segments]
    else:
        ax, ay, ex, ey, inv_len2 = table.cols[:, window]
    dx = ps[:, 0, None] - ax
    dy = ps[:, 1, None] - ay
    u = np.minimum(np.maximum((dx * ex + dy * ey) * inv_len2, 0.0), 1.0)  # np.clip, at less call overhead
    fx = dx - u * ex
    fy = dy - u * ey
    d2 = fx * fx + fy * fy
    k = np.argmin(d2, axis=1)
    rows = np.arange(len(ps))
    idx = k if window is None else window[rows, k]
    u_k = u[rows, k]
    s = table.s[idx] + u_k * table.lengths[idx]
    head = table.headings[idx]
    lateral = -np.sin(head) * fx[rows, k] + np.cos(head) * fy[rows, k]
    foot = table.points[idx] + u_k[:, None] * table._d[idx]
    return s, lateral, head, foot

