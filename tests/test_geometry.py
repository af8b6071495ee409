import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from radstack import geometry
from radstack.geometry import (
    boxes_overlap,
    normalize_angle,
    normalize_angles,
    point_in_polygon,
    points_in_polygon,
    points_in_polygons,
    polygon_as_aabb,
    project_points_to_polyline,
    SegmentTable,
    rect_corners,
)

from conftest import reference_project_points


def test_normalize_angle_range():
    for a in (-10.0, -math.pi, math.pi, 10.0, 0.0, 7 * math.pi):
        w = normalize_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)


@given(st.floats(-50, 50))
def test_normalize_angles_matches_scalar(a):
    assert normalize_angles(np.array([a]))[0] == pytest.approx(normalize_angle(a), abs=1e-12)


def test_rect_corners_axis_aligned():
    c = rect_corners(0.0, 0.0, 0.0, 2.0, 1.0)
    assert set(map(tuple, np.round(c, 9))) == {(2, 1), (-2, 1), (-2, -1), (2, -1)}


def test_rect_corners_quarter_turn_swaps_extents():
    c = rect_corners(0.0, 0.0, math.pi / 2, 2.0, 1.0)
    assert np.allclose(np.abs(c[:, 0]).max(), 1.0)
    assert np.allclose(np.abs(c[:, 1]).max(), 2.0)


def test_rect_corners_rotation_oracle():
    # Hand-applied 2x2 rotation of the local corners.
    h = math.pi / 4
    rot = np.array([[math.cos(h), -math.sin(h)], [math.sin(h), math.cos(h)]])
    local = np.array([[2.0, 1.0], [-2.0, 1.0], [-2.0, -1.0], [2.0, -1.0]])
    expected = local @ rot.T + np.array([3.0, -1.0])
    got = rect_corners(3.0, -1.0, h, 2.0, 1.0)
    assert np.allclose(got, expected, atol=1e-12)


@given(st.floats(-math.pi, math.pi), st.floats(0.3, 5.0), st.floats(0.3, 5.0))
def test_rect_corners_counterclockwise(heading, hl, hw):
    c = rect_corners(0.0, 0.0, heading, hl, hw)
    for i in range(4):
        a, b = c[i], c[(i + 1) % 4]
        u, v = b - a, c[(i + 2) % 4] - b
        assert u[0] * v[1] - u[1] * v[0] > 0


def _overlap(a, b) -> bool:
    """boxes_overlap on two (x, y, heading, half_length, half_width) boxes."""
    ax, ay, ah, al, aw = a
    bx, by, bh, bl, bw = b
    return bool(boxes_overlap(bx - ax, by - ay, ah, al, aw, bh, bl, bw))


def _corner_sat(a, b):
    """Reference: separating-axis test on the corners of two boxes.

    Projects all 8 corners on the 4 unit edge normals. Returns (overlap, gap):
    gap is the largest separation over the axes, <= 0 when the boxes overlap.
    """
    ca, cb = rect_corners(*a), rect_corners(*b)
    gap = -math.inf
    for c in (ca, cb):
        for edge in (c[1] - c[0], c[3] - c[0]):
            axis = edge / np.linalg.norm(edge)
            pa, pb = ca @ axis, cb @ axis
            gap = max(gap, pb.min() - pa.max(), pa.min() - pb.max())
    return bool(gap <= 0.0), gap


def test_sat_overlap_and_separation():
    a = (0, 0, 0, 2, 1)
    assert _overlap(a, a)
    assert not _overlap(a, (100, 0, 0.3, 2, 1))


def test_sat_grazing_pass():
    a = (0, 0, 0, 2, 1)
    assert not _overlap(a, (0, 2.01, 0, 2, 1))  # 0.01 m clearance
    assert _overlap(a, (0, 1.99, 0, 2, 1))  # 0.01 m interpenetration


def test_sat_touching_counts_as_overlap():
    a = (0, 0, 0, 2, 1)
    assert _overlap(a, (4.0, 0, 0, 2, 1))  # edges exactly coincide at x = 2
    assert _overlap(a, (0, 2.0, 0, 2, 1))  # edges exactly coincide at y = 1
    assert _overlap(a, (4.0, 2.0, 0, 2, 1))  # corners touch at (2, 1)


def test_sat_contact_within_rounding_counts_as_touching():
    a = (0, 0, 0, 2, 1)
    assert _overlap(a, (4.0 + 1e-12, 0, 0, 2, 1))
    assert not _overlap(a, (4.0 + 1e-6, 0, 0, 2, 1))
    # Edge to edge by construction, 1.5e-15 m apart after rounding: a plan
    # 0.5 m left of a lane at y = -1.8 passing a car parked at y = -3.4.
    ego = (36.69891953409458, -1.2999999999999985, 4.456998809269036e-16, 2.3, 0.95)
    assert _overlap(ego, (41.24283498724906, -3.4, math.pi, 2.3, 1.15))


@pytest.mark.parametrize("margin, hit", [(0.01, False), (-0.01, True)])
def test_sat_rotated_corner_against_edge(margin, hit):
    # A 2 x 2 box turned 45 degrees reaches sqrt(2) m along x from its centre:
    # its corner sits `margin` m beyond the edge x = 2 of an axis-aligned box.
    # Either box's axes must separate the pair, so test both orders.
    edge = (0, 0, 0, 2, 1)
    corner = (2 + math.sqrt(2) + margin, 0.3, math.pi / 4, 1, 1)
    assert _overlap(edge, corner) is hit
    assert _overlap(corner, edge) is hit
    turned = (0, 0, math.pi / 2, 2, 1)  # the same edge box, turned a quarter
    assert _overlap(turned, (0.3, 2 + math.sqrt(2) + margin, math.pi / 4, 1, 1)) is hit


_box = st.tuples(
    st.floats(-6, 6), st.floats(-6, 6), st.floats(-math.pi, math.pi), st.floats(0.1, 4), st.floats(0.1, 4)
)


@settings(derandomize=True, max_examples=400)
@given(_box, _box)
def test_boxes_overlap_matches_corner_sat(a, b):
    overlap, gap = _corner_sat(a, b)
    assume(abs(gap) > 1e-9)  # rounding decides exact contact either way
    assert _overlap(a, b) is overlap
    assert _overlap(b, a) is overlap


def test_boxes_overlap_broadcasts():
    # One ego box against three agents along x: apart, touching, overlapping.
    hit = boxes_overlap(np.array([5.0, 4.0, 3.0]), 0.0, 0.0, 2.0, 1.0, 0.0, 2.0, np.array([1.0, 1.0, 1.0]))
    assert hit.tolist() == [False, True, True]


def test_point_in_polygon_inclusive():
    poly = np.array([[0, 0], [4, 0], [4, 2], [0, 2]], dtype=float)
    assert point_in_polygon((1, 1), poly)
    assert not point_in_polygon((5, 1), poly)
    assert point_in_polygon((4, 1), poly)  # boundary
    assert point_in_polygon((0, 0), poly)  # vertex


def test_points_in_polygons_aabb_matches_general():
    box = np.array([[0, 0], [4, 0], [4, 2], [0, 2]], dtype=float)
    assert polygon_as_aabb(box) == (0.0, 0.0, 4.0, 2.0)
    tri = np.array([[0, 0], [4, 0], [2, 3]], dtype=float)
    assert polygon_as_aabb(tri) is None
    pts = np.array([[1, 1], [4, 2], [5, 5], [-1, 0.5], [2, 1.5]])
    via_union = points_in_polygons(pts, [box])
    via_pip = points_in_polygon(pts, box)
    assert (via_union == via_pip).all()


def test_resample_preserves_endpoints():
    pts = np.array([[0, 0], [10, 0], [10, 5]], dtype=float)
    r = SegmentTable(pts).resample(1.0).points
    assert np.allclose(r[0], pts[0])
    assert np.allclose(r[-1], pts[-1])
    seg = np.linalg.norm(np.diff(r, axis=0), axis=1)
    assert (seg <= 1.0 + 1e-9).all()


def _dense_projection_oracle(table, p):
    # Brute-force nearest point: 10^4 coarse samples, then a local refinement
    # pass around the coarse minimum so kinks resolve to ~1e-7 m.
    dense_s = np.linspace(0, table.length, 10_000)
    dense_pts = table.points_at(dense_s)
    d2 = ((dense_pts - np.array(p)) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    lo = dense_s[max(0, i - 2)]
    hi = dense_s[min(len(dense_s) - 1, i + 2)]
    fine_s = np.linspace(lo, hi, 10_000)
    fine_pts = table.points_at(fine_s)
    f2 = ((fine_pts - np.array(p)) ** 2).sum(axis=1)
    j = int(np.argmin(f2))
    return fine_s[j], math.sqrt(f2[j])


def test_projection_matches_dense_sampling_oracle():
    pts = np.array([[0, 0], [10, 0], [10, 10]], dtype=float)
    table = SegmentTable(pts)
    qs = np.array([(9.5, 1.0), (11.0, 0.5), (10.5, -0.2), (3.0, 2.0)])
    s, _, _, foot = project_points_to_polyline(qs, table)
    for i, p in enumerate(qs):
        s_oracle, d_oracle = _dense_projection_oracle(table, p)
        d_direct = math.dist(p, foot[i])
        assert d_direct == pytest.approx(d_oracle, abs=1e-6)
        if abs(s[i] - s_oracle) > 1e-3:  # distinct feet only happen at equidistant kinks
            assert d_direct <= d_oracle + 1e-9


def _assert_bitwise(got, ref):
    for a, b in zip(got, ref, strict=True):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def _random_polyline_case(draw):
    """A random polyline, a batch of query points, and no hand oracle.

    2-300 vertices from a random walk where a step may repeat its vertex (a
    zero-length segment), fold straight back over the last step, or jump
    back to an earlier vertex. Points sit near the line, on vertices, past
    either end along the end segment's direction, or far off. The batch
    holds 1-20 points or enough to reach PRUNE_MIN_PAIRS points x segments,
    so both sides of the broad-phase threshold are drawn.
    """
    m = draw(st.integers(2, 300)) - 1  # segments
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    heading = np.cumsum(rng.normal(0.0, 0.8, m))
    steps = np.stack([np.cos(heading), np.sin(heading)], axis=1) * rng.uniform(0.1, 4.0, (m, 1))
    mix = draw(st.sampled_from([(1, 0, 0, 0), (0.7, 0.1, 0.1, 0.1), (0.4, 0.2, 0.2, 0.2)]))
    moves = rng.choice(4, m, p=mix)
    pts = np.empty((m + 1, 2))
    pts[0] = rng.uniform(-100.0, 100.0, 2)
    for i in range(m):
        if moves[i] == 1:  # repeated vertex
            pts[i + 1] = pts[i]
        elif moves[i] == 2 and i > 0:  # straight back over the last step
            pts[i + 1] = pts[i - 1]
        elif moves[i] == 3:  # back to an earlier vertex
            pts[i + 1] = pts[rng.integers(0, i + 1)]
        else:
            pts[i + 1] = pts[i] + steps[i]
    if draw(st.booleans()):
        n = -(-geometry.PRUNE_MIN_PAIRS // m) + draw(st.integers(0, 30))
    else:
        n = draw(st.integers(1, 20))
    kind = rng.integers(0, 5, n)
    vertex = pts[rng.integers(0, m + 1, n)]
    first, last = pts[1] - pts[0], pts[-1] - pts[-2]
    t = rng.uniform(0.0, 20.0, (n, 1))
    ps = np.select(
        [(kind == k)[:, None] for k in range(4)],
        [
            vertex + rng.normal(0.0, 1.5, (n, 2)),
            vertex,
            pts[0] - t * first + rng.normal(0.0, 0.5, (n, 2)),
            pts[-1] + t * last + rng.normal(0.0, 0.5, (n, 2)),
        ],
        vertex + rng.uniform(-1e3, 1e3, (n, 2)),
    )
    return ps, pts, None


ORACLE_POINTS = 4  # points per example held to the sampling oracle


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_random_polyline_case())
@example(  # left of travel is positive, right negative
    case=(np.array([[5.0, 1.0], [5.0, -2.0]]), np.array([[0.0, 0.0], [10.0, 0.0]]), ([5.0, 5.0], [1.0, -2.0]))
)
@example(  # beside a corner, past the start, and the second leg from either side
    case=(
        np.array([[1.0, 2.0], [9.5, 1.0], [10.5, 9.0], [-1.0, -1.0]]),
        np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]]),
        ([1.0, 11.0, 19.0, 0.0], [2.0, 0.5, -0.5, -1.0]),
    )
)
def test_projection_matches_reference_and_sampling_oracle(case):
    ps, pts, expected = case
    table = SegmentTable(pts)
    s, lateral, head, foot = got = project_points_to_polyline(ps, table)
    _assert_bitwise(got, reference_project_points(ps, pts))

    d = np.hypot(*(ps - foot).T)
    for i in range(min(len(ps), ORACLE_POINTS)):
        assert d[i] <= _dense_projection_oracle(table, ps[i])[1] + 1e-9
    on_line = table.points_at(s)
    assert np.allclose(on_line, foot, rtol=0.0, atol=1e-9)

    # Lateral is the offset from the foot along the left normal of travel.
    left = np.cos(head) * (ps[:, 1] - foot[:, 1]) - np.sin(head) * (ps[:, 0] - foot[:, 0])
    assert np.allclose(lateral, left, rtol=0.0, atol=1e-9 * (1.0 + d))
    assert (np.abs(lateral) <= d * (1.0 + 1e-12) + 1e-12).all()
    if expected is not None:
        s_want, lateral_want = expected
        assert s == pytest.approx(s_want, abs=1e-12)
        assert lateral == pytest.approx(lateral_want, abs=1e-12)


@st.composite
def _projection_case(draw):
    """A polyline and query points that stress the broad phase.

    Polylines have 1-60 segments (any remainder modulo the chunk size): a
    lattice walk of axis-aligned unit-multiple segments, where points on a
    bend's bisector tie exactly between two segments, a zigzag whose chunk
    boxes are wide but whose segments are far from most of the box, or a
    smooth random walk with an occasional repeated vertex. Points sit on
    vertices, on bisectors, near the line, or up to 10 km off it (far
    points widen every window, so only some examples have them); 1-40 or
    200-400 points, so points x segments falls on both sides of
    PRUNE_MIN_PAIRS.
    """
    m = draw(st.integers(1, 60))
    n = draw(st.one_of(st.integers(1, 40), st.integers(200, 400)))
    shape = draw(st.sampled_from(["lattice", "zigzag", "walk"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "lattice":
        steps = rng.integers(1, 4, (m, 1)) * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])[rng.integers(0, 4, m)]
        # No immediate reversal, so no segment folds back onto the last.
        for i in range(1, m):
            if (steps[i] == -steps[i - 1]).all():
                steps[i] = steps[i - 1]
    elif shape == "zigzag":
        steps = np.stack([np.full(m, 0.5), np.where(np.arange(m) % 2 == 0, 6.0, -6.0)], axis=1)
    else:
        heading = np.cumsum(rng.normal(0.0, 0.6, m))
        lengths = rng.uniform(0.2, 3.0, m) * (rng.random(m) > 0.05)
        steps = np.stack([lengths * np.cos(heading), lengths * np.sin(heading)], axis=1)
    pts = np.concatenate([[[0.0, 0.0]], np.cumsum(steps, axis=0)]) + rng.integers(-50, 50, 2)
    vertex = pts[rng.integers(0, m + 1, n)]
    t = rng.choice([0.0, 0.25, 0.5, 1.0, 3.0], (n, 1))
    diagonal = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])[rng.integers(0, 4, n)]
    kind = rng.choice(4, n, p=draw(st.sampled_from([(1, 0, 0, 0), (0.3, 0.4, 0.3, 0), (0.2, 0.3, 0.3, 0.2)])))
    ps = np.where(
        (kind == 0)[:, None],
        vertex,
        np.where(
            (kind == 1)[:, None],
            vertex + t * diagonal,
            np.where(
                (kind == 2)[:, None],
                vertex + rng.normal(0.0, 2.0, (n, 2)),
                vertex + rng.uniform(-1e4, 1e4, (n, 2)),
            ),
        ),
    )
    return ps, pts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_projection_case())
def test_pruned_projection_matches_dense_reference_bitwise(case):
    ps, pts = case
    ref = reference_project_points(ps, pts)
    table = SegmentTable(pts)
    assert np.array_equal(table.s, np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))]))
    for threshold in (geometry.PRUNE_MIN_PAIRS, 0):  # as shipped, then the broad phase always
        with mock.patch.object(geometry, "PRUNE_MIN_PAIRS", threshold):
            _assert_bitwise(project_points_to_polyline(ps, table), ref)


def test_resample_of_a_zero_length_polyline_is_one_point():
    pts = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    res = SegmentTable(pts).resample(1.0)
    assert np.array_equal(res.points, pts[:1])
    assert res.length == 0.0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_random_polyline_case(), ds=st.floats(0.05, 5.0))
@example(case=(None, np.array([[0.0, 0.0], [3.0 + 5e-10, 0.0]]), None), ds=1.0)  # last step within 1e-9 of ds
def test_resample_keeps_endpoints_exactly_and_steps_at_most_ds(case, ds):
    _, pts, _ = case
    table = SegmentTable(pts)
    res = table.resample(ds)
    assert np.array_equal(res.points[0], pts[0])
    assert np.array_equal(res.points[-1], pts[-1 if table.length > 0 else 0])
    assert (res.lengths <= ds + 1e-9).all()
    if table.length > 0:
        assert len(res.points) == math.ceil(table.length / ds - 1e-9) + 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_random_polyline_case(), seed=st.integers(0, 2**32 - 1))
def test_points_and_poses_at_match_interp_and_segment_atan2(case, seed):
    _, pts, _ = case
    table = SegmentTable(pts)
    s_cum, total = table.s, table.length
    d = np.diff(pts, axis=0)
    assert np.array_equal(table.headings, [math.atan2(dy, dx) for dx, dy in d])

    rng = np.random.default_rng(seed)
    # every vertex, random arclengths, and clamping below 0 and past the end
    s = np.concatenate([s_cum, rng.uniform(-5.0, total + 5.0, 40), [-1.0, -1e-300, np.nextafter(total, np.inf), total + 7.0]])
    want = np.stack([np.interp(s, s_cum, pts[:, 0]), np.interp(s, s_cum, pts[:, 1])], axis=-1)
    pos, head = table.pose_at(s)
    _assert_bitwise((table.points_at(s), pos), (want, want))
    _assert_bitwise((table.points_at(s[3]),), (want[3],))
    # the heading is that of the last segment starting at or before s
    k = [np.flatnonzero(s_cum[:-1] <= min(max(si, 0.0), total))[-1] for si in s]
    assert np.array_equal(head, [math.atan2(d[i, 1], d[i, 0]) for i in k])
