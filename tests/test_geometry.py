import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from radstack.geometry import (
    boxes_overlap,
    normalize_angle,
    normalize_angles,
    points_in_polygon,
    points_in_polygons,
    polygon_as_aabb,
    project_points_to_polyline,
    project_points_to_polylines,
    SEG_ROWS,
    SegmentStack,
    SegmentTable,
    rect_corners_batch,
)
from radstack.scene import AgentState, Pose2, agent_footprint

from conftest import ReferenceSegmentTable, reference_project_points


def test_normalize_angle_range():
    for a in (-10.0, -math.pi, math.pi, 10.0, 0.0, 7 * math.pi):
        w = normalize_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)


@given(st.floats(-50, 50))
def test_normalize_angles_matches_scalar(a):
    assert normalize_angles(np.array([a]))[0] == pytest.approx(normalize_angle(a), abs=1e-12)


def _normalize_angles_by_mod(a):
    """The wrap by np.mod and two np.where: the tests' bitwise reference for normalize_angles."""
    out = np.mod(a, 2.0 * math.pi)
    out = np.where(out > math.pi, out - 2.0 * math.pi, out)
    return np.where(out <= -math.pi, out + 2.0 * math.pi, out)


_ANGLE_EDGES = [k * m * math.pi + e for k in range(-6, 7) for m in (1.0, 2.0) for e in (0.0, 1e-15, -1e-15)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_ANGLE_EDGES)), min_size=1, max_size=60))
def test_normalize_angles_matches_np_mod_form_bitwise(a):
    # zeros of both signs, exact multiples of pi, huge values, inf and nan
    a = np.array(a + [0.0, -0.0])
    with np.errstate(invalid="ignore"):
        got, want = normalize_angles(a), _normalize_angles_by_mod(a)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _footprint(x, y, heading, half_length, half_width):
    """agent_footprint of a static box at the pose (x, y, heading)."""
    return agent_footprint(AgentState("box", Pose2(x, y, heading), 0.0, half_length, half_width, "static"))


@settings(derandomize=True, max_examples=100)
@given(
    st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-math.pi, math.pi)), min_size=1, max_size=8),
    st.floats(0.3, 5.0),
    st.floats(0.3, 5.0),
)
def test_agent_footprint_is_its_column_of_rect_corners_batch_bitwise(poses, hl, hw):
    # One pose's np.cos and np.sin, and its corners, carry the bits of that
    # pose's column in a batch.
    poses = [Pose2(x, y, h) for x, y, h in poses]
    heads = np.array([p.heading for p in poses])
    xy = np.array([[p.x for p in poses], [p.y for p in poses]])
    batch = rect_corners_batch(xy, np.array([np.cos(heads), np.sin(heads)]), hl, hw)  # (2, 4, N)
    for k, p in enumerate(poses):
        one = _footprint(p.x, p.y, p.heading, hl, hw)  # (4, 2)
        assert np.array_equal(one.T.view(np.int64), batch[:, :, k].view(np.int64))


def test_agent_footprint_rotation_oracle():
    # Hand-applied 2x2 rotation of the local corners.
    h = math.pi / 4
    rot = np.array([[math.cos(h), -math.sin(h)], [math.sin(h), math.cos(h)]])
    local = np.array([[2.0, 1.0], [-2.0, 1.0], [-2.0, -1.0], [2.0, -1.0]])
    expected = local @ rot.T + np.array([3.0, -1.0])
    got = _footprint(3.0, -1.0, h, 2.0, 1.0)
    assert np.allclose(got, expected, atol=1e-12)


@given(st.floats(-math.pi, math.pi), st.floats(0.3, 5.0), st.floats(0.3, 5.0))
def test_agent_footprint_counterclockwise(heading, hl, hw):
    c = _footprint(0.0, 0.0, heading, hl, hw)
    for i in range(4):
        a, b = c[i], c[(i + 1) % 4]
        u, v = b - a, c[(i + 2) % 4] - b
        assert u[0] * v[1] - u[1] * v[0] > 0


def _overlap(a, b) -> bool:
    """boxes_overlap on two (x, y, heading, half_length, half_width) boxes."""
    ax, ay, ah, al, aw = a
    bx, by, bh, bl, bw = b
    return bool(boxes_overlap(bx - ax, by - ay, np.cos(ah), np.sin(ah), al, aw, np.cos(bh), np.sin(bh), bl, bw))


def _corner_sat(a, b):
    """Reference: separating-axis test on the corners of two boxes.

    Projects all 8 corners on the 4 unit edge normals. Returns (overlap, gap):
    gap is the largest separation over the axes, <= 0 when the boxes overlap.
    """
    ca, cb = _footprint(*a), _footprint(*b)
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
    hit = boxes_overlap(np.array([5.0, 4.0, 3.0]), 0.0, 1.0, 0.0, 2.0, 1.0, 1.0, 0.0, 2.0, np.array([1.0, 1.0, 1.0]))
    assert hit.tolist() == [False, True, True]


def test_points_in_polygon_inclusive():
    poly = np.array([[0, 0], [4, 0], [4, 2], [0, 2]], dtype=float)
    # inside, outside, on an edge, on a vertex
    assert points_in_polygon(np.array([[1, 1], [5, 1], [4, 1], [0, 0]]), poly).tolist() == [True, False, True, True]


def test_points_in_polygons_aabb_matches_general():
    box = np.array([[0, 0], [4, 0], [4, 2], [0, 2]], dtype=float)
    assert polygon_as_aabb(box) == (0.0, 0.0, 4.0, 2.0)
    tri = np.array([[0, 0], [4, 0], [2, 3]], dtype=float)
    assert polygon_as_aabb(tri) is None
    pts = np.array([[1, 1], [4, 2], [5, 5], [-1, 0.5], [2, 1.5]])
    via_union = points_in_polygons(pts[:, 0], pts[:, 1], [box], [polygon_as_aabb(box)])
    via_pip = points_in_polygon(pts, box)
    assert (via_union == via_pip).all()
    # the same points tested as a non-box polygon, and as a (5, 1) grid
    assert (points_in_polygons(pts[:, 0], pts[:, 1], [box], [None]) == via_pip).all()
    grid = points_in_polygons(pts[:, :1], pts[:, 1:], [tri, box], [None, polygon_as_aabb(box)])
    assert grid.shape == (5, 1)
    assert (grid[:, 0] == (via_pip | points_in_polygon(pts, tri))).all()


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


ONE_POINT_CHECKS = 8  # points per example also projected one at a time
LARGE_BATCH_PAIRS = 12_000  # points x segments of a large batch


def _assert_warm_and_one_point_paths(ps, pts, want):
    """want is the projection of ps onto the polyline pts. A table whose
    segment array an earlier call built gives it in every bit, and so does
    each point projected alone, as a batch of one on a fresh table
    (lqr_track's path)."""
    warm = SegmentTable(pts)
    project_points_to_polyline(pts[-1:], warm)  # builds the segment array
    assert "seg" in warm.__dict__
    _assert_bitwise(project_points_to_polyline(ps, warm), want)
    for i in range(min(len(ps), ONE_POINT_CHECKS)):
        fresh = SegmentTable(pts)
        _assert_bitwise(project_points_to_polyline(ps[i : i + 1], fresh), [a[i : i + 1] for a in want])


@st.composite
def _random_polyline_case(draw):
    """A random polyline, a batch of query points, and no hand oracle.

    2-300 vertices from a random walk where a step may repeat its vertex (a
    zero-length segment), fold straight back over the last step, or jump
    back to an earlier vertex. Points sit near the line, on vertices, past
    either end along the end segment's direction, or far off. The batch
    holds 1-20 points or enough to reach LARGE_BATCH_PAIRS points x segments.
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
        n = -(-LARGE_BATCH_PAIRS // m) + draw(st.integers(0, 30))
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
    _assert_warm_and_one_point_paths(ps, pts, got)

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
    """A polyline and query points that stress ties and distance.

    Polylines have 1-60 segments: a lattice walk of axis-aligned
    unit-multiple segments, where points on a bend's bisector tie exactly
    between two segments, a zigzag of steep alternating segments, or a
    smooth random walk with an occasional repeated vertex. Points sit on
    vertices, on bisectors, near the line, or up to 10 km off it (only some
    examples have far points); 1-40 or 200-400 points.
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
def test_projection_ties_match_dense_reference_bitwise(case):
    ps, pts = case
    ref = reference_project_points(ps, pts)
    table = SegmentTable(pts)
    assert np.array_equal(table.s, np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))]))
    _assert_bitwise(project_points_to_polyline(ps, table), ref)
    _assert_warm_and_one_point_paths(ps, pts, ref)


@st.composite
def _stack_case(draw):
    """2-4 polylines of 1-20 segments each, so every row but the longest is
    padded, and a batch of points about them.

    A polyline is a lattice walk of axis-aligned unit-multiple steps, whose
    corner bisectors are equidistant from two segments, or a smooth random
    walk; each is offset by up to 30 m from the origin, where a zero-filled
    padding would sit. Points sit on vertices, on corner diagonals, past
    either end along the end segment, near a polyline, or anywhere in a box
    about all of them (the origin included). The batch holds 1-30 points,
    or enough for points x polylines x stack width to reach
    LARGE_BATCH_PAIRS.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = []
    for _ in range(draw(st.integers(2, 4))):
        m = draw(st.integers(1, 20))
        if draw(st.booleans()):
            axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
            steps = axes[rng.integers(0, 2, m) + 2 * (rng.random(m) < 0.2)] * rng.integers(1, 4, (m, 1))
        else:
            heading = np.cumsum(rng.normal(0.0, 0.5, m))
            steps = np.stack([np.cos(heading), np.sin(heading)], axis=1) * rng.uniform(0.5, 4.0, (m, 1))
        lines.append(np.concatenate([[[0.0, 0.0]], np.cumsum(steps, axis=0)]) + rng.integers(-30, 31, 2))
    width = max(len(pts) - 1 for pts in lines)
    n = draw(st.one_of(st.integers(1, 30), st.integers(0, 40).map(
        lambda extra: -(-LARGE_BATCH_PAIRS // (len(lines) * width)) + extra
    )))
    ps = np.empty((n, 2))
    diagonal = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    for i in range(n):
        pts = lines[rng.integers(len(lines))]
        vertex = pts[rng.integers(len(pts))]
        t = rng.choice([0.0, 0.5, 1.0, 2.5, 6.0])
        ps[i] = [
            vertex,
            vertex + t * diagonal[rng.integers(4)],
            pts[0] - t * (pts[1] - pts[0]),
            pts[-1] + t * (pts[-1] - pts[-2]),
            vertex + rng.normal(0.0, 1.5, 2),
            rng.uniform(-45.0, 45.0, 2),
        ][rng.integers(6)]
    return ps, lines


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_stack_case())
def test_projection_onto_a_stack_matches_each_polyline_bitwise(case):
    ps, lines = case
    tables = [SegmentTable(pts) for pts in lines]
    got = project_points_to_polylines(ps, SegmentStack(tables))
    for k, table in enumerate(tables):
        _assert_bitwise([a[k] for a in got], project_points_to_polyline(ps, table))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_random_polyline_case())
def test_segment_array_holds_one_column_per_segment_bitwise(case):
    # One column per segment, unpadded, each filled as the class docstring
    # says; a degenerate segment has inverse squared length 0 and heading 0.
    _, pts, _ = case
    table = SegmentTable(pts)
    d = pts[1:] - pts[:-1]
    len2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    heading = np.array([math.atan2(dy, dx) for dx, dy in d.tolist()])
    want = np.stack([
        pts[:-1, 0],
        pts[:-1, 1],
        d[:, 0],
        d[:, 1],
        [1.0 / l2 if l2 > 0 else 0.0 for l2 in len2.tolist()],
        table.s[:-1],
        np.sqrt(len2),
        heading,
        -np.sin(heading),
        np.cos(heading),
    ])
    assert table.seg.shape == (SEG_ROWS, len(pts) - 1)
    _assert_bitwise(list(table.seg), list(want))
    assert table.headings.base is table.seg  # the heading row, not a copy


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_stack_case())
def test_stack_pads_each_row_with_its_last_segment_bitwise(case):
    # Row k is tables[k]'s segment array, then copies of its last column out
    # to the widest table; _flat gathers row k's segment i at k * width + i.
    _, lines = case
    tables = [SegmentTable(pts) for pts in lines]
    stack = SegmentStack(tables)
    width = max(t.n_segments for t in tables)
    assert stack.seg.shape == (SEG_ROWS, len(tables), 1, width)
    for k, t in enumerate(tables):
        m = t.n_segments
        row = stack.seg[:, k, 0]
        _assert_bitwise((row[:, :m],), (t.seg,))
        _assert_bitwise((row[:, m:],), (np.repeat(t.seg[:, -1:], width - m, axis=1),))
        _assert_bitwise((stack._flat[:, stack._row_start[k, 0] : stack._row_start[k, 0] + width],), (row,))


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_random_polyline_case(), seed=st.integers(0, 2**32 - 1))
@example(  # zero-length segments first, in the middle and last
    case=(None, np.array([[0.0, 0.0], [0.0, 0.0], [4.0, 0.0], [4.0, 0.0], [4.0, 3.0], [4.0, 3.0]]), None), seed=0
)
def test_segment_table_matches_reference_forms_bitwise(case, seed):
    _, pts, _ = case
    table, ref = SegmentTable(pts), ReferenceSegmentTable(pts)
    _assert_bitwise((table.s,), (ref.s,))
    rng = np.random.default_rng(seed)
    # every vertex, random arclengths in and past the polyline, as (N,), (K, M) and a scalar
    s = np.concatenate([ref.s, rng.uniform(-5.0, ref.s[-1] + 5.0, 40), [-1e-300, np.nextafter(ref.s[-1], np.inf)]])
    inside = np.minimum(np.maximum(s, 0.0), ref.s[-1])
    for q in (s, s[:40].reshape(8, 5), s[len(pts) + 3]):
        _assert_bitwise((table.points_at(q), *table.pose_at(q)), (ref.points_at(q), *ref.pose_at(q)))
    _assert_bitwise((table.segment_index(inside),), (ref.segment_index(inside),))
