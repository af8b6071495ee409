import math

import numpy as np
import pytest

from radstack.geometry import polyline_arclengths
from radstack.scene import (
    AgentState,
    EgoState,
    Lane,
    Pose2,
    Scenario,
    generate_synthetic_scenario,
)
from radstack.topology import ProposalPath, graph_search


def straight_lane(lane_id="lane_a", y=0.0, x0=0.0, x1=120.0, limit=10.0, **kw):
    xs = np.arange(x0, x1 + 1e-9, 10.0)
    pts = tuple(Pose2(float(x), float(y), 0.0) for x in xs)
    return Lane(id=lane_id, centerline=pts, speed_limit=limit, **kw)


def rect(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def straight_scenario(agents=(), ego_speed=8.0, limit=10.0, length=120.0, goal_x=100.0):
    lane = straight_lane(x1=length, limit=limit)
    return Scenario(
        lanes=(lane,),
        drivable_area=(rect(-5.0, -4.0, length + 5.0, 4.0),),
        crosswalks=(),
        agents=tuple(agents),
        ego=EgoState(pose=Pose2(0.0, 0.0, 0.0), speed=ego_speed),
        route=("lane_a",),
        goal=Pose2(goal_x, 0.0, 0.0),
        duration=30.0,
        seed=0,
    )


def straight_path(scenario=None, horizon_length=120.0) -> ProposalPath:
    scenario = scenario or straight_scenario()
    return graph_search(scenario.ego, scenario, horizon_length=horizon_length)[0]


@pytest.fixture
def plain_scenario():
    return straight_scenario()


@pytest.fixture
def plain_path(plain_scenario):
    return graph_search(plain_scenario.ego, plain_scenario)[0]


@pytest.fixture
def blocked_scenario():
    return generate_synthetic_scenario("blocked_lane", 7)


@pytest.fixture
def deadlock_scenario():
    return generate_synthetic_scenario("deadlock_pair", 7)


def static_car(agent_id, x, y, heading=0.0, half_length=2.3, half_width=1.0):
    return AgentState(
        id=agent_id,
        pose=Pose2(x, y, heading),
        speed=0.0,
        half_length=half_length,
        half_width=half_width,
        kind="static",
    )


def reference_project_points(ps, pts):
    """The dense projection over every segment: the tests' reference for project_points_to_polyline.

    Returns (s, lateral, heading, foot) like the program's projection: each
    point takes the first segment of least squared distance to its clamped
    foot point.
    """
    ps = np.asarray(ps, dtype=float)
    pts = np.asarray(pts, dtype=float)
    s_cum = polyline_arclengths(pts)
    ax, ay = pts[:-1, 0], pts[:-1, 1]
    ex = np.diff(pts[:, 0])
    ey = np.diff(pts[:, 1])
    len2 = ex * ex + ey * ey
    inv_len2 = np.where(len2 > 0, 1.0 / np.maximum(len2, 1e-300), 0.0)
    dx = ps[:, 0, None] - ax
    dy = ps[:, 1, None] - ay
    u = np.clip((dx * ex + dy * ey) * inv_len2, 0.0, 1.0)
    fx = dx - u * ex
    fy = dy - u * ey
    d2 = fx * fx + fy * fy
    idx = np.argmin(d2, axis=1)
    rows = np.arange(len(ps))
    u = u[rows, idx]
    s = s_cum[idx] + u * np.sqrt(len2[idx])
    head = np.array([math.atan2(y, x) for x, y in zip(ex[idx], ey[idx])])
    lateral = -np.sin(head) * fx[rows, idx] + np.cos(head) * fy[rows, idx]
    foot = np.stack([ax[idx] + u * ex[idx], ay[idx] + u * ey[idx]], axis=1)
    return s, lateral, head, foot
