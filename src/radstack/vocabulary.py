"""Trajectory vocabulary: harvest ego-frame maneuver samples from closed-loop
episodes, cluster them into K prototypes, and instantiate prototypes in the
world frame as planner proposals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClusterError, IoError, ParseError, ValidationError
from .geometry import to_local_frame
from .scene import EgoState, Trajectory, segment_headings_and_speeds, trajectory_from_arrays

V_MAX = 20.0  # m/s bound used by the start-near-origin invariant


@dataclass(frozen=True, eq=False)
class Vocabulary:
    prototypes: np.ndarray  # (K, T, 2) ego-frame waypoints, x forward
    dt: float
    sse_history: tuple = ()  # per-iteration clustering SSE, empty if not clustered

    def __post_init__(self):
        p = np.asarray(self.prototypes, dtype=float)
        if p.ndim != 3 or p.shape[0] < 1 or p.shape[2] != 2:
            raise ValidationError("vocabulary.prototypes: expected shape (K, T, 2) with K >= 1")
        if not np.isfinite(p).all():
            raise ValidationError("vocabulary.prototypes: coordinates must be finite")
        first = np.linalg.norm(p[:, 0, :], axis=1)
        if (first > self.dt * V_MAX + 1e-9).any():
            raise ValidationError("vocabulary.prototypes: a prototype does not start near the origin")
        object.__setattr__(self, "prototypes", p)

    @property
    def K(self) -> int:
        return self.prototypes.shape[0]

    @property
    def T(self) -> int:
        return self.prototypes.shape[1]


def slice_ego_windows(states, horizon_steps: int, stride: int = 5):
    """Ego-frame future windows from an executed state sequence.

    states: EgoState sequence at uniform dt. Each window transforms the next
    horizon_steps positions into the frame of the window's first state.
    """
    xy = np.array([(st.pose.x, st.pose.y) for st in states]).reshape(-1, 2)
    out = []
    for i in range(0, len(states) - horizon_steps, stride):
        anchor = states[i].pose
        out.append(to_local_frame(xy[i + 1 : i + 1 + horizon_steps], anchor.x, anchor.y, anchor.heading))
    return out


def collect_expert_trajectories(
    scenarios,
    policy,
    count: int,
    horizon_steps: int = 40,
    stride: int = 5,
):
    """Harvest up to `count` ego-frame windows by running `policy` on scenarios.

    policy: callable Scenario -> sequence of executed EgoState (uniform dt).
    Deterministic for a fixed scenario list and deterministic policy.
    """
    if not scenarios:
        raise ValueError("scenarios must be nonempty")
    samples = []
    for scenario in scenarios:
        states = policy(scenario)
        samples.extend(slice_ego_windows(states, horizon_steps, stride))
        if len(samples) >= count:
            break
    return samples[:count]


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = x[int(rng.integers(n))]
            continue
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans_cluster(
    samples,
    k: int,
    max_iters: int = 100,
    seed: int = 0,
    dt: float = 0.1,
) -> Vocabulary:
    """Lloyd's iterations over flattened trajectories with k-means++ seeding.

    Stops when assignments stabilize or after max_iters. Empty clusters are
    re-seeded to the point farthest from its center; if that is impossible a
    DegenerateClusterError is raised.
    """
    samples = [np.asarray(s, dtype=float) for s in samples]
    if len(samples) < k:
        raise ValueError(f"need at least k={k} samples, got {len(samples)}")
    t_steps = samples[0].shape[0]
    x = np.stack([s.reshape(-1) for s in samples])  # (N, 2T)
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(x, k, rng)

    assign = np.full(len(x), -1)
    sse_history = []
    for _ in range(max_iters):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        for j in range(k):
            members = x[new_assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
            else:
                dist_to_own = d2[np.arange(len(x)), new_assign]
                far = int(dist_to_own.argmax())
                if dist_to_own[far] <= 0:
                    raise DegenerateClusterError(
                        f"cluster {j} is empty and all samples coincide with their centers"
                    )
                centers[j] = x[far]
                new_assign[far] = j
        sse = float(((x - centers[new_assign]) ** 2).sum())
        if sse_history:
            assert sse <= sse_history[-1] + 1e-9, "k-means SSE increased"
        sse_history.append(sse)
        if (new_assign == assign).all():
            break
        assign = new_assign
    return Vocabulary(
        prototypes=centers.reshape(k, t_steps, 2), dt=dt, sse_history=tuple(sse_history)
    )


def instantiate_vocabulary(
    prototype: np.ndarray, ego: EgoState, dt: float = 0.1, tag: str = "vocabulary"
) -> Trajectory:
    """Rigidly transform an ego-frame prototype to the ego pose.

    Sample 0 is the current ego state; speeds come from finite differences of
    arclength; headings from segment directions (held through standstill).
    """
    proto = np.asarray(prototype, dtype=float)
    c, s = math.cos(ego.pose.heading), math.sin(ego.pose.heading)
    world = np.empty_like(proto)
    world[:, 0] = ego.pose.x + c * proto[:, 0] - s * proto[:, 1]
    world[:, 1] = ego.pose.y + s * proto[:, 0] + c * proto[:, 1]
    pts = np.concatenate([[(ego.pose.x, ego.pose.y)], world])
    heads, speeds = segment_headings_and_speeds(pts, ego.pose.heading, ego.speed, dt)
    return trajectory_from_arrays(dt, pts, heads, speeds, tag, (ego.pose, ego.speed))


def instantiate_prototype(vocab: Vocabulary, index: int, ego: EgoState, tag: str = "vocabulary") -> Trajectory:
    """Instantiate vocab.prototypes[index] at the ego pose with the vocab dt."""
    return instantiate_vocabulary(vocab.prototypes[index], ego, dt=vocab.dt, tag=tag)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Text format: three header lines (K, T, dt) then K rows of 2T floats."""
    lines = [f"K {vocab.K}", f"T {vocab.T}", f"dt {vocab.dt!r}"]
    for proto in vocab.prototypes:
        lines.append(" ".join(repr(float(v)) for v in proto.reshape(-1)))
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as e:
        raise IoError(f"cannot write vocabulary file {path}: {e}") from e


def load_vocabulary(path) -> Vocabulary:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except OSError as e:
        raise IoError(f"cannot read vocabulary file {path}: {e}") from e
    if len(lines) < 4:
        raise ParseError("vocabulary file too short")
    try:
        k = int(lines[0].split()[1])
        t = int(lines[1].split()[1])
        dt = float(lines[2].split()[1])
    except (IndexError, ValueError) as e:
        raise ParseError(f"bad vocabulary header: {e}") from e
    body = lines[3:]
    if len(body) != k:
        raise ParseError(f"vocabulary header says K={k} but body has {len(body)} rows")
    protos = np.empty((k, t, 2))
    for i, row in enumerate(body):
        vals = row.split()
        if len(vals) != 2 * t:
            raise ParseError(f"vocabulary row {i} has {len(vals)} values, expected {2 * t}")
        protos[i] = np.array([float(v) for v in vals]).reshape(t, 2)
    return Vocabulary(prototypes=protos, dt=dt)
