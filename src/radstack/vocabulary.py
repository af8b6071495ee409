"""Trajectory vocabulary: harvest ego-frame maneuver samples from closed-loop
episodes, cluster them into K prototypes, and instantiate prototypes in the
world frame as planner proposals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateClusterError,
    ParseError,
    ValidationError,
    expected,
    from_text,
    integer,
    number,
    read_text,
    write_text,
)
from .geometry import to_local_frame
from .scene import EgoState, segment_headings_and_speeds

V_MAX = 20.0  # m/s bound used by the start-near-origin invariant
KMEANS_MAX_ITERS = 100  # cap on Lloyd iterations


@dataclass(frozen=True, eq=False)
class Vocabulary:
    prototypes: np.ndarray  # (K, T, 2) ego-frame waypoints, x forward
    dt: float
    sse_history: tuple = ()  # per-iteration clustering SSE, empty if not clustered

    def __post_init__(self):
        dt = number(self.dt, "vocabulary.dt", above=0)
        p = np.asarray(self.prototypes, dtype=float)
        if p.ndim != 3 or p.shape[0] < 1 or p.shape[2] != 2:
            raise ValidationError("vocabulary.prototypes: expected shape (K, T, 2) with K >= 1")
        bad = ~np.isfinite(p).all(axis=(1, 2))
        if bad.any():
            raise ValidationError(f"vocabulary.prototypes[{int(bad.argmax())}]: coordinates must be finite")
        far = np.linalg.norm(p[:, 0, :], axis=1) > dt * V_MAX + 1e-9
        if far.any():
            raise ValidationError(f"vocabulary.prototypes[{int(far.argmax())}]: does not start near the origin")
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


def kmeans_cluster(samples, k: int, seed: int = 0, dt: float = 0.1) -> Vocabulary:
    """Lloyd's iterations over flattened trajectories with k-means++ seeding.

    Stops when assignments stabilize or after KMEANS_MAX_ITERS. Empty clusters
    are re-seeded to the point farthest from its center; if that is
    impossible a DegenerateClusterError is raised.
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
    for _ in range(KMEANS_MAX_ITERS):
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


def instantiate_prototype(prototypes: np.ndarray, ego: EgoState, dt: float):
    """Rigidly transform ego-frame prototypes (K, T, 2) to the ego pose, all in one batch.

    Returns positions (K, T+1, 2), headings and speeds (K, T+1). Sample 0 of
    every row is the current ego state; speeds come from finite differences
    of arclength; headings from segment directions (held through standstill).
    """
    proto = np.asarray(prototypes, dtype=float).transpose(1, 0, 2)  # (T, K, 2)
    x, y, heading = ego.pose.x, ego.pose.y, ego.pose.heading
    c, s = math.cos(heading), math.sin(heading)
    px, py = proto[..., 0], proto[..., 1]
    pts = np.empty((len(proto) + 1,) + proto.shape[1:])
    pts[0] = (x, y)
    pts[1:, :, 0] = x + c * px - s * py
    pts[1:, :, 1] = y + s * px + c * py
    heads, speeds = segment_headings_and_speeds(pts, heading, ego.speed, dt)
    return pts.transpose(1, 0, 2), heads.T, speeds.T


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Text format: three header lines (K, T, dt) then K rows of 2T floats."""
    lines = [f"K {vocab.K}", f"T {vocab.T}", f"dt {vocab.dt!r}"]
    for proto in vocab.prototypes:
        lines.append(" ".join(repr(float(v)) for v in proto.reshape(-1)))
    write_text(path, "\n".join(lines) + "\n", "vocabulary file")


# The header lines: key, reader and bounds of the value.
_HEADER = (("K", integer, {"at_least": 1}), ("T", integer, {"at_least": 1}), ("dt", number, {"above": 0}))


def load_vocabulary(path) -> Vocabulary:
    """Read the save_vocabulary format. A malformed header or row raises
    ParseError naming the file line and the field."""
    text = read_text(path, "vocabulary file")
    lines = [(line, ln.split()) for line, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(lines) < 4:
        raise ParseError(f"malformed vocabulary file {path}: too short")
    header = []
    for (line, fields), (key, read, bounds) in zip(lines, _HEADER):
        where = f"malformed vocabulary file {path} line {line}: {key}"
        try:
            header.append(from_text(fields[1] if fields[:1] == [key] and len(fields) == 2 else "", read, where,
                                    ParseError, **bounds))
        except ParseError as e:  # a header line reads as one field
            raise expected(ParseError, where, f"'{key} <{e.what}>'", " ".join(fields)) from None
    k, t, dt = header
    body = lines[3:]
    if len(body) != k:
        raise ParseError(f"malformed vocabulary file {path}: header says K={k} but body has {len(body)} rows")
    protos = np.empty((k, 2 * t))
    for i, (line, values) in enumerate(body):
        where = f"malformed vocabulary file {path} line {line}: prototypes[{i}]"
        if len(values) != 2 * t:
            raise ParseError(f"{where}: {len(values)} values, expected {2 * t}")
        protos[i] = [from_text(v, number, f"{where}[{j}]", ParseError) for j, v in enumerate(values)]
    return Vocabulary(prototypes=protos.reshape(k, t, 2), dt=dt)
