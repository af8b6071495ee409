"""Learned plan head: a feature encoder feeding a vocabulary classifier and a
zero-initialized refinement head, trained with a soft cross-entropy over
prototype proximity plus a mean per-waypoint refinement loss.

Inference is staged, under one of two budgets: classify_only stops after the
encoder+classifier pass, which always yields a valid plan; classify_and_refine
adds the refinement stage on the same encoding.
Gradients are computed by hand (no autograd dependency).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ParseError, array, integer, load_json, number, obj, write_text
from .geometry import to_local_frame
from .scene import EgoState, Pose2, Trajectory
from .topology import ProposalPath, project_onto_path
from .vocabulary import Vocabulary, instantiate_prototype, slice_ego_windows

FEATURE_DIM = 64
HIDDEN_DIM = 128
N_AGENT_SLOTS = 6
AGENT_FEATURES = 8
OFFSET_CLAMP = 2.0  # m per refined coordinate
CURVATURE_LOOKAHEAD = 30.0  # m of path ahead summarized in features


# --------------------------------------------------------------------------
# Features


def extract_features(ego: EgoState, agents, path: ProposalPath, goal: Pose2, projection: tuple) -> np.ndarray:
    """Fixed-length scene descriptor, all geometry in the ego frame.

    projection is the ego's (arclength, signed lateral, heading error) on
    path, as project_onto_path returns it; the hybrid planner passes the one
    its rollout computed, so the ego is not projected again.

    Layout (D = 64):
      0..2   ego speed, accel, steering
      3..7   lateral offset, heading error, remaining path length,
             mean |curvature|, max |curvature| over the lookahead
      8..10  goal distance, sin/cos of goal bearing
      11..58 six nearest agents x (rel x, rel y, rel vx, rel vy,
             cos/sin relative heading, half_length, half_width)
      59..63 reserved (zero)
    """
    f = np.zeros(FEATURE_DIM)
    f[0] = ego.speed
    f[1] = ego.accel
    f[2] = ego.steering

    s_ego, lateral, heading_err = projection
    f[3] = lateral
    f[4] = heading_err
    f[5] = min(path.length - s_ego, 200.0)
    # The path points with s_ego <= s <= s_ego + CURVATURE_LOOKAHEAD: a run, as s ascends.
    lo = path.s.searchsorted(s_ego, side="left")
    hi = path.s.searchsorted(s_ego + CURVATURE_LOOKAHEAD, side="right")
    if hi - lo >= 3:
        pts = path.points[lo:hi]
        d = pts[1:] - pts[:-1]
        heads = np.arctan2(d[:, 1], d[:, 0])
        turn = heads[1:] - heads[:-1]
        dh = np.abs(np.arctan2(np.sin(turn), np.cos(turn)))
        ds = np.hypot(d[:-1, 0], d[:-1, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = np.where(ds > 0, dh / ds, 0.0)
        f[6] = curv.mean()
        f[7] = np.abs(curv).max()

    pose = ego.pose
    gx, gy = to_local_frame((goal.x, goal.y), pose.x, pose.y, pose.heading)
    dist = math.hypot(gx, gy)
    f[8] = min(dist, 200.0)
    if dist > 1e-9:
        f[9] = gy / dist
        f[10] = gx / dist

    ranked = sorted(
        agents,
        key=lambda a: (math.hypot(a.pose.x - ego.pose.x, a.pose.y - ego.pose.y), a.id),
    )[:N_AGENT_SLOTS]
    xy = np.array([[a.pose.x, a.pose.y] for a in ranked]).reshape(-1, 2)
    for slot, (a, (rx, ry)) in enumerate(zip(ranked, to_local_frame(xy, pose.x, pose.y, pose.heading))):
        base = 11 + slot * AGENT_FEATURES
        rel_head = a.pose.heading - ego.pose.heading
        vx = a.speed * math.cos(rel_head)
        vy = a.speed * math.sin(rel_head)
        f[base : base + AGENT_FEATURES] = (
            rx,
            ry,
            vx - ego.speed,
            vy,
            math.cos(rel_head),
            math.sin(rel_head),
            a.half_length,
            a.half_width,
        )
    return f


@dataclass(frozen=True)
class TrainingSample:
    features: np.ndarray  # (D,)
    expert: np.ndarray  # (T, 2) ego-frame ground truth


def harvest_training_samples(
    scenario,
    ego_states,
    agents_seq,
    horizon_steps: int,
    stride: int = 5,
):
    """Pair per-tick features with the executed ego-frame future.

    ego_states / agents_seq: aligned per-tick sequences from one episode.
    Ticks whose future extends past the episode end are skipped.
    """
    from .topology import graph_search

    samples = []
    windows = slice_ego_windows(ego_states, horizon_steps, stride)
    for i, expert in zip(range(0, len(ego_states) - horizon_steps, stride), windows):
        ego = ego_states[i]
        path = graph_search(ego, scenario)[0]
        feats = extract_features(ego, agents_seq[i], path, scenario.goal, project_onto_path(path, ego.pose))
        samples.append(TrainingSample(features=feats, expert=expert))
    return samples


# --------------------------------------------------------------------------
# Model


@dataclass
class PlanHeadModel:
    """Two-layer tanh encoder, linear classifier, two-layer refiner.

    The refiner's final layer starts at zero so refinement is the identity
    before any training step.
    """

    vocab: Vocabulary
    d: int = FEATURE_DIM
    h: int = HIDDEN_DIM
    params: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.vocab.K

    @property
    def t(self) -> int:
        return self.vocab.T


def _param_shapes(d: int, h: int, k: int, t: int) -> dict:
    """Parameter name -> shape, in the order init_model draws them."""
    return {
        "w1": (h, d),
        "b1": (h,),
        "w2": (h, h),
        "b2": (h,),
        "wc": (k, h),
        "bc": (k,),
        "wr1": (h, 2 * t + h),
        "br1": (h,),
        "wr2": (2 * t, h),
        "br2": (2 * t,),
    }


def init_model(vocab: Vocabulary, d: int = FEATURE_DIM, h: int = HIDDEN_DIM, seed: int = 0) -> PlanHeadModel:
    rng = np.random.default_rng(seed)

    def glorot(n_out, n_in):
        lim = math.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-lim, lim, size=(n_out, n_in))

    # Biases and wr2 start at zero (wr2: the refiner starts as the identity).
    params = {
        name: glorot(*shape) if name in ("w1", "w2", "wc", "wr1") else np.zeros(shape)
        for name, shape in _param_shapes(d, h, vocab.K, vocab.T).items()
    }
    return PlanHeadModel(vocab=vocab, d=d, h=h, params=params)


def _encode(model: PlanHeadModel, x: np.ndarray):
    p = model.params
    z1 = x @ p["w1"].T + p["b1"]
    h1 = np.tanh(z1)
    z2 = h1 @ p["w2"].T + p["b2"]
    h = np.tanh(z2)
    return h, (x, h1, h)


def _classify(model: PlanHeadModel, h: np.ndarray):
    p = model.params
    return h @ p["wc"].T + p["bc"]


def _refine(model: PlanHeadModel, h: np.ndarray, v_hat: np.ndarray):
    p = model.params
    u = np.concatenate([h, v_hat.reshape(h.shape[0], -1)], axis=1)
    z = u @ p["wr1"].T + p["br1"]
    r1 = np.tanh(z)
    raw = r1 @ p["wr2"].T + p["br2"]
    off = np.minimum(np.maximum(raw, -OFFSET_CLAMP), OFFSET_CLAMP)  # np.clip, at less call overhead
    return off, (u, r1, raw)


def soft_targets(v_star: np.ndarray, vocab: Vocabulary) -> np.ndarray:
    """Distribution over prototypes by squared-distance proximity to v_star.

    Computed with max-subtraction for numerical stability; sums to 1.
    """
    v_star = np.asarray(v_star, dtype=float)
    if v_star.shape != (vocab.T, 2):
        raise ValueError(f"v_star shape {v_star.shape} != (T={vocab.T}, 2)")
    d2 = ((vocab.prototypes - v_star[None, :, :]) ** 2).sum(axis=(1, 2))
    logits = -d2
    logits -= logits.max()
    e = np.exp(logits)
    return e / e.sum()


# --------------------------------------------------------------------------
# Training


def _batch_forward_backward(model: PlanHeadModel, x, y, v_star):
    """Mean loss over the batch and gradients for every parameter."""
    p = model.params
    n = x.shape[0]
    t = model.t

    h, (x_in, h1, h_out) = _encode(model, x)
    logits = _classify(model, h)

    # Plan loss and gradient wrt logits.
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    z = e.sum(axis=1, keepdims=True)
    lse = (m + np.log(z)).reshape(-1)
    loss_plan = lse - (y * logits).sum(axis=1)
    softmax = e / z
    d_logits = (softmax - y) / n

    # Refinement on the argmax prototype (constant wrt parameters).
    best = logits.argmax(axis=1)
    v_hat = model.vocab.prototypes[best]
    off, (u, r1, raw) = _refine(model, h, v_hat)
    refined = v_hat + off.reshape(n, t, 2)
    diff = refined - v_star
    norms = np.linalg.norm(diff, axis=2)
    loss_refine = norms.mean(axis=1)
    safe = np.maximum(norms, 1e-12)
    d_refined = diff / safe[:, :, None] / t / n
    d_off = d_refined.reshape(n, t * 2)
    d_off = np.where(np.abs(raw) < OFFSET_CLAMP, d_off, 0.0)

    loss = float(loss_plan.mean() + loss_refine.mean())

    grads = {}
    # Refiner.
    grads["wr2"] = d_off.T @ r1
    grads["br2"] = d_off.sum(axis=0)
    d_r1 = d_off @ p["wr2"]
    d_z = d_r1 * (1.0 - r1 * r1)
    grads["wr1"] = d_z.T @ u
    grads["br1"] = d_z.sum(axis=0)
    d_u = d_z @ p["wr1"]
    d_h = d_u[:, : model.h]

    # Classifier.
    grads["wc"] = d_logits.T @ h
    grads["bc"] = d_logits.sum(axis=0)
    d_h = d_h + d_logits @ p["wc"]

    # Encoder.
    d_z2 = d_h * (1.0 - h_out * h_out)
    grads["w2"] = d_z2.T @ h1
    grads["b2"] = d_z2.sum(axis=0)
    d_h1 = d_z2 @ p["w2"]
    d_z1 = d_h1 * (1.0 - h1 * h1)
    grads["w1"] = d_z1.T @ x_in
    grads["b1"] = d_z1.sum(axis=0)
    return loss, grads


def train(model: PlanHeadModel, samples, epochs: int, lr: float = 1e-2):
    """Full-batch gradient descent on the summed losses; deterministic, with no
    stochastic choices (the initial weights carry the seed, see init_model).

    Returns (model, loss_curve). Raises DivergenceError on non-finite loss.
    """
    if not samples:
        raise ValueError("samples must be nonempty")
    x = np.stack([np.asarray(s.features, dtype=float) for s in samples])
    y = np.stack([soft_targets(np.asarray(s.expert), model.vocab) for s in samples])
    v_star = np.stack([np.asarray(s.expert, dtype=float) for s in samples])

    curve = []
    for _ in range(epochs):
        loss, grads = _batch_forward_backward(model, x, y, v_star)
        if not math.isfinite(loss):
            raise DivergenceError(f"training loss became non-finite ({loss})")
        curve.append(loss)
        for name, g in grads.items():
            model.params[name] = model.params[name] - lr * g
    return model, curve


# --------------------------------------------------------------------------
# Anytime inference

CLASSIFY_ONLY = "classify_only"
CLASSIFY_AND_REFINE = "classify_and_refine"


def plan_anytime(
    model: PlanHeadModel,
    features: np.ndarray,
    ego: EgoState,
    budget: str = CLASSIFY_AND_REFINE,
):
    """Staged inference: classification always yields a complete plan.

    Returns (Trajectory, stage timings). The features are encoded once, in
    the classify stage, and refinement reads the same encoding; both stages
    run the forward passes training runs (_encode, _classify, _refine) on a
    batch of one. With budget=classify_only the coarse prototype plan v_hat
    (the best-scoring prototype) is returned; it is never an error and never
    a partial trajectory.
    """
    if budget not in (CLASSIFY_ONLY, CLASSIFY_AND_REFINE):
        raise ValueError(f"unknown budget {budget!r}")
    timings = []
    t0 = time.perf_counter()
    h, _ = _encode(model, np.asarray(features, dtype=float)[None, :])
    v_hat = model.vocab.prototypes[int(_classify(model, h)[0].argmax())]
    timings.append(("classify", time.perf_counter() - t0))

    waypoints = v_hat
    if budget == CLASSIFY_AND_REFINE:
        t1 = time.perf_counter()
        off, _ = _refine(model, h, v_hat[None])
        waypoints = v_hat + off[0].reshape(model.t, 2)
        timings.append(("refine", time.perf_counter() - t1))
    dt = model.vocab.dt
    (positions,), (headings,), (speeds,) = instantiate_prototype(waypoints[None], ego, dt)
    return Trajectory(dt, positions, headings, speeds, "learned"), timings


# --------------------------------------------------------------------------
# Checkpoint I/O (structured text: header dims + flat parameter lists)


def save_model(model: PlanHeadModel, path) -> None:
    doc = {
        "d": model.d,
        "h": model.h,
        "k": model.k,
        "t": model.t,
        "dt": model.vocab.dt,
        "vocab": model.vocab.prototypes.reshape(model.k, -1).tolist(),
        "params": {name: arr.reshape(-1).tolist() for name, arr in model.params.items()},
    }
    write_text(path, json.dumps(doc, indent=1) + "\n", "model file")


def load_model(path) -> PlanHeadModel:
    """Read a model file. A missing field, or a size, vocab, dt or parameter
    of the wrong type or shape or with a non-finite value, raises ParseError
    naming the file and the field."""
    return load_json(path, "model file", _model_from_dict, ParseError)


def _model_from_dict(doc) -> PlanHeadModel:
    obj(doc, "", ParseError, ("d", "h", "k", "t", "dt", "vocab", "params"), optional=None)
    d, h, k, t = (integer(doc[name], name, ParseError, at_least=1) for name in "dhkt")
    dt = number(doc["dt"], "dt", ParseError, above=0)
    protos = array(doc["vocab"], "vocab", ParseError, (k, 2 * t), f"{k * 2 * t} numbers in {k} rows")
    shapes = _param_shapes(d, h, k, t)
    doc_params = obj(doc["params"], "params", ParseError, tuple(shapes), optional=None)
    params = {}
    for name, shape in shapes.items():
        size = math.prod(shape)
        values = array(doc_params[name], f"params.{name}", ParseError, (size,), f"{size} numbers")
        params[name] = values.reshape(shape)
    vocab = Vocabulary(prototypes=protos.reshape(k, t, 2), dt=dt)
    return PlanHeadModel(vocab=vocab, d=d, h=h, params=params)
