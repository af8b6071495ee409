"""Learned plan head: a feature encoder feeding a vocabulary classifier and a
zero-initialized refinement head, trained with a soft cross-entropy over
prototype proximity plus a mean per-waypoint refinement loss.

Inference is staged: one encoder+classifier pass always yields a valid plan;
refinement is an optional second stage that can be skipped or interrupted.
Gradients are computed by hand (no autograd dependency).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, IoError, ParseError
from .scene import EgoState, Pose2, Trajectory
from .topology import ProposalPath, project_onto_path
from .vocabulary import Vocabulary, instantiate_vocabulary, slice_ego_windows

FEATURE_DIM = 64
HIDDEN_DIM = 128
N_AGENT_SLOTS = 6
AGENT_FEATURES = 8
OFFSET_CLAMP = 2.0  # m per refined coordinate
CURVATURE_LOOKAHEAD = 30.0  # m of path ahead summarized in features


# --------------------------------------------------------------------------
# Features


def extract_features(ego: EgoState, agents, path: ProposalPath, goal: Pose2) -> np.ndarray:
    """Fixed-length scene descriptor, all geometry in the ego frame.

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

    s_ego, lateral, heading_err = project_onto_path(path, ego.pose)
    f[3] = lateral
    f[4] = heading_err
    f[5] = min(path.length - s_ego, 200.0)
    ahead = (path.s >= s_ego) & (path.s <= s_ego + CURVATURE_LOOKAHEAD)
    if ahead.sum() >= 3:
        pts = path.points[ahead]
        d = np.diff(pts, axis=0)
        heads = np.arctan2(d[:, 1], d[:, 0])
        dh = np.abs(np.arctan2(np.sin(np.diff(heads)), np.cos(np.diff(heads))))
        ds = np.hypot(d[:-1, 0], d[:-1, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = np.where(ds > 0, dh / ds, 0.0)
        f[6] = curv.mean()
        f[7] = np.abs(curv).max()

    c, s = math.cos(ego.pose.heading), math.sin(ego.pose.heading)
    gdx, gdy = goal.x - ego.pose.x, goal.y - ego.pose.y
    gx = c * gdx + s * gdy
    gy = -s * gdx + c * gdy
    dist = math.hypot(gx, gy)
    f[8] = min(dist, 200.0)
    if dist > 1e-9:
        f[9] = gy / dist
        f[10] = gx / dist

    ranked = sorted(
        agents,
        key=lambda a: (math.hypot(a.pose.x - ego.pose.x, a.pose.y - ego.pose.y), a.id),
    )
    for slot, a in enumerate(ranked[:N_AGENT_SLOTS]):
        base = 11 + slot * AGENT_FEATURES
        dx, dy = a.pose.x - ego.pose.x, a.pose.y - ego.pose.y
        rx = c * dx + s * dy
        ry = -s * dx + c * dy
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
        feats = extract_features(ego, agents_seq[i], path, scenario.goal)
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


def init_model(vocab: Vocabulary, d: int = FEATURE_DIM, h: int = HIDDEN_DIM, seed: int = 0) -> PlanHeadModel:
    rng = np.random.default_rng(seed)
    k, t = vocab.K, vocab.T
    u = t * 2 + h

    def glorot(n_out, n_in):
        lim = math.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-lim, lim, size=(n_out, n_in))

    params = {
        "w1": glorot(h, d),
        "b1": np.zeros(h),
        "w2": glorot(h, h),
        "b2": np.zeros(h),
        "wc": glorot(k, h),
        "bc": np.zeros(k),
        "wr1": glorot(h, u),
        "br1": np.zeros(h),
        "wr2": np.zeros((t * 2, h)),  # zero-init: refiner starts as identity
        "br2": np.zeros(t * 2),
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
    off = np.clip(raw, -OFFSET_CLAMP, OFFSET_CLAMP)
    return off, (u, r1, raw)


def soft_targets(v_star: np.ndarray, vocab: Vocabulary, temperature: float = 1.0) -> np.ndarray:
    """Distribution over prototypes by squared-distance proximity to v_star.

    Computed with max-subtraction for numerical stability; sums to 1.
    """
    v_star = np.asarray(v_star, dtype=float)
    if v_star.shape != (vocab.T, 2):
        raise ValueError(f"v_star shape {v_star.shape} != (T={vocab.T}, 2)")
    d2 = ((vocab.prototypes - v_star[None, :, :]) ** 2).sum(axis=(1, 2))
    logits = -d2 / temperature
    logits -= logits.max()
    e = np.exp(logits)
    return e / e.sum()


def plan_loss(logits: np.ndarray, y: np.ndarray) -> float:
    """log-sum-exp(s) - y . s, evaluated with max-subtraction."""
    s = np.asarray(logits, dtype=float)
    m = s.max()
    lse = m + math.log(np.exp(s - m).sum())
    return float(lse - (y * s).sum())


def plan_loss_grad(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d plan_loss / d logits = softmax(logits) - y."""
    s = np.asarray(logits, dtype=float)
    e = np.exp(s - s.max())
    return e / e.sum() - y


def refine_loss(refined: np.ndarray, v_star: np.ndarray) -> float:
    """Mean over waypoints of the per-waypoint Euclidean error (not squared)."""
    diff = np.asarray(refined, dtype=float) - np.asarray(v_star, dtype=float)
    return float(np.linalg.norm(diff, axis=-1).mean())


def encode_features(model: PlanHeadModel, features: np.ndarray) -> np.ndarray:
    """Encoder output (1, H) for one feature vector; both heads read it."""
    h, _ = _encode(model, np.asarray(features, dtype=float)[None, :])
    return h


def forward_classify(model: PlanHeadModel, encoding: np.ndarray):
    """(logits, best_index, coarse plan v_hat) from an encoder output."""
    logits = _classify(model, encoding)[0]
    best = int(np.argmax(logits))
    return logits, best, model.vocab.prototypes[best].copy()


def forward_refine(model: PlanHeadModel, encoding: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """v_hat plus clamped per-waypoint offsets from the refinement head."""
    off, _ = _refine(model, encoding, np.asarray(v_hat, dtype=float)[None, :, :])
    return v_hat + off[0].reshape(model.t, 2)


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


def batch_loss(model: PlanHeadModel, samples) -> float:
    """Mean (plan + refine) loss over samples, no gradients."""
    x = np.stack([s.features for s in samples])
    y = np.stack([soft_targets(s.expert, model.vocab) for s in samples])
    v_star = np.stack([s.expert for s in samples])
    loss, _ = _batch_forward_backward(model, x, y, v_star)
    return loss


def train(model: PlanHeadModel, samples, epochs: int, lr: float = 1e-2, seed: int = 0):
    """Full-batch gradient descent on the summed losses; deterministic in seed.

    Returns (model, loss_curve). Raises DivergenceError on non-finite loss.
    """
    del seed  # full-batch descent has no stochastic choices to drive
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
    interrupt=None,
):
    """Staged inference: classification always yields a complete plan.

    Returns (Trajectory, stage timings). The features are encoded once, in
    the classify stage, and refinement reads the same encoding. With
    budget=classify_only, or when `interrupt()` reports True after the
    classify stage, the coarse prototype plan is returned; it is never an
    error and never a partial trajectory.
    """
    if budget not in (CLASSIFY_ONLY, CLASSIFY_AND_REFINE):
        raise ValueError(f"unknown budget {budget!r}")
    timings = []
    t0 = time.perf_counter()
    encoding = encode_features(model, features)
    _, _, v_hat = forward_classify(model, encoding)
    timings.append(("classify", time.perf_counter() - t0))

    waypoints = v_hat
    if budget == CLASSIFY_AND_REFINE and not (interrupt is not None and interrupt()):
        t1 = time.perf_counter()
        waypoints = forward_refine(model, encoding, v_hat)
        timings.append(("refine", time.perf_counter() - t1))
    traj = instantiate_vocabulary(waypoints, ego, dt=model.vocab.dt, tag="learned")
    return traj, timings


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
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    except OSError as e:
        raise IoError(f"cannot write model file {path}: {e}") from e


_PARAM_SHAPES = {
    "w1": lambda d, h, k, t: (h, d),
    "b1": lambda d, h, k, t: (h,),
    "w2": lambda d, h, k, t: (h, h),
    "b2": lambda d, h, k, t: (h,),
    "wc": lambda d, h, k, t: (k, h),
    "bc": lambda d, h, k, t: (k,),
    "wr1": lambda d, h, k, t: (h, 2 * t + h),
    "br1": lambda d, h, k, t: (h,),
    "wr2": lambda d, h, k, t: (2 * t, h),
    "br2": lambda d, h, k, t: (2 * t,),
}


def load_model(path) -> PlanHeadModel:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise IoError(f"cannot read model file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed model file {path}: {e}") from e
    try:
        d, h, k, t = int(doc["d"]), int(doc["h"]), int(doc["k"]), int(doc["t"])
        vocab = Vocabulary(prototypes=np.array(doc["vocab"]).reshape(k, t, 2), dt=float(doc["dt"]))
        params = {}
        for name, shape_fn in _PARAM_SHAPES.items():
            shape = shape_fn(d, h, k, t)
            arr = np.array(doc["params"][name], dtype=float)
            if arr.size != int(np.prod(shape)):
                raise ParseError(f"model parameter {name} has wrong size")
            params[name] = arr.reshape(shape)
    except (KeyError, ValueError) as e:
        raise ParseError(f"malformed model file {path}: {e}") from e
    return PlanHeadModel(vocab=vocab, d=d, h=h, params=params)
