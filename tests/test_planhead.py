import json
import math

import numpy as np
import pytest

from radstack.cli import main
from radstack.errors import DivergenceError, HorizonMismatchError
from radstack.planner import Planner
from radstack.planhead import (
    CLASSIFY_AND_REFINE,
    CLASSIFY_ONLY,
    OFFSET_CLAMP,
    PlanHeadModel,
    TrainingSample,
    _batch_forward_backward,
    _classify,
    _encode,
    _refine,
    extract_features,
    init_model,
    load_model,
    plan_anytime,
    save_model,
    soft_targets,
    train,
)
from radstack.scene import AgentState, EgoState, Pose2, generate_synthetic_scenario, save_scenario
from radstack.topology import project_onto_path
from radstack.vocabulary import Vocabulary

from conftest import straight_path, straight_scenario


def _tiny_vocab(k=3, t=5, dt=0.1, spread=2.0, seed=0):
    rng = np.random.default_rng(seed)
    protos = np.zeros((k, t, 2))
    for i in range(k):
        heading = (i - (k - 1) / 2) * 0.5
        step = spread * dt
        for j in range(t):
            protos[i, j, 0] = step * (j + 1) * math.cos(heading * (j + 1) / t)
            protos[i, j, 1] = step * (j + 1) * math.sin(heading * (j + 1) / t)
    protos += rng.normal(0, 0.01, size=protos.shape)
    protos[:, 0, :] *= 0.0  # keep every prototype anchored near the origin
    return Vocabulary(prototypes=protos, dt=dt)


# -- soft targets -------------------------------------------------------------


def test_soft_targets_single_prototype():
    vocab = _tiny_vocab(k=1)
    y = soft_targets(vocab.prototypes[0], vocab)
    assert y.shape == (1,)
    assert y[0] == pytest.approx(1.0)


def test_soft_targets_equidistant_pair():
    t = 4
    protos = np.zeros((2, t, 2))
    protos[0, :, 1] = 0.5
    protos[1, :, 1] = -0.5
    vocab = Vocabulary(prototypes=protos, dt=0.1)
    v_star = np.zeros((t, 2))
    y = soft_targets(v_star, vocab)
    assert y == pytest.approx([0.5, 0.5])


def test_soft_targets_scalar_softmax_oracle():
    # Squared distances [0, 1] -> softmax(-d2) = [e^0, e^-1] normalized.
    t = 1
    protos = np.zeros((2, t, 2))
    protos[1, 0, 0] = 1.0  # squared distance 1 from the expert point
    vocab = Vocabulary(prototypes=protos, dt=0.5)
    y = soft_targets(np.zeros((t, 2)), vocab)
    assert y[0] == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-4)
    assert y == pytest.approx([0.7311, 0.2689], abs=1e-4)


def test_soft_targets_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(11)
    vocab = _tiny_vocab(k=8, t=6)
    for _ in range(1000):
        v_star = rng.normal(0, 1.5, size=(6, 2))
        y = soft_targets(v_star, vocab)
        assert abs(y.sum() - 1.0) < 1e-9
        assert (y >= 0).all()
    # Adding a constant to all squared distances leaves the distribution
    # unchanged (max-subtraction stability): emulate by scaling temperature.
    v_star = rng.normal(0, 1.0, size=(6, 2))
    y1 = soft_targets(v_star, vocab)
    d2 = ((vocab.prototypes - v_star) ** 2).sum(axis=(1, 2))
    shifted = np.exp(-(d2 + 123.0) + (d2 + 123.0).min())
    assert y1 == pytest.approx(shifted / shifted.sum(), abs=1e-12)


# -- losses --------------------------------------------------------------------
# train computes both losses batched in _batch_forward_backward; these are the
# one-sample definitions it is checked against.


def plan_loss(logits: np.ndarray, y: np.ndarray) -> float:
    """log-sum-exp(s) - y . s, evaluated with max-subtraction."""
    s = np.asarray(logits, dtype=float)
    m = s.max()
    lse = m + math.log(np.exp(s - m).sum())
    return float(lse - (y * s).sum())


def refine_loss(refined: np.ndarray, v_star: np.ndarray) -> float:
    """Mean over waypoints of the per-waypoint Euclidean error (not squared)."""
    diff = np.asarray(refined, dtype=float) - np.asarray(v_star, dtype=float)
    return float(np.linalg.norm(diff, axis=-1).mean())


def test_plan_loss_single_class_zero():
    assert plan_loss(np.array([3.7]), np.array([1.0])) == pytest.approx(0.0)


def test_plan_loss_uniform_ln2():
    assert plan_loss(np.array([0.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(math.log(2))


def test_plan_loss_matching_logits_gives_entropy():
    y = np.array([0.7311, 0.2689])
    s = np.log(y) + 4.2
    entropy = -(y * np.log(y)).sum()
    assert plan_loss(s, y) == pytest.approx(entropy, abs=1e-6)
    assert plan_loss(s, y) == pytest.approx(0.5826, abs=1e-3)


def plan_loss_grad(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d plan_loss / d logits = softmax(logits) - y: the gradient train's
    backward (_batch_forward_backward) takes for the classification loss."""
    s = np.asarray(logits, dtype=float)
    e = np.exp(s - s.max())
    return e / e.sum() - y


def test_plan_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    s = rng.normal(0, 2, size=7)
    y = rng.dirichlet(np.ones(7))
    g = plan_loss_grad(s, y)
    softmax = np.exp(s - s.max())
    softmax /= softmax.sum()
    assert g == pytest.approx(softmax - y, abs=1e-12)
    eps = 1e-5
    for i in range(7):
        sp, sm = s.copy(), s.copy()
        sp[i] += eps
        sm[i] -= eps
        fd = (plan_loss(sp, y) - plan_loss(sm, y)) / (2 * eps)
        assert abs(fd - g[i]) / max(abs(g[i]), 1e-6) < 1e-4


def test_refine_loss_values():
    t = 6
    v = np.zeros((t, 2))
    assert refine_loss(v, v) == 0.0
    shifted = v.copy()
    shifted[:, 0] += 1.0
    assert refine_loss(shifted, v) == pytest.approx(1.0)
    rng = np.random.default_rng(1)
    a = rng.normal(size=(t, 2))
    b = rng.normal(size=(t, 2))
    oracle = np.mean([math.hypot(*(a[i] - b[i])) for i in range(t)])
    assert refine_loss(a, b) == pytest.approx(oracle, abs=1e-12)


# -- model forward -------------------------------------------------------------


def _logits(model, x):
    """The classifier's logits (K,) of one feature vector, and its encoding (1, H)."""
    h, _ = _encode(model, np.asarray(x, dtype=float)[None])
    return _classify(model, h)[0], h


def _coarse_and_offsets(model, x):
    """plan_anytime's coarse plan v_hat (T, 2) of one feature vector, and the
    offsets (T, 2) its refine stage adds. From an ego at the origin with
    heading 0 a plan's positions after sample 0 are its waypoints."""
    ego = EgoState(pose=Pose2(0.0, 0.0, 0.0), speed=4.0)
    coarse, _ = plan_anytime(model, x, ego, budget=CLASSIFY_ONLY)
    refined, _ = plan_anytime(model, x, ego, budget=CLASSIFY_AND_REFINE)
    return coarse.positions[1:], refined.positions[1:] - coarse.positions[1:]


def test_forward_classify_deterministic():
    vocab = _tiny_vocab()
    model = init_model(vocab, d=8, h=16, seed=3)
    x = np.random.default_rng(4).normal(size=8)
    a, _ = _logits(model, x)
    b, _ = _logits(model, x)
    assert np.array_equal(a, b)


def test_forward_classify_permutation_independence():
    vocab = _tiny_vocab(k=4)
    model = init_model(vocab, d=8, h=16, seed=3)
    x = np.random.default_rng(5).normal(size=8)
    v_hat, _ = _coarse_and_offsets(model, x)

    perm = np.array([2, 0, 3, 1])
    vocab_p = Vocabulary(prototypes=vocab.prototypes[perm], dt=vocab.dt)
    model_p = PlanHeadModel(vocab=vocab_p, d=8, h=16, params=dict(model.params))
    model_p.params["wc"] = model.params["wc"][perm]
    model_p.params["bc"] = model.params["bc"][perm]
    v_hat_p, _ = _coarse_and_offsets(model_p, x)
    assert np.allclose(v_hat, v_hat_p)


def test_zero_init_refiner_is_identity():
    vocab = _tiny_vocab()
    model = init_model(vocab, d=8, h=16, seed=0)
    rng = np.random.default_rng(6)
    for _ in range(100):
        _, off = _coarse_and_offsets(model, rng.normal(size=8))
        assert np.max(np.abs(off)) == 0.0


def test_refine_offsets_clamped():
    vocab = _tiny_vocab()
    model = init_model(vocab, d=8, h=16, seed=0)
    model.params["wr2"] = np.full_like(model.params["wr2"], 50.0)
    model.params["br2"] = np.full_like(model.params["br2"], 50.0)
    _, off = _coarse_and_offsets(model, np.random.default_rng(7).normal(size=8))
    assert np.max(np.abs(off)) <= OFFSET_CLAMP + 1e-12


# -- training ------------------------------------------------------------------


def _toy_samples(vocab, n=40, seed=0, lateral_bias=0.0):
    """Features encode the maneuver index; experts are noisy prototypes."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        k = int(rng.integers(vocab.K))
        f = rng.normal(0, 0.1, size=8)
        f[k] += 2.0
        expert = vocab.prototypes[k] + rng.normal(0, 0.02, size=(vocab.T, 2))
        expert[:, 1] += lateral_bias
        samples.append(TrainingSample(features=f, expert=expert))
    return samples


def test_full_parameter_gradient_check():
    # Central finite differences over every parameter on a 3-sample toy.
    vocab = _tiny_vocab(k=3, t=4)
    model = init_model(vocab, d=8, h=6, seed=2)
    rng = np.random.default_rng(3)
    # Give the refiner nonzero output so its gradient path is exercised.
    model.params["wr2"] = rng.normal(0, 0.05, size=model.params["wr2"].shape)
    model.params["br2"] = rng.normal(0, 0.05, size=model.params["br2"].shape)
    samples = _toy_samples(vocab, n=3, seed=4)
    x = np.stack([s.features for s in samples])
    y = np.stack([soft_targets(s.expert, vocab) for s in samples])
    v_star = np.stack([s.expert for s in samples])
    loss0, grads = _batch_forward_backward(model, x, y, v_star)

    eps = 1e-6
    for name, g in grads.items():
        flat = model.params[name].reshape(-1)
        gf = g.reshape(-1)
        idxs = np.linspace(0, len(flat) - 1, min(10, len(flat))).astype(int)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = _batch_forward_backward(model, x, y, v_star)
            flat[i] = orig - eps
            lm, _ = _batch_forward_backward(model, x, y, v_star)
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(gf[i]), 1e-7)
            assert abs(fd - gf[i]) / denom < 1e-3, f"{name}[{i}]: fd={fd} analytic={gf[i]}"


def test_batch_loss_is_the_mean_of_the_one_sample_losses():
    vocab = _tiny_vocab(k=3, t=4)
    model = init_model(vocab, d=8, h=6, seed=2)
    rng = np.random.default_rng(3)
    model.params["wr2"] = rng.normal(0, 0.05, size=model.params["wr2"].shape)
    samples = _toy_samples(vocab, n=5, seed=4)
    x = np.stack([s.features for s in samples])
    y = np.stack([soft_targets(s.expert, vocab) for s in samples])
    v_star = np.stack([s.expert for s in samples])
    loss, _ = _batch_forward_backward(model, x, y, v_star)
    h, _ = _encode(model, x)
    logits = _classify(model, h)
    v_hat = vocab.prototypes[logits.argmax(axis=1)]
    refined = v_hat + _refine(model, h, v_hat)[0].reshape(v_hat.shape)
    want = np.mean([plan_loss(logits[i], y[i]) + refine_loss(refined[i], v_star[i]) for i in range(len(samples))])
    assert loss == pytest.approx(want, rel=1e-12)


def test_training_reduces_loss_and_is_deterministic():
    vocab = _tiny_vocab(k=3, t=4)
    samples = _toy_samples(vocab, n=60, seed=5)
    m1 = init_model(vocab, d=8, h=16, seed=1)
    m1, curve1 = train(m1, samples, epochs=100, lr=5e-2)
    assert curve1[-1] < curve1[0]
    m2 = init_model(vocab, d=8, h=16, seed=1)
    m2, curve2 = train(m2, samples, epochs=100, lr=5e-2)
    assert curve1 == curve2
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])


def test_training_divergence_detected():
    vocab = _tiny_vocab(k=3, t=4)
    samples = _toy_samples(vocab, n=20, seed=6)
    bad = TrainingSample(features=np.full(8, np.nan), expert=samples[0].expert)
    model = init_model(vocab, d=8, h=16, seed=1)
    with pytest.raises(DivergenceError):
        train(model, samples + [bad], epochs=10, lr=1e-2)


def _separated_vocab(t=4, dt=0.1):
    # Two decisively separated maneuvers: straight ahead vs diverging left.
    protos = np.zeros((2, t, 2))
    protos[:, :, 0] = np.arange(1, t + 1) * 0.5
    protos[1, :, 1] = np.arange(1, t + 1) * 0.8
    return Vocabulary(prototypes=protos, dt=dt)


def test_refiner_learns_constant_lateral_bias():
    # Experts sit 0.5 m left of their prototypes; after training the
    # refinement head should supply most of that offset.
    vocab = _separated_vocab()
    samples = _toy_samples(vocab, n=80, seed=7, lateral_bias=0.5)
    model = init_model(vocab, d=8, h=16, seed=2)
    model, _ = train(model, samples, epochs=800, lr=0.1)
    offsets = []
    for s in samples[:20]:
        _, off = _coarse_and_offsets(model, s.features)
        offsets.append(off[:, 1].mean())
    assert 0.4 <= float(np.mean(offsets)) <= 0.6


def test_classifier_agrees_with_nearest_prototype_oracle():
    vocab = _tiny_vocab(k=2, t=4, spread=4.0)
    train_samples = _toy_samples(vocab, n=120, seed=8)
    held_out = _toy_samples(vocab, n=60, seed=9)
    model = init_model(vocab, d=8, h=16, seed=3)
    model, _ = train(model, train_samples, epochs=300, lr=5e-2)
    agree = 0
    for s in held_out:
        best = int(_logits(model, s.features)[0].argmax())
        d2 = ((vocab.prototypes - s.expert) ** 2).sum(axis=(1, 2))
        if best == int(np.argmin(d2)):
            agree += 1
    assert agree / len(held_out) >= 0.95


# -- anytime inference -----------------------------------------------------------


def _ego():
    return EgoState(pose=Pose2(3.0, 1.0, 0.2), speed=4.0)


def test_plan_anytime_classify_only():
    vocab = _tiny_vocab()
    model = init_model(vocab, d=8, h=16, seed=0)
    x = np.random.default_rng(10).normal(size=8)
    traj, timings = plan_anytime(model, x, _ego(), budget=CLASSIFY_ONLY)
    assert traj.tag == "learned"
    assert [name for name, _ in timings] == ["classify"]
    assert traj.horizon_steps == vocab.T


def test_plan_anytime_zero_init_budgets_identical():
    vocab = _tiny_vocab()
    model = init_model(vocab, d=8, h=16, seed=0)
    x = np.random.default_rng(11).normal(size=8)
    t1, _ = plan_anytime(model, x, _ego(), budget=CLASSIFY_ONLY)
    t2, _ = plan_anytime(model, x, _ego(), budget=CLASSIFY_AND_REFINE)
    assert np.array_equal(t1.positions, t2.positions)


def test_plan_anytime_budgets_time_their_stages_and_refinement_moves_the_plan():
    vocab = _tiny_vocab()
    model = init_model(vocab, d=8, h=16, seed=0)
    model.params["wr2"][:] = 0.3  # make refinement non-trivial
    x = np.random.default_rng(12).normal(size=8)
    t_only, timings = plan_anytime(model, x, _ego(), budget=CLASSIFY_ONLY)
    assert [name for name, _ in timings] == ["classify"]
    t_full, timings = plan_anytime(model, x, _ego(), budget=CLASSIFY_AND_REFINE)
    assert [name for name, _ in timings] == ["classify", "refine"]
    assert not np.array_equal(t_only.positions, t_full.positions)


def test_plan_anytime_encodes_once(monkeypatch):
    import radstack.planhead as planhead

    model = init_model(_tiny_vocab(), d=8, h=16, seed=0)
    x = np.random.default_rng(13).normal(size=8)
    calls = []
    real_encode = planhead._encode
    monkeypatch.setattr(planhead, "_encode", lambda *a: calls.append(1) or real_encode(*a))
    _, timings = plan_anytime(model, x, _ego(), budget=CLASSIFY_AND_REFINE)
    assert [name for name, _ in timings] == ["classify", "refine"]
    assert len(calls) == 1


# -- features ----------------------------------------------------------------------


def test_features_agent_slots_zero_when_alone():
    s = straight_scenario()
    path = straight_path(s)
    f = extract_features(s.ego, [], path, s.goal, project_onto_path(path, s.ego.pose))
    assert f.shape == (64,)
    assert np.all(f[11:59] == 0.0)


def test_features_rigid_transform_invariant():
    s = straight_scenario()
    path = straight_path(s)
    agent = AgentState(id="a", pose=Pose2(12.0, 1.0, 0.3), speed=3.0, half_length=2, half_width=1)
    f1 = extract_features(s.ego, [agent], path, s.goal, project_onto_path(path, s.ego.pose))

    # Same scene rotated by 90 degrees and translated.
    dx, dy, rot = 100.0, -40.0, math.pi / 2

    def tf(p):
        c, si = math.cos(rot), math.sin(rot)
        return Pose2(dx + c * p.x - si * p.y, dy + si * p.x + c * p.y, p.heading + rot)

    ego2 = EgoState(pose=tf(s.ego.pose), speed=s.ego.speed)
    agent2 = AgentState(id="a", pose=tf(agent.pose), speed=3.0, half_length=2, half_width=1)
    from radstack.scene import Lane, Scenario
    from radstack.topology import graph_search
    from conftest import rect

    lane2 = Lane(
        id="lane_a",
        centerline=tuple(tf(p) for p in s.lanes[0].centerline),
        speed_limit=10.0,
    )
    s2 = Scenario(
        lanes=(lane2,),
        drivable_area=(np.array([[dx + 4, dy - 5], [dx + 4, dy + 125], [dx - 4, dy + 125], [dx - 4, dy - 5]]),),
        crosswalks=(),
        agents=(agent2,),
        ego=ego2,
        route=("lane_a",),
        goal=tf(s.goal),
        duration=30.0,
        seed=0,
    )
    path2 = graph_search(ego2, s2)[0]
    f2 = extract_features(ego2, [agent2], path2, s2.goal, project_onto_path(path2, ego2.pose))
    assert np.allclose(f1, f2, atol=1e-9)


def test_features_relative_agent_state_oracle():
    s = straight_scenario(ego_speed=5.0)
    path = straight_path(s)
    agent = AgentState(id="a", pose=Pose2(10.0, 0.0, 0.0), speed=7.0, half_length=2.2, half_width=0.9)
    f = extract_features(s.ego, [agent], path, s.goal, project_onto_path(path, s.ego.pose))
    base = 11
    assert f[base + 0] == pytest.approx(10.0)  # ahead
    assert f[base + 1] == pytest.approx(0.0)
    assert f[base + 2] == pytest.approx(7.0 - 5.0)  # closing at +2 m/s
    assert f[base + 3] == pytest.approx(0.0)
    assert f[base + 6] == pytest.approx(2.2)
    assert f[base + 7] == pytest.approx(0.9)


# -- checkpoint I/O ------------------------------------------------------------------


def test_model_round_trip(tmp_path):
    vocab = _tiny_vocab()
    model = init_model(vocab, d=8, h=16, seed=0)
    model.params["wr2"][:] = 0.25
    p = tmp_path / "model.json"
    save_model(model, p)
    loaded = load_model(p)
    assert loaded.d == model.d and loaded.h == model.h
    assert np.allclose(loaded.vocab.prototypes, vocab.prototypes)
    for name in model.params:
        assert np.allclose(loaded.params[name], model.params[name])
    x = np.random.default_rng(0).normal(size=8)
    a, _ = _logits(model, x)
    b, _ = _logits(loaded, x)
    assert np.allclose(a, b)


def _nan_params(doc):
    doc["params"] = {name: [math.nan] * len(v) for name, v in doc["params"].items()}


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda doc: doc.update(d=[64]), "d: expected an integer >= 1, got [64]"),
        (lambda doc: doc.update(k="3"), "k: expected an integer >= 1, got '3'"),
        (lambda doc: doc.pop("t"), "t: missing"),
        (lambda doc: doc.update(dt=math.nan), "dt: expected a finite number > 0, got nan"),
        (lambda doc: doc.update(vocab=[[1.0]]), "vocab: expected 30 numbers in 3 rows, got [[1.0]]"),
        (lambda doc: doc["vocab"][0].__setitem__(3, math.inf), "vocab[0][3]: expected a finite number, got inf"),
        (lambda doc: doc.update(params=[]), "params: expected an object, got []"),
        (lambda doc: doc["params"].pop("wc"), "params.wc: missing"),
        (lambda doc: doc["params"].update(b1="x"), "params.b1: expected 16 numbers, got 'x'"),
        (
            lambda doc: doc["params"].update(w2=[0.0] * 255),
            "params.w2: expected 256 numbers, got [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ...]",
        ),
        (_nan_params, "params.w1[0]: expected a finite number, got nan"),
        (lambda doc: doc["params"]["b1"].__setitem__(2, "0.5"), "params.b1[2]: expected a finite number, got '0.5'"),
        (lambda doc: doc["params"]["b1"].__setitem__(2, True), "params.b1[2]: expected a finite number, got True"),
    ],
)
def test_cli_reports_malformed_model_in_one_line(tmp_path, capsys, edit, problem):
    model_path = tmp_path / "model.json"
    save_model(init_model(_tiny_vocab(), d=8, h=16, seed=0), model_path)
    doc = json.loads(model_path.read_text())
    edit(doc)
    model_path.write_text(json.dumps(doc))
    scenario = tmp_path / "scenario.json"
    save_scenario(generate_synthetic_scenario("blocked_lane", 7), scenario)
    argv = ["run", "--scenario", str(scenario), "--planner", "planhead", "--model", str(model_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"run: malformed model file {model_path}: {problem}\n"


def test_planner_rejects_a_model_sampled_off_the_proposal_horizon():
    model = init_model(_tiny_vocab(), d=8, h=16, seed=0)  # T = 5 against the proposal's 40
    with pytest.raises(HorizonMismatchError, match=r"^model vocabulary sampling \(T=5, dt=0.1\) does not match"):
        Planner(generate_synthetic_scenario("blocked_lane", 7), kind="planhead", model=model)
