import math

import numpy as np
import pytest

from radstack.errors import DivergenceError
from radstack.planhead import (
    CLASSIFY_AND_REFINE,
    CLASSIFY_ONLY,
    OFFSET_CLAMP,
    PlanHeadModel,
    TrainingSample,
    _batch_forward_backward,
    encode_features,
    extract_features,
    forward_classify,
    forward_refine,
    init_model,
    load_model,
    plan_anytime,
    plan_loss,
    plan_loss_grad,
    refine_loss,
    save_model,
    soft_targets,
    train,
)
from radstack.scene import AgentState, EgoState, Pose2
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


def test_forward_classify_deterministic():
    vocab = _tiny_vocab()
    model = init_model(vocab, d=8, h=16, seed=3)
    x = np.random.default_rng(4).normal(size=8)
    a = forward_classify(model, encode_features(model, x))
    b = forward_classify(model, encode_features(model, x))
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]


def test_forward_classify_permutation_independence():
    vocab = _tiny_vocab(k=4)
    model = init_model(vocab, d=8, h=16, seed=3)
    x = np.random.default_rng(5).normal(size=8)
    _, _, v_hat = forward_classify(model, encode_features(model, x))

    perm = np.array([2, 0, 3, 1])
    vocab_p = Vocabulary(prototypes=vocab.prototypes[perm], dt=vocab.dt)
    model_p = PlanHeadModel(vocab=vocab_p, d=8, h=16, params=dict(model.params))
    model_p.params["wc"] = model.params["wc"][perm]
    model_p.params["bc"] = model.params["bc"][perm]
    _, _, v_hat_p = forward_classify(model_p, encode_features(model_p, x))
    assert np.allclose(v_hat, v_hat_p)


def test_zero_init_refiner_is_identity():
    vocab = _tiny_vocab()
    model = init_model(vocab, d=8, h=16, seed=0)
    rng = np.random.default_rng(6)
    for _ in range(100):
        h = encode_features(model, rng.normal(size=8))
        _, _, v_hat = forward_classify(model, h)
        refined = forward_refine(model, h, v_hat)
        assert np.max(np.abs(refined - v_hat)) == 0.0


def test_refine_offsets_clamped():
    vocab = _tiny_vocab()
    model = init_model(vocab, d=8, h=16, seed=0)
    model.params["wr2"] = np.full_like(model.params["wr2"], 50.0)
    model.params["br2"] = np.full_like(model.params["br2"], 50.0)
    h = encode_features(model, np.random.default_rng(7).normal(size=8))
    _, _, v_hat = forward_classify(model, h)
    refined = forward_refine(model, h, v_hat)
    assert np.max(np.abs(refined - v_hat)) <= OFFSET_CLAMP + 1e-12


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


def test_training_reduces_loss_and_is_deterministic():
    vocab = _tiny_vocab(k=3, t=4)
    samples = _toy_samples(vocab, n=60, seed=5)
    m1 = init_model(vocab, d=8, h=16, seed=1)
    m1, curve1 = train(m1, samples, epochs=100, lr=5e-2, seed=9)
    assert curve1[-1] < curve1[0]
    m2 = init_model(vocab, d=8, h=16, seed=1)
    m2, curve2 = train(m2, samples, epochs=100, lr=5e-2, seed=9)
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
        h = encode_features(model, s.features)
        _, _, v_hat = forward_classify(model, h)
        refined = forward_refine(model, h, v_hat)
        offsets.append((refined - v_hat)[:, 1].mean())
    assert 0.4 <= float(np.mean(offsets)) <= 0.6


def test_classifier_agrees_with_nearest_prototype_oracle():
    vocab = _tiny_vocab(k=2, t=4, spread=4.0)
    train_samples = _toy_samples(vocab, n=120, seed=8)
    held_out = _toy_samples(vocab, n=60, seed=9)
    model = init_model(vocab, d=8, h=16, seed=3)
    model, _ = train(model, train_samples, epochs=300, lr=5e-2)
    agree = 0
    for s in held_out:
        _, best, _ = forward_classify(model, encode_features(model, s.features))
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


def test_plan_anytime_interrupt_bit_identical():
    vocab = _tiny_vocab()
    model = init_model(vocab, d=8, h=16, seed=0)
    model.params["wr2"][:] = 0.3  # make refinement non-trivial
    x = np.random.default_rng(12).normal(size=8)
    t_only, _ = plan_anytime(model, x, _ego(), budget=CLASSIFY_ONLY)
    t_interrupt, timings = plan_anytime(
        model, x, _ego(), budget=CLASSIFY_AND_REFINE, interrupt=lambda: True
    )
    assert np.array_equal(t_only.positions, t_interrupt.positions)
    assert [name for name, _ in timings] == ["classify"]
    t_full, _ = plan_anytime(model, x, _ego(), budget=CLASSIFY_AND_REFINE)
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
    f = extract_features(s.ego, [], path, s.goal)
    assert f.shape == (64,)
    assert np.all(f[11:59] == 0.0)


def test_features_rigid_transform_invariant():
    s = straight_scenario()
    path = straight_path(s)
    agent = AgentState(id="a", pose=Pose2(12.0, 1.0, 0.3), speed=3.0, half_length=2, half_width=1)
    f1 = extract_features(s.ego, [agent], path, s.goal)

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
    f2 = extract_features(ego2, [agent2], path2, s2.goal)
    assert np.allclose(f1, f2, atol=1e-9)


def test_features_relative_agent_state_oracle():
    s = straight_scenario(ego_speed=5.0)
    path = straight_path(s)
    agent = AgentState(id="a", pose=Pose2(10.0, 0.0, 0.0), speed=7.0, half_length=2.2, half_width=0.9)
    f = extract_features(s.ego, [agent], path, s.goal)
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
    a = forward_classify(model, encode_features(model, x))
    b = forward_classify(loaded, encode_features(loaded, x))
    assert np.allclose(a[0], b[0])
