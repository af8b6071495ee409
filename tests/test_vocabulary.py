import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radstack.errors import DegenerateClusterError, HorizonMismatchError, ParseError, ValidationError
from radstack import vocabulary
from radstack.planner import Planner
from radstack.scene import EgoState, Pose2, generate_synthetic_scenario
from radstack.simulator import SimConfig, run_episode
from radstack.vocabulary import (
    Vocabulary,
    instantiate_prototype,
    kmeans_cluster,
    load_vocabulary,
    save_vocabulary,
    slice_ego_windows,
)


def _bundle(center, n, rng, scale=0.1):
    return [center + rng.normal(0, scale, size=center.shape) for _ in range(n)]


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(0)
    base = np.cumsum(rng.normal(1.0, 0.2, size=(6, 2)), axis=0) * 0.05
    samples = _bundle(base, 20, rng)
    vocab = kmeans_cluster(samples, 1, seed=0)
    mean = np.mean(np.stack(samples), axis=0)
    assert np.max(np.abs(vocab.prototypes[0] - mean)) < 1e-12


def test_kmeans_k_equals_n_zero_sse():
    rng = np.random.default_rng(1)
    samples = [np.abs(rng.normal(0.2, 0.1, size=(5, 2))) * 0.1 for _ in range(6)]
    vocab = kmeans_cluster(samples, 6, seed=3)
    assert vocab.sse_history[-1] == pytest.approx(0.0, abs=1e-18)
    got = {tuple(np.round(p.reshape(-1), 9)) for p in vocab.prototypes}
    want = {tuple(np.round(s.reshape(-1), 9)) for s in samples}
    assert got == want


def test_kmeans_two_bundles_recovers_means():
    rng = np.random.default_rng(2)
    t = 8
    straight = np.stack([np.linspace(0.5, 8.0, t), np.zeros(t)], axis=1)
    angles = np.linspace(0, math.pi / 2, t)
    turn = np.stack([6 * np.sin(angles), 6 * (1 - np.cos(angles))], axis=1)
    a = _bundle(straight, 30, rng)
    b = _bundle(turn, 30, rng)
    vocab = kmeans_cluster(a + b, 2, seed=5)
    mean_a = np.mean(np.stack(a), axis=0)
    mean_b = np.mean(np.stack(b), axis=0)
    found = vocab.prototypes

    def rms(x, y):
        return math.sqrt(float(((x - y) ** 2).mean()))

    pairings = min(
        rms(found[0], mean_a) + rms(found[1], mean_b),
        rms(found[0], mean_b) + rms(found[1], mean_a),
    )
    assert pairings < 0.5


def test_kmeans_sse_monotone_on_random_datasets():
    rng = np.random.default_rng(3)
    for trial in range(10):
        samples = [rng.normal(0, 1.0, size=(6, 2)) * 0.2 for _ in range(40)]
        samples = [s - s[0] for s in samples]  # anchor near origin
        vocab = kmeans_cluster(samples, 4, seed=trial)
        sse = np.array(vocab.sse_history)
        assert (np.diff(sse) <= 1e-9).all()


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    samples = [np.abs(rng.normal(0.5, 0.2, size=(6, 2))) * 0.2 for _ in range(30)]
    v1 = kmeans_cluster(samples, 3, seed=9)
    v2 = kmeans_cluster(samples, 3, seed=9)
    assert np.array_equal(v1.prototypes, v2.prototypes)


def test_kmeans_degenerate_all_identical():
    samples = [np.full((4, 2), 0.01) for _ in range(8)]
    with pytest.raises(DegenerateClusterError):
        kmeans_cluster(samples, 3, seed=0)


def test_kmeans_reseeds_an_empty_cluster_at_the_farthest_sample(monkeypatch):
    # A second seed far from every sample takes no member on the first pass;
    # it moves to the sample farthest from its center, and the two pairs
    # of samples become the two clusters.
    samples = [np.array([[0.5, 0.0], [x, 0.0]]) for x in (1.0, 1.1, 5.0, 5.1)]
    far = np.array([0.5, 0.0, 100.0, 0.0])
    monkeypatch.setattr(vocabulary, "_kmeans_pp_init", lambda x, k, rng: np.stack([x[0], far]))
    vocab = kmeans_cluster(samples, 2, seed=0)
    assert np.allclose(vocab.prototypes, [[[0.5, 0.0], [1.05, 0.0]], [[0.5, 0.0], [5.05, 0.0]]], atol=1e-12)
    assert vocab.sse_history[-1] == pytest.approx(0.01)
    assert (np.diff(vocab.sse_history) <= 1e-9).all()


def test_kmeans_requires_enough_samples():
    with pytest.raises(ValueError):
        kmeans_cluster([np.zeros((4, 2))], 2)


def _instantiate_one(proto, ego):
    """Positions, headings and speeds of one prototype (T, 2): the batch form at K = 1."""
    (positions,), (headings,), (speeds,) = instantiate_prototype(proto[None], ego, 0.1)
    return positions, headings, speeds


def test_instantiate_identity_at_origin():
    proto = np.stack([np.linspace(0.5, 5, 10), np.zeros(10)], axis=1)
    ego = EgoState(pose=Pose2(0, 0, 0), speed=5.0)
    positions, headings, speeds = _instantiate_one(proto, ego)
    assert np.allclose(positions[1:], proto)
    assert tuple(positions[0]) == (ego.pose.x, ego.pose.y)
    assert headings[0] == ego.pose.heading
    assert speeds[0] == ego.speed


def test_instantiate_quarter_turn_maps_x_to_y():
    proto = np.stack([np.linspace(0.5, 5, 10), np.zeros(10)], axis=1)
    ego = EgoState(pose=Pose2(0, 0, math.pi / 2), speed=5.0)
    positions, _, _ = _instantiate_one(proto, ego)
    assert np.allclose(positions[1:, 0], 0.0, atol=1e-12)
    assert np.allclose(positions[1:, 1], proto[:, 0], atol=1e-12)


def test_instantiate_rigid_transform_oracle():
    rng = np.random.default_rng(5)
    proto = np.cumsum(np.abs(rng.normal(0.3, 0.1, size=(8, 2))), axis=0) * 0.3
    proto[0] *= 0.1
    ego = EgoState(pose=Pose2(10.0, 5.0, math.pi / 4), speed=3.0)
    positions, _, _ = _instantiate_one(proto, ego)
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = np.array([[c, -s], [s, c]])
    expected = proto @ rot.T + np.array([10.0, 5.0])
    assert np.max(np.abs(positions[1:] - expected)) < 1e-9


def test_instantiate_speeds_from_arclength():
    proto = np.stack([np.linspace(0.8, 8.0, 10), np.zeros(10)], axis=1)
    ego = EgoState(pose=Pose2(0, 0, 0), speed=8.0)
    _, _, speeds = _instantiate_one(proto, ego)
    assert np.allclose(speeds[1:], 8.0)


@st.composite
def _prototypes_and_pose(draw):
    """K = 1-20 prototypes of T = 1-40 samples at an ego pose.

    Headings sit near +-pi, where a segment direction is most sensitive to
    rounding, or anywhere; some prototypes stand still for their first
    samples (held heading), some back up, some stop and go on.
    """
    k, t = draw(st.integers(1, 20)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = rng.uniform(-0.2, 1.2, (k, t, 1)) * np.stack([np.ones((k, t)), rng.uniform(-0.3, 0.3, (k, t))], axis=2)
    still = rng.integers(0, t + 1, k)
    step[np.arange(t)[None, :] < still[:, None]] = 0.0
    step[rng.random((k, t)) < 0.1] = 0.0
    protos = np.cumsum(step, axis=1)
    heading = draw(
        st.one_of(
            st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0)]),
            st.floats(-math.pi, math.pi),
        )
    )
    ego = EgoState(pose=Pose2(rng.uniform(-500, 500), rng.uniform(-500, 500), heading), speed=rng.uniform(0, 15))
    return protos, ego


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_prototypes_and_pose())
def test_batched_instantiation_matches_single_prototype_bitwise(case):
    protos, ego = case
    positions, headings, speeds = instantiate_prototype(protos, ego, 0.1)
    assert positions.shape == (len(protos), protos.shape[1] + 1, 2)
    bits = lambda x: np.ascontiguousarray(x).view(np.int64)
    for k, proto in enumerate(protos):
        one = _instantiate_one(proto, ego)
        assert np.array_equal(bits(positions[k]), bits(one[0]))
        assert np.array_equal(bits(headings[k]), bits(one[1]))
        assert np.array_equal(bits(speeds[k]), bits(one[2]))


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.1, "0.1", True])
def test_vocabulary_rejects_a_bad_dt_by_name(dt):
    # A negative dt is reported as the dt, not as a prototype far from the origin.
    with pytest.raises(ValidationError, match=r"^vocabulary\.dt: expected a finite number > 0, got "):
        Vocabulary(prototypes=np.zeros((1, 3, 2)), dt=dt)


@pytest.mark.parametrize(
    "row, value, problem",
    [(2, math.nan, "coordinates must be finite"), (1, 5.0, "does not start near the origin")],
)
def test_vocabulary_names_the_bad_prototype(row, value, problem):
    protos = np.zeros((3, 4, 2))
    protos[row, 0, 0] = value
    with pytest.raises(ValidationError, match=rf"^vocabulary\.prototypes\[{row}\]: {problem}$"):
        Vocabulary(prototypes=protos, dt=0.1)


def test_planner_sampling_check_fails_on_a_nan_dt():
    vocab = Vocabulary(prototypes=np.zeros((1, 40, 2)), dt=0.1)
    object.__setattr__(vocab, "dt", math.nan)  # past the constructor's own check
    with pytest.raises(HorizonMismatchError, match="does not match the proposal horizon"):
        Planner(generate_synthetic_scenario("blocked_lane", 7), vocabulary=vocab)


def test_vocabulary_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    protos = np.abs(rng.normal(0.4, 0.2, size=(5, 7, 2))) * 0.3
    protos[:, 0, :] *= 0.1
    vocab = Vocabulary(prototypes=protos, dt=0.1)
    p = tmp_path / "vocab.txt"
    save_vocabulary(vocab, p)
    loaded = load_vocabulary(p)
    assert loaded.K == 5 and loaded.T == 7
    assert loaded.dt == vocab.dt
    assert np.array_equal(loaded.prototypes, vocab.prototypes)
    again = load_vocabulary(p)
    assert np.array_equal(again.prototypes, loaded.prototypes)


def test_vocabulary_header_mismatch(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_text("K 3\nT 2\ndt 0.1\n0.0 0.0 0.1 0.0\n0.0 0.0 0.1 0.1\n")
    with pytest.raises(ParseError):
        load_vocabulary(p)


def _expert_windows(scenario, count):
    """The first `count` 40-step ego-frame windows of a closed-loop `rad` episode."""
    return slice_ego_windows(run_episode(scenario, "rad", SimConfig()).ego_states(), 40, 5)[:count]


def test_collect_straight_road_samples_stay_straight():
    scenario = generate_synthetic_scenario("blocked_lane", 2)
    # Remove the blocker: pure straight driving.
    from dataclasses import replace

    scenario = replace(scenario, agents=())
    samples = _expert_windows(scenario, 20)
    assert len(samples) >= 10
    for w in samples:
        assert np.abs(w[:, 1]).max() < 0.2


def test_collect_deterministic():
    scenario = generate_synthetic_scenario("intersection_turn", 1)
    a = _expert_windows(scenario, 10)
    b = _expert_windows(scenario, 10)
    assert len(a) == len(b)
    for wa, wb in zip(a, b):
        assert np.array_equal(wa, wb)


def test_collect_intersection_contains_arcs():
    scenario = generate_synthetic_scenario("intersection_turn", 1)
    samples = _expert_windows(scenario, 60)
    max_turn = 0.0
    for w in samples:
        d = np.diff(np.vstack([[0.0, 0.0], w]), axis=0)
        ok = np.hypot(d[:, 0], d[:, 1]) > 1e-3
        if ok.sum() < 2:
            continue
        heads = np.arctan2(d[ok, 1], d[ok, 0])
        max_turn = max(max_turn, abs(heads[-1] - heads[0]))
    assert math.degrees(max_turn) > 60.0


def test_slice_windows_shapes():
    states = [EgoState(pose=Pose2(i * 0.5, 0, 0), speed=5.0) for i in range(30)]
    windows = slice_ego_windows(states, horizon_steps=10, stride=5)
    assert len(windows) == 4
    assert all(w.shape == (10, 2) for w in windows)
    # Ego frame: the first future position sits 0.5 m ahead.
    assert windows[0][0, 0] == pytest.approx(0.5)
    assert windows[0][0, 1] == pytest.approx(0.0)
