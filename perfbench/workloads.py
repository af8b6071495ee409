"""Benchmark inputs: the scenario lap of each workload and its set-up.

Everything here is a pure function of the workload seed. Measured scenarios
and the expert scenarios that build the hybrid planner's vocabulary and plan
head draw their scenario seeds from disjoint ranges, so the planner is never
measured on a scenario it was built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from radstack import Planner, generate_synthetic_scenario, kmeans_cluster, run_episode
from radstack.planhead import harvest_training_samples, init_model, train
from radstack.scene import SCENARIO_KINDS, scenario_from_dict, scenario_to_dict
from radstack.simulator import record_agents
from radstack.vocabulary import slice_ego_windows

from hostspeed import HostClock, Paced

# Median ticks_per_s of each workload on the reference machine
# (perfbench/README.md). A run's tick budget is --seconds times this, at
# least the 1000 ticks a p99 needs.
TICK_RATES = {"rad_sparse": 67.0, "rad_traffic": 29.0, "hybrid_vocab": 42.0}

MEASURED_SEEDS = (0, 2**30)  # scenario-seed range of measured episodes
SETUP_SEEDS = (2**30, 2**31)  # scenario-seed range of hybrid expert episodes

TRAFFIC_VEHICLES = 8
TRAFFIC_EGO_CLEARANCE = 18.0  # m, centre distance from the ego's start
TRAFFIC_SPACING = 10.0  # m, centre distance between any two agents
TRAFFIC_SPEED_FRACTION = (0.3, 0.9)  # of the lane's speed limit
TRAFFIC_MAX_TRIES = 400
TRAFFIC_DURATION_S = 25.0  # episode cap, so a lap of four fits one run
CAR_HALF_LENGTH = 2.3
CAR_HALF_WIDTH = 1.0

VOCAB_K = 16
HORIZON_STEPS = 40  # the default proposal horizon: 4 s at 0.1 s
EXPERT_KINDS = ("lane_change_required", "intersection_turn")
EXPERT_STRIDE = 5
TRAIN_EPOCHS = 150


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, *stream]))


def measured_scenario_seeds(seed: int) -> list:
    """One scenario seed per synthetic kind, in SCENARIO_KINDS order."""
    return [int(s) for s in _rng(seed, 0).integers(*MEASURED_SEEDS, size=len(SCENARIO_KINDS))]


def setup_scenario_seeds(seed: int) -> list:
    return [int(s) for s in _rng(seed, 1).integers(*SETUP_SEEDS, size=len(EXPERT_KINDS))]


def _lane_pose(points: np.ndarray, s: float):
    """(x, y, heading) at arclength s along a polyline."""
    seg = np.hypot(*np.diff(points, axis=0).T)
    s_cum = np.concatenate([[0.0], np.cumsum(seg)])
    i = int(np.clip(np.searchsorted(s_cum, s, side="right") - 1, 0, len(seg) - 1))
    d = points[i + 1] - points[i]
    x, y = points[i] + (s - s_cum[i]) / seg[i] * d
    return float(x), float(y), float(math.atan2(d[1], d[0]))


def add_traffic(scenario, seed: int, kind_index: int):
    """The scenario plus up to TRAFFIC_VEHICLES moving vehicles on its own lanes.

    Vehicles sit on lane centrelines, heading along the lane, at a fraction of
    the lane's speed limit, at least TRAFFIC_EGO_CLEARANCE from the ego and
    TRAFFIC_SPACING from every other agent. Lanes are drawn by length. The
    episode is capped at TRAFFIC_DURATION_S. The result goes through
    scenario_from_dict, so it passes the program's own validation.
    """
    rng = _rng(seed, 2, kind_index)
    doc = scenario_to_dict(scenario)
    doc["duration"] = min(doc["duration"], TRAFFIC_DURATION_S)
    lanes = list(scenario.lanes)
    lengths = np.array([lane.length for lane in lanes])
    occupied = [(a.pose.x, a.pose.y) for a in scenario.agents]
    ego_xy = (scenario.ego.pose.x, scenario.ego.pose.y)
    placed = 0
    for _ in range(TRAFFIC_MAX_TRIES):
        if placed == TRAFFIC_VEHICLES:
            break
        i = int(rng.choice(len(lanes), p=lengths / lengths.sum()))
        lane = lanes[i]
        x, y, heading = _lane_pose(lane.points, float(rng.uniform(0.0, lengths[i])))
        speed = float(rng.uniform(*TRAFFIC_SPEED_FRACTION)) * lane.speed_limit
        if math.dist((x, y), ego_xy) < TRAFFIC_EGO_CLEARANCE:
            continue
        if any(math.dist((x, y), o) < TRAFFIC_SPACING for o in occupied):
            continue
        occupied.append((x, y))
        doc["agents"].append(
            {
                "id": f"traffic_{placed}",
                "pose": [x, y, heading],
                "speed": speed,
                "half_length": CAR_HALF_LENGTH,
                "half_width": CAR_HALF_WIDTH,
                "kind": "vehicle",
            }
        )
        placed += 1
    return scenario_from_dict(doc)


def workload_scenarios(workload: str, seed: int) -> list:
    """The lap of (name, Scenario) a workload measures, one per synthetic kind."""
    if workload not in TICK_RATES:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(TICK_RATES)})")
    out = []
    for kind_index, (kind, s) in enumerate(zip(SCENARIO_KINDS, measured_scenario_seeds(seed))):
        scenario = generate_synthetic_scenario(kind, s)
        if workload == "rad_traffic":
            scenario = add_traffic(scenario, seed, kind_index)
        out.append((f"{kind}_{s}", scenario))
    return out


@dataclass
class HybridAssets:
    vocabulary: object
    model: object
    stage_spans: dict  # set-up stage name -> (start, end) host.wall()


def build_hybrid_assets(seed: int, host: HostClock) -> HybridAssets:
    """Vocabulary and trained plan head from `rad` expert episodes.

    The expert episodes run on set-up seeds; windows are clustered into
    VOCAB_K prototypes and the same episodes give the plan head's training
    samples. The span of each stage is read from the host clock, which
    calibrates before every expert plan and before each stage.
    """
    t0 = host.wall()
    windows, samples = [], []
    for kind, s in zip(EXPERT_KINDS, setup_scenario_seeds(seed)):
        scenario = generate_synthetic_scenario(kind, s)
        log = run_episode(scenario, Paced(Planner(scenario, kind="rad"), host))
        states = log.ego_states()
        windows.extend(slice_ego_windows(states, HORIZON_STEPS, EXPERT_STRIDE))
        agents_seq = [record_agents(rec) for rec in log.records]
        samples.extend(
            harvest_training_samples(scenario, states, agents_seq, HORIZON_STEPS, EXPERT_STRIDE)
        )
    host.checkpoint()
    t1 = host.wall()
    vocabulary = kmeans_cluster(windows, VOCAB_K, seed=seed & 0xFFFFFFFF, dt=0.1)
    t2 = host.wall()
    model = init_model(vocabulary, seed=seed & 0xFFFFFFFF)
    model, _ = train(model, samples, epochs=TRAIN_EPOCHS)
    t3 = host.wall()
    spans = {"setup.experts_s": (t0, t1), "setup.kmeans_s": (t1, t2), "setup.train_s": (t2, t3)}
    return HybridAssets(vocabulary=vocabulary, model=model, stage_spans=spans)


def planner_factory(workload: str, assets: HybridAssets | None):
    """Scenario -> fresh Planner for one episode of the workload."""
    if workload == "hybrid_vocab":
        return lambda scenario: Planner(
            scenario, kind="hybrid", vocabulary=assets.vocabulary, model=assets.model
        )
    return lambda scenario: Planner(scenario, kind="rad")
