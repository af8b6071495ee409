"""Per-tick planner pipelines wiring topology, proposals, vocabulary, scoring,
and the learned head together, with the ablation toggles exposed as config.

Planner kinds:
  rad             -- replanned topology, adjacency/opposing augmentation,
                     vocabulary proposals, goal term, rule relaxation
  baseline_static -- topology fixed at the first tick, no augmentation,
                     no vocabulary, no goal term, no relaxation
  planhead        -- learned classify(+refine) head only
  hybrid          -- rad proposals plus the learned plan, rules-scored
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from .errors import HorizonMismatchError, integer, number, string
from .geometry import normalize_angle
from .hybrid import DEFAULT_LEARNED_OFFSETS, hybrid_select
from .planhead import (
    CLASSIFY_AND_REFINE,
    CLASSIFY_ONLY,
    PlanHeadModel,
    extract_features,
    plan_anytime,
)
from .proposals import IdmParams, ProposalConfig, ProposalSet, generate_proposals
from .scene import EgoState, Scenario, Trajectory, footprint_inside_drivable
from .scoring import (
    MIN_PROGRESS,
    STOPPED_SPEED,
    RelaxationState,
    ScoreContext,
    ScoreWeights,
    _blocker_distance,
    detect_relaxation,
    forecast_agents,
    select_best,
)
from .topology import (
    DEFAULT_HORIZON_LENGTH,
    DEFAULT_MAX_PATHS,
    augment_with_adjacents,
    graph_search,
    project_onto_path,
)
from .vocabulary import Vocabulary, instantiate_prototype

PLANNER_KINDS = ("rad", "planhead", "hybrid", "baseline_static")
RELAX_HOLD_TIMEOUT = 30.0  # s, safety cap on a held relaxation maneuver
STOPPED_TICKS_MAX = 600  # plan calls; a longer stop counts as this many


@dataclass(frozen=True)
class PlannerConfig:
    replan: bool = True
    enable_adjacents: bool = True
    enable_opposing: bool = True
    enable_vocabulary: bool = True
    enable_relaxation: bool = True
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    proposal: ProposalConfig = field(default_factory=ProposalConfig)
    idm: IdmParams = field(default_factory=IdmParams)  # base parameters; v0 set per fraction
    max_paths: int = DEFAULT_MAX_PATHS
    horizon_length: float = DEFAULT_HORIZON_LENGTH
    min_progress: float = MIN_PROGRESS
    learned_offsets: tuple = DEFAULT_LEARNED_OFFSETS
    planhead_budget: str = CLASSIFY_AND_REFINE

    def __post_init__(self):
        integer(self.max_paths, "PlannerConfig.max_paths", ValueError, at_least=1)
        number(self.horizon_length, "PlannerConfig.horizon_length", ValueError, above=0)
        number(self.min_progress, "PlannerConfig.min_progress", ValueError, at_least=0)
        for i, o in enumerate(self.learned_offsets):
            number(o, f"PlannerConfig.learned_offsets[{i}]", ValueError)
        string(self.planhead_budget, "PlannerConfig.planhead_budget", ValueError, (CLASSIFY_ONLY, CLASSIFY_AND_REFINE))

    def without_goal(self) -> "PlannerConfig":
        return replace(self, weights=replace(self.weights, w_goal=0.0))


BASELINE_STATIC_OVERRIDES = dict(
    replan=False,
    enable_adjacents=False,
    enable_opposing=False,
    enable_vocabulary=False,
    enable_relaxation=False,
)


@dataclass
class PlanResult:
    trajectory: Trajectory
    breakdowns: Sequence  # Scores, one ScoreBreakdown per proposal row; [] for planhead
    proposals: ProposalSet | None
    paths: list
    stage_times: list  # (stage name, seconds)
    relax: RelaxationState
    replan_root_gap: float  # max distance from a path start to the ego projection
    winner: int = -1  # the trajectory's row in proposals; -1 without proposals


class Planner:
    """Stateful per-episode planner; one instance per episode."""

    def __init__(
        self,
        scenario: Scenario,
        kind: str = "rad",
        config: PlannerConfig | None = None,
        vocabulary: Vocabulary | None = None,
        model: PlanHeadModel | None = None,
    ):
        if kind not in PLANNER_KINDS:
            raise ValueError(f"unknown planner kind {kind!r}")
        cfg = config or PlannerConfig()
        if kind == "baseline_static":
            cfg = replace(cfg, **BASELINE_STATIC_OVERRIDES)
            cfg = cfg.without_goal()
        if kind in ("planhead", "hybrid") and model is None:
            raise ValueError(f"planner kind {kind!r} requires a trained model")
        steps, dt = cfg.proposal.horizon_steps, cfg.proposal.dt
        for name, vocab in (("vocabulary", vocabulary), ("model vocabulary", model and model.vocab)):
            # `not <=` so that a NaN dt fails the check.
            if vocab is not None and (vocab.T != steps or not abs(vocab.dt - dt) <= 1e-12):
                raise HorizonMismatchError(
                    f"{name} sampling (T={vocab.T}, dt={vocab.dt}) does not match "
                    f"the proposal horizon (T={steps}, dt={dt})"
                )
        self.kind = kind
        self.config = cfg
        self.scenario = scenario
        self.vocabulary = vocabulary
        self.model = model
        ego0 = scenario.ego
        self.goal_norm = max(
            1e-6, math.hypot(scenario.goal.x - ego0.pose.x, scenario.goal.y - ego0.pose.y)
        )
        self._static_paths = None
        self._stopped = 0  # consecutive plan calls below STOPPED_SPEED, up to the current one
        self._relax_hold_since: float | None = None  # None while no relaxation is held

    # -- relaxation hysteresis ------------------------------------------------

    def _relaxation(self, ego: EgoState, agents, route_path, t: float) -> RelaxationState:
        if not self.config.enable_relaxation:
            return RelaxationState()
        det = detect_relaxation(self._stopped, agents, route_path, self.config.proposal.dt, ego)
        if det.active:
            if self._relax_hold_since is None:
                self._relax_hold_since = t
            return det
        if self._relax_hold_since is not None:
            blocker = _blocker_distance(ego, agents, route_path)
            on_road = footprint_inside_drivable(ego, self.scenario)
            timed_out = t - self._relax_hold_since > RELAX_HOLD_TIMEOUT
            if (blocker is None and on_road) or timed_out:
                self._relax_hold_since = None
                return det
            # Hold the relaxation through the escape maneuver: the trigger
            # has fired and the blockage is not yet cleared.
            return RelaxationState(
                active=True,
                stopped_duration=det.stopped_duration,
                blocker_distance=blocker,
            )
        return det

    # -- topology -------------------------------------------------------------

    def _paths(self, ego: EgoState):
        cfg = self.config
        if not cfg.replan:
            if self._static_paths is None:
                # Anchored to the initial ego state, never recomputed.
                base = graph_search(
                    self.scenario.ego, self.scenario, cfg.max_paths, cfg.horizon_length
                )
                self._static_paths = base
            return self._static_paths
        paths = graph_search(ego, self.scenario, cfg.max_paths, cfg.horizon_length)
        if cfg.enable_adjacents or cfg.enable_opposing:
            paths = augment_with_adjacents(
                paths,
                self.scenario,
                ego,
                horizon_length=cfg.horizon_length,
                enable_adjacents=cfg.enable_adjacents,
                enable_opposing=cfg.enable_opposing,
            )
        return paths

    # -- main entry -----------------------------------------------------------

    def plan(self, ego: EgoState, agents, t: float = 0.0) -> PlanResult:
        self._stopped = min(self._stopped + 1, STOPPED_TICKS_MAX) if ego.speed < STOPPED_SPEED else 0
        if self.kind == "planhead":
            return self._plan_learned(ego, agents)
        return self._plan_rules(ego, agents, t)

    def _plan_rules(self, ego: EgoState, agents, t: float) -> PlanResult:
        cfg = self.config
        stage_times = []
        t0 = time.perf_counter()
        paths = self._paths(ego)
        route_path = paths[0]
        stage_times.append(("topology", time.perf_counter() - t0))

        t1 = time.perf_counter()
        forecast = forecast_agents(agents, cfg.proposal.horizon_steps, cfg.proposal.dt)
        proposals = generate_proposals(ego, paths, agents, cfg.proposal, base_params=cfg.idm)
        if cfg.enable_vocabulary and self.vocabulary is not None:
            vocab = self.vocabulary
            rows = instantiate_prototype(vocab.prototypes, ego, vocab.dt)
            proposals.append(vocab.dt, *rows, ("vocabulary",) * vocab.K)
        stage_times.append(("proposals", time.perf_counter() - t1))

        t2 = time.perf_counter()
        relax = self._relaxation(ego, agents, route_path, t)
        ctx = ScoreContext(
            scenario=self.scenario,
            forecast=forecast,
            route_path=route_path,
            weights=cfg.weights,
            relax=relax,
            goal_norm=self.goal_norm,
            min_progress=cfg.min_progress,
            ego_dims=(ego.half_length, ego.half_width),
        )
        if self.kind == "hybrid":
            # The rollout projected the ego onto every path; path 0 is the route.
            s_ego, lateral, path_heading = proposals.ego_projection[0].tolist()
            route_projection = (s_ego, lateral, normalize_angle(ego.pose.heading - path_heading))
            features = extract_features(ego, agents, route_path, self.scenario.goal, route_projection)
            learned, head_times = plan_anytime(
                self.model, features, ego, budget=cfg.planhead_budget
            )
            stage_times.extend(head_times)
            winner, scores, proposals, best = hybrid_select(proposals, learned, ctx, cfg.learned_offsets)
        else:
            winner, scores, best = select_best(proposals, ctx)
        stage_times.append(("scoring", time.perf_counter() - t2))

        # The rollout carries each path's centre point at the ego's projection.
        gap = 0.0
        for path, centre in zip(paths, proposals.path_centres):
            gap = max(gap, math.dist(centre, path.start))
        return PlanResult(
            trajectory=winner,
            breakdowns=scores,
            proposals=proposals,
            paths=paths,
            stage_times=stage_times,
            relax=relax,
            replan_root_gap=gap,
            winner=best,
        )

    def _plan_learned(self, ego: EgoState, agents) -> PlanResult:
        cfg = self.config
        t0 = time.perf_counter()
        paths = self._paths(ego)
        route_path = paths[0]
        projection = project_onto_path(route_path, ego.pose)
        features = extract_features(ego, agents, route_path, self.scenario.goal, projection)
        stage_times = [("features", time.perf_counter() - t0)]
        traj, head_times = plan_anytime(self.model, features, ego, budget=cfg.planhead_budget)
        stage_times.extend(head_times)
        gap = math.dist(route_path.segments.points_at(projection[0]), route_path.start)
        return PlanResult(
            trajectory=traj,
            breakdowns=[],
            proposals=None,
            paths=paths,
            stage_times=stage_times,
            relax=RelaxationState(),
            replan_root_gap=gap,
        )
