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

import numpy as np

from .hybrid import hybrid_select
from .planhead import (
    CLASSIFY_AND_REFINE,
    PlanHeadModel,
    extract_features,
    plan_anytime,
)
from .proposals import IdmParams, ProposalConfig, ProposalSet, generate_proposals
from .scene import EgoState, Scenario, Trajectory, footprint_inside_drivable
from .scoring import (
    D_BLOCK,
    MIN_PROGRESS,
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


@dataclass(frozen=True)
class PlannerConfig:
    replan: bool = True
    enable_adjacents: bool = True
    enable_opposing: bool = True
    enable_vocabulary: bool = True
    enable_relaxation: bool = True
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    proposal: ProposalConfig = field(default_factory=ProposalConfig)
    idm: "IdmParams | None" = None  # base parameters; v0 set per fraction
    max_paths: int = DEFAULT_MAX_PATHS
    horizon_length: float = DEFAULT_HORIZON_LENGTH
    min_progress: float = MIN_PROGRESS
    learned_offsets: tuple = (-0.5, 0.5)
    planhead_budget: str = CLASSIFY_AND_REFINE

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
        # `not <=` so that a NaN dt fails the check.
        if vocabulary is not None and (
            vocabulary.T != cfg.proposal.horizon_steps
            or not abs(vocabulary.dt - cfg.proposal.dt) <= 1e-12
        ):
            raise ValueError(
                f"vocabulary sampling (T={vocabulary.T}, dt={vocabulary.dt}) does not match "
                f"the proposal horizon (T={cfg.proposal.horizon_steps}, dt={cfg.proposal.dt})"
            )
        if model is not None and (
            model.vocab.T != cfg.proposal.horizon_steps
            or not abs(model.vocab.dt - cfg.proposal.dt) <= 1e-12
        ):
            raise ValueError("model vocabulary sampling does not match the proposal horizon")
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
        self._history: list = []
        self._relax_hold = False
        self._relax_hold_since: float | None = None
        self._dt = cfg.proposal.dt

    # -- relaxation hysteresis ------------------------------------------------

    def _relaxation(self, ego: EgoState, agents, route_path, t: float) -> RelaxationState:
        if not self.config.enable_relaxation:
            return RelaxationState()
        det = detect_relaxation(self._history, agents, route_path, dt=self._dt, ego=ego)
        if det.active:
            if not self._relax_hold:
                self._relax_hold = True
                self._relax_hold_since = t
            return det
        if self._relax_hold:
            blocker = _blocker_distance(ego, agents, route_path, d_block=D_BLOCK)
            on_road = footprint_inside_drivable(ego, self.scenario)
            timed_out = (
                self._relax_hold_since is not None
                and t - self._relax_hold_since > RELAX_HOLD_TIMEOUT
            )
            if (blocker is None and on_road) or timed_out:
                self._relax_hold = False
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
        self._history.append(ego)
        if len(self._history) > 600:
            del self._history[: len(self._history) - 600]
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
            features = extract_features(ego, agents, route_path, self.scenario.goal)
            learned, head_times = plan_anytime(
                self.model, features, ego, budget=cfg.planhead_budget
            )
            stage_times.extend(head_times)
            winner, scores, proposals, best = hybrid_select(
                proposals, learned, ctx, offsets=cfg.learned_offsets
            )
        else:
            winner, scores, best = select_best(proposals, ctx)
        stage_times.append(("scoring", time.perf_counter() - t2))

        # Sample 0 of a path's rollout arclength is the ego's projection onto
        # that path; the rollout rows come first, path by path.
        first_rows = np.searchsorted(proposals.path_index[proposals.tracked], np.arange(len(paths)))
        gap = 0.0
        for path, s_ego in zip(paths, proposals.s_track[first_rows, 0]):
            gap = max(gap, float(np.linalg.norm(path.segments.points_at(s_ego) - path.start)))
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
        features = extract_features(ego, agents, route_path, self.scenario.goal)
        stage_times = [("features", time.perf_counter() - t0)]
        traj, head_times = plan_anytime(self.model, features, ego, budget=cfg.planhead_budget)
        stage_times.extend(head_times)
        s_ego, _, _ = project_onto_path(route_path, ego.pose)
        gap = float(np.linalg.norm(route_path.segments.points_at(s_ego) - route_path.start))
        return PlanResult(
            trajectory=traj,
            breakdowns=[],
            proposals=None,
            paths=paths,
            stage_times=stage_times,
            relax=RelaxationState(),
            replan_root_gap=gap,
        )


def make_planner(
    kind: str,
    scenario: Scenario,
    config: PlannerConfig | None = None,
    vocabulary: Vocabulary | None = None,
    model: PlanHeadModel | None = None,
) -> Planner:
    return Planner(scenario, kind=kind, config=config, vocabulary=vocabulary, model=model)
