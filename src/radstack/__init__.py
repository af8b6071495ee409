"""radstack: a closed-loop motion-planning stack.

Rule-based planning with per-tick topology replanning, lane-change and
opposing-lane augmentation, goal-directed scoring, trajectory-vocabulary
proposals and context-aware rule relaxation; a small learned plan head with
staged (interruptible) inference; a hybrid integration; and a deterministic
2D simulator plus benchmark harness to exercise all of it.
"""

from .errors import (
    ConfigError,
    DegenerateClusterError,
    DivergenceError,
    HorizonMismatchError,
    IoError,
    OffMapError,
    ParseError,
    RadstackError,
    ValidationError,
)
from .scene import (
    AgentState,
    EgoState,
    Lane,
    Pose2,
    Scenario,
    Trajectory,
    agent_footprint,
    generate_synthetic_scenario,
    load_scenario,
    save_scenario,
)
from .topology import ProposalPath, augment_with_adjacents, graph_search, project_onto_path
from .proposals import IdmParams, ProposalConfig, ProposalSet, generate_proposals, idm_accel, rollout_idm
from .vocabulary import (
    Vocabulary,
    collect_expert_trajectories,
    instantiate_vocabulary,
    kmeans_cluster,
    load_vocabulary,
    save_vocabulary,
)
from .scoring import (
    RelaxationState,
    ScoreBreakdown,
    ScoreContext,
    ScoreWeights,
    WorldForecast,
    aggregate_score,
    check_collision,
    check_drivable_area,
    check_min_progress,
    detect_relaxation,
    forecast_agents,
    goal_cost,
    select_best,
    weighted_objectives,
)
from .planhead import (
    PlanHeadModel,
    TrainingSample,
    encode_features,
    extract_features,
    forward_classify,
    forward_refine,
    init_model,
    plan_anytime,
    plan_loss,
    refine_loss,
    soft_targets,
    train,
)
from .hybrid import hybrid_select, inject_learned
from .planner import Planner, PlannerConfig, make_planner
from .simulator import EpisodeLog, SimConfig, bicycle_step, lqr_track, run_episode, step_agents
from .bench import BenchReport, emit_report, measure_latency, run_suite

__version__ = "0.1.0"
