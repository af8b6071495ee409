"""radstack: a closed-loop motion-planning stack.

Rule-based planning with per-tick topology replanning, lane-change and
opposing-lane augmentation, goal-directed scoring, trajectory-vocabulary
proposals and context-aware rule relaxation; a small learned plan head whose
staged inference classifies, then refines within its budget; a hybrid
integration; and a deterministic 2D simulator plus benchmark harness to
exercise all of it.
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
from .proposals import IdmParams, ProposalConfig, ProposalSet, generate_proposals, idm_accel
from .vocabulary import Vocabulary, kmeans_cluster, load_vocabulary, save_vocabulary
from .scoring import (
    RelaxationState,
    ScoreBreakdown,
    ScoreContext,
    ScoreWeights,
    WorldForecast,
    detect_relaxation,
    forecast_agents,
    select_best,
)
from .planhead import (
    PlanHeadModel,
    TrainingSample,
    extract_features,
    init_model,
    plan_anytime,
    soft_targets,
    train,
)
from .hybrid import hybrid_select, inject_learned
from .planner import Planner, PlannerConfig
from .simulator import EpisodeLog, SimConfig, bicycle_step, lqr_track, run_episode, step_agents
from .bench import BenchReport, emit_report, run_suite

__version__ = "0.1.0"
