"""Config documents: the same JSON text format as scenario files, carrying
overrides for the planner, scorer, proposal, IDM, and simulator defaults.
Unknown keys are errors. RADSTACK_SEED overrides seed flags for CI runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

from .errors import ConfigError, IoError, ParseError
from .planhead import CLASSIFY_AND_REFINE, CLASSIFY_ONLY
from .planner import PlannerConfig
from .proposals import IdmParams
from .simulator import AGENT_POLICIES, SimConfig


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# Value kinds: (description for the error message, predicate).
_BOOL = ("a boolean", lambda v: isinstance(v, bool))
_COUNT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_POSITIVE = ("a finite number > 0", lambda v: _is_number(v) and v > 0)
_NON_NEGATIVE = ("a finite number >= 0", lambda v: _is_number(v) and v >= 0)
_NUMBERS = ("a list of finite numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)))
_FRACTIONS = (
    "a list of numbers in (0, 1]",
    lambda v: isinstance(v, list) and all(_is_number(x) and 0 < x <= 1 for x in v),
)


def _one_of(*choices):
    return (f"one of {list(choices)}", lambda v: v in choices)


_DISTURBANCES = (
    "a list of [tick, metres] pairs",
    lambda v: isinstance(v, list)
    and all(isinstance(d, list) and len(d) == 2 and _is_int(d[0]) and _is_number(d[1]) for d in v),
)

_SECTIONS = {
    "planner": {
        "replan": _BOOL,
        "enable_adjacents": _BOOL,
        "enable_opposing": _BOOL,
        "enable_vocabulary": _BOOL,
        "enable_relaxation": _BOOL,
        "max_paths": _COUNT,
        "horizon_length": _POSITIVE,
        "min_progress": _NON_NEGATIVE,
        "learned_offsets": _NUMBERS,
        "planhead_budget": _one_of(CLASSIFY_ONLY, CLASSIFY_AND_REFINE),
    },
    "weights": {k: _NON_NEGATIVE for k in ("w_ttc", "w_dr", "w_sp", "w_ep", "w_cf", "w_goal")},
    "proposal": {"offsets": _NUMBERS, "speed_fractions": _FRACTIONS, "horizon": _POSITIVE, "dt": _POSITIVE},
    "idm": {k: _POSITIVE for k in ("v0", "T_h", "s0", "a_max", "b_comf", "delta")},
    "sim": {
        "dt": _POSITIVE,
        "planner_period": _COUNT,
        "horizon": _POSITIVE,
        "agent_policy": _one_of(*AGENT_POLICIES),
        "disturbances": _DISTURBANCES,
        "goal_radius": _NON_NEGATIVE,
        "deadlock_window": _POSITIVE,
        "deadlock_displacement": _NON_NEGATIVE,
        "record_breakdowns": _BOOL,
    },
}
_TOP_KEYS = set(_SECTIONS) | {"model_path", "vocab_path"}


def load_config(path) -> dict:
    """Parse and validate a config document; unknown keys and bad values raise ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise IoError(f"cannot read config file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed config file {path}: {e}") from e
    validate_config(doc)
    return doc


def validate_config(doc: dict) -> None:
    """Unknown keys, and values of the wrong type or range, raise ConfigError
    naming the field (e.g. ``sim.planner_period``)."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("model_path", "vocab_path"):
        if key in doc and not isinstance(doc[key], str):
            raise ConfigError(f"{key}: expected a string, got {doc[key]!r}")
    for section, keys in _SECTIONS.items():
        if section not in doc:
            continue
        if not isinstance(doc[section], dict):
            raise ConfigError(f"config section {section!r} must be an object")
        bad = set(doc[section]) - set(keys)
        if bad:
            raise ConfigError(f"unknown keys in config section {section!r}: {sorted(bad)}")
        for key, value in doc[section].items():
            expected, ok = keys[key]
            if not ok(value):
                raise ConfigError(f"{section}.{key}: expected {expected}, got {value!r}")


def _tupled(value):
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


def _replaced(obj, section: str, values: dict):
    """obj with the keys of one config section replaced. A ValueError from the
    dataclass's own checks becomes a ConfigError naming the keys the section
    set (e.g. ``proposal.horizon, proposal.dt: ...``)."""
    try:
        return replace(obj, **{k: _tupled(v) for k, v in values.items()})
    except ValueError as e:
        raise ConfigError(f"{', '.join(f'{section}.{k}' for k in values)}: {e}") from e


def build_planner_config(doc: dict) -> PlannerConfig:
    cfg = PlannerConfig()
    if "proposal" in doc:
        cfg = replace(cfg, proposal=_replaced(cfg.proposal, "proposal", doc["proposal"]))
    if "weights" in doc:
        cfg = replace(cfg, weights=_replaced(cfg.weights, "weights", doc["weights"]))
    if "idm" in doc:
        cfg = replace(cfg, idm=_replaced(cfg.idm or IdmParams(), "idm", doc["idm"]))
    if "planner" in doc:
        cfg = _replaced(cfg, "planner", doc["planner"])
    return cfg


def build_sim_config(doc: dict) -> SimConfig:
    cfg = SimConfig()
    if "sim" in doc:
        cfg = _replaced(cfg, "sim", doc["sim"])
    # Keep the simulated planning horizon in sync with proposal overrides.
    synced = {k: v for k, v in doc.get("proposal", {}).items() if k in ("horizon", "dt")}
    if synced:
        cfg = _replaced(cfg, "proposal", synced)
    return cfg


def resolve_seed(flag_value: int) -> int:
    """Seed from the CLI flag unless RADSTACK_SEED overrides it (CI hook)."""
    env = os.environ.get("RADSTACK_SEED")
    if env is None:
        return flag_value
    try:
        return int(env)
    except ValueError as e:
        raise ConfigError(f"RADSTACK_SEED must be an integer, got {env!r}") from e
