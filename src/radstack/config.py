"""Config documents: the same JSON text format as scenario files, carrying
overrides of the defaults. Each section overrides one dataclass, and its keys
are that dataclass's fields:

  planner  -- PlannerConfig, the fields with a plain default
  weights  -- ScoreWeights
  proposal -- ProposalConfig
  idm      -- IdmParams
  sim      -- SimConfig

plus model_path and vocab_path, the plan-head and vocabulary files.

Sampling: proposal.horizon and proposal.dt set the plan that every planner
samples (the horizon a whole multiple of dt); sim.dt is the simulation step.

Unknown keys and bad values are ConfigErrors naming the field, and the file
when read by load_config.
RADSTACK_SEED overrides seed flags for CI runs.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, fields, replace
from functools import partial

from .errors import ConfigError, array, expected, from_text, integer, load_json, number, obj, string
from .planner import PlannerConfig
from .simulator import SimConfig


# Value readers: (value, field path) -> the value as its dataclass takes it.
# Every section's dataclass checks its own ranges, so the readers check type
# and shape only.
_number = partial(number, error=ConfigError)
_integer = partial(integer, error=ConfigError)
_string = partial(string, error=ConfigError)


def _bool(v, path):
    if isinstance(v, bool):
        return v
    raise expected(ConfigError, path, "a boolean", v)


def _numbers(v, path):
    return tuple(array(v, path, ConfigError, (None,), "a list of finite numbers").tolist())


def _disturbances(v, path):
    """((tick, lateral metres), ...) from [[tick, metres], ...]."""
    pairs = array(v, path, ConfigError, (None, 2), "a list of [tick, metres] pairs").tolist()
    return tuple((integer(tick, f"{path}[{i}][0]", ConfigError, at_least=0), m) for i, (tick, m) in enumerate(pairs))


# The reader of a field with a plain default, by the default's type.
_READERS = {bool: _bool, int: _integer, float: _number, str: _string, tuple: _numbers}


def _readers(cls) -> dict:
    """{field name: reader} of cls's fields with a plain default, the reader
    picked by the default's type. A field with a default factory is a section
    of its own."""
    return {f.name: _READERS[type(f.default)] for f in fields(cls) if f.default is not MISSING}


# The sections: PlannerConfig's plain fields, then its dataclass fields (those
# with a default factory) in declaration order, then SimConfig.
_NESTED = {f.name: f.default_factory for f in fields(PlannerConfig) if f.default_factory is not MISSING}
_SECTIONS = {
    "planner": _readers(PlannerConfig),
    **{section: _readers(cls) for section, cls in _NESTED.items()},
    "sim": {**_readers(SimConfig), "disturbances": _disturbances},  # pairs, not numbers
}
_ASSET_KEYS = ("model_path", "vocab_path")


def load_config(path) -> tuple:
    """build_configs of a config file. Unknown keys and bad values, those the
    config dataclasses' own checks reject included, raise ConfigError naming
    the file and the field."""
    return load_json(path, "config file", build_configs, ConfigError)


def build_configs(doc: dict) -> tuple:
    """(doc as validate_config reads it, its PlannerConfig, its SimConfig)."""
    doc = validate_config(doc)
    return doc, build_planner_config(doc), build_sim_config(doc)


def validate_config(doc: dict) -> dict:
    """doc with every value read as its dataclass takes it. Unknown keys, and
    values of the wrong type or shape, raise ConfigError naming the field
    (e.g. ``sim.planner_period``). Ranges are checked when build_*_config
    makes the dataclass."""
    doc = obj(doc, "", ConfigError, optional=(*_ASSET_KEYS, *_SECTIONS))
    out = {key: string(doc[key], key, ConfigError) for key in _ASSET_KEYS if key in doc}
    for section, readers in _SECTIONS.items():
        if section in doc:
            values = obj(doc[section], section, ConfigError, optional=readers)
            out[section] = {key: readers[key](v, f"{section}.{key}") for key, v in values.items()}
    return out


def _replaced(base, section: str, values: dict):
    """base with the keys of one config section replaced. A ValueError from the
    dataclass's own checks becomes a ConfigError naming the keys the section
    set (e.g. ``proposal.horizon, proposal.dt: ...``)."""
    try:
        return replace(base, **values)
    except ValueError as e:
        raise ConfigError(f"{', '.join(f'{section}.{k}' for k in values)}: {e}") from e


def build_planner_config(doc: dict) -> PlannerConfig:
    doc = validate_config(doc)
    cfg = PlannerConfig()
    for section in _NESTED:  # PlannerConfig fields of the same names
        if section in doc:
            cfg = replace(cfg, **{section: _replaced(getattr(cfg, section), section, doc[section])})
    return _replaced(cfg, "planner", doc.get("planner", {}))


def build_sim_config(doc: dict) -> SimConfig:
    doc = validate_config(doc)
    return _replaced(SimConfig(), "sim", doc.get("sim", {}))


def resolve_seed(flag_value: int) -> int:
    """Seed from the CLI flag unless RADSTACK_SEED overrides it (CI hook)."""
    env = os.environ.get("RADSTACK_SEED")
    if env is None:
        return flag_value
    return from_text(env, integer, "RADSTACK_SEED", ConfigError)
