"""In-memory spans around the public names each radstack layer calls.

For a traced run the benchmark swaps each name in TARGETS for a wrapper that
records a span, and restores the original afterwards. A span holds its name,
start, end, parent span and episode id. A span's self time is its duration
minus the time its child spans cover; spans from one thread nest, so the
children of a span never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute, span name). The planner module imports these names
# from the layer modules, so the wrapper goes where the caller looks it up.
TARGETS = (
    ("radstack.planner", "graph_search", "topology.graph_search"),
    ("radstack.planner", "augment_with_adjacents", "topology.augment"),
    ("radstack.planner", "generate_proposals", "proposals.generate"),
    ("radstack.proposals", "trajectory_from_arrays", "proposals.materialize"),
    ("radstack.planner", "instantiate_prototype", "vocabulary.instantiate"),
    ("radstack.planner", "forecast_agents", "scoring.forecast"),
    ("radstack.planner", "detect_relaxation", "scoring.relaxation"),
    ("radstack.planner", "select_best", "scoring.select_best"),
    ("radstack.hybrid", "select_best", "scoring.select_best"),
    ("radstack.planner", "hybrid_select", "hybrid.select"),
    ("radstack.planner", "extract_features", "planhead.features"),
    ("radstack.planner", "plan_anytime", "planhead.plan_anytime"),
    ("radstack.simulator", "lqr_track", "simulator.lqr_track"),
    ("radstack.simulator", "step_agents", "simulator.step_agents"),
    ("radstack.simulator", "bicycle_step", "simulator.bicycle_step"),
)

# Spans the benchmark records from its own code, around the planner object
# it hands to run_episode, around run_episode itself and around the host
# clock's calibration slices (hostspeed), which run inside episodes.
PLAN_SPAN = "planner.plan"
EPISODE_SPAN = "episode"
CALIBRATION_SPAN = "calibration"

# Which spans make up each stage of PlanResult.stage_times.
STAGE_SPANS = {
    "topology": ("topology.graph_search", "topology.augment"),
    "proposals": ("proposals.generate", "vocabulary.instantiate", "scoring.forecast"),
    "scoring": (
        "scoring.relaxation",
        "scoring.select_best",
        "hybrid.select",
        "planhead.features",
        "planhead.plan_anytime",
    ),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    episode: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.episode = -1
        self._stack: list = []

    def _open(self, name: str, start: float) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, start, start, parent, self.episode))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, end: float) -> None:
        self._stack.pop()
        self.spans[idx].end = end

    def wrap(self, name: str, fn):
        """fn, recording a span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, self.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, self.clock())

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name, self.clock())
        try:
            yield
        finally:
            self._close(idx, self.clock())

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out


@contextlib.contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Swap each target for a tracing wrapper; restore every original on exit."""
    saved = []
    try:
        for module_name, attr, span_name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def totals(tracer: Tracer) -> tuple:
    """(total duration, total self time) per span name, in seconds."""
    dur, own = {}, {}
    for s, self_s in zip(tracer.spans, tracer.self_times()):
        dur[s.name] = dur.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + self_s
    return dur, own


def layer_metrics(tracer: Tracer, ticks: int, scale: float) -> dict:
    """Per-tick layer times in ms, wall times multiplied by `scale`.

    The run passes the ratio of its scaled to its wall loop time, so layer
    times are on the same host-speed scale as the end-to-end metrics.
    """
    dur, own = totals(tracer)
    per_tick = 1e3 * scale / max(ticks, 1)

    def ms(table, *names):
        return sum(table.get(n, 0.0) for n in names) * per_tick

    sim_parts = ms(
        dur, PLAN_SPAN, CALIBRATION_SPAN, "simulator.lqr_track", "simulator.step_agents", "simulator.bicycle_step"
    )
    return {
        "topology.graph_search_ms": ms(dur, "topology.graph_search"),
        "topology.augment_ms": ms(dur, "topology.augment"),
        "proposals.rollout_ms": ms(own, "proposals.generate"),
        "proposals.materialize_ms": ms(dur, "proposals.materialize"),
        "vocabulary.instantiate_ms": ms(dur, "vocabulary.instantiate"),
        "scoring.select_best_ms": ms(dur, "scoring.select_best"),
        "scoring.forecast_ms": ms(dur, "scoring.forecast"),
        "scoring.relaxation_ms": ms(dur, "scoring.relaxation"),
        "planhead.features_ms": ms(dur, "planhead.features"),
        "planhead.plan_anytime_ms": ms(dur, "planhead.plan_anytime"),
        "hybrid.select_ms": ms(own, "hybrid.select"),
        "planner.self_ms": ms(own, PLAN_SPAN),
        "simulator.lqr_track_ms": ms(dur, "simulator.lqr_track"),
        "simulator.step_agents_ms": ms(dur, "simulator.step_agents"),
        "simulator.other_ms": ms(dur, EPISODE_SPAN) - sim_parts,
    }


def stage_agreement(tracer: Tracer, plan_results) -> dict:
    """Traced time over PlanResult.stage_times time, per stage, summed over ticks.

    Only spans called directly by Planner.plan count, so a nested span (such
    as select_best inside hybrid_select) is not counted twice.
    """
    spans = tracer.spans
    direct = {}
    for s in spans:
        if s.parent >= 0 and spans[s.parent].name == PLAN_SPAN:
            direct[s.name] = direct.get(s.name, 0.0) + s.duration
    stage_s = {}
    for result in plan_results:
        for name, seconds in result.stage_times:
            stage_s[name] = stage_s.get(name, 0.0) + seconds
    out = {}
    for stage, names in STAGE_SPANS.items():
        traced = sum(direct.get(n, 0.0) for n in names)
        out[stage] = traced / stage_s[stage] if stage_s.get(stage) else float("nan")
    return out
