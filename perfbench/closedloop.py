"""Closed-loop measurement: one episode at a time, one tick after another.

The scenarios of a lap run in order, lap after lap, until the run's tick
budget is spent; the episode in progress is then stopped at a tick boundary.
Everything is a pure function of the workload seed and the budget, so which
ticks are measured, and every episode outcome, repeat exactly at one seed.

`TimedPlanner` wraps the planner passed to `run_episode` and times each
`Planner.plan` call. It also runs the per-tick output checks, outside the
timed region, and lets the host clock calibrate before each tick, outside
the timed region too.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from radstack import run_episode
from radstack.bench import summarize_episode

from hostspeed import HostClock
from tracing import CALIBRATION_SPAN, EPISODE_SPAN, PLAN_SPAN
from workloads import HORIZON_STEPS

# Every value radstack.bench.episode_outcome can return.
EPISODE_OUTCOMES = ("collision", "off_map_error", "goal_reached", "deadlock", "timeout")
MIN_TAIL_SAMPLES = 10
START_TOLERANCE = 1e-6  # m, a plan's first sample against the ego position


class TickBudgetReached(BaseException):
    """Raised from inside run_episode to stop a run at a tick boundary.

    Derives from BaseException so no handler in the program under test that
    catches Exception can swallow it.
    """


def percentile_with_tail(values, q: float) -> float:
    """Nearest-rank q-th percentile, only where >= MIN_TAIL_SAMPLES lie beyond it.

    Raises ValueError when there are too few samples for that percentile.
    """
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} needs at least {MIN_TAIL_SAMPLES} samples beyond it; {n} samples leave {n - rank}"
        )
    return float(np.sort(np.asarray(values, dtype=float))[rank - 1])


def highest_percentile(n: int) -> float:
    """The highest percentile, to 0.1, with at least MIN_TAIL_SAMPLES of n beyond it."""
    if n <= MIN_TAIL_SAMPLES:
        return 0.0
    return math.floor(1000.0 * (n - MIN_TAIL_SAMPLES) / n) / 10.0


def trajectory_problems(traj, ego) -> list:
    """Output-check failures of one tick's planned trajectory (empty when fine)."""
    problems = []
    if traj.horizon_steps != HORIZON_STEPS:
        problems.append(f"horizon {traj.horizon_steps} != {HORIZON_STEPS}")
    arrays = (traj.positions, traj.headings, traj.speeds)
    if not all(np.isfinite(a).all() for a in arrays):
        problems.append("non-finite sample")
    start = traj.positions[0]
    gap = math.hypot(start[0] - ego.pose.x, start[1] - ego.pose.y)
    if not gap <= START_TOLERANCE:
        problems.append(f"starts {gap:.3g} m from the ego ({traj.tag})")
    return problems


@dataclass
class Recorder:
    """Per-run tick samples and the tick budget shared by every episode."""

    budget: int
    host: HostClock = field(default_factory=HostClock)
    plan_spans: list = field(default_factory=list)  # (start, end) host.wall() per plan
    results: list = field(default_factory=list)  # PlanResult per tick, kept on request
    keep_results: bool = False

    @property
    def ticks(self) -> int:
        return len(self.plan_spans)


class TimedPlanner:
    """Planner stand-in for run_episode: times plan() and checks its output."""

    def __init__(self, planner, recorder: Recorder, episode: "EpisodeRecord", tracer=None):
        self.kind = planner.kind
        self._planner = planner
        self._rec = recorder
        self._episode = episode
        self._tracer = tracer

    def _span(self, name: str):
        return contextlib.nullcontext() if self._tracer is None else self._tracer.span(name)

    def plan(self, ego, agents, t: float = 0.0):
        rec = self._rec
        if rec.ticks >= rec.budget:
            raise TickBudgetReached
        with self._span(CALIBRATION_SPAN):
            rec.host.checkpoint()
        with self._span(PLAN_SPAN):
            t0 = rec.host.wall()
            result = self._planner.plan(ego, agents, t=t)
            t1 = rec.host.wall()
        rec.plan_spans.append((t0, t1))
        if rec.keep_results:
            rec.results.append(result)
        ep = self._episode
        ep.ego_trace.append((ego.pose.x, ego.pose.y, ego.pose.heading, ego.speed))
        for problem in trajectory_problems(result.trajectory, ego):
            ep.problems.append(f"tick {len(ep.ego_trace) - 1}: {problem}")
        return result


@dataclass
class EpisodeRecord:
    scenario: str
    lap: int
    row: dict | None = None  # outcome row, None while unfinished or when cut
    cut: bool = False
    ego_trace: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems) or (self.row is not None and self.row["outcome"] == "error")


def run_episode_guarded(name, scenario, planner, recorder, lap, tracer=None):
    """One closed-loop episode; an exception escaping run_episode becomes an error row."""
    ep = EpisodeRecord(scenario=name, lap=lap)
    timed = TimedPlanner(planner, recorder, ep, tracer)
    try:
        if tracer is None:
            log = run_episode(scenario, timed)
        else:
            tracer.episode += 1
            with tracer.span(EPISODE_SPAN):
                log = run_episode(scenario, timed)
    except TickBudgetReached:
        ep.cut = True
        return ep
    except Exception as e:  # failure accounting: record and go on
        ep.row = {"scenario": name, "outcome": "error", "error": f"{type(e).__name__}: {e}"}
        return ep
    ep.row = {"scenario": name, **summarize_episode(log)}
    if ep.row["outcome"] not in EPISODE_OUTCOMES:
        ep.problems.append(f"unknown outcome {ep.row['outcome']!r}")
    return ep


@dataclass
class LoopResult:
    episodes: list
    span: tuple  # (start, end) recorder.host.wall() of the whole loop
    recorder: Recorder


def run_closed_loop(scenarios, make_planner, recorder: Recorder, tracer=None) -> LoopResult:
    """Cycle through the lap of (name, scenario) until the tick budget is spent."""
    episodes = []
    t0 = recorder.host.wall()
    lap = 0
    while recorder.ticks < recorder.budget:
        before = recorder.ticks
        for name, scenario in scenarios:
            ep = run_episode_guarded(
                name, scenario, make_planner(scenario), recorder, lap, tracer
            )
            episodes.append(ep)
            if ep.cut:
                return LoopResult(episodes, (t0, recorder.host.wall()), recorder)
        if recorder.ticks == before:
            break  # a lap that plans no tick would never spend the budget
        lap += 1
    return LoopResult(episodes, (t0, recorder.host.wall()), recorder)


def outcome_rows(episodes) -> list:
    """The outcome row of each scenario's first finished episode, in lap order."""
    rows, seen = [], set()
    for ep in episodes:
        if ep.row is not None and ep.scenario not in seen:
            seen.add(ep.scenario)
            rows.append(ep.row)
    return rows


def repeat_mismatches(episodes) -> list:
    """Scenarios whose repeated episodes did not replay the first one exactly.

    A finished repeat must give the same outcome row; a repeat stopped by the
    budget must follow the same ego states for as far as it got.
    """
    first = {}
    bad = []
    for ep in episodes:
        ref = first.setdefault(ep.scenario, ep)
        if ref is ep:
            continue
        n = len(ep.ego_trace)
        same_path = ep.ego_trace == ref.ego_trace[:n] if ep.cut else ep.ego_trace == ref.ego_trace
        if not same_path or (ep.row is not None and ep.row != ref.row):
            bad.append(f"{ep.scenario} (lap {ep.lap})")
    return bad


def outcome_digest(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome_summary(episodes) -> dict:
    """Outcome metrics over each scenario's first finished episode."""
    rows = outcome_rows(episodes)
    # The episode the budget stopped counts as attempted once it has planned.
    attempted = [ep for ep in episodes if ep.ego_trace or not ep.cut]
    failed = [ep for ep in attempted if ep.failed]
    ok_rows = [r for r in rows if r["outcome"] != "error"]
    n = max(len(rows), 1)
    return {
        "episodes": len(rows),
        "attempted": len(attempted),
        "failed": len(failed),
        "goal_rate": sum(r["outcome"] == "goal_reached" for r in rows) / n,
        "collision_rate": sum(r["outcome"] == "collision" for r in rows) / n,
        "route_completion_mean": (
            float(np.mean([r["route_completion"] for r in ok_rows])) if ok_rows else 0.0
        ),
        "error_rate": len(failed) / max(len(attempted), 1),
        "outcome_digest": outcome_digest(rows),
        "rows": rows,
        "output_check_failures": [p for ep in episodes for p in ep.problems],
        "repeat_mismatches": repeat_mismatches(episodes),
    }
