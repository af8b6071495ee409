"""Batch evaluation, metric aggregation, latency harness, and report emission.

Reports are pure functions of the episode logs; two runs with identical flags
produce byte-identical report and log files (latency sections are included
only when latency measurement is requested, since wall-clock times vary).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import IoError
from .geometry import project_points_to_polyline
from .planner import Planner, PlannerConfig
from .simulator import EpisodeLog, SimConfig, run_episode

TOGGLE_PRESETS = {
    "full": {},
    "no_replan": {"replan": False},
    "no_adjacents": {"enable_adjacents": False},
    "no_opposing": {"enable_opposing": False},
    "no_vocab": {"enable_vocabulary": False},
    "no_relax": {"enable_relaxation": False},
    "no_goal": {"_zero_goal": True},
    "no_relax_no_goal": {"enable_relaxation": False, "_zero_goal": True},
}


def apply_toggles(cfg: PlannerConfig, toggles: str) -> PlannerConfig:
    if toggles not in TOGGLE_PRESETS:
        raise ValueError(f"unknown toggle preset {toggles!r} (known: {sorted(TOGGLE_PRESETS)})")
    overrides = dict(TOGGLE_PRESETS[toggles])
    zero_goal = overrides.pop("_zero_goal", False)
    out = replace(cfg, **overrides) if overrides else cfg
    if zero_goal:
        out = out.without_goal()
    return out


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)
    latency: dict = field(default_factory=dict)
    config_echo: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"rows": self.rows, "latency": self.latency, "config": self.config_echo}


def route_completion(log: EpisodeLog) -> float:
    """Fraction of the goal's route arclength reached by the episode end."""
    if "goal_reached" in log.event_names:
        return 1.0
    if not log.records:
        return 0.0
    route, _, _ = log.scenario.chain(log.scenario.route)
    goal, start = log.scenario.goal, log.scenario.ego.pose
    x, y = log.records[-1]["ego"][0], log.records[-1]["ego"][1]
    (s_goal, s_start, s_end), _, _, _ = project_points_to_polyline(
        np.array([[goal.x, goal.y], [start.x, start.y], [x, y]]), route
    )
    if s_goal <= 0:
        return 1.0
    return float(min(1.0, max(0.0, (s_end - s_start) / max(s_goal - s_start, 1e-9))))


def episode_outcome(log: EpisodeLog) -> str:
    names = log.event_names
    for name in ("collision", "off_map_error", "goal_reached"):
        if name in names:
            return name
    if "deadlock" in names:
        return "deadlock"
    return "timeout"


def summarize_episode(log: EpisodeLog) -> dict:
    tags = {}
    agg = []
    for rec in log.records:
        tags[rec["tag"]] = tags.get(rec["tag"], 0) + 1
        if rec.get("breakdown"):
            agg.append(rec["breakdown"]["aggregate"])
    return {
        "outcome": episode_outcome(log),
        "route_completion": round(route_completion(log), 6),
        "ticks": len(log.records),
        "events": [[t, n] for t, n in log.events],
        "tag_histogram": dict(sorted(tags.items())),
        "mean_winner_aggregate": round(float(np.mean(agg)), 6) if agg else None,
    }


def run_suite(
    scenario_items,
    planner_kinds,
    toggles=("full",),
    sim_cfg: SimConfig = SimConfig(),
    planner_cfg: PlannerConfig = PlannerConfig(),
    vocabulary=None,
    model=None,
    keep_logs: bool = False,
) -> BenchReport:
    """Cross product of scenarios x planners x toggle presets, bit-deterministic.

    scenario_items: iterable of (name, Scenario). Rows are sorted canonically
    by (scenario, planner, toggles).
    """
    report = BenchReport(
        config_echo={
            "planners": list(planner_kinds),
            "toggles": list(toggles),
            "scenarios": [name for name, _ in scenario_items],
            "sim": {"dt": sim_cfg.dt, "horizon": sim_cfg.horizon, "agent_policy": sim_cfg.agent_policy},
        }
    )
    logs = {}
    for name, scenario in scenario_items:
        for kind in planner_kinds:
            for toggle in toggles:
                cfg = apply_toggles(planner_cfg, toggle)
                planner = Planner(
                    scenario,
                    kind=kind,
                    config=cfg,
                    vocabulary=vocabulary if cfg.enable_vocabulary else None,
                    model=model,
                )
                log = run_episode(scenario, planner, sim_cfg)
                row = {
                    "scenario": name,
                    "planner": kind,
                    "toggles": toggle,
                    **summarize_episode(log),
                }
                report.rows.append(row)
                if keep_logs:
                    logs[(name, kind, toggle)] = log
    report.rows.sort(key=lambda r: (r["scenario"], r["planner"], r["toggles"]))
    if keep_logs:
        report.logs = logs
    return report


def measure_latency(fn, n_calls: int = 1000, warmup: int = 50) -> dict:
    """Warm-start latency stats for a zero-argument callable (monotonic clock)."""
    for _ in range(warmup):
        fn()
    times = np.empty(n_calls)
    for i in range(n_calls):
        t0 = time.perf_counter()
        fn()
        times[i] = time.perf_counter() - t0
    return {
        "n": n_calls,
        "mean_s": float(times.mean()),
        "p50_s": float(np.percentile(times, 50)),
        "p95_s": float(np.percentile(times, 95)),
    }


def measure_planner_latency(planner_factory, scenario, n_calls: int = 1000, warmup: int = 50) -> dict:
    """End-to-end per-call planning latency on a fixed scene fixture.

    Scenario loading is excluded; the measured call covers topology, proposals
    and scoring (rules planners) or feature extraction plus the staged head
    (learned planner).
    """
    planner = planner_factory()
    ego = scenario.ego
    agents = list(scenario.agents)

    def call():
        planner.plan(ego, agents, t=0.0)

    return measure_latency(call, n_calls=n_calls, warmup=warmup)


# --------------------------------------------------------------------------
# Report emission

REPORT_FORMATS = ("text_table", "structured", "svg_summary")


def emit_report(report: BenchReport, fmt: str, path) -> None:
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "structured":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    elif fmt == "text_table":
        text = _text_table(report)
    else:
        text = _svg_summary(report)
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise IoError(f"cannot write report {path}: {e}") from e


def _text_table(report: BenchReport) -> str:
    headers = ["scenario", "planner", "toggles", "outcome", "completion", "ticks"]
    rows = [
        [
            r["scenario"],
            r["planner"],
            r["toggles"],
            r["outcome"],
            f"{r['route_completion']:.3f}",
            str(r["ticks"]),
        ]
        for r in report.rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if report.latency:
        lines.append("")
        lines.append("latency (ms): mean / p50 / p95 over n calls")
        for key in sorted(report.latency):
            st = report.latency[key]
            lines.append(
                f"  {key}: {st['mean_s'] * 1e3:.3f} / {st['p50_s'] * 1e3:.3f} / "
                f"{st['p95_s'] * 1e3:.3f}  (n={st['n']})"
            )
    return "\n".join(lines) + "\n"


def _svg_summary(report: BenchReport) -> str:
    # One bar per planner kind: mean route completion across rows.
    by_planner = {}
    for r in report.rows:
        by_planner.setdefault(r["planner"], []).append(r["route_completion"])
    planners = sorted(by_planner)
    bar_w, gap, h = 80, 30, 220
    width = gap + len(planners) * (bar_w + gap)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{h + 60}" '
        f'viewBox="0 0 {width} {h + 60}">',
        f'<rect width="{width}" height="{h + 60}" fill="white"/>',
    ]
    for i, kind in enumerate(planners):
        mean = float(np.mean(by_planner[kind]))
        x = gap + i * (bar_w + gap)
        bh = int(mean * h)
        parts.append(
            f'<rect class="planner-bar" x="{x}" y="{20 + h - bh}" width="{bar_w}" '
            f'height="{bh}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2}" y="{h + 40}" text-anchor="middle" '
            f'font-size="13">{kind}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2}" y="{12 + h - bh}" text-anchor="middle" '
            f'font-size="12">{mean:.2f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
