"""Batch evaluation, metric aggregation and report emission.

Reports are pure functions of the episode logs and hold no wall-clock data,
so two runs with identical flags produce byte-identical report and log files.
Planner timing is measured by perfbench, not here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import write_text
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
    config_echo: dict = field(default_factory=dict)
    logs: dict = field(default_factory=dict)  # (scenario, planner, toggles) -> EpisodeLog; not reported

    def to_dict(self) -> dict:
        return {"rows": self.rows, "config": self.config_echo}


def route_completion(log: EpisodeLog) -> float:
    """Fraction of the goal's route arclength reached by the episode end."""
    if "goal_reached" in log.event_names:
        return 1.0
    if not log.records:
        return 0.0
    route, _, _ = log.scenario.chain(log.scenario.route)
    goal, start = log.scenario.goal, log.scenario.ego.pose
    x, y = log.records[-1]["ego"][0], log.records[-1]["ego"][1]
    s_goal, s_start, s_end = project_points_to_polyline(np.array([[goal.x, goal.y], [start.x, start.y], [x, y]]), route)[0]
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
            # The planned horizon, under its old key so reports stay comparable.
            "sim": {"dt": sim_cfg.dt, "horizon": planner_cfg.proposal.horizon, "agent_policy": sim_cfg.agent_policy},
        }
    )
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
                    report.logs[(name, kind, toggle)] = log
    report.rows.sort(key=lambda r: (r["scenario"], r["planner"], r["toggles"]))
    return report


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
    write_text(path, text, "report")


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
