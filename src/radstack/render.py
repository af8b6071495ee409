"""SVG overhead views of episode logs: drivable area, lanes, agent footprints,
and the ego trace colored by the winning proposal's tag per tick.
"""

from __future__ import annotations

from .errors import write_text
from .scene import agent_footprint
from .simulator import EpisodeLog, record_agents, record_ego

TAG_COLORS = {
    "idm": "#1f77b4",
    "vocabulary": "#9467bd",
    "learned": "#2ca02c",
    "learned_offset": "#98df8a",
    "replay": "#7f7f7f",
}

_MARGIN = 8.0  # m around the content bounding box
_SCALE = 6.0  # px per metre


def _poly_points(poly, tf) -> str:
    return " ".join(f"{tf(x, y)[0]:.1f},{tf(x, y)[1]:.1f}" for x, y in poly)


def render_episode_svg(log: EpisodeLog, path) -> None:
    write_text(path, episode_svg(log), "SVG")


def episode_svg(log: EpisodeLog) -> str:
    scenario = log.scenario
    xs, ys = [], []
    for poly in scenario.drivable_area:
        xs.extend(poly[:, 0])
        ys.extend(poly[:, 1])
    for rec in log.records:
        xs.append(rec["ego"][0])
        ys.append(rec["ego"][1])
    x0, x1 = min(xs) - _MARGIN, max(xs) + _MARGIN
    y0, y1 = min(ys) - _MARGIN, max(ys) + _MARGIN
    w = (x1 - x0) * _SCALE
    h = (y1 - y0) * _SCALE

    def tf(x, y):
        return (x - x0) * _SCALE, (y1 - y) * _SCALE  # flip y for screen coords

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.1f} {h:.1f}">',
        f'<rect width="{w:.1f}" height="{h:.1f}" fill="#f4f2ee"/>',
    ]
    for poly in scenario.drivable_area:
        parts.append(f'<polygon points="{_poly_points(poly, tf)}" fill="#d8d8d8" stroke="#aaa"/>')
    for poly in scenario.crosswalks:
        parts.append(
            f'<polygon points="{_poly_points(poly, tf)}" fill="none" stroke="#888" '
            f'stroke-dasharray="4 3"/>'
        )
    for lane in scenario.lanes:
        pts = " ".join(f"{tf(p.x, p.y)[0]:.1f},{tf(p.x, p.y)[1]:.1f}" for p in lane.centerline)
        dash = "10 6" if lane.direction == "route_aligned" else "3 5"
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#b0a890" stroke-dasharray="{dash}"/>'
        )

    # Agent footprints every second plus the final tick.
    stride = max(1, int(round(1.0 / log.dt)))
    picks = list(range(0, len(log.records), stride))
    if log.records and (len(log.records) - 1) not in picks:
        picks.append(len(log.records) - 1)
    for i in picks:
        fade = 0.15 + 0.55 * (i / max(1, len(log.records) - 1))
        for a in record_agents(log.records[i]):
            color = "#8c2d2d" if a.kind == "static" else "#b4762d"
            parts.append(
                f'<polygon points="{_poly_points(agent_footprint(a), tf)}" fill="{color}" '
                f'fill-opacity="{fade:.2f}" stroke="none"/>'
            )

    # Ego trace, per-tag coloring.
    prev = None
    for rec in log.records:
        x, y = rec["ego"][0], rec["ego"][1]
        if prev is not None:
            color = TAG_COLORS.get(rec["tag"], "#333")
            (px, py), (qx, qy) = tf(*prev), tf(x, y)
            parts.append(
                f'<line x1="{px:.1f}" y1="{py:.1f}" x2="{qx:.1f}" y2="{qy:.1f}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        prev = (x, y)
    for i in picks:
        ego = record_ego(log.records[i], scenario.ego)
        parts.append(
            f'<polygon points="{_poly_points(agent_footprint(ego), tf)}" fill="none" stroke="#1a4a78" '
            f'stroke-width="1"/>'
        )

    gx, gy = tf(scenario.goal.x, scenario.goal.y)
    parts.append(f'<circle cx="{gx:.1f}" cy="{gy:.1f}" r="8" fill="none" stroke="#2a7d2a" stroke-width="2"/>')
    parts.append(f'<circle cx="{gx:.1f}" cy="{gy:.1f}" r="2" fill="#2a7d2a"/>')

    # Legend of tags actually used.
    used = sorted({rec["tag"] for rec in log.records})
    for j, tag in enumerate(used):
        yy = 16 + 16 * j
        parts.append(f'<rect x="10" y="{yy - 9}" width="12" height="12" fill="{TAG_COLORS.get(tag, "#333")}"/>')
        parts.append(f'<text x="28" y="{yy}" font-size="12">{tag}</text>')
    ev = ", ".join(f"{name}@{tick}" for tick, name in log.events) or "no events"
    parts.append(f'<text x="10" y="{h - 8:.1f}" font-size="12">{log.planner_kind}: {ev}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
