"""Hybrid integration: inject the learned plan (plus lateral offset variants)
into the rule-based proposal set and let the rules scorer pick the winner.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .proposals import LATERAL_RATE, LATERAL_SPEED_RATIO, ProposalSet
from .scene import Trajectory
from .scoring import ScoreContext, select_best

DEFAULT_LEARNED_OFFSETS = (-0.5, 0.5)


def _shift_lateral(traj: Trajectory, offset: float) -> Trajectory:
    """Displace the waypoints along their own left-normals, ramping in to `offset` metres.

    Sample 0 stays at the ego; each step adds at most the lateral rate cap
    of the IDM offset rows, min(LATERAL_RATE, LATERAL_SPEED_RATIO * v) * dt
    at the step's starting speed v, until the shift reaches |offset|.
    """
    rate = np.minimum(LATERAL_RATE, LATERAL_SPEED_RATIO * traj.speeds[:-1]) * traj.dt
    shift = np.copysign(np.minimum(np.concatenate([[0.0], np.cumsum(rate)]), abs(offset)), offset)
    normal = np.stack([-np.sin(traj.headings), np.cos(traj.headings)], axis=1)
    positions = traj.positions + shift[:, None] * normal
    return Trajectory(traj.dt, positions, traj.headings, traj.speeds, "learned_offset")


def inject_learned(proposals: ProposalSet, learned: Trajectory, offsets=DEFAULT_LEARNED_OFFSETS) -> ProposalSet:
    """A new proposal set: the input's rows, then the learned plan and its offset variants.

    The result has |input| + 1 + |offsets| rows and the input is left as it
    was. Raises HorizonMismatchError when the learned trajectory's sampling
    differs.
    """
    rows = [learned, *(_shift_lateral(learned, off) for off in offsets)]
    out = replace(proposals)  # shares the input's arrays; append rebinds them
    out.append(
        learned.dt,
        np.stack([t.positions for t in rows]),
        np.stack([t.headings for t in rows]),
        np.stack([t.speeds for t in rows]),
        ["learned"] + ["learned_offset"] * len(offsets),
    )
    return out


def hybrid_select(
    proposals: ProposalSet,
    learned: Trajectory | None,
    ctx: ScoreContext,
    offsets=DEFAULT_LEARNED_OFFSETS,
):
    """Rules-scored selection over the injected union.

    With no learned plan this reduces exactly to rule-based selection.
    Returns (winning trajectory, Scores, scored proposal set, winner's row).
    """
    if learned is not None:
        proposals = inject_learned(proposals, learned, offsets)
    winner, scores, best = select_best(proposals, ctx)
    return winner, scores, proposals, best
