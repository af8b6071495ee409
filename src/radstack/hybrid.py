"""Hybrid integration: inject the learned plan (plus lateral offset variants)
into the rule-based proposal set and let the rules scorer pick the winner.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .proposals import ProposalSet
from .scene import Trajectory
from .scoring import ScoreContext, select_best

DEFAULT_LEARNED_OFFSETS = (-0.5, 0.5)


def _shift_lateral(traj: Trajectory, offset: float) -> Trajectory:
    """Displace every waypoint along its own left-normal by `offset` metres."""
    normal = np.stack([-np.sin(traj.headings), np.cos(traj.headings)], axis=1)
    positions = traj.positions + offset * normal
    return Trajectory(traj.dt, positions, traj.headings, traj.speeds, "learned_offset")


def inject_learned(proposals: ProposalSet, learned: Trajectory, offsets=DEFAULT_LEARNED_OFFSETS) -> ProposalSet:
    """A copy of the proposal set with the learned plan and its offset variants appended.

    The result has |input| + 1 + |offsets| rows. Raises HorizonMismatchError
    when the learned trajectory's sampling differs.
    """
    out = replace(proposals)
    out.add(learned.retag("learned"), *(_shift_lateral(learned, off) for off in offsets))
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
