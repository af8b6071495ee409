"""Hybrid integration: inject the learned plan (plus lateral offset variants)
into the rule-based proposal set and let the rules scorer pick the winner.
"""

from __future__ import annotations

import numpy as np

from .errors import HorizonMismatchError
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
    """Append the learned plan and its offset variants to the proposal set.

    The result has |input| + 1 + |offsets| entries. Raises
    HorizonMismatchError when the learned trajectory's sampling differs.
    """
    if abs(learned.dt - proposals.dt) > 1e-12 or learned.horizon_steps != proposals.horizon_steps:
        raise HorizonMismatchError(
            f"learned plan has dt={learned.dt}, steps={learned.horizon_steps}; "
            f"set expects dt={proposals.dt}, steps={proposals.horizon_steps}"
        )
    out = ProposalSet(
        proposals=list(proposals.proposals), dt=proposals.dt, horizon_steps=proposals.horizon_steps
    )
    out.add(learned.retag("learned"))
    for off in offsets:
        out.add(_shift_lateral(learned, off))
    return out


def hybrid_select(
    proposals: ProposalSet,
    learned: Trajectory | None,
    ctx: ScoreContext,
    offsets=DEFAULT_LEARNED_OFFSETS,
):
    """Rules-scored selection over the injected union.

    With no learned plan this reduces exactly to rule-based selection.
    Returns (winning trajectory, breakdowns, scored proposal set).
    """
    if learned is not None:
        proposals = inject_learned(proposals, learned, offsets)
    winner, breakdowns = select_best(proposals, ctx)
    return winner, breakdowns, proposals
