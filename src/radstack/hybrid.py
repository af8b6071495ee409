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


def inject_learned(proposals: ProposalSet, learned: Trajectory, offsets=DEFAULT_LEARNED_OFFSETS) -> ProposalSet:
    """A new proposal set: the input's rows, then the learned plan and its
    offset variants, in one append.

    An offset variant displaces the learned waypoints along their own
    left-normals, ramping in to its offset: sample 0 stays at the ego, and
    each step adds at most the lateral rate cap of the IDM offset rows,
    min(LATERAL_RATE, LATERAL_SPEED_RATIO * v) * dt at the step's starting
    speed v, until the shift reaches |offset|. All variants are built in one
    pass. The result has |input| + 1 + |offsets| rows and the input is left
    as it was. Raises HorizonMismatchError when the learned trajectory's
    sampling differs.
    """
    n = 1 + len(offsets)
    positions = learned.positions[None].repeat(n, axis=0)
    headings = learned.headings[None].repeat(n, axis=0)
    speeds = learned.speeds[None].repeat(n, axis=0)
    if len(offsets):
        rate = np.minimum(LATERAL_RATE, LATERAL_SPEED_RATIO * learned.speeds[:-1]) * learned.dt
        ramp = np.zeros(len(learned.speeds))
        rate.cumsum(out=ramp[1:])
        off = np.array(offsets, dtype=float)[:, None]
        shift = np.copysign(np.minimum(ramp, np.abs(off)), off)  # (offsets, S+1)
        positions[1:, :, 0] += shift * -np.sin(learned.headings)
        positions[1:, :, 1] += shift * np.cos(learned.headings)
    out = replace(proposals)  # shares the input's arrays; append rebinds them
    out.append(learned.dt, positions, headings, speeds, ("learned",) + ("learned_offset",) * len(offsets))
    return out


def hybrid_select(
    proposals: ProposalSet,
    learned: Trajectory | None,
    ctx: ScoreContext,
    offsets=DEFAULT_LEARNED_OFFSETS,
):
    """Rules-scored selection over the injected union; without a learned
    plan this is exactly rule-based selection.

    Returns (winning trajectory, Scores, scored proposal set, winner's row).
    """
    if learned is not None:
        proposals = inject_learned(proposals, learned, offsets)
    winner, scores, best = select_best(proposals, ctx)
    return winner, scores, proposals, best
