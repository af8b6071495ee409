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


def inject_learned(
    proposals: ProposalSet, learned: Trajectory, offsets=DEFAULT_LEARNED_OFFSETS, vocabulary_rows=None
) -> ProposalSet:
    """A new proposal set: the input's rows, then the vocabulary rows when
    given, then the learned plan and its offset variants, in one append.

    vocabulary_rows are (positions, headings, speeds) as instantiate_prototype
    returns them. An offset variant displaces the learned waypoints along
    their own left-normals, ramping in to its offset: sample 0 stays at the
    ego, and each step adds at most the lateral rate cap of the IDM offset
    rows, min(LATERAL_RATE, LATERAL_SPEED_RATIO * v) * dt at the step's
    starting speed v, until the shift reaches |offset|. All variants are built
    in one pass. The result has |input| + |vocabulary| + 1 + |offsets| rows
    and the input is left as it was. Raises HorizonMismatchError when the
    learned trajectory's sampling differs.
    """
    k = 0 if vocabulary_rows is None else len(vocabulary_rows[0])
    n = k + 1 + len(offsets)
    positions = np.empty((n,) + learned.positions.shape)
    headings = np.empty((n, len(learned.headings)))
    speeds = np.empty(headings.shape)
    if k:
        positions[:k], headings[:k], speeds[:k] = vocabulary_rows
    positions[k:] = learned.positions
    headings[k:] = learned.headings
    speeds[k:] = learned.speeds
    if len(offsets):
        rate = np.minimum(LATERAL_RATE, LATERAL_SPEED_RATIO * learned.speeds[:-1]) * learned.dt
        ramp = np.zeros(len(learned.speeds))
        rate.cumsum(out=ramp[1:])
        off = np.array(offsets, dtype=float)[:, None]
        shift = np.copysign(np.minimum(ramp, np.abs(off)), off)  # (offsets, S+1)
        positions[k + 1 :, :, 0] += shift * -np.sin(learned.headings)
        positions[k + 1 :, :, 1] += shift * np.cos(learned.headings)
    out = replace(proposals)  # shares the input's arrays; append rebinds them
    out.append(
        learned.dt, positions, headings, speeds,
        ("vocabulary",) * k + ("learned",) + ("learned_offset",) * len(offsets),
    )
    return out


def hybrid_select(
    proposals: ProposalSet,
    learned: Trajectory | None,
    ctx: ScoreContext,
    offsets=DEFAULT_LEARNED_OFFSETS,
    vocabulary_rows=None,
):
    """Rules-scored selection over the injected union.

    vocabulary_rows go in with the learned rows (inject_learned), so they need
    a learned plan. With neither, this reduces exactly to rule-based selection.
    Returns (winning trajectory, Scores, scored proposal set, winner's row).
    """
    if learned is not None:
        proposals = inject_learned(proposals, learned, offsets, vocabulary_rows)
    elif vocabulary_rows is not None:
        raise ValueError("vocabulary rows are appended with a learned plan")
    winner, scores, best = select_best(proposals, ctx)
    return winner, scores, proposals, best
