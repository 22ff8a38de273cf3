"""Cue-constrained resolution of zeros against local candidate lists."""

from __future__ import annotations

from typing import AbstractSet, Mapping, Optional, Sequence

from ._record import record
from .model import (
    CbHistory,
    DiscourseEntity,
    ReferringExpression,
    Utterance,
)

CUE_LEXICAL = "LEXICAL"
CUE_TENSE = "TENSE"
CUE_AGREEMENT = "AGREEMENT"


def check_compatibility(
    zero: ReferringExpression, members: Sequence[DiscourseEntity]
) -> Optional[str]:
    """Check a candidate antecedent, given as its member entities (`[entity]`
    for a single one), against a zero's cue annotations.

    Returns None when the candidate fits, or else the cue that rules it out:
    CUE_AGREEMENT when the total cardinality differs from an annotated
    required_cardinality; failing that, CUE_LEXICAL when a member's semantic
    types miss the slot's selectional restriction (an empty restriction is
    unconstrained). Every caller passes at least one member.
    """
    constraints = zero.constraints
    if constraints is None:
        return None
    required = constraints.required_cardinality
    if required is not None and sum(m.cardinality for m in members) != required:
        return CUE_AGREEMENT
    wanted = constraints.compatible_types
    if wanted and not all(m.semantic_types & wanted for m in members):
        return CUE_LEXICAL
    return None


@record
class LocalResolution:
    """Outcome of a local resolution attempt.

    `exhausted` is true when there were candidates but every one was vetoed
    by the cue annotations; the reading is then semantically anomalous unless
    global retrieval later rescues it.
    """

    entity_id: Optional[str]
    exhausted: bool


def local_resolution(
    zero: ReferringExpression,
    cf_prev: Sequence[str],
    u: Utterance,
    entities: Mapping[str, DiscourseEntity],
    exclude: AbstractSet[str] = frozenset(),
) -> LocalResolution:
    """Resolve a zero to the highest-ranked compatible member of the
    predecessor Cf; `entity_id` is None when none qualifies (the caller then
    goes global).

    Entities overtly realized in `u`, and any in `exclude` (antecedents
    already claimed by other zeros of the same utterance), are not
    candidates.
    """
    overt = u.overt_entities
    constrained = zero.constraints is not None
    had_candidate = False
    for entity_id in cf_prev:
        if entity_id in exclude or entity_id in overt:
            continue
        entity = entities.get(entity_id)
        if entity is None:
            continue
        # a zero without constraints fits its first candidate
        if not constrained or check_compatibility(zero, [entity]) is None:
            return LocalResolution(entity_id, False)
        had_candidate = True
    return LocalResolution(None, had_candidate)


def form_set_candidates(
    history: CbHistory,
    cf_prev: Sequence[str],
    required_cardinality: int,
    entities: Mapping[str, DiscourseEntity],
    current_index: int,
) -> list[tuple[str, ...]]:
    """Enumerate candidate antecedent sets for a plural-constrained zero, one
    whose `required_cardinality` is 2 or more.

    Sets are drawn from former Cbs, restricted to entities sharing at least
    one semantic type, with member cardinalities summing to the requirement.
    Membership in `cf_prev` refreshes an entity's recency to the predecessor
    utterance. Result is ordered by recency of the least-recent member (most
    recent first); each set is a tuple in recency order. The search relies
    on positive cardinalities, which `validate_discourse` requires, to cut
    the branches that cannot reach the requirement, so that it costs about
    what its listing costs.
    """
    cf_members = set(cf_prev)
    recency: dict[str, int] = {}
    for entry in history:
        rec = entry.index
        if entry.entity_id in cf_members:
            rec = max(rec, current_index - 1)
        recency[entry.entity_id] = rec

    pool = sorted(recency, key=lambda eid: (-recency[eid], eid))
    mapped = [(eid, e) for eid in pool if (e := entities.get(eid)) is not None]
    found: list[tuple[str, ...]] = []
    # Depth first, in pool order: each branch is the index of the next
    # member to try, the members chosen, their cardinality, and the types
    # they all share (every type before the first). A branch whose members
    # to come can no longer reach the requirement, or that overshoots it,
    # is cut.
    branches = [(0, (), 0, frozenset().union(*(e.semantic_types for _, e in mapped)))]
    while branches:
        start, chosen, total, shared = branches.pop()
        fit = [
            (i, eid, e)
            for i, (eid, e) in enumerate(mapped[start:], start)
            if shared & e.semantic_types
        ]
        rest = sum(e.cardinality for _, _, e in fit)
        for i, eid, e in fit:
            if total + rest < required_cardinality:
                break
            rest -= e.cardinality
            size = total + e.cardinality
            if size == required_cardinality and chosen:
                found.append((*chosen, eid))
            elif size < required_cardinality:
                branches.append((i + 1, (*chosen, eid), size, shared & e.semantic_types))
    found.sort(key=lambda members: (-min(recency[m] for m in members), members))
    return found
