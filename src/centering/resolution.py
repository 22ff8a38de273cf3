"""Cue-constrained resolution of zeros against local candidate lists."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

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
    CUE_AGREEMENT when there is no member or the total cardinality differs
    from an annotated required_cardinality; failing that, CUE_LEXICAL when a
    member's semantic types miss the slot's selectional restriction (an
    empty restriction is unconstrained).
    """
    required = zero.required_cardinality
    if not members or (
        required is not None and sum(m.cardinality for m in members) != required
    ):
        return CUE_AGREEMENT
    wanted = zero.compatible_types
    if wanted and not all(m.semantic_types & wanted for m in members):
        return CUE_LEXICAL
    return None


@dataclass(frozen=True)
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
    exclude: frozenset[str] = frozenset(),
) -> LocalResolution:
    """Resolve a zero to the highest-ranked compatible member of the
    predecessor Cf; `entity_id` is None when none qualifies (the caller then
    goes global).

    Entities overtly realized in `u`, and any in `exclude` (antecedents
    already claimed by other zeros of the same utterance), are not
    candidates.
    """
    blocked = exclude | u.overt_entities
    had_candidate = False
    for entity_id in cf_prev:
        if entity_id in blocked:
            continue
        entity = entities.get(entity_id)
        if entity is None:
            continue
        had_candidate = True
        if check_compatibility(zero, [entity]) is None:
            return LocalResolution(entity_id, exhausted=False)
    return LocalResolution(None, exhausted=had_candidate)


def form_set_candidates(
    history: CbHistory,
    cf_prev: Sequence[str],
    required_cardinality: int,
    entities: Mapping[str, DiscourseEntity],
    current_index: int,
) -> list[tuple[str, ...]]:
    """Enumerate candidate antecedent sets for a plural-constrained zero.

    Sets are drawn from former Cbs, restricted to entities sharing at least
    one semantic type, with member cardinalities summing to the requirement.
    Membership in `cf_prev` refreshes an entity's recency to the predecessor
    utterance. Result is ordered by recency of the least-recent member (most
    recent first); each set is a tuple in recency order.
    """
    if required_cardinality < 2:
        raise ValueError("set-valued antecedents need required_cardinality >= 2")

    cf_members = set(cf_prev)
    recency: dict[str, int] = {}
    for entry in history:
        rec = entry.index
        if entry.entity_id in cf_members:
            rec = max(rec, current_index - 1)
        recency[entry.entity_id] = rec

    pool = sorted(recency, key=lambda eid: (-recency[eid], eid))
    found = list(_subsets(pool, entities, required_cardinality, 0, [], 0))
    found.sort(key=lambda members: (-min(recency[m] for m in members), members))
    return found


def _subsets(
    pool: Sequence[str],
    entities: Mapping[str, DiscourseEntity],
    required: int,
    start: int,
    chosen: list[str],
    total: int,
) -> Iterator[tuple[str, ...]]:
    """The sets of two or more type-sharing members of `pool[start:]` that
    extend `chosen` (of cardinality `total`) to `required`, depth first in
    pool order. A module function, not a closure: a recursive closure is a
    reference cycle that only the garbage collector frees."""
    if total == required and len(chosen) >= 2:
        yield tuple(chosen)
    if total >= required:
        return
    for i in range(start, len(pool)):
        eid = pool[i]
        entity = entities.get(eid)
        if entity is None:
            continue
        if chosen:
            shared = entities[chosen[0]].semantic_types
            for cid in chosen[1:]:
                shared = shared & entities[cid].semantic_types
            if not (shared & entity.semantic_types):
                continue
        yield from _subsets(
            pool, entities, required, i + 1, chosen + [eid], total + entity.cardinality
        )
