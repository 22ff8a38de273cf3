"""Seeded random discourses for property tests and scaling runs.

Every discourse it returns is well-formed (``validate_discourse`` finds no
violation): declared entities, consecutive utterance indices, strictly
increasing positions, at most one wa-marked topic per utterance.
"""

from __future__ import annotations

import random
from typing import Optional

from centering.model import (
    Discourse,
    DiscourseEntity,
    Form,
    GrammaticalRole,
    ReferringExpression,
    ResolutionConstraints,
    Tense,
    Utterance,
)

TYPE_POOL = ("organization", "person", "device", "abstract")

_ROLES = (
    GrammaticalRole.TOPIC,
    GrammaticalRole.SUBJECT,
    GrammaticalRole.OBJECT2,
    GrammaticalRole.OBJECT,
    GrammaticalRole.OTHERS,
)


def random_discourse(
    rng: random.Random,
    ident: str,
    n_utts: Optional[int] = None,
    n_entities: Optional[int] = None,
    zero_rate: float = 0.35,
) -> Discourse:
    """A random discourse drawn from `rng`.

    `n_entities` defaults to a draw from 3-6 and `n_utts` to a draw from 3-8.
    Each utterance holds one to three expressions; after the first utterance
    each is a zero with probability `zero_rate`, typed 60% of the time.
    """
    if n_entities is None:
        n_entities = rng.randint(3, 6)
    entities = []
    for i in range(n_entities):
        types = frozenset(rng.sample(TYPE_POOL, rng.randint(1, 2)))
        entities.append(DiscourseEntity(f"e{i}", types, 1))
    ids = [e.id for e in entities]

    if n_utts is None:
        n_utts = rng.randint(3, 8)
    utterances = []
    for idx in range(n_utts):
        exprs = []
        pos = 0
        roles = rng.sample(_ROLES, rng.randint(1, 3))
        used = set()
        for role in sorted(roles, key=lambda r: r.rank):
            if idx > 0 and rng.random() < zero_rate:
                types = (
                    frozenset(rng.sample(TYPE_POOL, rng.randint(1, 2)))
                    if rng.random() < 0.6
                    else frozenset()
                )
                exprs.append(
                    ReferringExpression(
                        entity_ref=None,
                        form=Form.ZERO,
                        role=role,
                        surface_position=pos,
                        wa_marked=role is GrammaticalRole.TOPIC,
                        constraints=ResolutionConstraints(compatible_types=types),
                    )
                )
            else:
                choices = [i for i in ids if i not in used]
                if not choices:
                    continue
                eid = rng.choice(choices)
                used.add(eid)
                exprs.append(
                    ReferringExpression(
                        entity_ref=eid,
                        form=Form.OVERT_NP,
                        role=role,
                        surface_position=pos,
                        wa_marked=role is GrammaticalRole.TOPIC,
                    )
                )
            pos += 1
        utterances.append(
            Utterance(
                index=idx,
                expressions=tuple(exprs),
                tense=rng.choice([Tense.PAST, Tense.NONPAST]),
            )
        )
    return Discourse(id=ident, entities=tuple(entities), utterances=tuple(utterances))
