"""Seeded random discourses for property tests, and the canonical corpus
writer that renders discourses as a corpus document.

Every discourse `random_discourse` returns is well-formed
(``validate_discourse`` finds no violation): declared entities, consecutive
utterance indices, strictly increasing positions, at most one wa-marked
topic per utterance.
"""

from __future__ import annotations

import json
import random
from typing import Any, Iterable, Optional

from centering.model import (
    Discourse,
    DiscourseEntity,
    Form,
    GrammaticalRole,
    ReferringExpression,
    ResolutionConstraints,
    Tense,
    Utterance,
    encode_resolution,
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


def serialize_corpus(discourses: Iterable[Discourse]) -> str:
    """Canonical JSON rendering; parse(serialize(parse(x))) == parse(x)."""
    out = {"discourses": [_dump_discourse(d) for d in discourses]}
    return json.dumps(out, indent=2, sort_keys=False) + "\n"


def _dump_discourse(d: Discourse) -> dict:
    return {
        "id": d.id,
        "entities": [
            {
                "id": e.id,
                "types": sorted(e.semantic_types),
                "cardinality": e.cardinality,
            }
            for e in d.entities
        ],
        "utterances": [
            {
                "index": u.index,
                "tense": u.tense.value,
                **({"text": u.text} if u.text is not None else {}),
                "expressions": [_dump_expression(e) for e in u.expressions],
            }
            for u in d.utterances
        ],
    }


def _dump_expression(e: ReferringExpression) -> dict:
    out: dict[str, Any] = {
        "entity": e.entity_ref if e.entity_ref is not None else "?",
        "form": e.form.value,
        "role": e.role.display,
        "pos": e.surface_position,
    }
    if e.wa_marked:
        out["wa"] = True
    if e.ga_marked:
        out["ga"] = True
    if e.constraints is not None:
        cons: dict[str, Any] = {}
        if e.constraints.compatible_types:
            cons["types"] = sorted(e.constraints.compatible_types)
        if e.constraints.required_cardinality is not None:
            cons["cardinality"] = e.constraints.required_cardinality
        gold = e.constraints.gold_antecedent
        if gold is not None:
            cons["gold"] = encode_resolution(gold)
        out["constraints"] = cons
    return out
