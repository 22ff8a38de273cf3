"""Seeded synthetic corpora for the benchmark, written as corpus JSON text.

The generator builds plain JSON objects in the corpus format the README
documents and never imports `centering`, so the program under test sees only
the generated file. The same seed always gives the same bytes.

Workloads, sized so that one CLI launch takes 0.5 to 2 seconds on a 2-vCPU
machine and one run holds many launches:

- short_batch: 200 fixture-sized discourses of 20 utterances, 5 singular
  entities, zero rate 0.35. Chains stay short and the beam holds about one
  reading, so parsing and report serialization are a visible share and the
  set-valued retrieval never runs.
- long_chain: 1 discourse of 1200 utterances of the same kind, 6 entities.
  Every step walks a parent chain as deep as the discourse, so the engine's
  per-step cost dominates and parsing and serialization are a small share.
- topic_cues: 100 discourses of 30 utterances, 9 singular and 3 plural
  entities. Wa-marked overt topics over zero subjects (dampened zero-topic
  promotion keeps several readings alive), plural-constrained and typed
  zeros after topic breaks, and tense shifts, so the beam, former-center
  retrieval and set-valued candidates are exercised; every zero carries gold.
"""

from __future__ import annotations

import json
import random

TYPE_POOL = ("organization", "person", "device", "abstract")
ROLES = ("topic", "subject", "object2", "object", "others")

WORKLOADS = ("short_batch", "long_chain", "topic_cues")


def _overt(entity: str, role: str, pos: int) -> dict:
    expr = {"entity": entity, "form": "overt", "role": role, "pos": pos}
    if role == "topic":
        expr["wa"] = True
    return expr


def _zero(role: str, pos: int, **constraints) -> dict:
    expr = {"entity": "?", "form": "zero", "role": role, "pos": pos}
    if role == "topic":
        expr["wa"] = True
    if constraints:
        expr["constraints"] = constraints
    return expr


def random_discourse(
    rng: random.Random, ident: str, n_utts: int, n_entities: int, zero_rate: float
) -> dict:
    """Singular entities, one to three expressions per utterance in role
    order, each a zero with probability `zero_rate` (none in the first
    utterance); most zeros carry a selectional restriction."""
    entities = [
        {
            "id": f"e{i}",
            "types": sorted(rng.sample(TYPE_POOL, rng.randint(1, 2))),
            "cardinality": 1,
        }
        for i in range(n_entities)
    ]
    ids = [e["id"] for e in entities]
    utterances = []
    for idx in range(n_utts):
        roles = sorted(rng.sample(range(len(ROLES)), rng.randint(1, 3)))
        exprs = []
        used: set[str] = set()
        for pos, r in enumerate(roles):
            role = ROLES[r]
            if idx > 0 and rng.random() < zero_rate:
                if rng.random() < 0.6:
                    exprs.append(
                        _zero(role, pos, types=sorted(rng.sample(TYPE_POOL, rng.randint(1, 2))))
                    )
                else:
                    exprs.append(_zero(role, pos))
            else:
                eid = rng.choice([i for i in ids if i not in used])
                used.add(eid)
                exprs.append(_overt(eid, role, pos))
        utterances.append(
            {
                "index": idx,
                "tense": rng.choice(("past", "nonpast")),
                "expressions": exprs,
            }
        )
    return {"id": ident, "entities": entities, "utterances": utterances}


def topic_cue_discourse(rng: random.Random, ident: str, n_utts: int) -> dict:
    """A story that keeps one focus entity as the zero subject under changing
    wa-marked overt topics, with topic breaks that grow the former-center
    history and zeros that only retrieval can resolve.

    The first utterance opens with the focus as overt wa topic. Every later
    utterance takes one template, in a fixed mix shuffled per discourse, so
    that the work varies little between seeds:
    - 78% zero topic: overt wa topic (not the focus) + zero subject, and a
      zero object in half of them. Fires dampened zero-topic promotion.
    - 10% topic break: the focus moves to another singular entity, said
      overtly as the wa topic with an overt object.
    - 7% plural zero (cardinality 2 or 3) + an overt object that the last
      utterance did not mention, so the reading is a rough shift and
      retrieval looks for an entity set among former centers.
    - 5% typed zero naming an earlier focus + a new overt object (singular
      retrieval filtered by the selectional restriction).
    A fifth of the later utterances shift tense against their predecessor.
    """
    singles = [
        {"id": f"p{i}", "types": ["person"], "cardinality": 1} for i in range(5)
    ] + [
        {"id": f"o{i}", "types": ["organization"], "cardinality": 1} for i in range(4)
    ]
    plurals = [
        {"id": "pp2", "types": ["person"], "cardinality": 2},
        {"id": "oo2", "types": ["organization"], "cardinality": 2},
        {"id": "pp3", "types": ["person"], "cardinality": 3},
    ]
    entities = singles + plurals
    single_ids = [e["id"] for e in singles]
    types_of = {e["id"]: e["types"] for e in entities}

    rest = n_utts - 1
    mix = {"break": round(0.10 * rest), "plural": round(0.07 * rest), "typed": round(0.05 * rest)}
    mix["topic"] = rest - sum(mix.values())
    plan = [kind for kind, count in mix.items() for _ in range(count)]
    rng.shuffle(plan)
    with_object = [True] * (mix["topic"] // 2) + [False] * (mix["topic"] - mix["topic"] // 2)
    rng.shuffle(with_object)
    shifts = set(rng.sample(range(1, n_utts), round(0.2 * rest)))

    focus = None
    foci: list[str] = []  # former foci, most recent last
    tense = "nonpast"
    prev_mentioned: set[str] = set()
    utterances = []
    for idx, kind in enumerate(["break", *plan]):
        if idx in shifts:
            tense = "past" if tense == "nonpast" else "nonpast"
        if kind == "topic":
            topic = rng.choice([e for e in single_ids if e != focus])
            exprs = [
                _overt(topic, "topic", 0),
                _zero("subject", 1, types=types_of[focus], gold=focus),
            ]
            if with_object.pop():
                others = sorted(prev_mentioned - {focus, topic}) or [
                    e for e in single_ids if e not in (focus, topic)
                ]
                exprs.append(_zero("object", 2, gold=rng.choice(others)))
        elif kind == "break":
            focus = rng.choice([e for e in single_ids if e != focus])
            foci.append(focus)
            obj = rng.choice([e["id"] for e in entities if e["id"] != focus])
            exprs = [_overt(focus, "topic", 0), _overt(obj, "object", 1)]
        elif kind == "plural":
            size = rng.choice((2, 3))
            recent = list(dict.fromkeys(reversed(foci)))
            same = [e for e in recent if types_of[e] == types_of[recent[0]]]
            gold = same[:size] if len(same) >= size else recent[:1]
            obj = rng.choice(sorted(set(single_ids) - prev_mentioned - {focus}) or single_ids)
            exprs = [
                _zero("subject", 0, types=types_of[recent[0]], cardinality=size, gold=sorted(gold)),
                _overt(obj, "object", 1),
            ]
        else:
            earlier = rng.choice(foci)
            obj = rng.choice(sorted(set(single_ids) - prev_mentioned - {earlier}) or single_ids)
            exprs = [
                _zero("subject", 0, types=types_of[earlier], gold=earlier),
                _overt(obj, "object", 1),
            ]
        prev_mentioned = {x["entity"] for x in exprs if x["form"] == "overt"} | {focus}
        utterances.append({"index": idx, "tense": tense, "expressions": exprs})
    return {"id": ident, "entities": entities, "utterances": utterances}


def build_corpus(workload: str, seed: int) -> dict:
    """The corpus object for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "short_batch":
        discourses = [random_discourse(rng, f"sb-{k}", 20, 5, 0.35) for k in range(200)]
    elif workload == "long_chain":
        discourses = [random_discourse(rng, "lc-0", 1200, 6, 0.35)]
    elif workload == "topic_cues":
        discourses = [topic_cue_discourse(rng, f"tc-{k}", 30) for k in range(100)]
    else:
        raise ValueError(f"unknown workload '{workload}'")
    return {"discourses": discourses}


def corpus_text(corpus: dict) -> str:
    """The corpus file's text."""
    return json.dumps(corpus) + "\n"
