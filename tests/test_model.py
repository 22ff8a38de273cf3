"""Domain type invariants and discourse validation."""

from typing import Optional

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from centering import GrammaticalRole, load_fixture, validate_discourse
from centering.model import (
    Discourse,
    DiscourseEntity,
    Form,
    ReferringExpression,
    ResolutionConstraints,
    Tense,
    TransitionLabel,
    Utterance,
    Violation,
)

from conftest import FIXTURES, discourse, entity, overt, utterance, zero


def test_role_rank_order():
    order = [
        GrammaticalRole.TOPIC,
        GrammaticalRole.EMPATHY,
        GrammaticalRole.SUBJECT,
        GrammaticalRole.OBJECT2,
        GrammaticalRole.OBJECT,
        GrammaticalRole.OTHERS,
    ]
    assert [r.rank for r in order] == [0, 1, 2, 3, 4, 5]
    assert sorted(GrammaticalRole, key=lambda r: r.rank) == order


def test_transition_preference_ranks():
    assert TransitionLabel.CONTINUE.preference_rank == 1
    assert TransitionLabel.ZTA_CONTINUE.preference_rank == 1
    assert TransitionLabel.RETAIN.preference_rank == 2
    assert TransitionLabel.SMOOTH_SHIFT.preference_rank == 3
    assert TransitionLabel.ROUGH_SHIFT.preference_rank == 4


@pytest.mark.parametrize("name", FIXTURES)
def test_every_fixture_is_well_formed(name):
    assert validate_discourse(load_fixture(name)) == []


def test_empty_discourse_is_well_formed():
    assert validate_discourse(discourse("empty", [], [])) == []


def test_double_topic_reported():
    d = discourse(
        "bad",
        [entity("a", "person"), entity("b", "person")],
        [
            utterance(
                0,
                overt("a", GrammaticalRole.TOPIC, 0, wa=True),
                overt("b", GrammaticalRole.TOPIC, 1, wa=True),
            )
        ],
    )
    violations = validate_discourse(d)
    assert [v.code for v in violations] == ["double-topic"]
    assert violations[0].location == "utterances[0]"


def test_wa_ga_conflict_and_position_order():
    d = discourse(
        "bad2",
        [entity("a", "person"), entity("b", "thing")],
        [
            utterance(
                0,
                overt("a", GrammaticalRole.SUBJECT, 1, wa=True, ga=True),
                overt("b", GrammaticalRole.OBJECT, 1),
            )
        ],
    )
    codes = {v.code for v in validate_discourse(d)}
    assert "wa-ga-conflict" in codes
    assert "position-order" in codes


def test_duplicate_entity_and_unknown_reference():
    d = discourse(
        "bad3",
        [entity("a", "person"), entity("a", "person")],
        [utterance(0, overt("ghost", GrammaticalRole.SUBJECT, 0))],
    )
    codes = [v.code for v in validate_discourse(d)]
    assert "duplicate-entity-id" in codes
    assert "unknown-entity" in codes


def test_topic_requires_wa():
    d = discourse(
        "bad4",
        [entity("a", "person")],
        [utterance(0, overt("a", GrammaticalRole.TOPIC, 0))],
    )
    assert [v.code for v in validate_discourse(d)] == ["topic-not-wa"]


def test_empty_types_and_bad_cardinality():
    d = discourse(
        "bad5",
        [
            entity("a"),
            entity("b", "thing", cardinality=0),
        ],
        [],
    )
    # entity helper defaults to a non-empty type set; build the bad one by hand
    from centering import DiscourseEntity

    d = discourse(
        "bad5",
        [DiscourseEntity("a", frozenset()), DiscourseEntity("b", frozenset({"x"}), 0)],
        [],
    )
    codes = {v.code for v in validate_discourse(d)}
    assert codes == {"empty-semantic-types", "bad-cardinality"}


def test_zero_with_unknown_gold():
    d = discourse(
        "bad6",
        [entity("a", "person")],
        [utterance(0, zero(GrammaticalRole.SUBJECT, 0, types=("person",), gold="nobody"))],
    )
    assert [v.code for v in validate_discourse(d)] == ["unknown-gold"]


# -- validate_discourse against its reference copy ---------------------------


def _at(j: int, k: int, key: str = "") -> str:
    """The reference copy's location helper, also kept verbatim."""
    return f"utterances[{j}].expressions[{k}]{key}"


def reference_validate_discourse(discourse: Discourse) -> list[Violation]:
    """validate_discourse as it was before it became one loop per
    expression, kept verbatim: a topic count of its own per utterance, the
    `is_zero` property, and the gold sets built for every constrained zero."""
    out: list[Violation] = []

    known: set[str] = set()
    for j, ent in enumerate(discourse.entities):
        if ent.id in known:
            message = "entity id declared twice"
            out.append(Violation("duplicate-entity-id", f"entities[{j}].id", message))
        known.add(ent.id)
        if not ent.semantic_types:
            message = "semantic_types must be non-empty"
            out.append(Violation("empty-semantic-types", f"entities[{j}].types", message))
        if ent.cardinality < 1:
            message = f"cardinality {ent.cardinality} < 1"
            out.append(Violation("bad-cardinality", f"entities[{j}].cardinality", message))

    last_index: Optional[int] = None
    for j, utt in enumerate(discourse.utterances):
        # Indices strictly increase; gaps are allowed.
        if last_index is not None and utt.index <= last_index:
            code = "duplicate-utterance-index" if utt.index == last_index else "index-out-of-order"
            message = f"utterance index {utt.index} after {last_index}"
            out.append(Violation(code, f"utterances[{j}].index", message))
        last_index = utt.index

        topics = sum(e.role is GrammaticalRole.TOPIC for e in utt.expressions)
        if topics > 1:
            out.append(Violation("double-topic", f"utterances[{j}]", f"{topics} TOPIC expressions"))

        last_pos: Optional[int] = None
        for k, expr in enumerate(utt.expressions):
            if last_pos is not None and expr.surface_position <= last_pos:
                message = "surface positions must be strictly increasing"
                out.append(Violation("position-order", _at(j, k, ".pos"), message))
            last_pos = expr.surface_position
            if expr.wa_marked and expr.ga_marked:
                out.append(Violation("wa-ga-conflict", _at(j, k), "wa and ga marking both set"))
            if expr.role is GrammaticalRole.TOPIC and not expr.wa_marked:
                message = "TOPIC role requires wa marking"
                out.append(Violation("topic-not-wa", _at(j, k, ".wa"), message))
            if not expr.is_zero:
                if expr.entity_ref is None:
                    message = "overt NP without entity reference"
                    out.append(Violation("unresolved-overt", _at(j, k, ".entity"), message))
                if expr.constraints is not None:
                    message = "resolution constraints on an overt NP"
                    out.append(Violation("overt-constraints", _at(j, k, ".constraints"), message))
            if expr.entity_ref is not None and expr.entity_ref not in known:
                message = f"unknown entity id '{expr.entity_ref}'"
                out.append(Violation("unknown-entity", _at(j, k, ".entity"), message))
            cons = expr.constraints
            if cons is not None:
                if cons.required_cardinality is not None and cons.required_cardinality < 1:
                    message = f"required_cardinality {cons.required_cardinality} < 1"
                    where = _at(j, k, ".constraints.cardinality")
                    out.append(Violation("bad-required-cardinality", where, message))
                gold = cons.gold_antecedent
                undeclared = ({gold} if isinstance(gold, str) else set(gold or ())) - known
                for gid in sorted(undeclared):
                    message = f"gold antecedent '{gid}' not declared"
                    out.append(Violation("unknown-gold", _at(j, k, ".constraints.gold"), message))
    return out


#: Every code validate_discourse reports.
CODES = [
    "duplicate-entity-id",
    "empty-semantic-types",
    "bad-cardinality",
    "duplicate-utterance-index",
    "index-out-of-order",
    "double-topic",
    "position-order",
    "wa-ga-conflict",
    "topic-not-wa",
    "unresolved-overt",
    "overt-constraints",
    "unknown-entity",
    "bad-required-cardinality",
    "unknown-gold",
]

IDS = ["a", "b", "c"]


@st.composite
def shaky_discourses(draw):
    """Small discourses that may break every invariant: repeated entity ids,
    empty types, cardinalities below 1, indices and positions that repeat or
    go back, several topics, wa and ga together, overt NPs without an entity
    or with constraints, undeclared entities and gold ids, and required
    cardinalities below 1."""
    entities = [
        DiscourseEntity(
            draw(st.sampled_from(IDS)),
            draw(st.sampled_from([frozenset(), frozenset({"person"})])),
            draw(st.sampled_from([1, 2, 0, -1])),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    constraints = st.none() | st.builds(
        ResolutionConstraints,
        st.sampled_from([frozenset(), frozenset({"person"})]),
        st.sampled_from([None, 1, 2, 0, -1]),
        st.sampled_from([None, "a", "ghost", frozenset(), frozenset({"a", "zz", "ghost"})]),
    )
    utterances = []
    index = 0
    for _ in range(draw(st.integers(0, 4))):
        index += draw(st.sampled_from([1, 2, 0, -1]))
        expressions = []
        pos = 0
        for _ in range(draw(st.integers(0, 4))):
            pos += draw(st.sampled_from([1, 2, 0, -1]))
            expressions.append(
                ReferringExpression(
                    draw(st.sampled_from([None, *IDS, "ghost"])),
                    draw(st.sampled_from(Form)),
                    draw(st.sampled_from(GrammaticalRole)),
                    pos,
                    draw(st.booleans()),
                    draw(st.booleans()),
                    draw(constraints),
                )
            )
        utterances.append(Utterance(index, tuple(expressions), draw(st.sampled_from(Tense))))
    return Discourse("shaky", tuple(entities), tuple(utterances))


def full(violations):
    """Each violation in full, in order."""
    return [(v.code, v.location, v.message) for v in violations]


@settings(max_examples=400, deadline=None)
@given(shaky_discourses())
def test_validation_matches_its_reference_copy(d):
    assert full(validate_discourse(d)) == full(reference_validate_discourse(d))


@pytest.mark.parametrize("code", CODES)
def test_the_shaky_discourses_inject_every_code(code):
    d = find(
        shaky_discourses(),
        lambda d: code in {v.code for v in reference_validate_discourse(d)},
        # the first example found will do, unshrunk
        settings=settings(
            max_examples=2000, deadline=None, database=None, phases=[Phase.generate]
        ),
    )
    assert full(validate_discourse(d)) == full(reference_validate_discourse(d))


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_validate_as_the_reference_copy(name):
    d = load_fixture(name)
    assert validate_discourse(d) == reference_validate_discourse(d) == []
