"""Domain type invariants and discourse validation."""

import pytest

from centering import GrammaticalRole, load_fixture, validate_discourse
from centering.model import TransitionLabel

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
