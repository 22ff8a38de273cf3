"""Cf ranking, Cb computation, and transition classification."""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from centering import GrammaticalRole
from centering.core import classify_transition, compute_cb, rank_cf
from centering.hypotheses import expand_hypotheses
from centering.model import EffectiveRole, TransitionLabel

from conftest import outcomes, overt, utterance, zero
from test_hypotheses import ASK_GA, PREV


class TestRankCf:
    def test_topic_then_object(self):
        u = utterance(
            0,
            overt("hanako", GrammaticalRole.TOPIC, 0, wa=True),
            overt("exam", GrammaticalRole.OBJECT, 1),
        )
        assert rank_cf(u) == (
            ("hanako", EffectiveRole.TOPIC),
            ("exam", EffectiveRole.OBJECT),
        )

    def test_singleton(self):
        u = utterance(0, overt("only", GrammaticalRole.SUBJECT, 0))
        assert rank_cf(u) == (("only", EffectiveRole.SUBJECT),)

    def test_unresolved_zero_realizes_nothing(self):
        u = utterance(
            0,
            zero(GrammaticalRole.SUBJECT, 0),
            overt("x", GrammaticalRole.OBJECT, 1),
        )
        assert rank_cf(u) == (("x", EffectiveRole.OBJECT),)

    def test_repeat_mention_takes_highest_role(self):
        u = utterance(
            0,
            overt("a", GrammaticalRole.OBJECT, 0),
            overt("a", GrammaticalRole.SUBJECT, 1),
            overt("b", GrammaticalRole.OBJECT2, 2),
        )
        assert rank_cf(u) == (
            ("a", EffectiveRole.SUBJECT),
            ("b", EffectiveRole.OBJECT2),
        )

    def test_ties_break_by_surface_order(self):
        u = utterance(
            0,
            overt("first", GrammaticalRole.OTHERS, 0),
            overt("second", GrammaticalRole.OTHERS, 1),
        )
        assert [eid for eid, _ in rank_cf(u)] == ["first", "second"]

    @given(st.permutations(["a", "b", "c", "d"]))
    def test_output_is_permutation_of_realized(self, names):
        exprs = [
            overt(name, GrammaticalRole(i % 6 if i % 6 != 0 else 5), i)
            for i, name in enumerate(names)
        ]
        u = utterance(0, *sorted(exprs, key=lambda e: e.surface_position))
        cf = rank_cf(u)
        assert sorted(eid for eid, _ in cf) == sorted(names)
        assert rank_cf(u) == cf  # deterministic


class TestRankCfShortcut:
    def test_one_entity_through_a_zero(self):
        u = utterance(
            3,
            zero(GrammaticalRole.OBJECT, 0),
            zero(GrammaticalRole.SUBJECT, 1),
        )
        # an unresolved zero and a resolved one; a one-member set counts
        # as one entity too
        for value in ("a", frozenset({"a"})):
            cf = rank_cf(u, {1: value})
            assert cf == (("a", EffectiveRole.SUBJECT),)
            assert type(cf) is tuple and type(cf[0][1]) is EffectiveRole
        assert rank_cf(u, {0: "a", 1: "a"}) == (("a", EffectiveRole.SUBJECT),)

    def test_set_valued_zero_lists_its_members_in_sorted_order(self):
        u = utterance(
            3,
            zero(GrammaticalRole.SUBJECT, 0, cardinality=2),
            overt("c", GrammaticalRole.OBJECT, 1),
        )
        assert rank_cf(u, {0: frozenset({"b", "a"})}) == (
            ("a", EffectiveRole.SUBJECT),
            ("b", EffectiveRole.SUBJECT),
            ("c", EffectiveRole.OBJECT),
        )


class TestComputeCb:
    def test_highest_realized_wins(self):
        assert (
            compute_cb(["hanako", "book", "locker"], {"hanako", "mitiko", "result"})
            == "hanako"
        )

    def test_no_realization_means_no_cb(self):
        assert compute_cb(["demand"], {"t-electron", "production"}) is None

    def test_empty_prev_cf(self):
        assert compute_cb([], {"anything"}) is None

    @given(
        st.lists(st.sampled_from("abcdef"), unique=True),
        st.sets(st.sampled_from("abcdef")),
    )
    def test_result_is_member_of_prev_cf(self, cf_prev, realized):
        cb = compute_cb(cf_prev, realized)
        assert cb is None or cb in cf_prev


class TestClassifyTransition:
    def test_paper_cells(self):
        C = classify_transition
        assert C("hanako", "hanako", "hanako") is TransitionLabel.CONTINUE
        assert C("hanako", "hanako", "mitiko") is TransitionLabel.RETAIN
        assert C("hanako", "mitiko", "mitiko") is TransitionLabel.SMOOTH_SHIFT
        assert C("investment", None, "t-electron") is TransitionLabel.ROUGH_SHIFT

    def test_zta_upgrade(self):
        # the upgrade is the continue cell under zero topic assignment: the
        # promoted reading's Cf classifies as CONTINUE and is labelled
        # ZTA_CONTINUE, where the plain reading is a RETAIN
        children = expand_hypotheses([PREV], ASK_GA, outcomes({1: "hanako"}), True)
        (promoted,) = [c for c in children if c.zta_applied]
        (plain,) = [c for c in children if not c.zta_applied]
        assert classify_transition("hanako", promoted.cb, promoted.cf[0][0]) is (
            TransitionLabel.CONTINUE
        )
        assert promoted.transition is TransitionLabel.ZTA_CONTINUE
        assert plain.transition is TransitionLabel.RETAIN

    def test_exhaustive_and_mutually_exclusive(self):
        # every equality pattern lands in exactly one cell
        entities = [None, "x", "y"]
        for cb_prev, cb_cur, cp in itertools.product(entities, entities, [None, "x", "y"]):
            label = classify_transition(cb_prev, cb_cur, cp)
            if cb_cur is None:
                assert label is TransitionLabel.ROUGH_SHIFT
                continue
            conditions = {
                TransitionLabel.CONTINUE: cb_cur == cb_prev and cb_cur == cp,
                TransitionLabel.ZTA_CONTINUE: False,
                TransitionLabel.RETAIN: cb_cur == cb_prev and cb_cur != cp,
                TransitionLabel.SMOOTH_SHIFT: cb_cur != cb_prev and cb_cur == cp,
                TransitionLabel.ROUGH_SHIFT: cb_cur != cb_prev and cb_cur != cp,
            }
            assert sum(conditions.values()) == 1
            assert conditions[label]

    def test_cb_equal_cp_never_retain_or_rough(self):
        for cb_prev in [None, "x", "y"]:
            label = classify_transition(cb_prev, "x", "x")
            assert label not in (TransitionLabel.RETAIN, TransitionLabel.ROUGH_SHIFT)
