"""Cf ranking, Cb computation, and transition classification."""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from centering import GrammaticalRole, classify_transition, compute_cb, rank_cf
from centering.model import EffectiveRole, TransitionLabel

from conftest import overt, utterance, zero


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
        got = classify_transition("hanako", "hanako", "hanako", zta_applied=True)
        assert got is TransitionLabel.ZTA_CONTINUE

    def test_exhaustive_and_mutually_exclusive(self):
        # every equality pattern lands in exactly one cell
        entities = [None, "x", "y"]
        for cb_prev, cb_cur, cp, zta in itertools.product(
            entities, entities, ["x", "y"], [False, True]
        ):
            label = classify_transition(cb_prev, cb_cur, cp, zta)
            if cb_cur is None:
                assert label is TransitionLabel.ROUGH_SHIFT
                continue
            conditions = {
                TransitionLabel.CONTINUE: cb_cur == cb_prev and cb_cur == cp and not zta,
                TransitionLabel.ZTA_CONTINUE: cb_cur == cb_prev and cb_cur == cp and zta,
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
