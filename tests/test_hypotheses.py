"""Zero topic promotion, hypothesis expansion, dampening, and pruning."""

import pytest

import centering.engine as engine
import centering.hypotheses as hypotheses
from centering import GrammaticalRole, parse_corpus, run_corpus
from centering.hypotheses import expand_hypotheses, prune_hypotheses, rank_key
from centering.model import CenteringHypothesis, EffectiveRole, TransitionLabel

from conftest import outcomes, overt, utterance, zero
from test_golden import topic_cue_text


def seed(cb, cf_ids, index=0):
    return CenteringHypothesis(
        utterance_index=index,
        cb=cb,
        cf=tuple((eid, EffectiveRole.SUBJECT) for eid in cf_ids),
        transition=TransitionLabel.CONTINUE,
        eff_pref=TransitionLabel.CONTINUE.preference_rank,
    )


# the classroom situation: predecessor centered on hanako
PREV = seed("hanako", ["hanako", "book", "locker"], index=1)

ASK_GA = utterance(
    2,
    overt("mitiko", GrammaticalRole.SUBJECT, 0, ga=True),
    zero(GrammaticalRole.OBJECT2, 1, types=("person",)),
    overt("result", GrammaticalRole.OBJECT, 2),
)

ASK_WA = utterance(
    2,
    overt("mitiko", GrammaticalRole.TOPIC, 0, wa=True),
    zero(GrammaticalRole.OBJECT2, 1, types=("person",)),
    overt("result", GrammaticalRole.OBJECT, 2),
)


def promoted_head(prev, u, res):
    """Cf head of the promoted child `prev` spawns for `u`, or None when the
    zero-topic rule does not fire."""
    for child in expand_hypotheses([prev], u, outcomes(res), True):
        if child.zta_applied:
            return child.cf[0][0]
    return None


class TestZtaCandidate:
    def test_fires_when_default_is_retain(self):
        assert promoted_head(PREV, ASK_GA, {1: "hanako"}) == "hanako"

    def test_silent_when_default_already_continues(self):
        u = utterance(
            1,
            zero(GrammaticalRole.SUBJECT, 0, types=("person",)),
            overt("book", GrammaticalRole.OBJECT, 1),
        )
        prev = seed("hanako", ["hanako", "exam"])
        assert promoted_head(prev, u, {0: "hanako"}) is None

    def test_silent_without_zeros(self):
        u = utterance(2, overt("mitiko", GrammaticalRole.SUBJECT, 0, ga=True))
        assert promoted_head(PREV, u, {}) is None

    def test_silent_when_zero_is_not_previous_cb(self):
        assert promoted_head(PREV, ASK_GA, {1: "mitiko"}) is None

    def test_silent_without_previous_cb(self):
        prev = seed(None, ["book"])
        assert promoted_head(prev, ASK_GA, {1: "hanako"}) is None

    def test_adjunct_zeros_never_promote(self):
        u = utterance(
            2,
            overt("mitiko", GrammaticalRole.TOPIC, 0, wa=True),
            overt("result", GrammaticalRole.OBJECT, 1),
            zero(GrammaticalRole.OTHERS, 2, types=("person",)),
        )
        assert promoted_head(PREV, u, {2: "hanako"}) is None

    def test_silent_when_promotion_cannot_continue(self):
        # an entity above the previous cb is also realized, so the promoted
        # ranking still fails the continue condition
        prev = CenteringHypothesis(
            utterance_index=1,
            cb="students",
            cf=(
                ("t-company", EffectiveRole.TOPIC),
                ("students", EffectiveRole.OBJECT2),
            ),
            transition=TransitionLabel.RETAIN,
            eff_pref=TransitionLabel.RETAIN.preference_rank,
        )
        u = utterance(
            2,
            overt("t-company", GrammaticalRole.SUBJECT, 0, ga=True),
            zero(GrammaticalRole.OBJECT2, 1, types=("person",)),
        )
        assert promoted_head(prev, u, {1: "students"}) is None


class TestExpandHypotheses:
    def test_plain_plus_promoted_with_ga_competitor(self):
        children = expand_hypotheses([PREV], ASK_GA, outcomes({1: "hanako"}), True)
        assert [c.transition for c in children] == [
            TransitionLabel.ZTA_CONTINUE,
            TransitionLabel.RETAIN,
        ]
        promoted, plain = children
        assert promoted.cf_ids == ("hanako", "mitiko", "result")
        assert plain.cf_ids == ("mitiko", "hanako", "result")
        assert not promoted.dampened and not plain.dampened
        # promoted strictly preferred
        assert promoted.eff_pref < plain.eff_pref

    def test_wa_competitor_dampens_to_equal_preference(self):
        children = expand_hypotheses([PREV], ASK_WA, outcomes({1: "hanako"}), True)
        assert [c.transition for c in children] == [
            TransitionLabel.ZTA_CONTINUE,
            TransitionLabel.RETAIN,
        ]
        promoted, plain = children
        assert promoted.dampened and plain.dampened
        assert promoted.eff_pref == plain.eff_pref
        assert promoted.ambiguity_keys == plain.ambiguity_keys != frozenset()

    def test_zero_topic_promotion_outranks_topic(self):
        # promoted zero at object2 heads the list ahead of the topicalized subject
        children = expand_hypotheses([PREV], ASK_WA, outcomes({1: "hanako"}), True)
        (promoted,) = [c for c in children if c.zta_applied]
        assert promoted.cf == (
            ("hanako", EffectiveRole.ZERO_TOP),
            ("mitiko", EffectiveRole.TOPIC),
            ("result", EffectiveRole.OBJECT),
        )

    def test_no_zero_single_child(self):
        u = utterance(
            2,
            overt("mitiko", GrammaticalRole.SUBJECT, 0, ga=True),
            overt("result", GrammaticalRole.OBJECT, 1),
        )
        children = expand_hypotheses([PREV], u, outcomes({}), True)
        assert len(children) == 1
        assert not children[0].zta_applied

    def test_argmax_set_difference_between_markings(self):
        # with ga: singleton argmax; with wa: two-element argmax
        def argmax(children):
            best = min(c.eff_pref for c in children)
            return [c for c in children if c.eff_pref == best]

        assert len(argmax(expand_hypotheses([PREV], ASK_GA, outcomes({1: "hanako"}), True))) == 1
        assert len(argmax(expand_hypotheses([PREV], ASK_WA, outcomes({1: "hanako"}), True))) == 2

    def test_promoted_head_is_parent_cb_and_zero_realized(self):
        for u in (ASK_GA, ASK_WA):
            for child in expand_hypotheses([PREV], u, outcomes({1: "hanako"}), True):
                if child.zta_applied:
                    assert child.cf[0][0] == PREV.cb
                    assert child.cf[0][1] is EffectiveRole.ZERO_TOP
                    assert child.resolution_map[1] == PREV.cb

    def test_duplicate_readings_collapse(self):
        # two identical parents produce one child each, deduped to one
        children = expand_hypotheses(
            [PREV, PREV], ASK_GA, outcomes({1: "hanako"}, {1: "hanako"}), True
        )
        assert len(children) == 2  # promoted + plain, not four


def test_plain_cf_is_ranked_once_per_distinct_assignment(monkeypatch):
    # per expansion: [parents, distinct assignment tuples, rank_cf calls]
    steps = []
    real_rank, real_expand = hypotheses.rank_cf, engine.expand_hypotheses

    def rank(*args):
        steps[-1][2] += 1
        return real_rank(*args)

    def expand(prev_set, u, outcomes, *args):
        steps.append([len(outcomes), len({o.assignments for o in outcomes}), 0])
        return real_expand(prev_set, u, outcomes, *args)

    monkeypatch.setattr(hypotheses, "rank_cf", rank)
    monkeypatch.setattr(engine, "expand_hypotheses", expand)
    discourses = parse_corpus(topic_cue_text())
    run_corpus(discourses)
    assert len(steps) == sum(len(d.utterances) - 1 for d in discourses)
    assert [calls for _, _, calls in steps] == [distinct for _, distinct, _ in steps]
    # the corpus keeps several readings, which often resolve alike
    assert max(distinct for _, distinct, _ in steps) > 1
    assert sum(parents for parents, _, _ in steps) > sum(distinct for _, distinct, _ in steps)


def hyp(label, index=3, anomalous=False):
    return CenteringHypothesis(
        utterance_index=index,
        cb="x",
        cf=(("x", EffectiveRole.SUBJECT),),
        transition=label,
        eff_pref=label.preference_rank,
        anomalous=anomalous,
    )


class TestPruneHypotheses:
    def test_smooth_shift_kept_over_rough_shift(self):
        smooth = hyp(TransitionLabel.SMOOTH_SHIFT)
        rough = hyp(TransitionLabel.ROUGH_SHIFT)
        kept = prune_hypotheses([rough, smooth], beam=2)
        assert kept[0].transition is TransitionLabel.SMOOTH_SHIFT
        assert kept[1].transition is TransitionLabel.ROUGH_SHIFT
        assert prune_hypotheses([rough, smooth], beam=1) == [smooth]

    def test_anomalous_reading_removed_when_compatible_exists(self):
        good = hyp(TransitionLabel.SMOOTH_SHIFT)
        bad = hyp(TransitionLabel.CONTINUE, anomalous=True)
        kept = prune_hypotheses([good, bad], beam=4)
        assert kept == [good]  # the veto beats transition preference

    def test_never_prunes_to_empty(self):
        bad1 = hyp(TransitionLabel.RETAIN, anomalous=True)
        bad2 = hyp(TransitionLabel.ROUGH_SHIFT, anomalous=True)
        kept = prune_hypotheses([bad2, bad1], beam=3)
        assert len(kept) == 1
        assert kept[0].transition is TransitionLabel.RETAIN
        assert kept[0].anomalous

    def test_beam_cut_by_chain_preference(self):
        # children come from expand_hypotheses, so each carries its parent's
        # rank in the live set; the parents are listed worst-first and the
        # children handed to pruning in reverse, so only that rank can put the
        # continue-parent's child ahead of the retain-parent's
        cont_parent = hyp(TransitionLabel.CONTINUE, index=2)
        retain_parent = hyp(TransitionLabel.RETAIN, index=2)
        shift_parent = CenteringHypothesis(
            utterance_index=2,
            cb="y",
            cf=(("y", EffectiveRole.SUBJECT), ("x", EffectiveRole.OBJECT)),
            transition=TransitionLabel.CONTINUE,
            eff_pref=TransitionLabel.CONTINUE.preference_rank,
        )
        u = utterance(
            3,
            overt("x", GrammaticalRole.SUBJECT, 0, ga=True),
            zero(GrammaticalRole.OBJECT, 1),
        )
        expanded = expand_hypotheses(
            [retain_parent, shift_parent, cont_parent],
            u,
            outcomes({1: "b"}, {1: "c"}, {1: "a"}),
            True,
        )
        by_parent = {id(c.parent): c for c in expanded}
        children = [
            by_parent[id(cont_parent)],
            by_parent[id(retain_parent)],
            by_parent[id(shift_parent)],
        ]
        assert [c.transition for c in children] == [
            TransitionLabel.CONTINUE,
            TransitionLabel.CONTINUE,
            TransitionLabel.SMOOTH_SHIFT,
        ]
        kept = prune_hypotheses(children[::-1], beam=2)
        assert kept == [children[0], children[1]]

    def test_infinite_beam_no_evidence_loses_nothing(self):
        children = expand_hypotheses([PREV], ASK_WA, outcomes({1: "hanako"}), True)
        kept = prune_hypotheses(children, beam=10**6)
        assert sorted(kept, key=rank_key) == sorted(children, key=rank_key)

    def test_no_hypotheses_prune_to_none(self):
        assert prune_hypotheses([], 4) == []

    @pytest.mark.parametrize("beam", [1, 2, 3, 4])
    @pytest.mark.parametrize("anomalous", [False, True])
    def test_one_reading_is_kept_as_it_is(self, beam, anomalous):
        only = hyp(TransitionLabel.ROUGH_SHIFT, anomalous=anomalous)
        kept = prune_hypotheses([only], beam=beam)
        assert kept == [only] and kept[0] is only
        # what sorting and the veto keep of it
        ordered = sorted([only], key=rank_key)
        compatible = [h for h in ordered if not h.anomalous]
        assert kept == (compatible[:beam] if compatible else ordered[:1])


class TestCollapseBeforeBuilding:
    def test_a_tie_keeps_the_first_parent_under_merged_keys(self):
        # two parents alike but for their ambiguity keys, so their children
        # tie on promotions and chain preference
        first = CenteringHypothesis(
            1, "hanako", PREV.cf, TransitionLabel.CONTINUE, 1, ambiguity_keys=frozenset({"u0"})
        )
        second = CenteringHypothesis(
            1, "hanako", PREV.cf, TransitionLabel.CONTINUE, 1, ambiguity_keys=frozenset({"u1"})
        )
        outs = outcomes({1: "hanako"}, {1: "hanako"})
        got = expand_hypotheses([first, second], ASK_WA, outs, True)
        assert [c.transition for c in got] == [
            TransitionLabel.ZTA_CONTINUE,
            TransitionLabel.RETAIN,
        ]
        assert all(c.parent is first for c in got)
        assert all(c.ambiguity_keys == {"u0", "u1", "u2"} for c in got)

    def test_fewer_promotions_win_over_an_earlier_parent(self):
        promoted = CenteringHypothesis(0, "hanako", PREV.cf, TransitionLabel.ZTA_CONTINUE, 1)
        plain = CenteringHypothesis(0, "hanako", PREV.cf, TransitionLabel.CONTINUE, 1)
        parents = [replace_parent(PREV, promoted), replace_parent(PREV, plain)]
        outs = outcomes({1: "hanako"}, {1: "hanako"})
        got = expand_hypotheses(parents, ASK_GA, outs, True)
        assert [c.transition for c in got] == [
            TransitionLabel.ZTA_CONTINUE,
            TransitionLabel.RETAIN,
        ]
        assert all(c.parent is parents[1] for c in got)


def replace_parent(h, parent):
    return CenteringHypothesis(
        h.utterance_index, h.cb, h.cf, h.transition, h.eff_pref, parent=parent
    )
