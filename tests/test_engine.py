"""Cb history, global retrieval, coherence stepping, randomized properties."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centering import (
    EngineConfig,
    GrammaticalRole,
    Tense,
    parse_corpus,
    run_discourse,
    validate_discourse,
)
from centering._record import replace
from centering.engine import (
    CUE_TENSE,
    DiscourseState,
    _resolve_locally,
    coherence_step,
    finalize,
    global_retrieve,
    push_cb,
)
from centering.hypotheses import ResolutionOutcome
from centering.model import (
    CbHistoryEntry,
    CenteringHypothesis,
    EffectiveRole,
    TransitionLabel,
)
from synth import random_discourse

from conftest import discourse, entity, overt, utterance, zero


class TestPushCb:
    def test_empty_plus_one(self):
        h = push_cb((), "hanako", 0, False)
        assert tuple(e.entity_id for e in h) == ("hanako",)

    def test_recency_order(self):
        h = push_cb(push_cb((), "hanako", 0, False), "mitiko", 2, False)
        assert tuple(e.entity_id for e in h) == ("mitiko", "hanako")

    def test_collapse_to_most_recent(self):
        h = push_cb(push_cb((), "hanako", 0, False), "mitiko", 2, False)
        h = push_cb(h, "hanako", 3, False)
        assert [(e.entity_id, e.index) for e in h] == [("hanako", 3), ("mitiko", 2)]

    def test_collapse_against_list_simulation_oracle(self):
        # oracle: maintain a plain list, remove-then-prepend
        rng = random.Random(7)
        names = ["a", "b", "c", "d"]
        h = ()
        oracle: list[str] = []
        for idx in range(50):
            name = rng.choice(names)
            h = push_cb(h, name, idx, False)
            if name in oracle:
                oracle.remove(name)
            oracle.insert(0, name)
            assert [e.entity_id for e in h] == oracle

    def test_sticky_past_flag(self):
        h = push_cb((), "te", 0, past_tense=True)
        h = push_cb(h, "te", 3, past_tense=False)
        assert h[0].past_tense is True
        assert h[0].index == 3

    def test_indices_must_not_decrease(self):
        h = push_cb((), "a", 5, False)
        with pytest.raises(ValueError, match="^history indices must be non-decreasing: 4 after 5$"):
            push_cb(h, "b", 4, False)
        # an index may repeat
        assert push_cb(h, "b", 5, False)[0] == CbHistoryEntry("b", 5)

    @given(st.lists(st.tuples(st.sampled_from("abcde")), min_size=0, max_size=30))
    def test_history_bounded_by_distinct_cbs(self, pushes):
        h = ()
        seen = set()
        for idx, (name,) in enumerate(pushes):
            h = push_cb(h, name, idx, False)
            seen.add(name)
            assert len(h) <= len(seen)
        assert len(h) == len(seen)
        # strictly descending indices
        indices = [e.index for e in h]
        assert indices == sorted(indices, reverse=True)


ENTITIES = {
    "te": entity("te", "organization"),
    "rie": entity("rie", "device"),
    "hf": entity("hf", "organization", "facility"),
    "lab": entity("lab", "organization"),
    "pair-a": entity("pair-a", "device"),
    "pair-b": entity("pair-b", "device"),
}


def history(*entries):
    return tuple(CbHistoryEntry(*e) for e in entries)


def retrieve(h, u, entities=ENTITIES, prev_tense=Tense.PAST):
    """Retrieval for the first expression of `u`, a zero; by default with no
    shift to past tense and no previous Cf to refresh a set's recency."""
    return global_retrieve(h, u.expressions[0], u, entities, (), prev_tense)


class TestGlobalRetrieve:
    def test_lexical_veto_skips_recent(self):
        h = history(("rie", 3), ("te", 1))
        u = utterance(6, zero(GrammaticalRole.SUBJECT, 0, types=("organization", "person")), tense=Tense.PAST)
        got = retrieve(h, u)
        assert got.value == "te"
        assert "LEXICAL" in got.cues

    def test_recency_wins_among_compatible(self):
        # an undeclared former Cb is no candidate
        h = history(("ghost", 6), ("hf", 5), ("te", 3))
        u = utterance(7, zero(GrammaticalRole.SUBJECT, 0, types=("organization",)))
        got = retrieve(h, u)
        assert (got.value, got.cues, got.candidates) == ("hf", (), ("hf", "te"))

    def test_tense_cue_reorders_equally_compatible(self):
        h = history(("hf", 5, False), ("te", 3, True))
        u = utterance(7, zero(GrammaticalRole.SUBJECT, 0, types=("organization",)), tense=Tense.PAST)
        got = retrieve(h, u, prev_tense=Tense.NONPAST)
        assert got.value == "te"
        assert "TENSE" in got.cues

    def test_tense_cue_needs_the_shift(self):
        h = history(("hf", 5, False), ("te", 3, True))
        u = utterance(7, zero(GrammaticalRole.SUBJECT, 0, types=("organization",)), tense=Tense.PAST)
        got = retrieve(h, u, prev_tense=Tense.PAST)
        assert got.value == "hf"  # no nonpast->past shift, recency rules
        assert "TENSE" not in got.cues

    def test_empty_history(self):
        u = utterance(3, zero(GrammaticalRole.SUBJECT, 0))
        got = retrieve((), u)
        assert got.value is None

    def test_exhausted_history(self):
        h = history(("rie", 2),)
        u = utterance(3, zero(GrammaticalRole.SUBJECT, 0, types=("organization",)))
        got = retrieve(h, u)
        assert got.value is None
        assert "LEXICAL" in got.cues

    def test_set_retrieval_with_agreement(self):
        h = history(("pair-a", 4), ("pair-b", 3), ("te", 1))
        u = utterance(5, zero(GrammaticalRole.SUBJECT, 0, types=("device",), cardinality=2))
        got = retrieve(h, u)
        assert got.value == frozenset({"pair-a", "pair-b"})
        assert "AGREEMENT" in got.cues
        assert got.member_order == ("pair-a", "pair-b")

    # a zero annotated singular: former Cbs of another cardinality drop out
    SINGULAR = {
        **ENTITIES,
        "crew": entity("crew", "organization", cardinality=2),
        "vans": entity("vans", "device", cardinality=2),
    }

    def test_singular_agreement_skips_recent_plural(self):
        h = history(("crew", 5), ("te", 3))
        u = utterance(7, zero(GrammaticalRole.SUBJECT, 0, cardinality=1))
        got = retrieve(h, u, self.SINGULAR)
        assert got.value == "te"
        assert got.cues == ("AGREEMENT",)
        assert got.candidates == ("crew", "te")

    def test_agreement_takes_precedence_over_lexical(self):
        # vans has the wrong cardinality and the wrong type: counted once
        h = history(("vans", 5), ("te", 3))
        u = utterance(
            7, zero(GrammaticalRole.SUBJECT, 0, types=("organization",), cardinality=1)
        )
        got = retrieve(h, u, self.SINGULAR)
        assert got.value == "te"
        assert got.cues == ("AGREEMENT",)

    def test_agreement_then_lexical(self):
        # crew fails agreement; rie agrees but has the wrong type
        h = history(("crew", 6), ("rie", 5), ("te", 3))
        u = utterance(
            7, zero(GrammaticalRole.SUBJECT, 0, types=("organization",), cardinality=1)
        )
        got = retrieve(h, u, self.SINGULAR)
        assert got.value == "te"
        assert got.cues == ("AGREEMENT", "LEXICAL")

    @given(
        idx_a=st.integers(1, 50),
        idx_b=st.integers(1, 50),
    )
    def test_recency_preference_property(self, idx_a, idx_b):
        if idx_a == idx_b:
            idx_b += 1
        first, second = ("hf", "lab") if idx_a > idx_b else ("lab", "hf")
        h = history((("hf"), idx_a), (("lab"), idx_b))
        h = tuple(sorted(h, key=lambda e: -e.index))
        u = utterance(60, zero(GrammaticalRole.SUBJECT, 0, types=("organization",)))
        got = retrieve(h, u)
        assert got.value == first


class TestEngineMechanics:
    def test_seed_pushes_cb_and_is_flagged(self):
        d = discourse(
            "seed",
            [entity("a", "person"), entity("b", "thing")],
            [utterance(0, overt("a", GrammaticalRole.SUBJECT, 0), overt("b", GrammaticalRole.OBJECT, 1))],
        )
        rep = run_discourse(d)
        assert rep.utterances[0].seed
        assert rep.utterances[0].label == "continue"
        assert rep.history == (("a", 0),)

    def test_empty_discourse(self):
        rep = run_discourse(discourse("none", [], []))
        assert rep.utterances == ()
        assert rep.history == ()

    def test_utterance_realizing_nothing_is_rough_shift(self):
        d = discourse(
            "gap",
            [entity("a", "person")],
            [
                utterance(0, overt("a", GrammaticalRole.SUBJECT, 0)),
                utterance(1),  # no expressions at all
            ],
        )
        rep = run_discourse(d)
        assert rep.utterances[1].label == "rough-shift"
        assert rep.utterances[1].cb is None

    def test_no_global_leaves_zero_unresolved(self):
        d = discourse(
            "abl",
            [entity("a", "organization"), entity("b", "abstract"), entity("c", "abstract")],
            [
                utterance(0, overt("a", GrammaticalRole.SUBJECT, 0)),
                utterance(1, overt("b", GrammaticalRole.SUBJECT, 0)),
                utterance(
                    2,
                    zero(GrammaticalRole.SUBJECT, 0, types=("organization",), gold="a"),
                    overt("c", GrammaticalRole.OBJECT, 1),
                ),
            ],
        )
        full = run_discourse(d)
        assert full.utterances[2].resolution_map[0] == "a"
        ablated = run_discourse(d, EngineConfig(global_enabled=False))
        assert ablated.utterances[2].resolution_map[0] is None

    def test_retrieval_not_invoked_on_preferred_transitions(self):
        # best reading is CONTINUE, so the history is never consulted even
        # though a former Cb would be compatible
        d = discourse(
            "gate",
            [entity("a", "person"), entity("b", "person"), entity("x", "thing")],
            [
                utterance(0, overt("b", GrammaticalRole.SUBJECT, 0), overt("a", GrammaticalRole.OBJECT, 1)),
                utterance(1, overt("a", GrammaticalRole.SUBJECT, 0), overt("x", GrammaticalRole.OBJECT, 1)),
                utterance(
                    2,
                    zero(GrammaticalRole.SUBJECT, 0, types=("person",)),
                    overt("x", GrammaticalRole.OBJECT, 1),
                ),
            ],
        )
        rep = run_discourse(d)
        last = rep.utterances[2]
        assert last.label == "continue"
        assert last.resolution_map[0] == "a"
        assert last.retrievals == ()

    def test_previous_tense_taken_by_position(self):
        # indices 0, 5, 7: the tense cue reads the previous utterance in the
        # discourse (u5, nonpast), not utterances[index - 1]
        d = discourse(
            "gaps",
            [
                entity("a", "person"),
                entity("b", "person"),
                entity("c", "organization"),
                entity("dev", "device"),
            ],
            [
                utterance(
                    0,
                    overt("a", GrammaticalRole.SUBJECT, 0, ga=True),
                    overt("b", GrammaticalRole.OBJECT, 1),
                    tense=Tense.PAST,
                ),
                utterance(
                    5,
                    overt("b", GrammaticalRole.SUBJECT, 0, ga=True),
                    overt("dev", GrammaticalRole.OBJECT, 1),
                ),
                utterance(
                    7,
                    overt("c", GrammaticalRole.SUBJECT, 0, ga=True),
                    overt("b", GrammaticalRole.OTHERS, 1),
                    zero(GrammaticalRole.OBJECT, 2, types=("person",)),
                    tense=Tense.PAST,
                ),
            ],
        )
        rep = run_discourse(d)
        last = rep.utterances[2]
        assert last.label == "retain"
        assert last.resolution_map[2] == "a"
        assert [r.value for r in last.retrievals] == ["a"]
        assert CUE_TENSE in last.cues


def test_plain_zeros_resolve_locally_and_by_retrieval():
    """Zeros read without `constraints`, the format's plain zero, fit every
    candidate: one resolves to the previous Cf head; the second of two in a
    RETAIN, whose one local candidate the first claims, goes to the former
    centers, where the shift to past tense puts taro first."""

    def expr(role, pos, entity=None):
        form = {"entity": entity} if entity else {"form": "zero"}
        return {**form, "role": role, "pos": pos}

    utterances = [
        ("past", [expr("subject", 0, "taro"), expr("object", 1, "hanako")]),
        ("past", [expr("subject", 0), expr("object", 1, "book")]),
        ("nonpast", [expr("subject", 0, "book")]),
        ("past", [expr("subject", 0, "hanako"), expr("others", 1), expr("others", 2)]),
    ]
    utterances = [
        {"index": i, "tense": tense, "expressions": x} for i, (tense, x) in enumerate(utterances)
    ]
    entities = [{"id": e, "types": ["thing"]} for e in ("taro", "hanako", "book")]
    text = json.dumps([{"id": "plain", "entities": entities, "utterances": utterances}])
    (d,) = parse_corpus(text)
    zeros = [z for u in d.utterances for z in u.zeros]
    assert len(zeros) == 3
    for z in zeros:
        assert z.constraints is None
        assert z.required_cardinality is None
    rep = run_discourse(d)
    resolved = [u.resolutions for u in rep.utterances]
    assert resolved == [(), ((0, "taro"),), (), ((1, "book"), (2, "taro"))]
    assert [u.retrievals for u in rep.utterances[:3]] == [(), (), ()]
    assert rep.utterances[3].label == "retain"
    (r,) = rep.utterances[3].retrievals
    assert (r.position, r.value, r.cues, r.candidates) == (2, "taro", (CUE_TENSE,), ("book", "taro"))


@pytest.mark.xfail(
    strict=True,
    reason="global_retrieve offers entities that the utterance realizes overtly "
    "and antecedents that other zeros of the reading have claimed",
)
def test_retrieval_skips_overt_and_claimed_entities():
    """Local resolution passes over the entities an utterance realizes overtly
    and those other zeros of the same reading have claimed; retrieval should
    too. In u3, the first zero claims book, the one local candidate, and the
    second goes to the former centers book and taro: only taro is left."""

    def expr(role, pos, entity=None):
        form = {"entity": entity} if entity else {"form": "zero"}
        return {**form, "role": role, "pos": pos}

    utterances = [
        [expr("subject", 0, "taro"), expr("object", 1, "hanako")],
        [expr("subject", 0), expr("object", 1, "book")],
        [expr("subject", 0, "book")],
        [expr("subject", 0, "hanako"), expr("others", 1), expr("others", 2)],
    ]
    utterances = [{"index": i, "expressions": x} for i, x in enumerate(utterances)]
    entities = [{"id": e, "types": ["thing"]} for e in ("taro", "hanako", "book")]
    text = json.dumps([{"id": "plain", "entities": entities, "utterances": utterances}])
    (d,) = parse_corpus(text)
    last = run_discourse(d).utterances[3]
    assert last.resolutions == ((1, "book"), (2, "taro"))


@pytest.mark.xfail(
    strict=True,
    reason="a report lists every retrieval made at its utterance, also those "
    "of readings that the accepted one is not (ROADMAP item 23)",
)
@pytest.mark.parametrize("beam", [2, 4, 64])
def test_a_report_lists_only_its_readings_retrievals(beam):
    """The smallest witness found, cut from short_batch seed 1 (discourse
    sb-10). At u14 the ROUGH-SHIFT reading, whose parent's Cf is (e1,),
    finds no local antecedent for its zero and retrieves e2. The accepted
    RETAIN reading resolves the zero to e2 locally and retrieves nothing,
    yet its report lists the other reading's retrieval."""
    past = Tense.PAST
    d = discourse(
        "sb-10",
        [
            entity("e1", "device", "organization"),
            entity("e2", "organization", "person"),
            entity("e4", "device"),
        ],
        [
            utterance(7, overt("e2", GrammaticalRole.SUBJECT, 0), tense=past),
            utterance(9, overt("e1", GrammaticalRole.OBJECT, 1)),
            utterance(10, zero(GrammaticalRole.OBJECT, 0, types=("organization",)), tense=past),
            utterance(
                12, overt("e2", GrammaticalRole.SUBJECT, 0), zero(GrammaticalRole.OBJECT, 1),
                tense=past,
            ),
            utterance(13, zero(GrammaticalRole.OBJECT, 0, types=("device", "person")), tense=past),
            utterance(
                14, overt("e4", GrammaticalRole.SUBJECT, 0),
                zero(GrammaticalRole.OTHERS, 1, types=("person",)),
            ),
        ],
    )
    last = run_discourse(d, EngineConfig(beam=beam)).utterances[-1]
    assert (last.label, last.cues, last.resolutions) == ("retain", (), ((1, "e2"),))
    assert last.retrievals == ()


@pytest.mark.parametrize(
    "given, name",
    [
        ({"beam": 0}, "beam"),
        ({"beam": -5, "zta_enabled": "no"}, "beam"),
        ({"beam": 2.0}, "beam"),
        ({"beam": True}, "beam"),
        ({"zta_enabled": "no"}, "zta_enabled"),
        ({"global_enabled": 1}, "global_enabled"),
    ],
)
def test_engine_config_rejects_what_the_engine_cannot_run(given, name):
    # a beam of 0 used to run a one-utterance discourse and fail on a longer one
    with pytest.raises(ValueError, match=f"^{name} "):
        EngineConfig(**given)


def test_long_chain_hypothesis_and_trace_support_repr_hash_eq():
    # parent and prev links are left out of the dataclass methods, which
    # would otherwise recurse 1500 deep
    def final_state():
        d = random_discourse(random.Random(5), "deep", n_utts=1500)
        state = DiscourseState(discourse=d, config=EngineConfig())
        for u in d.utterances:
            state = coherence_step(state, u)
        return state

    one, two = final_state(), final_state()
    for a, b in [(one.hypotheses[0], two.hypotheses[0]), (one, two)]:
        assert a is not b
        assert repr(a) == repr(b)
        assert a == b
        assert hash(a) == hash(b)
    assert one.hypotheses[0].parent is not None
    assert one.prev is not None
    assert "parent=" not in repr(one.hypotheses[0])
    assert "prev=" not in repr(one)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_utts=st.integers(1, 16),
    beam=st.sampled_from([1, 2, 4]),
)
def test_earlier_states_finalize_to_their_prefix_runs(seed, n_utts, beam):
    # a step links a new state to the old one and changes nothing in it, so
    # once the whole discourse has run, the state after k utterances still
    # finalizes to the report of a run over those k utterances alone
    d = random_discourse(random.Random(seed), f"prefix-{seed}", n_utts=n_utts, zero_rate=0.5)
    config = EngineConfig(beam=beam)
    states = [DiscourseState(discourse=d, config=config)]
    for u in d.utterances:
        states.append(coherence_step(states[-1], u))
    for k, state in enumerate(states):
        prefix = replace(d, utterances=d.utterances[:k])
        assert finalize(state) == run_discourse(prefix, config)


# -- randomized synthetic discourses ----------------------------------------


def test_randomized_discourses_generator_is_well_formed():
    rng = random.Random(20240901)
    for k in range(100):
        assert validate_discourse(random_discourse(rng, f"rand-{k}")) == []


def test_randomized_global_retrieval_only_returns_former_cbs():
    # the former-Cb constraint, over 1000 random discourses
    rng = random.Random(13)
    checked = 0
    for k in range(1000):
        d = random_discourse(rng, f"rand-{k}")
        rep = run_discourse(d)
        former_cbs: set[str] = set()
        pushed = dict(rep.history)
        # reconstruct cumulative cb sets utterance by utterance
        cumulative: set[str] = set()
        by_index = {}
        for u in rep.utterances:
            by_index[u.index] = set(cumulative)
            if u.cb is not None:
                cumulative.add(u.cb)
        for u in rep.utterances:
            for r in u.retrievals:
                if r.value is None:
                    continue
                members = {r.value} if isinstance(r.value, str) else set(r.value)
                assert members <= by_index[u.index], (
                    f"{d.id} u{u.index}: retrieved {members} outside former Cbs "
                    f"{by_index[u.index]}"
                )
                checked += 1
    assert checked > 30  # the corpus actually exercised retrieval


def test_randomized_zta_never_mislabels_its_head():
    rng = random.Random(99)
    fired = 0
    for k in range(400):
        d = random_discourse(rng, f"zta-{k}")
        rep = run_discourse(d)
        for ur in rep.utterances:
            for h in ur.hypotheses:
                if not h.zta_applied:
                    continue
                fired += 1
                assert h.cf[0][1] == "zero-top"
                assert h.transition == "zta-continue"
    assert fired > 0


def test_history_length_bounded_by_distinct_cbs():
    rng = random.Random(5)
    for k in range(200):
        d = random_discourse(rng, f"hist-{k}")
        rep = run_discourse(d)
        distinct = {u.cb for u in rep.utterances if u.cb is not None}
        assert len(rep.history) <= len(distinct) if distinct else len(rep.history) == 0


class TestResolveLocallyShortcuts:
    def test_an_utterance_without_zeros_shares_one_outcome(self):
        cf = (("p", EffectiveRole.SUBJECT),)
        parent = CenteringHypothesis(0, "p", cf, TransitionLabel.CONTINUE, 1)
        u = utterance(1, overt("p", GrammaticalRole.SUBJECT, 0))
        entities = {"p": entity("p", "person")}
        first = _resolve_locally(parent, u, (), entities)
        assert first == ResolutionOutcome((), False)
        assert _resolve_locally(parent, u, (), entities) is first
