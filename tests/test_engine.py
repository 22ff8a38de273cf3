"""Cb history, global retrieval, coherence stepping, randomized properties."""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centering import (
    EngineConfig,
    GrammaticalRole,
    Tense,
    form_set_candidates,
    global_retrieve,
    parse_corpus,
    push_cb,
    run_discourse,
    validate_discourse,
)
from centering._record import fields, replace
from centering.engine import (
    CUE_TENSE,
    DiscourseState,
    HypothesisView,
    Retrieval,
    UtteranceReport,
    _report,
    _resolve_locally,
    coherence_step,
    finalize,
)
from centering.hypotheses import ResolutionOutcome
from centering.model import (
    CbHistoryEntry,
    CenteringHypothesis,
    EffectiveRole,
    Form,
    ReferringExpression,
    ResolutionConstraints,
    TransitionLabel,
)
from centering.resolution import local_resolution
from synth import random_discourse

from conftest import discourse, entity, overt, utterance, zero
from test_golden import load_corpus_gen


class TestPushCb:
    def test_empty_plus_one(self):
        h = push_cb((), "hanako", 0)
        assert tuple(e.entity_id for e in h) == ("hanako",)

    def test_recency_order(self):
        h = push_cb(push_cb((), "hanako", 0), "mitiko", 2)
        assert tuple(e.entity_id for e in h) == ("mitiko", "hanako")

    def test_collapse_to_most_recent(self):
        h = push_cb(push_cb(push_cb((), "hanako", 0), "mitiko", 2), "hanako", 3)
        assert [(e.entity_id, e.index) for e in h] == [("hanako", 3), ("mitiko", 2)]

    def test_collapse_against_list_simulation_oracle(self):
        # oracle: maintain a plain list, remove-then-prepend
        rng = random.Random(7)
        names = ["a", "b", "c", "d"]
        h = ()
        oracle: list[str] = []
        for idx in range(50):
            name = rng.choice(names)
            h = push_cb(h, name, idx)
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
        h = push_cb((), "a", 5)
        with pytest.raises(ValueError):
            push_cb(h, "b", 4)

    @given(st.lists(st.tuples(st.sampled_from("abcde")), min_size=0, max_size=30))
    def test_history_bounded_by_distinct_cbs(self, pushes):
        h = ()
        seen = set()
        for idx, (name,) in enumerate(pushes):
            h = push_cb(h, name, idx)
            seen.add(name)
            assert len(h) <= len(seen)
        assert len(h) == len(seen)
        # strictly descending indices
        indices = [e.index for e in h]
        assert indices == sorted(indices, reverse=True)


def reference_push_cb(history, cb, index, past_tense=False):
    """push_cb as one loop over every entry, with no shortcut for a Cb
    already at the front."""
    if history and index < history[0].index:
        raise ValueError(
            f"history indices must be non-decreasing: {index} after {history[0].index}"
        )
    flag = past_tense
    kept = []
    for entry in history:
        if entry.entity_id == cb:
            flag = flag or entry.past_tense
        else:
            kept.append(entry)
    return (CbHistoryEntry(cb, index, flag), *kept)


#: (Cb, index step, past tense) of one push; a negative step goes back.
PUSHES = st.tuples(st.sampled_from("abcd"), st.integers(-1, 3), st.booleans())


class TestPushCbShortcut:
    @given(st.lists(PUSHES, max_size=25))
    # the Cb at the front again, its past flag sticky; one further back;
    # a new one; and an index that goes back
    @example([("a", 0, True), ("a", 1, False)])
    @example([("a", 0, True), ("b", 1, False), ("a", 0, False)])
    @example([("a", 0, False), ("c", 2, True)])
    @example([("a", 2, False), ("a", -1, True)])
    def test_matches_the_reference_loop(self, pushes):
        history, index = (), 0
        for cb, step, past in pushes:
            index += step
            try:
                want = reference_push_cb(history, cb, index, past)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    push_cb(history, cb, index, past)
                assert str(got.value) == str(exc)
                index -= step
                continue
            history = push_cb(history, cb, index, past)
            assert history == want
            assert all(type(e.past_tense) is bool for e in history)


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


class TestGlobalRetrieve:
    def test_lexical_veto_skips_recent(self):
        h = history(("rie", 3), ("te", 1))
        u = utterance(6, zero(GrammaticalRole.SUBJECT, 0, types=("organization", "person")), tense=Tense.PAST)
        got = global_retrieve(h, u.expressions[0], u, ENTITIES)
        assert got.value == "te"
        assert "LEXICAL" in got.cues

    def test_recency_wins_among_compatible(self):
        h = history(("hf", 5), ("te", 3))
        u = utterance(7, zero(GrammaticalRole.SUBJECT, 0, types=("organization",)))
        got = global_retrieve(h, u.expressions[0], u, ENTITIES)
        assert got.value == "hf"
        assert got.cues == ()

    def test_tense_cue_reorders_equally_compatible(self):
        h = history(("hf", 5, False), ("te", 3, True))
        u = utterance(7, zero(GrammaticalRole.SUBJECT, 0, types=("organization",)), tense=Tense.PAST)
        got = global_retrieve(h, u.expressions[0], u, ENTITIES, prev_tense=Tense.NONPAST)
        assert got.value == "te"
        assert "TENSE" in got.cues

    def test_tense_cue_needs_the_shift(self):
        h = history(("hf", 5, False), ("te", 3, True))
        u = utterance(7, zero(GrammaticalRole.SUBJECT, 0, types=("organization",)), tense=Tense.PAST)
        got = global_retrieve(h, u.expressions[0], u, ENTITIES, prev_tense=Tense.PAST)
        assert got.value == "hf"  # no nonpast->past shift, recency rules
        assert "TENSE" not in got.cues

    def test_empty_history(self):
        u = utterance(3, zero(GrammaticalRole.SUBJECT, 0))
        got = global_retrieve((), u.expressions[0], u, ENTITIES)
        assert got.value is None

    def test_exhausted_history(self):
        h = history(("rie", 2),)
        u = utterance(3, zero(GrammaticalRole.SUBJECT, 0, types=("organization",)))
        got = global_retrieve(h, u.expressions[0], u, ENTITIES)
        assert got.value is None
        assert "LEXICAL" in got.cues

    def test_set_retrieval_with_agreement(self):
        h = history(("pair-a", 4), ("pair-b", 3), ("te", 1))
        u = utterance(5, zero(GrammaticalRole.SUBJECT, 0, types=("device",), cardinality=2))
        got = global_retrieve(h, u.expressions[0], u, ENTITIES)
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
        got = global_retrieve(h, u.expressions[0], u, self.SINGULAR)
        assert got.value == "te"
        assert got.cues == ("AGREEMENT",)
        assert got.candidates == ("crew", "te")

    def test_agreement_takes_precedence_over_lexical(self):
        # vans has the wrong cardinality and the wrong type: counted once
        h = history(("vans", 5), ("te", 3))
        u = utterance(
            7, zero(GrammaticalRole.SUBJECT, 0, types=("organization",), cardinality=1)
        )
        got = global_retrieve(h, u.expressions[0], u, self.SINGULAR)
        assert got.value == "te"
        assert got.cues == ("AGREEMENT",)

    def test_agreement_then_lexical(self):
        # crew fails agreement; rie agrees but has the wrong type
        h = history(("crew", 6), ("rie", 5), ("te", 3))
        u = utterance(
            7, zero(GrammaticalRole.SUBJECT, 0, types=("organization",), cardinality=1)
        )
        got = global_retrieve(h, u.expressions[0], u, self.SINGULAR)
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
        got = global_retrieve(h, u.expressions[0], u, ENTITIES)
        assert got.value == first



def reference_retrieve(history, zero, u, entities, cf_prev, prev_tense):
    """Former-Cb retrieval as two bodies, one for singular and one for plural
    zeros, each with its own agreement and lexical filters: the reference
    that `global_retrieve` must agree with."""
    wanted = zero.constraints.compatible_types if zero.constraints else frozenset()

    def compatible(members):
        if wanted and any(not (m.semantic_types & wanted) for m in members):
            return False
        required = zero.required_cardinality
        return required is None or sum(m.cardinality for m in members) == required

    position = zero.surface_position
    required = zero.required_cardinality
    if required is not None and required >= 2:
        cues = ["AGREEMENT"]
        sets = form_set_candidates(history, cf_prev, required, entities, u.index)
        considered = tuple("+".join(s) for s in sets)
        kept = [s for s in sets if compatible([entities[m] for m in s])]
        if len(kept) < len(sets):
            cues.append("LEXICAL")
        if not kept:
            return Retrieval(position, None, tuple(cues), considered)
        return Retrieval(position, frozenset(kept[0]), tuple(cues), considered, kept[0])

    cues = []
    candidates = [e for e in history if e.entity_id in entities]
    considered = tuple(e.entity_id for e in candidates)
    if required is not None:
        kept = [e for e in candidates if entities[e.entity_id].cardinality == required]
        if len(kept) < len(candidates):
            cues.append("AGREEMENT")
        candidates = kept
    if wanted:
        kept = [e for e in candidates if entities[e.entity_id].semantic_types & wanted]
        if len(kept) < len(candidates):
            cues.append("LEXICAL")
        candidates = kept
    if u.tense is Tense.PAST and prev_tense is Tense.NONPAST:
        reordered = [e for e in candidates if e.past_tense] + [
            e for e in candidates if not e.past_tense
        ]
        if reordered[:1] != candidates[:1]:
            cues.append("TENSE")
        candidates = reordered
    value = candidates[0].entity_id if candidates else None
    return Retrieval(position, value, tuple(cues), considered)


ZERO_TYPES = st.sets(st.sampled_from("pqr"), max_size=2)
ENTITY_TYPES = st.sets(st.sampled_from("pqr"), min_size=1, max_size=2)
TENSES = st.sampled_from([Tense.NONPAST, Tense.PAST])


@st.composite
def retrieval_inputs(draw):
    names = "abcdef"
    # a former Cb with no entity drops out of the pool
    missing = draw(st.sets(st.sampled_from(names), max_size=1))
    entities = {
        eid: entity(eid, *draw(ENTITY_TYPES), cardinality=draw(st.integers(1, 3)))
        for eid in names
        if eid not in missing
    }
    # most recent first, one entry per entity, as push_cb builds it
    cbs = draw(st.permutations(names))[: draw(st.integers(1, len(names)))]
    history = tuple(
        CbHistoryEntry(eid, len(cbs) - k, draw(st.booleans()))
        for k, eid in enumerate(cbs)
    )
    cf_prev = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
    cardinality = draw(st.sampled_from([None, 1, 2, 3]))
    u = utterance(
        len(cbs) + 1,
        zero(GrammaticalRole.SUBJECT, 0, types=draw(ZERO_TYPES), cardinality=cardinality),
        tense=draw(TENSES),
    )
    return history, u.expressions[0], u, entities, cf_prev, draw(TENSES)


@settings(max_examples=400, deadline=None)
@given(retrieval_inputs())
def test_global_retrieve_matches_reference(args):
    got = global_retrieve(*args)
    want = reference_retrieve(*args)
    for f in fields(Retrieval):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


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


def reference_resolve_locally(parent, u, zeros, entities):
    """_resolve_locally as one claims loop, whatever the number of zeros."""
    assigned = {}
    anomalous = False
    claimed = set()
    for z in zeros:
        res = local_resolution(z, parent.cf_ids, u, entities, claimed)
        assigned[z.surface_position] = res.entity_id
        if res.entity_id is not None:
            claimed.add(res.entity_id)
        anomalous = anomalous or res.exhausted
    return ResolutionOutcome(tuple(sorted(assigned.items())), anomalous)


LOCAL_ENTITIES = {
    "p": entity("p", "person"),
    "q": entity("q", "person"),
    "d": entity("d", "device"),
    "o": entity("o", "organization", "person"),
}

#: What a zero asks of its antecedent: nothing at all, an empty restriction,
#: or a type.
CONSTRAINTS = st.sampled_from(
    [
        None,
        ResolutionConstraints(),
        ResolutionConstraints(frozenset({"person"})),
        ResolutionConstraints(frozenset({"device"})),
    ]
)


@st.composite
def local_cases(draw, zero_count):
    # the parent's Cf may name an undeclared entity, which is no candidate
    known = sorted(LOCAL_ENTITIES)
    cf_ids = draw(st.lists(st.sampled_from([*known, "ghost"]), unique=True, max_size=5))
    parent = CenteringHypothesis(
        0,
        cf_ids[0] if cf_ids else None,
        tuple((eid, EffectiveRole.SUBJECT) for eid in cf_ids),
        TransitionLabel.CONTINUE,
        1,
    )
    overt_ids = draw(st.lists(st.sampled_from(known), unique=True, max_size=2))
    roles = draw(
        st.lists(st.sampled_from(GrammaticalRole), min_size=zero_count, max_size=zero_count)
    )
    exprs = [overt(eid, GrammaticalRole.OBJECT, pos) for pos, eid in enumerate(overt_ids)]
    for k, role in enumerate(roles):
        pos = len(overt_ids) + k
        exprs.append(ReferringExpression(None, Form.ZERO, role, pos, constraints=draw(CONSTRAINTS)))
    u = utterance(1, *exprs)
    # most salient first, as coherence_step hands them over
    zeros = tuple(sorted(u.zeros, key=lambda z: (z.role.rank, z.surface_position)))
    return parent, u, zeros


class TestResolveLocallyShortcuts:
    @pytest.mark.parametrize("zero_count", [0, 1, 3])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_matches_the_reference_claims_loop(self, zero_count, data):
        parent, u, zeros = data.draw(local_cases(zero_count))
        got = _resolve_locally(parent, u, zeros, LOCAL_ENTITIES)
        assert got == reference_resolve_locally(parent, u, zeros, LOCAL_ENTITIES)

    def test_an_utterance_without_zeros_shares_one_outcome(self):
        cf = (("p", EffectiveRole.SUBJECT),)
        parent = CenteringHypothesis(0, "p", cf, TransitionLabel.CONTINUE, 1)
        u = utterance(1, overt("p", GrammaticalRole.SUBJECT, 0))
        first = _resolve_locally(parent, u, (), LOCAL_ENTITIES)
        assert first == ResolutionOutcome((), False)
        assert _resolve_locally(parent, u, (), LOCAL_ENTITIES) is first


# -- _report against its reference copy -------------------------------------


def reference_view(h):
    """_view as it was before it read the transition directly."""
    # positional, in declaration order
    return HypothesisView(
        h.cb,
        tuple([(eid, role.display) for eid, role in h.cf]),
        h.transition.display,
        h.zta_applied,
        h.dampened,
        h.anomalous,
    )


def reference_report(step, chosen, ambiguous):
    """_report as it was before its lean path, kept verbatim but for
    `bool(u.zeros)`, which the dropped `Utterance.has_zero` property read:
    every view built in a tuple of a generator's list, the chosen Cf found
    by a search, and the seed, zero and tense flags read through properties
    and `Enum.value`."""
    u = step.utterance
    views = tuple([reference_view(h) for h in step.hypotheses])
    # the chosen reading is one of the step's, and its view holds its Cf
    cf = next(view.cf for h, view in zip(step.hypotheses, views) if h is chosen)
    retrievals = step.retrievals
    if retrievals:
        # one per position, the last made there
        by_pos = {r.position: r for r in retrievals}
        retrievals = tuple([by_pos[p] for p in sorted(by_pos)])
    # positional, in declaration order
    return UtteranceReport(
        step.discourse.id,
        u.index,
        u.tense.value,
        u.text,
        chosen.seed,
        bool(u.zeros),
        chosen.transition.display,
        chosen.cb,
        cf,
        chosen.resolutions,
        chosen.cues,
        retrievals,
        views,
        ambiguous,
    )


def report_cases():
    """Random discourses, two of which (seeds 36 and 37) retrieve twice at
    one position at beam 4, and topic-cue discourses, with plural zeros,
    retrieval and several live readings."""
    for seed in range(40):
        yield random_discourse(random.Random(seed), f"r-{seed}", n_utts=40, zero_rate=0.6)
    gen = load_corpus_gen()
    for seed in range(12):
        data = gen.topic_cue_discourse(random.Random(seed), f"tc-{seed}", 30)
        yield parse_corpus(gen.corpus_text({"discourses": [data]}))[0]


def test_reports_match_their_reference_copy():
    seen = {"one reading": 0, "several readings": 0, "repeated position": 0, "set value": 0}
    for d in report_cases():
        for beam in (1, 4, 64):
            state = DiscourseState(d, EngineConfig(beam=beam))
            for u in d.utterances:
                state = coherence_step(state, u)
                for chosen in state.hypotheses:
                    for ambiguous in (False, True):
                        got = _report(state, chosen, ambiguous)
                        want = reference_report(state, chosen, ambiguous)
                        # repr tells a bool from an int that equals it
                        assert got == want and repr(got) == repr(want)
                    if any(type(v) is frozenset for _, v in chosen.resolutions):
                        seen["set value"] += 1
                many = len(state.hypotheses) > 1
                seen["several readings" if many else "one reading"] += 1
                positions = [r.position for r in state.retrievals]
                seen["repeated position"] += len(positions) > len(set(positions))
    assert all(seen.values()), seen
