"""The engine against its executable spec (`tests/spec.py`).

One differential property: `run_discourse`, the collected stream of
`stream_discourse`, equals the spec's report, by `==`, and each state of a
run by `coherence_step` holds the spec's live readings, retrievals and
history. It runs at beams 1, 2, 4 and 64, with each ablation, on the
bundled fixtures, on random and topic-cue discourses, and on small
discourses drawn freely (any word order, repeated mentions, gapped
indices, zeros that need one entity or a set); and the fixtures alone
reach every case of `CASES`, so no sample decides that. Two oracle
properties use the spec's unbounded search: no vetoed reading outranks a
compatible one, and a beam as wide as the widest unbounded live set loses
nothing.

What no run reaches is held to the spec part by part, each part imported
from its own module: Cf ranking of set values, which only retrieval gives
and then re-heads; the history's error on an index that goes back;
retrieval over histories that name undeclared entities; and expansion over
live sets whose readings collapse in ties.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spec
from centering import (
    DiscourseEntity,
    EngineConfig,
    Form,
    GrammaticalRole,
    ReferringExpression,
    ResolutionConstraints,
    Tense,
    load_fixture,
    run_discourse,
)
from centering.corpus import FIXTURE_NAMES
from centering.core import rank_cf
from centering.engine import global_retrieve, push_cb
from centering.hypotheses import ResolutionOutcome, expand_hypotheses
from centering.model import CbHistoryEntry, CenteringHypothesis, EffectiveRole, TransitionLabel
from synth import random_discourse

from conftest import discourse, entity, overt, utterance, zero
from test_stream import BEAMS, check_stream, reference_states, topic_cue_discourse

#: The default configuration and the two ablations, `--no-zta` and `--no-global`.
SWITCHES = [{}, {"zta_enabled": False}, {"global_enabled": False}]
#: What the inputs must reach between them.
CASES = {"set-valued retrieval", "tense cue", "vetoed reading", "dampened tie", "unresolved tie"}


@st.composite
def free_discourses(draw):
    """A small well-formed discourse: five entities of one or two types,
    some plural, and up to ten utterances at gapped indices, each of up to
    four expressions in any role and surface order. An overt one names any
    entity, so some are named twice; a zero has no constraints, or types
    and a required cardinality of 1 to 3."""
    types = st.sampled_from(["p", "q", "pq"])
    entities = [DiscourseEntity(eid, draw(types), draw(st.sampled_from([1, 2]))) for eid in "abcde"]
    cardinalities = st.sampled_from([None, None, 1, 2, 3])
    constraints = st.none() | st.builds(ResolutionConstraints, types | st.just(""), cardinalities)
    utterances, index = [], 0
    for _ in range(draw(st.integers(1, 10))):
        index += draw(st.sampled_from([1, 1, 2]))
        roles = draw(st.lists(st.sampled_from(GrammaticalRole), max_size=4))
        exprs = []
        for pos, role in enumerate(roles):
            if role is GrammaticalRole.TOPIC and pos != roles.index(role):
                role = GrammaticalRole.SUBJECT  # one topic an utterance
            wa = role is GrammaticalRole.TOPIC
            if draw(st.booleans()):
                exprs.append(overt(draw(st.sampled_from("abcde")), role, pos, wa=wa))
            else:
                slot = ReferringExpression(None, Form.ZERO, role, pos, wa, False, draw(constraints))
                exprs.append(slot)
        utterances.append(utterance(index, *exprs, tense=draw(st.sampled_from(Tense))))
    return discourse("free", entities, utterances)


SEEDS = st.integers(0, 2**32 - 1)
DISCOURSES = st.one_of(
    st.builds(
        lambda seed, n_utts, zero_rate: random_discourse(
            random.Random(seed), f"r-{seed}", n_utts=n_utts, zero_rate=zero_rate
        ),
        SEEDS, st.integers(0, 120), st.sampled_from([0.35, 0.6]),
    ),
    st.builds(topic_cue_discourse, SEEDS, st.integers(1, 120)),
    free_discourses(),
)


def reached(d, beam, switches):
    """The cases of `CASES` that a spec run reaches."""
    steps, out = spec.steps(d, beam, **switches), set()
    for step in steps:
        for r in step.retrievals:
            if isinstance(r.value, frozenset):
                out.add("set-valued retrieval")
            if spec.TENSE in r.cues:
                out.add("tense cue")
        if len({h.anomalous for h in step.children}) == 2:
            out.add("vetoed reading")
        tied = [spec.chain_key(h)[:2] for h in step.live if h.dampened]
        if len(set(tied)) < len(tied):
            out.add("dampened tie")
    if spec.report(d, steps).unresolved_ambiguity:
        out.add("unresolved tie")
    return out


def readings(live, before):
    """A live set: each reading's fields, and its parent's place in the live
    set `before`."""
    return [
        (
            h.cb, h.cf, h.transition, h.eff_pref, h.dampened, h.anomalous, h.resolutions,
            h.cues, h.ambiguity_keys, h.zta_count,
            next((k for k, p in enumerate(before) if p is h.parent), None),
        )
        for h in live
    ]


def check(d, beam, switches):
    """The engine's stream, report and states equal the spec's."""
    config = EngineConfig(beam=beam, **switches)
    steps = spec.steps(d, beam, **switches)
    want = spec.report(d, steps)
    check_stream(d, config, want)
    states = reference_states(d, config)
    for k, step in enumerate(steps):
        got, before = states[k + 1], steps[k - 1].live if k else []
        assert readings(got.hypotheses, states[k].hypotheses) == readings(step.live, before)
        assert (got.retrievals, got.history) == (tuple(step.retrievals), step.history)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_each_fixture_runs_as_the_spec(name):
    for beam, switches in itertools.product(BEAMS, SWITCHES):
        check(load_fixture(name), beam, switches)


def test_the_fixtures_reach_every_case():
    # fixed inputs, so the cases are reached on every run, unlike a sample
    runs = itertools.product(map(load_fixture, FIXTURE_NAMES), BEAMS, SWITCHES)
    assert set().union(*(reached(*run) for run in runs)) == CASES


@settings(max_examples=200, deadline=None)
@given(DISCOURSES, st.sampled_from(BEAMS), st.sampled_from(SWITCHES))
def test_the_engine_runs_as_the_spec(d, beam, switches):
    check(d, beam, switches)


def assert_no_veto_broken(anomalous):
    """A live set, as its readings' veto flags in rank order: none vetoed
    ahead of a compatible one, and none vetoed beside another reading."""
    assert list(anomalous) == sorted(anomalous)
    assert len(anomalous) < 2 or not any(anomalous)


@settings(max_examples=60, deadline=None)
@given(DISCOURSES, st.sampled_from(SWITCHES))
def test_no_anomalous_reading_outranks_a_compatible_one(d, switches):
    for step in spec.steps(d, None, **switches):
        assert_no_veto_broken([h.anomalous for h in step.live])
    for beam in BEAMS:
        for u in run_discourse(d, EngineConfig(beam=beam, **switches)).utterances:
            assert_no_veto_broken([view.anomalous for view in u.hypotheses])


@settings(max_examples=60, deadline=None)
@given(DISCOURSES, st.sampled_from(SWITCHES), st.sampled_from([0, 1, 40]))
def test_a_beam_as_wide_as_the_unbounded_live_sets_is_exact(d, switches, spare):
    steps = spec.steps(d, None, **switches)
    widest = max((len(step.live) for step in steps), default=1)
    config = EngineConfig(beam=widest + spare, **switches)
    assert run_discourse(d, config) == spec.report(d, steps)


# -- parts, on inputs that no run builds -------------------------------------


#: (zero, role, entity or resolution) of one expression.
SLOTS = st.tuples(
    st.booleans(),
    st.sampled_from(GrammaticalRole),
    st.sampled_from(["a", "b", "c", None, frozenset({"a", "b"}), frozenset({"c"})]),
)


@given(st.lists(SLOTS, max_size=4))
def test_rank_cf_as_the_spec(slots):
    exprs, resolutions = [], {}
    for pos, (is_zero, role, value) in enumerate(slots):
        if is_zero:
            exprs.append(zero(role, pos))
            resolutions[pos] = value
        elif isinstance(value, str):
            exprs.append(overt(value, role, pos))
    u = utterance(0, *exprs)
    assert rank_cf(u, resolutions) == spec.rank_cf(u, resolutions)


#: (Cb, index step, past tense) of one push; a negative step goes back.
PUSHES = st.tuples(st.sampled_from("abcd"), st.integers(-1, 3), st.booleans())


@given(st.lists(PUSHES, max_size=25))
# the Cb at the front again, its past flag sticky; one further back; a new
# one; and an index that goes back
@example([("a", 0, True), ("a", 1, False)])
@example([("a", 0, True), ("b", 1, False), ("a", 0, False)])
@example([("a", 0, False), ("c", 2, True)])
@example([("a", 2, False), ("a", -1, True)])
def test_push_cb_as_the_spec(pushes):
    history, index = (), 0
    for cb, step, past in pushes:
        index += step
        try:
            want = spec.push(history, cb, index, past)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                push_cb(history, cb, index, past)
            assert str(got.value) == str(exc)
            index -= step
            continue
        history = push_cb(history, cb, index, past)
        assert history == want
        assert all(type(e.past_tense) is bool for e in history)


@st.composite
def retrieval_inputs(draw):
    """A history of former Cbs, one of which may be undeclared, and a zero
    that needs one entity, or a set of two or three, or says nothing."""
    names = "abcdef"
    missing = draw(st.sets(st.sampled_from(names), max_size=1))
    types = st.sets(st.sampled_from("pqr"), max_size=2)
    entity_types = st.sets(st.sampled_from("pqr"), min_size=1, max_size=2)
    entities = {
        eid: entity(eid, *draw(entity_types), cardinality=draw(st.integers(1, 3)))
        for eid in names
        if eid not in missing
    }
    # most recent first, one entry per entity, as push_cb builds it
    cbs = draw(st.permutations(names))[: draw(st.integers(1, len(names)))]
    history = tuple(
        CbHistoryEntry(eid, len(cbs) - k, draw(st.booleans())) for k, eid in enumerate(cbs)
    )
    cf_prev = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
    cardinality = draw(st.sampled_from([None, 1, 2, 3]))
    tenses = st.sampled_from(Tense)
    u = utterance(
        len(cbs) + 1,
        zero(GrammaticalRole.SUBJECT, 0, types=draw(types), cardinality=cardinality),
        tense=draw(tenses),
    )
    return history, u.expressions[0], u, entities, cf_prev, draw(tenses)


@settings(max_examples=400, deadline=None)
@given(retrieval_inputs())
def test_global_retrieve_as_the_spec(args):
    assert global_retrieve(*args) == spec.retrieve(*args)


# -- expansion, on live sets that no run builds --------------------------------


@st.composite
def live_sets(draw):
    """A live set over a small pool of Cfs and keys, so that parents often
    spawn the same reading, with its expansion's utterance and outcomes.
    Every grandparent has the same preference, so each parent's rank in
    its live set is 0."""
    grand = [
        CenteringHypothesis(0, "a", (("a", EffectiveRole.SUBJECT),), label, 1)
        for label in (TransitionLabel.CONTINUE, TransitionLabel.ZTA_CONTINUE)
    ]
    keys = st.sampled_from([frozenset(), frozenset({"u0"}), frozenset({"u0", "u1"})])
    parents = []
    for _ in range(draw(st.integers(1, 5))):
        cf_ids = draw(st.sampled_from([("a", "b"), ("a", "b", "c"), ("b", "a"), ("c",), ()]))
        cb = draw(st.sampled_from([None, *cf_ids[:1], "d"]))
        cf = tuple((eid, EffectiveRole.SUBJECT) for eid in cf_ids)
        pref, grandparent = draw(st.integers(1, 3)), draw(st.sampled_from(grand))
        label, own_keys = TransitionLabel.CONTINUE, draw(keys)
        parents.append(
            CenteringHypothesis(1, cb, cf, label, pref, parent=grandparent, ambiguity_keys=own_keys)
        )
    if draw(st.booleans()):
        exprs = [overt("d", GrammaticalRole.TOPIC, 0, wa=True)]
    else:
        exprs = [overt("d", GrammaticalRole.SUBJECT, 0, ga=True)]
    roles = draw(st.lists(st.sampled_from(GrammaticalRole), max_size=2))
    exprs += [zero(role, k + 1) for k, role in enumerate(roles)]
    u = utterance(2, *exprs)
    picks = st.sampled_from([None, "a", "b", "c", "d", frozenset({"a", "b"})])
    outs = []
    for _ in parents:
        assignments = tuple((z.surface_position, draw(picks)) for z in u.zeros)
        outs.append(ResolutionOutcome(assignments, draw(st.booleans())))
    return parents, u, outs


@settings(max_examples=300)
@given(live_sets(), st.booleans())
def test_expand_hypotheses_as_the_spec(case, zta_enabled):
    parents, u, outs = case
    got = expand_hypotheses(parents, u, outs, zta_enabled=zta_enabled)
    pairs = [(out.assignments, out.anomalous) for out in outs]
    want = spec.expand(parents, u, pairs, zta_enabled)
    assert readings(got, parents) == readings(want, parents)
