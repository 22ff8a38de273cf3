"""The streamed run: each utterance's report is handed on once every live
reading agrees on it, and the reports equal those of the whole-chain
finalize that the engine used before it streamed. What the commands fold
from the stream equals what they made from the whole reports."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centering.engine as engine
from centering import (
    EngineConfig,
    evaluate_gold,
    load_fixture,
    parse_corpus,
    run_corpus,
    run_discourse,
    tabulate_disambiguation,
    tabulate_transitions,
)
from centering._record import replace
from centering.analysis import tabulate, zero_outcomes
from centering.cli import _resolution_lines
from centering.corpus import FIXTURE_NAMES, report_lines, serialize_reports
from centering.engine import (
    DiscourseReport,
    DiscourseState,
    UtteranceReport,
    _view,
    coherence_step,
    stream_discourse,
)
from centering.hypotheses import rank_key
from synth import random_discourse

from test_golden import load_corpus_gen

#: Every beam the engine is run at here, and both ablations.
BEAMS = [1, 2, 4, 64]
SWITCHES = [{}, {"zta_enabled": False}, {"global_enabled": False}]


def reference_finalize(state):
    """The whole-chain finalize, as the engine had it before it streamed:
    it walks every state back to the initial one and every reading back to
    the seed."""
    discourse = state.discourse
    if state.prev is None:
        return DiscourseReport(discourse.id, (), False, ())

    best = state.hypotheses[0]
    best_key = rank_key(best)[:2]
    readings = [
        h
        for h in state.hypotheses
        if rank_key(h)[:2] == best_key
        or (h.ambiguity_keys & best.ambiguity_keys and not h.anomalous)
    ]
    stats_path = min(readings, key=lambda h: (h.zta_count, rank_key(h)))

    steps = []
    node = state
    while node.prev is not None:
        steps.append(node)
        node = node.prev
    if len(readings) > 1:
        ambiguous = [
            len({h.resolutions for h in nodes}) > 1
            for nodes in zip(*(r.ancestry() for r in readings), strict=True)
        ]
    else:
        ambiguous = [False] * len(steps)

    reports = []
    for step, chosen, flag in zip(steps, stats_path.ancestry(), ambiguous, strict=True):
        u = step.utterance
        views = tuple(_view(h) for h in step.hypotheses)
        cf = next(view.cf for h, view in zip(step.hypotheses, views) if h is chosen)
        retrievals = step.retrievals
        if retrievals:
            by_pos = {r.position: r for r in retrievals}
            retrievals = tuple(by_pos[p] for p in sorted(by_pos))
        reports.append(
            UtteranceReport(
                discourse_id=discourse.id,
                index=u.index,
                tense=u.tense.value,
                text=u.text,
                seed=chosen.seed,
                has_zero=u.has_zero,
                label=chosen.transition.display,
                cb=chosen.cb,
                cf=cf,
                resolutions=chosen.resolutions,
                cues=chosen.cues,
                retrievals=retrievals,
                hypotheses=views,
                ambiguous=flag,
            )
        )
    reports.reverse()
    return DiscourseReport(
        discourse_id=discourse.id,
        utterances=tuple(reports),
        unresolved_ambiguity=any(ambiguous),
        history=tuple((e.entity_id, e.index) for e in state.history),
    )


def reference_states(discourse, config):
    """Every state of a run by `coherence_step` alone, which cuts nothing:
    the initial state first."""
    states = [DiscourseState(discourse, config)]
    for u in discourse.utterances:
        states.append(coherence_step(states[-1], u))
    return states


def streamed(discourse, config):
    """The items of `stream_discourse`, each with the number of steps the
    engine had run when it was handed on."""
    steps = []
    real = engine.coherence_step

    def counted(state, u):
        steps.append(u)
        return real(state, u)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "coherence_step", counted)
        return [(item, len(steps)) for item in stream_discourse(discourse, config)]


def check_stream(discourse, config):
    """The streamed reports equal the reference's, none is handed on before
    every live reading shares its node, and the tail report holds the rest.
    Returns the reference report and the number of utterances that the tail
    held."""
    states = reference_states(discourse, config)
    want = reference_finalize(states[-1])
    items = streamed(discourse, config)
    tail, done = items.pop()
    assert type(tail) is DiscourseReport and done == len(discourse.utterances)
    assert all(type(item) is UtteranceReport for item, _ in items)
    got = tuple(item for item, _ in items) + tail.utterances
    assert got == want.utterances
    assert (tail.unresolved_ambiguity, tail.history) == (
        want.unresolved_ambiguity,
        want.history,
    )
    for position, (item, done) in enumerate(items, start=1):
        # the reading of each live one at the step of the utterance handed on
        nodes = []
        for h in states[done].hypotheses:
            for _ in range(done - position):
                h = h.parent
            nodes.append(h)
        assert all(h is nodes[0] for h in nodes), (item.index, done)
        assert not item.ambiguous
    assert run_discourse(discourse, config) == want
    return want, len(tail.utterances)


def topic_cue_discourse(seed, n_utts):
    gen = load_corpus_gen()
    data = gen.topic_cue_discourse(random.Random(seed), f"tc-{seed}", n_utts)
    return parse_corpus(gen.corpus_text({"discourses": [data]}))[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_utts=st.integers(0, 120),
    zero_rate=st.sampled_from([0.35, 0.6]),
    beam=st.sampled_from(BEAMS),
    switches=st.sampled_from(SWITCHES),
)
def test_random_discourses_stream_the_reference_reports(
    seed, n_utts, zero_rate, beam, switches
):
    d = random_discourse(random.Random(seed), f"r-{seed}", n_utts=n_utts, zero_rate=zero_rate)
    check_stream(d, EngineConfig(beam=beam, **switches))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_utts=st.integers(1, 120),
    beam=st.sampled_from(BEAMS),
    switches=st.sampled_from(SWITCHES),
)
def test_topic_cue_discourses_stream_the_reference_reports(seed, n_utts, beam, switches):
    check_stream(topic_cue_discourse(seed, n_utts), EngineConfig(beam=beam, **switches))


@pytest.mark.parametrize("beam", [4, 64])
def test_an_unresolved_tie_at_the_end_is_reported_by_the_tail(beam):
    # topic-cue stories dampen nearly every promotion, and at a beam that
    # keeps both readings of a tie some end on one that nothing resolves:
    # those utterances are flagged ambiguous, and only finalize, which sees
    # the final readings, can report them
    ended_on_a_tie = 0
    for seed in range(40):
        want, tail = check_stream(topic_cue_discourse(seed, 80), EngineConfig(beam=beam))
        assert tail < 80
        if want.unresolved_ambiguity:
            assert tail and any(u.ambiguous for u in want.utterances[-tail:])
            ended_on_a_tie += 1
    assert ended_on_a_tie


def test_a_long_discourse_is_handed_on_before_it_ends():
    d = random_discourse(random.Random(3), "long", n_utts=400, n_entities=6)
    items = streamed(d, EngineConfig())
    tail = items[-1][0]
    assert len(tail.utterances) < 64
    assert min(done for _, done in items) < 64


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("beam", BEAMS)
def test_fixtures_stream_the_reference_reports(name, beam):
    check_stream(load_fixture(name), EngineConfig(beam=beam))


@pytest.mark.parametrize("format", ["text", "machine"])
def test_lines_rendered_from_the_stream_are_the_serialized_report(format):
    rng = random.Random(11)
    corpus = [random_discourse(rng, f"lines-{k}", n_utts=n) for k, n in enumerate([0, 1, 40, 90])]
    corpus += [topic_cue_discourse(k, 70) for k in range(3)]
    lines = [line for d in corpus for line in report_lines(stream_discourse(d), format)]
    assert all(line.endswith("\n") and "\n" not in line[:-1] for line in lines)
    whole = serialize_reports(run_corpus(corpus), format)
    assert whole == serialize_reports([], format) + "".join(lines)


def fold_corpus():
    """Random discourses of 64 to 120 utterances, long enough that the
    stream hands them on in several runs, and topic-cue discourses."""
    rng = random.Random(13)
    corpus = [
        random_discourse(rng, f"fold-{k}", n_utts=n, zero_rate=0.5)
        for k, n in enumerate([64, 90, 120])
    ]
    return corpus + [topic_cue_discourse(k, n) for k, n in enumerate([30, 70, 100])]


FOLD_CORPUS = fold_corpus()


def check_pairing_errors(discourse, other, config):
    """A stream of `discourse`'s reports paired wrongly, by a wrong
    discourse id, a missing report or a wrong index, raises the ValueError
    that evaluate_gold gives for the whole report."""
    whole = run_corpus([discourse], config)[0]
    reports = whole.utterances
    wrong_index = replace(reports[1], index=reports[1].index + 1)
    cases = {
        "wrong discourse": (other, reports),
        "missing first": (discourse, reports[1:]),
        "missing last": (discourse, reports[:-1]),
        "wrong index": (discourse, (reports[0], wrong_index, *reports[2:])),
    }
    messages = {}
    for case, (paired, utterances) in cases.items():
        # handed on but for the last few, which the tail holds
        stream = [*utterances[:-5], replace(whole, utterances=utterances[-5:])]
        with pytest.raises(ValueError) as streamed:
            zero_outcomes(paired, iter(stream))
        with pytest.raises(ValueError) as collected:
            evaluate_gold([replace(whole, utterances=utterances)], [paired])
        assert str(streamed.value) == str(collected.value), case
        messages[case] = str(streamed.value)
    assert messages == {
        "wrong discourse": f"report of '{discourse.id}' paired with discourse '{other.id}'",
        "missing first": f"discourse '{discourse.id}': report of u1 paired with u0",
        "missing last": "zip() argument 2 is longer than argument 1",
        "wrong index": f"discourse '{discourse.id}': report of u2 paired with u1",
    }


@pytest.mark.parametrize("beam", [1, 2, 4])
def test_stats_and_resolve_fold_the_stream_as_the_whole_reports(beam):
    # stats, resolve and eval fold each discourse's stream (cli); what they
    # fold must be what run_corpus's whole reports give, and eval's pairing
    # of a stream must fail as it does for the whole reports
    config = EngineConfig(beam=beam)
    for d in FOLD_CORPUS:
        if len(d.utterances) >= 64:
            # handed on before it ends, so the folds meet utterance reports
            assert type(next(stream_discourse(d, config))) is UtteranceReport
        reports = run_corpus([d], config)
        assert tabulate(stream_discourse(d, config)) == (
            tabulate_transitions(reports),
            tabulate_disambiguation(reports),
        )
        for format in ("text", "machine"):
            got = _resolution_lines(stream_discourse(d, config), format)
            assert got == _resolution_lines(reports, format)
        got = zero_outcomes(d, stream_discourse(d, config))
        assert tuple(got) == evaluate_gold(reports, [d]).details
    check_pairing_errors(FOLD_CORPUS[0], FOLD_CORPUS[1], config)
