"""Growth axes: a valid discourse grown along one dimension at a time, at n
and several times n, must run at flat cost. The engine's axes measure its
tracemalloc peak while its caller drops each report as it comes.

Axes: utterances per discourse, distinct former centers (a chain in which
every utterance makes a new entity its center), the decoded JSON beside
the built discourse (building a long discourse read from a corpus document
against walking it alone), and discourses per file (`analyze` in process
on a file of 100 topic-cue discourses against one of 400)."""

import gc
import io
import os
import random
import sys
import tracemalloc

from centering import (
    Discourse,
    DiscourseEntity,
    Form,
    GrammaticalRole,
    ReferringExpression,
    Utterance,
)
import centering.cli as cli_mod
from centering.corpus import build_discourse, walk
from centering.engine import stream_discourse
from synth import random_discourse

from test_golden import load_corpus_gen


def engine_peak(discourse):
    """The tracemalloc peak of streaming `discourse` through the engine at
    the default config, each report dropped as it comes.

    A full collection every 64 reports clears the interpreter's free lists,
    so that the peak counts what the engine holds, not freed blocks that
    CPython keeps for reuse (they grow slowly over a long run, by 0.1 to
    0.2 MB over 19,200 utterances). The heap is frozen first, so that each
    collection only walks what the run made."""
    gc.collect()
    gc.freeze()
    tracemalloc.start()
    try:
        for k, _ in enumerate(stream_discourse(discourse)):
            if k % 64 == 0:
                gc.collect()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.unfreeze()


def center_chain(n_utts):
    """Utterance i realizes e_i as subject and e_(i+1) as object, so each
    step makes a new entity the center and the former centers keep growing."""
    entities = tuple(DiscourseEntity(f"e{i}", frozenset({"person"}), 1) for i in range(n_utts + 1))
    subject, obj = GrammaticalRole.SUBJECT, GrammaticalRole.OBJECT
    utterances = tuple(
        Utterance(
            i,
            (
                ReferringExpression(f"e{i}", Form.OVERT_NP, subject, 0),
                ReferringExpression(f"e{i + 1}", Form.OVERT_NP, obj, 1),
            ),
        )
        for i in range(n_utts)
    )
    return Discourse(f"chain-{n_utts}", entities, utterances)


def test_memory_does_not_grow_with_the_utterances_of_a_discourse():
    # The states and parent links behind each settled utterance are cut, so
    # a discourse runs in memory bounded by the beam, not by its length.
    # Holding every state until the end, the peak was 1.5 MB at 1,200
    # utterances and 29.8 MB at 19,200.
    peaks = {}
    for n in (1200, 4800, 19200):
        d = random_discourse(random.Random(1), f"long-{n}", n_utts=n, n_entities=6)
        peaks[n] = engine_peak(d)
    per_utterance = {n: round(peak / n, 1) for n, peak in peaks.items()}
    assert peaks[4800] <= 2 * peaks[1200], (peaks, per_utterance)
    assert peaks[19200] <= 2 * peaks[1200], (peaks, per_utterance)


def test_memory_grows_at_most_linearly_with_the_former_centers():
    # Each state holds its own copy of the former-center history, so the
    # peak still grows with the number of distinct former centers, but no
    # longer with that number times the states kept: 4.9 MB at 1,000 and
    # 68.4 MB at 4,000 (14x) when every state was kept to the end.
    peaks = {n: engine_peak(center_chain(n)) for n in (1000, 4000)}
    per_utterance = {n: round(peak / n, 1) for n, peak in peaks.items()}
    assert peaks[4000] < 6 * peaks[1000], (peaks, per_utterance)


def walk_peak(data, build):
    """The tracemalloc peak of walking the corpus document `data` from a
    binary stream, and building each discourse if `build`."""
    gc.collect()
    tracemalloc.start()
    try:
        for r, item in walk(io.BytesIO(data)):
            built = build_discourse(r, item) if build else None
            del item, built
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_discourse_is_not_built_beside_its_decoded_json():
    # build_discourse drops each decoded utterance as it builds it, so
    # building a discourse takes no more room than decoding it did. Built
    # beside the whole decoded discourse and the text, the peak was 1.34
    # times that of the walk alone at 1,200 and at 4,800 utterances.
    gen = load_corpus_gen()
    ratios = {}
    for n in (1200, 4800):
        d = gen.random_discourse(random.Random(1), f"long-{n}", n, 6, 0.35)
        data = gen.corpus_text({"discourses": [d]}).encode()
        ratios[n] = round(walk_peak(data, True) / walk_peak(data, False), 3)
    assert all(ratio <= 1.1 for ratio in ratios.values()), ratios


def analyze_peak(path, monkeypatch):
    """The tracemalloc peak of `analyze --format machine` on `path` in
    process, its output sent to the null device. A full collection before
    each discourse clears the interpreter's free lists, as in
    `engine_peak`: the heap is frozen by the command, so each collection
    only walks what the run made."""
    real = cli_mod.stream_discourse

    def collecting(discourse, config):
        gc.collect()
        return real(discourse, config)

    monkeypatch.setattr(cli_mod, "_cpus", lambda: [0])
    monkeypatch.setattr(cli_mod, "stream_discourse", collecting)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert cli_mod.main(["analyze", "--format", "machine", str(path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            monkeypatch.undo()


def test_analyze_grows_by_a_head_entry_per_discourse_not_its_text(tmp_path, monkeypatch):
    # Each discourse's rendered text is spooled to a temporary file as it
    # comes, so a file of more discourses costs only what each one leaves
    # in the head and in the walk's set of ids: about 390 bytes (0.23 MB at
    # 100, 0.35 MB at 400). Holding every discourse's text until the last
    # diagnostic was known, the peak grew by 6.1 KB per discourse, from
    # 0.72 MB at 100 to 2.56 MB at 400.
    gen = load_corpus_gen()
    rng = random.Random("discourses-per-file")
    discourses = [gen.topic_cue_discourse(rng, f"tc-{k}", 10) for k in range(400)]
    peaks = {}
    for n in (10, 100, 400):  # 10: first-use caches out of the measurement
        path = tmp_path / f"topic-cues-{n}.centering.json"
        path.write_text(gen.corpus_text({"discourses": discourses[:n]}), encoding="utf-8")
        peaks[n] = analyze_peak(path, monkeypatch)
    per_discourse = (peaks[400] - peaks[100]) / 300
    assert per_discourse <= 1024, (peaks, per_discourse)
