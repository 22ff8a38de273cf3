"""Golden-output gate: the engine commands' output is pinned byte for byte.

The pins cover the bundled fixtures and a seeded synthetic corpus (short
discourses plus two long chains): `analyze --format machine` at beams 1, 2
and 4, and `stats`, `resolve` and `eval` in machine format and `analyze` in
text format at the default beam 4. Those corpora rarely hold two readings at
once, so a third corpus, made by the benchmark's topic-cue generator, pins
the multi-reading paths (dampened promotions, parallel readings, retrieval
per reading): `analyze --format machine` at beams 1, 2 and 4, with
`--no-zta` and with `--no-global`, and `stats --format machine`. A corrupt
copy of that corpus pins the diagnostics of `validate --format machine`. A change
that alters any reading, label, resolution or hypothesis listing changes a
hash here; a pure refactor or speed-up must leave every hash as it is.
"""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from centering.cli import main
from centering.corpus import fixture_text
from synth import random_discourse, serialize_corpus

from conftest import FIXTURES

GOLDEN = {
    ("fixtures", 1): "4ea43e639ec3b240fae86d3c968a849bf7b7341331d2c8eaea3fa1d595da2a11",
    ("fixtures", 2): "8f5daff86845dde531c994734ee60d8856f982ce90e681566a50ee03d6ddfad5",
    ("fixtures", 4): "8f5daff86845dde531c994734ee60d8856f982ce90e681566a50ee03d6ddfad5",
    ("synth", 1): "b5d8b003992db1d07103f885a8a07e5423735d3a0c93f12f896e701ef37e9937",
    ("synth", 2): "e30a49aac79a339b6cbe13a8e158891d76948c7e44a04f225cd5414d24eea4b1",
    ("synth", 4): "5821fed233fa99e3b642961abce43d823adb634f1c8a27c4bce8384f206a3349",
}

#: (command, format, corpus) at beam 4.
OTHER_GOLDEN = {
    ("stats", "machine", "fixtures"): (
        "eaa5dd0f1b4a5f06c71c3c8b037b7af76f5427edbbfa2d1e4c728a548095f40b"
    ),
    ("stats", "machine", "synth"): (
        "b1f5ae00256812e2b35e3c61f7b4a7a04311dc727ddb6107cd10dcb910f47b37"
    ),
    ("resolve", "machine", "fixtures"): (
        "b763d991b30ff653ef2f48656b51f72fe98e93a55d1bbcfea130eb3524d2cb72"
    ),
    ("resolve", "machine", "synth"): (
        "ed1234c1574b59b8c318a1f65cbbf181f579346e84c9016f422bfc11d0964bda"
    ),
    ("eval", "machine", "fixtures"): (
        "c642d6f560c2a15e4f167020b82c491e87be325bfc92dc87a0c61f2a3dc28b00"
    ),
    ("eval", "machine", "synth"): (
        "3781b6075de1d53abcd864808381288e1944a8e7fb92cc315246aca5be86f178"
    ),
    ("analyze", "text", "fixtures"): (
        "10c14a3af00819ee2914ca2715e92a9995119a77f58af9fa2eb27c1632274eed"
    ),
    ("analyze", "text", "synth"): (
        "d00030e3c08c7d2e8b30f43127543290c50543405dcbdfd2980bee9873610434"
    ),
}


#: `--format machine` on the topic-cue corpus, by command and other arguments.
TOPIC_CUES_GOLDEN = {
    ("analyze", "--beam", "1"): (
        "d6724305e258ec64592f8b89ef692722a84246ca1289b9fee437350ca3ebeb19"
    ),
    ("analyze", "--beam", "2"): (
        "cfa4ee2ed598731fc9ef4085226a5ff150919ece359dbfc645bca88722e32d37"
    ),
    ("analyze", "--beam", "4"): (
        "4358203c6dcc0a9d0c5b0ffe5d5514dda42b476969729d94f505496e22f65280"
    ),
    ("analyze", "--no-zta"): (
        "1963eabd6501e7c3e2e82148a2dd5e8c950ea7ace981c3161c40026a9bcf7cc7"
    ),
    ("analyze", "--no-global"): (
        "91060cc1db7fb3b37b8134fe2a9148bf1c2971dcd625dad82c86a2ef12410922"
    ),
    ("stats",): (
        "bbf7114692ae327b478696d06f96362528cdba1ff18a6620ac59f8e64b0b5aef"
    ),
}

#: `validate --format machine` on `corrupt_topic_cue_text()`.
VALIDATE_GOLDEN = "686dd85e49f43eef6c72d24d3f4a5ee460744e543b5435fbb262ee545c14270b"


def load_corpus_gen():
    """The benchmark's corpus generator, imported and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus_gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def topic_cue_text():
    """12 topic-cue discourses of 30 utterances: wa topics over zero
    subjects keep several readings alive and dampen every promotion."""
    gen = load_corpus_gen()
    rng = random.Random(1996)
    discourses = [gen.topic_cue_discourse(rng, f"golden-tc-{k}", 30) for k in range(12)]
    return gen.corpus_text({"discourses": discourses})


def corrupt_topic_cue_text():
    """The topic-cue corpus with a bad role tag, entities that are no list,
    an unknown entity and a tense that is no string, in four discourses."""
    data = json.loads(topic_cue_text())
    data["discourses"][2]["utterances"][4]["expressions"][0]["role"] = "bogus"
    data["discourses"][5]["entities"] = 3
    data["discourses"][7]["utterances"][1]["expressions"][1]["entity"] = "nobody"
    data["discourses"][9]["utterances"][3]["tense"] = 7
    return json.dumps(data)


def synth_corpus():
    rng = random.Random(1996)
    short = [random_discourse(rng, f"golden-{k}") for k in range(40)]
    long = [
        random_discourse(rng, f"golden-long-{k}", n_utts=300, n_entities=8, zero_rate=0.5)
        for k in range(2)
    ]
    return short + long


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    fixtures = []
    for name in FIXTURES:
        path = root / f"{name}.centering.json"
        path.write_text(fixture_text(name), encoding="utf-8")
        fixtures.append(str(path))
    synth = root / "synth.centering.json"
    synth.write_text(serialize_corpus(synth_corpus()), encoding="utf-8")
    topic_cues = root / "topic_cues.centering.json"
    topic_cues.write_text(topic_cue_text(), encoding="utf-8")
    return {"fixtures": fixtures, "synth": [str(synth)], "topic_cues": [str(topic_cues)]}


@pytest.mark.parametrize("corpus,beam", sorted(GOLDEN))
def test_machine_output_is_pinned(corpus, beam, corpus_files, capsys):
    code = main(
        ["analyze", "--format", "machine", "--beam", str(beam), *corpus_files[corpus]]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[(corpus, beam)]


@pytest.mark.parametrize("command,format,corpus", sorted(OTHER_GOLDEN))
def test_other_outputs_are_pinned(command, format, corpus, corpus_files, capsys):
    code = main([command, "--format", format, "--beam", "4", *corpus_files[corpus]])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == OTHER_GOLDEN[(command, format, corpus)]


@pytest.mark.parametrize("args", sorted(TOPIC_CUES_GOLDEN), ids=" ".join)
def test_multi_reading_outputs_are_pinned(args, corpus_files, capsys):
    code = main([args[0], "--format", "machine", *args[1:], *corpus_files["topic_cues"]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TOPIC_CUES_GOLDEN[args]


def test_validate_diagnostics_are_pinned(tmp_path, monkeypatch, capsys):
    # a relative path, since each diagnostic's location starts with it
    (tmp_path / "corrupt.centering.json").write_text(corrupt_topic_cue_text(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(["validate", "--format", "machine", "corrupt.centering.json"])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VALIDATE_GOLDEN
