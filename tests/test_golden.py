"""Golden-output gate: `analyze --format machine` is pinned byte for byte.

The pins cover the bundled fixtures and a seeded synthetic corpus (short
discourses plus two long chains) at beams 1, 2 and 4. A change that alters
any reading, label, resolution or hypothesis listing changes a hash here; a
pure refactor or speed-up must leave every hash as it is.
"""

import hashlib
import random

import pytest

from centering.cli import main
from centering.corpus import fixture_text, serialize_corpus
from centering.synth import random_discourse

from conftest import FIXTURES

GOLDEN = {
    ("fixtures", 1): "4ea43e639ec3b240fae86d3c968a849bf7b7341331d2c8eaea3fa1d595da2a11",
    ("fixtures", 2): "8f5daff86845dde531c994734ee60d8856f982ce90e681566a50ee03d6ddfad5",
    ("fixtures", 4): "8f5daff86845dde531c994734ee60d8856f982ce90e681566a50ee03d6ddfad5",
    ("synth", 1): "b5d8b003992db1d07103f885a8a07e5423735d3a0c93f12f896e701ef37e9937",
    ("synth", 2): "e30a49aac79a339b6cbe13a8e158891d76948c7e44a04f225cd5414d24eea4b1",
    ("synth", 4): "5821fed233fa99e3b642961abce43d823adb634f1c8a27c4bce8384f206a3349",
}


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
    return {"fixtures": fixtures, "synth": [str(synth)]}


@pytest.mark.parametrize("corpus,beam", sorted(GOLDEN))
def test_machine_output_is_pinned(corpus, beam, corpus_files, capsys):
    code = main(
        ["analyze", "--format", "machine", "--beam", str(beam), *corpus_files[corpus]]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[(corpus, beam)]
