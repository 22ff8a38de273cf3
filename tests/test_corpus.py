"""Corpus parsing, serialization, diagnostics, and report round-trips."""

import json

import pytest

from centering import (
    CorpusFormatError,
    EngineConfig,
    load_fixture,
    parse_corpus,
    read_reports,
    run_corpus,
    serialize_corpus,
    serialize_reports,
)
from centering.corpus import FIXTURE_NAMES, fixture_text

from conftest import FIXTURES
from test_golden import synth_corpus


class TestParseCorpus:
    def test_fixture_shape(self):
        d = load_fixture("classroom_exam")
        assert d.id == "classroom-exam"
        assert len(d.utterances) == 4
        assert len(d.entities) == 7

    def test_empty_input_is_empty_corpus(self):
        assert parse_corpus("") == []
        assert parse_corpus("   \n  ") == []

    def test_bare_list_accepted(self):
        text = json.dumps([{"id": "d", "entities": [], "utterances": []}])
        got = parse_corpus(text)
        assert [d.id for d in got] == ["d"]

    def test_unknown_entity_reference_names_id_and_location(self):
        text = json.dumps(
            {
                "discourses": [
                    {
                        "id": "d",
                        "entities": [{"id": "a", "types": ["person"]}],
                        "utterances": [
                            {
                                "index": 0,
                                "expressions": [
                                    {"entity": "ghost", "form": "overt", "role": "subject", "pos": 0}
                                ],
                            }
                        ],
                    }
                ]
            }
        )
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(text)
        diags = err.value.diagnostics
        assert any(
            d.code == "unknown-entity"
            and "ghost" in d.message
            and "utterances[0].expressions[0]" in d.location
            for d in diags
        )

    def test_unknown_role_tag(self):
        text = json.dumps(
            {
                "discourses": [
                    {
                        "id": "d",
                        "entities": [{"id": "a", "types": ["person"]}],
                        "utterances": [
                            {
                                "index": 0,
                                "expressions": [
                                    {"entity": "a", "form": "overt", "role": "protagonist", "pos": 0}
                                ],
                            }
                        ],
                    }
                ]
            }
        )
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(text)
        assert any(d.code == "unknown-role" for d in err.value.diagnostics)

    def test_duplicate_utterance_index(self):
        text = json.dumps(
            {
                "discourses": [
                    {
                        "id": "d",
                        "entities": [],
                        "utterances": [
                            {"index": 0, "expressions": []},
                            {"index": 0, "expressions": []},
                        ],
                    }
                ]
            }
        )
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(text)
        assert any(d.code == "duplicate-utterance-index" for d in err.value.diagnostics)

    def test_malformed_json_carries_line_and_column(self):
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus('{"discourses": [}')
        diag = err.value.diagnostics[0]
        assert diag.code == "malformed-json"
        assert "line 1" in diag.location

    def test_atomic_failure_collects_all_diagnostics(self):
        text = json.dumps(
            {
                "discourses": [
                    {
                        "id": "d",
                        "entities": [{"id": "a", "types": ["person"]}],
                        "utterances": [
                            {
                                "index": 0,
                                "expressions": [
                                    {"entity": "g1", "form": "overt", "role": "subject", "pos": 0},
                                    {"entity": "g2", "form": "overt", "role": "nope", "pos": 1},
                                ],
                            }
                        ],
                    }
                ]
            }
        )
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(text)
        kinds = {d.code for d in err.value.diagnostics}
        assert kinds == {"unknown-entity", "unknown-role"}


class TestRoundTrips:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_corpus_round_trip_identity(self, name):
        text = fixture_text(name)
        once = parse_corpus(text)
        again = parse_corpus(serialize_corpus(once))
        assert once == again
        # canonical rendering is a fixed point
        assert serialize_corpus(once) == serialize_corpus(again)

    @pytest.mark.parametrize("name", [*FIXTURES, "golden-synth-beam2"])
    def test_report_machine_round_trip(self, name):
        if name == "golden-synth-beam2":
            reports = run_corpus(synth_corpus(), EngineConfig(beam=2))
        else:
            reports = run_corpus(parse_corpus(fixture_text(name)))
        text = serialize_reports(reports, "machine")
        assert read_reports(text) == reports

    @pytest.mark.parametrize(
        "case,message",
        [
            ("missing-key", "missing key 'cb'"),
            ("not-an-object", "expected an object"),
            ("history-not-a-list", "expected a list"),
            ("index-a-string", "'index': expected an integer, found str"),
            ("seed-an-integer", "'seed': expected a boolean, found int"),
            ("cf-role-a-number", "'cf': expected a string, found int"),
        ],
    )
    def test_bad_report_line_is_a_located_format_error(self, case, message):
        reports = run_corpus([load_fixture("classroom_exam")])
        lines = serialize_reports(reports, "machine").splitlines()

        def edited(line, **changes):
            return json.dumps({**json.loads(line), **changes})

        missing = json.loads(lines[1])
        del missing["cb"]
        lines[1] = {
            "missing-key": json.dumps(missing),
            "not-an-object": "[1, 2]",
            "history-not-a-list": edited(lines[-1], history=5),
            "index-a-string": edited(lines[1], index="x"),
            "seed-an-integer": edited(lines[1], seed=1),
            "cf-role-a-number": edited(lines[1], cf=[["a", 2]]),
        }[case]
        with pytest.raises(CorpusFormatError) as err:
            read_reports("\n".join(lines))
        diag = err.value.diagnostics[0]
        assert diag.location == "line 2"
        assert message in diag.message

    def test_empty_reports_serialize(self):
        assert serialize_reports([], "machine") == ""
        # text format keeps its header even with nothing to report
        text = serialize_reports([], "text")
        assert text.startswith("#") and text.count("\n") == 1


class TestTextReports:
    def test_trace_shows_transitions_in_order(self):
        reports = run_corpus([load_fixture("classroom_exam")])
        text = serialize_reports(reports, "text")
        rows = [line for line in text.splitlines() if line.strip().startswith("u")]
        labels = [row.split(" | ")[-2 if "zeros:" in row else -1] for row in rows]
        assert labels == ["CONTINUE", "CONTINUE", "ZTA-CONTINUE", "CONTINUE"]

    def test_lexical_cue_marked(self):
        reports = run_corpus([load_fixture("etching_factory")])
        text = serialize_reports(reports, "text")
        assert "cue=LEXICAL" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            serialize_reports([], "yaml")


def test_fixture_names_constant_matches_tests():
    assert set(FIXTURE_NAMES) == set(FIXTURES)
