"""Corpus parsing, serialization, diagnostics, and report round-trips."""

import json
import os
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from centering import (
    CorpusFormatError,
    EngineConfig,
    load_fixture,
    parse_corpus,
    read_reports,
    run_corpus,
    serialize_reports,
)
import centering.corpus as corpus_mod
from centering._record import is_record, replace
from centering.corpus import (
    _FIELDS,
    FIXTURE_NAMES,
    build_discourse,
    fixture_text,
    read_document,
    read_file,
)
from synth import serialize_corpus

from conftest import FIXTURES
from test_cli import run_cli, topic_cues_text, with_cpus
from test_golden import load_corpus_gen, synth_corpus


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


def _one_expression(utterance=None, expression=None):
    """A corpus of one utterance holding one overt subject, with the keys of
    `utterance` and `expression` set on them."""
    expr = {"entity": "a", "form": "overt", "role": "subject", "pos": 0, **(expression or {})}
    utt = {"index": 0, "tense": "past", "expressions": [expr], **(utterance or {})}
    entities = [{"id": "a", "types": ["person"]}]
    return json.dumps({"discourses": [{"id": "d", "entities": entities, "utterances": [utt]}]})


class TestTagDiagnostics:
    """`role`, `form` and `tense` are strings. A value of another type is a
    malformed structure, reported at its key and nowhere else; JSON null
    counts as absent, as it does for every other key."""

    EXPR = "discourses[0].utterances[0].expressions[0]"

    @pytest.mark.parametrize(
        "utterance,expression,where,key",
        [
            ({}, {"role": ["subject"]}, EXPR, "role"),
            ({}, {"role": 2}, EXPR, "role"),
            ({}, {"form": {"zero": True}}, EXPR, "form"),
            ({}, {"form": False}, EXPR, "form"),
            ({"tense": ["past"]}, {}, "discourses[0].utterances[0]", "tense"),
            ({"tense": 1}, {}, "discourses[0].utterances[0]", "tense"),
        ],
        ids=["role-list", "role-int", "form-object", "form-bool", "tense-list", "tense-int"],
    )
    def test_a_tag_that_is_not_a_string_is_malformed(self, utterance, expression, where, key):
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(_one_expression(utterance, expression))
        got = [(d.code, d.location, d.message) for d in err.value.diagnostics]
        assert got == [("malformed-structure", f"{where}.{key}", f"'{key}' must be a string")]

    @pytest.mark.parametrize(
        "utterance,expression",
        [({"tense": None}, {}), ({}, {"form": None})],
        ids=["tense", "form"],
    )
    def test_a_null_tag_is_an_absent_one(self, utterance, expression):
        absent = json.loads(_one_expression())
        part = absent["discourses"][0]["utterances"][0]
        for key in utterance:
            del part[key]
        for key in expression:
            del part["expressions"][0][key]
        assert parse_corpus(_one_expression(utterance, expression)) == parse_corpus(
            json.dumps(absent)
        )

    @pytest.mark.parametrize("role", [None, "absent"])
    def test_a_null_or_absent_role_is_unknown(self, role):
        text = _one_expression(expression={"role": role})
        if role == "absent":
            text = text.replace('"role": "absent", ', "")
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(text)
        got = [(d.code, d.location, d.message) for d in err.value.diagnostics]
        assert got == [("unknown-role", f"{self.EXPR}.role", "unknown role tag ''")]

    def test_tags_are_read_in_any_case(self):
        text = _one_expression({"tense": "PAST"}, {"form": "Overt", "role": "SUBJECT"})
        assert parse_corpus(text) == parse_corpus(_one_expression())


class TestKeyDiagnostics:
    """Every other key of an expression has one type too. A value of another
    type gives one malformed-structure diagnostic at its key, and the key
    reads as absent; several bad keys are listed in a fixed order."""

    EXPR = "discourses[0].utterances[0].expressions[0]"

    @pytest.mark.parametrize(
        "expression,key,kind",
        [
            ({"form": "zero", "entity": 5}, "entity", "a string"),
            ({"form": "zero", "entity": ["a"]}, "entity", "a string"),
            ({"constraints": "x"}, "constraints", "an object"),
            ({"form": "zero", "constraints": ["x"]}, "constraints", "an object"),
            ({"pos": True}, "pos", "an integer"),
            ({"pos": "1"}, "pos", "an integer"),
            ({"pos": 1.0}, "pos", "an integer"),
            ({"wa": 1}, "wa", "a boolean"),
            ({"wa": "true"}, "wa", "a boolean"),
            ({"ga": 0}, "ga", "a boolean"),
            ({"ga": [True]}, "ga", "a boolean"),
        ],
        ids=[
            "entity-int", "entity-list", "constraints-string", "constraints-list",
            "pos-bool", "pos-string", "pos-float", "wa-int", "wa-string", "ga-int",
            "ga-list",
        ],
    )
    def test_a_value_of_the_wrong_type_is_malformed(self, expression, key, kind):
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(_one_expression(expression=expression))
        got = [(d.code, d.location, d.message) for d in err.value.diagnostics]
        assert got == [("malformed-structure", f"{self.EXPR}.{key}", f"'{key}' must be {kind}")]

    def test_an_overt_entity_of_the_wrong_type_leaves_the_np_unresolved(self):
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(_one_expression(expression={"entity": 5}))
        got = [(d.code, d.location) for d in err.value.diagnostics]
        where = f"{self.EXPR}.entity"
        assert got == [("malformed-structure", where), ("unresolved-overt", where)]

    def test_bad_keys_are_listed_in_order(self):
        constraints = {"types": "x", "cardinality": True, "gold": 3}
        expression = {
            "ga": "yes", "wa": 1, "pos": True, "constraints": constraints,
            "entity": 5, "form": False, "role": 2,
        }
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(_one_expression(expression=expression))
        got = [(d.code, d.location, d.message) for d in err.value.diagnostics]
        cons = f"{self.EXPR}.constraints"
        assert got == [
            ("malformed-structure", f"{self.EXPR}.role", "'role' must be a string"),
            ("malformed-structure", f"{self.EXPR}.form", "'form' must be a string"),
            ("malformed-structure", f"{self.EXPR}.entity", "'entity' must be a string"),
            ("malformed-structure", f"{cons}.types", "'types' must be a list of strings"),
            ("malformed-structure", f"{cons}.cardinality", "'cardinality' must be an integer"),
            ("malformed-structure", f"{cons}.gold", "'gold' must be an id or a list of ids"),
            ("malformed-structure", f"{self.EXPR}.pos", "'pos' must be an integer"),
            ("malformed-structure", f"{self.EXPR}.wa", "'wa' must be a boolean"),
            ("malformed-structure", f"{self.EXPR}.ga", "'ga' must be a boolean"),
        ]

    @pytest.mark.parametrize("key", ["entity", "constraints", "pos", "wa", "ga"])
    def test_a_null_key_is_an_absent_one(self, key):
        absent = json.loads(_one_expression(expression={"form": "zero"}))
        absent["discourses"][0]["utterances"][0]["expressions"][0].pop(key, None)
        null = _one_expression(expression={"form": "zero", key: None})
        assert parse_corpus(null) == parse_corpus(json.dumps(absent))


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
            ("cf-pair-of-three", "'cf': expected 2 items, found 3"),
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
            "cf-pair-of-three": edited(lines[1], cf=[["a", "subject", "x"]]),
        }[case]
        with pytest.raises(CorpusFormatError) as err:
            read_reports("\n".join(lines))
        diag = err.value.diagnostics[0]
        assert diag.location == "line 2"
        assert message in diag.message

    @staticmethod
    def two_blocks():
        """The machine lines of two fixture reports, and the number of
        utterance lines in the first block."""
        reports = run_corpus([load_fixture(n) for n in ("classroom_exam", "bank_pos")])
        return serialize_reports(reports, "machine").splitlines(), len(reports[0].utterances)

    @staticmethod
    def layout_error(lines):
        with pytest.raises(CorpusFormatError) as err:
            read_reports("\n".join(lines))
        (diag,) = err.value.diagnostics
        assert diag.code == "malformed-record"
        return diag

    def test_an_utterance_line_of_another_discourse_is_malformed(self):
        lines, n = self.two_blocks()
        del lines[n]  # the first discourse line: both blocks' utterances meet
        diag = self.layout_error(lines)
        assert diag.location == f"line {n + 1}"
        assert diag.message == (
            "utterance line of 'bank-pos' after the utterance lines of 'classroom-exam'"
        )

    def test_a_discourse_line_after_another_discourse_s_utterances_is_malformed(self):
        lines, n = self.two_blocks()
        lines[n], lines[-1] = lines[-1], lines[n]  # the discourse lines swapped
        diag = self.layout_error(lines)
        assert diag.location == f"line {n + 1}"
        assert diag.message == (
            "discourse line of 'bank-pos' after the utterance lines of 'classroom-exam'"
        )

    def test_utterance_lines_at_the_end_are_malformed(self):
        lines, n = self.two_blocks()
        diag = self.layout_error(lines[:-1])
        # located at the first utterance line of the second block
        assert diag.location == f"line {n + 2}"
        assert diag.message == "utterance lines of 'bank-pos' without their discourse line"

    def test_blank_lines_are_skipped_and_counted(self):
        lines, n = self.two_blocks()
        reports = read_reports("\n".join(lines))
        spaced = ["", *lines[: n + 1], "  \t", *lines[n + 1 :], ""]
        assert read_reports("\n".join(spaced)) == reports
        del spaced[n + 1]  # the first discourse line
        diag = self.layout_error(spaced)
        assert diag.location == f"line {n + 3}"

    @pytest.mark.parametrize("case", ["nested-too-deep", "integer-too-long"])
    def test_report_line_the_decoder_cannot_take_is_a_located_format_error(self, case):
        lines = serialize_reports(run_corpus([load_fixture("classroom_exam")]), "machine")
        lines = lines.splitlines()
        if case == "nested-too-deep":
            lines[1] = '{"record": "utterance", "cf": ' + "[" * 100000
        else:
            digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if not digits:
                pytest.skip("integers have no digit limit in this interpreter")
            lines[1] = '{"record": "utterance", "index": ' + "7" * (digits + 1) + "}"
        with pytest.raises(CorpusFormatError) as err:
            read_reports("\n".join(lines))
        diag = err.value.diagnostics[0]
        assert (diag.code, diag.location) == ("malformed-json", "line 2")

    @pytest.mark.parametrize("corpus", ["fixtures", "topic-cues"])
    def test_machine_lines_equal_a_sorted_rendering_of_the_fields(self, corpus):
        """The writer builds each object with its keys already in order and
        encodes it without sorting; each line must equal the plain rendering
        of the field table with sorted keys."""
        if corpus == "fixtures":
            discourses = [d for name in FIXTURES for d in parse_corpus(fixture_text(name))]
        else:
            discourses = parse_corpus(topic_cues_text(20))
        reports = run_corpus(discourses)

        def plain(value):
            if isinstance(value, frozenset):
                return sorted(value)
            if isinstance(value, tuple):
                return [plain(v) for v in value]
            if is_record(value):
                return {key: plain(getattr(value, name)) for name, key in _FIELDS[type(value)]}
            return value

        want = []
        for rep in reports:
            for u in rep.utterances:
                want.append(json.dumps({"record": "utterance", **plain(u)}, sort_keys=True))
            want.append(json.dumps({"record": "discourse", **plain(rep)}, sort_keys=True))
        assert serialize_reports(reports, "machine").splitlines() == want
        if corpus == "topic-cues":
            # the corpus reaches the writer's set-valued cases
            resolved = [v for r in reports for u in r.utterances for _, v in u.resolutions]
            retrieved = [x for r in reports for u in r.utterances for x in u.retrievals]
            assert any(isinstance(v, frozenset) for v in resolved)
            assert any(isinstance(x.value, frozenset) for x in retrieved)

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

    def test_alternative_readings_show_their_flags(self):
        # the engine prunes an anomalous reading when a compatible one
        # lives, so an anomalous alternative comes only from a report
        # built or read in
        (rep,) = run_corpus([load_fixture("classroom_exam_topic")])
        u = next(u for u in rep.utterances if len(u.hypotheses) > 1)
        views = (u.hypotheses[0], replace(u.hypotheses[1], dampened=False, anomalous=True))
        flagged = replace(rep, utterances=(replace(u, hypotheses=views),))
        rows = [line.strip() for line in serialize_reports([flagged], "text").splitlines()]
        assert rows[3].startswith("Cf1: ") and rows[3].endswith("(dampened)")
        assert rows[4].startswith("Cf2: ") and rows[4].endswith("(anomalous)")
        views = (replace(views[0], anomalous=True), views[1])
        flagged = replace(rep, utterances=(replace(u, hypotheses=views),))
        text = serialize_reports([flagged], "text")
        assert "(dampened, anomalous)" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            serialize_reports([], "yaml")


def reader_document(case):
    """A corpus document of three fixture discourses laid out as `case`
    says, and what reading it gives: the ids of its discourses, or its
    diagnostics."""
    items = [json.loads(fixture_text(name))["discourses"][0] for name in READER_FIXTURES]
    ids = [item["id"] for item in items]
    a, b, c = map(json.dumps, items)
    body = f"[{a}, {b}, {c}]"
    if case == "bare-list":
        return body, ids
    if case == "keys-around-discourses":
        return f'{{"source": {{"discourses": 3}}, "discourses": {body}, "notes": ["x"]}}', ids
    if case == "repeated-discourses-key":
        return f'{{"discourses": {body}, "discourses": []}}', []
    if case == "empty-list":
        return "[]", []
    if case == "element-not-an-object":
        diag = "discourses[1]: discourse must be an object [malformed-structure]"
        return f"[{a}, 5, {c}]", [diag]
    if case == "discourses-not-a-list":
        text = f'{{"discourses": {{"0": {a}}}}}'
        return text, ["$: expected a 'discourses' list [malformed-structure]"]
    if case == "top-level-scalar":
        return '"corpus"', ["$: expected an object or a list [malformed-structure]"]
    if case == "trailing-data":
        text = f'{{"discourses": {body}}} []'
        return text, [f"line 1, column {len(text) - 1}: Extra data [malformed-json]"]
    if case == "missing-comma":
        text = f"[{a}, {b} {c}]"
        at = len(f"[{a}, {b} ") + 1
        return text, [f"line 1, column {at}: Expecting ',' delimiter [malformed-json]"]
    if case == "truncated-in-last-discourse":
        text = f"[{a}, {b}, {c}"[: -len(c) + c.index('"entities": ') + len('"entities": ')]
        return text, [f"line 1, column {len(text) + 1}: Expecting value [malformed-json]"]
    if case == "utf8-bom":
        message = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
        return "\ufeff" + body, [f"line 1, column 1: {message} [malformed-json]"]
    if case == "nested-too-deep-in-third":
        head = f'[{a}, {b}, {{"id": "deep", "entities": '
        text = head + "[" * 100000
        message = "nested 100002 deep, past the decoder's limit"
        return text, [f"line 1, column {len(text)}: {message} [malformed-json]"]
    assert case == "integer-too-long-in-third"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("integers have no digit limit in this interpreter")
    head = f'[{a}, {b}, {{"id": "long", "entities": [{{"id": "e", "cardinality": '
    text = head + "7" * (limit + 1) + "}]}]"
    message = f"integer of {limit + 1} digits, more than {limit}"
    return text, [f"line 1, column {len(head) + 1}: {message} [malformed-json]"]


READER_FIXTURES = ("classroom_exam", "research_lab", "phone_card")

READER_CASES = (
    "bare-list",
    "keys-around-discourses",
    "repeated-discourses-key",
    "empty-list",
    "element-not-an-object",
    "discourses-not-a-list",
    "top-level-scalar",
    "trailing-data",
    "missing-comma",
    "truncated-in-last-discourse",
    "utf8-bom",
    "nested-too-deep-in-third",
    "integer-too-long-in-third",
)


class TestReader:
    @pytest.mark.parametrize("case", READER_CASES)
    def test_a_document_reads_alike_in_process_and_in_workers(
        self, case, tmp_path, monkeypatch, capsys
    ):
        text, expected = reader_document(case)
        path = tmp_path / "corpus.centering.json"
        path.write_text(text, encoding="utf-8")
        try:
            discourses = parse_corpus(text)
        except CorpusFormatError as exc:
            assert list(map(str, exc.diagnostics)) == expected
            want = (1, "", "".join(f"error: {path}: {line}\n" for line in expected))
        else:
            assert [d.id for d in discourses] == expected
            want = (0, serialize_reports(run_corpus(discourses), "machine"), "")
        for cpus in (1, 3):
            with_cpus(monkeypatch, cpus)
            assert run_cli(capsys, "analyze", "--format", "machine", str(path)) == want

    @pytest.mark.parametrize(
        "text",
        ["", " \n\t", "\u3000\n", "\r\n ", "\n[]\n"],
        ids=["empty", "json-space", "ideographic-space", "crlf-space", "empty-list"],
    )
    def test_a_blank_document_reads_as_no_discourses(self, text):
        # any text that str.isspace() accepts, as str.strip() emptied it
        # before; an empty list is JSON and reads alike
        assert read_document(text) == []

    def test_space_outside_json_before_a_document_is_malformed(self):
        with pytest.raises(CorpusFormatError) as exc:
            read_document("\u3000[]")
        assert [v.code for v in exc.value.diagnostics] == ["malformed-json"]

    def test_reading_does_not_copy_the_text(self):
        # a text ending in a newline, as every generated corpus does, is
        # walked in place: the peak is one decoded discourse and the index
        gen = load_corpus_gen()
        rng = random.Random("read-document")
        discourses = [gen.topic_cue_discourse(rng, f"tc-{k}", 30) for k in range(120)]
        text = gen.corpus_text({"discourses": discourses})
        assert text.endswith("\n") and text.isascii() and len(text) > 1_000_000
        tracemalloc.start()
        try:
            raw = read_document(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(raw) == 120
        assert peak < 0.3 * len(text), f"peak {peak / len(text):.2f}x the text"


#: Utterance texts whose UTF-8 takes three bytes a character.
JAPANESE = ("試験は難しかった。", "太郎が答案を出した。", "先生はそれを読んだ。", "装置が届いた")


def _window_discourses():
    """Four short topic-cue discourses whose utterances carry Japanese text."""
    gen = load_corpus_gen()
    rng = random.Random("window")
    discourses = []
    for k in range(4):
        d = gen.topic_cue_discourse(rng, f"tc-{k}", 3)
        for j, u in enumerate(d["utterances"]):
            u["text"] = JAPANESE[(k + j) % len(JAPANESE)]
        discourses.append(d)
    return discourses


WINDOW_DISCOURSES = _window_discourses()

WINDOW_SHAPES = (
    "object",
    "bare-list",
    "number-in-list",
    "extra-keys",
    "repeated-key",
    "one",
    "empty",
    "blank",
)


@st.composite
def corpus_files(draw):
    """The bytes of a corpus file: a document of one of `WINDOW_SHAPES`,
    kept, cut short, given an invalid byte or led by a byte order mark."""
    shape = draw(st.sampled_from(WINDOW_SHAPES))
    picks = st.lists(st.integers(0, len(WINDOW_DISCOURSES) - 1), min_size=2, max_size=4)
    # a discourse drawn twice repeats its id
    discourses = [WINDOW_DISCOURSES[i] for i in draw(picks)]
    indent = draw(st.sampled_from([None, 1]))

    def dump(value):
        return json.dumps(value, ensure_ascii=False, indent=indent)

    if shape == "blank":
        text = draw(st.sampled_from(["", " ", "\r\n\t "]))
    elif shape == "empty":
        text = draw(st.sampled_from(["[]", '{"discourses": []}']))
    elif shape == "one":
        text = dump({"discourses": discourses[:1]})
    elif shape == "bare-list":
        text = dump(discourses)
    elif shape == "number-in-list":
        # a number may end at a window's edge and go on past it
        text = dump([discourses[0], 123456789, *discourses[1:]])
    elif shape == "extra-keys":
        extra = {"count": 123456789, "source": {"discourses": 3, "name": "記事"}}
        text = dump({**extra, "discourses": discourses, "notes": ["x", 1.5]})
    elif shape == "repeated-key":
        text = f'{{"discourses": {dump(discourses)}, "discourses": {dump(discourses[1:])}}}'
    else:
        text = dump({"discourses": discourses})
    data = (text + "\n").encode("utf-8")
    edit = draw(st.sampled_from(["none", "none", "truncate", "invalid-byte", "bom"]))
    if edit == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    elif edit == "invalid-byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    elif edit == "bom":
        data = "\ufeff".encode("utf-8") + data
    return data


def read_as_text(path):
    """A corpus file read whole as text and indexed by `read_document`, its
    discourses built: the outcome `read_file` must give."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return "not UTF-8", exc.start, exc.reason
    try:
        raw = read_document(text)
    except CorpusFormatError as exc:
        return "format error", exc.diagnostics
    return "read", [r[:4] for r in raw], list(map(build_discourse, raw))


def read_by_window(path):
    """A corpus file indexed by `read_file` and its discourses built, as
    `read_as_text` gives them, with the source of each discourse."""
    fd = os.open(path, os.O_RDONLY)
    try:
        try:
            raw = read_file(fd)
        except UnicodeDecodeError as exc:
            return ("not UTF-8", exc.start, exc.reason), None
        except CorpusFormatError as exc:
            return ("format error", exc.diagnostics), None
        sources = ["fd" if r.source == fd else r.source for r in raw]
        return ("read", [r[:4] for r in raw], list(map(build_discourse, raw))), sources
    finally:
        os.close(fd)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=corpus_files(), whole=st.integers(0, 64), step=st.integers(1, 48))
def test_a_file_reads_through_any_window_as_its_text_reads(data, whole, step, tmp_path):
    # windows of a few dozen bytes, so that discourses and characters of
    # several bytes straddle their edges
    path = tmp_path / "corpus.centering.json"
    path.write_bytes(data)
    want = read_as_text(path)
    with mock.patch.object(corpus_mod, "_WHOLE", whole), mock.patch.object(
        corpus_mod, "_READ", step
    ):
        got, sources = read_by_window(path)
    assert got == want
    if want[0] == "read" and len(want[1]) > 1:
        # read back from the file, not from a text read whole
        assert sources == ["fd"] * len(want[1])
    elif want[0] == "read" and want[1]:
        assert sources == [None]


def index_by_window(path, step):
    """`read_file` of the file at `path` through windows of `step` bytes."""
    fd = os.open(path, os.O_RDONLY)
    try:
        with mock.patch.object(corpus_mod, "_WHOLE", 0), mock.patch.object(
            corpus_mod, "_READ", step
        ):
            return fd, read_file(fd)
    finally:
        os.close(fd)


def _edge_documents():
    """Valid documents with a value outside the discourses that a window's
    edge may cut after its '.', 'e' or exponent sign, where the decoder
    stops before them."""
    a, b = (json.dumps(d, ensure_ascii=False) for d in WINDOW_DISCOURSES[:2])
    return {
        "fraction-before": f'{{"v": 1.5, "discourses": [{a}, {b}]}}',
        "exponent-before": f'{{"v": 12e+3, "discourses": [{a}, {b}]}}',
        "number-in-list": f"[{a}, -2.5E-3, {b}]",
        "fraction-after": f'{{"discourses": [{a}, {b}], "score": 0.75}}',
    }


EDGE_DOCUMENTS = _edge_documents()


@pytest.mark.parametrize("case", EDGE_DOCUMENTS)
def test_a_number_cut_at_a_window_edge_is_decoded_again(case, tmp_path):
    text = EDGE_DOCUMENTS[case]
    path = tmp_path / "corpus.centering.json"
    path.write_text(text, encoding="utf-8")
    want = [r[:4] for r in read_document(text)]
    for step in range(1, 65):
        fd, raw = index_by_window(path, step)
        assert [r[:4] for r in raw] == want, step
        # every discourse is read back from the file, none from a text
        # read whole
        assert [r.source for r in raw] == [fd] * len(want), step


@pytest.mark.parametrize(
    "text,diag",
    [
        ("{1: []}", "line 1, column 2: Expecting property name enclosed in double quotes"),
        ('{"discourses" []}', "line 1, column 15: Expecting ':' delimiter"),
    ],
    ids=["key-not-a-string", "key-without-colon"],
)
def test_a_bad_top_level_key_is_malformed(text, diag, tmp_path):
    want = [f"{diag} [malformed-json]"]
    with pytest.raises(CorpusFormatError) as exc:
        read_document(text)
    assert list(map(str, exc.value.diagnostics)) == want
    path = tmp_path / "corpus.centering.json"
    path.write_text(text, encoding="utf-8")
    for step in range(1, 9):
        with pytest.raises(CorpusFormatError) as exc:
            index_by_window(path, step)
        assert list(map(str, exc.value.diagnostics)) == want, step


@pytest.mark.parametrize("case", ["truncated", "utf8-bom", "no-discourses"])
def test_a_rejected_file_is_walked_once(case, tmp_path):
    text = topic_cues_text(3)
    data = {
        "truncated": text[: len(text) // 2],
        "utf8-bom": "\ufeff" + text,
        "no-discourses": json.dumps({"meta": json.loads(text)["discourses"]}),
    }[case]
    path = tmp_path / "corpus.centering.json"
    path.write_text(data, encoding="utf-8")
    fd = os.open(path, os.O_RDONLY)
    try:
        with mock.patch.object(corpus_mod, "_walk", wraps=corpus_mod._walk) as walk:
            with pytest.raises(CorpusFormatError) as exc:
                read_file(fd)
        where = os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)
    assert walk.call_count == 1
    if case == "no-discourses":
        assert list(map(str, exc.value.diagnostics)) == [
            "$: expected a 'discourses' list [malformed-structure]"
        ]
        # the window reads by offset and leaves the file where it stands:
        # the file was not read again as text
        assert where == 0
    else:
        assert [v.code for v in exc.value.diagnostics] == ["malformed-json"]
        # read whole as text, once, to name the error
        assert where == len(data.encode("utf-8"))


def test_a_fault_of_the_window_walk_is_raised(tmp_path, monkeypatch, capsys):
    # a window that loses a byte of each read of a file: the walk fails on a
    # valid document, and nothing falls back to reading the file whole
    more = corpus_mod._Window.more

    def lossy_more(self):
        if not self.done:
            self.read += 1
        return more(self)

    monkeypatch.setattr(corpus_mod._Window, "more", lossy_more)
    path = tmp_path / "corpus.centering.json"
    path.write_text(topic_cues_text(3), encoding="utf-8")
    fd = os.open(path, os.O_RDONLY)
    try:
        with pytest.raises(ValueError) as exc:
            read_file(fd)
    finally:
        os.close(fd)
    assert not isinstance(exc.value, CorpusFormatError)
    with_cpus(monkeypatch, 1)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("internal error: ")


def test_a_pipe_is_read_whole(tmp_path):
    text = topic_cues_text(3)
    read_end, write_end = os.pipe()
    with open(write_end, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        raw = read_file(read_end)
    finally:
        os.close(read_end)
    assert raw == read_document(text)
    assert {r.source for r in raw} == {raw[0].source} and type(raw[0].source) is str


def test_fixture_names_constant_matches_tests():
    assert set(FIXTURE_NAMES) == set(FIXTURES)
