"""End-to-end command line behavior."""

import gc
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import centering
import centering.cli as cli_mod
from centering import (
    CorpusFormatError,
    evaluate_gold,
    parse_corpus,
    run_corpus,
    tabulate_disambiguation,
    tabulate_transitions,
)
from centering.cli import main
import centering.corpus as corpus_mod
from centering.corpus import (
    FIXTURE_NAMES,
    fixture_text,
    report_lines,
)
from centering.engine import stream_discourse
from centering.model import encode_resolution
from synth import serialize_corpus

from test_golden import load_corpus_gen, synth_corpus


@pytest.fixture()
def corpus_file(tmp_path):
    def _write(name, text=None):
        path = tmp_path / f"{name}.centering.json"
        path.write_text(text if text is not None else fixture_text(name), encoding="utf-8")
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def probe_file(tmp_path, mutate):
    """A one-discourse corpus file, valid until `mutate(discourse,
    expressions)` changes it."""
    discourse = {
        "id": "d",
        "entities": [{"id": "a", "types": ["person"]}],
        "utterances": [
            {
                "index": 0,
                "expressions": [
                    {"entity": "a", "form": "overt", "role": "subject", "pos": 0},
                    {
                        "entity": "?",
                        "form": "zero",
                        "role": "object",
                        "pos": 1,
                        "constraints": {"types": ["person"]},
                    },
                ],
            }
        ],
    }
    mutate(discourse, discourse["utterances"][0]["expressions"])
    file = tmp_path / "probe.centering.json"
    file.write_text(json.dumps({"discourses": [discourse]}), encoding="utf-8")
    return str(file)


#: Well-typed input that breaks a discourse invariant: (mutation, location
#: under discourses[0], violation code).
INVARIANT_PROBES = [
    (lambda d, e: e.append(dict(e[1])), "utterances[0].expressions[2].pos", "position-order"),
    (
        lambda d, e: [x.update(role="topic", wa=True) for x in e],
        "utterances[0]",
        "double-topic",
    ),
    (
        lambda d, e: e[0].update(entity="?"),
        "utterances[0].expressions[0].entity",
        "unresolved-overt",
    ),
]
INVARIANT_IDS = ["two-zeros-one-pos", "double-topic", "overt-without-entity"]


def index_file(tmp_path, indices):
    corpus = {
        "discourses": [
            {
                "id": "d",
                "entities": [],
                "utterances": [{"index": i, "expressions": []} for i in indices],
            }
        ]
    }
    path = tmp_path / "order.centering.json"
    path.write_text(json.dumps(corpus), encoding="utf-8")
    return str(path)


def beyond_the_decoder(case):
    """A corpus text that `json.loads` cannot take although its syntax
    holds up to that point, and the location and message it is reported
    with."""
    if case == "nested-too-deep":
        return "[" * 100000, "line 1, column 100000: nested 100000 deep, past the decoder's limit"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("integers have no digit limit in this interpreter")
    head = '{"discourses": [{"id": "d", "entities": [{"id": "a", "cardinality": '
    text = head + "7" * (limit + 1) + "}]}]}"
    return text, f"line 1, column {len(head) + 1}: integer of {limit + 1} digits, more than {limit}"


DECODER_CASES = ("nested-too-deep", "integer-too-long")


#: What `validate_discourse` finds in an overt NP of the probe given
#: constraints with a cardinality of 0, in order.
OVERT_CONSTRAINTS = [
    "discourses[0].utterances[0].expressions[0].constraints: "
    "resolution constraints on an overt NP [overt-constraints]",
    "discourses[0].utterances[0].expressions[0].constraints.cardinality: "
    "required_cardinality 0 < 1 [bad-required-cardinality]",
]


class TestAnalyze:
    def test_text_trace(self, corpus_file, capsys):
        code, out, _ = run_cli(capsys, "analyze", corpus_file("classroom_exam"))
        assert code == 0
        assert "ZTA-CONTINUE" in out
        assert "classroom-exam" in out

    def test_machine_format_is_jsonl(self, corpus_file, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--format", "machine", corpus_file("classroom_exam")
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        kinds = {r["record"] for r in records}
        assert kinds == {"utterance", "discourse"}

    def test_no_zta_flag(self, corpus_file, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--no-zta", corpus_file("classroom_exam"))
        assert code == 0
        assert "ZTA-CONTINUE" not in out
        assert "RETAIN" in out

    def test_no_global_flag(self, corpus_file, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--no-global", corpus_file("etching_factory")
        )
        assert code == 0
        assert "UNRESOLVED" in out

    def test_multiple_files(self, corpus_file, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            corpus_file("classroom_exam"),
            corpus_file("device_lineup"),
        )
        assert code == 0
        assert "classroom-exam" in out and "device-lineup" in out

    def test_beam_one_is_greedy_but_runs(self, corpus_file, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--beam", "1", corpus_file("classroom_exam_topic")
        )
        assert code == 0
        assert "Cf2" not in out  # a single live reading everywhere


class TestStats:
    def test_text_table_and_chi_square(self, corpus_file, capsys):
        files = [corpus_file(n) for n in (
            "classroom_exam", "classroom_exam_topic", "research_lab", "phone_card",
            "bank_pos", "transaction_insurance", "etching_factory", "factory_article",
            "cvd_device", "heater_factory", "device_lineup",
        )]
        code, out, _ = run_cli(capsys, "stats", *files)
        assert code == 0
        assert "chi-square" in out
        assert "LEXICAL=2" in out and "TENSE=1" in out and "AGREEMENT=1" in out

    def test_machine_stats(self, corpus_file, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--format", "machine", corpus_file("classroom_exam")
        )
        assert code == 0
        data = json.loads(out)
        assert data["with_zero"] == [3, 0, 0, 0]
        # a zero margin leaves the statistic undefined
        assert data["chi_square_continue_vs_rest"] is None

    def test_undefined_chi_square_printed(self, corpus_file, capsys):
        code, out, _ = run_cli(capsys, "stats", corpus_file("classroom_exam"))
        assert code == 0
        assert "undefined" in out


class TestResolve:
    def test_listing(self, corpus_file, capsys):
        code, out, _ = run_cli(capsys, "resolve", corpus_file("device_lineup"))
        assert code == 0
        assert "zero@0 -> {cvd-devices+etching-devices}" in out
        assert "cue=AGREEMENT" in out

    def test_machine_listing(self, corpus_file, capsys):
        code, out, _ = run_cli(
            capsys, "resolve", "--format", "machine", corpus_file("etching_factory")
        )
        records = [json.loads(line) for line in out.splitlines()]
        final = [r for r in records if r["utterance"] == 6]
        assert final[0]["antecedent"] == "t-electron"
        assert final[0]["cues"] == ["LEXICAL"]

    def test_machine_listing_set_antecedent(self, corpus_file, capsys):
        code, out, _ = run_cli(
            capsys, "resolve", "--format", "machine", corpus_file("device_lineup")
        )
        assert code == 0
        assert out.splitlines()[-1] == (
            '{"antecedent": ["cvd-devices", "etching-devices"], "cues": ["AGREEMENT"], '
            '"discourse": "device-lineup", "pos": 0, "utterance": 5}'
        )

    def test_a_set_of_a_thousand_former_centers(self, tmp_path, capsys):
        # each utterance makes the last one's subject its Cb; the plural
        # zero then needs all 1000 former centers, found without recursion
        n = 1000
        utterances = [{"index": 0, "expressions": [{"entity": "e0", "role": "subject"}]}]
        for k in range(1, n + 1):
            subject = {"entity": f"e{k}", "role": "subject", "pos": 0}
            previous = {"entity": f"e{k - 1}", "role": "object", "pos": 1}
            utterances.append({"index": k, "expressions": [subject, previous]})
        constraints = {"types": ["thing"], "cardinality": n}
        zero = {"form": "zero", "role": "subject", "constraints": constraints}
        utterances.append({"index": n + 1, "expressions": [zero]})
        entities = [{"id": f"e{k}", "types": ["thing"]} for k in range(n + 1)]
        path = tmp_path / "deep.json"
        path.write_text(json.dumps([{"id": "d", "entities": entities, "utterances": utterances}]))
        code, out, err = run_cli(capsys, "resolve", "--format", "machine", str(path))
        assert (code, err) == (0, "")
        last = json.loads(out.splitlines()[-1])
        assert last["antecedent"] == sorted(f"e{k}" for k in range(n))


class TestValidateAndErrors:
    def test_valid_corpus_exit_zero(self, corpus_file, capsys):
        code, out, _ = run_cli(capsys, "validate", corpus_file("research_lab"))
        assert code == 0
        assert "0 violation(s)" in out

    def test_violations_exit_one(self, tmp_path, capsys):
        bad = {
            "discourses": [
                {
                    "id": "bad",
                    "entities": [{"id": "a", "types": ["person"]}],
                    "utterances": [
                        {
                            "index": 0,
                            "expressions": [
                                {"entity": "a", "form": "overt", "role": "topic", "pos": 0}
                            ],
                        }
                    ],
                }
            ]
        }
        path = tmp_path / "bad.centering.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "topic-not-wa" in out

    def test_format_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.centering.json"
        path.write_text('{"discourses": [', encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert "error:" in err

    def test_out_of_order_indices_exit_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "analyze", index_file(tmp_path, (3, 1)))
        assert code == 1
        assert "discourses[0].utterances[1].index" in err
        assert "index-out-of-order" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    @pytest.mark.parametrize(
        "indices,expected", [((0, 5, 7), 0), ((3, 1), 1)], ids=["gapped", "decreasing"]
    )
    def test_indices_increase_with_gaps_allowed(
        self, command, indices, expected, tmp_path, capsys
    ):
        code, out, err = run_cli(capsys, command, index_file(tmp_path, indices))
        assert code == expected
        if expected:
            shown = out if command == "validate" else err
            assert "discourses[0].utterances[1].index: " in shown
            assert "index-out-of-order" in shown

    @pytest.mark.parametrize(
        "mutate,path",
        [
            (lambda d, e: e[0].update(pos="x"), "utterances[0].expressions[0].pos"),
            (
                lambda d, e: e[1]["constraints"].update(cardinality="2"),
                "utterances[0].expressions[1].constraints.cardinality",
            ),
            (
                lambda d, e: e[1]["constraints"].update(gold=[[1]]),
                "utterances[0].expressions[1].constraints.gold",
            ),
            (lambda d, e: d.update(entities=5), "entities"),
            (lambda d, e: d.update(utterances=5), "utterances"),
            (lambda d, e: d["utterances"][0].update(expressions=5), "utterances[0].expressions"),
            (
                lambda d, e: e[1]["constraints"].update(types="person"),
                "utterances[0].expressions[1].constraints.types",
            ),
            *[(mutate, path) for mutate, path, _ in INVARIANT_PROBES],
        ],
        ids=[
            "pos", "cardinality", "gold", "entities", "utterances", "expressions", "types",
            *INVARIANT_IDS,
        ],
    )
    def test_mistyped_field_is_a_located_format_error(self, mutate, path, tmp_path, capsys):
        code, _, err = run_cli(capsys, "analyze", probe_file(tmp_path, mutate))
        assert code == 1
        assert f"discourses[0].{path}: " in err
        assert "internal error" not in err

    @pytest.mark.parametrize("mutate,path,violation", INVARIANT_PROBES, ids=INVARIANT_IDS)
    def test_engine_commands_reject_what_validate_rejects(
        self, mutate, path, violation, tmp_path, capsys
    ):
        file = probe_file(tmp_path, mutate)
        code, text, _ = run_cli(capsys, "validate", file)
        assert code == 1
        listed = text.splitlines()[:-1]
        assert len(listed) == 1 and f"discourses[0].{path}: " in listed[0]
        assert listed[0].endswith(f"[{violation}]")
        code, machine, _ = run_cli(capsys, "validate", "--format", "machine", file)
        assert code == 1
        records = [json.loads(line) for line in machine.splitlines()]
        assert [f"{r['location']}: {r['message']} [{r['code']}]" for r in records] == listed
        for command in ("analyze", "stats", "resolve", "eval"):
            code, out, err = run_cli(capsys, command, file)
            assert (code, out) == (1, "")
            assert err.splitlines() == [f"error: {line}" for line in listed]

    def test_constraints_on_an_overt_np_are_located_by_the_parser(self, tmp_path):
        file = probe_file(tmp_path, lambda d, e: e[0].update(constraints={"cardinality": 0}))
        with open(file, encoding="utf-8") as fh:
            with pytest.raises(CorpusFormatError) as exc:
                parse_corpus(fh.read())
        assert list(map(str, exc.value.diagnostics)) == OVERT_CONSTRAINTS

    def test_constraints_on_an_overt_np_are_listed_by_validate(self, tmp_path, capsys):
        file = probe_file(tmp_path, lambda d, e: e[0].update(constraints={"cardinality": 0}))
        code, out, err = run_cli(capsys, "validate", "--format", "machine", file)
        assert (code, err) == (1, "")
        records = [json.loads(line) for line in out.splitlines()]
        listed = [f"{r['location']}: {r['message']} [{r['code']}]" for r in records]
        assert listed == [f"{file}: {line}" for line in OVERT_CONSTRAINTS]

    def test_format_error_names_its_file_once(self, corpus_file, tmp_path, capsys):
        bad = index_file(tmp_path, (3, 1))
        code, out, err = run_cli(capsys, "analyze", corpus_file("classroom_exam"), bad)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {bad}: discourses[0].utterances[1].index: utterance index 1 after 3 "
            "[index-out-of-order]"
        ]

    def test_validate_lists_malformed_json_on_stdout(self, tmp_path, capsys):
        path = tmp_path / "broken.centering.json"
        path.write_text('{"discourses": [', encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, err) == (1, "")
        assert out.splitlines()[0].startswith(f"{path}: line 1, column 17: ")
        assert out.splitlines()[0].endswith("[malformed-json]")

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    @pytest.mark.parametrize("case", DECODER_CASES)
    def test_json_the_decoder_cannot_take_is_a_located_format_error(
        self, case, command, tmp_path, capsys
    ):
        text, diag = beyond_the_decoder(case)
        path = tmp_path / "corpus.centering.json"
        path.write_text(text, encoding="utf-8")
        line = f"{path}: {diag} [malformed-json]"
        code, out, err = run_cli(capsys, command, str(path))
        if command == "validate":
            assert (code, out, err) == (1, f"{line}\n1 violation(s)\n", "")
        else:
            assert (code, out, err) == (1, "", f"error: {line}\n")

    def test_non_utf8_file_is_a_located_format_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.centering.json"
        path.write_bytes(b"\xff\xfe" + '{"discourses": []}'.encode("utf-16-le"))
        diag = f"{path}: byte 0: not UTF-8: invalid start byte [malformed-encoding]"
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out, err) == (1, "", f"error: {diag}\n")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out, err) == (1, f"{diag}\n1 violation(s)\n", "")

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("json_error", [False, True], ids=["valid-json", "json-error-first"])
    def test_a_byte_past_the_first_window_is_located_in_the_file(
        self, cpus, json_error, tmp_path, monkeypatch, capsys
    ):
        # the file is decoded whole before its JSON is read, so an invalid
        # byte is reported at its offset even after an earlier JSON error
        data = topic_cues_text(60).encode("utf-8")
        assert len(data) > 400_000
        if json_error:
            data = data.replace(b'"entities"', b'"entities";', 1)
        path = tmp_path / "corpus.centering.json"
        path.write_bytes(data[:300_000] + b"\xff" + data[300_000:])
        with_cpus(monkeypatch, cpus)
        diag = f"{path}: byte 300000: not UTF-8: invalid start byte [malformed-encoding]"
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out, err) == (1, "", f"error: {diag}\n")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out, err) == (1, f"{diag}\n1 violation(s)\n", "")

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/corpus.json")
        assert code == 1

    @pytest.mark.parametrize("command", ["analyze", "stats", "resolve", "eval"])
    @pytest.mark.parametrize("beam", ["0", "-3"])
    def test_beam_below_one_is_a_usage_error(self, command, beam, corpus_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--beam", beam, corpus_file("classroom_exam")])
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert "--beam" in err and ">= 1" in err
        assert "internal error" not in err

    def test_a_beam_that_is_not_an_integer_is_a_usage_error(self, corpus_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--beam", "x", corpus_file("classroom_exam")])
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert "argument --beam: invalid int value: 'x'" in err
        assert "internal error" not in err

    def test_internal_fault_exit_two(self, corpus_file, capsys, monkeypatch):
        import centering.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(cli_mod, "stream_discourse", boom)
        code, _, err = run_cli(capsys, "analyze", corpus_file("classroom_exam"))
        assert code == 2
        assert "internal error" in err


class TestDuplicateIdsAcrossFiles:
    @pytest.fixture()
    def files(self, corpus_file):
        renamed = json.loads(fixture_text("bank_pos"))
        renamed["discourses"][0]["id"] = "cvd-device"
        return corpus_file("cvd_device"), corpus_file("bank_pos", json.dumps(renamed))

    def test_validate_reports_the_second_file(self, files, capsys):
        code, out, _ = run_cli(capsys, "validate", *files)
        assert (code, out) == (
            1,
            f"{files[1]}: discourses[0]: discourse id 'cvd-device' repeated "
            "[duplicate-discourse-id]\n1 violation(s)\n",
        )

    def test_eval_refuses_to_score_across_files(self, files, capsys):
        code, out, err = run_cli(capsys, "eval", *files)
        assert (code, out) == (1, "")
        assert err == (
            f"error: {files[1]}: discourses[0]: discourse id 'cvd-device' repeated "
            "[duplicate-discourse-id]\n"
        )

    def test_a_file_with_diagnostics_claims_no_ids(self, files, corpus_file, capsys):
        broken = json.loads(fixture_text("cvd_device"))
        broken["discourses"][0]["utterances"][0]["tense"] = "future"
        first = corpus_file("cvd_device", json.dumps(broken))
        code, out, err = run_cli(capsys, "analyze", first, files[1])
        assert (code, out) == (1, "")
        assert err == (
            f"error: {first}: discourses[0].utterances[0].tense: unknown tense 'future' "
            "[unknown-tense]\n"
        )


class TestEval:
    def test_full_accuracy(self, corpus_file, capsys):
        code, out, _ = run_cli(capsys, "eval", corpus_file("etching_factory"))
        assert code == 0
        assert "accuracy: 100.0%" in out

    def test_machine_eval(self, corpus_file, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--format", "machine", corpus_file("heater_factory")
        )
        data = json.loads(out)
        assert data["correct"] == 6 and data["incorrect"] == 0

    def test_no_gold_summary(self, tmp_path, capsys):
        plain = {
            "discourses": [
                {
                    "id": "plain",
                    "entities": [{"id": "a", "types": ["person"]}],
                    "utterances": [
                        {
                            "index": 0,
                            "expressions": [
                                {"entity": "a", "form": "overt", "role": "subject", "pos": 0}
                            ],
                        }
                    ],
                }
            ]
        }
        path = tmp_path / "plain.centering.json"
        path.write_text(json.dumps(plain), encoding="utf-8")
        code, out, _ = run_cli(capsys, "eval", str(path))
        assert code == 0
        assert "no gold annotations" in out

    def test_set_valued_mismatch_reads_sorted_ids(self, corpus_file, capsys):
        data = json.loads(fixture_text("device_lineup"))
        last = data["discourses"][0]["utterances"][5]["expressions"][0]
        last["constraints"]["gold"] = ["marketing", "etching-devices"]
        code, out, _ = run_cli(capsys, "eval", corpus_file("lineup", json.dumps(data)))
        assert code == 0
        assert out.splitlines()[-1] == (
            "  MISMATCH device-lineup u5 zero@0: "
            "predicted={cvd-devices+etching-devices} gold={etching-devices+marketing}"
        )


@pytest.fixture(scope="module")
def pool_corpus(tmp_path_factory):
    """The golden synthetic corpus plus two fixture files: 44 discourses,
    enough groups for every worker."""
    root = tmp_path_factory.mktemp("pool")
    synth = root / "synth.centering.json"
    synth.write_text(serialize_corpus(synth_corpus()), encoding="utf-8")
    paths = [str(synth)]
    for name in ("etching_factory", "device_lineup"):
        path = root / f"{name}.centering.json"
        path.write_text(fixture_text(name), encoding="utf-8")
        paths.append(str(path))
    return paths


def with_cpus(monkeypatch, n):
    """Pretend the process may run on `n` CPUs, and start a worker for
    every byte, so that a small corpus reaches the pool too."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    monkeypatch.setattr(cli_mod, "_BYTES_PER_PART", 1)


def engine_pids(paths):
    """The processes that ran the fold of each discourse of `paths`."""
    args = cli_mod._build_parser().parse_args(["analyze", *paths])
    return set(cli_mod._run_engine(args, lambda discourse, stream: os.getpid()))


#: Faulty inputs for the workers, each with the one error line it gives
#: (file name on).
WORKER_FAULTS = {
    "bad-tag-in-last-share": "device_lineup.centering.json: discourses[0].utterances[5]"
    ".expressions[0].role: unknown role tag 'subjekt' [unknown-role]",
    "id-repeated-across-files": "device_lineup.centering.json: discourses[0]: discourse id "
    "'etching-factory' repeated [duplicate-discourse-id]",
    "bad-json-in-second-file": "etching_factory.centering.json: line 1, column 17: "
    "Expecting value [malformed-json]",
}


class DiesWhenSent:
    """A result whose pickling ends the worker that sends it, with exit
    status 4: after its head, which holds only a count of results."""

    def __reduce__(self):
        os._exit(4)


class BrokenStdout:
    """A stdout whose reader went away after the first block."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 2:  # the head, then one block
            raise BrokenPipeError(32, "Broken pipe")


class TestWorkers:
    @pytest.mark.parametrize("command", ["analyze", "stats", "resolve", "eval"])
    @pytest.mark.parametrize("format", ["text", "machine"])
    @pytest.mark.parametrize("beam", ["1", "2", "4"])
    def test_output_does_not_depend_on_cpu_count(
        self, command, format, beam, pool_corpus, monkeypatch, capsys
    ):
        argv = [command, "--format", format, "--beam", beam, *pool_corpus]
        outputs = []
        for cpus in (1, 3):
            with_cpus(monkeypatch, cpus)
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_worker_fault_exit_two_and_prints_nothing(self, pool_corpus, monkeypatch, capsys):
        real, parent = cli_mod.stream_discourse, os.getpid()

        def fail_on_last_group(discourse, config):
            # raises only in a worker, so the groups must run in workers
            if discourse.id == "device-lineup" and os.getpid() != parent:
                raise RuntimeError("engine fault")
            return real(discourse, config)

        monkeypatch.setattr(cli_mod, "stream_discourse", fail_on_last_group)
        with_cpus(monkeypatch, 3)
        code, out, err = run_cli(capsys, "analyze", *pool_corpus)
        assert (code, out) == (2, "")
        assert "internal error" in err and "engine fault" in err

    def test_dead_worker_exit_two(self, pool_corpus):
        # in a child interpreter, so that a hang fails by timeout
        proc = run_python(
            "import os, sys\n"
            "import centering.cli as cli\n"
            "real, parent = cli.stream_discourse, os.getpid()\n"
            "def die(discourse, config):\n"
            "    if os.getpid() != parent:\n"
            "        os._exit(3)\n"
            "    return real(discourse, config)\n"
            "cli.stream_discourse = die\n"
            "cli._BYTES_PER_PART = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "os.sched_setaffinity = lambda pid, cpus: None\n"
            f"sys.exit(cli.main(['analyze', *{pool_corpus!r}]))\n"
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "internal error" in proc.stderr and "exit status 3" in proc.stderr

    def test_worker_dead_after_its_head_exit_two(self, pool_corpus, monkeypatch, capsys):
        with_cpus(monkeypatch, 3)
        _, full, _ = run_cli(capsys, "analyze", *pool_corpus)
        real = cli_mod._pieces

        def dies_when_sent(lines):
            pieces = real(lines)
            # device-lineup is in the last part, whose head is sent by then
            if pieces[0].startswith("== discourse device-lineup =="):
                return DiesWhenSent()
            return pieces

        monkeypatch.setattr(cli_mod, "_pieces", dies_when_sent)
        code, out, err = run_cli(capsys, "analyze", *pool_corpus)
        assert code == 2
        assert "internal error" in err and "exit status 4" in err
        # the results read before it stand, in order
        assert out and full.startswith(out) and out != full

    def test_worker_failing_after_its_last_result_exit_two(
        self, pool_corpus, monkeypatch, capsys
    ):
        with_cpus(monkeypatch, 3)
        _, full, _ = run_cli(capsys, "analyze", *pool_corpus)
        real = os._exit
        # inherited by the forked workers, each of which ends with it
        monkeypatch.setattr(os, "_exit", lambda status: real(status or 5))
        code, out, err = run_cli(capsys, "analyze", *pool_corpus)
        assert code == 2
        assert "internal error" in err and "exit status 5" in err
        # every result of the first worker was read and written
        assert out and full.startswith(out) and out != full

    @pytest.mark.parametrize(
        "case",
        [
            "diagnostic-in-last-share",
            "worker-raises",
            "dies-before-head",
            "closed-early",
            "stdout-broken",
        ],
    )
    def test_no_worker_is_left_behind(self, case, pool_corpus, tmp_path, monkeypatch):
        synth, etching, lineup = pool_corpus
        parent = os.getpid()

        def job(discourse):
            if discourse.id == "device-lineup" and os.getpid() != parent:
                if case == "worker-raises":
                    raise ValueError("engine fault")
                if case == "dies-before-head":
                    os._exit(3)
            return discourse.id

        if case == "diagnostic-in-last-share":
            data = json.loads(fixture_text("device_lineup"))
            data["discourses"][0]["utterances"][-1]["expressions"][0]["role"] = "subjekt"
            lineup = tmp_path / "device_lineup.centering.json"
            lineup.write_text(json.dumps(data), encoding="utf-8")
        with_cpus(monkeypatch, 3)
        paths = [synth, etching, str(lineup)]
        if case == "closed-early":
            results = cli_mod._run_parts(paths, job)
            assert next(results) == "golden-0"
            results.close()
        elif case == "stdout-broken":
            monkeypatch.setattr(sys, "stdout", BrokenStdout())
            assert main(["analyze", *paths]) == 1
        else:
            error = {
                "diagnostic-in-last-share": CorpusFormatError,
                "worker-raises": ValueError,
                "dies-before-head": RuntimeError,
            }[case]
            with pytest.raises(error):
                cli_mod._run_parts(paths, job)
        assert gc.isenabled()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize(
        "other",
        ["bad-json", "repeated-id", "replacing-key", "bad-tag-after", "bad-tag-before"],
    )
    def test_a_job_fault_gives_way_to_what_a_later_file_holds(
        self, other, cpus, pool_corpus, tmp_path, monkeypatch, capsys
    ):
        # the job raises on a discourse before the walk reaches the end of
        # the last file: a read error, a repeated id or a bad role tag there
        # stands as if no job had run, and so does a "discourses" key that
        # replaces the one the discourse was in; a bad role tag in the first
        # discourse stands too, whichever process meets the fault
        synth, etching, _ = pool_corpus
        lineup = tmp_path / "device_lineup.centering.json"
        data = json.loads(fixture_text("device_lineup"))
        doomed = "golden-0"
        if other == "bad-json":
            lineup.write_text('{"discourses": [', encoding="utf-8")
        elif other == "repeated-id":
            data["discourses"][0]["id"] = "golden-0"
            lineup.write_text(json.dumps(data), encoding="utf-8")
        elif other == "replacing-key":
            fails = json.dumps({"id": "fails", "entities": [], "utterances": []})
            body = json.dumps(data["discourses"])
            lineup.write_text(f'{{"discourses": [{fails}], "discourses": {body}}}', "utf-8")
            doomed = "fails"
        elif other == "bad-tag-after":
            data["discourses"][0]["utterances"][-1]["expressions"][0]["role"] = "subjekt"
            lineup.write_text(json.dumps(data), encoding="utf-8")
        else:
            lineup.write_text(json.dumps(data), encoding="utf-8")
            first = json.loads(Path(synth).read_text(encoding="utf-8"))
            first["discourses"][0]["utterances"][0]["expressions"][0]["role"] = "subjekt"
            synth = tmp_path / "synth.centering.json"
            synth.write_text(json.dumps(first), encoding="utf-8")
            doomed = "device-lineup"
        real = cli_mod.stream_discourse

        def fail(discourse, config):
            if discourse.id == doomed:
                raise RuntimeError("engine fault")
            return real(discourse, config)

        paths = [str(synth), etching, str(lineup)]
        want = run_cli(capsys, "analyze", *pool_corpus)
        monkeypatch.setattr(cli_mod, "stream_discourse", fail)
        with_cpus(monkeypatch, cpus)
        code, out, err = run_cli(capsys, "analyze", *paths)
        if other == "replacing-key":
            assert (code, out, err) == want
        else:
            assert (code, out) == (1, "") and err.startswith("error: ")
            assert "internal error" not in err
        tagged = {
            "bad-tag-after": "device_lineup.centering.json: discourses[0].utterances[5]",
            "bad-tag-before": "synth.centering.json: discourses[0].utterances[0]",
        }
        if other in tagged:
            tag = ".expressions[0].role: unknown role tag 'subjekt' [unknown-role]"
            errors = [line.split(os.sep)[-1] for line in err.splitlines()]
            assert errors == [tagged[other] + tag]

    @pytest.mark.parametrize("fault", sorted(WORKER_FAULTS))
    def test_input_errors_do_not_depend_on_cpu_count(
        self, fault, pool_corpus, tmp_path, monkeypatch, capsys
    ):
        synth, etching, lineup = pool_corpus
        if fault == "bad-json-in-second-file":
            etching = tmp_path / "etching_factory.centering.json"
            etching.write_text('{"discourses": [', encoding="utf-8")
        else:
            data = json.loads(fixture_text("device_lineup"))
            if fault == "bad-tag-in-last-share":
                data["discourses"][0]["utterances"][-1]["expressions"][0]["role"] = "subjekt"
            else:
                data["discourses"][0]["id"] = "etching-factory"
            lineup = tmp_path / "device_lineup.centering.json"
            lineup.write_text(json.dumps(data), encoding="utf-8")
        errors = []
        for cpus in (1, 3):
            with_cpus(monkeypatch, cpus)
            code, out, err = run_cli(capsys, "analyze", synth, str(etching), str(lineup))
            assert (code, out) == (1, "")
            errors.append(err)
        assert errors[0] == errors[1]
        assert [line.split(os.sep)[-1] for line in errors[0].splitlines()] == [WORKER_FAULTS[fault]]

    def test_parts_are_contiguous_and_split_by_position(self, tmp_path):
        # five discourses of about 100, 100, 200, 300 and 100 characters:
        # each goes to the part its middle falls in, and every part walks
        # every file
        items = [{"id": f"d{i}", "pad": "x" * (n - 20)} for i, n in enumerate([100, 100, 200])]
        items += [{"id": "d3", "pad": "x" * 280}, {"id": "d4", "pad": "x" * 80}]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps(items[:3]), encoding="utf-8")
        second.write_text(json.dumps(items[3:]), encoding="utf-8")
        files = [cli_mod._size(str(first)), cli_mod._size(str(second))]
        total = sum(size for _, size, _ in files)
        for parts in (1, 2, 3, 4, 7):
            got = []
            for part in range(parts):
                (read, found, fault), ids = cli_mod._part(files, part, parts, lambda d: d.id)
                assert [did for _, _, discourses in read for _, did in discourses] == [
                    f"d{i}" for i in range(5)
                ]
                assert len(found) == len(ids) and not any(found) and fault is None
                got.append(ids)
            assert [did for ids in got for did in ids] == [f"d{i}" for i in range(5)]
            # no part ends more than a discourse past its share of the corpus
            before = 0
            for part, ids in enumerate(got):
                before += sum(len(json.dumps(items[int(did[1:])])) for did in ids)
                assert before <= (part + 1) * total / parts + 300

    def test_parts_of_multi_byte_text_hold_equal_shares(self, tmp_path):
        # a position counts bytes, so a file of 3-byte characters splits
        # as evenly as an ASCII one: each part within one discourse (30
        # utterances) of an equal share of the 3,000
        gen = load_corpus_gen()
        data = gen.build_corpus("topic_cues", 1)
        for discourse in data["discourses"]:
            for utterance in discourse["utterances"]:
                utterance["text"] = "日本語の文です。"
        path = tmp_path / "japanese.json"
        path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        files = [cli_mod._size(str(path))]
        total = sum(len(d["utterances"]) for d in data["discourses"])
        assert total == 3000
        for parts in (2, 3):
            counts = [
                sum(cli_mod._part(files, part, parts, lambda d: len(d.utterances))[1])
                for part in range(parts)
            ]
            assert sum(counts) == total
            assert all(abs(count - total / parts) <= 30 for count in counts), counts

    def test_fork_returns_every_head_then_the_results_in_order(self, monkeypatch):
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
        parts = [[1], [2, 3], [4, 5, 6]]
        stream = cli_mod._fork(
            3, [0, 1, 2], lambda k: (sum(parts[k]), [(os.getpid(), n) for n in parts[k]])
        )
        # every worker's head first, then each result in input order
        assert next(stream) == [1, 5, 15]
        got = list(stream)
        assert [n for _, n in got] == [1, 2, 3, 4, 5, 6]
        assert len({pid for pid, _ in got}) == 3 and os.getpid() not in {pid for pid, _ in got}

    def test_the_parent_keeps_no_decoded_discourse(self, pool_corpus):
        # it only sizes the files: a regular file by its identity, which
        # holds no text; a pipe by its bytes, read once
        read_end, write_end = os.pipe()
        with open(write_end, "wb") as fh:
            fh.write(b"[]")
        with open(read_end, "rb") as fh:
            files = [cli_mod._size(path) for path in [*pool_corpus, f"/dev/fd/{fh.fileno()}"]]
        sizes = [os.path.getsize(path) for path in pool_corpus]
        assert [size for _, size, _ in files] == [*sizes, 2]
        assert all(type(known) is tuple and len(known) == 4 for _, _, known in files[:-1])
        assert files[-1][2] == b"[]"

    def test_raw_json_is_dropped_before_the_job_runs(self, pool_corpus, monkeypatch):
        # the item the walk decoded is held by nothing but the test's own
        # list once the discourse is built: the walk and the caller dropped it
        items, counts = [], []
        real = cli_mod.corpus_io.build_discourse

        def build(r, item):
            items.append(item)
            return real(r, item)

        def job(discourse):
            counts.append(sys.getrefcount(items[-1]))
            return discourse.id

        monkeypatch.setattr(cli_mod.corpus_io, "build_discourse", build)
        files = [cli_mod._size(path) for path in pool_corpus]
        (_, found, fault), ids = cli_mod._part(files, 0, 1, job)
        assert len(ids) == 44 and not any(found) and fault is None
        assert counts == [2] * 44

    def test_a_worker_per_part_of_bytes(self, pool_corpus, monkeypatch):
        size = sum(os.path.getsize(path) for path in pool_corpus)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
        # two workers would need one byte more than the corpus holds
        monkeypatch.setattr(cli_mod, "_BYTES_PER_PART", size // 2 + 1)
        assert engine_pids(pool_corpus) == {os.getpid()}
        monkeypatch.setattr(cli_mod, "_BYTES_PER_PART", size // 2)
        assert os.getpid() not in engine_pids(pool_corpus)

    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
        reason="needs two CPUs",
    )
    def test_workers_run_on_cpus_of_their_own(self, pool_corpus, monkeypatch):
        monkeypatch.setattr(cli_mod, "_BYTES_PER_PART", 1)
        args = cli_mod._build_parser().parse_args(["analyze", *pool_corpus])
        # each pair is made by the worker that ran the fold
        masks = dict(
            cli_mod._run_engine(
                args, lambda discourse, stream: (os.getpid(), os.sched_getaffinity(0))
            )
        )
        assert all(len(mask) == 1 for mask in masks.values())
        assert len(set(map(frozenset, masks.values()))) == len(masks)

    @pytest.mark.parametrize("fixtures", [(), ("etching_factory", "device_lineup")])
    def test_small_corpus_never_imports_a_pool(self, fixtures, tmp_path):
        paths = [tmp_path / "empty.centering.json"]
        paths[0].write_text('{"discourses": []}', encoding="utf-8")
        for name in fixtures:
            paths.append(tmp_path / f"{name}.centering.json")
            paths[-1].write_text(fixture_text(name), encoding="utf-8")
        # -S: no site hook may preload a module and hide the package's own
        # import of it; the record module stands in for dataclasses, and
        # the fixtures' loader for importlib.resources
        unused = ["multiprocessing", "pickle", "dataclasses", "inspect"]
        unused += ["importlib.resources", "pathlib"]
        proc = run_python(
            "import sys\n"
            "from centering.cli import main\n"
            f"code = main(['analyze', *{list(map(str, paths))!r}])\n"
            f"print(code, sorted(set({unused!r}) & set(sys.modules)))\n",
            "-S",
        )
        assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


def run_python(code, *options):
    """Run `code` in a new interpreter, started with `options`, that imports
    this package."""
    src = str(Path(centering.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *options, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def topic_cues_text(discourses=20):
    """The first discourses of the benchmark's seed-1 topic_cues corpus,
    made by its generator, which is imported and only read."""
    gen = load_corpus_gen()
    corpus = gen.build_corpus("topic_cues", 1)
    return gen.corpus_text({"discourses": corpus["discourses"][:discourses]})


def open_descriptors():
    """How many descriptors this process has open."""
    return len(os.listdir("/proc/self/fd"))


class Boom(Exception):
    pass


def boom(discourse):
    raise Boom(discourse.id)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize(
    "case", ["success", "diagnostic-in-last-share", "job-raises", "closed-early"]
)
def test_no_descriptor_is_left_open(case, cpus, pool_corpus, tmp_path, monkeypatch, capsys):
    # each process opens each file by path to walk it; a file left open
    # warns only when its object is collected, which a traceback can put
    # off, so the descriptors are counted
    paths = list(pool_corpus)
    if case == "diagnostic-in-last-share":
        data = json.loads(fixture_text("device_lineup"))
        data["discourses"][0]["utterances"][-1]["expressions"][0]["role"] = "subjekt"
        paths[-1] = str(tmp_path / "device_lineup.centering.json")
        Path(paths[-1]).write_text(json.dumps(data), encoding="utf-8")
    with_cpus(monkeypatch, cpus)
    before = open_descriptors()
    if case in ("success", "diagnostic-in-last-share"):
        code, _, _ = run_cli(capsys, "analyze", *paths)
        assert code == (0 if case == "success" else 1)
    elif case == "job-raises":
        with pytest.raises(Boom):
            cli_mod._run_parts(paths, boom)
    else:
        results = cli_mod._run_parts(paths, lambda discourse: discourse.id)
        assert next(results) == "golden-0"
        results.close()
    assert open_descriptors() == before


@pytest.mark.parametrize("cpus", [1, 3])
def test_more_files_than_the_descriptor_limit(cpus, tmp_path, capsys):
    # in a child interpreter whose own soft limit on open descriptors is
    # below the number of files: each process holds one file at a time
    discourses = json.loads(topic_cues_text(40))["discourses"]
    whole = tmp_path / "whole.centering.json"
    whole.write_text(json.dumps({"discourses": discourses}), encoding="utf-8")
    paths = []
    for k, discourse in enumerate(discourses):
        paths.append(str(tmp_path / f"part-{k}.centering.json"))
        Path(paths[-1]).write_text(json.dumps([discourse]), encoding="utf-8")
    want = run_cli(capsys, "analyze", "--format", "machine", str(whole))
    proc = run_python(
        "import os, resource, sys\n"
        "import centering.cli as cli\n"
        "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
        "resource.setrlimit(resource.RLIMIT_NOFILE, (16, hard))\n"
        "cli._BYTES_PER_PART = 1\n"
        f"os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
        "os.sched_setaffinity = lambda pid, cpus: None\n"
        f"sys.exit(cli.main(['analyze', '--format', 'machine', *{paths!r}]))\n"
    )
    assert len(paths) > 16
    assert (proc.returncode, proc.stdout, proc.stderr) == want


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("change", ["rewritten-in-place", "replaced", "grown"])
def test_a_file_changed_after_it_was_sized_fails(
    change, cpus, pool_corpus, tmp_path, monkeypatch, capsys
):
    paths = []
    for path in pool_corpus:
        paths.append(str(tmp_path / Path(path).name))
        Path(paths[-1]).write_bytes(Path(path).read_bytes())
    target = paths[0]
    # an hour old, so that any rewrite during the run has another time
    an_hour_ago = time.time_ns() - 3600 * 10**9
    os.utime(target, ns=(an_hour_ago, an_hour_ago))
    real = cli_mod._size

    def size_then_change(path):
        sized = real(path)
        if path == target:
            data = Path(path).read_bytes()
            if change == "rewritten-in-place":
                with open(path, "r+b") as fh:
                    fh.write(data.replace(b'"golden-0"', b'"golden-X"', 1))
            elif change == "replaced":
                Path(path + ".new").write_bytes(data)
                os.replace(path + ".new", path)
            else:
                Path(path).write_bytes(data + b"\n")
        return sized

    monkeypatch.setattr(cli_mod, "_size", size_then_change)
    with_cpus(monkeypatch, cpus)
    code, out, err = run_cli(capsys, "analyze", *paths)
    assert (code, out, err) == (1, "", f"error: {target}: changed after the command began\n")


def test_memory_grows_with_the_text_not_the_decoded_corpus(tmp_path, monkeypatch, capsys):
    # In process, a command holds a window of each file, one decoded
    # discourse at a time and each discourse's small result: its peak
    # hardly grows with the file, where holding the file's bytes and text
    # grew by about two bytes per byte of input, and a decoded corpus held
    # whole by about eight.
    monkeypatch.setattr(cli_mod, "_cpus", lambda: [0])
    sizes, peaks = [], []
    for discourses in (20, 60, 100):
        path = tmp_path / f"topic-cues-{discourses}.centering.json"
        path.write_text(topic_cues_text(discourses), encoding="utf-8")
        sizes.append(path.stat().st_size)
        tracemalloc.start()
        try:
            code = main(["stats", "--format", "machine", str(path)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    capsys.readouterr()
    for step in (1, 2):
        growth = (peaks[step] - peaks[step - 1]) / (sizes[step] - sizes[step - 1])
        assert growth <= 0.5, f"peak grew {growth:.2f} bytes per input byte, peaks {peaks}"


def test_analyze_holds_no_more_than_the_walk_of_a_long_discourse(tmp_path, monkeypatch):
    # In process, analyze renders each utterance's report as the engine
    # hands it on and keeps only the rendered text, in pieces, which takes
    # less room than the decoded discourse the walk dropped. Holding the discourse's states,
    # its whole report and its block as lines and joined, analyze peaked at
    # 11.33 MB against 8.56 MB for the walk.
    monkeypatch.setattr(cli_mod, "_cpus", lambda: [0])
    gen = load_corpus_gen()
    data = gen.random_discourse(random.Random(7), "long", 4800, 6, 0.35)
    path = tmp_path / "long.centering.json"
    path.write_text(gen.corpus_text({"discourses": [data]}), encoding="utf-8")

    def walk_and_build():
        with open(path, "rb") as fh:
            for r, item in cli_mod.corpus_io.walk(fh):
                cli_mod.corpus_io.build_discourse(r, item)

    def analyze():
        with open(os.devnull, "w", encoding="utf-8") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                assert main(["analyze", "--format", "machine", str(path)]) == 0
            finally:
                sys.stdout = stdout

    walk_and_build()  # first-use caches out of the measurement
    peaks = []
    for run in (walk_and_build, analyze):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.15 * peaks[0], f"peaks {peaks}"


def test_the_parent_holds_one_worker_result_at_a_time(pool_corpus, monkeypatch):
    # Each worker keeps its results until the parent reads them, so the
    # parent's peak is about one result, not the 44 of the corpus (8.8 MB).
    with_cpus(monkeypatch, 3)
    tracemalloc.start()
    try:
        results = cli_mod._run_parts(pool_corpus, lambda discourse: "x" * 200_000)
        # from here on: reading the files peaks at their first windows
        tracemalloc.reset_peak()
        sizes = []
        for result in results:
            sizes.append(len(result))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [200_000] * 44
    assert peak < 1_000_000, f"peak {peak / 1e6:.2f} MB"


class TestCollector:
    """The engine commands run with the cyclic garbage collector off. That
    is sound only while reference counting alone frees everything their job
    path makes, and only if the caller gets its collector back as it was."""

    @pytest.mark.parametrize("corpus", ["fixtures", "topic_cues"])
    def test_run_leaves_no_cyclic_garbage(self, corpus):
        if corpus == "fixtures":
            texts = [fixture_text(name) for name in FIXTURE_NAMES]
        else:
            texts = [topic_cues_text()]
        data = json.loads(texts[-1])
        data["discourses"][-1]["utterances"][1]["expressions"][0]["role"] = "bogus"
        failing = [json.dumps(data), *(beyond_the_decoder(case)[0] for case in DECODER_CASES)]
        gc.collect()
        gc.disable()
        try:
            for text in failing:
                try:
                    parse_corpus(text)
                except CorpusFormatError:
                    pass
                else:
                    pytest.fail("a bad corpus parsed")
            for text in texts:
                discourses = parse_corpus(text)
                reports = run_corpus(discourses)
                for d in discourses:
                    for format in ("text", "machine"):
                        list(report_lines(stream_discourse(d), format))
                tabulate_transitions(reports)
                tabulate_disambiguation(reports)
                evaluate_gold(reports, discourses)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    def test_main_leaves_the_collector_as_it_found_it(
        self, enabled, cpus, valid, pool_corpus, tmp_path, monkeypatch, capsys
    ):
        paths = list(pool_corpus)
        if not valid:
            paths[-1] = tmp_path / "broken.centering.json"
            paths[-1].write_text('{"discourses": [', encoding="utf-8")
        with_cpus(monkeypatch, cpus)
        (gc.enable if enabled else gc.disable)()
        try:
            code, _, _ = run_cli(capsys, "analyze", *map(str, paths))
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert code == (0 if valid else 1)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_jobs_run_with_the_collector_off(self, cpus, pool_corpus, monkeypatch):
        with_cpus(monkeypatch, cpus)
        args = cli_mod._build_parser().parse_args(["analyze", *pool_corpus])
        # each pair is made by the process that ran the fold
        results = cli_mod._run_engine(
            args, lambda discourse, stream: (os.getpid(), gc.isenabled())
        )
        states = [next(results)]
        # off until the last result is read, and the caller's setting after
        assert not gc.isenabled()
        states += results
        assert gc.isenabled()
        assert len(states) == 44 and not any(enabled for _, enabled in states)
        assert len({pid for pid, _ in states}) == (1 if cpus == 1 else 3)


def japanese_topic_cue_text():
    """Six topic-cue discourses whose utterances carry Japanese text: plural
    zeros resolve to sets, and retrievals record their member order."""
    gen = load_corpus_gen()
    rng = random.Random(7)
    data = {"discourses": [gen.topic_cue_discourse(rng, f"jp-{k}", 30) for k in range(6)]}
    for d in data["discourses"]:
        for k, u in enumerate(d["utterances"]):
            u["text"] = "試験は難しかった。太郎が答案を出した。"[k % 9 :]
    return json.dumps(data, ensure_ascii=False)


@pytest.mark.parametrize("encoder", ["once built", "JSONEncoder.encode"])
def test_machine_lines_are_what_json_dumps_writes(encoder, tmp_path, capsys, monkeypatch):
    text = japanese_topic_cue_text()
    reports = run_corpus(parse_corpus(text))
    utts = [u for rep in reports for u in rep.utterances]
    assert any(type(v) is frozenset for u in utts for _, v in u.resolutions)
    assert any(r.member_order for u in utts for r in u.retrievals)
    assert all(not u.text.isascii() for u in utts)

    def dumps(obj):
        return json.dumps(obj, default=encode_resolution) + "\n"

    blocks = [
        [dumps(corpus_mod._UTTERANCE_OBJECT(u)) for u in rep.utterances]
        + [dumps(corpus_mod._DISCOURSE_OBJECT(rep))]
        for rep in reports
    ]
    resolved = [
        dumps(
            {
                "antecedent": value,
                "cues": u.cues,
                "discourse": u.discourse_id,
                "pos": pos,
                "utterance": u.index,
            }
        )
        for u in utts
        for pos, value in u.resolutions
    ]
    path = tmp_path / "japanese.json"
    path.write_text(text, encoding="utf-8")

    if encoder == "JSONEncoder.encode":
        # as where the C accelerator is missing
        monkeypatch.setattr(corpus_mod, "_C_ENCODER", None)
    made = []
    make = json.encoder.c_make_encoder
    if make is not None:
        monkeypatch.setattr(json.encoder, "c_make_encoder", lambda *a: made.append(a) or make(*a))
    assert [list(report_lines((rep,), "machine")) for rep in reports] == blocks
    code, out, _ = run_cli(capsys, "resolve", "--format", "machine", str(path))
    assert code == 0 and out.splitlines(keepends=True) == resolved
    # only JSONEncoder.encode makes a C encoder, one per line
    assert bool(made) == (encoder == "JSONEncoder.encode" and make is not None)
