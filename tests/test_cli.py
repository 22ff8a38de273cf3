"""End-to-end command line behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import centering
import centering.cli as cli_mod
from centering.cli import main
from centering.corpus import RawDiscourse, fixture_text, serialize_corpus

from test_golden import synth_corpus


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

    def test_non_utf8_file_is_a_located_format_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.centering.json"
        path.write_bytes(b"\xff\xfe" + '{"discourses": []}'.encode("utf-16-le"))
        diag = f"{path}: byte 0: not UTF-8: invalid start byte [malformed-encoding]"
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

    def test_internal_fault_exit_two(self, corpus_file, capsys, monkeypatch):
        import centering.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(cli_mod, "run_corpus", boom)
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
    every utterance, so that a small corpus reaches the pool too."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    monkeypatch.setattr(cli_mod, "_UTTERANCES_PER_WORKER", 1)


def engine_pids(paths):
    """The processes that ran the engine on the groups of `paths`."""
    args = cli_mod._build_parser().parse_args(["analyze", *paths])
    return set(cli_mod._run_engine(args, lambda reports, _: os.getpid()))


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
        real, parent = cli_mod.run_corpus, os.getpid()

        def fail_on_last_group(discourses, config):
            # raises only in a worker, so the groups must run in workers
            if discourses[-1].id == "device-lineup" and os.getpid() != parent:
                raise RuntimeError("engine fault")
            return real(discourses, config)

        monkeypatch.setattr(cli_mod, "run_corpus", fail_on_last_group)
        with_cpus(monkeypatch, 3)
        code, out, err = run_cli(capsys, "analyze", *pool_corpus)
        assert (code, out) == (2, "")
        assert "internal error" in err and "engine fault" in err

    def test_dead_worker_exit_two(self, pool_corpus):
        # in a child interpreter, so that a hang fails by timeout
        proc = run_python(
            "import os, sys\n"
            "import centering.cli as cli\n"
            "real, parent = cli.run_corpus, os.getpid()\n"
            "def die(discourses, config):\n"
            "    if os.getpid() != parent:\n"
            "        os._exit(3)\n"
            "    return real(discourses, config)\n"
            "cli.run_corpus = die\n"
            "cli._UTTERANCES_PER_WORKER = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "os.sched_setaffinity = lambda pid, cpus: None\n"
            f"sys.exit(cli.main(['analyze', *{pool_corpus!r}]))\n"
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "internal error" in proc.stderr and "exit status 3" in proc.stderr

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

    def test_shares_are_contiguous_and_balanced_by_utterances(self, monkeypatch):
        monkeypatch.setattr(cli_mod, "_UTTERANCES_PER_WORKER", 1)
        raw = [
            RawDiscourse(f"discourses[{i}]", {"utterances": [{}] * n}, f"d{i}", False)
            for i, n in enumerate([5, 0, 5, 10, 0])
        ]
        raw.append(RawDiscourse("discourses[5]", 5, None, False))
        shares = cli_mod._shares(list(raw), 2)
        assert shares == [raw[:3], raw[3:]]
        assert cli_mod._shares(list(raw), 1) == [raw]
        assert cli_mod._shares([], 2) == []

    def test_raw_json_is_dropped_before_the_job_runs(self, pool_corpus):
        _, raw = cli_mod._read(pool_corpus)
        found, held = cli_mod._run_share(raw, True, lambda discourses: (len(raw), len(discourses)))
        assert held == (0, 44) and not any(found)

    def test_a_worker_per_threshold_of_utterances(self, pool_corpus, monkeypatch):
        size = sum(
            len(d["utterances"])
            for path in pool_corpus
            for d in json.loads(Path(path).read_text(encoding="utf-8"))["discourses"]
        )
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
        # two workers would need one utterance more than the corpus holds
        monkeypatch.setattr(cli_mod, "_UTTERANCES_PER_WORKER", size // 2 + 1)
        assert engine_pids(pool_corpus) == {os.getpid()}
        monkeypatch.setattr(cli_mod, "_UTTERANCES_PER_WORKER", size // 2)
        assert os.getpid() not in engine_pids(pool_corpus)

    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
        reason="needs two CPUs",
    )
    def test_workers_run_on_cpus_of_their_own(self, pool_corpus, monkeypatch):
        monkeypatch.setattr(cli_mod, "_UTTERANCES_PER_WORKER", 1)
        args = cli_mod._build_parser().parse_args(["analyze", *pool_corpus])
        masks = dict(
            cli_mod._run_engine(args, lambda reports, _: (os.getpid(), os.sched_getaffinity(0)))
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
        proc = run_python(
            "import sys\n"
            "from centering.cli import main\n"
            f"code = main(['analyze', *{list(map(str, paths))!r}])\n"
            "print(code, sorted({'multiprocessing', 'pickle'} & set(sys.modules)))\n"
        )
        assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


def run_python(code):
    """Run `code` in a new interpreter that imports this package."""
    src = str(Path(centering.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
