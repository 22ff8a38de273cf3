"""Batch command line for corpus analysis.

Subcommands: analyze (per-utterance trace), stats (distribution tables plus
chi-square), resolve (zero-to-antecedent listing), validate (list every
diagnostic on stdout), eval (gold comparison). Every command validates its
whole input and prints no result for input with a problem. Exit codes: 0
success, 1 format, validation or usage problem, 2 internal fault.

Every command spreads a large corpus over the CPUs in the process's
affinity mask. The parent only reads and decodes the files and checks their
discourse ids. Forked workers, one per CPU and per `_UTTERANCES_PER_WORKER`
utterances, each build, validate and run a contiguous share of the
discourses, balanced by utterance count, and send back their diagnostics
and results. The parent merges these in input order, so the output, errors
included, does not depend on the CPU count. A single discourse, a corpus
too small for two workers, or a single CPU runs in process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional, Sequence

from . import analysis, corpus as corpus_io
from .engine import DiscourseReport, EngineConfig, run_corpus
from .hypotheses import DEFAULT_BEAM
from .model import Discourse, Violation, encode_resolution, format_resolution

#: Fewest utterances per worker, so a corpus of fewer than 2000 runs in
#: process. On a 2-vCPU machine two forked workers break even with one
#: process at about 500 short utterances and are 6% faster at 1000, so the
#: bound is conservative; it stays until a benchmark workload lies below it.
_UTTERANCES_PER_WORKER = 1000


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other input problem; 2 is kept for
    internal faults."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _beam_width(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="centering",
        description="Centering-based discourse coherence and zero resolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, engine: bool = True) -> None:
        p.add_argument("files", nargs="+", metavar="FILE", help="corpus file(s)")
        p.add_argument(
            "--format",
            choices=("text", "machine"),
            default="text",
            help="output format (default: text)",
        )
        if engine:
            p.add_argument(
                "--beam",
                type=_beam_width,
                default=DEFAULT_BEAM,
                help="hypothesis beam width (>= 1)",
            )
            p.add_argument(
                "--no-zta",
                action="store_true",
                help="disable zero topic promotion (ablation)",
            )
            p.add_argument(
                "--no-global",
                action="store_true",
                help="disable former-center retrieval (ablation)",
            )

    add_common(sub.add_parser("analyze", help="per-utterance centering trace"))
    add_common(sub.add_parser("stats", help="distribution tables and chi-square"))
    add_common(sub.add_parser("resolve", help="zero-to-antecedent listing"))
    add_common(sub.add_parser("validate", help="check corpus well-formedness"), engine=False)
    add_common(sub.add_parser("eval", help="compare against gold annotations"))
    return parser


#: A file as the parent read it: its path, the diagnostic that stopped its
#: reading (none if it was read), and the location and id of each of its
#: discourses.
_File = tuple[str, list[Violation], list[tuple[str, Optional[str]]]]


def _read(paths: Sequence[str]) -> tuple[list[_File], list[corpus_io.RawDiscourse]]:
    """Read and decode every file: the files, and the raw discourses of all
    of them in input order."""
    files: list[_File] = []
    raw: list[corpus_io.RawDiscourse] = []
    for path in paths:
        failure: list[Violation] = []
        found: list[corpus_io.RawDiscourse] = []
        try:
            found = corpus_io.read_document(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            message = f"not UTF-8: {exc.reason}"
            failure = [Violation("malformed-encoding", f"byte {exc.start}", message)]
        except corpus_io.CorpusFormatError as exc:
            failure = exc.diagnostics
        files.append((path, failure, [(r.loc, r.id) for r in found]))
        raw.extend(found)
    return files, raw


def _diagnostics(files: list[_File], found: list[list[Violation]]) -> list[Violation]:
    """Every file's diagnostics, in file order, each location prefixed with
    its file's path: what stopped its reading, or what its discourses
    `found`, or, for a file with neither, each discourse id that a file
    before it without diagnostics has."""
    diags: list[Violation] = []
    seen_ids: set[Optional[str]] = set()
    at = 0
    for path, failure, discourses in files:
        mine = failure + [v for per in found[at : at + len(discourses)] for v in per]
        at += len(discourses)
        if not mine:
            for loc, did in discourses:
                if did in seen_ids:
                    mine.append(corpus_io.repeated_id(loc, did))
                seen_ids.add(did)
        diags.extend(Violation(v.code, f"{path}: {v.location}", v.message) for v in mine)
    return diags


def _config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        beam=args.beam,
        zta_enabled=not args.no_zta,
        global_enabled=not args.no_global,
    )


def _cpus() -> list[int]:
    """The CPUs this process may run on; one where that is not known."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [0]


def _utterances(r: corpus_io.RawDiscourse) -> int:
    utterances = r.item.get("utterances") if isinstance(r.item, dict) else None
    return len(utterances) if isinstance(utterances, list) else 0


def _shares(raw: list[corpus_io.RawDiscourse], cpus: int) -> list[list[corpus_io.RawDiscourse]]:
    """Cut `raw` into contiguous shares of about equal utterance counts, at
    most one per CPU and one per `_UTTERANCES_PER_WORKER` utterances: each
    discourse goes to the share its middle falls in. A corpus that gets one
    share is that share."""
    sizes = list(map(_utterances, raw))
    total = sum(sizes)
    n = min(cpus, len(raw), total // _UTTERANCES_PER_WORKER)
    if n <= 1:
        return [raw] if raw else []
    shares: list[list[corpus_io.RawDiscourse]] = [[] for _ in range(n)]
    before = 0
    for r, size in zip(raw, sizes):
        # a discourse without utterances at the very end has its middle there
        shares[min(n - 1, (2 * before + size) * n // (2 * total))].append(r)
        before += size
    return [share for share in shares if share]


def _run_share(
    share: list[corpus_io.RawDiscourse], run: bool, job: Callable[[list[Discourse]], Any]
) -> tuple[list[list[Violation]], Any]:
    """Build and validate the discourses of `share`, and, if `run` and none
    has a diagnostic, return `job(discourses)` with their diagnostics. The
    share is emptied once built, so its raw JSON is not held while the job
    runs."""
    discourses, found = corpus_io.build_discourses(share)
    share.clear()
    return found, job(discourses) if run and not any(found) else None


def _run_shares(paths: Sequence[str], job: Callable[[list[Discourse]], Any]) -> list[Any]:
    """Read the files, build their discourses in contiguous shares and
    return `job(discourses)` of each share in input order; raise
    CorpusFormatError with every diagnostic of every file instead if there
    is one.

    The parent only reads and decodes the files and checks their discourse
    ids; the shares are built and run in forked workers, at most one per
    CPU and one per `_UTTERANCES_PER_WORKER` utterances, each pinned to a
    CPU of its own. A corpus that gets one worker runs in process. The
    heap is frozen (`gc.freeze`) before the shares are built, so the
    workers' garbage collector neither walks nor copies what they inherit.
    It stays frozen: the command ends the process, whose exit then skips
    the frozen objects.
    """
    files, raw = _read(paths)
    ids = [r.id for r in raw]
    # No job runs on a corpus whose reading already failed.
    run = not any(failure for _, failure, _ in files) and len(set(ids)) == len(ids)
    cpus = _cpus()
    shares = _shares(raw, len(cpus))
    del raw

    def work(share: list[corpus_io.RawDiscourse]) -> tuple[list[list[Violation]], Any]:
        return _run_share(share, run, job)

    gc.freeze()
    results = _fork(shares, cpus, work) if len(shares) > 1 else list(map(work, shares))
    diags = _diagnostics(files, [per for found, _ in results for per in found])
    if diags:
        raise corpus_io.CorpusFormatError(diags)
    return [result for _, result in results]


def _fork(shares: list[Any], cpus: list[int], work: Callable[[Any], Any]) -> list[Any]:
    """`work(share)` of each share, each run in a forked worker pinned to a
    CPU of its own (left to the scheduler, forked workers were woken on one
    CPU and ran no faster than one process). A worker sends its result back
    pickled over a pipe; an exception it raises is raised here, and a worker
    that dies is a RuntimeError naming its exit status. Fork, not spawn: the
    command starts no thread, and a forked worker shares the decoded JSON
    instead of receiving it pickled."""
    # Imported here, so that a run in process never pays for the import.
    import pickle

    workers = []
    for share, cpu in zip(shares, cpus):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_end)
                os.sched_setaffinity(0, {cpu})
                try:
                    reply = (True, work(share))
                except Exception as exc:
                    reply = (False, exc)
                with open(write_end, "wb") as pipe:
                    pickle.dump(reply, pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        workers.append((pid, read_end))
    replies = []
    for pid, read_end in workers:
        with open(read_end, "rb") as pipe:
            data = pipe.read()
        replies.append((data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for _, code in replies:
        if code != 0:
            raise RuntimeError(f"worker ended with exit status {code}")
    results = []
    for data, _ in replies:
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.append(value)
    return results


def _run_engine(
    args: argparse.Namespace,
    finish: Callable[[list[DiscourseReport], Sequence[Discourse]], Any],
) -> list[Any]:
    """Run the engine on the discourses of the files, share by share (see
    `_run_shares`), and return `finish(reports, discourses)` of each share
    in input order."""
    config = _config(args)
    return _run_shares(args.files, lambda ds: finish(run_corpus(ds, config), ds))


def _cmd_analyze(args: argparse.Namespace) -> int:
    blocks = _run_engine(args, lambda reports, _: corpus_io.report_blocks(reports, args.format))
    sys.stdout.write(corpus_io.report_head(args.format) + "".join(blocks))
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    parts = _run_engine(args, lambda reports, _: _resolution_lines(reports, args.format))
    lines = [line for part in parts for line in part]
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    return 0


def _resolution_lines(reports: list[DiscourseReport], format: str) -> list[str]:
    lines = []
    for rep in reports:
        for u in rep.utterances:
            for pos, value in u.resolutions:
                if format == "machine":
                    record = {
                        "discourse": rep.discourse_id,
                        "utterance": u.index,
                        "pos": pos,
                        "antecedent": encode_resolution(value),
                        "cues": list(u.cues),
                    }
                    lines.append(json.dumps(record, sort_keys=True))
                else:
                    cue = f"  cue={'+'.join(u.cues)}" if u.cues else ""
                    lines.append(
                        f"{rep.discourse_id} u{u.index} zero@{pos} -> "
                        f"{format_resolution(value)}{cue}"
                    )
    return lines


def _fmt_row(label: str, cells: Sequence[int]) -> str:
    return f"{label:>14} | " + " | ".join(f"{c:>12}" for c in cells)


def _cmd_stats(args: argparse.Namespace) -> int:
    parts = _run_engine(
        args,
        lambda reports, _: (
            analysis.tabulate_transitions(reports),
            analysis.tabulate_disambiguation(reports),
        ),
    )
    table = sum((t for t, _ in parts), analysis.tabulate_transitions(()))
    cues = analysis.tabulate_disambiguation(())
    for _, counts in parts:
        for name, n in counts.items():
            cues[name] += n
    a, b, c, d = table.continue_vs_rest()
    chi = analysis.chi_square_2x2(a, b, c, d) if table.grand_total else None

    if args.format == "machine":
        sys.stdout.write(
            json.dumps(
                {
                    "columns": list(analysis.COLUMNS),
                    "with_zero": list(table.with_zero),
                    "without_zero": list(table.without_zero),
                    "totals": list(table.totals),
                    "chi_square_continue_vs_rest": chi,
                    "disambiguation": cues,
                },
                sort_keys=True,
            )
            + "\n"
        )
        return 0

    header = f"{'':>14} | " + " | ".join(f"{c:>12}" for c in analysis.COLUMNS)
    out = [
        "Distribution of centering transitions by zero use",
        header,
        _fmt_row("with zero", table.with_zero),
        _fmt_row("without zero", table.without_zero),
        _fmt_row("total", table.totals),
        "",
        f"chi-square (continue vs rest x zero): "
        + (f"{chi:.3f}" if chi is not None else "undefined"),
        "",
        "Disambiguation cues for rough-shift with zeros",
        "  " + "  ".join(f"{name}={n}" for name, n in cues.items()),
    ]
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    violations: list[Violation] = []
    try:
        summary = f"{sum(_run_shares(args.files, len))} discourse(s), 0 violation(s)"
    except corpus_io.CorpusFormatError as exc:
        violations = exc.diagnostics
        summary = f"{len(violations)} violation(s)"
    for v in violations:
        line = json.dumps(vars(v), sort_keys=True) if args.format == "machine" else str(v)
        sys.stdout.write(line + "\n")
    if args.format == "text":
        sys.stdout.write(summary + "\n")
    return 1 if violations else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    parts = _run_engine(args, analysis.evaluate_gold)
    summary = sum(parts, analysis.GoldSummary())
    if args.format == "machine":
        sys.stdout.write(
            json.dumps(
                {
                    "correct": summary.correct,
                    "incorrect": summary.incorrect,
                    "unresolved": summary.unresolved,
                    "ungolded": summary.ungolded,
                    "accuracy": summary.accuracy,
                    "by_transition": {
                        k: list(v) for k, v in summary.by_transition.items()
                    },
                },
                sort_keys=True,
            )
            + "\n"
        )
        return 0
    if not summary.has_gold:
        sys.stdout.write("no gold annotations\n")
        return 0
    acc = summary.accuracy
    lines = [
        f"zeros scored: {summary.scored} (ungolded: {summary.ungolded})",
        f"correct: {summary.correct}  incorrect: {summary.incorrect}  "
        f"unresolved: {summary.unresolved}",
        f"accuracy: {acc:.1%}" if acc is not None else "accuracy: n/a",
        "by transition:",
    ]
    for label, (ok, bad, miss) in summary.by_transition.items():
        lines.append(f"  {label:>13}: correct={ok} incorrect={bad} unresolved={miss}")
    for detail in summary.details:
        if detail.status == "incorrect":
            lines.append(
                f"  MISMATCH {detail.discourse_id} u{detail.utterance_index} "
                f"zero@{detail.position}: predicted={format_resolution(detail.predicted)} "
                f"gold={format_resolution(detail.gold)}"
            )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "stats": _cmd_stats,
    "resolve": _cmd_resolve,
    "validate": _cmd_validate,
    "eval": _cmd_eval,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except corpus_io.CorpusFormatError as exc:
        for diag in exc.diagnostics:
            print(f"error: {diag}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal fault
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
