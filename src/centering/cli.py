"""Batch command line for corpus analysis.

Subcommands: analyze (per-utterance trace), stats (distribution tables plus
chi-square), resolve (zero-to-antecedent listing), validate (list every
diagnostic on stdout), eval (gold comparison). Every command parses, and so
validates, its input first. Exit codes: 0 success, 1 format, validation or
usage problem, 2 internal fault.

The engine commands spread a large corpus over the CPUs in the process's
affinity mask: contiguous groups of discourses run in forked workers, one
per CPU and per `_UTTERANCES_PER_WORKER` utterances, and their results are
merged in input order, so the output does not depend on the CPU count. A
single discourse, a corpus too small for two workers, or a single CPU runs
in process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional, Sequence

from . import analysis, corpus as corpus_io
from .engine import DiscourseReport, EngineConfig, run_corpus
from .hypotheses import DEFAULT_BEAM
from .model import Discourse, Violation, encode_resolution, format_resolution

#: Groups of discourses per worker. Workers pull the next group when they
#: finish one, so a slow group or a slow CPU holds up at most one group.
_TASKS_PER_WORKER = 8

#: Fewest utterances per worker. Starting a pool of two costs about 50 ms on
#: a 2-vCPU machine, and two workers broke even there at about 1500 short
#: utterances, so a corpus of fewer than 2000 runs in process.
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


def _load(paths: Sequence[str]) -> list[Discourse]:
    """Parse every file; one CorpusFormatError carries the diagnostics of
    all of them, each location prefixed with its file's path. A discourse id
    may appear once across all the files, as within one."""
    discourses: list[Discourse] = []
    diags: list[Violation] = []
    seen_ids: set[str] = set()
    for path in paths:
        try:
            parsed = corpus_io.parse_corpus(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            message = f"not UTF-8: {exc.reason}"
            diags.append(Violation("malformed-encoding", f"{path}: byte {exc.start}", message))
            continue
        except corpus_io.CorpusFormatError as exc:
            for v in exc.diagnostics:
                diags.append(Violation(v.code, f"{path}: {v.location}", v.message))
            continue
        # a parsed file dropped no element, so list and file indices agree
        for i, d in enumerate(parsed):
            if d.id in seen_ids:
                diags.append(
                    Violation(
                        "duplicate-discourse-id",
                        f"{path}: discourses[{i}]",
                        f"discourse id '{d.id}' repeated",
                    )
                )
            seen_ids.add(d.id)
        discourses.extend(parsed)
    if diags:
        raise corpus_io.CorpusFormatError(diags)
    return discourses


def _config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        beam=args.beam,
        zta_enabled=not args.no_zta,
        global_enabled=not args.no_global,
    )


#: The task function of a pool worker, set in the worker by `_start_worker`.
_worker_job: Callable[[int], Any]


def _start_worker(job: Callable[[int], Any], cpus: Any) -> None:
    """Keep the task function and move to a CPU no other worker has: left
    to the scheduler, forked workers that wait on the task queue between
    groups were woken on one CPU and ran no faster than one process."""
    global _worker_job
    _worker_job = job
    os.sched_setaffinity(0, {cpus.get()})


def _run_worker_task(i: int) -> Any:
    return _worker_job(i)


def _cpus() -> list[int]:
    """The CPUs this process may run on; one where that is not known."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [0]


def _run_engine(
    args: argparse.Namespace,
    finish: Callable[[list[DiscourseReport], Sequence[Discourse]], Any],
) -> list[Any]:
    """Parse the files, run the engine over contiguous groups of their
    discourses and return `finish(reports, discourses)` of each group, in
    input order.

    Groups run in forked workers, at most one per CPU and one per
    `_UTTERANCES_PER_WORKER` utterances, `_TASKS_PER_WORKER` groups per
    worker; a corpus that gets one worker runs in process as one group.
    Workers inherit the parsed discourses through fork and pull one group at
    a time; only the small results of `finish` travel back. An exception in
    a worker is raised here.
    """
    discourses = _load(args.files)
    config = _config(args)
    cpus = _cpus()
    n = len(discourses)
    size = sum(len(d.utterances) for d in discourses)
    workers = min(len(cpus), n, size // _UTTERANCES_PER_WORKER)
    n_tasks = min(n, _TASKS_PER_WORKER * workers if workers > 1 else 1)
    tasks = [discourses[n * k // n_tasks : n * (k + 1) // n_tasks] for k in range(n_tasks)]

    def job(i: int) -> Any:
        return finish(run_corpus(tasks[i], config), tasks[i])

    if workers <= 1:
        return list(map(job, range(n_tasks)))
    # Imported here, so that a run in process never pays for the import.
    # fork, not spawn: the process has started no thread, and a forked
    # worker shares the parsed corpus instead of receiving it pickled. An
    # executor, not a multiprocessing.Pool: a worker that dies (say, killed
    # for memory) raises BrokenProcessPool here, where a Pool waits forever.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    free_cpus = context.SimpleQueue()
    for cpu in cpus[:workers]:
        free_cpus.put(cpu)
    pool = ProcessPoolExecutor(workers, context, _start_worker, (job, free_cpus))
    try:
        return list(pool.map(_run_worker_task, range(n_tasks)))
    finally:
        pool.shutdown(cancel_futures=True)


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
        summary = f"{len(_load(args.files))} discourse(s), 0 violation(s)"
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
