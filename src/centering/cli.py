"""Batch command line for corpus analysis.

Subcommands: analyze (per-utterance trace), stats (distribution tables plus
chi-square), resolve (zero-to-antecedent listing), validate (list every
diagnostic on stdout), eval (gold comparison). Every command validates its
whole input and prints no result for input with a problem. Exit codes: 0
success, 1 format, validation or usage problem, 2 internal fault.

Every command spreads a large corpus over the CPUs in the process's
affinity mask. The parent only indexes the files' discourses
(`corpus.read_file`: each one's location, id, utterance count and where its
JSON lies in its file) and checks their ids; it holds no decoded discourse,
and no file whole: it walks each through a small window and keeps it open.
Forked workers, one per CPU and per `_UTTERANCES_PER_WORKER` utterances,
each take a contiguous share of the index, balanced by utterance count, and
read back, decode, build, validate, run and finish its discourses one at a
time, dropping each before the next. Each worker streams its reply back
over a pipe: a head with its discourses' diagnostics (or its exception) and
how many results follow, then the results, each pickled on its own. The
parent reads every head before any result, so a diagnostic anywhere stops
the command before it writes a byte, and then unpickles one result at a
time, in input order, which the command writes or folds and drops; a worker
done early waits on its full pipe until its turn. The output, errors
included, does not depend on the CPU count. A single discourse, a corpus
too small for two workers, or a single CPU runs the same loop in process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Any, Callable, Iterator, NoReturn, Optional, Sequence

from . import analysis, corpus as corpus_io
from .engine import DiscourseReport, EngineConfig, run_corpus
from .hypotheses import DEFAULT_BEAM
from .model import Discourse, Violation, format_resolution

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


def _read(
    paths: Sequence[str], opened: list[Any]
) -> tuple[list[_File], list[corpus_io.RawDiscourse]]:
    """Read and index every file: the files, and the raw discourses of all
    of them in input order. Each file whose discourses are read back from
    it when they are built (`corpus.read_file`) stays open, and every file
    opened is added to `opened`, which the caller closes. Files kept open
    take at most half the descriptors the process may hold; past that, a
    file is read whole, as a pipe is."""
    files: list[_File] = []
    raw: list[corpus_io.RawDiscourse] = []
    room = os.sysconf("SC_OPEN_MAX") // 2 if hasattr(os, "sysconf") else 0
    for path in paths:
        failure: list[Violation] = []
        found: list[corpus_io.RawDiscourse] = []
        fh = open(path, "rb", buffering=0)
        opened.append(fh)
        try:
            found = corpus_io.read_file(fh.fileno(), window=room > 0)
        except UnicodeDecodeError as exc:
            message = f"not UTF-8: {exc.reason}"
            failure = [Violation("malformed-encoding", f"byte {exc.start}", message)]
        except corpus_io.CorpusFormatError as exc:
            failure = exc.diagnostics
        if any(r.source == fh.fileno() for r in found):
            room -= 1
        else:
            fh.close()
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


def _cpus() -> list[int]:
    """The CPUs this process may run on; one where that is not known."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [0]


def _shares(raw: list[corpus_io.RawDiscourse], cpus: int) -> list[list[corpus_io.RawDiscourse]]:
    """Cut `raw` into contiguous shares of about equal utterance counts, at
    most one per CPU and one per `_UTTERANCES_PER_WORKER` utterances: each
    discourse goes to the share its middle falls in. A corpus that gets one
    share is that share."""
    total = sum(r.size for r in raw)
    n = min(cpus, len(raw), total // _UTTERANCES_PER_WORKER)
    if n <= 1:
        return [raw] if raw else []
    shares: list[list[corpus_io.RawDiscourse]] = [[] for _ in range(n)]
    before = 0
    for r in raw:
        # a discourse without utterances at the very end has its middle there
        shares[min(n - 1, (2 * before + r.size) * n // (2 * total))].append(r)
        before += r.size
    return [share for share in shares if share]


def _run_share(
    share: list[corpus_io.RawDiscourse], run: bool, job: Callable[[Discourse], Any]
) -> tuple[list[list[Violation]], list[Any]]:
    """Decode, build and validate the discourses of `share` one at a time,
    in order, and run `job` on each while `run` and no discourse so far had
    a diagnostic: the diagnostics of each discourse, and the job's results.
    Each raw discourse is taken off the share before it is decoded, and each
    discourse is dropped before the next is decoded."""
    found, results = [], []
    share.reverse()
    while share:
        discourse, diags = corpus_io.build_discourse(share.pop())
        found.append(diags)
        run = run and not diags
        if run:
            results.append(job(discourse))
        del discourse
    return found, results


def _run_shares(paths: Sequence[str], job: Callable[[Discourse], Any]) -> Iterator[Any]:
    """Read the files and return an iterator over `job(discourse)` of each
    of their discourses in input order (the stream of the module
    docstring); raise CorpusFormatError with every diagnostic of every file
    instead, before any result, if there is one. Closed early, the iterator
    reaps every worker.

    The cyclic garbage collector is off from the reading of the files to
    the last result read, or the iterator's close, and the caller's setting
    is restored after; forked workers inherit it off and end with
    `os._exit`. Nothing this path makes forms a reference cycle, so
    reference counting alone frees it all, and the collector would only
    walk the live objects again and again. The heap is also frozen
    (`gc.freeze`) before the shares are run. It stays frozen: the command
    ends the process, whose last collection at exit then skips the frozen
    objects. The files that discourses are read back from stay open until
    then too, and are closed on every path.
    """
    results = _results(paths, job)
    next(results)  # runs up to the first result, so every error is raised here
    return results


def _results(paths: Sequence[str], job: Callable[[Discourse], Any]) -> Iterator[Any]:
    """The generator behind `_run_shares`: it yields None once the
    diagnostics are checked, and then the results."""
    enabled = gc.isenabled()
    gc.disable()
    opened: list[Any] = []
    try:
        files, raw = _read(paths, opened)
        ids = [did for _, _, discourses in files for _, did in discourses]
        # No job runs on a corpus whose reading already failed.
        run = not any(failure for _, failure, _ in files) and len(set(ids)) == len(ids)
        cpus = _cpus()
        shares = _shares(raw, len(cpus))
        del raw

        def work(share: list[corpus_io.RawDiscourse]) -> tuple[list[list[Violation]], list[Any]]:
            return _run_share(share, run, job)

        gc.freeze()
        stream = _fork(shares, cpus, work) if len(shares) > 1 else _in_process(shares, work)
        try:
            diags = _diagnostics(files, [per for head in next(stream) for per in head])
            if diags:
                raise corpus_io.CorpusFormatError(diags)
            yield None
            yield from stream
        finally:
            stream.close()
    finally:
        for fh in opened:
            fh.close()
        if enabled:
            gc.enable()


def _in_process(shares: list[Any], work: Callable[[Any], tuple[Any, list[Any]]]) -> Iterator[Any]:
    """The stream of `_fork`, with each share run in this process: the head
    of every share's `work(share)`, then the results of all of them."""
    parts = list(map(work, shares))
    yield [head for head, _ in parts]
    for _, results in parts:
        yield from results


def _fork(
    shares: list[Any], cpus: list[int], work: Callable[[Any], tuple[Any, list[Any]]]
) -> Iterator[Any]:
    """The stream of the module docstring for `work(share) = (head,
    results)` of each share: first the list of every share's head, then
    the results of all the shares in order, one at a time. Each share runs
    in a forked worker pinned to a CPU of its own (left to the scheduler,
    forked workers were woken on one CPU and ran no faster than one
    process). Fork, not spawn: the command starts no thread, and a forked
    worker inherits the parent's open files and its index instead of
    receiving them pickled. It shares each file's offset with the parent
    and the other workers too, so it reads only by offset (`os.pread`).

    Before anything is yielded, the exception of the first worker that
    sent one is raised; a worker that died before its head is a
    RuntimeError naming its exit status, raised ahead of any exception. A
    worker that dies after its head is the same RuntimeError when its
    results run short; the caller may then have written a prefix of the
    output, but never a result out of order.

    Every worker is reaped on every path: its pipe is closed first, so that
    a worker blocked on a write ends too. Once every worker is forked,
    `shares` is emptied: the workers hold their own copies, and the parent
    need not keep the index while it waits."""
    # Imported here, so that a run in process never pays for the import.
    import pickle

    workers: list[tuple[int, Any]] = []
    codes: dict[int, int] = {}  # the exit code of each worker reaped, by position

    def reap(upto: int) -> None:
        """Reap each worker before `upto` not yet reaped, closing every
        pipe before waiting on any."""
        for _, pipe in workers[:upto]:
            pipe.close()
        for at, (pid, _) in enumerate(workers[:upto]):
            if at not in codes:
                codes[at] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def load(at: int) -> Any:
        """The next object worker `at` sent; where its stream breaks, every
        worker is reaped, and one that ended badly is named."""
        try:
            return pickle.load(workers[at][1])
        except (EOFError, pickle.UnpicklingError):
            reap(len(workers))
            if codes[at]:
                raise RuntimeError(f"worker ended with exit status {codes[at]}") from None
            raise

    try:
        for share, cpu in zip(shares, cpus):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    for _, pipe in workers:  # no worker holds another's pipe
                        os.close(pipe.fileno())
                    os.sched_setaffinity(0, {cpu})
                    try:
                        head, results = work(share)
                        reply = (True, head, len(results))
                    except Exception as exc:
                        reply, results = (False, exc, 0), []
                    with open(write_end, "wb") as pipe:
                        pickle.dump(reply, pipe)
                        for result in results:
                            pickle.dump(result, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            workers.append((pid, open(read_end, "rb")))
        share = None  # the loop left the last share bound
        shares.clear()
        heads = [load(at) for at in range(len(workers))]
        for ok, value, _ in heads:
            if not ok:
                raise value
        yield [value for _, value, _ in heads]
        for at, (_, _, count) in enumerate(heads):
            for _ in range(count):
                yield load(at)
            reap(at + 1)
            if codes[at]:
                raise RuntimeError(f"worker ended with exit status {codes[at]}")
    finally:
        reap(len(workers))


def _run_engine(
    args: argparse.Namespace,
    finish: Callable[[list[DiscourseReport], Sequence[Discourse]], Any],
) -> Iterator[Any]:
    """Run the engine on the discourses of the files, one at a time (see
    `_run_shares`), and iterate over `finish(reports, discourses)` of each
    discourse, with its one report, in input order."""
    config = EngineConfig(
        beam=args.beam, zta_enabled=not args.no_zta, global_enabled=not args.no_global
    )
    return _run_shares(args.files, lambda d: finish(run_corpus([d], config), (d,)))


#: The characters of each piece of a block that `analyze` writes: the text
#: stream encodes what it is given whole, so a long block written at once
#: would be held twice, as text and as bytes.
_WRITE = 64 * 1024


def _cmd_analyze(args: argparse.Namespace) -> int:
    blocks = _run_engine(args, lambda reports, _: corpus_io.report_blocks(reports, args.format))
    write = sys.stdout.write
    write(corpus_io.report_head(args.format))
    for block in blocks:
        for at in range(0, len(block), _WRITE):
            write(block[at : at + _WRITE])
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    for lines in _run_engine(args, lambda reports, _: _resolution_lines(reports, args.format)):
        sys.stdout.writelines(f"{line}\n" for line in lines)
    return 0


def _resolution_lines(reports: list[DiscourseReport], format: str) -> list[str]:
    lines = []
    for rep in reports:
        for u in rep.utterances:
            for pos, value in u.resolutions:
                if format == "machine":
                    record = {
                        "antecedent": value,
                        "cues": u.cues,
                        "discourse": rep.discourse_id,
                        "pos": pos,
                        "utterance": u.index,
                    }
                    lines.append(corpus_io.RECORD_ENCODER.encode(record))
                else:
                    cue = f"  cue={'+'.join(u.cues)}" if u.cues else ""
                    lines.append(
                        f"{rep.discourse_id} u{u.index} zero@{pos} -> "
                        f"{format_resolution(value)}{cue}"
                    )
    return lines


def _fmt_row(label: str, cells: Sequence[Any]) -> str:
    return f"{label:>14} | " + " | ".join(f"{c:>12}" for c in cells)


def _cmd_stats(args: argparse.Namespace) -> int:
    parts = _run_engine(
        args,
        lambda reports, _: (
            analysis.tabulate_transitions(reports),
            analysis.tabulate_disambiguation(reports),
        ),
    )
    table = analysis.tabulate_transitions(())
    cues = analysis.tabulate_disambiguation(())
    for part, counts in parts:
        table += part
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

    out = [
        "Distribution of centering transitions by zero use",
        _fmt_row("", analysis.COLUMNS),
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
        count = sum(1 for _ in _run_shares(args.files, lambda discourse: None))
        summary = f"{count} discourse(s), 0 violation(s)"
    except corpus_io.CorpusFormatError as exc:
        violations = exc.diagnostics
        summary = f"{len(violations)} violation(s)"
    for v in violations:
        line = str(v)
        if args.format == "machine":
            line = json.dumps({"code": v.code, "location": v.location, "message": v.message})
        sys.stdout.write(line + "\n")
    if args.format == "text":
        sys.stdout.write(summary + "\n")
    return 1 if violations else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    parts = _run_engine(args, analysis.evaluate_gold)
    summary = analysis.GoldSummary(tuple(d for part in parts for d in part.details))
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
