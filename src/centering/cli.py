"""Batch command line for corpus analysis.

Subcommands: analyze (per-utterance trace), stats (distribution tables plus
chi-square), resolve (zero-to-antecedent listing), validate (list every
diagnostic on stdout), eval (gold comparison). Every command validates its
whole input and prints no result for input with a problem. Exit codes: 0
success, 1 format, validation or usage problem, 2 internal fault.

Every command spreads a large corpus over the CPUs in the process's
affinity mask. The parent only sizes the files: it stats each one, and
reads a file that is not regular, such as a pipe, once; it opens no regular
file. Forked workers, one per CPU and per `_BYTES_PER_PART` bytes of
corpus, each take a contiguous part of the corpus by byte position. A
worker opens each regular file by path, checks that it is the file the
parent sized, and walks every file once (`corpus.walk`), holding a small
window of it and one discourse at a time, whose decoded JSON shrinks as the
discourse is built from it (`corpus.build_discourse`): it builds,
validates, runs and finishes each discourse whose middle falls in its part,
and drops it before the next. Every engine command folds each utterance's
report as the engine hands it on (`engine.stream_discourse`), so a part
holds what each discourse gave, not its states or reports: `analyze` its
rendered text, in pieces, `stats` its counts, `resolve` its lines and
`eval` the outcome of each of its zeros. Each worker streams its reply back
over a pipe: a head with every file as it walked it (its read error and
its discourses' ids), its own discourses' diagnostics and the first
exception a job raised (or, instead, its own exception), and how many
results follow, then the results, each pickled on its own. The parent
reads every head before any result and alone decides what ends the
command, in this order: a process's own exception, then every diagnostic
(exit 1), then the first exception a job raised, in input order (exit
2). So a problem anywhere stops the command before it writes a byte. It
then unpickles one result at a time, in input order, which the command
writes or folds and drops; a worker done early waits on its full pipe
until its turn. The output, errors included, does not depend on the CPU
count. A corpus too small for two parts, or a single CPU, runs the same
function over its one part in process.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import stat
import sys
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NoReturn, Optional, Sequence, Union

from . import analysis, corpus as corpus_io
from .engine import DiscourseReport, EngineConfig, UtteranceReport, stream_discourse
from .hypotheses import DEFAULT_BEAM
from .model import Discourse, Violation, format_resolution

#: Fewest bytes of corpus per part, so a corpus under 512 KiB runs in
#: process: the benchmark's long_chain (about 240 KB) does, and its other
#: two workloads (about 870 KB each) are split.
_BYTES_PER_PART = 256 * 1024


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


#: A file as the parent sized it: its path, its size in bytes, and what a
#: process walks it from: the bytes of a file that is not regular, such as a
#: pipe, read once, or else the identity of the regular file (`_identity`),
#: which each process opens by path and checks.
_Sized = tuple[str, int, Union[bytes, tuple[int, ...]]]

#: A file as a process walked it: its path, the diagnostic that stopped its
#: reading (none if it was read), and the location and id of each of its
#: discourses.
_File = tuple[str, list[Violation], list[tuple[str, Optional[str]]]]

#: What a process reports before its results: every file as it walked it,
#: the diagnostics of each discourse it built, and the first exception a
#: job raised (None if none did).
_Head = tuple[list[_File], list[list[Violation]], Optional[Exception]]


def _size(path: str) -> _Sized:
    """Size the file at `path`, reading it only if it is not regular."""
    st = os.stat(path)
    if stat.S_ISREG(st.st_mode):
        return path, st.st_size, _identity(st)
    with open(path, "rb") as fh:
        data = fh.read()
    return path, len(data), data


def _identity(st: os.stat_result) -> tuple[int, ...]:
    """What tells a regular file from the same path rewritten or replaced."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _open(path: str, known: Union[bytes, tuple[int, ...]]) -> BinaryIO:
    """The stream to walk a sized file from; OSError if a regular file is no
    longer the one the parent sized."""
    if type(known) is bytes:
        return io.BytesIO(known)
    fh = open(path, "rb", buffering=0)
    if _identity(os.fstat(fh.fileno())) != known:
        fh.close()
        raise OSError(f"{path}: changed after the command began")
    return fh


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


def _part(
    files: list[_Sized], part: int, parts: int, job: Callable[[Discourse], Any]
) -> tuple[_Head, list[Any]]:
    """Walk every file once, and build and validate each discourse whose
    middle falls in part `part` of `parts` equal parts of the corpus by
    position, one at a time, dropping each before the next; run `job` on
    each until the part meets a read error, a diagnostic or a job's
    exception, after which no result would be written. The head, and the
    job's results.

    A file whose walk fails, or whose discourses a later "discourses" key
    replaces, keeps none of the discourses walked before, nor what they
    gave. The head only records what the part met: which problem ends the
    command is for `_results` to decide."""
    total = max(sum(size for _, size, _ in files), 1)
    read: list[_File] = []
    found: list[list[Violation]] = []
    results: list[Any] = []
    run, fault, base = True, None, 0
    for path, size, known in files:
        failure: list[Violation] = []
        discourses: list[tuple[str, Optional[str]]] = []
        kept = len(found), len(results), run, fault
        try:
            with _open(path, known) as stream:
                for r, item in corpus_io.walk(stream):
                    if r is None:  # a later "discourses" key replaces those before
                        discourses = []
                        del found[kept[0] :], results[kept[1] :]
                        run, fault = kept[2:]
                        continue
                    discourses.append((r.loc, r.id))
                    if min(parts - 1, (base + r.middle) * parts // total) != part:
                        del item
                        continue
                    discourse, diags = corpus_io.build_discourse(r, item)
                    del item
                    found.append(diags)
                    run = run and not diags
                    if run:
                        try:
                            results.append(job(discourse))
                        except Exception as exc:
                            run, fault = False, exc
                    del discourse
        except UnicodeDecodeError as exc:
            message = f"not UTF-8: {exc.reason}"
            failure = [Violation("malformed-encoding", f"byte {exc.start}", message)]
        except corpus_io.CorpusFormatError as exc:
            failure = exc.diagnostics
        if failure:
            discourses, run = [], False
            del found[kept[0] :], results[kept[1] :]
        read.append((path, failure, discourses))
        base += size
    return (read, found, fault), results


def _run_parts(paths: Sequence[str], job: Callable[[Discourse], Any]) -> Iterator[Any]:
    """Size the files and return an iterator over `job(discourse)` of each
    of their discourses in input order (the stream of the module
    docstring). Before any result, it raises instead, in this order: a
    process's own exception; CorpusFormatError with every diagnostic of
    every file, if there is one; the first exception a job raised, in input
    order. Closed early, the iterator reaps every worker.

    The cyclic garbage collector is off from the sizing of the files to the
    last result read, or the iterator's close, and the caller's setting is
    restored after; forked workers inherit it off and end with `os._exit`.
    Nothing this path makes forms a reference cycle, so reference counting
    alone frees it all, and the collector would only walk the live objects
    again and again. The heap is also frozen (`gc.freeze`) before the parts
    are run. It stays frozen: the command ends the process, whose last
    collection at exit then skips the frozen objects.
    """
    results = _results(paths, job)
    next(results)  # runs up to the first result, so every error is raised here
    return results


def _results(paths: Sequence[str], job: Callable[[Discourse], Any]) -> Iterator[Any]:
    """The generator behind `_run_parts`: it yields None once the
    diagnostics are checked, and then the results."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        files = [_size(path) for path in paths]
        cpus = _cpus()
        parts = max(1, min(len(cpus), sum(size for _, size, _ in files) // _BYTES_PER_PART))

        def work(part: int) -> tuple[_Head, list[Any]]:
            return _part(files, part, parts, job)

        gc.freeze()
        stream = _fork(parts, cpus, work) if parts > 1 else _in_process(work)
        try:
            heads = next(stream)  # every process walked every file
            diags = _diagnostics(heads[0][0], [per for _, found, _ in heads for per in found])
            if diags:
                raise corpus_io.CorpusFormatError(diags)
            for _, _, fault in heads:
                if fault is not None:
                    raise fault
            yield None
            yield from stream
        finally:
            stream.close()
    finally:
        if enabled:
            gc.enable()


def _in_process(work: Callable[[int], tuple[Any, list[Any]]]) -> Iterator[Any]:
    """The stream of `_fork` for the one part of a corpus, run in this
    process."""
    head, results = work(0)
    yield [head]
    yield from results


def _fork(
    parts: int, cpus: list[int], work: Callable[[int], tuple[Any, list[Any]]]
) -> Iterator[Any]:
    """The stream of the module docstring for `work(part) = (head,
    results)` of each part: first the list of every part's head, then the
    results of all the parts in order, one at a time. Each part runs in a
    forked worker pinned to a CPU of its own (left to the scheduler, forked
    workers were woken on one CPU and ran no faster than one process).
    Fork, not spawn: the command starts no thread, and a forked worker
    inherits the sized files instead of receiving them pickled.

    Before anything is yielded, the exception of the first worker that
    sent one instead of its head is raised. Only a process's own exception
    is raised ahead of the diagnostics: a job's goes in the head (`_part`).
    A worker that died before its head is a RuntimeError naming its exit
    status, raised ahead of any exception. A worker that dies after its
    head is the same RuntimeError when its results run short; the caller
    may then have written a prefix of the output, but never a result out
    of order.

    Every worker is reaped on every path: its pipe is closed first, so that
    a worker blocked on a write ends too.

    `pickle` is imported only after the forks: by each worker for itself,
    and by the parent, while the workers run, just before it reads the
    heads. A run in process never imports it."""
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
        for part, cpu in zip(range(parts), cpus):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    for _, pipe in workers:  # no worker holds another's pipe
                        os.close(pipe.fileno())
                    os.sched_setaffinity(0, {cpu})
                    import pickle

                    try:
                        head, results = work(part)
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
        import pickle

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
    fold: Callable[[Discourse, Iterator[Union[UtteranceReport, DiscourseReport]]], Any],
) -> Iterator[Any]:
    """Run the engine on the discourses of the files, one at a time (see
    `_run_parts`), and iterate over `fold(discourse, stream)` of each, in
    input order, where `stream` is its `stream_discourse`."""
    config = EngineConfig(
        beam=args.beam, zta_enabled=not args.no_zta, global_enabled=not args.no_global
    )
    return _run_parts(args.files, lambda d: fold(d, stream_discourse(d, config)))


#: The characters of each piece of a discourse's output that `analyze` holds
#: and writes: a short discourse's block is one string, and a long one's is
#: never held twice, as lines and joined, nor as text and as the bytes the
#: stream encodes it to.
_PIECE = 64 * 1024


def _pieces(lines: Iterator[str]) -> list[str]:
    """`lines` joined into pieces of about `_PIECE` characters each."""
    pieces: list[str] = []
    piece: list[str] = []
    size = 0
    for line in lines:
        piece.append(line)
        size += len(line)
        if size >= _PIECE:
            pieces.append("".join(piece))
            piece, size = [], 0
    if piece:
        pieces.append("".join(piece))
    return pieces


def _cmd_analyze(args: argparse.Namespace) -> int:
    blocks = _run_engine(
        args, lambda d, reports: _pieces(corpus_io.report_lines(reports, args.format))
    )
    write = sys.stdout.write
    write(corpus_io.report_head(args.format))
    for pieces in blocks:
        for piece in pieces:
            write(piece)
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    blocks = _run_engine(args, lambda d, reports: _resolution_lines(reports, args.format))
    for lines in blocks:
        sys.stdout.writelines(f"{line}\n" for line in lines)
    return 0


def _resolution_lines(
    reports: Iterable[Union[UtteranceReport, DiscourseReport]], format: str
) -> list[str]:
    """The resolve lines of every zero of `reports`, discourse reports or
    the stream of `stream_discourse`, folded as the reports come."""
    lines = []
    for item in reports:
        for u in (item,) if type(item) is UtteranceReport else item.utterances:
            for pos, value in u.resolutions:
                if format == "machine":
                    record = {
                        "antecedent": value,
                        "cues": u.cues,
                        "discourse": u.discourse_id,
                        "pos": pos,
                        "utterance": u.index,
                    }
                    lines.append(corpus_io.encode_record(record))
                else:
                    cue = f"  cue={'+'.join(u.cues)}" if u.cues else ""
                    lines.append(
                        f"{u.discourse_id} u{u.index} zero@{pos} -> "
                        f"{format_resolution(value)}{cue}"
                    )
    return lines


def _fmt_row(label: str, cells: Sequence[Any]) -> str:
    return f"{label:>14} | " + " | ".join(f"{c:>12}" for c in cells)


def _cmd_stats(args: argparse.Namespace) -> int:
    parts = _run_engine(args, lambda d, reports: analysis.tabulate(reports))
    table, cues = analysis.tabulate(())
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
        count = sum(1 for _ in _run_parts(args.files, lambda discourse: None))
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
    parts = _run_engine(args, analysis.zero_outcomes)
    summary = analysis.GoldSummary(tuple(d for part in parts for d in part))
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
