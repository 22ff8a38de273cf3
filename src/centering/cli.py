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
corpus, take the discourses in turn: of P parts, part k takes each
discourse whose ordinal, its place in input order across the files, is k
mod P. A worker opens each regular file by path, checks that it is the file
the parent sized, and walks every file once (`corpus.walk`), so every
process counts the same ordinals, holding a small window of each file and
one discourse at a time, whose decoded JSON shrinks as the discourse is
built from it (`corpus.build_discourse`): it builds, validates, runs and
finishes each discourse of its part, and drops it before the next. Every
engine command folds each utterance's report as the engine hands it on
(`engine.stream_discourse`), and each discourse's job yields what it gave
as pieces: `analyze` its rendered text, in pieces of about 32 KiB, and
`resolve` its lines, `stats` its two rows and cue counts and `eval` the
fields of each of its zeros' outcomes, each as one piece. A part writes
each piece, in `marshal`'s format, to a spool of its own, an anonymous
temporary file (`_Spool`), as soon as the job yields it, so no process
holds more than one piece of the output. Each worker then sends its head
back, pickled, over a pipe: every file as it walked it (its read error and
its discourses' ids), its own discourses' diagnostics and piece counts, and
the first exception a job raised, with its ordinal (or, instead, its own
exception). The parent reads every head and reaps every worker before it
reads a piece, and alone decides what ends the command, in this order: a
worker that ended badly or a process's own exception, then every diagnostic
(exit 1), then the exception a job raised on the discourse of least ordinal
(exit 2). So a problem anywhere stops the command before it writes a byte.
It then reads the pieces one at a time, in input order, those of result i
from the spool of part i mod P, and the command writes or folds each and
drops it. The output, errors included, does not depend on the CPU count. A
corpus too small for two parts, or a single CPU, runs the same function
over its one part in process, whose spool is made on its first piece.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import marshal
import operator
import os
import stat
import sys
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NoReturn, Optional, Sequence, Union

from . import analysis, corpus as corpus_io
from ._record import fields
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

#: What a process reports once its pieces are spooled: every file as it
#: walked it, the diagnostics of each discourse it built, how many pieces
#: the job yielded for each discourse it ran, and the ordinal of the first
#: discourse on which a job raised, with the exception (None if none did).
_Head = tuple[list[_File], list[list[Violation]], list[int], Optional[tuple[int, Exception]]]

#: What runs on each discourse: the pieces it yields are what the discourse
#: gave (see `_Spool`).
_Job = Callable[[Discourse], Iterable[Any]]


class _Spool:
    """The pieces a part's jobs yield, held in an anonymous temporary file
    until the parent knows the last diagnostic: each in `marshal`'s format
    after its length, so that it is read back in two reads (`marshal.load`
    reads a file one field at a time: 9 us for an `eval` outcome, where
    `get` takes 1.7 us). The file
    is made `now`, as the parent makes each worker's before it forks, or
    else on the first piece, and an empty buffer stands in for it until
    then, so a part that yields nothing makes none. A piece put after a
    `file.seek` back replaces what follows, which is never read: the head
    counts the pieces."""

    def __init__(self, now: bool = False) -> None:
        self.file: BinaryIO = io.BytesIO()
        if now:
            self.make()

    def make(self) -> None:
        import tempfile

        self.file = tempfile.TemporaryFile()

    def put(self, piece: Any) -> None:
        if type(self.file) is io.BytesIO:
            self.make()
        data = marshal.dumps(piece)
        self.file.write(len(data).to_bytes(8, "little"))
        self.file.write(data)

    def get(self) -> Any:
        """The next piece."""
        return marshal.loads(self.file.read(int.from_bytes(self.file.read(8), "little")))


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


def _part(files: list[_Sized], part: int, parts: int, job: _Job, spool: _Spool) -> _Head:
    """Walk every file once, and build and validate each discourse whose
    ordinal is `part` mod `parts`, one at a time, dropping each before the
    next; run `job` on each until the part meets a read error, a diagnostic
    or a job's exception, after which nothing would be written, and put
    each piece the job yields in `spool` as it comes. The head, once the
    spool's file holds every piece.

    A file whose walk fails, or whose discourses a later "discourses" key
    replaces, keeps none of the discourses walked before, nor what they
    gave, nor their ordinals. The head only records what the part met:
    which problem ends the command is for `_results` to decide."""
    read: list[_File] = []
    found: list[list[Violation]] = []
    counts: list[int] = []  # the pieces of each discourse run
    run, fault, before = True, None, 0  # before: the discourses of the files read
    for path, _, known in files:
        failure: list[Violation] = []
        discourses: list[tuple[str, Optional[str]]] = []
        kept = len(found), len(counts), spool.file.tell(), run, fault
        try:
            with _open(path, known) as stream:
                for r, item in corpus_io.walk(stream):
                    if r is None:  # a later "discourses" key replaces those before
                        discourses = []
                        del found[kept[0] :], counts[kept[1] :]
                        spool.file.seek(kept[2])
                        run, fault = kept[3:]
                        continue
                    ordinal = before + len(discourses)
                    discourses.append((r.loc, r.id))
                    if ordinal % parts != part:
                        del item
                        continue
                    discourse, diags = corpus_io.build_discourse(r, item)
                    del item
                    found.append(diags)
                    run = run and not diags
                    if run:
                        counts.append(0)
                        try:
                            for piece in job(discourse):
                                spool.put(piece)
                                counts[-1] += 1
                        except Exception as exc:
                            run, fault = False, (ordinal, exc)
                    del discourse
        except UnicodeDecodeError as exc:
            message = f"not UTF-8: {exc.reason}"
            failure = [Violation("malformed-encoding", f"byte {exc.start}", message)]
        except corpus_io.CorpusFormatError as exc:
            failure = exc.diagnostics
        if failure:
            discourses, run = [], False
            del found[kept[0] :]
        read.append((path, failure, discourses))
        before += len(discourses)
    spool.file.flush()  # a worker ends with os._exit, which flushes nothing
    return read, found, counts, fault


def _run_parts(paths: Sequence[str], job: _Job) -> Iterator[Any]:
    """Size the files and return an iterator over the pieces that
    `job(discourse)` yields for each of their discourses, in input order
    (the stream of the module docstring). Before any piece, it raises
    instead, in this order: a process's own exception; CorpusFormatError
    with every diagnostic of every file, if there is one; the exception a
    job raised on the discourse of least ordinal. Closed early, the
    iterator closes every spool; no worker outlives the first piece.

    The cyclic garbage collector is off from the sizing of the files to the
    last piece read, or the iterator's close, and the caller's setting is
    restored after; forked workers inherit it off and end with `os._exit`.
    Nothing this path makes forms a reference cycle, so reference counting
    alone frees it all, and the collector would only walk the live objects
    again and again. The heap is also frozen (`gc.freeze`) before the parts
    are run. It stays frozen: the command ends the process, whose last
    collection at exit then skips the frozen objects.
    """
    results = _results(paths, job)
    next(results)  # runs up to the first piece, so every error is raised here
    return results


def _results(paths: Sequence[str], job: _Job) -> Iterator[Any]:
    """The generator behind `_run_parts`: it yields None once every part is
    run and the diagnostics are checked, and then the pieces. The
    diagnostics and the piece count of the discourse of ordinal i are entry
    i // P of part i mod P's, and its pieces are the next in that part's
    spool."""
    enabled = gc.isenabled()
    gc.disable()
    spools: list[_Spool] = []
    try:
        files = [_size(path) for path in paths]
        cpus = _cpus()
        parts = max(1, min(len(cpus), sum(size for _, size, _ in files) // _BYTES_PER_PART))
        spools = [_Spool(now=parts > 1) for _ in range(parts)]

        def work(part: int) -> _Head:
            return _part(files, part, parts, job, spools[part])

        gc.freeze()
        heads = _fork(parts, cpus, work) if parts > 1 else [work(0)]
        founds = [found for _, found, _, _ in heads]
        found = [founds[i % parts][i // parts] for i in range(sum(map(len, founds)))]
        diags = _diagnostics(heads[0][0], found)
        if diags:
            raise corpus_io.CorpusFormatError(diags)
        faults = [fault for *_, fault in heads if fault is not None]
        if faults:
            raise min(faults, key=lambda fault: fault[0])[1]
        yield None
        for spool in spools:
            spool.file.seek(0)
        for i in range(len(found)):
            for _ in range(heads[i % parts][2][i // parts]):
                yield spools[i % parts].get()
    finally:
        for spool in spools:
            spool.file.close()
        if enabled:
            gc.enable()


def _fork(parts: int, cpus: list[int], work: Callable[[int], Any]) -> list[Any]:
    """`work(part)` of each part, run in a forked worker pinned to a CPU of
    its own (left to the scheduler, forked workers were woken on one CPU
    and ran no faster than one process), which sends it back pickled over
    a pipe. Fork, not spawn: the command starts no thread, and a forked
    worker inherits the sized files and the spools instead of receiving
    them pickled.

    Every worker is reaped before it returns, on every path: the pipes are
    closed first, so that a worker blocked on a write ends too. A worker
    that ended badly, before or after its head, is a RuntimeError naming
    its exit status, raised ahead of any exception; then the exception of
    the first worker that sent one instead of its head is raised. Only a
    process's own exception is raised ahead of the diagnostics: a job's
    goes in the head (`_part`)."""
    import pickle

    workers: list[tuple[int, Any]] = []
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
                    try:
                        reply = True, work(part)
                    except Exception as exc:
                        reply = False, exc
                    with open(write_end, "wb") as pipe:
                        pickle.dump(reply, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            workers.append((pid, open(read_end, "rb")))
        replies = [pickle.load(pipe) for _, pipe in workers]
    except (EOFError, pickle.UnpicklingError) as exc:
        replies = [(False, exc)]  # a worker's reply broke off: its exit status says why
    finally:
        for _, pipe in workers:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in workers]
    for code in codes:
        if code:
            raise RuntimeError(f"worker ended with exit status {code}")
    for ok, value in replies:
        if not ok:
            raise value
    return [value for _, value in replies]


def _run_engine(
    args: argparse.Namespace,
    fold: Callable[[Discourse, Iterator[Union[UtteranceReport, DiscourseReport]]], Iterable[Any]],
) -> Iterator[Any]:
    """Run the engine on the discourses of the files, one at a time (see
    `_run_parts`), and iterate over the pieces of `fold(discourse, stream)`
    of each, in input order, where `stream` is its `stream_discourse`."""
    config = EngineConfig(
        beam=args.beam, zta_enabled=not args.no_zta, global_enabled=not args.no_global
    )
    return _run_parts(args.files, lambda d: fold(d, stream_discourse(d, config)))


#: The characters of each piece of a discourse's output that `analyze`
#: holds and spools: a short discourse's block is one string, and a long
#: one's is never held whole, as lines and joined, nor as text and as the
#: bytes it is spooled or written as.
_PIECE = 32 * 1024


def _pieces(lines: Iterator[str]) -> Iterator[str]:
    """`lines` joined into pieces of about `_PIECE` characters each."""
    piece: list[str] = []
    size = 0
    for line in lines:
        piece.append(line)
        size += len(line)
        if size >= _PIECE:
            yield "".join(piece)
            piece, size = [], 0
    if piece:
        yield "".join(piece)


def _cmd_analyze(args: argparse.Namespace) -> int:
    pieces = _run_engine(
        args, lambda d, reports: _pieces(corpus_io.report_lines(reports, args.format))
    )
    write = sys.stdout.write
    write(corpus_io.report_head(args.format))
    for piece in pieces:
        write(piece)
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    blocks = _run_engine(args, lambda d, reports: [_resolution_lines(reports, args.format)])
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


def _rows(table: analysis.TransitionTable, cues: dict[str, int]) -> Iterator[tuple]:
    """A discourse's `analysis.tabulate` as the one piece `stats` spools."""
    yield table.with_zero, table.without_zero, cues


def _cmd_stats(args: argparse.Namespace) -> int:
    rows = _run_engine(args, lambda d, reports: _rows(*analysis.tabulate(reports)))
    table, cues = analysis.tabulate(())
    for with_zero, without_zero, counts in rows:
        table += analysis.TransitionTable(with_zero, without_zero)
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
        count = sum(_run_parts(args.files, lambda discourse: (1,)))
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


#: A gold outcome's fields, in `ZeroOutcome`'s order: a discourse's
#: outcomes are spooled together, as one piece.
_OUTCOME = operator.attrgetter(*(f.name for f in fields(analysis.ZeroOutcome)))


def _cmd_eval(args: argparse.Namespace) -> int:
    parts = _run_engine(
        args, lambda d, reports: [tuple(map(_OUTCOME, analysis.zero_outcomes(d, reports)))]
    )
    summary = analysis.GoldSummary(tuple(analysis.ZeroOutcome(*o) for part in parts for o in part))
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
