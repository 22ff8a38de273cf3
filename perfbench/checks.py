"""Output checks shared by the CLI run and the traced run.

Each check returns a list of problems; an empty list means the output is
correct. The expected counts come from the generated corpus object, never
from the program under test.
"""

from __future__ import annotations

import json

from centering import read_reports, tabulate_transitions


def non_seed_utterances(corpus: dict) -> int:
    """Utterances that get a transition label: all but each discourse's first."""
    return sum(max(0, len(d["utterances"]) - 1) for d in corpus["discourses"])


def check_analyze(machine_text: str, corpus: dict) -> tuple[list[str], list]:
    """Round-trip `analyze --format machine` output through read_reports.

    Checks one discourse record per input discourse, in order, one utterance
    record per input utterance, and that every retrieved antecedent is among
    its discourse's former centers. Returns the problems and the reports.
    """
    try:
        reports = read_reports(machine_text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"read_reports failed: {exc}"], []
    discourses = corpus["discourses"]
    problems = []
    if [r.discourse_id for r in reports] != [d["id"] for d in discourses]:
        problems.append(
            f"{len(reports)} discourse records for {len(discourses)} discourses"
        )
    for rep, d in zip(reports, discourses):
        if len(rep.utterances) != len(d["utterances"]):
            problems.append(
                f"{rep.discourse_id}: {len(rep.utterances)} utterance records "
                f"for {len(d['utterances'])} utterances"
            )
        former = {eid for eid, _ in rep.history}
        for u in rep.utterances:
            for r in u.retrievals:
                if r.value is None:
                    continue
                members = {r.value} if isinstance(r.value, str) else set(r.value)
                if not members <= former:
                    problems.append(
                        f"{rep.discourse_id} u{u.index}: retrieved "
                        f"{sorted(members)} outside history {sorted(former)}"
                    )
    return problems, reports


def check_stats(stats: dict, reports: list, corpus: dict) -> list[str]:
    """`stats --format machine` totals cover every non-seed utterance and
    equal the transition table recomputed from the `analyze` reports."""
    problems = []
    expected = non_seed_utterances(corpus)
    if sum(stats.get("totals", ())) != expected:
        problems.append(f"stats totals sum to {sum(stats.get('totals', ()))}, expected {expected}")
    table = tabulate_transitions(reports)
    for row in ("with_zero", "without_zero", "totals"):
        if stats.get(row) != list(getattr(table, row)):
            problems.append(f"stats {row} {stats.get(row)} != analyze table {list(getattr(table, row))}")
    return problems


class LaunchChecks:
    """Checks the outputs of one run's CLI launches.

    Every launch of a kind must give the same bytes as the first; each
    distinct output is checked once. `kind` is "empty" (analyze on the empty
    corpus, which prints nothing), "analyze" or "stats"; stats outputs are
    compared against the reports of the analyze output checked before them.
    """

    def __init__(self, corpus: dict) -> None:
        self.corpus = corpus
        self.first_sha: dict[str, str] = {}
        self.found: dict[str, list[str]] = {}
        self.reports: list | None = None

    def problems(self, kind: str, output: bytes, sha: str) -> list[str]:
        out = []
        if self.first_sha.setdefault(kind, sha) != sha:
            out.append(f"{kind} output differs between launches")
        if sha not in self.found:
            self.found[sha] = self._check(kind, output)
        return out + self.found[sha]

    def _check(self, kind: str, output: bytes) -> list[str]:
        if kind == "empty":
            return [] if output == b"" else ["analyze printed output for an empty corpus"]
        text = output.decode("utf-8", errors="replace")
        if kind == "analyze":
            found, self.reports = check_analyze(text, self.corpus)
            return found
        if self.reports is None:
            return ["no analyze reports to compare stats against"]
        try:
            stats = json.loads(text)
        except ValueError as exc:
            return [f"stats output is not JSON: {exc}"]
        return check_stats(stats, self.reports, self.corpus)
