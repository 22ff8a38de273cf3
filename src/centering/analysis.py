"""Distribution tables, the 2x2 chi-square statistic, and gold evaluation."""

from __future__ import annotations

import operator
from typing import Iterable, Optional, Sequence

from ._record import record
from .engine import DiscourseReport
from .model import Discourse, Resolution, TransitionLabel, decode_resolution
from .resolution import CUE_AGREEMENT, CUE_LEXICAL, CUE_TENSE

#: Column order of the distribution table; the zero-topic continue counts in
#: the CONTINUE column.
COLUMNS = ("continue", "retain", "smooth-shift", "rough-shift")

_COLUMN_OF = {
    TransitionLabel.CONTINUE.display: "continue",
    TransitionLabel.ZTA_CONTINUE.display: "continue",
    TransitionLabel.RETAIN.display: "retain",
    TransitionLabel.SMOOTH_SHIFT.display: "smooth-shift",
    TransitionLabel.ROUGH_SHIFT.display: "rough-shift",
}


@record
class TransitionTable:
    """2x4 distribution of transitions by zero use. Rows sum over every
    non-seed utterance report; totals are always computed from the cells,
    never taken on trust from elsewhere."""

    with_zero: tuple[int, int, int, int]
    without_zero: tuple[int, int, int, int]

    @property
    def totals(self) -> tuple[int, int, int, int]:
        return tuple(a + b for a, b in zip(self.with_zero, self.without_zero))

    @property
    def grand_total(self) -> int:
        return sum(self.totals)

    def __add__(self, other: "TransitionTable") -> "TransitionTable":
        """The table of two disjoint sets of reports."""
        return TransitionTable(
            with_zero=tuple(map(operator.add, self.with_zero, other.with_zero)),
            without_zero=tuple(map(operator.add, self.without_zero, other.without_zero)),
        )

    def continue_vs_rest(self) -> tuple[int, int, int, int]:
        """(a, b, c, d) for the CONTINUE-vs-others x zero 2x2 split."""
        a = self.with_zero[0]
        b = self.without_zero[0]
        c = sum(self.with_zero[1:])
        d = sum(self.without_zero[1:])
        return a, b, c, d


def tabulate_transitions(reports: Iterable[DiscourseReport]) -> TransitionTable:
    """Count per-utterance transitions split by zero use, excluding
    discourse-initial seeds."""
    rows = {"with": dict.fromkeys(COLUMNS, 0), "without": dict.fromkeys(COLUMNS, 0)}
    for rep in reports:
        for u in rep.utterances:
            if u.seed:
                continue
            col = _COLUMN_OF[u.label]
            rows["with" if u.has_zero else "without"][col] += 1
    return TransitionTable(
        with_zero=tuple(rows["with"][c] for c in COLUMNS),
        without_zero=tuple(rows["without"][c] for c in COLUMNS),
    )


def chi_square_2x2(a: int, b: int, c: int, d: int) -> Optional[float]:
    """Pearson chi-square for a 2x2 table, no continuity correction:
    N(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d)).

    Returns None (undefined) when any margin is zero.
    """
    if min(a, b, c, d) < 0:
        raise ValueError("counts must be non-negative")
    n = a + b + c + d
    if n == 0:
        raise ValueError("empty table")
    margins = (a + b, c + d, a + c, b + d)
    if 0 in margins:
        return None
    num = n * (a * d - b * c) ** 2
    den = margins[0] * margins[1] * margins[2] * margins[3]
    return num / den


def tabulate_disambiguation(reports: Iterable[DiscourseReport]) -> dict[str, int]:
    """Cue counts over rough-shift utterances with zeros resolved by former-Cb
    retrieval. One utterance may increment several cues, so the total can
    exceed the number of such utterances."""
    counts = {CUE_LEXICAL: 0, CUE_TENSE: 0, CUE_AGREEMENT: 0}
    for rep in reports:
        for u in rep.utterances:
            if u.seed or not u.has_zero:
                continue
            if _COLUMN_OF[u.label] != "rough-shift":
                continue
            for cue in set(u.cues):
                if cue in counts:
                    counts[cue] += 1
    return counts


@record
class ZeroOutcome:
    """Evaluation record for one zero slot."""

    discourse_id: str
    utterance_index: int
    label: str
    position: int
    gold: Resolution
    predicted: Resolution
    status: str  # correct | incorrect | unresolved | ungolded


#: The statuses that count towards accuracy, in `by_transition` order.
_SCORED = ("correct", "incorrect", "unresolved")


def _count(status: str) -> property:
    return property(lambda self: sum(d.status == status for d in self.details))


@record
class GoldSummary:
    """The outcome of every zero, in corpus order; each tally is counted
    from them."""

    details: tuple[ZeroOutcome, ...] = ()

    correct = _count("correct")
    incorrect = _count("incorrect")
    unresolved = _count("unresolved")
    ungolded = _count("ungolded")

    @property
    def by_transition(self) -> dict[str, tuple[int, int, int]]:
        """(correct, incorrect, unresolved) per transition label, sorted by
        label; a label with no scored zero is left out."""
        tallies: dict[str, list[int]] = {}
        for d in self.details:
            if d.status in _SCORED:
                tallies.setdefault(d.label, [0, 0, 0])[_SCORED.index(d.status)] += 1
        return {k: tuple(v) for k, v in sorted(tallies.items())}

    @property
    def scored(self) -> int:
        return len(self.details) - self.ungolded

    @property
    def accuracy(self) -> Optional[float]:
        if self.scored == 0:
            return None
        return self.correct / self.scored

    @property
    def has_gold(self) -> bool:
        return self.scored > 0


def evaluate_gold(
    reports: Sequence[DiscourseReport], corpus: Sequence[Discourse]
) -> GoldSummary:
    """Compare resolved zeros against gold annotations.

    `reports[i]` is the report of `corpus[i]`, one utterance report per
    utterance, as `run_corpus` returns them; a length, discourse id or
    utterance index that disagrees with its partner raises ValueError.
    Zeros without a gold annotation are counted separately and never affect
    accuracy. Gold is read from the corpus only here; resolution never sees
    it.
    """
    details: list[ZeroOutcome] = []
    for rep, discourse in zip(reports, corpus, strict=True):
        if rep.discourse_id != discourse.id:
            raise ValueError(
                f"report of '{rep.discourse_id}' paired with discourse '{discourse.id}'"
            )
        for ur, utt in zip(rep.utterances, discourse.utterances, strict=True):
            if ur.index != utt.index:
                raise ValueError(
                    f"discourse '{discourse.id}': report of u{ur.index} "
                    f"paired with u{utt.index}"
                )
            predicted = ur.resolution_map
            for zero in utt.zeros:
                cons = zero.constraints
                gold = cons.gold_antecedent if cons is not None else None
                value = decode_resolution(predicted.get(zero.surface_position))
                if gold is None:
                    status = "ungolded"
                elif value is None:
                    status = "unresolved"
                elif value == gold:
                    status = "correct"
                else:
                    status = "incorrect"
                details.append(
                    ZeroOutcome(
                        discourse_id=rep.discourse_id,
                        utterance_index=ur.index,
                        label=ur.label,
                        position=zero.surface_position,
                        gold=gold,
                        predicted=value,
                        status=status,
                    )
                )
    return GoldSummary(tuple(details))
