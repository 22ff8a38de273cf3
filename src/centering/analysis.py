"""Distribution tables, the 2x2 chi-square statistic, and gold evaluation."""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Optional, Sequence, Union

from ._record import record
from .engine import DiscourseReport, UtteranceReport
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


#: What the tables count: discourse reports, or a stream of
#: `engine.stream_discourse`.
_Reports = Iterable[Union[DiscourseReport, UtteranceReport]]


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


def tabulate(reports: _Reports) -> tuple[TransitionTable, dict[str, int]]:
    """`tabulate_transitions` and `tabulate_disambiguation` of `reports`,
    counted in one pass over their utterance reports as they come."""
    rows = {True: dict.fromkeys(COLUMNS, 0), False: dict.fromkeys(COLUMNS, 0)}
    counts = {CUE_LEXICAL: 0, CUE_TENSE: 0, CUE_AGREEMENT: 0}
    for item in reports:
        for u in (item,) if type(item) is UtteranceReport else item.utterances:
            if u.seed:
                continue
            col = _COLUMN_OF[u.label]
            rows[u.has_zero][col] += 1
            if u.has_zero and col == "rough-shift":
                for cue in set(u.cues):
                    if cue in counts:
                        counts[cue] += 1
    table = TransitionTable(
        with_zero=tuple(rows[True][c] for c in COLUMNS),
        without_zero=tuple(rows[False][c] for c in COLUMNS),
    )
    return table, counts


def tabulate_transitions(reports: _Reports) -> TransitionTable:
    """Count per-utterance transitions split by zero use, excluding
    discourse-initial seeds."""
    return tabulate(reports)[0]


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


def tabulate_disambiguation(reports: _Reports) -> dict[str, int]:
    """Cue counts over rough-shift utterances with zeros resolved by former-Cb
    retrieval. One utterance may increment several cues, so the total can
    exceed the number of such utterances."""
    return tabulate(reports)[1]


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


def zero_outcomes(discourse: Discourse, reports: _Reports) -> list[ZeroOutcome]:
    """The outcome of each zero of `discourse`, in order, scored from
    `reports`, its report or the stream of `stream_discourse`, as the
    utterance reports come: one per utterance, paired by position; a
    count, discourse id or utterance index that disagrees with its partner
    raises ValueError. Gold is read from the corpus only here; resolution
    never sees it."""

    def utterance_reports() -> Iterator[UtteranceReport]:
        for item in reports:
            if item.discourse_id != discourse.id:
                raise ValueError(
                    f"report of '{item.discourse_id}' paired with discourse '{discourse.id}'"
                )
            yield from (item,) if type(item) is UtteranceReport else item.utterances

    details: list[ZeroOutcome] = []
    for ur, utt in zip(utterance_reports(), discourse.utterances, strict=True):
        if ur.index != utt.index:
            raise ValueError(
                f"discourse '{discourse.id}': report of u{ur.index} paired with u{utt.index}"
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
                    discourse_id=discourse.id,
                    utterance_index=ur.index,
                    label=ur.label,
                    position=zero.surface_position,
                    gold=gold,
                    predicted=value,
                    status=status,
                )
            )
    return details


def evaluate_gold(
    reports: Sequence[DiscourseReport], corpus: Sequence[Discourse]
) -> GoldSummary:
    """Compare resolved zeros against gold annotations.

    `reports[i]` is the report of `corpus[i]`, as `run_corpus` returns
    them, and is scored by `zero_outcomes`; lists of different lengths
    raise ValueError. Zeros without a gold annotation are counted
    separately and never affect accuracy.
    """
    pairs = zip(reports, corpus, strict=True)
    return GoldSummary(tuple(o for rep, d in pairs for o in zero_outcomes(d, (rep,))))
