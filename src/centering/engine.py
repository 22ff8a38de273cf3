"""Discourse-level engine: Cb history, global retrieval, coherence steps.

One mutable-looking `DiscourseState` is threaded per discourse, advanced
strictly by utterance index; every value inside is immutable, so distinct
discourses can run in parallel with no shared state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from .core import rank_cf
from .hypotheses import (
    DEFAULT_BEAM,
    ResolutionOutcome,
    expand_hypotheses,
    prune_hypotheses,
    rank_key,
)
from .model import (
    CbHistory,
    CbHistoryEntry,
    CenteringHypothesis,
    CfList,
    Discourse,
    DiscourseEntity,
    EffectiveRole,
    ReferringExpression,
    Resolution,
    Tense,
    TransitionLabel,
    Utterance,
)
from .resolution import (
    Verdict,
    check_compatibility,
    form_set_candidates,
    local_resolution,
)

CUE_LEXICAL = "LEXICAL"
CUE_TENSE = "TENSE"
CUE_AGREEMENT = "AGREEMENT"


def push_cb(history: CbHistory, cb: str, index: int, past_tense: bool = False) -> CbHistory:
    """Record `cb` as the center of utterance `index`.

    Returns a new history with the entry at the front; an older entry for the
    same entity collapses into it (keeping a sticky past-tense flag).
    """
    if history.entries and index < history.entries[0].index:
        raise ValueError(
            f"history indices must be non-decreasing: {index} after {history.entries[0].index}"
        )
    flag = past_tense
    kept = []
    for entry in history.entries:
        if entry.entity_id == cb:
            flag = flag or entry.past_tense
        else:
            kept.append(entry)
    return CbHistory(entries=(CbHistoryEntry(cb, index, flag), *kept))


@dataclass(frozen=True)
class Retrieval:
    """Outcome of one global retrieval at one zero slot.

    `value` is None when the history held no antecedent. For set-valued
    antecedents `member_order` preserves the recency order the set was built
    in (the value itself is an unordered frozenset).
    """

    position: int
    value: Resolution
    cues: tuple[str, ...]
    candidates: tuple[str, ...]
    member_order: tuple[str, ...] = ()


def global_retrieve(
    history: CbHistory,
    zero: ReferringExpression,
    u: Utterance,
    entities: Mapping[str, DiscourseEntity],
    cf_prev: Sequence[str] = (),
    prev_tense: Optional[Tense] = None,
) -> Retrieval:
    """Search the former-Cb list for an antecedent of a locally unresolved
    zero.

    Candidates are filtered by agreement (cardinality), then by the slot's
    selectional restriction, then reordered by the tense cue (a shift to past
    tense prefers centers introduced in past-tense utterances); the first
    survivor wins. Plural-constrained zeros search candidate entity sets
    instead. Value is None when the history is exhausted.
    """
    required = zero.required_cardinality
    if required is not None and required >= 2:
        return _retrieve_set(history, zero, u, entities, cf_prev, prev_tense)

    cues: list[str] = []
    candidates = [e for e in history.entries if e.entity_id in entities]
    considered = tuple(e.entity_id for e in candidates)

    if required is not None:
        kept = [e for e in candidates if entities[e.entity_id].cardinality == required]
        if len(kept) < len(candidates):
            cues.append(CUE_AGREEMENT)
        candidates = kept

    wanted = zero.compatible_types
    if wanted:
        kept = [
            e for e in candidates if entities[e.entity_id].semantic_types & wanted
        ]
        if len(kept) < len(candidates):
            cues.append(CUE_LEXICAL)
        candidates = kept

    candidates = _tense_reorder(candidates, u, prev_tense, cues)
    value = candidates[0].entity_id if candidates else None
    return Retrieval(zero.surface_position, value, tuple(cues), considered)


def _tense_reorder(
    candidates: list[CbHistoryEntry],
    u: Utterance,
    prev_tense: Optional[Tense],
    cues: list[str],
) -> list[CbHistoryEntry]:
    """Stable-partition past-introduced centers to the front when the
    discourse shifts into past tense; records the cue only when the reorder
    changed which candidate comes first."""
    if u.tense is not Tense.PAST or prev_tense is not Tense.NONPAST:
        return candidates
    reordered = [e for e in candidates if e.past_tense] + [
        e for e in candidates if not e.past_tense
    ]
    if reordered and candidates and reordered[0] != candidates[0]:
        cues.append(CUE_TENSE)
    return reordered


def _retrieve_set(
    history: CbHistory,
    zero: ReferringExpression,
    u: Utterance,
    entities: Mapping[str, DiscourseEntity],
    cf_prev: Sequence[str],
    prev_tense: Optional[Tense],
) -> Retrieval:
    required = zero.required_cardinality
    assert required is not None
    cues = [CUE_AGREEMENT]
    sets = form_set_candidates(history, cf_prev, required, entities, u.index)
    considered = tuple("+".join(s) for s in sets)
    kept = []
    for members in sets:
        verdict = check_compatibility(zero, [entities[m] for m in members])
        if verdict is Verdict.COMPATIBLE:
            kept.append(members)
    if len(kept) < len(sets):
        cues.append(CUE_LEXICAL)
    if not kept:
        return Retrieval(zero.surface_position, None, tuple(cues), considered)
    return Retrieval(
        zero.surface_position, frozenset(kept[0]), tuple(cues), considered, kept[0]
    )


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the coherence engine.

    `zta_enabled` / `global_enabled` are the ablation switches: they disable
    zero-topic promotion and former-Cb retrieval respectively.
    """

    beam: int = DEFAULT_BEAM
    zta_enabled: bool = True
    global_enabled: bool = True


@dataclass(frozen=True)
class HypothesisView:
    """Serializable snapshot of one hypothesis for reports."""

    cb: Optional[str]
    cf: tuple[tuple[str, str], ...]
    transition: str
    zta_applied: bool
    dampened: bool
    anomalous: bool


@dataclass(frozen=True)
class UtteranceReport:
    """Per-utterance analysis record emitted by the engine."""

    discourse_id: str
    index: int
    tense: str
    text: Optional[str]
    seed: bool
    has_zero: bool
    label: str
    cb: Optional[str]
    cf: tuple[tuple[str, str], ...]
    resolutions: tuple[tuple[int, Resolution], ...] = ()
    cues: tuple[str, ...] = ()
    retrievals: tuple[Retrieval, ...] = ()
    hypotheses: tuple[HypothesisView, ...] = ()
    ambiguous: bool = False

    @property
    def resolution_map(self) -> Mapping[int, object]:
        return dict(self.resolutions)


@dataclass(frozen=True)
class DiscourseReport:
    """Full trace for one discourse run."""

    discourse_id: str
    utterances: tuple[UtteranceReport, ...]
    unresolved_ambiguity: bool
    history: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class DiscourseState:
    """Engine state after processing a prefix of a discourse."""

    discourse: Discourse
    config: EngineConfig
    hypotheses: tuple[CenteringHypothesis, ...] = ()
    history: CbHistory = field(default_factory=CbHistory)
    last_step: Optional["StepTrace"] = None


@dataclass(frozen=True)
class StepTrace:
    """Raw per-utterance trace kept until end-of-discourse finalization.

    Traces form an append-only list through `prev` (newest first), so a step
    adds its trace in O(1) and earlier states stay valid. `prev` is left out
    of repr, equality and hashing, which would otherwise recurse down the
    whole list.
    """

    utterance: Utterance
    hypotheses: tuple[CenteringHypothesis, ...]
    retrievals: tuple[Retrieval, ...]
    prev: Optional["StepTrace"] = field(default=None, repr=False, compare=False)


def _view(h: CenteringHypothesis) -> HypothesisView:
    return HypothesisView(
        cb=h.cb,
        cf=tuple((eid, role.display) for eid, role in h.cf),
        transition=h.transition.display,
        zta_applied=h.zta_applied,
        dampened=h.dampened,
        anomalous=h.anomalous,
    )


def _resolve_locally(
    parent: CenteringHypothesis,
    u: Utterance,
    entities: Mapping[str, DiscourseEntity],
) -> ResolutionOutcome:
    """Resolve every zero of `u` against the parent's Cf, most salient zero
    first, each claim excluding earlier ones."""
    zeros = sorted(u.zeros, key=lambda z: (z.role.rank, z.surface_position))
    cf_prev = [eid for eid, _ in parent.cf]
    assigned: dict[int, Resolution] = {}
    exhausted: set[int] = set()
    claimed: set[str] = set()
    for zero in zeros:
        res = local_resolution(zero, cf_prev, u, entities, frozenset(claimed))
        assigned[zero.surface_position] = res.entity_id
        if res.entity_id is not None:
            claimed.add(res.entity_id)
        elif res.exhausted:
            exhausted.add(zero.surface_position)
    return ResolutionOutcome(
        assignments=tuple(sorted(assigned.items())),
        exhausted_positions=frozenset(exhausted),
    )


def _seed_hypothesis(u: Utterance) -> CenteringHypothesis:
    cf = rank_cf(u)
    return CenteringHypothesis(
        utterance_index=u.index,
        cb=cf[0][0] if cf else None,
        cf=cf,
        transition=TransitionLabel.CONTINUE,
        seed=True,
        eff_pref=1,
    )


def _apply_retrieval(
    child: CenteringHypothesis, u: Utterance, retrievals: list[Retrieval]
) -> CenteringHypothesis:
    """Fold successful retrievals (at least one) into a hypothesis: fill the
    resolutions, re-rank the retrieved antecedent to Cf head (it becomes the
    new Cp), and record the cues. Cb and transition label keep their
    pre-retrieval values."""
    res = dict(child.resolution_map)
    cues = list(child.cues)
    by_pos = {z.surface_position: z for z in u.zeros}

    new_head: list[tuple[str, EffectiveRole]] = []
    for r in retrievals:
        res[r.position] = r.value
        for cue in r.cues:
            if cue not in cues:
                cues.append(cue)
        role = EffectiveRole.from_role(by_pos[r.position].role)
        if isinstance(r.value, str):
            members = [r.value]
        else:
            members = list(r.member_order) or sorted(r.value)
        for m in members:
            if all(m != eid for eid, _ in new_head):
                new_head.append((m, role))

    head_ids = {eid for eid, _ in new_head}
    tail = [(eid, role) for eid, role in child.cf if eid not in head_ids]
    cf: CfList = tuple(new_head) + tuple(tail)
    all_resolved = all(res.get(z.surface_position) is not None for z in u.zeros)
    return replace(
        child,
        resolutions=tuple(sorted(res.items())),
        cues=tuple(cues),
        cf=cf,
        anomalous=False if all_resolved else child.anomalous,
    )


def coherence_step(state: DiscourseState, u: Utterance) -> DiscourseState:
    """Advance the engine by one utterance.

    Order of play: local resolution per live hypothesis; expansion (plain and
    zero-topic readings); when the best reading is RETAIN with no promoted
    continue available, or ROUGH-SHIFT, global retrieval for each unresolved
    zero; pruning; history push of the accepted reading's Cb.
    """
    entities = state.discourse.entity_map
    config = state.config

    if not state.hypotheses:
        seed = _seed_hypothesis(u)
        hist = state.history
        if seed.cb is not None:
            hist = push_cb(hist, seed.cb, u.index, u.tense is Tense.PAST)
        trace = StepTrace(
            utterance=u, hypotheses=(seed,), retrievals=(), prev=state.last_step
        )
        return replace(state, hypotheses=(seed,), history=hist, last_step=trace)

    outcomes = [_resolve_locally(parent, u, entities) for parent in state.hypotheses]
    children = expand_hypotheses(
        state.hypotheses, u, outcomes, zta_enabled=config.zta_enabled
    )

    # Local Coherence Check: retrieval is gated on the best available reading.
    best_label = min(
        (c.transition for c in children), key=lambda t: t.preference_rank
    )
    zta_available = any(
        c.transition is TransitionLabel.ZTA_CONTINUE for c in children
    )
    needs_global = best_label is TransitionLabel.ROUGH_SHIFT or (
        best_label is TransitionLabel.RETAIN and not zta_available
    )

    all_retrievals: list[Retrieval] = []
    if needs_global and config.global_enabled:
        # the previous utterance by position: indices may have gaps
        prev_tense = state.last_step.utterance.tense
        updated = []
        for child in children:
            res = child.resolution_map
            unresolved = [z for z in u.zeros if res.get(z.surface_position) is None]
            if not unresolved:
                updated.append(child)
                continue
            cf_prev = child.parent.cf_ids if child.parent is not None else ()
            got = []
            for zero in unresolved:
                r = global_retrieve(state.history, zero, u, entities, cf_prev, prev_tense)
                if r.value is not None:
                    got.append(r)
            updated.append(_apply_retrieval(child, u, got) if got else child)
            all_retrievals.extend(got)
        children = updated

    survivors = prune_hypotheses(children, beam=config.beam)

    accepted = _accepted(survivors)
    hist = state.history
    if accepted is not None and accepted.cb is not None:
        hist = push_cb(hist, accepted.cb, u.index, u.tense is Tense.PAST)

    trace = StepTrace(
        utterance=u,
        hypotheses=tuple(survivors),
        retrievals=tuple(all_retrievals),
        prev=state.last_step,
    )
    return replace(
        state,
        hypotheses=tuple(survivors),
        history=hist,
        last_step=trace,
    )


def _accepted(survivors: Sequence[CenteringHypothesis]) -> Optional[CenteringHypothesis]:
    """Current best reading; preference ties resolve to the plain (fewest
    promotions) branch for bookkeeping purposes."""
    if not survivors:
        return None
    best_key = rank_key(survivors[0])[:2]
    tied = [h for h in survivors if rank_key(h)[:2] == best_key]
    return min(tied, key=lambda h: (h.zta_count, rank_key(h)))


def run_discourse(
    discourse: Discourse, config: Optional[EngineConfig] = None
) -> DiscourseReport:
    """Process a whole discourse and return its finalized report."""
    config = config or EngineConfig()
    state = DiscourseState(discourse=discourse, config=config)
    for u in discourse.utterances:
        state = coherence_step(state, u)
    return finalize(state)


def finalize(state: DiscourseState) -> DiscourseReport:
    """Turn raw step traces into the final report.

    Statistical labels come from the final best hypothesis's ancestry; on a
    final preference tie (a dampened ambiguity that never resolved) the
    plain-most path wins and the tied readings are compared: utterances where
    their zero resolutions differ are flagged ambiguous.
    """
    discourse = state.discourse
    if state.last_step is None:
        return DiscourseReport(discourse.id, (), False, ())

    ordered = sorted(state.hypotheses, key=rank_key)
    best = ordered[0]
    best_key = rank_key(best)[:2]
    readings = [
        h
        for h in ordered
        if rank_key(h)[:2] == best_key
        or (h.ambiguity_keys & best.ambiguity_keys and not h.anomalous)
    ]
    stats_path = min(readings, key=lambda h: (h.zta_count, rank_key(h)))

    # steps, the stats path and every reading's ancestry all run newest
    # first, one entry per utterance
    steps: list[StepTrace] = []
    node: Optional[StepTrace] = state.last_step
    while node is not None:
        steps.append(node)
        node = node.prev
    if len(readings) > 1:
        ambiguous = [
            len({h.resolutions for h in nodes}) > 1
            for nodes in zip(*(r.ancestry() for r in readings), strict=True)
        ]
    else:
        ambiguous = [False] * len(steps)

    reports: list[UtteranceReport] = []
    for step, chosen, flag in zip(
        steps, stats_path.ancestry(), ambiguous, strict=True
    ):
        u = step.utterance
        retrieval_map = {r.position: r for r in step.retrievals}
        reports.append(
            UtteranceReport(
                discourse_id=discourse.id,
                index=u.index,
                tense=u.tense.value,
                text=u.text,
                seed=chosen.seed,
                has_zero=u.has_zero,
                label=chosen.transition.display,
                cb=chosen.cb,
                cf=tuple((eid, role.display) for eid, role in chosen.cf),
                resolutions=chosen.resolutions,
                cues=chosen.cues,
                retrievals=tuple(retrieval_map[p] for p in sorted(retrieval_map)),
                hypotheses=tuple(_view(h) for h in step.hypotheses),
                ambiguous=flag,
            )
        )
    reports.reverse()

    return DiscourseReport(
        discourse_id=discourse.id,
        utterances=tuple(reports),
        unresolved_ambiguity=any(ambiguous),
        history=tuple((e.entity_id, e.index) for e in state.history.entries),
    )


def run_corpus(
    discourses: Sequence[Discourse], config: Optional[EngineConfig] = None
) -> list[DiscourseReport]:
    return [run_discourse(d, config) for d in discourses]
