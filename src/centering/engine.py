"""Discourse-level engine: Cb history, global retrieval, coherence steps.

One `DiscourseState` is threaded per discourse, advanced strictly by
utterance index; `coherence_step` changes no state or reading it is given,
so distinct discourses can run in parallel with no shared state.
`stream_discourse` hands on each utterance's report once every live reading
agrees on it and cuts what lies behind, so a discourse runs in memory
bounded by the beam and the history, not by its length; `run_discourse`
collects that stream.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from ._record import field, record, replace
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
    CUE_AGREEMENT,
    CUE_LEXICAL,
    CUE_TENSE,
    check_compatibility,
    form_set_candidates,
    local_resolution,
)

_set = object.__setattr__

#: How many states `stream_discourse` lets wait before it looks for a step
#: to settle: reports built in runs cost less CPU than one built after each
#: step, and a discourse shorter than this is reported by `finalize` alone.
_SETTLE_AFTER = 32

#: The ambiguity key that stands for those of a settled reading
#: (`stream_discourse`); a branch point's key is "u" and an index.
_SETTLED_KEYS = frozenset({"settled"})

#: The preference ranks that gate retrieval (`coherence_step`).
_RETAIN_RANK = TransitionLabel.RETAIN.preference_rank
_ROUGH_SHIFT_RANK = TransitionLabel.ROUGH_SHIFT.preference_rank

_ZTA_CONTINUE = TransitionLabel.ZTA_CONTINUE


def push_cb(history: CbHistory, cb: str, index: int, past_tense: bool) -> CbHistory:
    """Record `cb` as the center of utterance `index`.

    Returns a new history with the entry at the front; an older entry for the
    same entity collapses into it (keeping a sticky past-tense flag). The
    entries of `history` name distinct entities, as this function leaves
    them, so a Cb already at the front is the only entry for it.
    """
    if history:
        head = history[0]
        if index < head.index:
            raise ValueError(f"history indices must be non-decreasing: {index} after {head.index}")
        if head.entity_id == cb:
            return (CbHistoryEntry(cb, index, past_tense or head.past_tense), *history[1:])
    flag = past_tense
    kept = []
    for entry in history:
        if entry.entity_id == cb:
            flag = flag or entry.past_tense
        else:
            kept.append(entry)
    return (CbHistoryEntry(cb, index, flag), *kept)


@record
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
    cf_prev: Sequence[str],
    prev_tense: Tense,
) -> Retrieval:
    """Search the former-Cb list for an antecedent of a locally unresolved
    zero.

    Each former Cb is a candidate; a plural-constrained zero searches the
    candidate entity sets of `form_set_candidates` instead. Candidates that
    `check_compatibility` rules out are dropped, and each cue that ruled one
    out is recorded, AGREEMENT before LEXICAL (a set search always records
    AGREEMENT). Single candidates are then reordered by the tense cue: a
    shift to past tense moves centers introduced in past-tense utterances
    to the front, keeping recency order within each part. The first
    survivor wins; value is None when no candidate survives.
    """
    required = zero.required_cardinality
    plural = required is not None and required >= 2
    if plural:
        pool = form_set_candidates(history, cf_prev, required, entities, u.index)
    else:
        pool = [(e.entity_id,) for e in history if e.entity_id in entities]
    ruled_out = {CUE_AGREEMENT} if plural else set()
    kept = []
    for members in pool:
        cue = check_compatibility(zero, [entities[m] for m in members])
        if cue is None:
            kept.append(members)
        else:
            ruled_out.add(cue)
    cues = [cue for cue in (CUE_AGREEMENT, CUE_LEXICAL) if cue in ruled_out]
    if not plural and u.tense is Tense.PAST and prev_tense is Tense.NONPAST:
        # the cue counts only when the reorder changes which candidate wins
        past = {e.entity_id for e in history if e.past_tense}
        reordered = sorted(kept, key=lambda members: members[0] not in past)
        if reordered[:1] != kept[:1]:
            cues.append(CUE_TENSE)
        kept = reordered

    if not kept:
        value, member_order = None, ()
    elif plural:
        value, member_order = frozenset(kept[0]), kept[0]
    else:
        value, member_order = kept[0][0], ()
    considered = tuple("+".join(members) for members in pool)
    return Retrieval(zero.surface_position, value, tuple(cues), considered, member_order)


@record
class EngineConfig:
    """Knobs of the coherence engine.

    `zta_enabled` / `global_enabled` are the ablation switches: they disable
    zero-topic promotion and former-Cb retrieval respectively.
    """

    beam: int = DEFAULT_BEAM
    zta_enabled: bool = True
    global_enabled: bool = True

    def __post_init__(self) -> None:
        # a bool is an int to Python, but not a beam width
        if isinstance(self.beam, bool) or not isinstance(self.beam, int) or self.beam < 1:
            raise ValueError(f"beam must be an int >= 1, got {self.beam!r}")
        for name in ("zta_enabled", "global_enabled"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")


@record
class HypothesisView:
    """Serializable snapshot of one hypothesis for reports."""

    cb: Optional[str]
    cf: tuple[tuple[str, str], ...]
    transition: str
    zta_applied: bool
    dampened: bool
    anomalous: bool


@record
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


@record
class DiscourseReport:
    """Full trace for one discourse run."""

    discourse_id: str
    utterances: tuple[UtteranceReport, ...]
    unresolved_ambiguity: bool
    history: tuple[tuple[str, int], ...]


@record
class DiscourseState:
    """Engine state after processing a prefix of a discourse, and the record
    of its last step.

    The state after an utterance holds that `utterance`, the `hypotheses`
    that survived it, the `retrievals` made at it and the `history` of
    former Cbs up to it; `prev` is the state before it. The initial state
    has no utterance and no `prev`. States form an append-only list through
    `prev` (newest first), so a step adds its record in O(1) and earlier
    states stay valid: `coherence_step` never changes one. Only
    `stream_discourse` cuts the list, and the readings' parent links, behind
    the utterances it has reported, in the states it made itself. `prev` is
    left out of repr, equality and hashing, which would otherwise recurse
    down the whole list.
    """

    discourse: Discourse
    config: EngineConfig
    hypotheses: tuple[CenteringHypothesis, ...] = ()
    history: CbHistory = ()
    utterance: Optional[Utterance] = None
    retrievals: tuple[Retrieval, ...] = ()
    prev: Optional["DiscourseState"] = field(default=None, compare=False)


def _view(h: CenteringHypothesis) -> HypothesisView:
    transition = h.transition
    # positional, in declaration order
    return HypothesisView(
        h.cb,
        tuple([(eid, role.display) for eid, role in h.cf]),
        transition.display,
        transition is _ZTA_CONTINUE,
        h.dampened,
        h.anomalous,
    )


#: The outcome of every reading of an utterance without zeros.
_NO_ZEROS = ResolutionOutcome()


def _resolve_locally(
    parent: CenteringHypothesis,
    u: Utterance,
    zeros: Sequence[ReferringExpression],
    entities: Mapping[str, DiscourseEntity],
) -> ResolutionOutcome:
    """Resolve `zeros`, the zeros of `u` most salient first, against the
    parent's Cf, each claim excluding earlier ones."""
    if not zeros:
        return _NO_ZEROS
    cf_prev = parent.cf_ids
    if len(zeros) == 1:
        zero = zeros[0]
        res = local_resolution(zero, cf_prev, u, entities)
        return ResolutionOutcome(((zero.surface_position, res.entity_id),), res.exhausted)
    assigned: dict[int, Resolution] = {}
    anomalous = False
    claimed: set[str] = set()
    for zero in zeros:
        res = local_resolution(zero, cf_prev, u, entities, claimed)
        assigned[zero.surface_position] = res.entity_id
        if res.entity_id is not None:
            claimed.add(res.entity_id)
        anomalous = anomalous or res.exhausted
    return ResolutionOutcome(tuple(sorted(assigned.items())), anomalous)


def _seed_hypothesis(u: Utterance) -> CenteringHypothesis:
    cf = rank_cf(u)
    return CenteringHypothesis(
        utterance_index=u.index,
        cb=cf[0][0] if cf else None,
        cf=cf,
        transition=TransitionLabel.CONTINUE,
        eff_pref=TransitionLabel.CONTINUE.preference_rank,
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
        role = EffectiveRole(int(by_pos[r.position].role))
        members = (r.value,) if isinstance(r.value, str) else r.member_order
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
    zero; pruning; history push of the accepted reading's Cb. The first
    utterance of a discourse gets its single seed reading instead.
    """
    entities = state.discourse.entity_map
    config = state.config
    retrievals: list[Retrieval] = []

    if not state.hypotheses:
        survivors = [_seed_hypothesis(u)]
    else:
        zeros = u.zeros
        if len(zeros) > 1:
            zeros = sorted(zeros, key=lambda z: (z.role.rank, z.surface_position))
        outcomes = [_resolve_locally(parent, u, zeros, entities) for parent in state.hypotheses]
        children = expand_hypotheses(state.hypotheses, u, outcomes, config.zta_enabled)

        # Local Coherence Check: retrieval is gated on the best available
        # reading, a ROUGH-SHIFT, or a RETAIN with no promoted continue; a
        # promoted reading ranks as a continue, so with one the best is not
        # a RETAIN.
        if len(children) == 1:
            best = children[0].transition.preference_rank
        else:
            best = min([c.transition.preference_rank for c in children])
        needs_global = best == _ROUGH_SHIFT_RANK or best == _RETAIN_RANK

        if needs_global and config.global_enabled:
            # the previous utterance by position: indices may have gaps
            prev_tense = state.utterance.tense
            updated = []
            for child in children:
                res = child.resolution_map
                unresolved = [z for z in u.zeros if res.get(z.surface_position) is None]
                if not unresolved:
                    updated.append(child)
                    continue
                cf_prev = child.parent.cf_ids
                got = []
                for zero in unresolved:
                    r = global_retrieve(state.history, zero, u, entities, cf_prev, prev_tense)
                    if r.value is not None:
                        got.append(r)
                updated.append(_apply_retrieval(child, u, got) if got else child)
                retrievals.extend(got)
            children = updated

        survivors = prune_hypotheses(children, config.beam)

    accepted = survivors[0] if len(survivors) == 1 else _accepted(survivors)
    history = state.history
    if accepted.cb is not None:
        history = push_cb(history, accepted.cb, u.index, u.tense is Tense.PAST)
    return DiscourseState(
        state.discourse, config, tuple(survivors), history, u, tuple(retrievals), state
    )


def _accepted(survivors: Sequence[CenteringHypothesis]) -> CenteringHypothesis:
    """Current best reading of two or more; preference ties resolve to the
    plain (fewest promotions) branch for bookkeeping purposes."""
    keys = [rank_key(h) for h in survivors]
    tied = [
        (h.zta_count, key, i)
        for i, (h, key) in enumerate(zip(survivors, keys))
        if key[:2] == keys[0][:2]
    ]
    return survivors[min(tied)[2]]


def run_discourse(
    discourse: Discourse, config: Optional[EngineConfig] = None
) -> DiscourseReport:
    """Process a whole discourse and return its report: the stream of
    `stream_discourse`, collected."""
    *reports, tail = stream_discourse(discourse, config)
    if not reports:
        return tail
    return DiscourseReport(
        tail.discourse_id, (*reports, *tail.utterances), tail.unresolved_ambiguity, tail.history
    )


def stream_discourse(
    discourse: Discourse, config: Optional[EngineConfig] = None
) -> Iterator[Union[UtteranceReport, DiscourseReport]]:
    """Process a discourse, handing on the report of each utterance, in
    order, once every live reading agrees on it; the last item is
    `finalize`'s report of the final state, which holds the utterances not
    handed on.

    Once every live reading shares its node at some step, no later step can
    change the report of that step or of one before it: the final stats path
    runs through that node, no two readings differ there, and the step's
    views and retrievals are its own. So once `_SETTLE_AFTER` states wait,
    each step reports the prefix up to the newest such step, with the shared
    node as the chosen reading, and cuts the states and parent links behind
    it, after each report has read whether its reading is a seed (`parent
    is None`); `finalize` then walks only the rest. Every live reading then
    holds the ambiguity keys of the shared node, as every later reading
    will, so they are folded into one (`_SETTLED_KEYS`): finalize's tie test
    reads the same, and the keys stop growing with the discourse. Only
    states and readings made here are cut or folded, and nothing else holds
    them.
    """
    state = DiscourseState(discourse, config or EngineConfig())
    pending: list[DiscourseState] = []  # the states not yet reported, oldest first
    for u in discourse.utterances:
        state = coherence_step(state, u)
        pending.append(state)
        if len(pending) < _SETTLE_AFTER:
            continue
        # walk the live readings back in step until they meet
        nodes, lag = state.hypotheses, 0
        while len(nodes) > 1 and any(h is not nodes[0] for h in nodes):
            nodes, lag = [h.parent for h in nodes], lag + 1
        settled = len(pending) - lag
        if not settled:
            continue
        # the shared node's ancestry, newest first, one node per state settled
        shared = nodes[0]
        chosen = [shared]
        while len(chosen) < settled:
            chosen.append(chosen[-1].parent)
        reports = [_report(step, h, False) for step, h in zip(pending, reversed(chosen))]
        _set(shared, "parent", None)
        _set(pending[settled - 1], "prev", None)
        del pending[:settled], chosen
        keys = shared.ambiguity_keys
        if keys and keys != _SETTLED_KEYS:
            for h in state.hypotheses:
                _set(h, "ambiguity_keys", h.ambiguity_keys - keys | _SETTLED_KEYS)
        yield from reports
    yield finalize(state)


def _report(
    step: DiscourseState, chosen: CenteringHypothesis, ambiguous: bool
) -> UtteranceReport:
    """The report of the utterance of `step` under its reading `chosen`."""
    u = step.utterance
    hypotheses = step.hypotheses
    if len(hypotheses) == 1:
        # the chosen reading is the step's one, and its view holds its Cf
        views: tuple[HypothesisView, ...] = (_view(hypotheses[0]),)
        cf = views[0].cf
    else:
        views = tuple([_view(h) for h in hypotheses])
        cf = next(view.cf for h, view in zip(hypotheses, views) if h is chosen)
    retrievals = step.retrievals
    if retrievals:
        # one per position, the last made there
        by_pos = {r.position: r for r in retrievals}
        retrievals = tuple([by_pos[p] for p in sorted(by_pos)])
    # positional, in declaration order; `parent is None` marks the seed
    return UtteranceReport(
        step.discourse.id,
        u.index,
        u.tense.display,
        u.text,
        chosen.parent is None,
        u.zeros != (),
        chosen.transition.display,
        chosen.cb,
        cf,
        chosen.resolutions,
        chosen.cues,
        retrievals,
        views,
        ambiguous,
    )


def finalize(state: DiscourseState) -> DiscourseReport:
    """Report the utterances of the states from `state` back to the newest
    one without `prev`, left out: for a state that `coherence_step` built up
    from an initial state, the whole discourse; in `stream_discourse`, the
    utterances not yet handed on. The history is the state's own.

    Statistical labels come from the final best hypothesis's ancestry; on a
    final preference tie (a dampened ambiguity that never resolved) the
    plain-most path wins and the tied readings are compared: utterances where
    their zero resolutions differ are flagged ambiguous.
    """
    # steps, the stats path and every reading's ancestry all run newest
    # first, one entry per utterance; an ancestry cut in `stream_discourse`
    # runs one node past the steps, to the node all readings share
    steps: list[DiscourseState] = []
    node = state
    while node.prev is not None:
        steps.append(node)
        node = node.prev

    reports: list[UtteranceReport] = []
    unresolved = False
    if steps:
        # prune_hypotheses leaves the live set best-first, and holds an
        # anomalous reading only when it holds nothing else
        best = state.hypotheses[0]
        best_key = rank_key(best)[:2]
        readings = [
            h
            for h in state.hypotheses
            if rank_key(h)[:2] == best_key or h.ambiguity_keys & best.ambiguity_keys
        ]
        stats_path = min(readings, key=lambda h: (h.zta_count, rank_key(h)))
        flags: Iterable[bool] = repeat(False)
        if len(readings) > 1:
            # the node that all readings share is never flagged
            flags = [
                len({h.resolutions for h in nodes}) > 1
                for nodes in zip(*(r.ancestry() for r in readings))
            ]
            unresolved = any(flags)
        reports = [
            _report(step, chosen, flag)
            for step, chosen, flag in zip(steps, stats_path.ancestry(), flags)
        ]
        reports.reverse()

    return DiscourseReport(
        discourse_id=state.discourse.id,
        utterances=tuple(reports),
        unresolved_ambiguity=unresolved,
        history=tuple((e.entity_id, e.index) for e in state.history),
    )


def run_corpus(
    discourses: Sequence[Discourse], config: Optional[EngineConfig] = None
) -> list[DiscourseReport]:
    """The report of each discourse, by `run_discourse`."""
    return [run_discourse(d, config) for d in discourses]
