"""An executable spec of the whole run: one plain, slow implementation of
what `run_discourse` computes, written from the README's rules and the
engine's documented behaviour. `tests/test_spec.py` holds the engine to it,
run by run and, for inputs that no run builds, part by part.

It shares no code with the engine: it imports only value and report types
from `centering` and calls no function of `core`, `resolution`,
`hypotheses` or `engine`. It keeps no cache: every Cf is ranked where it
is needed, every reading is built before duplicates collapse, readings are
ranked by their whole preference chain (`chain_key`), and the discourse is
reported whole at the end. `beam=None` keeps every compatible reading, the
unbounded search.

It follows the engine's output exactly, known faults included, so that the
two compare by `==`. Each fault is one line below, with a comment naming
its ROADMAP item; a change that mends one edits that line together with
the engine.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

from centering.engine import DiscourseReport, HypothesisView, Retrieval, UtteranceReport
from centering.model import CbHistoryEntry, EffectiveRole, GrammaticalRole, Tense
from centering.model import TransitionLabel as Label

#: Coherence preference, lower preferred; a promoted continue ties with a
#: plain one.
PREFERENCE = {
    Label.CONTINUE: 1, Label.ZTA_CONTINUE: 1, Label.RETAIN: 2,
    Label.SMOOTH_SHIFT: 3, Label.ROUGH_SHIFT: 4,
}

AGREEMENT, LEXICAL, TENSE = "AGREEMENT", "LEXICAL", "TENSE"


@dataclass(eq=False)
class Reading:
    """One (Cb, Cf, transition) reading of an utterance, linked to the
    reading of the utterance before it; compared by identity."""

    cb: Optional[str]
    cf: tuple
    transition: Label
    eff_pref: int
    dampened: bool = False
    anomalous: bool = False
    resolutions: tuple = ()
    cues: tuple = ()
    parent: object = None
    ambiguity_keys: frozenset = frozenset()

    @property
    def zta_applied(self):
        return self.transition is Label.ZTA_CONTINUE

    def ancestry(self):
        node = self
        while node is not None:
            yield node
            node = node.parent

    @property
    def zta_count(self):
        return sum(node.zta_applied for node in self.ancestry())


def chain_key(h) -> tuple:
    """The full-chain rank key of a reading, the spec's or the engine's:
    compatible before anomalous, then the effective preference of the
    reading and of every ancestor, current utterance first, then the
    promoted reading first."""
    return (h.anomalous, tuple(node.eff_pref for node in h.ancestry()), not h.zta_applied)


#: What one utterance did: its readings after retrieval and before the
#: prune, the live readings kept, the retrievals made, and the history of
#: former Cbs after it.
Step = namedtuple("Step", "utterance children live retrievals history")


def rank_cf(u, resolutions) -> tuple:
    """Each entity `u` realizes, at its best (role, surface position), in
    that order. A zero realizes its antecedent, each member of a set in
    sorted order; an unresolved zero realizes nothing."""
    best = {}
    for expr in u.expressions:
        value = resolutions.get(expr.surface_position) if expr.is_zero else expr.entity_ref
        members = () if value is None else (value,) if isinstance(value, str) else sorted(value)
        for member in members:
            seen = (int(expr.role), expr.surface_position)
            best[member] = min(best.get(member, seen), seen)
    ordered = sorted(best.items(), key=lambda item: item[1])
    return tuple((eid, EffectiveRole(role)) for eid, (role, _) in ordered)


def classify(cb_prev, cb, cp) -> Label:
    """The four-way transition by Cb identity and Cb = Cp; no Cb is a rough
    shift."""
    if cb is None:
        return Label.ROUGH_SHIFT
    if cb == cb_prev:
        return Label.CONTINUE if cb == cp else Label.RETAIN
    return Label.SMOOTH_SHIFT if cb == cp else Label.ROUGH_SHIFT


def ruled_out_by(zero, members) -> Optional[str]:
    """None when a candidate, given as its member entities, fits the zero's
    cues; else AGREEMENT (no member, or the wrong total cardinality), then
    LEXICAL (a member outside the slot's non-empty types)."""
    c = zero.constraints
    if not members:
        return AGREEMENT
    if c is None:
        return None
    if c.required_cardinality not in (None, sum(m.cardinality for m in members)):
        return AGREEMENT
    if c.compatible_types and not all(m.semantic_types & c.compatible_types for m in members):
        return LEXICAL
    return None


def resolve_locally(parent, u, entities) -> tuple:
    """Each zero of `u`, most salient first (by role, then position), takes
    the highest-ranked entity of the parent's Cf that `u` does not realize
    overtly, no earlier zero claimed, is declared and fits its cues. Returns
    the assignments by position (None where none fits) and whether some
    zero had candidates that all failed its cues, the veto."""
    overt = {e.entity_ref for e in u.expressions if not e.is_zero}
    assigned, anomalous = {}, False
    for zero in sorted(u.zeros, key=lambda z: (int(z.role), z.surface_position)):
        claimed = set(assigned.values())
        candidates = [
            entities[eid] for eid, _ in parent.cf
            if eid not in overt and eid not in claimed and eid in entities
        ]
        fits = [e.id for e in candidates if ruled_out_by(zero, [e]) is None]
        assigned[zero.surface_position] = fits[0] if fits else None
        anomalous = anomalous or bool(candidates and not fits)
    return tuple(sorted(assigned.items())), anomalous


def expand(live, u, outcomes, zta_enabled) -> list:
    """Every child of every live reading, given each one's local outcome,
    duplicates collapsed, best first.

    A parent's plain child ranks the Cf under the outcome's assignments;
    its Cb is the parent's highest-ranked Cf entity realized in it. When
    that reading is a retain and an argument-role zero realizes its Cb, the
    zero-topic rule adds a promoted child, the Cb in the zero-top slot
    ahead of the plain Cf, labelled a zta-continue. A wa-marked overt topic
    dampens the promotion: both children are marked, the promoted one takes
    the plain one's preference, and both carry the branch point's key.
    """
    hosts = [z.surface_position for z in u.zeros if z.role is not GrammaticalRole.OTHERS]
    wa_topic = any(e.wa_marked and not e.is_zero for e in u.expressions)
    children = []
    for parent, (assignments, anomalous) in zip(live, outcomes, strict=True):
        resolutions = dict(assignments)
        plain_cf = rank_cf(u, resolutions)
        realized = {eid for eid, _ in plain_cf}
        cb = next((eid for eid, _ in parent.cf if eid in realized), None)
        label = classify(parent.cb, cb, plain_cf[0][0] if plain_cf else None)
        promote = (
            zta_enabled and label is Label.RETAIN and any(resolutions.get(p) == cb for p in hosts)
        )
        dampened = promote and wa_topic
        keys = parent.ambiguity_keys | {f"u{u.index}"} if dampened else parent.ambiguity_keys
        shared = (dampened, anomalous, assignments, (), parent, keys)
        children.append(Reading(cb, plain_cf, label, PREFERENCE[label], *shared))
        if promote:
            zta_cf = ((cb, EffectiveRole.ZERO_TOP), *(e for e in plain_cf if e[0] != cb))
            pref = PREFERENCE[label if dampened else Label.ZTA_CONTINUE]
            children.append(Reading(cb, zta_cf, Label.ZTA_CONTINUE, pref, *shared))
    return sorted(collapse(children), key=chain_key)


def collapse(children) -> list:
    """Identical readings from different parents become one: the one with
    the fewest promotions on its chain, then the best chain, the first of a
    tie, under the union of their ambiguity keys, in the place where the
    first of them stood."""
    kept = {}
    for child in children:
        key = (child.cb, child.cf, child.transition, child.resolutions, child.anomalous)
        cur = kept.setdefault(key, child)
        if cur is not child:
            better = min(cur, child, key=lambda h: (h.zta_count, chain_key(h)))
            kept[key] = replace(better, ambiguity_keys=cur.ambiguity_keys | child.ambiguity_keys)
    return list(kept.values())


def set_candidates(former, cf_prev, required, entities, index) -> list:
    """The sets of two or more former Cbs that share a semantic type and
    whose cardinalities sum to `required`, the most recent least recent
    member first, each in recency order. A member of the previous Cf counts
    as recent as the previous utterance."""
    recency = {
        e.entity_id: max(e.index, index - 1) if e.entity_id in cf_prev else e.index
        for e in former
    }

    # item 18: a recency tie breaks by entity id, so results depend on spelling
    def order(members):
        return (-min(recency[m] for m in members), members)

    pool = sorted(recency, key=lambda eid: order((eid,)))
    sets = [
        members
        for size in range(2, required + 1)
        for members in combinations(pool, size)
        if sum(entities[m].cardinality for m in members) == required
        and frozenset.intersection(*(entities[m].semantic_types for m in members))
    ]
    return sorted(sets, key=order)


def retrieve(history, zero, u, entities, cf_prev, prev_tense) -> Retrieval:
    """Search the former Cbs, most recent first, for an antecedent of an
    unresolved zero; a zero that needs two or more searches the entity sets
    of `set_candidates` instead. Candidates that fail the zero's cues drop
    out, and each failing cue is recorded, AGREEMENT before LEXICAL (a set
    search always records AGREEMENT). On a shift from nonpast to past tense,
    single candidates that were Cb in a past-tense utterance move to the
    front, and TENSE is recorded when that changes the winner. The first
    survivor wins."""
    # item 14: neither the overt entities of `u` nor the reading's claims are left out
    former = [e for e in history if e.entity_id in entities]
    required = zero.required_cardinality
    plural = required is not None and required >= 2
    if plural:
        pool = set_candidates(former, cf_prev, required, entities, u.index)
    else:
        pool = [(e.entity_id,) for e in former]
    failed = {ruled_out_by(zero, [entities[m] for m in members]) for members in pool}
    kept = [m for m in pool if ruled_out_by(zero, [entities[e] for e in m]) is None]
    cues = [cue for cue in (AGREEMENT, LEXICAL) if cue in failed or (plural and cue == AGREEMENT)]
    if not plural and u.tense is Tense.PAST and prev_tense is Tense.NONPAST:
        past = {e.entity_id for e in history if e.past_tense}
        reordered = [m for m in kept if m[0] in past] + [m for m in kept if m[0] not in past]
        cues += [TENSE] if reordered[:1] != kept[:1] else []
        kept = reordered
    value = None if not kept else frozenset(kept[0]) if plural else kept[0][0]
    order = kept[0] if kept and plural else ()
    considered = tuple("+".join(members) for members in pool)
    return Retrieval(zero.surface_position, value, tuple(cues), considered, order)


def apply_retrievals(child, u, got) -> Reading:
    """The reading with its retrieved antecedents: the resolutions filled,
    the antecedents (a set's members in its recency order) moved to the
    head of the Cf in the role of their zero, the cues recorded once each,
    and the veto lifted once every zero is resolved. Cb and label stay."""
    resolutions, cues, head = dict(child.resolutions), list(child.cues), {}
    role_at = {z.surface_position: EffectiveRole(int(z.role)) for z in u.zeros}
    for r in got:
        resolutions[r.position] = r.value
        cues += [cue for cue in r.cues if cue not in cues]
        for m in (r.value,) if isinstance(r.value, str) else r.member_order:
            head.setdefault(m, role_at[r.position])
    cf = (*head.items(), *(e for e in child.cf if e[0] not in head))
    resolved = all(resolutions.get(z.surface_position) is not None for z in u.zeros)
    return replace(
        child, cf=cf, resolutions=tuple(sorted(resolutions.items())), cues=tuple(cues),
        anomalous=child.anomalous and not resolved,
    )


def prune(children, beam) -> list:
    """The best `beam` compatible readings (all of them for `beam=None`); an
    anomalous reading is vetoed while a compatible one exists, and when
    none does the best anomalous reading is kept."""
    ordered = sorted(children, key=chain_key)
    compatible = [h for h in ordered if not h.anomalous]
    return compatible[:beam] if compatible else ordered[:1]


def accepted(live) -> Reading:
    """Of the readings tied with the best on veto and chain preference, the
    one with the fewest promotions."""
    tied = [h for h in live if chain_key(h)[:2] == chain_key(live[0])[:2]]
    return min(tied, key=lambda h: (h.zta_count, chain_key(h)))


def push(history, cb, index, past_tense) -> tuple:
    """The history with `cb` at the front as the Cb of utterance `index`,
    which may not go back; an older entry for it is dropped, and its
    past-tense flag is sticky."""
    if history and index < history[0].index:
        message = f"history indices must be non-decreasing: {index} after {history[0].index}"
        raise ValueError(message)
    flag = past_tense or any(e.past_tense for e in history if e.entity_id == cb)
    return (CbHistoryEntry(cb, index, flag), *(e for e in history if e.entity_id != cb))


def steps(discourse, beam=4, zta_enabled=True, global_enabled=True) -> list:
    """Each utterance's `Step`, in order.

    The first utterance has one seed reading: its overt entities ranked,
    the head as Cb, labelled a continue. Every later utterance expands the
    live readings. Retrieval runs when the best label among the children is
    a retain (so no promoted continue exists) or a rough shift: each child
    searches the history for each zero it left unresolved, in surface
    order, with the tense of the utterance before. Then the prune, and the
    accepted reading's Cb, if any, is pushed, sticky past if `u` is past.
    """
    entities = discourse.entity_map
    out, history = [], ()
    for u in discourse.utterances:
        retrievals = []
        if not out:
            cf = rank_cf(u, {})
            children = [Reading(cf[0][0] if cf else None, cf, Label.CONTINUE, 1)]
        else:
            live = out[-1].live
            outcomes = [resolve_locally(parent, u, entities) for parent in live]
            children = expand(live, u, outcomes, zta_enabled)
            best = min(PREFERENCE[h.transition] for h in children)
            if global_enabled and best in (PREFERENCE[Label.RETAIN], PREFERENCE[Label.ROUGH_SHIFT]):
                for i, child in enumerate(children):
                    cf_prev = [eid for eid, _ in child.parent.cf]
                    resolutions = dict(child.resolutions)
                    got = [
                        retrieve(history, z, u, entities, cf_prev, out[-1].utterance.tense)
                        for z in u.zeros
                        if resolutions[z.surface_position] is None
                    ]
                    got = [r for r in got if r.value is not None]
                    if got:
                        children[i] = apply_retrievals(child, u, got)
                        retrievals += got
        live = prune(children, beam)
        cb = accepted(live).cb
        if cb is not None:
            history = push(history, cb, u.index, u.tense is Tense.PAST)
        out.append(Step(u, children, live, retrievals, history))
    return out


def view(h) -> HypothesisView:
    cf = tuple((eid, role.name.lower().replace("_", "-")) for eid, role in h.cf)
    return HypothesisView(h.cb, cf, h.transition.value, h.zta_applied, h.dampened, h.anomalous)


def report(discourse, run) -> DiscourseReport:
    """The discourse's report from its steps.

    The statistics follow one path of readings: of the final live readings
    tied with the best, the one with the fewest promotions (then the best
    chain) wins, and its ancestry gives each utterance's label, Cb, Cf,
    resolutions and cues. When several final readings are compared, each
    utterance where their resolutions differ is flagged ambiguous, and so
    is the discourse. Each utterance lists its live readings and the last
    retrieval made at each zero position.
    """
    if not run:
        return DiscourseReport(discourse.id, (), False, ())
    best = run[-1].live[0]
    readings = [
        h
        for h in run[-1].live
        if chain_key(h)[:2] == chain_key(best)[:2]
        # item 16: compatible readings that share a key with the best but lost on preference
        or h.ambiguity_keys & best.ambiguity_keys
    ]
    path = list(min(readings, key=lambda h: (h.zta_count, chain_key(h))).ancestry())[::-1]
    chains = [list(h.ancestry())[::-1] for h in readings]
    utterances = []
    for k, (u, _, live, retrievals, _) in enumerate(run):
        chosen = path[k]
        last = {r.position: r for r in retrievals}
        utterances.append(UtteranceReport(
            discourse.id, u.index, u.tense.value, u.text, k == 0, bool(u.zeros),
            chosen.transition.value, chosen.cb, view(chosen).cf, chosen.resolutions,
            chosen.cues, tuple(last[p] for p in sorted(last)), tuple(view(h) for h in live),
            len({chain[k].resolutions for chain in chains}) > 1,
        ))
    unresolved = any(u.ambiguous for u in utterances)
    history = tuple((e.entity_id, e.index) for e in run[-1].history)
    return DiscourseReport(discourse.id, tuple(utterances), unresolved, history)


def run(discourse, beam=4, zta_enabled=True, global_enabled=True) -> DiscourseReport:
    """The report of a discourse, as `run_discourse` gives it under
    `EngineConfig(beam, zta_enabled, global_enabled)`; `beam=None` is the
    unbounded search."""
    return report(discourse, steps(discourse, beam, zta_enabled, global_enabled))
