"""Zero topic assignment and parallel centering hypothesis management."""

from __future__ import annotations

from typing import Sequence

from ._record import record
from .core import classify_transition, rank_cf, compute_cb
from .model import (
    _ZTA_CONTINUE,
    ARGUMENT_ROLES,
    CenteringHypothesis,
    CfList,
    EffectiveRole,
    Resolution,
    TransitionLabel,
    Utterance,
)

DEFAULT_BEAM = 4


@record
class ResolutionOutcome:
    """Per-parent local resolution result for all zeros of one utterance.

    `assignments` maps zero surface positions to antecedents (None when
    unresolved), sorted by position; `anomalous` is true when some zero had
    every local candidate vetoed, which stamps the reading anomalous unless
    global retrieval rescues it later.
    """

    assignments: tuple[tuple[int, Resolution], ...] = ()
    anomalous: bool = False


def _has_wa_competitor(u: Utterance) -> bool:
    """A wa-marked overt NP (the grammatical topic) competes with the zero
    topic and dampens the promotion's preference advantage."""
    return any(e.wa_marked and not e.is_zero for e in u.expressions)


#: A child before it is built: the arguments of `CenteringHypothesis`, in
#: declaration order.
_Spec = tuple


def expand_hypotheses(
    prev_set: Sequence[CenteringHypothesis],
    u: Utterance,
    outcomes: Sequence[ResolutionOutcome],
    zta_enabled: bool,
) -> list[CenteringHypothesis]:
    """Spawn the children of every live hypothesis for utterance `u`, given
    each parent's local resolution outcome (one per parent, in order).

    Each parent yields its plain reading and, when the zero-topic rule fires,
    the promoted reading as well. The rule reads the plain reading: it fires
    when that reading is a RETAIN and an argument-role zero of `u` realizes
    its Cb (which is then the parent's Cb). The promoted reading puts the Cb
    in the ZERO_TOP slot ahead of the plain Cf, which makes it a continue.
    Children of a dampened branch point (the promotion competed with a
    wa-marked topic) tie in preference and share an ambiguity key.
    Duplicated readings from different parents collapse to the lowest-ZTA
    ancestry before any is built. Result is sorted best-first.

    Parents that resolved the zeros alike share one plain Cf, so it is
    ranked once per distinct assignment. The parents' dense ranks, the
    hosts of a promotion and its branch point are computed only when some
    child needs them.
    """
    index = u.index
    several = len(prev_set) > 1
    if several:
        # (eff_pref, parent_rank) orders prev_set by full chain preference
        parent_keys = sorted({(p.eff_pref, p.parent_rank) for p in prev_set})
        dense_rank = {key: rank for rank, key in enumerate(parent_keys)}
    hosts = None  # positions of the argument-role zeros, found on the first RETAIN
    branch_point = None  # found on the first promotion; empty without a wa topic
    ranked: dict[tuple, tuple[dict[int, Resolution], CfList, set[str]]] = {}
    specs: list[_Spec] = []

    for parent, outcome in zip(prev_set, outcomes, strict=True):
        assignments = outcome.assignments
        shared = ranked.get(assignments)
        if shared is None:
            resolutions = dict(assignments)
            plain_cf = rank_cf(u, resolutions)
            shared = (resolutions, plain_cf, {eid for eid, _ in plain_cf})
            ranked[assignments] = shared
        resolutions, plain_cf, realized = shared
        cb = compute_cb(parent.cf_ids, realized)
        plain_label = classify_transition(parent.cb, cb, plain_cf[0][0] if plain_cf else None)
        plain_pref = plain_label.preference_rank
        rank = dense_rank[(parent.eff_pref, parent.parent_rank)] if several else 0
        anomalous = outcome.anomalous

        promote = dampened = False
        keys = parent.ambiguity_keys
        if zta_enabled and plain_label is TransitionLabel.RETAIN:
            if hosts is None:
                hosts = [z.surface_position for z in u.zeros if z.role in ARGUMENT_ROLES]
            promote = any(resolutions.get(pos) == cb for pos in hosts)
        if promote:
            if branch_point is None:
                branch_point = frozenset({f"u{index}"} if _has_wa_competitor(u) else ())
            if branch_point:
                dampened = True
                keys = keys | branch_point
        specs.append((
            index, cb, plain_cf, plain_label, plain_pref, dampened, anomalous,
            assignments, (), parent, keys, rank,
        ))
        if promote:
            zta_cf = ((cb, EffectiveRole.ZERO_TOP), *(e for e in plain_cf if e[0] != cb))
            # a dampened promotion ties with its plain sibling
            zta_pref = plain_pref if dampened else _ZTA_CONTINUE.preference_rank
            specs.append((
                index, cb, zta_cf, _ZTA_CONTINUE, zta_pref, dampened, anomalous,
                assignments, (), parent, keys, rank,
            ))

    if len(specs) == 1:
        return [CenteringHypothesis(*specs[0])]
    if several:
        specs = _dedupe(specs)
    children = [CenteringHypothesis(*spec) for spec in specs]
    children.sort(key=rank_key)
    return children


def _dedupe(specs: list[_Spec]) -> list[_Spec]:
    """Collapse identical readings spawned by different parents, keeping the
    ancestry with fewest promotions (and best chain preference), the first
    of a tie, under the union of their ambiguity keys. Each reading keeps
    the place where it first appeared.

    Readings are identical when their Cb, label, local assignments and
    anomaly are: among the children of one utterance, the Cf follows from
    the assignments and, for a promoted reading, its Cb. Identical readings
    share their label, so their parents' promotions order theirs.
    """
    by_key: dict[tuple, list] = {}
    for spec in specs:
        _, cb, _, label, pref, _, anomalous, assignments, _, parent, keys, rank = spec
        order = (parent.zta_count, pref, rank)
        key = (cb, label, assignments, anomalous)
        cur = by_key.get(key)
        if cur is None:
            by_key[key] = [order, spec, keys]
            continue
        if order < cur[0]:
            cur[0], cur[1] = order, spec
        if keys is not cur[2]:
            cur[2] = cur[2] | keys
    return [(*spec[:10], keys, spec[11]) for _, spec, keys in by_key.values()]


def rank_key(h: CenteringHypothesis) -> tuple:
    """Beam/display order: compatible before anomalous, then preference of the
    current label and up the parent chain (as the parent's rank among its live
    set); within a tie the promoted reading is listed first. Only hypotheses
    expanded from the same live set are comparable."""
    return (
        1 if h.anomalous else 0,
        (h.eff_pref, h.parent_rank),
        0 if h.transition is _ZTA_CONTINUE else 1,
    )


def prune_hypotheses(
    hypotheses: Sequence[CenteringHypothesis], beam: int
) -> list[CenteringHypothesis]:
    """Keep the `beam` best hypotheses; `EngineConfig` holds the beam to 1
    or more.

    Readings stamped anomalous are vetoed: an anomalous reading never
    outranks a compatible one. Never prunes to empty: if everything is
    vetoed, the least-bad reading survives, still flagged.
    """
    if len(hypotheses) == 1:
        return [hypotheses[0]]
    ordered = sorted(hypotheses, key=rank_key)
    compatible = [h for h in ordered if not h.anomalous]
    if compatible:
        return compatible[:beam]
    return ordered[:1]
