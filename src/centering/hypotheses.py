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


def expand_hypotheses(
    prev_set: Sequence[CenteringHypothesis],
    u: Utterance,
    outcomes: Sequence[ResolutionOutcome],
    zta_enabled: bool = True,
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
    ancestry. Result is sorted best-first.

    Parents that resolved the zeros alike share one plain Cf, so it is
    ranked once per distinct assignment.
    """
    # (eff_pref, parent_rank) orders prev_set by full chain preference
    parent_keys = sorted({(p.eff_pref, p.parent_rank) for p in prev_set})
    dense_rank = {key: rank for rank, key in enumerate(parent_keys)}
    hosts = [z.surface_position for z in u.zeros if z.role in ARGUMENT_ROLES]
    wa_competitor = _has_wa_competitor(u)
    branch_point = frozenset({f"u{u.index}"})
    ranked: dict[tuple, tuple[dict[int, Resolution], CfList, set[str]]] = {}
    children: list[CenteringHypothesis] = []

    for parent, outcome in zip(prev_set, outcomes, strict=True):
        shared = ranked.get(outcome.assignments)
        if shared is None:
            resolutions = dict(outcome.assignments)
            plain_cf = rank_cf(u, resolutions)
            shared = (resolutions, plain_cf, {eid for eid, _ in plain_cf})
            ranked[outcome.assignments] = shared
        resolutions, plain_cf, realized = shared
        cb = compute_cb(parent.cf_ids, realized)
        plain_label = classify_transition(parent.cb, cb, plain_cf[0][0] if plain_cf else None)
        plain_pref = plain_label.preference_rank

        promote = (
            zta_enabled
            and plain_label is TransitionLabel.RETAIN
            and any(resolutions.get(pos) == cb for pos in hosts)
        )
        dampened = promote and wa_competitor
        keys = parent.ambiguity_keys
        if dampened:
            keys = keys | branch_point

        rank = dense_rank[(parent.eff_pref, parent.parent_rank)]
        # positional, in declaration order
        children.append(
            CenteringHypothesis(
                u.index, cb, plain_cf, plain_label, plain_pref, dampened,
                outcome.anomalous, outcome.assignments, (), parent, keys, rank,
            )
        )
        if promote:
            zta_cf = ((cb, EffectiveRole.ZERO_TOP), *(e for e in plain_cf if e[0] != cb))
            # a dampened promotion ties with its plain sibling
            zta_pref = plain_pref if dampened else _ZTA_CONTINUE.preference_rank
            children.append(
                CenteringHypothesis(
                    u.index, cb, zta_cf, _ZTA_CONTINUE, zta_pref, dampened,
                    outcome.anomalous, outcome.assignments, (), parent, keys, rank,
                )
            )

    children = _dedupe(children)
    children.sort(key=rank_key)
    return children


def _dedupe(children: list[CenteringHypothesis]) -> list[CenteringHypothesis]:
    """Collapse identical readings spawned by different parents, keeping the
    ancestry with fewest promotions (and best chain preference)."""
    if len(children) < 2:
        return children
    by_key: dict[tuple, CenteringHypothesis] = {}
    for child in children:
        key = child.identity_key()
        cur = by_key.get(key)
        if cur is None:
            by_key[key] = child
            continue
        better = min(
            (cur, child),
            key=lambda h: (h.zta_count, h.eff_pref, h.parent_rank),
        )
        merged_keys = cur.ambiguity_keys | child.ambiguity_keys
        if merged_keys != better.ambiguity_keys:
            h = better
            # positional, in declaration order
            better = CenteringHypothesis(
                h.utterance_index, h.cb, h.cf, h.transition, h.eff_pref, h.dampened,
                h.anomalous, h.resolutions, h.cues, h.parent, merged_keys, h.parent_rank,
            )
        by_key[key] = better
    return list(by_key.values())


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
    hypotheses: Sequence[CenteringHypothesis], beam: int = DEFAULT_BEAM
) -> list[CenteringHypothesis]:
    """Keep the beam-best hypotheses.

    Readings stamped anomalous are vetoed: an anomalous reading never
    outranks a compatible one. Never prunes to empty: if everything is
    vetoed, the least-bad reading survives, still flagged.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if not hypotheses:
        return []
    ordered = sorted(hypotheses, key=rank_key)
    compatible = [h for h in ordered if not h.anomalous]
    if compatible:
        return compatible[:beam]
    return ordered[:1]
