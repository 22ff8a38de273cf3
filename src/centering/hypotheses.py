"""Zero topic assignment and parallel centering hypothesis management."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from .core import classify_transition, rank_cf, compute_cb
from .model import (
    ARGUMENT_ROLES,
    CenteringHypothesis,
    Resolution,
    TransitionLabel,
    Utterance,
)

DEFAULT_BEAM = 4


@dataclass(frozen=True)
class ResolutionOutcome:
    """Per-parent local resolution result for all zeros of one utterance.

    `assignments` maps zero surface positions to antecedents (None when
    unresolved); `exhausted_positions` are zeros whose every local candidate
    was vetoed, which stamps the reading anomalous unless global retrieval
    rescues it later.
    """

    assignments: tuple[tuple[int, Resolution], ...] = ()
    exhausted_positions: frozenset[int] = frozenset()

    @property
    def mapping(self) -> Mapping[int, Resolution]:
        return dict(self.assignments)


def realized_entities(u: Utterance, resolutions: Mapping[int, Resolution]) -> frozenset[str]:
    """Entities realized in `u`: overt mentions plus resolved zeros."""
    realized: set[str] = set(u.overt_entities())
    for expr in u.expressions:
        if not expr.is_zero:
            continue
        value = resolutions.get(expr.surface_position)
        if value is None:
            continue
        if isinstance(value, str):
            realized.add(value)
        else:
            realized.update(value)
    return frozenset(realized)


def zta_candidate(
    prev: CenteringHypothesis,
    u: Utterance,
    local_resolutions: Mapping[int, Resolution],
) -> Optional[str]:
    """Entity to promote as the zero topic of `u`, when the promotion rule
    fires: an argument-role zero realizes the previous Cb, no plain CONTINUE
    is available, and the promoted ranking actually yields a continue.
    Returns None otherwise."""
    if prev.cb is None:
        return None
    hosts = [
        expr
        for expr in u.expressions
        if expr.is_zero
        and expr.role in ARGUMENT_ROLES
        and local_resolutions.get(expr.surface_position) == prev.cb
    ]
    if not hosts:
        return None

    realized = realized_entities(u, local_resolutions)
    plain_cf = rank_cf(u, None, local_resolutions)
    if not plain_cf:
        return None
    cb = compute_cb([eid for eid, _ in prev.cf], realized)
    plain_label = classify_transition(prev.cb, cb, plain_cf[0][0], False)
    if plain_label is TransitionLabel.CONTINUE:
        return None

    promoted = rank_cf(u, prev.cb, local_resolutions)
    promoted_label = classify_transition(prev.cb, cb, promoted[0][0], True)
    if promoted_label is not TransitionLabel.ZTA_CONTINUE:
        return None
    return prev.cb


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
    the promoted reading as well. Children of a dampened branch point (the
    promotion competed with a wa-marked topic) tie in preference and share an
    ambiguity key. Duplicated readings from different parents collapse to the
    lowest-ZTA ancestry. Result is sorted best-first.
    """
    # (eff_pref, parent_rank) orders prev_set by full chain preference
    parent_keys = sorted({(p.eff_pref, p.parent_rank) for p in prev_set})
    dense_rank = {key: rank for rank, key in enumerate(parent_keys)}
    children: list[CenteringHypothesis] = []

    for parent, outcome in zip(prev_set, outcomes, strict=True):
        parent_rank = dense_rank[(parent.eff_pref, parent.parent_rank)]
        res_map = outcome.mapping
        res_items = tuple(sorted(res_map.items()))
        realized = realized_entities(u, res_map)
        cb = compute_cb([eid for eid, _ in parent.cf], realized)
        anomalous = bool(outcome.exhausted_positions)

        plain_cf = rank_cf(u, None, res_map)
        if plain_cf:
            plain_label = classify_transition(parent.cb, cb, plain_cf[0][0], False)
        else:
            plain_label = TransitionLabel.ROUGH_SHIFT
        plain_pref = plain_label.preference_rank

        topic = zta_candidate(parent, u, res_map) if zta_enabled else None
        dampened = topic is not None and _has_wa_competitor(u)
        keys = parent.ambiguity_keys
        if dampened:
            keys = keys | {f"u{u.index}"}

        children.append(
            CenteringHypothesis(
                utterance_index=u.index,
                cb=cb,
                cf=plain_cf,
                transition=plain_label,
                zta_applied=False,
                dampened=dampened,
                anomalous=anomalous,
                resolutions=res_items,
                parent=parent,
                ambiguity_keys=keys,
                eff_pref=plain_pref,
                parent_rank=parent_rank,
            )
        )
        if topic is not None:
            zta_cf = rank_cf(u, topic, res_map)
            zta_label = classify_transition(parent.cb, cb, zta_cf[0][0], True)
            children.append(
                CenteringHypothesis(
                    utterance_index=u.index,
                    cb=cb,
                    cf=zta_cf,
                    transition=zta_label,
                    zta_applied=True,
                    dampened=dampened,
                    anomalous=anomalous,
                    resolutions=res_items,
                    parent=parent,
                    ambiguity_keys=keys,
                    # a dampened promotion ties with its plain sibling
                    eff_pref=plain_pref if dampened else zta_label.preference_rank,
                    parent_rank=parent_rank,
                )
            )

    children = _dedupe(children)
    children.sort(key=rank_key)
    return children


def _dedupe(children: list[CenteringHypothesis]) -> list[CenteringHypothesis]:
    """Collapse identical readings spawned by different parents, keeping the
    ancestry with fewest promotions (and best chain preference)."""
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
            better = replace(better, ambiguity_keys=merged_keys)
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
        0 if h.zta_applied else 1,
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
