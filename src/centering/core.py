"""Single-utterance centering computations: Cf ranking, Cb, transitions."""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, Optional

from .model import (
    _ZERO,
    CfList,
    EffectiveRole,
    Resolution,
    TransitionLabel,
    Utterance,
)


#: EffectiveRole by value, read without the enum's call machinery.
_ROLE_OF_RANK = {role.value: role for role in EffectiveRole}


def rank_cf(
    u: Utterance, resolutions: Optional[Mapping[int, Resolution]] = None
) -> CfList:
    """Order the entities realized in `u` by effective salience.

    `resolutions` maps zero surface positions to their antecedents; zeros
    still unresolved realize nothing and are skipped. An entity mentioned
    more than once takes its highest-ranked role; ties within a role break by
    surface position. The ids of the result are exactly the entities `u`
    realizes.
    """
    resolutions = resolutions or {}

    # best (role, position) seen per realized entity
    best: dict[str, tuple[int, int]] = {}
    for expr in u.expressions:
        if expr.form is _ZERO:
            value = resolutions.get(expr.surface_position)
            if value is None:
                continue
            members = (value,) if isinstance(value, str) else sorted(value)
        elif expr.entity_ref is not None:
            members = (expr.entity_ref,)
        else:
            continue
        seen = (int(expr.role), expr.surface_position)
        for member in members:
            cur = best.get(member)
            if cur is None or seen < cur:
                best[member] = seen

    if len(best) == 1:
        ((entity_id, (rank, _pos)),) = best.items()
        return ((entity_id, _ROLE_OF_RANK[rank]),)
    ordered = sorted(best.items(), key=itemgetter(1))
    return tuple([(entity_id, _ROLE_OF_RANK[rank]) for entity_id, (rank, _pos) in ordered])


def compute_cb(cf_prev: Iterable[str], realized: Iterable[str]) -> Optional[str]:
    """Backward-looking center: the highest-ranked element of the previous
    Cf realized in the current utterance, or None when none is."""
    realized_set = set(realized)
    for entity_id in cf_prev:
        if entity_id in realized_set:
            return entity_id
    return None


def classify_transition(
    cb_prev: Optional[str], cb_cur: Optional[str], cp_cur: Optional[str]
) -> TransitionLabel:
    """Four-way transition classification by Cb identity and Cb=Cp.

    Total over all inputs: an absent current Cb is always ROUGH_SHIFT, so an
    empty Cf (`cp_cur` None), which realizes no Cb, is one. The zero-topic
    continue is never returned here: `expand_hypotheses` relabels the
    promoted reading, whose Cf this classifies as a CONTINUE.
    """
    if cb_cur is None:
        return TransitionLabel.ROUGH_SHIFT
    same_cb = cb_cur == cb_prev
    cb_is_cp = cb_cur == cp_cur
    if same_cb and cb_is_cp:
        return TransitionLabel.CONTINUE
    if same_cb:
        return TransitionLabel.RETAIN
    if cb_is_cp:
        return TransitionLabel.SMOOTH_SHIFT
    return TransitionLabel.ROUGH_SHIFT
