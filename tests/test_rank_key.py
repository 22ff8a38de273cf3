"""The constant-size rank key against the full preference chain it replaces.

The oracle is the lexicographic key over the whole parent chain: compatible
before anomalous, then the effective preference of the hypothesis and of
every ancestor (current utterance first), then the promoted reading first.
On long synthetic discourses, every set the engine prunes and every live set
it keeps must be ordered the same way by `rank_key` and by the oracle, and
the inherited `zta_count` must equal a count over the ancestry.
"""

import itertools
import random

import pytest

import centering.engine as engine
from centering.engine import DiscourseState, EngineConfig, coherence_step
from centering.hypotheses import rank_key
from synth import random_discourse


def chain_key(h):
    return (
        1 if h.anomalous else 0,
        tuple(a.eff_pref for a in h.ancestry()),
        0 if h.zta_applied else 1,
    )


def _sign(a, b):
    return (a > b) - (a < b)


def assert_same_order(hyps):
    """Pairwise: rank_key and the oracle agree on <, = and >. Returns how
    many pairs tie on the current preference and differ further up."""
    keys = [(rank_key(h), chain_key(h)) for h in hyps]
    deep = 0
    for (fast_a, slow_a), (fast_b, slow_b) in itertools.combinations(keys, 2):
        assert _sign(fast_a, fast_b) == _sign(slow_a, slow_b)
        same_now = slow_a[0] == slow_b[0] and slow_a[1][0] == slow_b[1][0]
        if same_now and slow_a[1] != slow_b[1]:
            deep += 1
    return deep


@pytest.mark.parametrize("beam", [1, 2, 4])
def test_rank_key_orders_like_the_full_chain(beam, monkeypatch):
    pruned = []
    real_prune = engine.prune_hypotheses

    def recording_prune(hypotheses, *args, **kwargs):
        pruned.append(list(hypotheses))
        return real_prune(hypotheses, *args, **kwargs)

    monkeypatch.setattr(engine, "prune_hypotheses", recording_prune)
    rng = random.Random(2000 + beam)
    deep = 0
    for k in range(6):
        n_utts = rng.randint(200, 500)
        d = random_discourse(rng, f"rank-{k}", n_utts=n_utts, n_entities=8, zero_rate=0.5)
        state = DiscourseState(discourse=d, config=EngineConfig(beam=beam))
        for u in d.utterances:
            pruned.clear()
            state = coherence_step(state, u)
            for candidates in pruned:
                deep += assert_same_order(candidates)
            deep += assert_same_order(state.hypotheses)
            for h in state.hypotheses:
                assert h.zta_count == sum(a.zta_applied for a in h.ancestry())
    if beam > 1:
        # the parent rank actually decided some comparisons
        assert deep > 0
