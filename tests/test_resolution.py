"""Compatibility checks, local resolution, and set-candidate formation."""

from hypothesis import given
from hypothesis import strategies as st

from centering import (
    GrammaticalRole,
    check_compatibility,
    form_set_candidates,
    local_resolution,
)
from centering.model import CbHistoryEntry
from centering.resolution import CUE_AGREEMENT, CUE_LEXICAL

from conftest import entity, overt, utterance, zero


class TestCheckCompatibility:
    def test_type_overlap_is_compatible(self):
        z = zero(GrammaticalRole.SUBJECT, 0, types=("organization", "person"))
        assert check_compatibility(z, [entity("t-electron", "organization")]) is None

    def test_type_disjoint_is_anomalous(self):
        z = zero(GrammaticalRole.SUBJECT, 0, types=("organization", "person"))
        assert check_compatibility(z, [entity("rie", "device")]) == CUE_LEXICAL

    def test_cardinality_mismatch_is_anomalous(self):
        z = zero(GrammaticalRole.SUBJECT, 0, types=("device",), cardinality=2)
        assert check_compatibility(z, [entity("s-metal", "organization")]) == CUE_AGREEMENT
        assert check_compatibility(z, [entity("one-device", "device")]) == CUE_AGREEMENT

    def test_no_member_is_agreement(self):
        assert check_compatibility(zero(GrammaticalRole.SUBJECT, 0), []) == CUE_AGREEMENT

    def test_unconstrained_slot_accepts_anything(self):
        z = zero(GrammaticalRole.SUBJECT, 0)
        assert check_compatibility(z, [entity("anything", "whatever")]) is None

    def test_entity_set_total_cardinality(self):
        z = zero(GrammaticalRole.SUBJECT, 0, types=("device",), cardinality=2)
        pair = [entity("a", "device"), entity("b", "device")]
        assert check_compatibility(z, pair) is None
        odd = [entity("a", "device"), entity("b", "device"), entity("c", "device")]
        assert check_compatibility(z, odd) == CUE_AGREEMENT

    def test_set_member_type_must_match(self):
        z = zero(GrammaticalRole.SUBJECT, 0, types=("device",), cardinality=2)
        mixed = [entity("a", "device"), entity("b", "organization")]
        assert check_compatibility(z, mixed) == CUE_LEXICAL

    @given(
        base=st.sets(st.sampled_from("pqrs"), min_size=1),
        extra=st.sampled_from("tuvw"),
        types=st.sets(st.sampled_from("pqrstuvw"), min_size=1),
    )
    def test_monotone_in_constraints(self, base, extra, types):
        # widening a non-empty restriction never rules out a fitting candidate
        cand = [entity("x", *types)]
        before = check_compatibility(zero(GrammaticalRole.SUBJECT, 0, types=base), cand)
        after = check_compatibility(
            zero(GrammaticalRole.SUBJECT, 0, types=base | {extra}), cand
        )
        if before is None:
            assert after is None


class TestResolveZeroLocal:
    ENTITIES = {
        "hanako": entity("hanako", "person"),
        "exam": entity("exam", "abstract"),
        "cvd-device": entity("cvd-device", "device"),
        "system": entity("system", "system"),
        "mitiko": entity("mitiko", "person"),
    }

    def test_highest_compatible_wins(self):
        u = utterance(1, zero(GrammaticalRole.SUBJECT, 0, types=("person",)))
        got = local_resolution(
            u.expressions[0], ["hanako", "exam"], u, self.ENTITIES
        ).entity_id
        assert got == "hanako"

    def test_non_agentive_slot_takes_device(self):
        u = utterance(3, zero(GrammaticalRole.SUBJECT, 0, types=("device",)))
        got = local_resolution(
            u.expressions[0], ["cvd-device", "system"], u, self.ENTITIES
        ).entity_id
        assert got == "cvd-device"

    def test_empty_prev_cf_unresolved(self):
        u = utterance(0, zero(GrammaticalRole.SUBJECT, 0))
        assert local_resolution(u.expressions[0], [], u, self.ENTITIES).entity_id is None

    def test_result_always_in_prev_cf_and_compatible(self):
        u = utterance(1, zero(GrammaticalRole.SUBJECT, 0, types=("person",)))
        cf_prev = ["exam", "mitiko", "hanako"]
        got = local_resolution(u.expressions[0], cf_prev, u, self.ENTITIES).entity_id
        assert got in cf_prev
        assert (
            check_compatibility(u.expressions[0], [self.ENTITIES[got]]) is None
        )

    def test_overt_entities_are_not_candidates(self):
        u = utterance(
            2,
            overt("hanako", GrammaticalRole.SUBJECT, 0),
            zero(GrammaticalRole.OBJECT2, 1, types=("person",)),
        )
        got = local_resolution(
            u.expressions[1], ["hanako", "mitiko"], u, self.ENTITIES
        ).entity_id
        assert got == "mitiko"

    def test_exhausted_flag_set_when_all_vetoed(self):
        u = utterance(1, zero(GrammaticalRole.SUBJECT, 0, types=("organization",)))
        res = local_resolution(u.expressions[0], ["hanako", "exam"], u, self.ENTITIES)
        assert res.entity_id is None and res.exhausted

    def test_no_candidates_is_not_exhausted(self):
        u = utterance(1, zero(GrammaticalRole.SUBJECT, 0, types=("organization",)))
        res = local_resolution(u.expressions[0], [], u, self.ENTITIES)
        assert res.entity_id is None and not res.exhausted


def history(*pairs):
    return tuple(CbHistoryEntry(eid, idx) for eid, idx in pairs)


class TestFormSetCandidates:
    ENTITIES = {
        "etching": entity("etching", "device"),
        "cvd": entity("cvd", "device"),
        "s-metal": entity("s-metal", "organization"),
        "demand": entity("demand", "abstract"),
        "rie": entity("rie", "device"),
    }

    def test_device_pair_found_first(self):
        h = history(("cvd", 4), ("etching", 3), ("s-metal", 1))
        got = form_set_candidates(h, ["cvd", "demand"], 2, self.ENTITIES, 5)
        assert got[0] == ("cvd", "etching")

    def test_no_shared_type_no_sets(self):
        h = history(("s-metal", 2), ("demand", 1))
        assert form_set_candidates(h, [], 2, self.ENTITIES, 3) == []

    def test_three_same_typed_entities_give_three_pairs(self):
        # frozen from a brute-force enumeration oracle over this pool:
        # pairs of {rie@5, cvd@4, etching@3}, ordered by recency of the
        # least-recent member (ties lexicographic)
        h = history(("rie", 5), ("cvd", 4), ("etching", 3))
        got = form_set_candidates(h, [], 2, self.ENTITIES, 6)
        assert got == [("rie", "cvd"), ("cvd", "etching"), ("rie", "etching")]

    def test_oracle_agreement_on_random_pools(self):
        # independent oracle: nested loops over all index pairs
        import itertools

        h = history(("rie", 9), ("cvd", 7), ("etching", 4), ("s-metal", 2))
        got = form_set_candidates(h, [], 2, self.ENTITIES, 10)
        oracle = set()
        recency = {e.entity_id: e.index for e in h}
        for a, b in itertools.combinations(h, 2):
            ea, eb = self.ENTITIES[a.entity_id], self.ENTITIES[b.entity_id]
            if not (ea.semantic_types & eb.semantic_types):
                continue
            if ea.cardinality + eb.cardinality != 2:
                continue
            oracle.add(frozenset({a.entity_id, b.entity_id}))
        assert {frozenset(s) for s in got} == oracle
        # recency-major order: least-recent member never increases
        mins = [min(recency[m] for m in s) for s in got]
        assert mins == sorted(mins, reverse=True)

    def test_cardinality_sums(self):
        pool = {
            "pair": entity("pair", "person", cardinality=2),
            "solo": entity("solo", "person"),
            "trio": entity("trio", "person", cardinality=3),
        }
        h = history(("pair", 3), ("solo", 2), ("trio", 1))
        got = form_set_candidates(h, [], 3, pool, 4)
        assert got == [("pair", "solo")]
