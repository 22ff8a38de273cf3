"""Distribution tables, chi-square, cue accounting, gold evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from centering import (
    chi_square_2x2,
    evaluate_gold,
    load_fixture,
    run_corpus,
    tabulate_disambiguation,
    tabulate_transitions,
)
from centering._record import replace
from centering.corpus import FIXTURE_NAMES
from centering.engine import DiscourseReport, UtteranceReport


def report(discourse_id, rows):
    """rows: (index, label, has_zero, seed, cues)"""
    utts = tuple(
        UtteranceReport(
            discourse_id=discourse_id,
            index=i,
            tense="nonpast",
            text=None,
            seed=seed,
            has_zero=has_zero,
            label=label,
            cb=None,
            cf=(),
            cues=tuple(cues),
        )
        for i, label, has_zero, seed, cues in rows
    )
    return DiscourseReport(discourse_id, utts, False, ())


class TestTabulateTransitions:
    def test_published_distribution_shape(self):
        # feed the published per-cell counts directly through the tabulator
        rows = []
        idx = 0
        cells = {
            ("continue", True): 76,
            ("retain", True): 3,
            ("smooth-shift", True): 34,
            ("rough-shift", True): 23,
            ("continue", False): 7,
            ("retain", False): 39,
            ("smooth-shift", False): 9,
            ("rough-shift", False): 35,
        }
        for (label, has_zero), count in cells.items():
            for _ in range(count):
                rows.append((idx, label, has_zero, False, ()))
                idx += 1
        table = tabulate_transitions([report("synthetic", rows)])
        assert table.with_zero == (76, 3, 34, 23)
        assert table.without_zero == (7, 39, 9, 35)
        # totals computed from cells, never trusted from elsewhere
        assert table.totals == (83, 42, 43, 58)
        assert table.grand_total == 226

    def test_empty(self):
        table = tabulate_transitions([])
        assert table.with_zero == (0, 0, 0, 0)
        assert table.without_zero == (0, 0, 0, 0)

    def test_seeds_excluded_and_zta_merges_into_continue(self):
        rows = [
            (0, "continue", True, True, ()),   # seed: excluded
            (1, "zta-continue", True, False, ()),
            (2, "continue", False, False, ()),
        ]
        table = tabulate_transitions([report("d", rows)])
        assert table.with_zero == (1, 0, 0, 0)
        assert table.without_zero == (1, 0, 0, 0)

    def test_fixture_suite_matches_hand_tally(self):
        # frozen from a by-hand tally of the eleven bundled discourses
        reports = run_corpus([load_fixture(name) for name in FIXTURE_NAMES])
        table = tabulate_transitions(reports)
        assert table.with_zero == (19, 5, 5, 5)
        assert table.without_zero == (0, 0, 1, 9)
        non_seed = sum(
            1 for rep in reports for u in rep.utterances if not u.seed
        )
        assert table.grand_total == non_seed == 44


class TestChiSquare:
    def test_published_value(self):
        assert chi_square_2x2(76, 7, 60, 83) == pytest.approx(53.932, abs=0.01)

    def test_independence_is_zero(self):
        assert chi_square_2x2(10, 10, 10, 10) == 0.0

    def test_longhand_oracle(self):
        # independent evaluation with exact rational arithmetic
        a, b, c, d = 20, 5, 8, 17
        n = a + b + c + d
        oracle = Fraction(n * (a * d - b * c) ** 2, (a + b) * (c + d) * (a + c) * (b + d))
        assert chi_square_2x2(a, b, c, d) == pytest.approx(float(oracle), rel=1e-12)
        assert float(oracle) == pytest.approx(11.688311688311689)

    def test_zero_margin_undefined(self):
        assert chi_square_2x2(0, 0, 5, 7) is None
        assert chi_square_2x2(5, 0, 7, 0) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi_square_2x2(-1, 2, 3, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chi_square_2x2(0, 0, 0, 0)

    @given(
        a=st.integers(1, 200),
        b=st.integers(1, 200),
        c=st.integers(1, 200),
        d=st.integers(1, 200),
    )
    def test_nonnegative_and_swap_invariant(self, a, b, c, d):
        value = chi_square_2x2(a, b, c, d)
        assert value is not None and value >= 0
        # swapping both rows and both columns simultaneously
        assert chi_square_2x2(d, c, b, a) == pytest.approx(value, rel=1e-9)


class TestTabulateDisambiguation:
    def test_no_rough_shifts(self):
        rows = [(0, "continue", True, False, ("LEXICAL",))]
        counts = tabulate_disambiguation([report("d", rows)])
        assert counts == {"LEXICAL": 0, "TENSE": 0, "AGREEMENT": 0}

    def test_multi_cue_utterance_increments_each(self):
        rows = [(0, "rough-shift", True, False, ("LEXICAL", "TENSE"))]
        counts = tabulate_disambiguation([report("d", rows)])
        assert counts == {"LEXICAL": 1, "TENSE": 1, "AGREEMENT": 0}

    def test_fixture_suite_cue_tally(self):
        # frozen per-fixture expectations: lexical at the two factory
        # discourses, tense at the heater factory, agreement at the lineup
        reports = run_corpus([load_fixture(name) for name in FIXTURE_NAMES])
        counts = tabulate_disambiguation(reports)
        assert counts == {"LEXICAL": 2, "TENSE": 1, "AGREEMENT": 1}
        retrieved_rough = sum(
            1
            for rep in reports
            for u in rep.utterances
            if u.retrievals and u.label == "rough-shift" and u.has_zero
        )
        assert sum(counts.values()) >= retrieved_rough


class TestEvaluateGold:
    def test_full_suite_hits_every_gold(self):
        corpus = [load_fixture(name) for name in FIXTURE_NAMES]
        summary = evaluate_gold(run_corpus(corpus), corpus)
        assert summary.correct == 37
        assert summary.incorrect == 0
        assert summary.unresolved == 0
        assert summary.ungolded == 2  # the deliberately ambiguous final zeros
        assert summary.accuracy == 1.0

    def test_no_gold_annotations(self):
        from conftest import discourse, entity, overt, utterance, zero
        from centering import GrammaticalRole, run_discourse

        d = discourse(
            "plain",
            [entity("a", "person"), entity("b", "thing")],
            [
                utterance(0, overt("a", GrammaticalRole.SUBJECT, 0)),
                utterance(
                    1,
                    zero(GrammaticalRole.SUBJECT, 0),
                    overt("b", GrammaticalRole.OBJECT, 1),
                ),
            ],
        )
        summary = evaluate_gold([run_discourse(d)], [d])
        assert not summary.has_gold
        assert summary.accuracy is None
        assert summary.ungolded == 1

    def test_corrupted_gold_reports_one_incorrect(self):
        import json

        from centering import parse_corpus, run_corpus as run
        from centering.corpus import fixture_text

        data = json.loads(fixture_text("classroom_exam"))
        # flip the gold annotation of the last subject zero to the wrong person
        last = data["discourses"][0]["utterances"][3]["expressions"][0]
        assert last["form"] == "zero"
        last["constraints"]["gold"] = "mitiko"
        corpus = parse_corpus(json.dumps(data))
        summary = evaluate_gold(run(corpus), corpus)
        assert summary.incorrect == 1
        assert summary.correct == 3
        detail = [d for d in summary.details if d.status == "incorrect"]
        assert detail[0].utterance_index == 3 and detail[0].position == 0

    def test_pairs_reports_with_discourses_by_position(self):
        # two discourses built in code may share an id; each report is
        # scored against the discourse at its own position
        cvd = load_fixture("cvd_device")
        bank = replace(load_fixture("bank_pos"), id=cvd.id)
        apart = [evaluate_gold(run_corpus([d]), [d]) for d in (cvd, bank)]
        together = evaluate_gold(run_corpus([cvd, bank]), [cvd, bank])
        assert together == apart[0] + apart[1]
        assert (together.correct, together.unresolved) == (5, 0)
        assert together.accuracy == 1.0

    def test_reports_out_of_step_with_the_corpus_raise(self):
        corpus = [load_fixture("cvd_device"), load_fixture("bank_pos")]
        reports = run_corpus(corpus)
        shifted = replace(reports[0], utterances=reports[0].utterances[1:])
        for bad_reports, bad_corpus in [
            (reports, corpus[::-1]),
            (reports[:1], corpus),
            ([shifted, reports[1]], corpus),
        ]:
            with pytest.raises(ValueError):
                evaluate_gold(bad_reports, bad_corpus)
