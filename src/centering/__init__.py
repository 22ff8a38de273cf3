"""Centering-based discourse coherence engine with zero-pronoun resolution.

Local centering (Cf ranking, Cb, four-way transitions), zero topic promotion
with parallel hypotheses and wa-dampening, cue-constrained resolution of
unexpressed arguments, and retrieval of non-local antecedents from a
recency-ordered list of former centers.
"""

from .analysis import (
    GoldSummary,
    TransitionTable,
    chi_square_2x2,
    evaluate_gold,
    tabulate_disambiguation,
    tabulate_transitions,
)
from .core import classify_transition, compute_cb, rank_cf
from .corpus import (
    CorpusFormatError,
    FIXTURE_NAMES,
    load_all_fixtures,
    load_fixture,
    parse_corpus,
    read_reports,
    serialize_corpus,
    serialize_reports,
)
from .engine import (
    CUE_AGREEMENT,
    CUE_LEXICAL,
    CUE_TENSE,
    DiscourseReport,
    EngineConfig,
    UtteranceReport,
    coherence_step,
    global_retrieve,
    push_cb,
    run_corpus,
    run_discourse,
)
from .hypotheses import (
    DEFAULT_BEAM,
    expand_hypotheses,
    prune_hypotheses,
)
from .model import (
    CbHistory,
    CbHistoryEntry,
    CenteringHypothesis,
    Discourse,
    DiscourseEntity,
    EffectiveRole,
    Form,
    GrammaticalRole,
    ReferringExpression,
    ResolutionConstraints,
    Tense,
    TransitionLabel,
    Utterance,
    Violation,
    validate_discourse,
)
from .resolution import (
    Verdict,
    check_compatibility,
    form_set_candidates,
    local_resolution,
)

__version__ = "0.1.0"

__all__ = [
    "CbHistory",
    "CbHistoryEntry",
    "CenteringHypothesis",
    "CorpusFormatError",
    "CUE_AGREEMENT",
    "CUE_LEXICAL",
    "CUE_TENSE",
    "DEFAULT_BEAM",
    "Discourse",
    "DiscourseEntity",
    "DiscourseReport",
    "EffectiveRole",
    "EngineConfig",
    "FIXTURE_NAMES",
    "Form",
    "GoldSummary",
    "GrammaticalRole",
    "ReferringExpression",
    "ResolutionConstraints",
    "Tense",
    "TransitionLabel",
    "TransitionTable",
    "Utterance",
    "UtteranceReport",
    "Verdict",
    "Violation",
    "chi_square_2x2",
    "check_compatibility",
    "classify_transition",
    "coherence_step",
    "compute_cb",
    "evaluate_gold",
    "expand_hypotheses",
    "form_set_candidates",
    "global_retrieve",
    "load_all_fixtures",
    "load_fixture",
    "local_resolution",
    "parse_corpus",
    "prune_hypotheses",
    "push_cb",
    "rank_cf",
    "read_reports",
    "run_corpus",
    "run_discourse",
    "serialize_corpus",
    "serialize_reports",
    "tabulate_disambiguation",
    "tabulate_transitions",
    "validate_discourse",
]
