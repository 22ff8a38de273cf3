"""Centering-based discourse coherence engine with zero-pronoun resolution.

Local centering (Cf ranking, Cb, four-way transitions), zero topic promotion
with parallel hypotheses and wa-dampening, cue-constrained resolution of
unexpressed arguments, and retrieval of non-local antecedents from a
recency-ordered list of former centers.
"""

from .analysis import (
    chi_square_2x2,
    evaluate_gold,
    tabulate_disambiguation,
    tabulate_transitions,
)
from .core import classify_transition, compute_cb, rank_cf
from .corpus import (
    CorpusFormatError,
    load_fixture,
    parse_corpus,
    read_reports,
    serialize_reports,
)
from .engine import (
    EngineConfig,
    coherence_step,
    global_retrieve,
    push_cb,
    run_corpus,
    run_discourse,
    stream_discourse,
)
from .hypotheses import expand_hypotheses, prune_hypotheses
from .model import (
    Discourse,
    DiscourseEntity,
    Form,
    GrammaticalRole,
    ReferringExpression,
    ResolutionConstraints,
    Tense,
    Utterance,
    Violation,
    validate_discourse,
)
from .resolution import check_compatibility, form_set_candidates, local_resolution

__version__ = "0.1.0"

# The API the README documents. Report, history and enum types, cue names
# and the fixture list stay importable from the modules that define them.
__all__ = [
    # the pipeline
    "parse_corpus",
    "validate_discourse",
    "CorpusFormatError",
    "Violation",
    "load_fixture",
    "run_discourse",
    "stream_discourse",
    "run_corpus",
    "EngineConfig",
    "serialize_reports",
    "read_reports",
    "tabulate_transitions",
    "tabulate_disambiguation",
    "chi_square_2x2",
    "evaluate_gold",
    # lower-level pieces
    "rank_cf",
    "compute_cb",
    "classify_transition",
    "expand_hypotheses",
    "prune_hypotheses",
    "check_compatibility",
    "local_resolution",
    "form_set_candidates",
    "push_cb",
    "global_retrieve",
    "coherence_step",
    # the value types of a discourse built in code
    "Discourse",
    "DiscourseEntity",
    "Form",
    "GrammaticalRole",
    "ReferringExpression",
    "ResolutionConstraints",
    "Tense",
    "Utterance",
]
