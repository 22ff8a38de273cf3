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
    run_corpus,
    run_discourse,
    stream_discourse,
)
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

__version__ = "0.1.0"

# The API the README documents. Report, state, history and enum types, cue
# names, the fixture list and the parts of a step stay importable from the
# modules that define them, but only what is listed here is promised.
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
    # the step; its state, DiscourseState, and finalize import from centering.engine
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
