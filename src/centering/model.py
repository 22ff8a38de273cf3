"""Domain types for annotated discourse input and centering state.

Everything here is an immutable value object; the algorithmic modules
(`core`, `resolution`, `hypotheses`, `engine`) are pure functions over these
types, so instances are safe to share across threads.
"""

from __future__ import annotations

from enum import Enum, IntEnum
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Union

from ._record import field, record


class GrammaticalRole(IntEnum):
    """Grammatical-role annotation on a referring expression.

    The integer value is the salience rank: lower ranks outrank higher ones
    when ordering forward-looking centers (topic > empathy > subject >
    object2 > object > others).
    """

    TOPIC = 0
    EMPATHY = 1
    SUBJECT = 2
    OBJECT2 = 3
    OBJECT = 4
    OTHERS = 5

    @property
    def rank(self) -> int:
        return int(self)

    def __init__(self, value: int) -> None:
        #: Lower-case tag of the corpus format and the reports, built once.
        self.display = self.name.lower()


#: Roles that can host a promotable zero. Adjunct/possessor zeros (OTHERS)
#: never become the zero topic.
ARGUMENT_ROLES = frozenset(
    {
        GrammaticalRole.TOPIC,
        GrammaticalRole.EMPATHY,
        GrammaticalRole.SUBJECT,
        GrammaticalRole.OBJECT2,
        GrammaticalRole.OBJECT,
    }
)


class EffectiveRole(IntEnum):
    """Effective salience slot of an entity in a Cf list.

    Mirrors :class:`GrammaticalRole` plus ZERO_TOP, the slot a promoted zero
    topic occupies, which outranks everything (including the grammatical
    topic).
    """

    ZERO_TOP = -1
    TOPIC = 0
    EMPATHY = 1
    SUBJECT = 2
    OBJECT2 = 3
    OBJECT = 4
    OTHERS = 5

    def __init__(self, value: int) -> None:
        #: Lower-case, hyphenated tag of the reports, built once.
        self.display = self.name.lower().replace("_", "-")


class Form(Enum):
    OVERT_NP = "overt"
    ZERO = "zero"


_ZERO = Form.ZERO
_TOPIC = GrammaticalRole.TOPIC

#: How `__post_init__` sets a field, bound once rather than looked up on
#: `object` at each call.
_set = object.__setattr__


class Tense(Enum):
    PAST = "past"
    NONPAST = "nonpast"

    def __init__(self, value: str) -> None:
        #: Tag of the reports: the value, read as a plain attribute.
        self.display = value


_PREFERENCE = {
    "continue": 1,
    "zta-continue": 1,
    "retain": 2,
    "smooth-shift": 3,
    "rough-shift": 4,
}


class TransitionLabel(Enum):
    """Four-way coherence classification, plus the zero-topic continue."""

    CONTINUE = "continue"
    ZTA_CONTINUE = "zta-continue"
    RETAIN = "retain"
    SMOOTH_SHIFT = "smooth-shift"
    ROUGH_SHIFT = "rough-shift"

    def __init__(self, value: str) -> None:
        #: Coherence preference; lower is preferred. The zero-topic continue
        #: ties with the plain continue.
        self.preference_rank = _PREFERENCE[value]
        #: Tag of the reports: the value, read as a plain attribute.
        self.display = value

    #: Members are singletons, so hashing by identity agrees with `==`
    #: (identity too) and skips the Python-level `Enum.__hash__`.
    __hash__ = object.__hash__


_ZTA_CONTINUE = TransitionLabel.ZTA_CONTINUE


@record
class DiscourseEntity:
    """A semantic discourse entity realizable by referring expressions.

    cardinality is 1 for individuals and >1 for pluralities annotated as a
    fixed-size collection ("two authorities").
    """

    id: str
    semantic_types: frozenset[str]
    cardinality: int = 1

    def __post_init__(self) -> None:
        _set(self, "semantic_types", frozenset(self.semantic_types))


#: Gold annotation for a zero: a single entity id or a set of ids.
GoldAntecedent = Union[str, frozenset[str]]


@record
class ResolutionConstraints:
    """Cue annotations on a zero slot.

    compatible_types is the selectional restriction of the verb slot (empty =
    unconstrained); required_cardinality encodes number-sensitive expressions
    ("both"); gold_antecedent is evaluation-only and never consulted by the
    resolver.
    """

    compatible_types: frozenset[str] = frozenset()
    required_cardinality: Optional[int] = None
    gold_antecedent: Optional[GoldAntecedent] = None

    def __post_init__(self) -> None:
        _set(self, "compatible_types", frozenset(self.compatible_types))
        _set(self, "gold_antecedent", decode_resolution(self.gold_antecedent))


@record
class ReferringExpression:
    """One overt NP or zero slot in an utterance.

    entity_ref is the gold-annotated entity for overt NPs; for zeros it is
    None (UNRESOLVED) until the engine resolves it. wa/ga marking mirrors the
    particle annotation; the grammatical topic is the wa-marked expression.
    """

    entity_ref: Optional[str]
    form: Form
    role: GrammaticalRole
    surface_position: int
    wa_marked: bool = False
    ga_marked: bool = False
    constraints: Optional[ResolutionConstraints] = None

    @property
    def is_zero(self) -> bool:
        return self.form is Form.ZERO

    @property
    def required_cardinality(self) -> Optional[int]:
        if self.constraints is None:
            return None
        return self.constraints.required_cardinality


@record
class Utterance:
    """One pre-segmented simplex clause.

    `zeros`, its zero slots in surface order, is derived from `expressions`
    and left out of equality, hashing and repr.
    """

    index: int
    expressions: tuple[ReferringExpression, ...]
    tense: Tense = Tense.NONPAST
    text: Optional[str] = None
    zeros: tuple[ReferringExpression, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        expressions = tuple(self.expressions)
        _set(self, "expressions", expressions)
        _set(self, "zeros", tuple([e for e in expressions if e.form is _ZERO]))

    @property
    def overt_entities(self) -> frozenset[str]:
        return frozenset(
            [
                e.entity_ref
                for e in self.expressions
                if e.form is not _ZERO and e.entity_ref is not None
            ]
        )


@record
class Discourse:
    """An annotated discourse: entity declarations plus ordered utterances.

    `entity_map`, the entities by id, is derived from `entities` and left
    out of equality, hashing and repr; it is read-only, since every caller
    shares it.
    """

    id: str
    entities: tuple[DiscourseEntity, ...]
    utterances: tuple[Utterance, ...]
    entity_map: Mapping[str, DiscourseEntity] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _set(self, "entities", tuple(self.entities))
        _set(self, "utterances", tuple(self.utterances))
        _set(self, "entity_map", MappingProxyType({e.id: e for e in self.entities}))


#: A Cf list: entities in salience order with their effective roles.
CfList = tuple[tuple[str, EffectiveRole], ...]

#: What a zero resolved to: an entity id, a set of ids, or None (unresolved).
Resolution = Union[str, frozenset[str], None]


def encode_resolution(value: Resolution) -> Union[str, list[str], None]:
    """JSON form of a resolution: a set of ids becomes a sorted list."""
    return value if value is None or isinstance(value, str) else sorted(value)


def decode_resolution(value: Union[str, Iterable[str], None]) -> Resolution:
    """Inverse of encode_resolution: any collection of ids becomes a frozenset."""
    return value if value is None or isinstance(value, str) else frozenset(value)


def format_resolution(value: Resolution) -> str:
    """Text form of a resolution: a set of ids reads `{a+b}`, sorted, so the
    text does not depend on string hashing."""
    if value is None:
        return "UNRESOLVED"
    if isinstance(value, str):
        return value
    return "{" + "+".join(sorted(value)) + "}"


@record
class CenteringHypothesis:
    """One (Cb, Cf, transition) reading of an utterance.

    Hypotheses form chains through `parent`; utterances may carry several in
    parallel. `resolutions` maps each zero's surface position to its
    antecedent. `eff_pref` is the preference used for ranking: normally the
    transition's preference rank, but a dampened zero-topic child takes its
    plain sibling's rank so the two tie. `ambiguity_keys` tag dampened branch
    points; preference never separates hypotheses sharing a key.

    Ranking never walks the chain. `parent_rank` is the dense rank of the
    parent's chain preference among the live set the parent belonged to, so
    `(eff_pref, parent_rank)` orders the children of one live set exactly as
    their full preference chains (current utterance first) would.
    `zta_count` is the number of promotions on the chain, inherited from the
    parent and recomputed whenever the hypothesis is rebuilt; `cf_ids`, the
    ids of `cf` in order, is built with it and left out of repr, equality
    and hashing, as `cf` already takes part. `parent` is left out of them
    too, which would otherwise recurse down the whole chain. No engine step
    changes a reading; only `engine.stream_discourse`, in readings it made
    and never hands out, cuts `parent` behind an utterance it has reported
    and folds the ambiguity keys that every live reading shares.
    """

    utterance_index: int
    cb: Optional[str]
    cf: CfList
    transition: TransitionLabel
    eff_pref: int
    dampened: bool = False
    anomalous: bool = False
    resolutions: tuple[tuple[int, Resolution], ...] = ()
    cues: tuple[str, ...] = ()
    parent: Optional["CenteringHypothesis"] = field(default=None, compare=False)
    ambiguity_keys: frozenset[str] = frozenset()
    parent_rank: int = 0
    zta_count: int = field(init=False)
    cf_ids: tuple[str, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        inherited = self.parent.zta_count if self.parent is not None else 0
        _set(self, "zta_count", inherited + (self.transition is _ZTA_CONTINUE))
        _set(self, "cf_ids", tuple([eid for eid, _ in self.cf]))

    @property
    def zta_applied(self) -> bool:
        """Whether this reading promoted a zero to topic."""
        return self.transition is _ZTA_CONTINUE

    @property
    def resolution_map(self) -> Mapping[int, Resolution]:
        return dict(self.resolutions)

    def ancestry(self) -> Iterator["CenteringHypothesis"]:
        """Yield self, parent, grandparent, ... up to the seed."""
        node: Optional[CenteringHypothesis] = self
        while node is not None:
            yield node
            node = node.parent


@record
class CbHistoryEntry:
    """One former backward-looking center.

    `index` is the most recent utterance at which the entity was Cb (recency
    order collapses duplicates to that occurrence); `past_tense` is sticky:
    true if the entity was Cb in any PAST-tense utterance.
    """

    entity_id: str
    index: int
    past_tense: bool = False


#: Recency-ordered list of former Cbs, most recent first.
CbHistory = tuple[CbHistoryEntry, ...]


@record
class Violation:
    """One located problem: a format diagnostic or a violated invariant."""

    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.location}: {self.message} [{self.code}]"


def _at(j: int, k: int, key: str = "") -> str:
    return f"utterances[{j}].expressions[{k}]{key}"


def validate_discourse(discourse: Discourse) -> list[Violation]:
    """Check every structural invariant of an annotated discourse.

    Violations are data, not faults: the list is empty iff the discourse is
    well-formed. Locations are document paths relative to the discourse,
    such as `utterances[1].expressions[0].entity`, built only when reported.
    """
    out: list[Violation] = []

    known: set[str] = set()
    for j, ent in enumerate(discourse.entities):
        if ent.id in known:
            message = "entity id declared twice"
            out.append(Violation("duplicate-entity-id", f"entities[{j}].id", message))
        known.add(ent.id)
        if not ent.semantic_types:
            message = "semantic_types must be non-empty"
            out.append(Violation("empty-semantic-types", f"entities[{j}].types", message))
        if ent.cardinality < 1:
            message = f"cardinality {ent.cardinality} < 1"
            out.append(Violation("bad-cardinality", f"entities[{j}].cardinality", message))

    last_index: Optional[int] = None
    for j, utt in enumerate(discourse.utterances):
        # Indices strictly increase; gaps are allowed.
        if last_index is not None and utt.index <= last_index:
            code = "duplicate-utterance-index" if utt.index == last_index else "index-out-of-order"
            message = f"utterance index {utt.index} after {last_index}"
            out.append(Violation(code, f"utterances[{j}].index", message))
        last_index = utt.index

        # one pass over the expressions; a double topic, found only at its
        # end, is listed ahead of the expressions' violations
        topics_at = len(out)
        topics = 0
        last_pos: Optional[int] = None
        for k, expr in enumerate(utt.expressions):
            pos = expr.surface_position
            if last_pos is not None and pos <= last_pos:
                message = "surface positions must be strictly increasing"
                out.append(Violation("position-order", _at(j, k, ".pos"), message))
            last_pos = pos
            wa = expr.wa_marked
            if wa and expr.ga_marked:
                out.append(Violation("wa-ga-conflict", _at(j, k), "wa and ga marking both set"))
            if expr.role is _TOPIC:
                topics += 1
                if not wa:
                    message = "TOPIC role requires wa marking"
                    out.append(Violation("topic-not-wa", _at(j, k, ".wa"), message))
            entity = expr.entity_ref
            cons = expr.constraints
            if expr.form is not _ZERO:
                if entity is None:
                    message = "overt NP without entity reference"
                    out.append(Violation("unresolved-overt", _at(j, k, ".entity"), message))
                if cons is not None:
                    message = "resolution constraints on an overt NP"
                    out.append(Violation("overt-constraints", _at(j, k, ".constraints"), message))
            if entity is not None and entity not in known:
                message = f"unknown entity id '{entity}'"
                out.append(Violation("unknown-entity", _at(j, k, ".entity"), message))
            if cons is not None:
                card = cons.required_cardinality
                if card is not None and card < 1:
                    message = f"required_cardinality {card} < 1"
                    where = _at(j, k, ".constraints.cardinality")
                    out.append(Violation("bad-required-cardinality", where, message))
                gold = cons.gold_antecedent
                if isinstance(gold, str):
                    undeclared = () if gold in known else (gold,)
                else:
                    undeclared = sorted(gold - known) if gold else ()
                for gid in undeclared:
                    message = f"gold antecedent '{gid}' not declared"
                    out.append(Violation("unknown-gold", _at(j, k, ".constraints.gold"), message))
        if topics > 1:
            message = f"{topics} TOPIC expressions"
            out.insert(topics_at, Violation("double-topic", f"utterances[{j}]", message))
    return out
