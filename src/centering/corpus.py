"""Corpus and report serialization.

The corpus format is a JSON document: a top-level object with a "discourses"
list (a bare list of discourse objects is also accepted). Each discourse
declares its entities, then its utterances with their referring expressions.
See the README for the schema and `centering/fixtures/` for worked examples.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from importlib import resources
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from .engine import DiscourseReport, HypothesisView, Retrieval, UtteranceReport
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
    encode_resolution,
    format_resolution,
    validate_discourse,
)


class CorpusFormatError(ValueError):
    """Raised when a corpus document or a machine report is malformed;
    `diagnostics` holds a located Violation per problem. Parsing is atomic."""

    def __init__(self, diagnostics: Sequence[Violation]):
        self.diagnostics = list(diagnostics)
        head = str(self.diagnostics[0]) if self.diagnostics else "invalid corpus"
        extra = len(self.diagnostics) - 1
        super().__init__(head + (f" (+{extra} more)" if extra > 0 else ""))


_ROLES = {role.name.lower(): role for role in GrammaticalRole}
_FORMS = {"overt": Form.OVERT_NP, "overt_np": Form.OVERT_NP, "zero": Form.ZERO}
_TENSES = {"past": Tense.PAST, "nonpast": Tense.NONPAST}


def _strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


_KINDS: dict[str, Callable[[Any], bool]] = {
    "a boolean": lambda v: isinstance(v, bool),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a list of strings": _strings,
    "an id or a list of ids": lambda v: isinstance(v, str) or _strings(v),
}


def _get(obj: dict, key: str, kind: str, default: Any, loc: str, diags: list[Violation]) -> Any:
    """`obj[key]` when it is of `kind`; `default` when it is absent or null,
    or, with a diagnostic at `loc.key`, when it is of another kind."""
    value = obj.get(key)
    if value is None:
        return default
    if _KINDS[kind](value):
        return value
    diags.append(Violation("malformed-structure", f"{loc}.{key}", f"'{key}' must be {kind}"))
    return default


def parse_corpus(text: str) -> list[Discourse]:
    """Parse a corpus document into discourse structures.

    Every discourse is checked by `validate_discourse`, so a parsed corpus
    is well-formed. Fails atomically: any problem raises CorpusFormatError
    carrying every diagnostic found, each naming its exact location.
    Whitespace-only input is an empty corpus.
    """
    discourses, found = build_discourses(read_document(text))
    diags = [v for per_discourse in found for v in per_discourse]
    if diags:
        raise CorpusFormatError(diags)
    return discourses


class RawDiscourse(NamedTuple):
    """A discourse object of a document, located and not yet built. `id` is
    None for an element that is not an object; `repeated` marks an id that
    an earlier discourse of the document has."""

    loc: str
    item: Any
    id: Optional[str]
    repeated: bool


def read_document(text: str) -> list[RawDiscourse]:
    """The raw discourses of a corpus document, after the checks of its JSON
    and top-level shape, which raise CorpusFormatError. `build_discourses`
    builds them; the two make up `parse_corpus`."""
    if not text.strip():
        return []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(
            [
                Violation(
                    "malformed-json",
                    f"line {exc.lineno}, column {exc.colno}",
                    exc.msg,
                )
            ]
        ) from exc

    if isinstance(data, dict):
        items = data.get("discourses")
        if not isinstance(items, list):
            raise CorpusFormatError(
                [Violation("malformed-structure", "$", "expected a 'discourses' list")]
            )
    elif isinstance(data, list):
        items = data
    else:
        raise CorpusFormatError(
            [Violation("malformed-structure", "$", "expected an object or a list")]
        )

    raw = []
    seen_ids: set[str] = set()
    for i, item in enumerate(items):
        loc = f"discourses[{i}]"
        did = _discourse_id(item, loc)
        raw.append(RawDiscourse(loc, item, did, did in seen_ids))
        if did is not None:
            seen_ids.add(did)
    return raw


def build_discourses(
    raw: Iterable[RawDiscourse],
) -> tuple[list[Discourse], list[list[Violation]]]:
    """Build and validate raw discourses: the discourses built, and per raw
    discourse its diagnostics, a repeated id last."""
    discourses = []
    found = []
    for r in raw:
        diags: list[Violation] = []
        d = _parse_discourse(r.item, r.loc, diags)
        if r.repeated:
            diags.append(repeated_id(r.loc, r.id))
        if d is not None:
            discourses.append(d)
        found.append(diags)
    return discourses, found


def repeated_id(loc: str, did: str) -> Violation:
    """The diagnostic of a discourse id met before, at `loc`."""
    return Violation("duplicate-discourse-id", loc, f"discourse id '{did}' repeated")


def _discourse_id(item: Any, loc: str) -> Optional[str]:
    """The id a discourse object is built under: a placeholder unique to
    `loc` when it has none, and None for an element that is not an object,
    which is not built."""
    if not isinstance(item, dict):
        return None
    did = item.get("id")
    return did if isinstance(did, str) and did else f"<anonymous {loc}>"


def _parse_discourse(item: Any, loc: str, diags: list[Violation]) -> Optional[Discourse]:
    """Build one discourse, adding its diagnostics and, under `loc`, its
    `validate_discourse` violations. A bad field or tag takes a placeholder
    so the rest is still checked; an element that is not an object is
    dropped, and then validation is skipped, as positions would not match."""
    if not isinstance(item, dict):
        diags.append(Violation("malformed-structure", loc, "discourse must be an object"))
        return None
    did = _discourse_id(item, loc)
    if did != item.get("id"):
        diags.append(Violation("malformed-structure", f"{loc}.id", "missing discourse id"))
    complete = True

    entities: list[DiscourseEntity] = []
    for j, ent in enumerate(_get(item, "entities", "a list", [], loc, diags)):
        eloc = f"{loc}.entities[{j}]"
        if not isinstance(ent, dict) or not isinstance(ent.get("id"), str):
            diags.append(Violation("malformed-structure", eloc, "entity needs an 'id'"))
            complete = False
            continue
        types = _get(ent, "types", "a list of strings", [], eloc, diags)
        card = _get(ent, "cardinality", "an integer", 1, eloc, diags)
        entities.append(DiscourseEntity(ent["id"], frozenset(types), card))

    utterances: list[Utterance] = []
    for j, utt in enumerate(_get(item, "utterances", "a list", [], loc, diags)):
        uloc = f"{loc}.utterances[{j}]"
        if not isinstance(utt, dict):
            diags.append(Violation("malformed-structure", uloc, "utterance must be an object"))
            complete = False
            continue
        tense_raw = utt.get("tense", "nonpast")
        tense = _TENSES.get(str(tense_raw).lower())
        if tense is None:
            diags.append(
                Violation("unknown-tense", f"{uloc}.tense", f"unknown tense '{tense_raw}'")
            )
            tense = Tense.NONPAST
        expressions = []
        for k, expr in enumerate(_get(utt, "expressions", "a list", [], uloc, diags)):
            parsed = _parse_expression(expr, f"{uloc}.expressions[{k}]", diags)
            if parsed is None:
                complete = False
            else:
                expressions.append(parsed)
        utterances.append(
            Utterance(
                index=_get(utt, "index", "an integer", j, uloc, diags),
                expressions=tuple(expressions),
                tense=tense,
                text=_get(utt, "text", "a string", None, uloc, diags),
            )
        )
    discourse = Discourse(id=did, entities=tuple(entities), utterances=tuple(utterances))
    if complete:
        diags.extend(
            Violation(v.code, f"{loc}.{v.location}", v.message)
            for v in validate_discourse(discourse)
        )
    return discourse


def _parse_expression(
    expr: Any, loc: str, diags: list[Violation]
) -> Optional[ReferringExpression]:
    if not isinstance(expr, dict):
        diags.append(Violation("malformed-structure", loc, "expression must be an object"))
        return None
    role_raw = str(expr.get("role", "")).lower()
    role = _ROLES.get(role_raw)
    if role is None:
        diags.append(Violation("unknown-role", f"{loc}.role", f"unknown role tag '{role_raw}'"))
        role = GrammaticalRole.OTHERS
    form_raw = str(expr.get("form", "overt")).lower()
    form = _FORMS.get(form_raw)
    if form is None:
        # A zero draws none of the follow-on violations of an overt NP.
        diags.append(Violation("unknown-form", f"{loc}.form", f"unknown form '{form_raw}'"))
        form = Form.ZERO

    entity = _get(expr, "entity", "a string", "?", loc, diags)
    constraints = None
    raw_cons = _get(expr, "constraints", "an object", None, loc, diags)
    if raw_cons is not None:
        cloc = f"{loc}.constraints"
        constraints = ResolutionConstraints(
            compatible_types=_get(raw_cons, "types", "a list of strings", [], cloc, diags),
            required_cardinality=_get(raw_cons, "cardinality", "an integer", None, cloc, diags),
            gold_antecedent=_get(raw_cons, "gold", "an id or a list of ids", None, cloc, diags),
        )

    return ReferringExpression(
        entity_ref=None if entity == "?" else entity,
        form=form,
        role=role,
        surface_position=_get(expr, "pos", "an integer", 0, loc, diags),
        wa_marked=_get(expr, "wa", "a boolean", False, loc, diags),
        ga_marked=_get(expr, "ga", "a boolean", False, loc, diags),
        constraints=constraints,
    )


def serialize_corpus(discourses: Iterable[Discourse]) -> str:
    """Canonical JSON rendering; parse(serialize(parse(x))) == parse(x)."""
    out = {"discourses": [_dump_discourse(d) for d in discourses]}
    return json.dumps(out, indent=2, sort_keys=False) + "\n"


def _dump_discourse(d: Discourse) -> dict:
    return {
        "id": d.id,
        "entities": [
            {
                "id": e.id,
                "types": sorted(e.semantic_types),
                "cardinality": e.cardinality,
            }
            for e in d.entities
        ],
        "utterances": [
            {
                "index": u.index,
                "tense": u.tense.value,
                **({"text": u.text} if u.text is not None else {}),
                "expressions": [_dump_expression(e) for e in u.expressions],
            }
            for u in d.utterances
        ],
    }


def _dump_expression(e: ReferringExpression) -> dict:
    out: dict[str, Any] = {
        "entity": e.entity_ref if e.entity_ref is not None else "?",
        "form": e.form.value,
        "role": e.role.display,
        "pos": e.surface_position,
    }
    if e.wa_marked:
        out["wa"] = True
    if e.ga_marked:
        out["ga"] = True
    if e.constraints is not None:
        cons: dict[str, Any] = {}
        if e.constraints.compatible_types:
            cons["types"] = sorted(e.constraints.compatible_types)
        if e.constraints.required_cardinality is not None:
            cons["cardinality"] = e.constraints.required_cardinality
        gold = e.constraints.gold_antecedent
        if gold is not None:
            cons["gold"] = encode_resolution(gold)
        out["constraints"] = cons
    return out


# -- reports ---------------------------------------------------------------


def serialize_reports(reports: Sequence[DiscourseReport], format: str = "text") -> str:
    """Render analysis reports.

    "machine" is line-delimited JSON that round-trips through read_reports;
    "text" is the human trace. Both are deterministic and line-stable.
    """
    return report_head(format) + report_blocks(reports, format)


def report_head(format: str) -> str:
    """The lines that open a report of `format` before its first block."""
    return _renderer(format)[0]


def report_blocks(reports: Sequence[DiscourseReport], format: str) -> str:
    """The rendering of `reports` after the head: one block per report, so
    the blocks of a list are the blocks of its slices joined in order."""
    return "".join(map(_renderer(format)[1], reports))


_TEXT_HEAD = "# centering trace: cb | cf | transition | zero resolutions | cues\n"


def _renderer(format: str) -> tuple[str, Callable[[DiscourseReport], str]]:
    """The head and the block renderer of a report format."""
    if format == "machine":
        return "", _machine_block
    if format == "text":
        return _TEXT_HEAD, _text_block
    raise ValueError(f"unknown report format '{format}'")


#: Machine-report keys that differ from the field names they carry.
_KEYS = {
    "discourse_id": "discourse",
    "position": "pos",
    "member_order": "order",
    "zta_applied": "zta",
}

#: JSON value types, as named in reader errors.
_JSON_NAMES = {
    str: "a string",
    int: "an integer",
    bool: "a boolean",
    type(None): "null",
    list: "a list",
    dict: "an object",
}

#: What a JSON value may be: its Python type mapped to the converter that
#: decodes it, or to None when it is taken as it is.
_Shape = dict[type, Optional[Callable[[Any], Any]]]


def _take(shape: _Shape, value: Any) -> Any:
    """`value` decoded by `shape`; TypeError when its type does not fit."""
    convert = shape.get(type(value), False)
    if convert is False:
        wanted = " or ".join(_JSON_NAMES[t] for t in shape)
        raise TypeError(f"expected {wanted}, found {type(value).__name__}")
    return value if convert is None else convert(value)


def _shape(hint: Any) -> _Shape:
    """The JSON shape of a report field annotated `hint`: scalars as they
    are, tuples and frozensets as lists, records as objects."""
    if hint in _JSON_NAMES:
        return {hint: None}
    if dataclasses.is_dataclass(hint):
        return {dict: lambda v: _decode(hint, v)}
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return {t: c for arg in args for t, c in _shape(arg).items()}
    if origin is frozenset or (origin is tuple and args[-1] is Ellipsis):
        item, build = _shape(args[0]), origin
        return {list: lambda v: build([_take(item, x) for x in v])}
    if origin is tuple:
        items = [_shape(arg) for arg in args]

        def fixed(v: list) -> tuple:
            if len(v) != len(items):
                raise TypeError(f"expected {len(items)} items, found {len(v)}")
            return tuple(map(_take, items, v))

        return {list: fixed}
    raise TypeError(f"no JSON shape for {hint!r}")


#: The one field table of the machine report: (field name, JSON key) per
#: record class. A discourse record leaves out its utterances, which are
#: records of their own lines.
_FIELDS = {
    cls: tuple(
        (f.name, _KEYS.get(f.name, f.name))
        for f in dataclasses.fields(cls)
        if f.name != "utterances"
    )
    for cls in (UtteranceReport, DiscourseReport, Retrieval, HypothesisView)
}


@functools.cache
def _shapes(cls: type) -> tuple[_Shape, ...]:
    """The JSON shape of each field of `_FIELDS[cls]`, derived from its
    annotation when a record of `cls` is first read."""
    hints = typing.get_type_hints(cls)
    return tuple(_shape(hints[name]) for name, _ in _FIELDS[cls])


def _encode(obj: Any) -> Any:
    """json.dumps hook: report records become objects through the field
    table, resolution sets become sorted lists."""
    if isinstance(obj, frozenset):
        return encode_resolution(obj)
    fields = _FIELDS.get(type(obj))
    if fields is None:
        raise TypeError(f"{type(obj).__name__} is not a report record")
    return {key: getattr(obj, name) for name, key in fields}


def _record(kind: str, obj: Any) -> str:
    return json.dumps({"record": kind, **_encode(obj)}, default=_encode, sort_keys=True)


def _machine_block(rep: DiscourseReport) -> str:
    lines = [_record("utterance", u) for u in rep.utterances]
    lines.append(_record("discourse", rep))
    return "\n".join(lines) + "\n"


_OBJECT: _Shape = {dict: None}


def _decode(cls: type, data: Any, **given: Any) -> Any:
    """Build a report record from its JSON object through the field table;
    `given` supplies the fields a line does not carry."""
    _take(_OBJECT, data)
    for (name, key), shape in zip(_FIELDS[cls], _shapes(cls)):
        if key not in data:
            raise ValueError(f"missing key '{key}'")
        try:
            given[name] = _take(shape, data[key])
        except TypeError as exc:
            raise TypeError(f"'{key}': {exc}") from None
    return cls(**given)


def read_reports(text: str) -> list[DiscourseReport]:
    """Parse machine-format report output back into report objects.

    Lines of another record kind are skipped. A line that is not JSON, not
    an object, lacks a key the writer writes, or holds a value of another
    type than the field's annotation, at any depth, raises CorpusFormatError
    located at its line number.
    """
    pending: dict[str, list[UtteranceReport]] = {}
    out: list[DiscourseReport] = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = _take(_OBJECT, json.loads(line))
            kind = data.get("record")
            if kind == "utterance":
                u = _decode(UtteranceReport, data)
                pending.setdefault(u.discourse_id, []).append(u)
            elif kind == "discourse":
                rep = _decode(DiscourseReport, data, utterances=())
                utts = tuple(pending.pop(rep.discourse_id, ()))
                out.append(dataclasses.replace(rep, utterances=utts))
        except json.JSONDecodeError as exc:
            raise CorpusFormatError([Violation("malformed-json", f"line {n}", exc.msg)]) from exc
        except (TypeError, ValueError) as exc:
            raise CorpusFormatError(
                [Violation("malformed-record", f"line {n}", str(exc))]
            ) from exc
    for did, utts in pending.items():
        out.append(DiscourseReport(did, tuple(utts), False, ()))
    return out


def _fmt_cf(cf: Sequence[tuple[str, str]]) -> str:
    return "[" + ", ".join(f"{eid}/{role}" for eid, role in cf) + "]"


def _text_block(rep: DiscourseReport) -> str:
    lines = [f"== discourse {rep.discourse_id} =="]
    for u in rep.utterances:
        bits = [f"u{u.index}"]
        if u.seed:
            bits.append("[seed]")
        bits.append(u.tense)
        bits.append(f"cb={u.cb if u.cb is not None else '-'}")
        bits.append(f"cf={_fmt_cf(u.cf)}")
        bits.append(u.label.upper())
        if u.resolutions:
            shown = ", ".join(f"{p}->{format_resolution(v)}" for p, v in u.resolutions)
            bits.append(f"zeros: {shown}")
        if u.cues:
            bits.append("cue=" + "+".join(u.cues))
        if u.ambiguous:
            bits.append("AMBIGUOUS")
        lines.append("  " + " | ".join(bits))
        if len(u.hypotheses) > 1:
            for n, h in enumerate(u.hypotheses, start=1):
                flags = []
                if h.dampened:
                    flags.append("dampened")
                if h.anomalous:
                    flags.append("anomalous")
                suffix = f" ({', '.join(flags)})" if flags else ""
                lines.append(
                    f"      Cf{n}: {h.transition.upper()} cb="
                    f"{h.cb if h.cb is not None else '-'} cf={_fmt_cf(h.cf)}{suffix}"
                )
    amb = "yes" if rep.unresolved_ambiguity else "no"
    lines.append(f"  summary: utterances={len(rep.utterances)} unresolved-ambiguity={amb}")
    return "\n".join(lines) + "\n"


# -- bundled sample corpora --------------------------------------------------

FIXTURE_NAMES = (
    "classroom_exam",
    "classroom_exam_topic",
    "research_lab",
    "phone_card",
    "bank_pos",
    "transaction_insurance",
    "etching_factory",
    "factory_article",
    "cvd_device",
    "heater_factory",
    "device_lineup",
)


def fixture_text(name: str) -> str:
    """Raw text of a bundled sample corpus (see FIXTURE_NAMES)."""
    pkg = resources.files("centering") / "fixtures" / f"{name}.centering.json"
    return pkg.read_text(encoding="utf-8")


def load_fixture(name: str) -> Discourse:
    """Parse a bundled sample corpus; each bundle holds one discourse."""
    discourses = parse_corpus(fixture_text(name))
    if len(discourses) != 1:
        raise ValueError(f"fixture '{name}' holds {len(discourses)} discourses")
    return discourses[0]
