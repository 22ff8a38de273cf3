"""Corpus and report serialization.

The corpus format is a JSON document: a top-level object with a "discourses"
list (a bare list of discourse objects is also accepted). Each discourse
declares its entities, then its utterances with their referring expressions.
See the README for the schema and `centering/fixtures/` for worked examples.
"""

from __future__ import annotations

import codecs
import functools
import json
import os
import re
import sys
import typing
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple, Optional, Sequence, Union

from ._record import fields, is_record
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
_OTHERS, _OVERT, _ZERO, _NONPAST = GrammaticalRole.OTHERS, Form.OVERT_NP, Form.ZERO, Tense.NONPAST


#: The two kinds of key that are not one JSON type, named as in diagnostics.
_STRINGS = "a list of strings"
_IDS = "an id or a list of ids"


def _mistyped(
    value: Any, default: Any, loc: str, key: str, t: Union[type, str], diags: list[Violation]
) -> Any:
    """`default` in place of `value`, read at `key` of the object at `loc`
    and not of the kind `t` that the key takes: a JSON type, matched
    exactly, so that a bool is not an integer, or `_STRINGS`, a list of
    strings, or `_IDS`, a string or a list of strings. A null `value`, as an
    absent key, takes `default` silently; any other adds a diagnostic at
    `loc.key` that names `t` as `_JSON_NAMES` does.

    The reader reads each key with one `dict.get` and tests its type
    inline, and calls this, and builds `loc`, only when the test fails."""
    if value is not None:
        kind = _JSON_NAMES.get(t, t)
        diags.append(Violation("malformed-structure", f"{loc}.{key}", f"'{key}' must be {kind}"))
    return default


def _strings(value: Any) -> bool:
    """Whether `value` is a list of strings."""
    return type(value) is list and all([type(v) is str for v in value])


def _where(loc: str, j: int, k: Optional[int] = None, tail: str = "") -> str:
    """The location of utterance `j` of the discourse at `loc`, or of its
    expression `k`, followed by `tail`."""
    at = f"{loc}.utterances[{j}]"
    return (at if k is None else f"{at}.expressions[{k}]") + tail


def parse_corpus(text: str) -> list[Discourse]:
    """Parse a corpus document into discourse structures.

    Every discourse is checked by `validate_discourse`, so a parsed corpus
    is well-formed. Fails atomically: any problem raises CorpusFormatError
    carrying every diagnostic found, each naming its exact location.
    Whitespace-only input is an empty corpus.
    """
    discourses: list[Discourse] = []
    diags: list[Violation] = []
    for r, item in walk(text):
        if r is None:  # a later "discourses" key replaces the discourses before
            discourses, diags = [], []
            continue
        d, found = build_discourse(r, item)
        if d is not None:
            discourses.append(d)
        diags.extend(found)
    if diags:
        raise CorpusFormatError(diags)
    return discourses


#: The tokens of JSON that bear on nesting and on integer literals. Strings
#: are matched whole, so that nothing inside them counts, and an unclosed
#: one runs to the end, so that the scan stays linear. Only a document that
#: `json.loads` fails on is scanned, so it is compiled only then.
_JSON_TOKEN = r'"(?:[^"\\]|\\.)*"?|[\[{]|[\]}]|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?'


def _loads(text: str) -> Any:
    """`json.loads(text)`, raising JSONDecodeError also for JSON that the
    decoder cannot take: nesting past the recursion limit, located at the
    first bracket of the greatest depth, or an integer literal longer than
    `sys.get_int_max_str_digits()`, located at the first one."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError as exc:
        depth = deepest = at = 0
        for token in re.finditer(_JSON_TOKEN, text, re.S):
            if token.group() in ("[", "{"):
                depth += 1
                if depth > deepest:
                    deepest, at = depth, token.start()
            elif token.group() in ("]", "}"):
                depth -= 1
        message = f"nested {deepest} deep, past the decoder's limit"
        raise json.JSONDecodeError(message, text, at) from exc
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        for token in re.finditer(_JSON_TOKEN, text, re.S):
            digits = token.group().lstrip("-")
            if digits.isdigit() and len(digits) > limit:
                message = f"integer of {len(digits)} digits, more than {limit}"
                raise json.JSONDecodeError(message, text, token.start()) from exc
        raise


class RawDiscourse(NamedTuple):
    """A discourse of a document as the walk meets it, not yet built: its
    location; its id, None for an element that is not an object; whether an
    earlier discourse of the same list has that id; and where its middle
    lies in the document, in bytes of UTF-8."""

    loc: str
    id: Optional[str]
    repeated: bool
    middle: int


#: JSON's whitespace, as `json.loads` skips it.
_SPACE = re.compile(r"[ \t\n\r]*")

_DECODER = json.JSONDecoder()

#: A stream shorter than `_WHOLE` bytes is read in one piece, so that a
#: discourse of it is decoded once; a longer one `_READ` bytes at a time. A
#: value that the window cannot hold makes the next read as long as the part
#: of the window the walk has not passed, so the window doubles until the
#: value fits.
_WHOLE = 256 * 1024
_READ = 64 * 1024


class _Window:
    """A JSON document as the walk sees it: `text`, the part of it in hand;
    `at`, the walk's position there; and `mark`, a position there at or
    before `at`, with `offset`, the bytes of the document before it. A text
    is in hand whole. A binary stream is read from its start through a
    window: the walk takes each read of it as it passes the end of the
    window, which then drops what the walk has passed, as it may after a
    discourse (`_discourse`)."""

    def __init__(self, source: Union[str, BinaryIO]):
        self.source = source
        self.at = self.mark = self.offset = 0
        if type(source) is str:
            self.text, self.done = source, True
        else:
            self.text, self.done = "", False
            size = source.seek(0, os.SEEK_END)
            source.seek(0)
            self.step = size + 1 if size < _WHOLE else _READ
            self.decoder = codecs.getincrementaldecoder("utf-8")()

    def more(self) -> bool:
        """Read the next piece of the stream onto the window, dropping what
        the walk has passed; False at the end of the document."""
        if self.done:
            return False
        self.cut()
        size = max(self.step, len(self.text))
        data = self.source.read(size)
        self.done = len(data) < size  # a file or a buffer reads short only at its end
        piece = self.decoder.decode(data, self.done)
        del data
        self.text += piece
        return True

    def cut(self) -> None:
        """Drop the part of the window that the walk has passed, counting
        its bytes."""
        self.position()
        self.text, self.at, self.mark = self.text[self.at :], 0, 0

    def position(self) -> int:
        """The walk's position in bytes of UTF-8 from the start of the
        document, which moves `mark` there. Each stretch between two marks
        is encoded once, and an ASCII window (`str.isascii`, which reads a
        flag of the string) not at all."""
        text, at = self.text, self.at
        if text.isascii():
            self.offset += at - self.mark
        else:
            # a text handed in may hold a lone surrogate, which counts 3
            self.offset += len(text[self.mark : at].encode("utf-8", "surrogatepass"))
        self.mark = at
        return self.offset

    def skip(self) -> str:
        """Move past JSON whitespace, and return the character there, or ""
        at the end of the document."""
        while True:
            self.at = _SPACE.match(self.text, self.at).end()
            if self.at < len(self.text) or not self.more():
                return self.text[self.at : self.at + 1]

    def value(self) -> Any:
        """Decode the JSON value after any whitespace, and move past it. A
        value that fails, or ends within two characters of the end of a
        window that is not the last, is decoded again over a longer window:
        a number cut after its '.', 'e' or exponent sign decodes without them."""
        self.skip()
        while True:
            try:
                item, end = _DECODER.raw_decode(self.text, self.at)
            except ValueError:
                if self.more():
                    continue
                raise
            if end + 2 < len(self.text) or not self.more():
                self.at = end
                return item


#: What the walk hands over: a discourse and its decoded JSON, or (None,
#: None) where a later "discourses" key replaces the discourses before.
_Walked = tuple[Optional[RawDiscourse], Any]


def walk(source: Union[str, BinaryIO]) -> Iterator[_Walked]:
    """The discourses of a corpus document, a text or a seekable binary
    stream, each handed over as it is decoded: the top-level list, or the
    "discourses" list of the top-level object, the last one if it repeats
    (json.loads keeps the last value of a key). The walk keeps no reference
    to a decoded discourse once it has handed it over.

    A document that the walk does not take ends it with CorpusFormatError,
    and a stream that is not UTF-8 with UnicodeDecodeError at the byte where
    it stops being; either way, what the walk handed over before is not of
    the document. Only then is the document read whole, and handed to
    `_loads` for the located error; if `json.loads` takes it, the walk's own
    error propagates, as a fault of the walk. A blank document
    (`str.isspace`) has no discourses."""
    src = _Window(source)
    try:
        top = src.skip()
        listed = top == "["
        if listed:
            yield from _discourses(src)
        elif top == "{":
            src.at += 1
            closed = src.skip() == "}"
            src.at += closed
            while not closed:
                key = src.value()
                if type(key) is not str or src.skip() != ":":
                    raise ValueError("expected a key and a colon")
                src.at += 1
                if key != "discourses":
                    src.value()
                else:
                    if listed:
                        yield None, None
                    listed = src.skip() == "["
                    if listed:
                        yield from _discourses(src)
                    else:
                        src.value()
                closed = _next(src, "}")
        elif top:
            src.value()
        if src.skip():
            raise ValueError("extra data")
    except (ValueError, RecursionError):
        if type(source) is str:
            text = source
        else:
            source.seek(0)
            text = source.read().decode()
        if text.isspace():  # strip() would copy the text
            return
        try:
            _loads(text)
        except json.JSONDecodeError as exc:
            where = f"line {exc.lineno}, column {exc.colno}"
            raise CorpusFormatError([Violation("malformed-json", where, exc.msg)]) from exc
        raise
    if top and not listed:
        message = "expected a 'discourses' list" if top == "{" else "expected an object or a list"
        raise CorpusFormatError([Violation("malformed-structure", "$", message)])


def _discourses(src: _Window) -> Iterator[_Walked]:
    """The discourses of the list that opens at the walk's position, which
    then moves past the list. Each is made by a call, so that this frame
    holds none while it waits."""
    seen_ids: set[str] = set()
    count = 0
    src.at += 1
    closed = src.skip() == "]"
    src.at += closed
    while not closed:
        yield _discourse(src, f"discourses[{count}]", seen_ids)
        count += 1
        closed = _next(src, "]")


def _discourse(src: _Window, loc: str, seen_ids: set[str]) -> _Walked:
    """The discourse at the walk's position, at `loc`, and its JSON. The
    window of a stream first drops what the walk has passed, once that is at
    least half the window, so that the caller does not build the discourse
    beside its text; each character is then copied at most once more. A
    text handed in is the caller's, and is never copied."""
    src.skip()
    start = src.position()
    item = src.value()
    did = _discourse_id(item, loc)
    raw = RawDiscourse(loc, did, did in seen_ids, (start + src.position()) // 2)
    if did is not None:
        seen_ids.add(did)
    if type(src.source) is not str and 2 * src.at >= len(src.text):
        src.cut()
    return raw, item


def _next(src: _Window, close: str) -> bool:
    """After a member of a container that `close` ends: move to the comma
    before the next member, or past the end of the container and True."""
    sep = src.skip()
    if sep != close and sep != ",":
        raise ValueError(f"expected ',' or '{close}'")
    src.at += 1
    return sep == close


def build_discourse(r: RawDiscourse, item: Any) -> tuple[Optional[Discourse], list[Violation]]:
    """Build and validate the discourse `item` that the walk handed over as
    `r`: the discourse built (None for an element that is not an object) and
    its diagnostics, a repeated id last. It takes `item` over: it empties
    the list of decoded utterances there, dropping each as it is built, so
    that the decoded discourse shrinks as the built one grows."""
    diags: list[Violation] = []
    d = _parse_discourse(item, r.loc, r.id, diags)
    if r.repeated:
        diags.append(repeated_id(r.loc, r.id))
    return d, diags


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


def _parse_discourse(
    item: Any, loc: str, did: Optional[str], diags: list[Violation]
) -> Optional[Discourse]:
    """Build one discourse under the id `did` of `_discourse_id`, adding its
    diagnostics and, under `loc`, its `validate_discourse` violations. A bad
    field or tag takes a placeholder so the rest is still checked; an
    element that is not an object is dropped, and then validation is
    skipped, as positions would not match. Each object's diagnostics come
    in the order of its keys below."""
    if did is None:
        diags.append(Violation("malformed-structure", loc, "discourse must be an object"))
        return None
    if did != item.get("id"):
        diags.append(Violation("malformed-structure", f"{loc}.id", "missing discourse id"))
    complete = True

    entities: list[DiscourseEntity] = []
    decoded = item.get("entities")
    if type(decoded) is not list:
        decoded = _mistyped(decoded, [], loc, "entities", list, diags)
    for j, ent in enumerate(decoded):
        eloc = f"{loc}.entities[{j}]"
        if not isinstance(ent, dict) or not isinstance(ent.get("id"), str):
            diags.append(Violation("malformed-structure", eloc, "entity needs an 'id'"))
            complete = False
            continue
        types = ent.get("types")
        if not _strings(types):
            types = _mistyped(types, [], eloc, "types", _STRINGS, diags)
        card = ent.get("cardinality")
        if type(card) is not int:
            card = _mistyped(card, 1, eloc, "cardinality", int, diags)
        entities.append(DiscourseEntity(ent["id"], frozenset(types), card))

    utterances: list[Utterance] = []
    decoded = item.get("utterances")
    if type(decoded) is not list:
        decoded = _mistyped(decoded, [], loc, "utterances", list, diags)
    for j in range(len(decoded)):
        # the decoded utterance is dropped as it is built
        utt, decoded[j] = decoded[j], None
        if not isinstance(utt, dict):
            message = "utterance must be an object"
            diags.append(Violation("malformed-structure", _where(loc, j), message))
            complete = False
            continue
        tense = utt.get("tense")
        if tense is None:
            tense = _NONPAST
        elif type(tense) is not str:
            tense = _mistyped(tense, _NONPAST, _where(loc, j), "tense", str, diags)
        else:
            raw, tense = tense, _TENSES.get(tense.lower())
            if tense is None:
                message = f"unknown tense '{raw}'"
                diags.append(Violation("unknown-tense", _where(loc, j, tail=".tense"), message))
                tense = _NONPAST
        exprs = utt.get("expressions")
        if type(exprs) is not list:
            exprs = _mistyped(exprs, [], _where(loc, j), "expressions", list, diags)
        expressions = []
        for k, expr in enumerate(exprs):
            parsed = _parse_expression(expr, loc, j, k, diags)
            if parsed is None:
                complete = False
            else:
                expressions.append(parsed)
        index = utt.get("index")
        if type(index) is not int:
            index = _mistyped(index, j, _where(loc, j), "index", int, diags)
        text = utt.get("text")
        if text is not None and type(text) is not str:
            text = _mistyped(text, None, _where(loc, j), "text", str, diags)
        # positional, in declaration order
        utterances.append(Utterance(index, tuple(expressions), tense, text))
    decoded.clear()
    discourse = Discourse(id=did, entities=tuple(entities), utterances=tuple(utterances))
    if complete:
        diags.extend(
            Violation(v.code, f"{loc}.{v.location}", v.message)
            for v in validate_discourse(discourse)
        )
    return discourse


def _parse_expression(
    expr: Any, loc: str, j: int, k: int, diags: list[Violation]
) -> Optional[ReferringExpression]:
    """Build expression `k` of utterance `j` of the discourse at `loc`."""
    if not isinstance(expr, dict):
        message = "expression must be an object"
        diags.append(Violation("malformed-structure", _where(loc, j, k), message))
        return None
    role = expr.get("role")
    if role is None:
        role = ""
    if type(role) is not str:
        role = _mistyped(role, _OTHERS, _where(loc, j, k), "role", str, diags)
    else:
        raw, role = role, _ROLES.get(role.lower())
        if role is None:
            message = f"unknown role tag '{raw.lower()}'"
            diags.append(Violation("unknown-role", _where(loc, j, k, ".role"), message))
            role = _OTHERS
    # A zero draws none of the follow-on violations of an overt NP.
    form = expr.get("form")
    if form is None:
        form = _OVERT
    elif type(form) is not str:
        form = _mistyped(form, _ZERO, _where(loc, j, k), "form", str, diags)
    else:
        raw, form = form, _FORMS.get(form.lower())
        if form is None:
            message = f"unknown form '{raw.lower()}'"
            diags.append(Violation("unknown-form", _where(loc, j, k, ".form"), message))
            form = _ZERO
    entity = expr.get("entity")
    if entity is not None and type(entity) is not str:
        entity = _mistyped(entity, None, _where(loc, j, k), "entity", str, diags)
    constraints = expr.get("constraints")
    if constraints is not None:
        if type(constraints) is not dict:
            at = _where(loc, j, k)
            constraints = _mistyped(constraints, None, at, "constraints", dict, diags)
        else:
            types = constraints.get("types")
            if types is None:
                types = ()
            elif not _strings(types):
                at = _where(loc, j, k, ".constraints")
                types = _mistyped(types, (), at, "types", _STRINGS, diags)
            card = constraints.get("cardinality")
            if card is not None and type(card) is not int:
                at = _where(loc, j, k, ".constraints")
                card = _mistyped(card, None, at, "cardinality", int, diags)
            gold = constraints.get("gold")
            if gold is not None and type(gold) is not str and not _strings(gold):
                at = _where(loc, j, k, ".constraints")
                gold = _mistyped(gold, None, at, "gold", _IDS, diags)
            # positional, in declaration order
            constraints = ResolutionConstraints(types, card, gold)
    pos = expr.get("pos")
    if type(pos) is not int:
        pos = _mistyped(pos, 0, _where(loc, j, k), "pos", int, diags)
    wa = expr.get("wa", False)
    if type(wa) is not bool:
        wa = _mistyped(wa, False, _where(loc, j, k), "wa", bool, diags)
    ga = expr.get("ga", False)
    if type(ga) is not bool:
        ga = _mistyped(ga, False, _where(loc, j, k), "ga", bool, diags)
    return ReferringExpression(
        None if entity == "?" else entity, form, role, pos, wa, ga, constraints
    )


# -- reports ---------------------------------------------------------------


def serialize_reports(reports: Sequence[DiscourseReport], format: str = "text") -> str:
    """Render analysis reports.

    "machine" is line-delimited JSON that round-trips through read_reports;
    "text" is the human trace. Both are deterministic and line-stable.
    """
    head = report_head(format)
    return head + "".join([line for rep in reports for line in report_lines((rep,), format)])


def report_head(format: str) -> str:
    """The lines that open a report of `format` before its first block."""
    return _TEXT_HEAD if _is_text(format) else ""


def report_lines(
    stream: typing.Iterable[Union[UtteranceReport, DiscourseReport]], format: str
) -> Iterator[str]:
    """The block of one discourse, line by line, each line ending in a
    newline, rendered from its stream (`engine.stream_discourse`) as the
    stream hands each item on: each utterance's report, and last the
    discourse's, whose utterances come before its closing line. A whole
    `DiscourseReport` is a stream of one."""
    text = _is_text(format)
    encode = encode_record
    count = 0
    for k, item in enumerate(stream):
        if text and not k:
            yield f"== discourse {item.discourse_id} ==\n"
        for u in (item,) if type(item) is UtteranceReport else item.utterances:
            count += 1
            if text:
                yield from _text_lines(u)
            else:
                yield encode(_UTTERANCE_OBJECT(u)) + "\n"
    if text:
        amb = "yes" if item.unresolved_ambiguity else "no"
        yield f"  summary: utterances={count} unresolved-ambiguity={amb}\n"
    else:
        yield encode(_DISCOURSE_OBJECT(item)) + "\n"


_TEXT_HEAD = "# centering trace: cb | cf | transition | zero resolutions | cues\n"


def _is_text(format: str) -> bool:
    """Whether `format` is the text trace rather than the machine report."""
    if format not in ("text", "machine"):
        raise ValueError(f"unknown report format '{format}'")
    return format == "text"


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
    if is_record(hint):
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
        for f in fields(cls)
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


#: Report fields that hold records, by the class of those records.
_NESTED = {"retrievals": Retrieval, "hypotheses": HypothesisView}


def _writer(cls: type, kind: Optional[str] = None) -> Callable[[Any], dict]:
    """Compile the function that builds the machine object of a record of
    `cls` from the field table, with `"record": kind` if given: keys in
    sorted order, and the records of `_NESTED` fields as objects."""
    env = {f"_{name}": _writer(_NESTED[name]) for name, _ in _FIELDS[cls] if name in _NESTED}
    items = [] if kind is None else [("record", repr(kind))]
    for name, key in _FIELDS[cls]:
        items.append((key, f"[_{name}(x) for x in o.{name}]" if name in _NESTED else f"o.{name}"))
    body = ", ".join(f"{key!r}: {value}" for key, value in sorted(items))
    exec(f"def _write(o):\n return {{{body}}}\n", env)
    return env["_write"]


_UTTERANCE_OBJECT = _writer(UtteranceReport, "utterance")
_DISCOURSE_OBJECT = _writer(DiscourseReport, "discourse")

#: The settings of every machine line, of `analyze` and of `resolve`. The
#: objects come with their keys sorted and hold no cycle, so it neither
#: sorts nor checks; its hook only turns resolution sets into sorted lists.
RECORD_ENCODER = json.JSONEncoder(default=encode_resolution, check_circular=False)

#: `RECORD_ENCODER` as one C encoder, made once per process, in the call
#: that `JSONEncoder.iterencode` makes: `JSONEncoder.encode` makes a new one,
#: and a closure, on every call. None where the C accelerator is missing.
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None,  # no cycle check
    RECORD_ENCODER.default,
    json.encoder.encode_basestring_ascii,
    None,  # no indent
    RECORD_ENCODER.key_separator,
    RECORD_ENCODER.item_separator,
    RECORD_ENCODER.sort_keys,
    RECORD_ENCODER.skipkeys,
    RECORD_ENCODER.allow_nan,
)


def encode_record(obj: dict) -> str:
    """The machine line of `obj` without its newline, as
    `RECORD_ENCODER.encode(obj)` writes it."""
    if _C_ENCODER is None:
        return RECORD_ENCODER.encode(obj)
    return "".join(_C_ENCODER(obj, 0))


_OBJECT: _Shape = {dict: None}


def _decode(cls: type, data: dict, **given: Any) -> Any:
    """Build a report record from its JSON object through the field table;
    `given` supplies the fields a line does not carry."""
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
    located at its line number. So does any other layout than the writer's,
    where each discourse's utterance lines come just before its discourse
    line: an utterance or discourse line of another discourse than the
    utterance lines before it, located at that line, and utterance lines
    that no discourse line follows, located at the first of them.
    """
    utts: list[UtteranceReport] = []
    first = 0  # the line of utts[0]
    out: list[DiscourseReport] = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = _take(_OBJECT, _loads(line))
            kind = data.get("record")
            if kind == "utterance":
                rec = _decode(UtteranceReport, data)
            elif kind == "discourse":
                rec = _decode(DiscourseReport, data, utterances=tuple(utts))
            else:
                continue
            if utts and rec.discourse_id != utts[0].discourse_id:
                after = f"after the utterance lines of '{utts[0].discourse_id}'"
                raise ValueError(f"{kind} line of '{rec.discourse_id}' {after}")
        except json.JSONDecodeError as exc:
            raise CorpusFormatError([Violation("malformed-json", f"line {n}", exc.msg)]) from exc
        except (TypeError, ValueError) as exc:
            raise CorpusFormatError(
                [Violation("malformed-record", f"line {n}", str(exc))]
            ) from exc
        if kind == "utterance":
            first = first or n
            utts.append(rec)
        else:
            out.append(rec)
            utts, first = [], 0
    if utts:
        message = f"utterance lines of '{utts[0].discourse_id}' without their discourse line"
        raise CorpusFormatError([Violation("malformed-record", f"line {first}", message)])
    return out


def _fmt_cf(cf: Sequence[tuple[str, str]]) -> str:
    return "[" + ", ".join(f"{eid}/{role}" for eid, role in cf) + "]"


def _text_lines(u: UtteranceReport) -> list[str]:
    """The text trace lines of one utterance."""
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
    lines = ["  " + " | ".join(bits) + "\n"]
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
                f"{h.cb if h.cb is not None else '-'} cf={_fmt_cf(h.cf)}{suffix}\n"
            )
    return lines


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
    # Imported here: it loads pathlib and zipfile, which no command needs.
    from importlib import resources

    pkg = resources.files("centering") / "fixtures" / f"{name}.centering.json"
    return pkg.read_text(encoding="utf-8")


def load_fixture(name: str) -> Discourse:
    """Parse a bundled sample corpus; each bundle holds one discourse."""
    discourses = parse_corpus(fixture_text(name))
    if len(discourses) != 1:
        raise ValueError(f"fixture '{name}' holds {len(discourses)} discourses")
    return discourses[0]
