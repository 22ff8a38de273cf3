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
import stat
import sys
import typing
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

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


def _strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


_KINDS: dict[str, Callable[[Any], bool]] = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a list": lambda v: isinstance(v, list),
    "a list of strings": _strings,
}


def _malformed(loc: str, key: str, kind: str) -> Violation:
    """The diagnostic of a value at `loc.key` that is not of `kind`."""
    return Violation("malformed-structure", f"{loc}.{key}", f"'{key}' must be {kind}")


def _get(obj: dict, key: str, kind: str, default: Any, loc: str, diags: list[Violation]) -> Any:
    """`obj[key]` when it is of `kind`; `default` when it is absent or null,
    or, with a diagnostic at `loc.key`, when it is of another kind."""
    value = obj.get(key)
    if value is None:
        return default
    if _KINDS[kind](value):
        return value
    diags.append(_malformed(loc, key, kind))
    return default


def _tag(obj: dict, key: str, absent: str, loc: str, diags: list[Violation]) -> Optional[str]:
    """The tag name `obj[key]`: `absent` if absent or null, None if not a string (see `_get`)."""
    value = obj.get(key)
    if value is None:
        return absent
    if type(value) is str:
        return value
    diags.append(_malformed(loc, key, "a string"))
    return None


def parse_corpus(text: str) -> list[Discourse]:
    """Parse a corpus document into discourse structures.

    Every discourse is checked by `validate_discourse`, so a parsed corpus
    is well-formed. Fails atomically: any problem raises CorpusFormatError
    carrying every diagnostic found, each naming its exact location.
    Whitespace-only input is an empty corpus.
    """
    discourses, diags = [], []
    for r in read_document(text):
        d, found = build_discourse(r)
        if d is not None:
            discourses.append(d)
        diags.extend(found)
    if diags:
        raise CorpusFormatError(diags)
    return discourses


#: The tokens of JSON that bear on nesting and on integer literals. Strings
#: are matched whole, so that nothing inside them counts, and an unclosed
#: one runs to the end, so that the scan stays linear.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"?|[\[{]|[\]}]|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?', re.S)


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
        for token in _JSON_TOKEN.finditer(text):
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
        for token in _JSON_TOKEN.finditer(text):
            digits = token.group().lstrip("-")
            if digits.isdigit() and len(digits) > limit:
                message = f"integer of {len(digits)} digits, more than {limit}"
                raise json.JSONDecodeError(message, text, token.start()) from exc
        raise


class RawDiscourse(NamedTuple):
    """A discourse of a document, located and not yet built: its id, None
    for an element that is not an object; whether an earlier discourse of
    the document has that id; its utterance count; and where its JSON lies
    in `source`, the document's text (`start` and `length` in characters)
    or the descriptor of its file (in bytes, read back with `os.pread`).
    The discourse of a document that holds only one keeps its decoded
    object as `item` instead, and no source."""

    loc: str
    id: Optional[str]
    repeated: bool
    size: int
    source: Union[str, int, None]
    start: int
    length: int
    item: Any = None


#: JSON's whitespace, as `json.loads` skips it.
_SPACE = re.compile(r"[ \t\n\r]*")

_DECODER = json.JSONDecoder()

#: A file shorter than `_WHOLE` bytes is read in one piece, so that its
#: discourse, when it holds only one, is decoded once; a longer one `_READ`
#: bytes at a time. A value that the window cannot hold makes the next read
#: as long as the part of the window the walk has not passed, so the window
#: doubles until the value fits.
_WHOLE = 256 * 1024
_READ = 64 * 1024


class _Window:
    """A JSON document as the walk sees it: `text`, the part of it in hand,
    and `at`, the walk's position there. A text is in hand whole. A file is
    read through a window: the walk takes each read of it as it passes the
    end of the window, which then drops what the walk has passed."""

    def __init__(self, source: Union[str, int], step: int = 0):
        self.source = source
        self.step = step
        self.at = 0
        # text[mark] lies at `base` in the source: at a character of a text,
        # at a byte of a file; each character of a narrow window is one
        self.mark = self.base = 0
        if type(source) is str:
            self.text, self.done, self.narrow = source, True, True
        else:
            self.text, self.done, self.narrow = "", False, True
            self.read = 0
            self.decoder = codecs.getincrementaldecoder("utf-8")()

    def more(self) -> bool:
        """Read the next piece of the file onto the window, dropping what
        the walk has passed; False at the end of the document."""
        if self.done:
            return False
        self.base, self.mark = self.offset(self.at), 0
        rest = self.text[self.at :]
        self.text = ""
        size = max(self.step, len(rest))
        data = os.pread(self.source, size, self.read)
        self.read += len(data)
        self.done = len(data) < size  # a regular file reads short only at its end
        piece = self.decoder.decode(data, self.done)
        del data
        self.text, self.at = rest + piece, 0
        self.narrow = self.text.isascii()
        return True

    def offset(self, at: int) -> int:
        """Where `text[at]` lies in the source; `at` never moves back."""
        if self.narrow:
            return self.base + at - self.mark
        # each segment between two offsets is encoded once
        self.base += len(self.text[self.mark : at].encode())
        self.mark = at
        return self.base

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


def read_document(text: str) -> list[RawDiscourse]:
    """The raw discourses of a corpus document, after the checks of its JSON
    and top-level shape, which raise CorpusFormatError; none for a blank
    one (`str.isspace`). `build_discourse` builds each; the two make up
    `parse_corpus`."""
    return _index(_Window(text), lambda: text)


def read_file(fd: int, window: bool = True) -> list[RawDiscourse]:
    """The raw discourses of the corpus file open on descriptor `fd`, as
    `read_document` gives them for its text, and its errors; a file that is
    not UTF-8 raises UnicodeDecodeError at the byte where it stops being.

    A regular file is walked through a window (`_Window`), so the walk
    holds a read and the discourse it decodes, not the file. Each discourse
    of a file of several keeps where its JSON lies in the file, to be read
    back when it is built: `fd` must stay open until then. A file that
    cannot be read by offset, such as a pipe, and any file when `window` is
    False, is read whole as text."""

    def whole() -> str:
        # from where the file stands, which a window walk does not move
        with open(fd, encoding="utf-8", closefd=False) as fh:
            return fh.read()

    st = os.fstat(fd)
    if window and hasattr(os, "pread") and stat.S_ISREG(st.st_mode):
        step = st.st_size + 1 if st.st_size < _WHOLE else _READ
        return _index(_Window(fd, step), whole)
    return read_document(whole())


def _index(src: _Window, whole: Callable[[], str]) -> list[RawDiscourse]:
    """The discourses of the document `src`, walked once. Only a document
    that the walk does not take is read whole, as `whole()`, and handed to
    `_loads` for the located error; if `json.loads` takes it, the walk's
    own error propagates, as a fault of the walk."""
    try:
        top, items = _walk(src)
    except (ValueError, RecursionError):
        text = whole()
        if text.isspace():  # strip() would copy the text
            return []
        try:
            _loads(text)
        except json.JSONDecodeError as exc:
            where = f"line {exc.lineno}, column {exc.colno}"
            raise CorpusFormatError([Violation("malformed-json", where, exc.msg)]) from exc
        raise
    if top and items is None:
        message = "expected a 'discourses' list" if top == "{" else "expected an object or a list"
        raise CorpusFormatError([Violation("malformed-structure", "$", message)])
    return items or []


def _walk(src: _Window) -> tuple[str, Optional[list[RawDiscourse]]]:
    """The first character of the JSON document `src` ("" if it is blank)
    and its discourses: the top-level list, or the last "discourses" list
    of the top-level object (None when it has none). Raises ValueError or
    RecursionError at the first thing that `json.loads` would not take."""
    top = src.skip()
    items = None
    if top == "[":
        items = _walk_list(src)
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
            elif src.skip() == "[":
                items = _walk_list(src)
            else:
                items = None
                src.value()
            closed = _next(src, "}")
    elif top:
        src.value()
    if src.skip():
        raise ValueError("extra data")
    return top, items


def _walk_list(src: _Window) -> list[RawDiscourse]:
    """The discourses of the list that opens at the walk's position, which
    then moves past the list."""
    items: list[RawDiscourse] = []
    seen_ids: set[str] = set()
    src.at += 1
    closed = src.skip() == "]"
    src.at += closed
    while not closed:
        src.skip()
        start = src.offset(src.at)
        item = src.value()
        length = src.offset(src.at) - start
        loc = f"discourses[{len(items)}]"
        did = _discourse_id(item, loc)
        utterances = item.get("utterances") if did is not None else None
        size = len(utterances) if isinstance(utterances, list) else 0
        items.append(RawDiscourse(loc, did, did in seen_ids, size, src.source, start, length))
        if did is not None:
            seen_ids.add(did)
        closed = _next(src, "]")
    if len(items) == 1:
        # the last element decoded is the only one
        items[0] = items[0]._replace(source=None, item=item)
    return items


def _next(src: _Window, close: str) -> bool:
    """After a member of a container that `close` ends: move to the comma
    before the next member, or past the end of the container and True."""
    sep = src.skip()
    if sep != close and sep != ",":
        raise ValueError(f"expected ',' or '{close}'")
    src.at += 1
    return sep == close


def build_discourse(r: RawDiscourse) -> tuple[Optional[Discourse], list[Violation]]:
    """Decode, build and validate a raw discourse: the discourse built (None
    for an element that is not an object) and its diagnostics, a repeated
    id last."""
    if r.source is None:
        item = r.item
    elif type(r.source) is str:
        item = _DECODER.raw_decode(r.source, r.start)[0]
    else:
        item = _DECODER.raw_decode(os.pread(r.source, r.length, r.start).decode())[0]
    diags: list[Violation] = []
    d = _parse_discourse(item, r.loc, diags)
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
        tense_raw = _tag(utt, "tense", "nonpast", uloc, diags)
        tense = Tense.NONPAST if tense_raw is None else _TENSES.get(tense_raw.lower())
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
        # positional, in declaration order, which keeps the diagnostics' order
        utterances.append(
            Utterance(
                _get(utt, "index", "an integer", j, uloc, diags),
                tuple(expressions),
                tense,
                _get(utt, "text", "a string", None, uloc, diags),
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
    role_raw = _tag(expr, "role", "", loc, diags)
    role = GrammaticalRole.OTHERS if role_raw is None else _ROLES.get(role_raw.lower())
    if role is None:
        message = f"unknown role tag '{role_raw.lower()}'"
        diags.append(Violation("unknown-role", f"{loc}.role", message))
        role = GrammaticalRole.OTHERS
    form_raw = _tag(expr, "form", "overt", loc, diags)
    # A zero draws none of the follow-on violations of an overt NP.
    form = Form.ZERO if form_raw is None else _FORMS.get(form_raw.lower())
    if form is None:
        message = f"unknown form '{form_raw.lower()}'"
        diags.append(Violation("unknown-form", f"{loc}.form", message))
        form = Form.ZERO

    # The other keys are read once each and checked here, in the order of
    # their diagnostics, as `_get` would (`type(v) is int` rejects a bool).
    entity = expr.get("entity")
    if entity is not None and type(entity) is not str:
        diags.append(_malformed(loc, "entity", "a string"))
        entity = None
    constraints = expr.get("constraints")
    if type(constraints) is dict:
        constraints = _parse_constraints(constraints, loc, diags)
    elif constraints is not None:
        diags.append(_malformed(loc, "constraints", "an object"))
        constraints = None
    pos = expr.get("pos")
    if type(pos) is not int:
        if pos is not None:
            diags.append(_malformed(loc, "pos", "an integer"))
        pos = 0
    wa = expr.get("wa")
    if type(wa) is not bool:
        if wa is not None:
            diags.append(_malformed(loc, "wa", "a boolean"))
        wa = False
    ga = expr.get("ga")
    if type(ga) is not bool:
        if ga is not None:
            diags.append(_malformed(loc, "ga", "a boolean"))
        ga = False
    # positional, in declaration order
    return ReferringExpression(
        None if entity == "?" else entity, form, role, pos, wa, ga, constraints
    )


def _parse_constraints(
    raw: dict, loc: str, diags: list[Violation]
) -> ResolutionConstraints:
    """The constraints object of the expression at `loc`, its keys read and
    checked as in `_parse_expression`."""
    types = raw.get("types")
    if types is not None and not _strings(types):
        diags.append(_malformed(f"{loc}.constraints", "types", "a list of strings"))
        types = None
    cardinality = raw.get("cardinality")
    if cardinality is not None and type(cardinality) is not int:
        diags.append(_malformed(f"{loc}.constraints", "cardinality", "an integer"))
        cardinality = None
    gold = raw.get("gold")
    if gold is not None and type(gold) is not str and not _strings(gold):
        diags.append(_malformed(f"{loc}.constraints", "gold", "an id or a list of ids"))
        gold = None
    # positional, in declaration order
    return ResolutionConstraints(types or (), cardinality, gold)


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

#: The encoder of every machine line, of `analyze` and of `resolve`, built
#: once. The objects come with their keys sorted and hold no cycle, so it
#: neither sorts nor checks; its hook only turns resolution sets into sorted
#: lists.
RECORD_ENCODER = json.JSONEncoder(default=encode_resolution, check_circular=False)


def _machine_block(rep: DiscourseReport) -> str:
    encode = RECORD_ENCODER.encode
    lines = [encode(_UTTERANCE_OBJECT(u)) for u in rep.utterances]
    lines.append(encode(_DISCOURSE_OBJECT(rep)))
    lines.append("")  # the block's last newline, without copying the block again
    return "\n".join(lines)


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
    lines.append("")
    return "\n".join(lines)


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
