"""Frozen records: the part of `dataclasses` that this package's records use.

`@record` builds the same immutable value classes as the standard
`@dataclass(frozen=True, slots=True)`, from the same declarations: annotated
fields, defaults, `field(default=, init=, compare=)` and an optional
`__post_init__`. Every record has one layout: its fields live in slots of
the record's one base, an unsealed twin, and no instance has a `__dict__`.
Only each record's `__init__` is compiled: it moves the instance to the
twin for plain stores of its fields and back after them. A derived field
(`init=False`) is set by `__post_init__` through `object.__setattr__`.
Everything else is supplied once and shared by every record:

- assigning or deleting an attribute raises `FrozenInstanceError`;
- `==`, `hash` and `repr` run over the compared fields, as the standard
  decorator computes them;
- a record pickles as a call of its class on its `__init__` fields, so a
  derived field is never pickled and is computed again on unpickling;
- `fields` lists a record's fields and `replace` builds a copy with some
  fields changed, running `__init__` (and so `__post_init__`) again.

Importing this module loads nothing beyond `typing`, whereas the standard
decorator's module pulls in `inspect` and compiles six methods per class on
every start.
"""

from __future__ import annotations

from typing import Any, TypeVar

_T = TypeVar("_T")

_MISSING: Any = object()


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting an attribute of a record."""


class Field:
    """One declared field of a record."""

    __slots__ = ("name", "default", "init", "compare")

    def __init__(self, default: Any, init: bool, compare: bool) -> None:
        self.name = ""
        self.default = default
        self.init = init
        self.compare = compare


def field(*, default: Any = _MISSING, init: bool = True, compare: bool = True) -> Any:
    """Declare a field that has a default, that `__init__` does not take (a
    derived field: `__post_init__` sets it, and no default is used), or
    that `==`, `hash` and `repr` leave out."""
    return Field(default, init, compare)


def fields(record: Any) -> tuple[Field, ...]:
    """The fields of a record class or instance, in declaration order."""
    return record.__record_fields__


def is_record(obj: Any) -> bool:
    """Whether `obj` is a record class or an instance of one."""
    return hasattr(obj, "__record_fields__")


def replace(record: _T, /, **changes: Any) -> _T:
    """A new record of the same class with `changes` applied; every other
    field that `__init__` takes keeps its value."""
    for f in record.__record_fields__:
        if not f.init:
            if f.name in changes:
                raise ValueError(f"field {f.name} is not an __init__ parameter")
        elif f.name not in changes:
            changes[f.name] = getattr(record, f.name)
    return record.__class__(**changes)


def _setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _values(record: Any, names: tuple[str, ...]) -> tuple:
    return tuple([getattr(record, name) for name in names])


def _eq(self: Any, other: Any) -> Any:
    if other.__class__ is not self.__class__:
        return NotImplemented
    names = self.__record_compare__
    return _values(self, names) == _values(other, names)


def _hash(self: Any) -> int:
    return hash(_values(self, self.__record_compare__))


def _repr(self: Any) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_compare__)
    return f"{self.__class__.__qualname__}({shown})"


def _reduce(self: Any) -> tuple:
    return self.__class__, _values(self, self.__record_init__)


def _make_init(cls: type, unsealed: type, declared: tuple[Field, ...]) -> Any:
    """Compile `cls.__init__`: once its arguments are bound, it stores each
    field (see the module's docstring), then calls `__post_init__` if the
    class has one."""
    env: dict[str, Any] = {"_set": object.__setattr__, "_unsealed": unsealed, "_sealed": cls}
    params = ["self"]
    body = ["_set(self, '__class__', _unsealed)"]
    for f in declared:
        if f.init:
            if f.default is not _MISSING:
                env[f"_d_{f.name}"] = f.default
            params.append(f.name if f.default is _MISSING else f"{f.name}=_d_{f.name}")
            body.append(f"self.{f.name} = {f.name}")
    body.append("_set(self, '__class__', _sealed)")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = (
        f"def _make({', '.join(env)}):\n"
        f" def __init__({', '.join(params)}):\n"
        + "".join(f"  {line}\n" for line in body)
        + " return __init__\n"
    )
    namespace: dict[str, Any] = {}
    exec(source, {}, namespace)
    init = namespace["_make"](**env)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def record(cls: Any) -> Any:
    """The frozen record class declared by `cls`. It is built anew, without
    the fields' class attributes: `__init__` sets every field on the
    instance, and a slot could not share its name with a class attribute."""
    declared = []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, Field):
            spec = Field(spec, True, True)
        spec.name = name
        declared.append(spec)
    declared = tuple(declared)
    dropped = {f.name for f in declared} | {"__dict__", "__weakref__"}
    members = {k: v for k, v in cls.__dict__.items() if k not in dropped}
    members.update(
        __qualname__=cls.__qualname__,
        __slots__=(),
        __record_fields__=declared,
        __record_compare__=tuple(f.name for f in declared if f.compare),
        __record_init__=tuple(f.name for f in declared if f.init),
        __setattr__=_setattr,
        __delattr__=_delattr,
        __eq__=_eq,
        __hash__=_hash,
        __repr__=_repr,
        __reduce__=_reduce,
    )
    layout = {"__slots__": tuple(f.name for f in declared)}
    unsealed = type(cls)(f"{cls.__qualname__}.<unsealed>", cls.__bases__, layout)
    sealed = type(cls)(cls.__name__, (unsealed,), members)
    sealed.__init__ = _make_init(sealed, unsealed, declared)
    return sealed
