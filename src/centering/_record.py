"""Frozen records: the part of `dataclasses` that this package's records use.

`@dataclass(frozen=True)` and `@dataclass(frozen=True, slots=True)` build
the same immutable value classes as the standard decorator, from the same
declarations: annotated fields, defaults, `field(default=, init=, repr=,
compare=)` and an optional `__post_init__`. Only each record's `__init__` is
compiled. A slotted record's instance moves to the record's one base, an
unsealed twin that holds the slots, for plain stores of its fields and back
after them. Any other record sets them through `object.__setattr__`, which
builds no `__dict__` until one is asked for. Everything else is supplied once and shared by every record:

- assigning or deleting an attribute raises `FrozenInstanceError`;
- `==`, `hash` and `repr` run over the fields marked compared or shown, as
  the standard decorator computes them;
- records pickle through their field values alone, so an attribute
  computed on first use is computed again after unpickling;
- `fields` lists a record's fields and `replace` builds a copy with some
  fields changed, running `__init__` (and so `__post_init__`) again;
- `lazy` declares an attribute computed on first read and kept.

Importing this module loads nothing beyond `typing`, whereas the standard
decorator's module pulls in `inspect` and compiles six methods per class on
every start.
"""

from __future__ import annotations

from typing import Any, Optional, TypeVar

_T = TypeVar("_T")

_MISSING: Any = object()


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting an attribute of a record."""


class Field:
    """One declared field of a record."""

    __slots__ = ("name", "default", "init", "repr", "compare")

    def __init__(self, default: Any, init: bool, repr: bool, compare: bool) -> None:
        self.name = ""
        self.default = default
        self.init = init
        self.repr = repr
        self.compare = compare


def field(
    *, default: Any = _MISSING, init: bool = True, repr: bool = True, compare: bool = True
) -> Any:
    """Declare a field whose default, `__init__` parameter, repr or
    comparison differs from a plain annotated one."""
    return Field(default, init, repr, compare)


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


class lazy:
    """An attribute of a record with a `__dict__`, computed by `func` on
    first read and kept on the instance. Unlike Python 3.11's `cached_property`
    it takes no lock: two threads may both compute it, harmless for a pure `func`."""

    def __init__(self, func: Any) -> None:
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj: Any, owner: Any = None) -> Any:
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


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
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_repr__)
    return f"{self.__class__.__qualname__}({shown})"


def _getstate(self: Any) -> list:
    return [getattr(self, f.name) for f in self.__record_fields__]


def _setstate(self: Any, state: list) -> None:
    for f, value in zip(self.__record_fields__, state):
        object.__setattr__(self, f.name, value)


def _make_init(cls: type, unsealed: Optional[type], declared: tuple[Field, ...]) -> Any:
    """Compile `cls.__init__`: once its arguments are bound, it sets each
    field (see the module's docstring), then calls `__post_init__` if the
    class has one."""
    env: dict[str, Any] = {"_set": object.__setattr__, "_unsealed": unsealed, "_sealed": cls}
    params = ["self"]
    body = ["_set(self, '__class__', _unsealed)"] if unsealed else []
    store = "self.{} = {}" if unsealed else "_set(self, {!r}, {})"
    for f in declared:
        if f.default is not _MISSING:
            env[f"_d_{f.name}"] = f.default
        if f.init:
            params.append(f.name if f.default is _MISSING else f"{f.name}=_d_{f.name}")
            body.append(store.format(f.name, f.name))
        elif f.default is not _MISSING:
            body.append(store.format(f.name, f"_d_{f.name}"))
    if unsealed:
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


def dataclass(*, frozen: bool, slots: bool = False) -> Any:
    """The decorator that makes a class a frozen record, with `__slots__`
    when `slots` is true: `@dataclass(frozen=True)` or
    `@dataclass(frozen=True, slots=True)`."""
    if not frozen:
        raise TypeError("records are frozen: pass frozen=True")
    return lambda cls: _build(cls, slots)


def _build(cls: Any, slots: bool) -> Any:
    """The record class declared by `cls`. It is built anew, without the
    fields' class attributes: `__init__` sets every field on the instance,
    and a slot could not share its name with a class attribute."""
    declared = []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, Field):
            spec = Field(spec, True, True, True)
        spec.name = name
        declared.append(spec)
    declared = tuple(declared)
    dropped = {f.name for f in declared} | {"__dict__", "__weakref__"}
    members = {k: v for k, v in cls.__dict__.items() if k not in dropped}
    members.update(
        __qualname__=cls.__qualname__,
        __record_fields__=declared,
        __record_compare__=tuple(f.name for f in declared if f.compare),
        __record_repr__=tuple(f.name for f in declared if f.repr),
        __setattr__=_setattr,
        __delattr__=_delattr,
        __eq__=_eq,
        __hash__=_hash,
        __repr__=_repr,
        __getstate__=_getstate,
        __setstate__=_setstate,
    )
    bases, unsealed = cls.__bases__, None
    if slots:
        layout = {"__slots__": tuple(f.name for f in declared)}
        unsealed = type(cls)(f"{cls.__qualname__}.<unsealed>", bases, layout)
        bases, members["__slots__"] = (unsealed,), ()
    sealed = type(cls)(cls.__name__, bases, members)
    sealed.__init__ = _make_init(sealed, unsealed, declared)
    return sealed
