"""The frozen-record contract, checked on every record class of the package
with instances taken from a parse and a run of the bundled fixtures."""

import dataclasses
import hashlib
import json
import pickle
import threading

import pytest

from centering import (
    CorpusFormatError,
    EngineConfig,
    coherence_step,
    evaluate_gold,
    load_fixture,
    parse_corpus,
    tabulate_transitions,
)
from centering import analysis, engine, hypotheses, model, resolution
from centering._record import _MISSING, fields, is_record, replace
from centering.corpus import FIXTURE_NAMES
from centering.engine import DiscourseState, finalize
from centering.model import CenteringHypothesis, Discourse, TransitionLabel, Utterance

RECORD_CLASSES = sorted(
    (
        value
        for module in (model, hypotheses, resolution, engine, analysis)
        for value in vars(module).values()
        if is_record(value) and isinstance(value, type) and value.__module__ == module.__name__
    ),
    key=lambda cls: cls.__name__,
)


def _reachable(roots):
    """Every record reachable from `roots` through fields and containers,
    grouped by class, each once."""
    found, seen, stack = {}, set(), list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, tuple, frozenset)):
            stack.extend(obj)
        elif is_record(obj) and id(obj) not in seen:
            seen.add(id(obj))
            found.setdefault(type(obj), []).append(obj)
            stack.extend(getattr(obj, f.name) for f in fields(obj))
    return found


@pytest.fixture(scope="module")
def instances():
    """Records of every class: the parsed fixtures, each step's state, the
    reports, tables and gold summary of the run, the parser's diagnostics,
    and the local resolutions the run made."""
    corpus = [load_fixture(name) for name in FIXTURE_NAMES]
    local = []
    with pytest.MonkeyPatch.context() as patch:
        calls = (engine.local_resolution, engine.expand_hypotheses)

        def resolve(*args):
            local.append(calls[0](*args))
            return local[-1]

        def expand(prev_set, u, outcomes, **kw):
            local.append(tuple(outcomes))
            return calls[1](prev_set, u, outcomes, **kw)

        patch.setattr(engine, "local_resolution", resolve)
        patch.setattr(engine, "expand_hypotheses", expand)
        states = []
        for d in corpus:
            state = DiscourseState(discourse=d, config=EngineConfig())
            for u in d.utterances:
                state = coherence_step(state, u)
            states.append(state)
    reports = [finalize(state) for state in states]
    with pytest.raises(CorpusFormatError) as bad:
        parse_corpus('{"discourses": [{"id": "x", "entities": 3}]}')
    roots = [corpus, states, reports, local, bad.value.diagnostics]
    roots += [tabulate_transitions(reports), evaluate_gold(reports, corpus)]
    return _reachable(roots)


def test_every_record_class_has_instances(instances):
    assert len(RECORD_CLASSES) == 19
    assert sorted(instances, key=lambda cls: cls.__name__) == RECORD_CLASSES


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise(instances, cls):
    x = instances[cls][0]
    for f in fields(x):
        with pytest.raises(AttributeError):
            setattr(x, f.name, getattr(x, f.name))
        with pytest.raises(AttributeError):
            delattr(x, f.name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(instances, cls):
    for x in instances[cls]:
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is cls
        assert back == x
        assert [getattr(back, f.name) for f in fields(x)] == [
            getattr(x, f.name) for f in fields(x)
        ]


def _mirror(cls):
    """A standard frozen dataclass with the fields and defaults of `cls`,
    named alike."""
    specs = [
        (
            f.name,
            object,
            dataclasses.field(
                default=dataclasses.MISSING if f.default is _MISSING else f.default,
                init=f.init,
                repr=f.compare,
                compare=f.compare,
            ),
        )
        for f in fields(cls)
    ]
    mirror = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
    mirror.__qualname__ = cls.__qualname__
    return mirror


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_eq_hash_repr_as_dataclasses_computes_them(instances, cls):
    mirror = _mirror(cls)

    def twin(x):
        m = object.__new__(mirror)
        for f in fields(x):
            object.__setattr__(m, f.name, getattr(x, f.name))
        return m

    xs = instances[cls][:50]
    for x in xs:
        assert repr(x) == repr(twin(x))
        assert hash(x) == hash(twin(x))
    for x, y in zip(xs, xs[1:]):
        assert (x == y) == (twin(x) == twin(y))
    # a record equals only records of its own class
    assert xs[0] != twin(xs[0])


@pytest.mark.parametrize(
    "cls, link", [(CenteringHypothesis, "parent"), (DiscourseState, "prev")]
)
def test_links_stay_out_of_eq_hash_and_repr(instances, cls, link):
    # a record whose link leads to a record with no promotion, so cutting
    # the link changes no other field
    linked = [x for x in instances[cls] if getattr(x, link) is not None]
    x = next(x for x in linked if getattr(getattr(x, link), "zta_count", 0) == 0)
    cut = replace(x, **{link: None})
    assert getattr(cut, link) is None
    assert cut == x and hash(cut) == hash(x) and repr(cut) == repr(x)
    assert f"{link}=" not in repr(x)


def test_replace_recomputes_zta_count(instances):
    h = next(h for h in instances[CenteringHypothesis] if h.parent and not h.zta_applied)
    promoted = replace(h, transition=TransitionLabel.ZTA_CONTINUE)
    assert promoted.zta_count == h.parent.zta_count + 1 == h.zta_count + 1
    assert replace(promoted, transition=h.transition).zta_count == h.zta_count
    with pytest.raises(ValueError):
        replace(h, zta_count=5)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_init_leaves_an_instance_of_the_record_class(instances, cls):
    """A record's `__init__` stores its fields on an unsealed twin class and
    moves the instance back; neither a new instance, its repr nor its pickle
    shows the twin, and the twin's instances stay unsealed."""
    for x in instances[cls][:20]:
        y = replace(x)
        assert type(y) is cls and y == x
        assert "unsealed" not in repr(y)
        data = pickle.dumps(y)
        assert b"unsealed" not in data
        assert type(pickle.loads(data)) is cls
    assert cls.__base__.__qualname__ == f"{cls.__qualname__}.<unsealed>"
    assert cls.__base__.__setattr__ is object.__setattr__


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_a_bad_call_raises_the_type_error_of_a_dataclass(instances, cls):
    mirror = _mirror(cls)
    given = {f.name: getattr(instances[cls][0], f.name) for f in fields(cls) if f.init}
    # an unknown keyword, one positional too many, a value given twice and,
    # where a field has no default, a missing one
    calls = [
        ((), {**given, "bogus": 1}),
        ((*given.values(), 1), {}),
        ((*given.values(),)[:1], given),
    ]
    if any(f.init and f.default is _MISSING for f in fields(cls)):
        calls.append(((), {}))
    for args, kwargs in calls:
        with pytest.raises(TypeError) as want:
            mirror(*args, **kwargs)
        with pytest.raises(TypeError) as got:
            cls(*args, **kwargs)
        assert str(got.value) == str(want.value)


def test_post_init_still_refuses_a_bad_value():
    with pytest.raises(ValueError, match="beam must be an int >= 1"):
        EngineConfig(beam=0)


#: Each derived field: its class, the `__init__` field it is derived from,
#: how to compute it from the record, and whether `==`, `hash` and `repr`
#: take part in it.
DERIVED = [
    (
        Utterance,
        "zeros",
        "expressions",
        lambda u: tuple(e for e in u.expressions if e.is_zero),
        False,
    ),
    (Discourse, "entity_map", "entities", lambda d: {e.id: e for e in d.entities}, False),
    (
        CenteringHypothesis,
        "zta_count",
        "parent",
        lambda h: sum(node.zta_applied for node in h.ancestry()),
        True,
    ),
    (CenteringHypothesis, "cf_ids", "cf", lambda h: tuple(eid for eid, _ in h.cf), False),
]


@pytest.mark.parametrize(
    "cls, name, source, derive, compared",
    DERIVED,
    ids=[f"{cls.__name__}.{name}" for cls, name, *_ in DERIVED],
)
def test_derived_field_is_rebuilt_and_never_pickled(
    instances, cls, name, source, derive, compared
):
    (spec,) = [f for f in fields(cls) if f.name == name]
    assert not spec.init and spec.compare is compared
    xs = [x for x in instances[cls] if getattr(x, source)][:20]
    assert xs
    for x in xs:
        assert getattr(x, name) == derive(x)
        # replace derives it again from the changed source field
        value = getattr(x, source)
        shorter = replace(x, **{source: None if is_record(value) else value[1:]})
        assert getattr(shorter, name) == derive(shorter)
        # a wrong value of the field changes no pickle byte, and unpickling
        # derives the right one again
        tampered = replace(x)
        object.__setattr__(tampered, name, None)
        assert pickle.dumps(tampered) == pickle.dumps(x)
        assert getattr(pickle.loads(pickle.dumps(tampered)), name) == getattr(x, name)
        if not compared:
            assert tampered == x and hash(tampered) == hash(x) and repr(tampered) == repr(x)
            assert f"{name}=" not in repr(x)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_every_record_is_slotted(instances, cls):
    assert cls.__slots__ == ()
    assert cls.__base__.__slots__ == tuple(f.name for f in fields(cls))
    for x in instances[cls]:
        assert not hasattr(x, "__dict__")


#: sha256 of `[[discourse id, utterance index, sorted overt entities], ...]`
#: over the bundled fixtures, as JSON, taken when the value was still kept
#: on the utterance after its first read.
OVERT_ENTITIES_SHA256 = "b9aff42e8521101acaefca78540cb1d1538732377a749b43bf66419b0b1e70b0"


def test_overt_entities_keep_their_values():
    corpus = [load_fixture(name) for name in FIXTURE_NAMES]
    assert all(isinstance(u.overt_entities, frozenset) for d in corpus for u in d.utterances)
    rows = [[d.id, u.index, sorted(u.overt_entities)] for d in corpus for u in d.utterances]
    assert hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest() == OVERT_ENTITIES_SHA256


def test_threads_reading_a_fresh_utterance_see_equal_values(instances):
    u = next(u for u in instances[Utterance] if u.zeros and u.overt_entities)
    for _ in range(20):
        fresh = replace(u)
        start = threading.Barrier(4)
        seen = []

        def read():
            start.wait()
            seen.append((fresh.zeros, fresh.overt_entities))

        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == [(u.zeros, u.overt_entities)] * 4
