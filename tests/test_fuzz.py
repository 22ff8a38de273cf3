"""Mutated fixtures: every input ends in a result or a located format error.

Each example rewrites one to three fields of a bundled fixture to a value of
another JSON type or to a declared entity id, then checks that parsing is
total, that no command reports an internal fault (exit 2), and that every
engine-backed command accepts exactly the inputs `validate` accepts.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from centering import CorpusFormatError, parse_corpus
from centering.cli import main
from centering.corpus import FIXTURE_NAMES, fixture_text

FIXTURE_DATA = {name: json.loads(fixture_text(name)) for name in FIXTURE_NAMES}
ENGINE_COMMANDS = ("analyze", "stats", "resolve", "eval")


def _paths(node, prefix=()):
    """Key/index path of every value below the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _set(data, path, value) -> None:
    """Replace the value at `path`, unless an earlier mutation removed it."""
    node = data
    try:
        for key in path[:-1]:
            node = node[key]
        node[path[-1]]  # raises when the value is gone
        node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.floats(-2, 12, allow_nan=False),
    st.text(max_size=4),
    st.lists(st.integers(-1, 3) | st.text(max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["id", "pos", "types"]), st.integers(0, 2), max_size=1),
)


@st.composite
def mutated_fixtures(draw):
    name = draw(st.sampled_from(FIXTURE_NAMES))
    data = json.loads(json.dumps(FIXTURE_DATA[name]))
    ids = [e["id"] for d in data["discourses"] for e in d["entities"]]
    paths = st.lists(st.sampled_from(list(_paths(data))), min_size=1, max_size=3, unique=True)
    for path in draw(paths):
        _set(data, path, draw(JSON_VALUES | st.sampled_from(ids)))
    return json.dumps(data)


def _exit_code(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=mutated_fixtures())
def test_mutated_fixture_ends_in_result_or_format_error(text, tmp_path):
    try:
        parse_corpus(text)
        parsed = True
    except CorpusFormatError as exc:
        assert exc.diagnostics
        parsed = False
    path = tmp_path / "mutated.centering.json"
    path.write_text(text, encoding="utf-8")
    validate = _exit_code("validate", str(path))
    assert validate == (0 if parsed else 1)
    for command in ENGINE_COMMANDS:
        assert _exit_code(command, str(path)) == validate, command
