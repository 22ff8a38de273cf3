"""The line counter of tools/src_lines.py, on source texts alone (no git)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("tools_src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BEFORE = '''"""A module.

Two lines of docstring.
"""

# a comment


def f(x):
    """One line."""
    return x
'''

AFTER = '''"""A module."""


class C:
    """A class,
    over two lines."""

    size = 1  # a trailing comment keeps the line code

    def g(self):
        return self.size


def f(x):
    return x
'''


def test_count_text_skips_blank_comment_and_docstring_lines():
    tool = load_tool()
    assert tool.count_text(BEFORE) == (11, 2)
    assert tool.count_text(AFTER) == (15, 6)
    assert tool.count_text("") == (0, 0)
    assert tool.count_text(None) == (0, 0)


def test_delta_between_two_sources():
    tool = load_tool()
    assert tool.delta(BEFORE, AFTER) == (15, 6, 4, 4)
    assert tool.delta(AFTER, BEFORE) == (11, 2, -4, -4)
    # a module added, and one deleted
    assert tool.delta(None, AFTER) == (15, 6, 15, 6)
    assert tool.delta(BEFORE, None) == (0, 0, -11, -2)
