"""tools/behaviour_diff.py: its report of two outputs, and its run on the
fixtures against the checkout's own HEAD."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "behaviour_diff.py"


def test_a_difference_is_reported_by_utterance_and_field():
    spec = importlib.util.spec_from_file_location("behaviour_diff", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def line(index, **fields):
        return json.dumps({"record": "utterance", "discourse": "d", "index": index, **fields})

    before = [line(0, cb="a"), line(1, cb="a", label="CONTINUE"), line(2, cb="b")]
    after = [line(0, cb="a"), line(1, cb="b", label="CONTINUE"), line(3, cb="b")]
    assert tool.compare(before, before) == []
    assert tool.compare(before, after) == [
        "3 of 4 utterance lines differ",
        '  d u1: cb="a" → cb="b"',
        "  d u2: present → absent",
        "  d u3: absent → present",
    ]
    # outputs that differ only outside the utterance lines
    assert tool.compare(before, [*before, "{}"]) == [
        "0 of 3 utterance lines differ; the discourse lines differ"
    ]


def test_the_fixtures_analyze_as_at_head():
    # the working tree may differ from HEAD only in ways that keep the output
    if shutil.which("git") is None:
        pytest.skip("git is missing")
    top = ["git", "-C", str(ROOT), "rev-parse", "--verify", "--show-toplevel", "HEAD"]
    run = subprocess.run(top, capture_output=True, text=True)
    if run.returncode != 0 or Path(run.stdout.split("\n")[0]).resolve() != ROOT:
        pytest.skip("not a git checkout of its own with a HEAD")
    run = subprocess.run(
        [sys.executable, str(TOOL), "--parent", "HEAD", "--fixtures-only"],
        capture_output=True, text=True,
    )
    assert (run.returncode, run.stdout) == (0, "no change\n"), run.stderr
