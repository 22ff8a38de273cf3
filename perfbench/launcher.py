"""Launches CLI children for run.py and reports their wall time and rusage.

run.py starts this as a helper process and sends one JSON request per line
on its standard input: {"argv", "stdout", "stderr", "cwd"}, the last three
paths. For each, the helper launches the child, reaps it with os.wait4, and
answers with one JSON line: {"wall_s", "calib_s", "returncode",
"maxrss_kb"}, where calib_s is the mean duration of a fixed calibration loop
timed just before and just after the child. It exits at the end of its
input.

Why a helper: Linux carries the exec'ing process's memory high-water mark
into the child's ru_maxrss, so children launched from run.py itself, which
holds the corpus and the parsed reports, would report run.py's peak instead
of their own. This process stays small, so a child's ru_maxrss is its own.

Why the calibration loop: on a shared machine the speed of the processor
changes by a third within tens of seconds, and the child's CPU time moves
with its wall time. The loop is fixed pure-Python work that no change to the
program can affect, timed right before and right after each child, so run.py
can scale the child's wall time to a steady machine speed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

LAUNCH_TIMEOUT_S = 60
CALIBRATION_ROUNDS = 400

_ITEMS = [((i * 7919) % 1009 / 1009, f"e{i % 97}", i) for i in range(400)]


def calibrate() -> float:
    """Seconds for a fixed mix of sorting, dict updates and JSON encoding on
    small data, so the helper's own memory stays small."""
    t0 = time.perf_counter()
    total = 0
    for r in range(CALIBRATION_ROUNDS):
        ordered = sorted(_ITEMS, key=lambda t: (t[0] + r % 3, t[1]))
        seen: dict[str, int] = {}
        for _score, name, i in ordered:
            seen[name] = seen.get(name, 0) + i
        total += len(json.dumps(ordered[:40])) + len(seen)
    return time.perf_counter() - t0


def launch(argv: list[str], stdout: str, stderr: str, cwd: str) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=cwd)
        timer = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "returncode": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> int:
    # the calibration after one child is the one before the next
    before = calibrate()
    for line in sys.stdin:
        req = json.loads(line)
        reply = launch(req["argv"], req["stdout"], req["stderr"], req["cwd"])
        after = calibrate()
        reply["calib_s"] = (before + after) / 2
        before = after
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
