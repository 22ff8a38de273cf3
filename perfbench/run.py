"""Centering benchmark: one run of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload short_batch --seed 1 --seconds 30 --trace 0

The corpus is generated from the seed (corpus_gen.py) and written to a
scratch directory under perfbench/out/, which is removed at the end.

--trace 0 launches the real CLI, `python -m centering.cli` with the
repository's `src/` on PYTHONPATH, one child at a time through the
launcher.py helper, and reports the end-to-end metrics:

- setup_s: median time of CLI launches on an empty corpus (interpreter
  start, package import from cached bytecode, argparse): one warm-up launch,
  SETUP_LAUNCHES launches, then one more before each analyze/stats pair;
- analyze_s / stats_s: median time of `analyze --format machine` and
  `stats --format machine` on the corpus, launched alternately while the
  last empty/analyze/stats triple would still end within --seconds of the
  run's start;
- analyze_utt_per_s: corpus utterances over analyze_s;
- peak_rss_mb: median peak RSS of the analyze child, from os.wait4 on it;
- success_rate: launches that exited 0 and passed the output checks
  (checks.py), over launches attempted: one minus the error rate, which is 0
  when nothing fails.

Times are scaled wall times. The processor of a shared machine changes speed
by a third within tens of seconds, so each child's wall time is multiplied by
CALIBRATION_REFERENCE_S over the duration of a fixed calibration loop timed
next to it (see launcher.py). The result is the wall time the launch would
have taken at the machine's usual speed; the unscaled medians are kept in the
run record.

--trace 1 runs the same pipeline in process (traced.py), alternating
untraced and traced passes under the same deadline, and reports the per-layer metrics as
medians over the traced passes, with trace.overhead_ratio. The spans of the
last traced pass are written to perfbench/out/spans-<workload>-s<seed>.json.

Each run writes a record with the machine, nproc, Python version, git commit,
seed, sample counts and the sha256 of the analyze output to
perfbench/out/results/. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_LAUNCHES = 10
MIN_PAIRS = 3
MIN_PASSES = 2
# Median duration of launcher.calibrate() on the machine the baseline was
# taken on (2-vCPU Xeon VM, Python 3.11.7); scaled times are seconds at that
# speed.
CALIBRATION_REFERENCE_S = 0.09
_BYTECODE_SETTINGS = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def _git_commit() -> str | None:
    """Commit of the checkout; None when it is not a git repository (git
    does not look above ROOT) or git is missing."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _environment(args: argparse.Namespace) -> dict:
    uname = platform.uname()
    return {
        "machine": f"{uname.system} {uname.release} {uname.machine}",
        "processor": uname.processor or None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Launcher:
    """The launcher.py helper process: launches CLI children one at a time."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def launch(self, argv: list[str], out_path: Path) -> "Launch":
        err_path = out_path.with_suffix(".err")
        request = {
            "argv": [sys.executable, "-m", "centering.cli", *argv],
            "stdout": str(out_path),
            "stderr": str(err_path),
            "cwd": str(ROOT),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher helper exited")
        return Launch(json.loads(reply), out_path, err_path)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Launch:
    """One CLI child as the launcher reported it, with its output."""

    def __init__(self, reply: dict, out_path: Path, err_path: Path) -> None:
        self.wall_s = reply["wall_s"]
        self.calib_s = reply["calib_s"]
        self.scaled_s = reply["wall_s"] * CALIBRATION_REFERENCE_S / reply["calib_s"]
        self.returncode = reply["returncode"]
        self.rss_mb = reply["maxrss_kb"] / 1024  # ru_maxrss is in KiB on Linux
        self.output = out_path.read_bytes()
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")
        self.sha256 = hashlib.sha256(self.output).hexdigest()


def run_cli(args: argparse.Namespace, corpus: dict, text: str, work: Path, deadline: float) -> dict:
    from checks import LaunchChecks

    corpus_path = work / "corpus.json"
    corpus_path.write_text(text, encoding="utf-8")
    empty_path = work / "empty.json"
    empty_path.write_text('{"discourses": []}\n', encoding="utf-8")
    n_utts = sum(len(d["utterances"]) for d in corpus["discourses"])

    checks = LaunchChecks(corpus)
    attempted = failed = 0
    problems: list[str] = []
    analyze, stats = [], []

    # Children cache bytecode, as an installed package does: the warm-up
    # launch writes src/centering/__pycache__ whatever the caller's settings.
    env = {k: v for k, v in os.environ.items() if k not in _BYTECODE_SETTINGS}
    launcher = Launcher({**env, "PYTHONPATH": str(SRC)})
    try:
        def launch(kind: str) -> Launch:
            nonlocal attempted, failed
            command = "analyze" if kind == "empty" else kind
            path = empty_path if kind == "empty" else corpus_path
            one = launcher.launch([command, "--format", "machine", str(path)], work / f"{kind}.out")
            attempted += 1
            if one.returncode != 0:
                bad = [f"{kind} exited {one.returncode}: {one.stderr.strip()[-300:]}"]
            else:
                bad = checks.problems(kind, one.output, one.sha256)
            if bad:
                failed += 1
                problems.extend(bad)
            return one

        launch("empty")  # warm-up: the first launch compiles the package's bytecode
        setup = [launch("empty") for _ in range(SETUP_LAUNCHES)]
        last = 0.0
        while len(stats) < MIN_PAIRS or time.perf_counter() + last < deadline:
            t0 = time.perf_counter()
            setup.append(launch("empty"))
            analyze.append(launch("analyze"))
            stats.append(launch("stats"))
            last = time.perf_counter() - t0
    finally:
        launcher.close()

    def median(launches, attr="scaled_s"):
        return statistics.median(getattr(x, attr) for x in launches)

    analyze_s = median(analyze)
    metrics = {
        "setup_s": median(setup),
        "analyze_s": analyze_s,
        "stats_s": median(stats),
        "analyze_utt_per_s": n_utts / analyze_s,
        "peak_rss_mb": median(analyze, "rss_mb"),
        "success_rate": (attempted - failed) / attempted,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": metrics,
        "wall_s": {
            "setup": median(setup, "wall_s"),
            "analyze": median(analyze, "wall_s"),
            "stats": median(stats, "wall_s"),
        },
        "samples": {"setup": len(setup), "analyze": len(analyze), "stats": len(stats)},
        "launches": {
            kind: [[x.wall_s, x.calib_s] for x in launches]
            for kind, launches in (("setup", setup), ("analyze", analyze), ("stats", stats))
        },
        "utterances": n_utts,
        "analyze_sha256": checks.first_sha.get("analyze"),
        "stats_sha256": checks.first_sha.get("stats"),
    }


def run_traced(args: argparse.Namespace, corpus: dict, text: str, work: Path, deadline: float) -> dict:
    from checks import LaunchChecks
    import traced

    checks = LaunchChecks(corpus)
    attempted = failed = 0
    problems: list[str] = []
    plain, timed, per_pass = [], [], []
    last = 0.0
    while len(timed) < MIN_PASSES or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        for tracer in (None, traced.Tracer()):
            t0 = time.perf_counter()
            machine = traced.run_pass(text, tracer).encode("utf-8")
            (plain if tracer is None else timed).append(time.perf_counter() - t0)
            attempted += 1
            bad = checks.problems("analyze", machine, hashlib.sha256(machine).hexdigest())
            if bad:
                failed += 1
                problems.extend(bad)
        per_pass.append(traced.layer_metrics(tracer))
        last = time.perf_counter() - start

    tracer.dump(work.parent / f"spans-{args.workload}-s{args.seed}.json")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(timed) / statistics.median(plain)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": metrics,
        "samples": {"untraced": len(plain), "traced": len(timed)},
        "utterances": sum(len(d["utterances"]) for d in corpus["discourses"]),
        "analyze_sha256": checks.first_sha.get("analyze"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    if not (SRC / "centering" / "cli.py").is_file():
        print(f"error: no centering sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus_gen

    if args.workload not in corpus_gen.WORKLOADS:
        print(f"error: unknown workload '{args.workload}'", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    corpus = corpus_gen.build_corpus(args.workload, args.seed)
    text = corpus_gen.corpus_text(corpus)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = run_traced if args.trace else run_cli
        result = run(args, corpus, text, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(result["metrics"]) != set(units):
        print(f"error: metrics {sorted(set(result['metrics']) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 2
    record = {**_environment(args), **result}
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(f"analyze_sha256 {args.workload} seed={args.seed} {result['analyze_sha256']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
