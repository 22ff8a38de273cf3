"""Run the benchmark on several seeds per workload and summarize.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/BENCH_baseline.json

Each run is a separate `perfbench/run.py` process, with --seconds taken from
BENCHMARK.json: every workload in BENCHMARK.json untraced on SEEDS and traced
on TRACE_SEEDS. For every workload and end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to the metric's bound; per-layer metrics from the
traced runs are printed as medians. With --out, everything is also written
as JSON together with the machine, Python version, git commit, seeds and the
sha256 of the analyze output for each seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACE_SEEDS = SEEDS[:3]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and its result record."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / "results" / f"{workload}-s{seed}-t{trace}.json").read_text()
    )
    record["elapsed_s"] = elapsed
    return result, record


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary: dict = {"run_seconds": seconds, "seeds": SEEDS, "trace_seeds": TRACE_SEEDS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        e2e: dict[str, list[float]] = {}
        layers: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shas = {}
        elapsed = []
        attempted = failed = 0
        for trace, run_seeds, into in ((0, SEEDS, e2e), (1, TRACE_SEEDS, layers)):
            for seed in run_seeds:
                result, record = run_once(workload, seed, seconds, trace)
                summary.setdefault("environment", {
                    k: record[k] for k in ("machine", "processor", "nproc", "python", "git_commit")
                })
                elapsed.append(record["elapsed_s"])
                attempted += result["attempted"]
                failed += result["failed"]
                if trace == 0:
                    shas[seed] = record["analyze_sha256"]
                for name, metric in result["metrics"].items():
                    into.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
        summary["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "analyze_sha256": shas,
            "run_elapsed_s": {"max": max(elapsed), "mean": statistics.fmean(elapsed)},
            "end_to_end": {
                n: {"unit": units[n], "bound": bounds.get(n), **spread(v)} for n, v in e2e.items()
            },
            "per_layer": {
                n: {"unit": units[n], "median": statistics.median(v), "values": v}
                for n, v in layers.items()
            },
        }

        print(
            f"== {workload}: {attempted} operations, {failed} failed, "
            f"error_rate {failed / attempted:g}; runs took {min(elapsed):.1f}-{max(elapsed):.1f} s"
        )
        for n, s in summary["workloads"][workload]["end_to_end"].items():
            bound = s["bound"]
            flag = "" if bound is None or s["spread"] < bound / 3 else "  (spread >= bound/3)"
            print(
                f"  {n:20s} {s['median']:12.6g} {s['unit']:6s} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                f"spread {s['spread']:.3f} bound {bound}{flag}"
            )
        for n, s in summary["workloads"][workload]["per_layer"].items():
            print(f"  {n:45s} {s['median']:12.6g} {s['unit']}")
        sys.stdout.flush()

    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
