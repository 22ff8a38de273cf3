"""Say which utterances' analyses differ between a git revision's `src/` and this tree's.

    python3 tools/behaviour_diff.py --parent REF [--fixtures-only]

The revision's `src/` is extracted with `git archive`. Each corpus is the
11 bundled fixtures together, or seeds 1-3 of a benchmark workload
(`short_batch`, `long_chain`, `topic_cues`) as `perfbench/corpus_gen.py`
writes them; that module is imported, never changed. Each configuration is
`analyze --format machine` at beam 1, 2, 4 or 64, or at the default beam
under `--no-zta` or `--no-global`. Each tree runs each corpus and
configuration as a CLI launch of its own, the same input for both.

For each corpus and configuration whose output differs, it prints how many
utterance lines differ, and the first three as `discourse uN: before →
after`, with only the fields that changed. It exits 0 and prints `no
change` when every output matches, and 1 otherwise. `--fixtures-only`
leaves out the workloads. Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("short_batch", "long_chain", "topic_cues")
SEEDS = (1, 2, 3)
CONFIGS = {
    "beam 1": ["--beam", "1"],
    "beam 2": ["--beam", "2"],
    "beam 4": ["--beam", "4"],
    "beam 64": ["--beam", "64"],
    "--no-zta": ["--no-zta"],
    "--no-global": ["--no-global"],
}
SHOWN = 3


def write_corpora(out: Path, fixtures_only: bool) -> dict[str, list[Path]]:
    """The corpus files to run, by corpus name, written under `out`."""
    corpora = {"fixtures": sorted((ROOT / "src" / "centering" / "fixtures").glob("*.json"))}
    if fixtures_only:
        return corpora
    path = ROOT / "perfbench" / "corpus_gen.py"
    spec = importlib.util.spec_from_file_location("corpus_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for workload in WORKLOADS:
        for seed in SEEDS:
            path = out / f"{workload}-{seed}.json"
            path.write_text(gen.corpus_text(gen.build_corpus(workload, seed)), encoding="utf-8")
            corpora[f"{workload} seed {seed}"] = [path]
    return corpora


def extract_src(ref: str, out: Path) -> Path:
    """The `src/` directory of the revision `ref`, extracted under `out`."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(out, filter="data")
        else:
            archive.extractall(out)
    return out / "src"


def analyze(src: Path, files: list[Path], options: list[str]) -> list[str]:
    """The machine lines of `analyze` on `files`, run on the package in `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "centering.cli", "analyze", "--format", "machine", *options]
    run = subprocess.run(
        [*argv, *map(str, files)], env=env, cwd=src, capture_output=True, text=True
    )
    if run.returncode != 0:
        raise SystemExit(f"{' '.join(argv[2:])} failed in {src}:\n{run.stderr}")
    return run.stdout.splitlines()


def by_utterance(lines: list[str]) -> dict[tuple, dict]:
    """Each utterance record, by its discourse and index."""
    records = (json.loads(line) for line in lines)
    return {(r["discourse"], r["index"]): r for r in records if r.get("record") == "utterance"}


def changed(one: dict | None, other: dict | None) -> str:
    """The fields of the record `one` that differ from `other`, as
    `key=value` pairs."""
    if one is None or other is None:
        return "absent" if one is None else "present"
    keys = sorted(k for k in one.keys() | other.keys() if one.get(k) != other.get(k))
    return ", ".join(f"{k}={json.dumps(one.get(k))}" for k in keys)


def compare(before: list[str], after: list[str]) -> list[str]:
    """The report of one corpus and configuration; empty when the outputs match."""
    if before == after:
        return []
    old, new = by_utterance(before), by_utterance(after)
    keys = sorted(old.keys() | new.keys())
    differ = [k for k in keys if old.get(k) != new.get(k)]
    lines = [f"{len(differ)} of {len(keys)} utterance lines differ"]
    if not differ:
        lines[0] += "; the discourse lines differ"
    for k in differ[:SHOWN]:
        b, a = old.get(k), new.get(k)
        lines.append(f"  {k[0]} u{k[1]}: {changed(b, a)} → {changed(a, b)}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="REF", required=True, help="git revision to compare")
    parser.add_argument("--fixtures-only", action="store_true", help="run the fixtures alone")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            parent = extract_src(args.parent, tmp / "parent")
        except subprocess.CalledProcessError as exc:
            parser.error(f"cannot extract {args.parent}: {exc.stderr.decode().strip()}")
        corpora = write_corpora(tmp, args.fixtures_only)
        differ = 0
        for name, files in corpora.items():
            for config, options in CONFIGS.items():
                report = compare(
                    analyze(parent, files, options), analyze(ROOT / "src", files, options)
                )
                if report:
                    differ += 1
                    print(f"{name}, {config}: {report[0]}", *report[1:], sep="\n")
        runs = len(corpora) * len(CONFIGS)
    print(f"{differ} of {runs} runs differ" if differ else "no change")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
