"""In-process run of the corpus pipeline with spans around calls into each layer.

The pipeline is the union of what the CLI commands do, plus the two
library-only calls: parse, validate, run the engine, serialize the machine
report, read it back, tabulate, and score against gold. An untraced pass and
a traced pass alternate, so the tracing overhead is measured on the same
input.

Spans are recorded from the benchmark's side only. Top-level calls are
wrapped directly. The engine imports its collaborators by name, so the names
inside `centering.engine` are rebound for the length of a traced pass and
restored after it. `core.rank_cf` and `hypotheses.rank_key` run inside sorts
and stay unwrapped; their cost is part of expand and prune self time.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter

import centering.engine as engine_mod
from centering import (
    chi_square_2x2,
    evaluate_gold,
    parse_corpus,
    read_reports,
    run_corpus,
    serialize_reports,
    tabulate_disambiguation,
    tabulate_transitions,
    validate_discourse,
)

# Names rebound inside centering.engine during a traced pass, with the span
# name each one records under.
ENGINE_NAMES = {
    "run_discourse": "engine.run_discourse",
    "coherence_step": "engine.coherence_step",
    "finalize": "engine.finalize",
    "push_cb": "engine.push_cb",
    "global_retrieve": "engine.global_retrieve",
    "expand_hypotheses": "hypotheses.expand_hypotheses",
    "prune_hypotheses": "hypotheses.prune_hypotheses",
    "local_resolution": "resolution.local_resolution",
    "form_set_candidates": "resolution.form_set_candidates",
}


class Tracer:
    """Spans kept in memory as parallel lists; a span's parent is the span
    open when it started (-1 at top level)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.attrs: dict[int, tuple] = {}
        self.counts: Counter = Counter()
        self._open = [-1]

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1])
            self.starts.append(0)
            self.ends.append(0)
            self._open.append(i)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._open.pop()
                self.starts[i] = t0
                self.ends[i] = t1
            if on_result is not None:
                on_result(self, i, args, result)
            return result

        return traced

    def durations(self, name: str) -> list[int]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def dump(self, path) -> None:
        table = sorted(set(self.names))
        code = {n: k for k, n in enumerate(table)}
        rows = [
            [code[n], s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table, "spans": rows, "unit": "ns"}, fh)


# -- per-call counters, recorded where the work happens -----------------------


def _on_step(tr: Tracer, i: int, args, result) -> None:
    state, u = args
    tr.attrs[i] = (u.index, len(state.discourse.utterances), not state.hypotheses)


def _on_expand(tr: Tracer, i: int, args, result) -> None:
    tr.counts["expand.children"] += len(result)


def _on_prune(tr: Tracer, i: int, args, result) -> None:
    tr.counts["prune.in"] += len(args[0])
    tr.counts["prune.kept"] += len(result)


def _on_retrieve(tr: Tracer, i: int, args, result) -> None:
    tr.counts["global.hits"] += result.value is not None


def _on_local(tr: Tracer, i: int, args, result) -> None:
    tr.counts["local.hits"] += result.entity_id is not None


def _on_sets(tr: Tracer, i: int, args, result) -> None:
    tr.counts["sets"] += len(result)


ON_RESULT = {
    "coherence_step": _on_step,
    "expand_hypotheses": _on_expand,
    "prune_hypotheses": _on_prune,
    "global_retrieve": _on_retrieve,
    "local_resolution": _on_local,
    "form_set_candidates": _on_sets,
}


def run_pass(text: str, tracer: Tracer | None = None) -> str:
    """One pass of the pipeline; returns the machine report text."""
    def call(name, fn):
        return fn if tracer is None else tracer.wrap(name, fn)

    saved = {}
    if tracer is not None:
        for attr, span in ENGINE_NAMES.items():
            saved[attr] = getattr(engine_mod, attr)
            setattr(engine_mod, attr, tracer.wrap(span, saved[attr], ON_RESULT.get(attr)))
    try:
        discourses = call("corpus.parse_corpus", parse_corpus)(text)
        validate = call("model.validate_discourse", validate_discourse)
        for d in discourses:
            validate(d)
        reports = call("engine.run_corpus", run_corpus)(discourses)
        machine = call("corpus.serialize_reports", serialize_reports)(reports, "machine")
        call("corpus.read_reports", read_reports)(machine)

        def tabulate():
            table = tabulate_transitions(reports)
            tabulate_disambiguation(reports)
            if table.grand_total:
                chi_square_2x2(*table.continue_vs_rest())

        call("analysis.tabulate", tabulate)()
        call("analysis.evaluate_gold", evaluate_gold)(reports, discourses)
    finally:
        for attr, fn in saved.items():
            setattr(engine_mod, attr, fn)
    return machine


def _pct(values: list[int], q: float) -> int:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass (times in seconds unless the
    name says otherwise)."""
    total = {}
    for name, s, e in zip(tr.names, tr.starts, tr.ends):
        total[name] = total.get(name, 0) + e - s
    own = tr.self_times()
    step_self = sum(t for n, t in zip(tr.names, own) if n == "engine.coherence_step")
    steps = tr.durations("engine.coherence_step")
    discourses = tr.durations("engine.run_discourse")

    # step time by relative position in its discourse, seed steps left out
    first, last = [], []
    for i, (index, length, seed) in tr.attrs.items():
        if seed or length < 3:
            continue
        decile = min(9, 10 * (index - 1) // (length - 1))
        if decile == 0:
            first.append(tr.ends[i] - tr.starts[i])
        elif decile == 9:
            last.append(tr.ends[i] - tr.starts[i])

    c = tr.counts
    calls = Counter(tr.names)
    ns = 1e-9

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "corpus.parse_corpus.s": total.get("corpus.parse_corpus", 0) * ns,
        "corpus.serialize_reports.s": total.get("corpus.serialize_reports", 0) * ns,
        "corpus.read_reports.s": total.get("corpus.read_reports", 0) * ns,
        "model.validate_discourse.s": total.get("model.validate_discourse", 0) * ns,
        "engine.run_corpus.s": total.get("engine.run_corpus", 0) * ns,
        "engine.run_discourse.p50_ms": _pct(discourses, 0.5) * 1e-6,
        "engine.run_discourse.p99_ms": _pct(discourses, 0.99) * 1e-6,
        "engine.coherence_step.calls": calls["engine.coherence_step"],
        "engine.coherence_step.self_s": step_self * ns,
        "engine.coherence_step.p50_us": _pct(steps, 0.5) * 1e-3,
        "engine.coherence_step.p99_us": _pct(steps, 0.99) * 1e-3,
        "engine.step_growth": ratio(statistics.fmean(last), statistics.fmean(first))
        if first and last
        else 0.0,
        "engine.finalize.s": total.get("engine.finalize", 0) * ns,
        "engine.push_cb.s": total.get("engine.push_cb", 0) * ns,
        "engine.global_retrieve.calls": calls["engine.global_retrieve"],
        "engine.global_retrieve.s": total.get("engine.global_retrieve", 0) * ns,
        "engine.global_retrieve.hit_ratio": ratio(c["global.hits"], calls["engine.global_retrieve"]),
        "hypotheses.expand_hypotheses.s": total.get("hypotheses.expand_hypotheses", 0) * ns,
        "hypotheses.expand_hypotheses.children": c["expand.children"],
        "hypotheses.prune_hypotheses.s": total.get("hypotheses.prune_hypotheses", 0) * ns,
        "hypotheses.prune_hypotheses.kept_ratio": ratio(c["prune.kept"], c["prune.in"]),
        "hypotheses.live_per_step": ratio(c["prune.kept"], calls["hypotheses.prune_hypotheses"]),
        "resolution.local_resolution.calls": calls["resolution.local_resolution"],
        "resolution.local_resolution.s": total.get("resolution.local_resolution", 0) * ns,
        "resolution.local_resolution.hit_ratio": ratio(c["local.hits"], calls["resolution.local_resolution"]),
        "resolution.form_set_candidates.calls": calls["resolution.form_set_candidates"],
        "resolution.form_set_candidates.s": total.get("resolution.form_set_candidates", 0) * ns,
        "resolution.form_set_candidates.sets": c["sets"],
        "analysis.tabulate.s": total.get("analysis.tabulate", 0) * ns,
        "analysis.evaluate_gold.s": total.get("analysis.evaluate_gold", 0) * ns,
    }
