"""The benchmark's traced pass still reaches every engine collaborator.

perfbench/traced.py times the engine by rebinding names inside
`centering.engine` for the length of a pass. A call moved out of that
module escapes the rebinding and silently records no span, so every name
it rebinds must still exist there and fire on the bundled fixtures, and
the counters that the benchmark records from those calls must keep their
recorded values. The benchmark's files are imported or read, never
written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import centering.engine as engine
from centering import load_fixture
from synth import serialize_corpus

from conftest import FIXTURES
from test_golden import load_corpus_gen

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED = PERFBENCH / "traced.py"

#: The per-layer counters pinned to their seed-1 values of
#: perfbench/BENCH_baseline.json: how often each traced call runs and what
#: it yields. A call dropped, added or moved out of `centering.engine`
#: changes one of them, though the output stays the same.
PINNED_COUNTERS = (
    "engine.coherence_step.calls",
    "engine.global_retrieve.calls",
    "engine.global_retrieve.hit_ratio",
    "hypotheses.expand_hypotheses.children",
    "hypotheses.prune_hypotheses.kept_ratio",
    "hypotheses.live_per_step",
    "resolution.local_resolution.calls",
    "resolution.local_resolution.hit_ratio",
    "resolution.form_set_candidates.calls",
    "resolution.form_set_candidates.sets",
)


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_fires_every_engine_name():
    traced = load_traced()
    originals = {name: getattr(engine, name) for name in traced.ENGINE_NAMES}
    text = serialize_corpus(load_fixture(name) for name in FIXTURES)

    tracer = traced.Tracer()
    traced.run_pass(text, tracer)

    for name, span in traced.ENGINE_NAMES.items():
        assert tracer.names.count(span) >= 1, span
        assert getattr(engine, name) is originals[name], name


@pytest.mark.parametrize("workload", ["long_chain", "topic_cues"])
def test_traced_counters_keep_their_seed_1_values(workload):
    traced = load_traced()
    gen = load_corpus_gen()
    baseline = json.loads((PERFBENCH / "BENCH_baseline.json").read_text(encoding="utf-8"))
    recorded = baseline["workloads"][workload]["per_layer"]
    assert baseline["trace_seeds"][0] == 1

    tracer = traced.Tracer()
    traced.run_pass(gen.corpus_text(gen.build_corpus(workload, 1)), tracer)
    metrics = traced.layer_metrics(tracer)

    got = {name: metrics[name] for name in PINNED_COUNTERS}
    assert got == {name: recorded[name]["values"][0] for name in PINNED_COUNTERS}
