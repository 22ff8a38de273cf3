"""The benchmark's traced pass still reaches every engine collaborator.

perfbench/traced.py times the engine by rebinding names inside
`centering.engine` for the length of a pass. A call moved out of that
module escapes the rebinding and silently records no span, so every name
it rebinds must still exist there and fire on the bundled fixtures. The
benchmark script is imported and only read.
"""

import importlib.util
from pathlib import Path

import centering.engine as engine
from centering import load_fixture
from synth import serialize_corpus

from conftest import FIXTURES

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


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
