"""The benchmark's tracer must still find every function it wraps.

perfbench/tracer.py wraps hompoly functions by name and binds some of their
arguments by name; a rename or deletion in src/ would break the traced
benchmark run, so it fails here first.
"""

import importlib.util
import inspect
from pathlib import Path

from hompoly import reductions

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_layer():
    tracer = load_tracer()
    found = tracer.resolve()
    listed = {f"{mod}.{name}" for mod, names in tracer.LAYERS.items()
              for name in names}
    assert set(found) == listed
    assert all(callable(fn) for fn in found.values())


def test_budget_survivors_keeps_the_arguments_the_tracer_binds():
    params = inspect.signature(reductions.budget_survivors).parameters
    assert "free" in params and "pick" in params
