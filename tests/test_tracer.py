"""The benchmark tracer wraps library functions by attribute name.

``perfbench/tracer.py`` looks each span target up in its owner's own
``__dict__``, so a method that moves to a base class or a function that is
renamed would stop ``perfbench/run.py --trace 1`` from starting.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_spans_are_attributes_of_their_owners():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, path, _, _ in tracer.SPANS:
        *cls, attr = path.split(".")
        owner = getattr(module, cls[0]) if cls else module
        if attr not in vars(owner):
            missing.append(f"{module.__name__}.{path}")
    assert not missing
