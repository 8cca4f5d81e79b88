"""perfbench's tracer wraps the package functions named in
``perfbench/spans.py::LAYERS``; a name missing from the package makes
``Tracer.install()`` raise AttributeError on every traced run."""

import functools
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, names in spans.LAYERS.items():
        module = importlib.import_module(f"biharmonic.{module_name}")
        for qualified in names:
            target = functools.reduce(getattr, qualified.split("."), module)
            assert callable(target), f"{module_name}.{qualified}"
