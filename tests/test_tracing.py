"""The benchmark's tracer must find every callable it names.

``bench/tracing.py`` looks modules and methods up by name; a traced run
fails when one of them is gone. It is loaded by path, as ``test_pins.py``
loads ``jobs.py``.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_functions_find_every_module_method_and_observer():
    tracing = _load_tracing()
    traced = tracing.traced_functions()  # raises on a missing module or method
    names = {entry[0] for entry in traced}
    assert {entry[1] for entry in traced} == set(tracing.LAYERS)
    for modname, classes in tracing.METHODS.items():
        layer = tracing.MODULES[modname]
        for clsname, methods in classes.items():
            assert {f"{layer}.{clsname}.{m}" for m in methods} <= names
    assert set(tracing.OBSERVERS) <= names
