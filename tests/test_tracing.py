"""The benchmark's traced mode looks up package functions by name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_are_callables_of_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module("cremona_orbits." + module)
        for name in names:
            assert callable(getattr(mod, name, None)), "%s.%s" % (module, name)
