"""The benchmark's workloads and traced mode use the package by name."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _lib():
    """The namespace ``run.fresh_import`` builds, over the modules already imported."""
    modules = {m: importlib.import_module("cremona_orbits." + m) for m in tracing.TRACED}
    return SimpleNamespace(package=importlib.import_module("cremona_orbits"), modules=modules,
                           **modules)


def test_traced_names_are_callables_of_the_package():
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module("cremona_orbits." + module)
        for name in names:
            assert callable(getattr(mod, name, None)), "%s.%s" % (module, name)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_first_request_succeeds(name, tmp_path):
    # what the benchmark reads outside its recorder (report fields, certificate
    # keys, package names) must exist: a missing one would end the run itself
    workload = workloads.WORKLOADS[name]
    lib = _lib()
    reqs = workload.setup(lib, 1, str(tmp_path))
    rec = workloads.Recorder()
    workload.request(lib, rec, reqs[0])  # a wrong answer raises WrongAnswer
    assert rec.failed == 0, rec.failures
    assert rec.attempted > 0
