"""The benchmark's workloads and traced mode use the package by name."""

import importlib
import importlib.util
import json
import time
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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_first_request_succeeds(name, tmp_path, monkeypatch):
    # the traced run reads more than the plain one: each probe reads a result's
    # attributes inside the wrapped call, so a missing name fails that call
    lib = _lib()
    for mod in (lib.package, *lib.modules.values()):
        for attr, value in list(vars(mod).items()):
            monkeypatch.setattr(mod, attr, value)  # teardown undoes the wrappers
    tracer = tracing.Tracer()
    tracer.install(lib.package, lib.modules)
    workload = workloads.WORKLOADS[name]
    reqs = workload.setup(lib, 1, str(tmp_path))
    rec = workloads.Recorder()
    tracer.op += 1
    start = time.perf_counter()
    workload.request(lib, rec, reqs[0])  # a wrong answer raises WrongAnswer
    elapsed = time.perf_counter() - start
    assert rec.failed == 0, rec.failures
    assert any(span[tracing.OP] == 1 for span in tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans, 1, elapsed, 1.0)
    # the benchmark's runner adds the failed-op share and the trace.* timings itself
    listed = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in listed
                            if m["name"] != "ops_failed_frac" and not m["name"].startswith("trace.")}
