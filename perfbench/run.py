"""Benchmark of cremona-orbits: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  One caller drives the public API and ``cli.main`` in this
process, one request at a time (a closed loop), and ``orbit_bfs`` runs with
one worker.  The run repeats the workload's job until ``--seconds`` is used
up (a job is started only while the median job so far still fits, and at
least one always runs).  Reported times are seconds at reference speed
(``speed``); the raw ones are in the facts.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
first times one untraced job, then installs the span wrappers of
``tracing``, sets up again and repeats the job traced; it prints the
per-layer metrics and writes the spans to ``perfbench/traces/``.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it records the machine and run facts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = "cremona_orbits"
SETUP_REPEATS = 5

sys.path.insert(0, HERE)
from speed import SpeedProbe  # noqa: E402
from tracing import OP, TRACED, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Recorder, WrongAnswer  # noqa: E402


def fresh_import():
    """Import the package from this checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == PKG or m.startswith(PKG + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PKG)
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise RuntimeError("imported %s from %s, not from %s" % (PKG, package.__file__, SRC))
    modules = {m: importlib.import_module("%s.%s" % (PKG, m)) for m in TRACED}
    return SimpleNamespace(package=package, modules=modules, **modules)


def git_commit():
    """The checked-out commit, read from .git without starting git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def run_facts(args, lib):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "package_version": lib.package.__version__,
        "git_commit": git_commit(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def run_jobs(workload, lib, reqs, seconds, tracer=None, max_jobs=None):
    """Repeat the job while the median job so far still fits in the rest of
    ``seconds``; return the (start, end) of each job, the (start, end) of each
    of its requests, the op recorder and the wrong answers seen."""
    rec = Recorder()
    jobs, requests, wrong = [], [], []
    clock = time.perf_counter
    start = clock()
    while not jobs or clock() - start + statistics.median(b - a for a, b in jobs) <= seconds:
        if max_jobs is not None and len(jobs) >= max_jobs:
            break
        job = []
        job_start = clock()
        for req in reqs:
            if tracer is not None:
                tracer.op += 1
            t0 = clock()
            try:
                workload.request(lib, rec, req)
            except WrongAnswer as e:
                wrong.append(str(e))
            job.append((t0, clock()))
        jobs.append((job_start, clock()))
        requests.append(job)
    return jobs, requests, rec, wrong


def tail_rank(n):
    """The highest percentile with at least 10 of ``n`` samples beyond it and
    its 0-based nearest rank; below 11 samples, the maximum."""
    if n < 11:
        return 100, n - 1
    p = 100 * (n - 10) // n
    return p, math.ceil(p * n / 100) - 1


def job_times(jobs, requests, length):
    """Medians over the jobs of the job's time, its median request and its tail
    request, with ``length(start, end)`` as the time of an interval.

    Each statistic is taken within one job, over the job's fixed list of
    requests, so it does not depend on how many jobs fit in a run.
    """
    rows = []
    for job, reqs in zip(jobs, requests):
        latencies = [length(a, b) for a, b in reqs]
        tail = sorted(latencies)[tail_rank(len(latencies))[1]]
        rows.append((length(*job), statistics.median(latencies), tail))
    return [statistics.median(column) for column in zip(*rows)]


def raw(t0, t1):
    return t1 - t0


def setup(workload, seed, workdir, probe):
    """Import plus input generation and writing, ``SETUP_REPEATS`` times; the
    last one is kept.  Returns the median set-up time scaled and raw."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        lib = fresh_import()
        os.makedirs(workdir)
        reqs = workload.setup(lib, seed, workdir)
        intervals.append((t0, time.perf_counter()))
    return (lib, reqs, statistics.median(probe.scaled(*i) for i in intervals),
            statistics.median(raw(*i) for i in intervals))


def measure(args, workload, workdir, probe):
    """Metrics of the run, in seconds at reference speed (see ``speed``)."""
    lib, reqs, setup_s, raw_setup_s = setup(workload, args.seed, workdir, probe)
    facts = run_facts(args, lib)
    if not args.trace:
        jobs, requests, rec, wrong = run_jobs(workload, lib, reqs, args.seconds)
        wall_s, op_p50_s, op_tail_s = job_times(jobs, requests, probe.scaled)
        facts["jobs"] = len(jobs)
        facts["op_tail"] = {"percentile": tail_rank(len(reqs))[0], "samples": len(reqs)}
        facts["slowdown"] = probe.slowdown(jobs[0][0], jobs[-1][1])
        facts["raw"] = dict(zip(("wall_s", "op_p50_s", "op_tail_s"),
                                job_times(jobs, requests, raw)), setup_s=raw_setup_s)
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_frac": (rec.attempted - rec.failed) / rec.attempted,
            "op_p50_s": op_p50_s,
            "op_tail_s": op_tail_s,
        }
        return facts, metrics, rec, wrong

    (untraced,), _, _, wrong = run_jobs(workload, lib, reqs, args.seconds, max_jobs=1)
    tracer = Tracer()
    tracer.install(lib.package, lib.modules)
    reqs = workload.setup(lib, args.seed, workdir)  # traced as op 0
    jobs, requests, rec, wrong_traced = run_jobs(workload, lib, reqs, args.seconds, tracer)
    n_requests = sum(len(job) for job in requests)
    facts["slowdown"] = probe.slowdown(jobs[0][0], jobs[-1][1])
    metrics = layer_metrics(tracer.spans, n_requests, sum(b - a for a, b in jobs),
                            1 / facts["slowdown"])
    metrics["ops_failed_frac"] = rec.failed / rec.attempted
    metrics["trace.wall_s"] = statistics.median(probe.scaled(a, b) for a, b in jobs)
    metrics["trace.untraced_wall_s"] = probe.scaled(*untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.spans"] = sum(1 for s in tracer.spans if s[OP] > 0) / n_requests
    os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
    tracer.dump(os.path.join(HERE, "traces", "%s-seed%d.jsonl.gz" % (args.workload, args.seed)),
                facts)
    return facts, metrics, rec, wrong + wrong_traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, PKG, "__init__.py")):
        print("perfbench: no %s package under %s; run from the root of a checkout"
              % (PKG, SRC), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        with SpeedProbe() as probe:
            facts, metrics, rec, wrong = measure(args, workload, workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError("metrics %s differ from BENCHMARK.json"
                           % sorted(set(metrics) ^ set(units)))
    for line in rec.failures:
        print("failed op: %s" % line, file=sys.stderr)
    for line in wrong:
        print("WRONG ANSWER: %s" % line, file=sys.stderr)
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
