"""Spans around the package's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every module
of the package that holds a name bound to it (``canonical_form``, say, is
bound in ``canonical``, ``orbit``, ``cli`` and the package itself), so calls
between modules are traced too.  Nothing under ``src/`` changes; an untraced
run never installs the wrappers.

A span is ``[name, start, end, parent, op, failed, probe]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the request the span
belongs to (0 for set-up), ``probe`` a value read off the call's arguments or
result for the per-layer counts.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
import time
from collections import defaultdict


def _bits(rows):
    return max(abs(v).bit_length() for r in rows for v in r)


def _size(args, result):
    return os.path.getsize(args[0])


# module -> functions traced; the layers of the package
TRACED = {
    "linalg": ("det4", "adjugate4", "mat_vec", "det_bareiss", "mat_mul", "rank", "charpoly"),
    "projective": ("star_violation", "cremona_at", "coplanar", "random_config"),
    "canonical": ("canonical_form",),
    "lattice": ("coxeter_relations", "jordan_certificate", "distinctness_certificate",
                "iterate_class"),
    "orbit": ("coxeter_iterate", "consistency_check", "coplanar_scan", "orbit_bfs"),
    "serialize": ("load_config", "report_to_obj", "dump_json", "write_degree_csv",
                  "orbit_to_obj", "write_manifest"),
    "cli": ("main",),
}

PROBES = {
    "linalg.det4": lambda args, result: _bits(args[0]),
    "projective.star_violation": lambda args, result: result is not None,
    "canonical.canonical_form": lambda args, result: (
        args[0].k, _bits(p.coords for p in args[0].points), len(result)),
    "lattice.coxeter_relations": lambda args, result: args[0],
    "lattice.distinctness_certificate": lambda args, result: args[0].k,
    "orbit.coxeter_iterate": lambda args, result: max(result.bit_lengths),
    "orbit.orbit_bfs": lambda args, result: (
        len(result.nodes), len(result.edges), len(result.degenerate)),
    "serialize.dump_json": _size,
    "serialize.write_degree_csv": _size,
    "cli.main": lambda args, result: result,
}

NAME, START, END, PARENT, OP, FAILED, PROBE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0

    def _wrap(self, name, fn, probe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[PROBE] = probe(args, result)
            return result

        return traced

    def install(self, package, modules):
        """Bind a wrapper for each traced function wherever the package binds it."""
        holders = [package, *modules.values()]
        for short, names in TRACED.items():
            for fname in names:
                original = getattr(modules[short], fname)
                qual = "%s.%s" % (short, fname)
                wrapper = self._wrap(qual, original, PROBES.get(qual))
                for mod in holders:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def dump(self, path, facts):
        """Write the facts and then one span per line, gzip-compressed JSON."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write(json.dumps({"facts": facts, "fields": [
                "name", "start", "end", "parent", "op", "failed"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s[:6]) + "\n")


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, requests, job_seconds, scale):
    """Per-layer metrics from the spans of the traced jobs (``op`` >= 1).

    Counts and self times are means per request.  ``job_seconds`` is the
    summed wall time of the traced jobs, the base of ``share``; every time
    (a name ending in ``_s``) is multiplied by ``scale``.
    """
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]

    calls = defaultdict(int)
    self_s = defaultdict(float)
    failed = defaultdict(int)
    setup_self = defaultdict(float)
    by_name = defaultdict(list)  # name -> [(index, span)] of the timed jobs
    for i, s in enumerate(spans):
        self_time = s[END] - s[START] - child[i]
        if s[OP] == 0:
            setup_self[s[NAME]] += self_time
            continue
        calls[s[NAME]] += 1
        self_s[s[NAME]] += self_time
        failed[s[NAME]] += s[FAILED]
        by_name[s[NAME]].append((i, s))

    def dur(s):
        return s[END] - s[START]

    def probes(name):
        return [s[PROBE] for _, s in by_name[name] if s[PROBE] is not None]

    per = 1.0 / max(requests, 1)
    out = {}
    for short, names in TRACED.items():
        for fname in names:
            qual = "%s.%s" % (short, fname)
            out[qual + ".calls"] = calls[qual] * per
            out[qual + ".self_s"] = self_s[qual] * per
    out["projective.random_config.self_s"] = setup_self["projective.random_config"]

    out["linalg.det4.operand_bits_max"] = max(probes("linalg.det4"), default=0)
    out["projective.star_violation.violations"] = sum(probes("projective.star_violation")) * per

    # canonical form: latency, share of the job, and the ROADMAP baseline rows
    canon = by_name["canonical.canonical_form"]
    cdurs = [dur(s) for _, s in canon]
    cprobe = probes("canonical.canonical_form")
    out["canonical.canonical_form.p50_s"] = _median(cdurs)
    out["canonical.canonical_form.max_s"] = max(cdurs, default=0.0)
    out["canonical.canonical_form.share"] = sum(cdurs) / job_seconds if job_seconds else 0.0
    out["canonical.canonical_form.input_bits_max"] = max((p[1] for p in cprobe), default=0)
    out["canonical.canonical_form.output_bytes_mean"] = (
        statistics.fmean(p[2] for p in cprobe) if cprobe else 0.0)
    for k in (8, 9, 10):
        # small-height forms only, as in the baseline rows at k = 8, 9, 10
        out["canonical.canonical_form.k%d_s" % k] = _median(
            [dur(s) for _, s in canon if s[PROBE] and s[PROBE][0] == k and s[PROBE][1] <= 64])

    # iterate rungs: children of each coxeter_iterate span, numbered per name
    ordinal = defaultdict(int)
    rung = defaultdict(list)  # (name, ordinal) -> durations across ladders
    iterate_ids = {i for i, _ in by_name["orbit.coxeter_iterate"]}
    for i, s in enumerate(spans):
        if s[PARENT] in iterate_ids:
            key = (s[PARENT], s[NAME])
            rung[(s[NAME], ordinal[key])].append(dur(s))
            ordinal[key] += 1
    for step in (0, 6, 12, 16, 17):
        out["canonical.canonical_form.step%02d_s" % step] = _median(
            rung[("canonical.canonical_form", step)])
    steps = max((o for (name, o) in rung if name == "projective.cremona_at"), default=-1) + 1
    for target in (6, 12):
        # what coxeter_iterate(config, target) does: the loop's condition-(*)
        # check and Cremona move for steps < target, then the report's canonical
        # forms, condition-(*) checks and coplanarity scans for steps <= target
        total = 0.0
        if steps >= target:
            for n in range(target):
                total += _median(rung[("projective.star_violation", n)])
                total += _median(rung[("projective.cremona_at", n)])
            for n in range(target + 1):
                total += _median(rung[("canonical.canonical_form", n)])
                total += _median(rung[("projective.star_violation", steps + n)])
                total += _median(rung[("orbit.coplanar_scan", n)])
        out["orbit.coxeter_iterate.to_step%02d_s" % target] = total

    out["orbit.iterate.bits_max"] = max(probes("orbit.coxeter_iterate"), default=0)
    bfs = probes("orbit.orbit_bfs")
    tasks = sum(e + d for _, e, d in bfs)
    new = sum(nodes - 1 for nodes, _, _ in bfs)
    out["orbit.orbit_bfs.wall_s"] = _median([dur(s) for _, s in by_name["orbit.orbit_bfs"]])
    out["orbit.orbit_bfs.tasks"] = tasks * per
    out["orbit.orbit_bfs.nodes_new"] = new * per
    out["orbit.orbit_bfs.degenerate"] = sum(d for _, _, d in bfs) * per
    out["orbit.orbit_bfs.dup_ratio"] = (sum(e for _, e, _ in bfs) - new) / tasks if tasks else 0.0

    for name, k in (("lattice.coxeter_relations", 20), ("lattice.distinctness_certificate", 8)):
        out["%s.k%d_s" % (name, k)] = _median(
            [dur(s) for _, s in by_name[name] if s[PROBE] == k])

    out["serialize.report_to_obj.failed"] = failed["serialize.report_to_obj"] * per
    out["serialize.bytes_written"] = (
        sum(probes("serialize.dump_json")) + sum(probes("serialize.write_degree_csv"))) * per
    out["cli.main.unexpected"] = sum(
        1 for _, s in by_name["cli.main"] if s[FAILED] or s[PROBE] not in (0, 1)) * per
    return {k: v * scale if k.endswith("_s") else v for k, v in out.items()}
