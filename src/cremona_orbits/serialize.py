"""JSON and CSV serialization for configurations, reports, graphs and certificates.

Point coordinates are emitted as decimal strings so downstream consumers
never overflow a 64-bit integer; the reader accepts plain ints as well and
re-canonicalizes every point.  Integers of any size are converted by
``digits``, past Python's int/str digit cap.  Floats and booleans are
rejected, never truncated.  All JSON is dumped sorted with a trailing
newline, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import datetime
import json

from ._version import __version__
from .digits import decimal_to_int, int_to_decimal
from .errors import FormatError
from .lattice import DistinctnessReport, DivisorClass, JordanCertificate
from .orbit import IterationReport, OrbitGraph
from .projective import Configuration, normalize_point


def dump_json(path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True))
        fh.write("\n")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=decimal_to_int)
    except OSError as e:
        raise FormatError("%s: cannot read (%s)" % (path, e)) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError("%s: not valid JSON (%s)" % (path, e)) from None


def _integer(value, what):
    """An int from a JSON integer or a decimal string; anything else is a FormatError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return decimal_to_int(value)
        except ValueError:
            pass
    raise FormatError("non-integer %s %s" % (what, repr(value)[:40]))


# ---------------------------------------------------------------------------
# configurations

def config_to_obj(config: Configuration) -> dict:
    return {
        "k": config.k,
        "points": [[int_to_decimal(v) for v in p.coords] for p in config.points],
    }


def config_from_obj(obj) -> Configuration:
    if not isinstance(obj, dict) or "k" not in obj or "points" not in obj:
        raise FormatError("configuration object needs 'k' and 'points'")
    k = obj["k"]
    points = obj["points"]
    if not isinstance(k, int) or not isinstance(points, list) or len(points) != k:
        raise FormatError("'points' must list exactly k point rows")
    pts = []
    for row in points:
        if not isinstance(row, list) or len(row) != 4:
            raise FormatError("each point needs a list of 4 coordinates")
        coords = tuple(_integer(v, "coordinate") for v in row)
        try:
            pts.append(normalize_point(coords))
        except ValueError as e:
            raise FormatError(str(e)) from None
    try:
        return Configuration(tuple(pts))
    except ValueError as e:
        raise FormatError(str(e)) from None


def dump_config(path, config: Configuration) -> None:
    dump_json(path, config_to_obj(config))


def load_config(path) -> Configuration:
    return config_from_obj(load_json(path))


# ---------------------------------------------------------------------------
# lattice objects

def divisor_to_obj(c: DivisorClass) -> dict:
    return {"d": c.d, "m": list(c.m)}


def divisor_from_obj(obj) -> DivisorClass:
    if not isinstance(obj, dict) or "d" not in obj or "m" not in obj:
        raise FormatError("divisor object needs 'd' and 'm'")
    if not isinstance(obj["m"], list):
        raise FormatError("divisor 'm' must be a list")
    return DivisorClass(_integer(obj["d"], "degree"),
                        tuple(_integer(v, "multiplicity") for v in obj["m"]))


def jordan_to_obj(cert: JordanCertificate) -> dict:
    return {
        "multiplicity_of_one": cert.multiplicity_of_one,
        "ranks": list(cert.ranks),
        "charpoly": list(cert.charpoly),
        "stabilized": cert.stabilized,
        "eigenvalue_one_block_sizes": list(cert.eigenvalue_one_block_sizes()),
    }


def distinctness_to_obj(rep: DistinctnessReport) -> dict:
    return {
        "N": rep.N,
        "start": divisor_to_obj(rep.start),
        "all_distinct": rep.all_distinct,
        "first_collision": list(rep.first_collision) if rep.first_collision else None,
        "degrees": list(rep.degrees),
        "trailing_min": [[t, d] for t, d in rep.trailing_min],
        "degree_growth": rep.degree_growth,
        "quadratic_part_nonzero": rep.quadratic_part_nonzero,
    }


# ---------------------------------------------------------------------------
# reports and orbit graphs

def report_to_obj(report: IterationReport) -> dict:
    return {
        "k": report.k,
        "steps_requested": report.steps_requested,
        "steps_completed": report.steps_completed,
        "truncated": report.truncated,
        "star_ok": list(report.star_ok),
        "degrees": list(report.degrees),
        "tracked": [divisor_to_obj(c) for c in report.tracked],
        "coplanar_tuples": [[list(t) for t in step] for step in report.coplanar_tuples],
        "bit_lengths": list(report.bit_lengths),
        "configurations": [config_to_obj(c) for c in report.configs],
        "canonical_forms": [f.decode("ascii") for f in report.canonical_forms],
        "inequivalent": [list(row) for row in report.inequivalent],
        "all_pairwise_inequivalent": report.all_pairwise_inequivalent,
    }


def orbit_to_obj(graph: OrbitGraph) -> dict:
    nodes = []
    for node in sorted(graph.nodes.values(), key=lambda n: (n.depth, n.canonical_form)):
        parent = None
        if node.parent_edge is not None:
            parent = {
                "canonical_form": node.parent_edge[0].decode("ascii"),
                "centers": list(node.parent_edge[1].indices),
            }
        nodes.append({
            "canonical_form": node.canonical_form.decode("ascii"),
            "depth": node.depth,
            "points": config_to_obj(node.representative)["points"],
            "parent": parent,
        })
    edges = [
        {"source": s.decode("ascii"), "target": t.decode("ascii"), "centers": list(c.indices)}
        for s, t, c in sorted(graph.edges, key=lambda e: (e[0], e[1], e[2].indices))
    ]
    return {
        "nodes": nodes,
        "edges": edges,
        "truncated": graph.truncated,
        "frontier_remaining": graph.frontier_remaining,
        "degenerate": [
            {"parent": p.decode("ascii"), "centers": list(c.indices)}
            for p, c in graph.degenerate
        ],
    }


# ---------------------------------------------------------------------------
# degree tables and manifests

def write_degree_csv(path, degrees) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "degree"])
        for n, d in enumerate(degrees):
            writer.writerow([n, d])


def manifest_path(out_path) -> str:
    return str(out_path) + ".manifest.json"


def write_manifest(out_path, command: str, params: dict, outputs) -> None:
    obj = {
        "command": command,
        "parameters": params,
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    dump_json(manifest_path(out_path), obj)
