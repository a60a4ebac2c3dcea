"""JSON and CSV serialization for configurations, reports, graphs and certificates.

Point coordinates are emitted as decimal strings so downstream consumers
never overflow a 64-bit integer; the reader accepts plain ints as well and
re-canonicalizes every point.  Integers of any size are converted by
``digits``, past Python's int/str digit cap, in both directions and in the
JSON integers and CSV cells written too.  Floats and booleans are rejected,
never truncated.  All JSON is dumped as ``json.dumps(obj, indent=2,
sort_keys=True)`` lays it out, with a trailing newline, so reruns are
byte-identical.
"""

from __future__ import annotations

import datetime
import json
from json.encoder import encode_basestring_ascii

from ._version import __version__
from .digits import decimal_to_int, int_to_decimal
from .errors import FormatError
from .lattice import DistinctnessReport, DivisorClass, JordanCertificate
from .orbit import IterationReport, OrbitGraph
from .projective import Configuration, normalize_point


def dump_json(path, obj) -> None:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, for ints of any size."""
    chunks = []
    _json_chunks(obj, "\n", chunks)
    chunks.append("\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(chunks)


def _json_chunks(obj, indent: str, out: list) -> None:
    """Append the text of obj to out, laid out as ``json.dumps`` with indent=2 and sorted keys."""
    if isinstance(obj, dict) and obj:
        inner = indent + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_chunks(value, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        inner = indent + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            if type(value) is int:  # inlined: degree lists hold thousands of them
                out.append(int_to_decimal(value))
            else:
                _json_chunks(value, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif type(obj) is int:
        out.append(int_to_decimal(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    else:
        out.append(json.dumps(obj))  # true, false, null, floats, empty containers


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=decimal_to_int)
    except OSError as e:
        raise FormatError("%s: cannot read (%s)" % (path, e)) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError("%s: not valid JSON (%s)" % (path, e)) from None
    except RecursionError:
        raise FormatError("%s: JSON nested too deeply to read" % path) from None


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
        "eigenvalue_one_block_sizes": list(cert.eigenvalue_one_block_sizes()),
    }


def distinctness_to_obj(rep: DistinctnessReport) -> dict:
    return {
        "start": divisor_to_obj(rep.start),
        "all_distinct": rep.all_distinct,
        "first_collision": list(rep.first_collision) if rep.first_collision else None,
        "degrees": list(rep.degrees),
        "quadratic_part_nonzero": rep.quadratic_part_nonzero,
    }


# ---------------------------------------------------------------------------
# reports and orbit graphs

def report_to_obj(report: IterationReport) -> dict:
    return {
        "steps_requested": report.steps_requested,
        "star_ok": list(report.star_ok),
        "degrees": list(report.degrees),
        "tracked": [divisor_to_obj(c) for c in report.tracked],
        "coplanar_tuples": [[list(t) for t in step] for step in report.coplanar_tuples],
        "configurations": [config_to_obj(c) for c in report.configs],
        "canonical_forms": [f.decode("ascii") for f in report.canonical_forms],
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
    """The rows ``step,degree``, then ``n,degrees[n]``, with CRLF line ends as ``csv`` writes."""
    rows = ["step,degree\r\n"]
    rows += ["%d,%s\r\n" % (n, int_to_decimal(d)) for n, d in enumerate(degrees)]
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.writelines(rows)


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
