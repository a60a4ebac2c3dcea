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


# the keys of ``report_to_obj`` that hold one entry per step
_STEP_KEYS = ("star_ok", "degrees", "tracked", "coplanar_tuples", "configurations",
              "canonical_forms")


def _subset(sub, k):
    """A sorted 4-subset of the labels 1..k, from a JSON list of four integers."""
    if (not isinstance(sub, list) or len(sub) != 4 or any(type(v) is not int for v in sub)
            or not 1 <= sub[0] < sub[1] < sub[2] < sub[3] <= k):
        raise FormatError("report coplanar tuple %s is not a sorted 4-subset of 1..%d"
                          % (repr(sub)[:40], k))
    return tuple(sub)


def report_from_obj(obj) -> IterationReport:
    """The report that ``report_to_obj`` wrote, partial or not.

    The written keys that a report derives (``degrees`` from ``tracked``,
    ``all_pairwise_inequivalent`` from the forms) must agree with it.
    """
    keys = ("steps_requested", "all_pairwise_inequivalent") + _STEP_KEYS
    if not isinstance(obj, dict) or any(key not in obj for key in keys):
        raise FormatError("report object needs the keys %s" % ", ".join(keys))
    steps = [obj[key] for key in _STEP_KEYS]
    if (not all(isinstance(v, list) for v in steps) or len({len(v) for v in steps}) != 1
            or not steps[0]):
        raise FormatError("report per-step lists must be nonempty and of one length")
    if not all(isinstance(v, bool) for v in obj["star_ok"]):
        raise FormatError("report 'star_ok' must list booleans")
    if not all(isinstance(step, list) for step in obj["coplanar_tuples"]):
        raise FormatError("report 'coplanar_tuples' must list one list per step")
    try:
        forms = tuple(f.encode("ascii") for f in obj["canonical_forms"])
    except (AttributeError, UnicodeEncodeError):
        raise FormatError("report 'canonical_forms' must list ASCII strings") from None
    configs = tuple(map(config_from_obj, obj["configurations"]))
    report = IterationReport(
        steps_requested=_integer(obj["steps_requested"], "step count"),
        configs=configs,
        star_ok=tuple(obj["star_ok"]),
        coplanar_tuples=tuple(tuple(_subset(sub, cfg.k) for sub in step)
                              for step, cfg in zip(obj["coplanar_tuples"], configs)),
        tracked=tuple(map(divisor_from_obj, obj["tracked"])),
        canonical_forms=forms)
    if [_integer(d, "degree") for d in obj["degrees"]] != list(report.degrees):
        raise FormatError("report 'degrees' disagrees with the degrees of 'tracked'")
    if obj["all_pairwise_inequivalent"] is not report.all_pairwise_inequivalent:
        raise FormatError("report 'all_pairwise_inequivalent' disagrees with its forms")
    return report


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
