"""JSON and CSV serialization for configurations, reports, graphs and certificates.

Point coordinates are emitted as decimal strings so downstream consumers
never overflow a 64-bit integer; the reader accepts plain ints as well and
passes each row to ``ProjectivePoint``, which makes it canonical.  Integers
of any size are converted by ``digits``, past Python's int/str digit cap, in
both directions and in the JSON integers and CSV cells written too; integers
written to two files are rendered once, as ``DecimalTexts``, which renders an
integral ``Decimal`` by ``str`` (linear in its digits) instead.  Floats and
booleans are rejected, never truncated.  All JSON is dumped as
``json.dumps(obj, indent=2, sort_keys=True)`` lays it out, with a trailing
newline, so reruns are byte-identical.
"""

from __future__ import annotations

import datetime
import json
from decimal import Decimal
from json.encoder import encode_basestring_ascii

from ._version import __version__
from .digits import decimal_to_int, int_to_decimal
from .errors import FormatError
from .lattice import DistinctnessReport, DivisorClass, JordanCertificate
from .orbit import IterationReport, OrbitGraph
from .projective import Configuration, ProjectivePoint


class DecimalTexts(tuple):
    """Integers rendered once as decimal text, to be written by ``dump_json`` and the CSV writer.

    One rule: a ``Decimal`` (integral, as ``lattice.distinctness_certificate``
    keeps its degrees) is rendered by ``str``, linear in its digits and with
    no digit cap, and an ``int`` by ``int_to_decimal``.  ``dump_json`` writes
    the items bare, as the JSON integers they spell, so a caller that writes
    the same integers twice converts each only once.
    """

    __slots__ = ()

    def __new__(cls, ints):
        return super().__new__(cls, [str(n) if type(n) is Decimal else int_to_decimal(n)
                                     for n in ints])


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
        if type(obj) is DecimalTexts:  # already rendered: written bare
            for text in obj:
                out += (sep, text)
                sep = "," + inner
        else:
            for value in obj:
                out.append(sep)
                if type(value) is int:  # inlined: coxeter_matrix holds 4225 of them at k = 64
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


def _integer(value):
    """A coordinate from a JSON integer or a decimal string; anything else is a FormatError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return decimal_to_int(value)
        except ValueError:
            pass
    raise FormatError("non-integer coordinate %s" % repr(value)[:40])


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
        if not isinstance(row, list):  # a string row would read as its digits
            raise FormatError("each point needs a list of 4 coordinates")
        try:
            pts.append(ProjectivePoint(tuple(map(_integer, row))))
        except (TypeError, ValueError) as e:
            raise FormatError(str(e)) from None
    try:
        return Configuration(tuple(pts))
    except ValueError as e:
        raise FormatError(str(e)) from None


def load_config(path) -> Configuration:
    return config_from_obj(load_json(path))


# ---------------------------------------------------------------------------
# lattice objects

def divisor_to_obj(c: DivisorClass) -> dict:
    return {"d": c.d, "m": list(c.m)}


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
        "degrees": DecimalTexts(rep.degrees),
        "quadratic_part_nonzero": rep.quadratic_part_nonzero,
    }


# ---------------------------------------------------------------------------
# reports and orbit graphs

def _derived_keys(report: IterationReport) -> dict:
    """The keys of ``report_to_obj`` that the report derives from its stored fields."""
    return {
        "star_ok": list(report.star_ok),
        "degrees": list(report.degrees),
        "tracked": [divisor_to_obj(c) for c in report.tracked],
        "all_pairwise_inequivalent": report.all_pairwise_inequivalent,
    }


def report_to_obj(report: IterationReport) -> dict:
    return {
        "steps_requested": report.steps_requested,
        "coplanar_tuples": [[list(t) for t in step] for step in report.coplanar_tuples],
        "configurations": [config_to_obj(c) for c in report.configs],
        "canonical_forms": [f.decode("ascii") for f in report.canonical_forms],
        **_derived_keys(report),
    }


# the stored keys of ``report_to_obj`` that hold one entry per step
_STEP_KEYS = ("coplanar_tuples", "configurations", "canonical_forms")


def _json_text(obj) -> str:
    """obj as ``dump_json`` writes it, without the trailing newline."""
    chunks = []
    _json_chunks(obj, "\n", chunks)
    return "".join(chunks)


def _subset(sub, k):
    """A sorted 4-subset of the labels 1..k, from a JSON list of four integers."""
    if (not isinstance(sub, list) or len(sub) != 4 or any(type(v) is not int for v in sub)
            or not 1 <= sub[0] < sub[1] < sub[2] < sub[3] <= k):
        raise FormatError("report coplanar tuple %s is not a sorted 4-subset of 1..%d"
                          % (repr(sub)[:40], k))
    return tuple(sub)


def report_from_obj(obj) -> IterationReport:
    """The report that ``report_to_obj`` wrote, partial or not.

    Built from the stored keys, with k = 8 (the iterate's only k); each key
    of ``_derived_keys`` must then render to the writer's own JSON text, so
    ``1`` or ``"1"`` never passes for ``true`` or ``1``, nor an extra key.
    ``steps_requested`` is an int >= max(1, steps completed), above it only where (*) fails last;
    (*) holds at every step before the last, since the iterate stops where it fails.
    """
    keys = ("steps_requested",) + _STEP_KEYS
    if not isinstance(obj, dict) or any(key not in obj for key in keys):
        raise FormatError("report object needs the keys %s" % ", ".join(keys))
    steps = [obj[key] for key in _STEP_KEYS]
    if (not all(isinstance(v, list) for v in steps) or len({len(v) for v in steps}) != 1
            or not steps[0]):
        raise FormatError("report per-step lists must be nonempty and of one length")
    if not all(isinstance(step, list) for step in obj["coplanar_tuples"]):
        raise FormatError("report 'coplanar_tuples' must list one list per step")
    try:
        forms = tuple(f.encode("ascii") for f in obj["canonical_forms"])
    except (AttributeError, UnicodeEncodeError):
        raise FormatError("report 'canonical_forms' must list ASCII strings") from None
    configs = tuple(map(config_from_obj, obj["configurations"]))
    if any(cfg.k != 8 for cfg in configs):
        raise FormatError("report configurations must have k = 8")
    report = IterationReport(
        steps_requested=obj["steps_requested"],
        configs=configs,
        coplanar_tuples=tuple(tuple(_subset(sub, cfg.k) for sub in step)
                              for step, cfg in zip(obj["coplanar_tuples"], configs)),
        canonical_forms=forms)
    requested, star_ok = report.steps_requested, report.star_ok
    if (type(requested) is not int or requested < max(1, report.steps_completed)
            or report.truncated and star_ok[-1] or not all(star_ok[:-1])):
        raise FormatError("report 'steps_requested' and (*) verdicts are not what the iterate "
                          "writes: it stops at the first step where (*) fails")
    for key, value in _derived_keys(report).items():  # a missing key reads as null
        if _json_text(obj.get(key)) != _json_text(value):
            raise FormatError("report %r disagrees with what its stored keys give" % key)
    return report


def orbit_to_obj(graph: OrbitGraph) -> dict:
    """Nodes in (depth, form) order; edges name them by index."""
    order = sorted(graph.nodes.items(), key=lambda item: (item[1].depth, item[0]))
    index = {form: i for i, (form, _) in enumerate(order)}
    return {
        "nodes": [{"canonical_form": form.decode("ascii"), "depth": node.depth,
                   "points": config_to_obj(node.representative)["points"]}
                  for form, node in order],
        "edges": sorted([index[s], index[t], list(c.indices)] for s, t, c in graph.edges),
        "truncated": graph.truncated,
        "frontier_remaining": graph.frontier_remaining,
        "degenerate": [],  # every child has a frame (orbit_bfs); files keep their bytes
    }


# ---------------------------------------------------------------------------
# degree tables and manifests

def write_degree_csv(path, degrees) -> None:
    """The rows ``step,degree``, then ``n,degrees[n]``, with CRLF line ends as ``csv`` writes.

    ``degrees`` is ``DecimalTexts`` or holds what it renders; each row is written as it is
    formatted.
    """
    texts = degrees if type(degrees) is DecimalTexts else DecimalTexts(degrees)
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write("step,degree\r\n")
        fh.writelines(map("%d,%s\r\n".__mod__, enumerate(texts)))


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
