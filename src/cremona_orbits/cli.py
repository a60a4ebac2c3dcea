"""Command-line interface.

Subcommands: gen, cremona, iterate, orbit, equiv, lattice-cert.  Exit codes:
0 success/affirmative, 1 negative verdict, 2 input error (including an
unreadable input, an unwritable output path, or a configuration with no
5-point frame, in every command) or usage error (a missing or malformed
argument, reported by the parser, or one outside its documented range,
reported by the library check it trips; either way one ``usage error:``
line), 3 precondition violation (condition (*), generation failure), 4
internal error (an unexpected exception, reported in one line instead of a
traceback).  ``main`` is the only place that maps an exception to an exit
code.  Every file-producing command writes a ``<out>.manifest.json`` next to
its outputs; timestamps live only there, so outputs themselves are
reproducible bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import serialize
from ._version import __version__
from .canonical import equivalent
from .errors import (
    FormatError,
    GenerationError,
    NoFrameError,
    StarViolationError,
    UsageError,
)
from .lattice import (
    coxeter_element,
    coxeter_relations,
    distinctness_certificate,
    jordan_certificate,
    plane_through_last_four,
)
from .orbit import consistency_check, coxeter_iterate, orbit_bfs
from .projective import CenterSet, cremona_at, random_config

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    """Argparse whose errors reach ``main`` as ``UsageError``: one line, exit 2."""

    def error(self, message):
        raise UsageError(message)


@functools.cache  # argparse keeps no state between parse_args calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cremona-orbits",
        description="Exact Cremona dynamics of point configurations in P^3.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded general-position configuration")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--height", type=int, default=50)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cremona", help="apply one Cremona transformation")
    p.add_argument("input")
    p.add_argument("--centers", type=int, nargs=4, required=True, metavar="I")
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_cremona)

    p = sub.add_parser("iterate", help="run the Cremona-then-shift iteration")
    p.add_argument("input")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("orbit", help="breadth-first orbit search")
    p.add_argument("input")
    p.add_argument("--max-depth", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=100000)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("equiv", help="decide equivalence of two configurations")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("lattice-cert", help="emit the lattice certificates")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--N", type=int, default=500)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_lattice_cert)

    return parser


def _write(args, command, params, obj, degrees=None) -> None:
    """Write obj as JSON to --out, the degree table beside it if given, then the manifest."""
    outputs = [args.out]
    serialize.dump_json(args.out, obj)
    if degrees is not None:
        outputs.append(str(args.out) + ".degrees.csv")
        serialize.write_degree_csv(outputs[-1], degrees)
    serialize.write_manifest(args.out, command, params, outputs)


def cmd_gen(args) -> int:
    config = random_config(args.seed, args.height, args.k)
    _write(args, "gen", {"seed": args.seed, "height": args.height, "k": args.k},
           serialize.config_to_obj(config))
    print("wrote %d-point configuration to %s" % (config.k, args.out))
    return EXIT_OK


def cmd_cremona(args) -> int:
    config = serialize.load_config(args.input)
    centers = CenterSet(tuple(args.centers))
    result = cremona_at(config, centers)  # raises StarViolationError on failure
    _write(args, "cremona", {"input": args.input, "centers": list(centers.indices)},
           serialize.config_to_obj(result))
    print("condition (*) holds for centers %s" % (centers.indices,))
    print("wrote transformed configuration to %s" % args.out)
    return EXIT_OK


def cmd_iterate(args) -> int:
    config = serialize.load_config(args.input)
    params = {"input": args.input, "steps": args.steps}
    try:
        report = coxeter_iterate(config, args.steps)
    except StarViolationError as e:
        partial = e.partial_report
        _write(args, "iterate", params, serialize.report_to_obj(partial), partial.degrees)
        raise
    _write(args, "iterate", params, serialize.report_to_obj(report), report.degrees)
    # judged as written: a report that does not survive its own file fails here
    try:
        ok = consistency_check(serialize.report_from_obj(serialize.load_json(args.out)))
    except FormatError as e:
        print("error: the written report does not read back: %s" % e, file=sys.stderr)
        ok = False
    print("completed %d steps; pairwise inequivalent: %s; consistency %s"
          % (report.steps_completed, "yes" if report.all_pairwise_inequivalent else "no",
             "OK" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_orbit(args) -> int:
    config = serialize.load_config(args.input)
    graph = orbit_bfs(config, args.max_depth, args.max_nodes)
    _write(args, "orbit",
           {"input": args.input, "max_depth": args.max_depth, "max_nodes": args.max_nodes},
           serialize.orbit_to_obj(graph))
    print("orbit: %d nodes, %d edges, truncated=%s, unexpanded frontier=%d"
          % (len(graph.nodes), len(graph.edges), graph.truncated,
             graph.frontier_remaining))
    return EXIT_OK


def cmd_equiv(args) -> int:
    a = serialize.load_config(args.a)
    b = serialize.load_config(args.b)
    verdict = equivalent(a, b)
    print("EQUIVALENT" if verdict else "INEQUIVALENT")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_lattice_cert(args) -> int:
    msigma = coxeter_element(args.k)
    distinctness = distinctness_certificate(plane_through_last_four(args.k), args.N)
    relations = coxeter_relations(args.k)
    cert = {
        "k": args.k,
        "N": args.N,
        "coxeter_matrix": [list(r) for r in msigma.entries],
        "jordan": serialize.jordan_to_obj(jordan_certificate(msigma)),
        "distinctness": serialize.distinctness_to_obj(distinctness),
        "coxeter_relations": [{"relation": name, "holds": ok} for name, ok in relations],
        "coxeter_relations_all_hold": all(ok for _, ok in relations),
    }
    # each degree rendered once, for the JSON and for the degree table
    _write(args, "lattice-cert", {"k": args.k, "N": args.N}, cert, cert["distinctness"]["degrees"])
    print("wrote lattice certificate (k=%d, N=%d) to %s" % (args.k, args.N, args.out))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except (FormatError, NoFrameError, OSError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except (StarViolationError, GenerationError) as e:
        partial = getattr(e, "partial_report", None)  # the iterate's, written to --out
        wrote = "" if partial is None else "; wrote partial report to %s" % args.out
        print("error: %s%s" % (e, wrote), file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as e:  # last resort: never fall through to exit 1, the negative verdict
        text = " ".join(str(e).split())[:200]
        print("internal error: %s: %s" % (type(e).__name__, text), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
