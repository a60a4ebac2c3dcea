"""Command-line interface.

Subcommands: gen, cremona, iterate, orbit, equiv, lattice-cert.  Exit codes:
0 success/affirmative, 1 negative verdict, 2 input error (including an
unreadable input or unwritable output path), 3 precondition violation
(condition (*), degenerate frames, generation failure), 4 internal error (an
unexpected exception, reported in one line instead of a traceback).  Every
file-producing command writes a ``<out>.manifest.json`` next to its outputs;
timestamps live only there, so outputs themselves are reproducible bytes.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from ._version import __version__
from .canonical import equivalent
from .errors import (
    FormatError,
    FrameError,
    GenerationError,
    NoFrameError,
    StarViolationError,
)
from .lattice import (
    coxeter_element,
    coxeter_relations,
    distinctness_certificate,
    jordan_certificate,
    plane_through_last_four,
)
from .orbit import consistency_check, coxeter_iterate, env_workers, orbit_bfs
from .projective import CenterSet, cremona_at, random_config

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _int_at_least(minimum):
    def conv(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
        if value < minimum:
            raise argparse.ArgumentTypeError("must be >= %d" % minimum)
        return value

    return conv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cremona-orbits",
        description="Exact Cremona dynamics of point configurations in P^3.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded general-position configuration")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--height", type=_int_at_least(2), default=50)
    p.add_argument("--k", type=_int_at_least(8), default=8)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cremona", help="apply one Cremona transformation")
    p.add_argument("input")
    p.add_argument("--centers", type=int, nargs=4, required=True, metavar="I")
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_cremona)

    p = sub.add_parser("iterate", help="run the Cremona-then-shift iteration")
    p.add_argument("input")
    p.add_argument("--steps", type=_int_at_least(1), required=True)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("orbit", help="breadth-first orbit search")
    p.add_argument("input")
    p.add_argument("--max-depth", type=_int_at_least(0), required=True)
    p.add_argument("--max-nodes", type=_int_at_least(1), default=100000)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("equiv", help="decide equivalence of two configurations")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("lattice-cert", help="emit the lattice certificates")
    p.add_argument("--k", type=_int_at_least(8), default=8)
    p.add_argument("--N", type=_int_at_least(1), default=500)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=cmd_lattice_cert)

    return parser


def cmd_gen(args) -> int:
    config = random_config(args.seed, args.height, args.k)
    serialize.dump_config(args.out, config)
    serialize.write_manifest(
        args.out, "gen",
        {"seed": args.seed, "height": args.height, "k": args.k},
        [args.out],
    )
    print("wrote %d-point configuration to %s" % (config.k, args.out))
    return EXIT_OK


def cmd_cremona(args) -> int:
    config = serialize.load_config(args.input)
    try:
        centers = CenterSet(tuple(args.centers)).within(config.k)
    except ValueError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    result = cremona_at(config, centers)  # raises StarViolationError on failure
    serialize.dump_config(args.out, result)
    serialize.write_manifest(
        args.out, "cremona",
        {"input": args.input, "centers": list(centers.indices)},
        [args.out],
    )
    print("condition (*) holds for centers %s" % (centers.indices,))
    print("wrote transformed configuration to %s" % args.out)
    return EXIT_OK


def _write_report(args, report) -> None:
    csv_path = str(args.out) + ".degrees.csv"
    serialize.dump_json(args.out, serialize.report_to_obj(report))
    serialize.write_degree_csv(csv_path, report.degrees)
    serialize.write_manifest(
        args.out, "iterate",
        {"input": args.input, "steps": args.steps},
        [args.out, csv_path],
    )


def cmd_iterate(args) -> int:
    config = serialize.load_config(args.input)
    if config.k != 8:
        print("usage error: iterate needs an 8-point configuration, got k = %d" % config.k,
              file=sys.stderr)
        return EXIT_INPUT
    try:
        report = coxeter_iterate(config, args.steps)
    except StarViolationError as e:
        if e.partial_report is not None:
            _write_report(args, e.partial_report)
            print("wrote partial report to %s" % args.out, file=sys.stderr)
        print("error: %s" % e, file=sys.stderr)
        return EXIT_PRECONDITION
    _write_report(args, report)
    ok = consistency_check(report)
    print("completed %d steps; %d stored configurations; consistency %s"
          % (report.steps_completed, len(report.configs), "OK" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_orbit(args) -> int:
    try:
        workers = env_workers()
    except ValueError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    config = serialize.load_config(args.input)
    graph = orbit_bfs(config, args.max_depth, args.max_nodes, workers)
    for parent, centers in graph.degenerate:
        print("warning: degenerate child of %s at centers %s skipped"
              % (parent.decode("ascii")[:40], centers.indices), file=sys.stderr)
    serialize.dump_json(args.out, serialize.orbit_to_obj(graph))
    serialize.write_manifest(
        args.out, "orbit",
        {"input": args.input, "max_depth": args.max_depth, "max_nodes": args.max_nodes},
        [args.out],
    )
    print("orbit: %d nodes, %d edges, truncated=%s, unexpanded frontier=%d"
          % (len(graph.nodes), len(graph.edges), graph.truncated,
             graph.frontier_remaining))
    return EXIT_OK


def cmd_equiv(args) -> int:
    try:
        a = serialize.load_config(args.a)
        b = serialize.load_config(args.b)
        verdict = equivalent(a, b)
    except (FormatError, NoFrameError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    print("EQUIVALENT" if verdict else "INEQUIVALENT")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_lattice_cert(args) -> int:
    msigma = coxeter_element(args.k)
    relations = coxeter_relations(args.k)
    cert = {
        "k": args.k,
        "N": args.N,
        "coxeter_matrix": [list(r) for r in msigma.entries],
        "jordan": serialize.jordan_to_obj(jordan_certificate(msigma)),
        "distinctness": serialize.distinctness_to_obj(
            distinctness_certificate(plane_through_last_four(args.k), args.N)
        ),
        "coxeter_relations": [{"relation": name, "holds": ok} for name, ok in relations],
        "coxeter_relations_all_hold": all(ok for _, ok in relations),
    }
    csv_path = str(args.out) + ".degrees.csv"
    serialize.dump_json(args.out, cert)
    serialize.write_degree_csv(csv_path, cert["distinctness"]["degrees"])
    serialize.write_manifest(
        args.out, "lattice-cert", {"k": args.k, "N": args.N}, [args.out, csv_path],
    )
    print("wrote lattice certificate (k=%d, N=%d) to %s" % (args.k, args.N, args.out))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except (StarViolationError, FrameError, NoFrameError, GenerationError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # last resort: never fall through to exit 1, the negative verdict
        text = " ".join(str(e).split())[:200]
        print("internal error: %s: %s" % (type(e).__name__, text), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
