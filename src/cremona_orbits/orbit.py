"""Drivers joining the geometric Cremona action to its lattice shadow.

``coxeter_iterate`` runs the degree-growth iteration (Cremona at the first
four points, then the cyclic shift) on configurations alone; its report
derives each step's tracked divisor class from the step count, and
``consistency_check`` tests the geometry against it.  ``orbit_bfs`` explores
the full orbit under all center choices with canonical-form deduplication;
every child of an admissible move has a frame, so every child gets a form.
Every reader builds its own bracket table, empty at first: ``orbit_bfs`` reads
each child's form from a table in the worker, and an expanded node's children
from one in the parent.  ``coxeter_iterate`` reads the 17 brackets around the
centers to build a frame-normalized copy, and the canonical form, the
coplanar scan and the next move, which decides condition (*), from the copy's
70-bracket table; it stores the configuration each move produces, 4.1k bits
tall at step 17 of ``random_config(7, 10)``.  ``consistency_check`` rescans
the stored points with ``coplanar_scan``, the one zero scan of a
configuration's points: it builds no table and takes each bracket's residue
first.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .canonical import bracket_form, canonical_form, normalized_at
from .errors import StarViolationError, UsageError
from .lattice import DivisorClass, cyclic_shift, iterate_class, plane_through_last_four
from .linalg import det4
from .projective import BracketTable, CenterSet, Configuration, cremona_image, permute_config


# ---------------------------------------------------------------------------
# the degree-growth iteration

def _zero_brackets(br: BracketTable):
    """The sorted 4-subsets with a zero bracket, read from ``br`` in lexicographic order."""
    return tuple(sub for sub in itertools.combinations(range(1, br.k + 1), 4) if br[sub] == 0)


# the prime of coplanar_scan's residues, and the bound (p - 1) / 2 of their size
_P = (1 << 61) - 1
_H = _P // 2


def coplanar_scan(config: Configuration) -> tuple[tuple[int, int, int, int], ...]:
    """All 4-subsets of labels (sorted) whose points lie on a common plane, residue first.

    Each bracket is read once, as its residue mod the prime p = 2^61 - 1: a
    nonzero residue proves the bracket nonzero, and a zero one is confirmed
    by the exact bracket, so every zero stays exact.  The coordinates are
    reduced mod p once, to the representative of least absolute value, so a
    tall configuration pays for short determinants and a short one keeps
    its coordinates.  No bracket table is built.
    """
    pts = (None,) + tuple(p.coords for p in config.points)
    res = (None,) + tuple(tuple((v + _H) % _P - _H for v in p) for p in pts[1:])
    return tuple((a, b, c, d) for a, b, c, d in itertools.combinations(range(1, config.k + 1), 4)
                 if det4((res[a], res[b], res[c], res[d])) % _P == 0
                 and det4((pts[a], pts[b], pts[c], pts[d])) == 0)


@dataclass(frozen=True, slots=True)
class IterationReport:
    """Per-step record of the iteration, geometric scan included.

    Entry n of each per-step field describes the configuration after n steps.
    Stored are the request, the configurations and what their bracket tables
    give (``coplanar_tuples``, the forms); the rest are properties: (*), and
    the tracked classes, which depend on the step count alone.
    """

    steps_requested: int
    configs: tuple[Configuration, ...]
    coplanar_tuples: tuple[tuple[tuple[int, int, int, int], ...], ...]
    canonical_forms: tuple[bytes, ...]

    @property
    def k(self) -> int:
        return self.configs[0].k

    @property
    def steps_completed(self) -> int:
        return len(self.configs) - 1

    @property
    def truncated(self) -> bool:
        return self.steps_completed < self.steps_requested

    @property
    def star_ok(self) -> tuple[bool, ...]:
        """(*) at {1,2,3,4}: no sorted coplanar 4-tuple holds 3 centers (has its third <= 4)."""
        return tuple(all(sub[2] > 4 for sub in step) for step in self.coplanar_tuples)

    @property
    def tracked(self) -> tuple[DivisorClass, ...]:
        """``tracked[n]`` is M^n (H - E_{k-3} - .. - E_k), M the Coxeter element."""
        return tuple(iterate_class(plane_through_last_four(self.k), self.steps_completed))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(c.d for c in self.tracked)

    @property
    def bit_lengths(self) -> tuple[int, ...]:
        return tuple(max(abs(v).bit_length() for p in c.points for v in p.coords)
                     for c in self.configs)

    @property
    def all_pairwise_inequivalent(self) -> bool:
        return len(set(self.canonical_forms)) == len(self.canonical_forms)


def coxeter_iterate(config: Configuration, steps: int) -> IterationReport:
    """Iterate (Cremona at the first four points, then cyclic shift).

    Each configuration's table, which starts empty, reads only the 1 + 4 * 4
    brackets around {1,2,3,4}: they give the copy of the configuration
    normalized at base (1,2,3,4) (``normalized_at``), and the copy's table
    gives the coplanar 4-tuples, the canonical form and the next move, whose
    Cramer vectors decide condition (*) (``cremona_image``).  The copy is T
    applied to the points with T in PGL(4), each point rescaled, so each of
    its brackets is the stored one times det(T) and the four point scales,
    all nonzero: the zero brackets are the same, and so are the witness of
    (*) and the form.  Without a unit point for that base ([1234] = 0, or
    every other point on a plane of three centers) condition (*) fails, the
    last step reads the rest of the stored points' table, and no move is
    taken, so every move has a copy.

    The move from the copy gives the configuration that the move from the
    stored points gives, in another frame: the Cremona map at the centers is
    sigma o A, for sigma the standard involution
    (x1x2x3 : x0x2x3 : x0x1x3 : x0x1x2) and A any map sending the centers to
    the coordinate vertices.  A is fixed up to a diagonal D and a permutation
    of the vertices, and sigma(Dx) = D^-1 sigma(x), so the image is fixed up
    to PGL(4) with its labels, whichever frame its input is written in; by
    induction every step keeps its zero brackets, witnesses and form.  The
    stored points thus shed the height of the previous Cremona frame: at
    step 17 of ``random_config(7, 10)`` they are 4.1k bits tall, the copy
    2.3k bits.  The report stores the configuration the move produced, not
    the copy, so ``consistency_check`` rescans a table other than the one the
    iterate scanned.  The last step takes no move, so a failure of (*)
    there raises nothing.  When the move of an earlier step raises
    StarViolationError, it is raised again with the witness and the partial
    report of the configurations reached, whose last step is the failing one.
    """
    if config.k != 8:
        raise UsageError("iteration is defined for k = 8, got k = %d" % config.k)
    if steps < 1:
        raise UsageError("steps must be >= 1")
    centers = CenterSet((1, 2, 3, 4))
    shift = cyclic_shift(8)
    cfg, rows = config, []
    while True:
        br = BracketTable(cfg)
        short = normalized_at(br, centers.indices)
        table = br if short is None else BracketTable(short)
        rows.append((cfg, _zero_brackets(table), bracket_form(table)))
        if len(rows) > steps:
            break
        try:
            cfg = permute_config(cremona_image(table, centers), shift)
        except StarViolationError as err:
            raise StarViolationError(err.violation, IterationReport(steps, *zip(*rows))) from None
    return IterationReport(steps, *zip(*rows))  # each row holds one step's fields in order


def consistency_check(report: IterationReport) -> bool:
    """Rescan the stored points and test each step's scan against its tracked class.

    The zero scan of each configuration, which covers the 17 brackets of
    (*), comes from its stored points (``coplanar_scan``), independent of
    the normalized copies the iterate scanned.

    Coplanar 4-tuples may only occur where the step's tracked class is a plane
    class H - E_a - E_b - E_c - E_d, and then only at exactly {a,b,c,d}.
    """
    for cfg, found, cls in zip(report.configs, report.coplanar_tuples, report.tracked):
        if coplanar_scan(cfg) != found:
            return False
        if found:
            if cls.d != 1 or any(mi not in (0, 1) for mi in cls.m):
                return False
            ones = tuple(j + 1 for j, mi in enumerate(cls.m) if mi == 1)
            if len(ones) != 4 or found != (ones,):
                return False
    return True


# ---------------------------------------------------------------------------
# breadth-first orbit search

@dataclass(frozen=True, slots=True)
class OrbitNode:
    """A node of ``OrbitGraph.nodes``; its canonical form is the key it is stored under."""

    representative: Configuration
    depth: int


@dataclass(frozen=True, slots=True)
class OrbitGraph:
    nodes: dict
    edges: tuple
    truncated: bool
    frontier_remaining: int
    degenerate = ()  # no child lacks a frame (orbit_bfs); kept for the readers of the name


def _visit_all(configs, nworkers: int):
    """``canonical_form`` of each configuration in order, as it comes, on ``nworkers`` processes."""
    if nworkers == 1:
        yield from map(canonical_form, configs)
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            yield from pool.map(canonical_form, configs)


def env_workers() -> int:
    """Worker count requested by CREMONA_ORBITS_WORKERS (1 if unset or blank)."""
    env = os.environ.get("CREMONA_ORBITS_WORKERS", "").strip()
    if not env:
        return 1
    try:
        return int(env)
    except ValueError:
        raise UsageError("CREMONA_ORBITS_WORKERS must be an integer, got %r"
                         % env[:40]) from None


def worker_count(requested: int, tasks: int) -> int:
    """Processes to start: min(requested, usable CPUs, tasks), at least 1.

    Usable CPUs: the affinity set where there is one, else ``os.cpu_count()`` (macOS).
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(requested, cpus, tasks))


def orbit_bfs(config: Configuration, max_depth: int, max_nodes: int,
              workers: int | None = None) -> OrbitGraph:
    """Breadth-first orbit exploration with canonical-form deduplication.

    A node to be expanded has a bracket table here: the root keeps the one
    its form filled, and a node of a later level gets an empty one.  The
    table gives the Cremona move at each center set (``cremona_image``); a
    center set where condition (*) fails, so that the move raises, has no
    child.  The workers receive only the children and return only their
    forms (``canonical_form``); a child's own table stays in its worker.
    Results are level-synchronous and sorted before insertion, so the node
    and edge sets do not depend on worker count or scheduling.  ``workers``
    defaults to the CREMONA_ORBITS_WORKERS environment variable (1 if unset,
    UsageError if not an integer); each level starts
    ``worker_count(workers, tasks)`` processes.  Every node outside the final
    frontier has been expanded.

    Every child has a frame, so no form raises NoFrameError.  (*) at C says
    [C] != 0 and no vector of ``cramer(br, C)`` has a zero coordinate; the
    child puts C at e0..e3 and each other p_t at the ``_reciprocal`` of one,
    which has none either.  So for t outside C the five brackets of C + t
    are +-1 and +- the coordinates of p_t: C + t is a frame, which
    ``canonical._scan`` finds, as it reads every 5-subset with its largest
    label as unit point.
    """
    if max_depth < 0:
        raise UsageError("max_depth must be >= 0")
    if max_nodes < 1:
        raise UsageError("max_nodes must be >= 1")
    requested = env_workers() if workers is None else workers
    root_br = BracketTable(config)
    root_canon = bracket_form(root_br)
    nodes = {root_canon: OrbitNode(config, 0)}
    edges = []
    truncated = False
    frontier = [(root_canon, root_br)]
    center_sets = [CenterSet(sub) for sub in itertools.combinations(range(1, config.k + 1), 4)]
    for depth in range(max_depth):
        if not frontier or truncated:
            break
        tasks = []
        for canon, br in frontier:
            for centers in center_sets:
                try:
                    tasks.append((canon, centers, cremona_image(br, centers)))
                except StarViolationError:
                    continue  # condition (*) fails: no move at these centers
        forms = _visit_all([child for *_, child in tasks], worker_count(requested, len(tasks)))
        hits = sorted(zip(forms, tasks, strict=True),
                      key=lambda r: (r[0], r[1][0], r[1][1].indices))  # form, parent, centers
        frontier = []
        for canon, (parent_canon, centers, child) in hits:
            if canon not in nodes:
                if len(nodes) >= max_nodes:
                    truncated = True
                    continue  # node budget exhausted: drop node and edge
                nodes[canon] = OrbitNode(child, depth + 1)
                frontier.append((canon, BracketTable(child)))
            edges.append((parent_canon, canon, centers))
    return OrbitGraph(nodes=nodes, edges=tuple(edges), truncated=truncated,
                      frontier_remaining=len(frontier))
