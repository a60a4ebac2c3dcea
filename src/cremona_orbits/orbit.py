"""Drivers joining the geometric Cremona action to its lattice shadow.

``coxeter_iterate`` runs the degree-growth iteration (Cremona at the first
four points, then the cyclic shift) while cross-checking geometry against the
tracked divisor class; ``orbit_bfs`` explores the full orbit under all center
choices with canonical-form deduplication.  Every reader builds its own
bracket table, empty at first: ``orbit_bfs`` reads each child's form from a
table in the worker, and an expanded node's children from one in the parent.
``coxeter_iterate`` reads condition (*) and the next move from the 17
brackets around the centers, and the canonical form and the coplanar scan
from the 70-bracket table of a frame-normalized copy.  ``consistency_check``
rescans the stored points through a ``ZeroTable`` (zero tests only).
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .canonical import bracket_form, canonical_form, normalized_at
from .errors import NoFrameError, StarViolationError, UsageError
from .lattice import (DivisorClass, class_map, coxeter_step, cremona_pushforward, cyclic_shift,
                      iterate_class, permute_class, plane_through_last_four)
from .projective import (BracketTable, CenterSet, Configuration, ZeroTable, cremona_at,
                         cremona_image, permute_config, star_witness)


@dataclass(frozen=True, slots=True)
class CremonaMove:
    centers: CenterSet


@dataclass(frozen=True, slots=True)
class PermuteMove:
    perm: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class CremonaWord:
    """A sequence of Cremona moves and relabelings."""

    moves: tuple

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(self.moves))
        for mv in self.moves:
            if not isinstance(mv, (CremonaMove, PermuteMove)):
                raise TypeError("unknown move %r" % (mv,))

    @classmethod
    def coxeter_step(cls, k: int = 8) -> "CremonaWord":
        """Cremona at {1,2,3,4} followed by the shift putting point 1 last."""
        return cls((CremonaMove(CenterSet((1, 2, 3, 4))), PermuteMove(cyclic_shift(k))))


def _class_step(c: DivisorClass, move) -> DivisorClass:
    """One move of a word on a divisor class, through the lattice's two generators."""
    if isinstance(move, CremonaMove):
        return cremona_pushforward(c, move.centers.indices)
    return permute_class(c, move.perm)


def apply_word(config: Configuration, word: CremonaWord):
    """Apply the word; return the final configuration and the composite lattice map.

    The shadow sends a class on the input to its strict transform on the
    output: its columns are the basis classes H, E_1..E_k stepped through
    the word's moves in order.  Fails atomically on the first condition-(*)
    violation, reporting the step.
    """
    cur = config
    for step, move in enumerate(word.moves):
        if isinstance(move, CremonaMove):
            try:
                cur = cremona_at(cur, move.centers)
            except StarViolationError as e:
                raise StarViolationError(e.violation, step=step) from None
        else:
            cur = permute_config(cur, move.perm)
    return cur, class_map(config.k, lambda c: functools.reduce(_class_step, word.moves, c))


# ---------------------------------------------------------------------------
# the degree-growth iteration

def _zero_brackets(br: BracketTable):
    """The sorted 4-subsets with a zero bracket, read from ``br`` in lexicographic order."""
    return tuple(sub for sub in itertools.combinations(range(1, br.k + 1), 4) if br[sub] == 0)


def coplanar_scan(config: Configuration) -> tuple[tuple[int, int, int, int], ...]:
    """All 4-subsets of labels (sorted) whose points lie on a common plane."""
    return _zero_brackets(BracketTable(config))


@dataclass(frozen=True, slots=True)
class IterationReport:
    """Per-step record of the iteration, geometric scan included.

    Entry n of each per-step field describes the configuration after n steps;
    ``tracked[n]`` is the n-th power of the Coxeter element applied to
    H - E_{k-3} - .. - E_k.  Stored are the request, the configurations, what
    their bracket tables give (``star_ok``, ``coplanar_tuples``, the forms) and
    the tracked classes that ``consistency_check`` replays; the rest are properties.
    """

    steps_requested: int
    configs: tuple[Configuration, ...]
    star_ok: tuple[bool, ...]
    coplanar_tuples: tuple[tuple[tuple[int, int, int, int], ...], ...]
    tracked: tuple[DivisorClass, ...]
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

    Condition (*) at {1,2,3,4} and the next move read only the 1 + 4 * 4
    brackets around {1,2,3,4} from each configuration's table, which starts
    empty.  The same brackets give the copy of
    the configuration normalized at base (1,2,3,4) (``normalized_at``), and
    the copy's table gives the canonical form and the coplanar 4-tuples.  The
    copy is T applied to the points with T in PGL(4), each point rescaled, so
    each of its brackets is the stored one times det(T) and the four point
    scales, all nonzero: the zero brackets are the same, and so is the form.
    The stored points carry the height of the Cremona frame they are written
    in: at step 17 of ``random_config(7, 10)`` they are 15.9k bits tall, the
    copy 2.3k bits.  Without a unit point for that base ([1234] = 0, or every
    other point on a plane of three centers) condition (*) fails, and the
    last step reads the rest of the stored points' table.  The tracked class
    takes the same two steps alongside.  When condition (*) fails before the
    last step, a StarViolationError carries the step index and the partial
    report of the configurations reached.
    """
    if config.k != 8:
        raise UsageError("iteration is defined for k = 8, got k = %d" % config.k)
    if steps < 1:
        raise UsageError("steps must be >= 1")
    centers = CenterSet((1, 2, 3, 4))
    shift = cyclic_shift(8)
    cfg, cls = config, plane_through_last_four(8)
    rows = []
    while True:
        br = BracketTable(cfg)
        viol = star_witness(br, centers)
        short = normalized_at(br, centers.indices)
        table = br if short is None else BracketTable(short)
        rows.append((cfg, viol is None, _zero_brackets(table), cls, bracket_form(table)))
        if len(rows) > steps or viol is not None:
            break
        cfg = permute_config(cremona_image(br, centers), shift)
        cls = coxeter_step(cls)
    report = IterationReport(steps, *zip(*rows))  # each row holds one step's fields in order
    if report.truncated:
        err = StarViolationError(viol, step=report.steps_completed)
        err.partial_report = report
        raise err
    return report


def consistency_check(report: IterationReport) -> bool:
    """Recompute the lattice prediction and the geometric scans; compare.

    The scans of each configuration come from one fresh ``ZeroTable`` (zero
    tests only) of its stored points, independent of the normalized copies
    the iterate scanned.

    Coplanar 4-tuples may only occur where the tracked class is a plane class
    H - E_a - E_b - E_c - E_d, and then only at exactly {a,b,c,d}.
    """
    centers = CenterSet((1, 2, 3, 4))
    expected = iterate_class(plane_through_last_four(report.k), report.steps_completed)
    if tuple(expected) != report.tracked:
        return False
    for i, cfg in enumerate(report.configs):
        br = ZeroTable(cfg)
        found = report.coplanar_tuples[i]
        if (_zero_brackets(br) != found
                or (star_witness(br, centers) is None) != report.star_ok[i]):
            return False
        if found:
            cls = report.tracked[i]
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
    canonical_form: bytes
    representative: Configuration
    depth: int
    parent_edge: tuple[bytes, CenterSet] | None


@dataclass(frozen=True, slots=True)
class OrbitGraph:
    nodes: dict
    edges: tuple
    truncated: bool
    frontier_remaining: int
    degenerate: tuple


def _visit(config: Configuration):
    """A configuration's canonical form; None if it has no frame."""
    try:
        return canonical_form(config)
    except NoFrameError:
        return None


def _visit_all(configs, nworkers: int):
    """``_visit`` of each configuration in order, as it comes, on ``nworkers`` processes."""
    if nworkers == 1:
        yield from map(_visit, configs)
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            yield from pool.map(_visit, configs)


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
    """Processes to start: min(requested, os.cpu_count(), tasks), at least 1."""
    return max(1, min(requested, os.cpu_count() or 1, tasks))


def orbit_bfs(config: Configuration, max_depth: int, max_nodes: int,
              workers: int | None = None) -> OrbitGraph:
    """Breadth-first orbit exploration with canonical-form deduplication.

    A node to be expanded has a bracket table here: the root keeps the one
    its form filled, and a node of a later level gets an empty one.  The
    table decides condition (*) at each center set and gives each admissible
    child.  The workers receive only the children and return only their
    forms (``_visit``); a child's own table stays in its worker.
    Results are level-synchronous and sorted before insertion, so the node
    and edge sets do not depend on worker count or scheduling.  ``workers``
    defaults to the CREMONA_ORBITS_WORKERS environment variable (1 if unset,
    UsageError if not an integer); each level starts
    ``worker_count(workers, tasks)`` processes.  Every node outside the final
    frontier has been expanded.
    """
    if max_depth < 0:
        raise UsageError("max_depth must be >= 0")
    if max_nodes < 1:
        raise UsageError("max_nodes must be >= 1")
    requested = env_workers() if workers is None else workers
    root_br = BracketTable(config)
    root_canon = bracket_form(root_br)
    nodes = {root_canon: OrbitNode(root_canon, config, 0, None)}
    edges = []
    degenerate = []
    truncated = False
    frontier = [(root_canon, root_br)]
    center_sets = [CenterSet(sub) for sub in itertools.combinations(range(1, config.k + 1), 4)]
    depth = 0
    while frontier and depth < max_depth and not truncated:
        tasks = [(canon, centers, cremona_image(br, centers))
                 for canon, br in frontier for centers in center_sets
                 if star_witness(br, centers) is None]
        forms = _visit_all([child for *_, child in tasks], worker_count(requested, len(tasks)))
        hits = []
        for (parent_canon, centers, child), canon in zip(tasks, forms, strict=True):
            if canon is None:
                degenerate.append((parent_canon, centers))
            else:
                hits.append((canon, parent_canon, centers, child))
        hits.sort(key=lambda r: (r[0], r[1], r[2].indices))
        degenerate.sort(key=lambda r: (r[0], r[1].indices))
        frontier = []
        for canon, parent_canon, centers, child in hits:
            if canon not in nodes:
                if len(nodes) >= max_nodes:
                    truncated = True
                    continue  # node budget exhausted: drop node and edge
                nodes[canon] = OrbitNode(canon, child, depth + 1, (parent_canon, centers))
                frontier.append((canon, BracketTable(child)))
            edges.append((parent_canon, canon, centers))
        depth += 1
    return OrbitGraph(nodes=nodes, edges=tuple(edges), truncated=truncated,
                      frontier_remaining=len(frontier), degenerate=tuple(degenerate))
