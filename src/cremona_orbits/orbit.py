"""Drivers joining the geometric Cremona action to its lattice shadow.

``coxeter_iterate`` runs the degree-growth iteration (Cremona at the first
four points, then the cyclic shift) while cross-checking geometry against the
tracked divisor class; ``orbit_bfs`` explores the full orbit under all center
choices with canonical-form deduplication.  Both read everything from one
bracket table per configuration.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .canonical import bracket_form
from .errors import NoFrameError, StarViolationError, UsageError
from .lattice import (DivisorClass, class_map, coxeter_step, cremona_pushforward, cyclic_shift,
                      iterate_class, permute_class, plane_through_last_four)
from .projective import (CenterSet, Configuration, brackets, cremona_at, cremona_image,
                         permute_config, star_witness)


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

def _zero_brackets(br):
    return tuple(sub for sub, d in br.items() if d == 0)


def coplanar_scan(config: Configuration) -> tuple[tuple[int, int, int, int], ...]:
    """All 4-subsets of labels (sorted) whose points lie on a common plane."""
    return _zero_brackets(brackets(config))


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

    Each configuration's one bracket table gives its canonical form, its
    coplanar 4-tuples, condition (*) at {1,2,3,4} and the next move; the
    tracked class takes the same two steps alongside.  When condition (*)
    fails before the last step, a StarViolationError carries the step index
    and the partial report of the configurations reached.
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
        br = brackets(cfg)
        viol = star_witness(br, centers, 8)
        rows.append((cfg, viol is None, _zero_brackets(br), cls, bracket_form(8, br)))
        if len(rows) > steps or viol is not None:
            break
        cfg = permute_config(cremona_image(cfg, centers, br), shift)
        cls = coxeter_step(cls)
    report = IterationReport(steps, *zip(*rows))  # each row holds one step's fields in order
    if report.truncated:
        err = StarViolationError(viol, step=report.steps_completed)
        err.partial_report = report
        raise err
    return report


def consistency_check(report: IterationReport) -> bool:
    """Recompute the lattice prediction and the geometric scans; compare.

    The scans of each configuration come from one fresh bracket table.

    Coplanar 4-tuples may only occur where the tracked class is a plane class
    H - E_a - E_b - E_c - E_d, and then only at exactly {a,b,c,d}.
    """
    centers = CenterSet((1, 2, 3, 4))
    expected = iterate_class(plane_through_last_four(report.k), report.steps_completed)
    if tuple(expected) != report.tracked:
        return False
    for i, cfg in enumerate(report.configs):
        br = brackets(cfg)
        found = report.coplanar_tuples[i]
        if (_zero_brackets(br) != found
                or (star_witness(br, centers, report.k) is None) != report.star_ok[i]):
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
    """A configuration's canonical form and bracket table; (None, None) if it has no frame."""
    br = brackets(config)
    try:
        return bracket_form(config.k, br), br
    except NoFrameError:
        return None, None


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

    Each configuration's bracket table is built once, the root's here and
    every other one next to its form by ``_visit``; a node to be expanded
    keeps it.  The table decides condition (*) at each center set and gives
    each admissible child, and the workers receive only the children.
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
    root_br = brackets(config)
    root_canon = bracket_form(config.k, root_br)
    nodes = {root_canon: OrbitNode(root_canon, config, 0, None)}
    edges = []
    degenerate = []
    truncated = False
    frontier = [(root_canon, config, root_br)]
    center_sets = [CenterSet(sub) for sub in itertools.combinations(range(1, config.k + 1), 4)]
    depth = 0
    while frontier and depth < max_depth and not truncated:
        tasks = [(canon, centers, cremona_image(cfg, centers, br))
                 for canon, cfg, br in frontier for centers in center_sets
                 if star_witness(br, centers, config.k) is None]
        results = _visit_all([child for *_, child in tasks], worker_count(requested, len(tasks)))
        hits = []
        tables = {}  # tasks come in (parent form, centers) order: a form's first child sorts first
        for (parent_canon, centers, child), (canon, br) in zip(tasks, results, strict=True):
            if canon is None:
                degenerate.append((parent_canon, centers))
            else:
                hits.append((canon, parent_canon, centers, child))
                if depth + 1 < max_depth and canon not in nodes:
                    tables.setdefault(canon, br)
        hits.sort(key=lambda r: (r[0], r[1], r[2].indices))
        degenerate.sort(key=lambda r: (r[0], r[1].indices))
        frontier = []
        for canon, parent_canon, centers, child in hits:
            if canon not in nodes:
                if len(nodes) >= max_nodes:
                    truncated = True
                    continue  # node budget exhausted: drop node and edge
                nodes[canon] = OrbitNode(canon, child, depth + 1, (parent_canon, centers))
                frontier.append((canon, child, tables.get(canon)))
            edges.append((parent_canon, canon, centers))
        depth += 1
    return OrbitGraph(nodes=nodes, edges=tuple(edges), truncated=truncated,
                      frontier_remaining=len(frontier), degenerate=tuple(degenerate))
