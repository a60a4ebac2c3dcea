"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import math
import random

import cremona_orbits as co
from cremona_orbits import canonical, linalg, orbit
from cremona_orbits.lattice import _from_vector, _pushforward, _to_vector
from cremona_orbits.projective import BracketTable, cremona_image


def cfg_from_rows(rows) -> co.Configuration:
    return co.Configuration(tuple(co.normalize_point(tuple(r)) for r in rows))


def rand_invertible_map(rng, bound=9):
    """The rows of a random invertible 4x4 integer matrix, an element of PGL(4)."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(4)]
        if linalg.det4(rows) != 0:
            return rows


def moved(config, rows) -> co.Configuration:
    """The configuration with each point p sent to the point of rows @ p."""
    return co.Configuration(tuple(co.normalize_point(linalg.mat_vec(rows, p.coords))
                                  for p in config.points))


def frame_matrix(points):
    """Rows of the map sending five points to e0, e1, e2, e3, (1:1:1:1), or None for a non-frame.

    With A the matrix whose columns are the first four points and u the
    fifth, adj(A) sends them to multiples of e0..e3 and u to c = adj(A) u;
    row i rescaled by 1 / c_i, cleared of denominators, fixes the scales.
    The points are a frame iff det(A) and every c_i are nonzero.
    """
    a = tuple(tuple(p.coords[i] for p in points[:4]) for i in range(4))
    if linalg.det4(a) == 0:
        return None
    adj = linalg.adjugate4(a)
    c = linalg.mat_vec(adj, points[4].coords)
    if 0 in c:
        return None
    scale = math.prod(c)
    return tuple(tuple(scale // ci * v for v in row) for ci, row in zip(c, adj))


def same_labelled_points(a, b) -> bool:
    """True iff one map of PGL(4) sends each point of ``b`` to the point of ``a`` with its label.

    Both are moved by ``frame_matrix`` of their points 1..5, which must be a
    frame; the map exists iff the moved configurations are equal.
    """
    ta, tb = frame_matrix(a.points[:5]), frame_matrix(b.points[:5])
    assert ta is not None and tb is not None, "points 1..5 are not a frame"
    return moved(a, ta) == moved(b, tb)


def rand_permutation(rng, k) -> tuple[int, ...]:
    perm = list(range(1, k + 1))
    rng.shuffle(perm)
    return tuple(perm)


def rand_divisor(rng, k=8, bound=9) -> co.DivisorClass:
    return co.DivisorClass(
        rng.randint(-bound, bound), tuple(rng.randint(-bound, bound) for _ in range(k))
    )


def special_coplanar_config(seed, height=20) -> co.Configuration:
    """Points 5-8 on the plane X3 = 0; the only coplanar 4-tuple is {5,6,7,8}."""
    rng = random.Random(seed)
    for _attempt in range(200):
        pts = []
        while len(pts) < 8:
            raw = [rng.randint(-height, height) for _ in range(4)]
            if len(pts) >= 4:
                raw[3] = 0
            if tuple(raw) == (0, 0, 0, 0):
                continue
            p = co.normalize_point(tuple(raw))
            if any(p == q for q in pts):
                continue
            pts.append(p)
        cfg = co.Configuration(tuple(pts))
        if co.coplanar_scan(cfg) == ((5, 6, 7, 8),):
            return cfg
    raise RuntimeError("failed to sample a special configuration for seed %d" % seed)


def star_failing_configs() -> tuple[co.Configuration, ...]:
    """Three configurations on which the iterate stops with a partial report.

    unit_not_5: point 5 is not the unit point, so the iterate's normalized
    copy is not the stored frame.  no_base: [1234] = 0, so the iterate falls
    back to the full table.  two_planes: points 1..4 on X3 = 0 and 5..8 on
    X0 + X1 + X2 + X3 = 0, four coplanar 4-tuples.
    """
    unit_not_5 = cfg_from_rows(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
         (1, 1, 1, 0), (1, 2, 3, 4), (1, 1, 2, 3), (3, 1, 1, 2)]
    )
    no_base = co.permute_config(special_coplanar_config(0), (5, 6, 7, 8, 1, 2, 3, 4))
    two_planes = cfg_from_rows(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 0),
         (1, 2, -4, 1), (2, -1, 3, -4), (3, 1, -2, -2), (1, -3, 1, 1)]
    )
    return unit_not_5, no_base, two_planes


def table_zeros(config) -> tuple[tuple[int, int, int, int], ...]:
    """The sorted 4-subsets with a zero bracket, read from the full exact ``BracketTable``."""
    exact = BracketTable(config)
    return tuple(sub for sub in itertools.combinations(range(1, config.k + 1), 4)
                 if exact[sub] == 0)


def coxeter_chain(config, steps) -> co.Configuration:
    """``steps`` Coxeter moves on the stored points: Cremona at {1,2,3,4}, then the cyclic shift.

    Each move reads the points the last one produced, so coordinates grow
    about cubically in the step count; a cheap source of tall inputs.
    """
    centers, shift = co.CenterSet((1, 2, 3, 4)), co.cyclic_shift(config.k)
    for _ in range(steps):
        config = co.permute_config(co.cremona_at(config, centers), shift)
    return config


def _signed(y, sigma):
    """Canonical point y with coordinates reordered by sigma: flip to a positive lead."""
    yy = tuple(y[i] for i in sigma)
    return yy if next(v for v in yy if v) > 0 else tuple(-v for v in yy)


def _encode(k, pts) -> bytes:
    return b"%d|" % k + b";".join(b",".join(b"%d" % v for v in p) for p in pts)


def brute_force_canonical(config) -> bytes:
    """Reference canonical form, straight from the definition.

    Normalize by every ordered 5-point frame through an explicit matrix
    (``frame_matrix``), sort the canonical points, keep the least outcome in
    the order of integer point tuples, and serialize it.
    """
    best = None
    for order in itertools.permutations(range(config.k), 5):
        t = frame_matrix([config.points[i] for i in order])
        if t is None:
            continue
        pts = sorted(p.coords for p in moved(config, t).points)
        if best is None or pts < best:
            best = pts
    if best is None:
        raise co.NoFrameError("no frame among the test points")
    return _encode(config.k, best)


def brute_force_canonical_bytes(config) -> bytes:
    """The earlier reference: the same candidates, the byte-least serialization kept.

    It picks other winners than ``brute_force_canonical`` but must decide
    equivalence the same way.  For speed it builds ``frame_matrix`` once per
    5-subset and unit point: reordering the four vertices b_i -> e_i only
    permutes the coordinates of every image.
    """
    best = None
    for frame in itertools.combinations(range(config.k), 5):
        for unit in frame:
            order = [i for i in frame if i != unit] + [unit]
            t = frame_matrix([config.points[i] for i in order])
            if t is None:
                continue
            images = [p.coords for p in moved(config, t).points]
            for sigma in itertools.permutations(range(4)):
                blob = _encode(config.k, sorted(_signed(y, sigma) for y in images))
                if best is None or blob < best:
                    best = blob
    if best is None:
        raise co.NoFrameError("no frame among the test points")
    return best


def unpruned_form(config) -> bytes:
    """``canonical_form`` with its selection done the long way.

    The least candidate over every image set of the candidate order (each
    frame of ``canonical._scan`` with its five ``canonical._unit_choices``)
    and all 24 vertex orders, with no prune.  Cheaper than the two
    references above at k = 10, it checks the selection, not the image sets.
    """
    best = None
    for reduced in canonical._scan(co.projective.BracketTable(config))[1]:
        for ys in canonical._unit_choices(reduced):
            for sigma in itertools.permutations(range(4)):
                cand = sorted(_signed(y, sigma) for y in ys)
                if best is None or cand < best:
                    best = cand
    return _encode(config.k, sorted([p.coords for p in co.projective._FRAME] + best))


# ---------------------------------------------------------------------------
# the earlier iterate, kept as a differential oracle

def stored_stepping_iterate(config, steps) -> co.IterationReport:
    """``coxeter_iterate`` as it was before it stepped from its normalized copy.

    Each move reads the stored points' own table, so step n + 1 is written in
    the Cremona frame of step n and the stored points grow about cubically in
    the step count (15.9k bits at step 17 of ``random_config(7, 10)``).  The
    form and the zero scan still come from the copy normalized at (1,2,3,4),
    or from the stored table when there is none; condition (*) is read from
    the stored points by ``star_violation``.  Same report, same
    StarViolationError with its partial report.
    """
    centers = co.CenterSet((1, 2, 3, 4))
    shift = co.cyclic_shift(8)
    cfg = config
    rows = []
    while True:
        br = BracketTable(cfg)
        viol = co.star_violation(cfg, centers)
        short = canonical.normalized_at(br, centers.indices)
        table = br if short is None else BracketTable(short)
        rows.append((cfg, orbit._zero_brackets(table), canonical.bracket_form(table)))
        if len(rows) > steps or viol is not None:
            break
        cfg = co.permute_config(cremona_image(br, centers), shift)
    report = co.IterationReport(steps, *zip(*rows))
    if report.truncated:
        raise co.StarViolationError(viol, report)
    return report


# ---------------------------------------------------------------------------
# earlier lattice algorithms, kept as differential oracles

def pushforward(c, centers) -> co.DivisorClass:
    """The Cremona pushforward of a class at 1-based centers, through ``lattice._pushforward``."""
    return co.DivisorClass(*_pushforward(c.d, c.m, centers))


def permute_class(c, perm) -> co.DivisorClass:
    """Relabel multiplicities: new m_i = old m_{perm[i]} (1-based labels)."""
    return co.DivisorClass(c.d, tuple(c.m[p - 1] for p in perm))


def map_class(M, c) -> co.DivisorClass:
    """The class M sends c to, by a matrix-vector product in the (H, E) basis."""
    return _from_vector(linalg.mat_vec(M.entries, _to_vector(c)))


def class_map(k, image) -> co.LatticeMap:
    """The lattice map of a linear class action: column j is the vector of image(basis class j)."""
    cols = [_to_vector(image(_from_vector(e))) for e in linalg.identity(k + 1)]
    return co.LatticeMap(tuple(zip(*cols)))


def cremona_map(k, centers) -> co.LatticeMap:
    """The dense matrix of the Cremona pushforward at the centers."""
    return class_map(k, lambda c: pushforward(c, centers))


def permutation_map(k, perm) -> co.LatticeMap:
    """The dense matrix of the relabeling ``permute_class(., perm)``."""
    return class_map(k, lambda c: permute_class(c, perm))


def _coxeter_step_by_generators(c) -> co.DivisorClass:
    return permute_class(pushforward(c, (1, 2, 3, 4)), co.cyclic_shift(c.k))


def distinctness_by_dict(v, N) -> co.DistinctnessReport:
    """The distinctness report from the whole orbit, every class hashed into a dict.

    The orbit steps through the pushforward and the relabeling by
    ``cyclic_shift``, not through the Coxeter step's slicing.
    """
    orbit = [v]
    for _ in range(max(N, 2)):
        orbit.append(_coxeter_step_by_generators(orbit[-1]))
    quad = [c - 2 * b + a for a, b, c in zip(*map(_to_vector, orbit[:3]))]
    orbit = orbit[: N + 1]
    seen = {}
    first_collision = None
    for n, c in enumerate(orbit):
        key = (c.d, c.m)
        if key in seen:
            first_collision = (seen[key], n)
            break
        seen[key] = n
    return co.DistinctnessReport(v, first_collision, tuple(c.d for c in orbit), any(quad))


def word_fixes_basis(k, word, power) -> bool:
    """True iff (word)^power returns each basis class H, E_1..E_k to itself.

    Letters as in ``lattice._word_is_identity``: 0 is the Cremona move at
    {1,2,3,4}, i >= 1 swaps multiplicities i and i+1; the last letter acts
    first.  By linearity, fixing the basis is the matrix identity.
    """
    def act(c):
        for g in reversed(word * power):
            c = (pushforward(c, (1, 2, 3, 4)) if g == 0
                 else co.DivisorClass(c.d, c.m[:g - 1] + (c.m[g], c.m[g - 1]) + c.m[g + 1:]))
        return c

    return all(_to_vector(act(_from_vector(e))) == e for e in linalg.identity(k + 1))
