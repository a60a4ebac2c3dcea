"""Exact projective geometry over Q in P^3.

Points are canonical integer 4-tuples (gcd 1, first nonzero coordinate
positive), which ``ProjectivePoint`` alone builds from any nonzero integer
4-tuple, so equality of points is equality of tuples.  All predicates are
exact integer decisions; floats are rejected outright.

Every bracket comes from one table (``BracketTable``), which starts empty
and computes a bracket the first time it is read.  Condition (*) and the
coplanar scan read it directly; the Cremona image and the canonical form read
it through one Cramer rule (``cramer``).  Each reader builds its own table
and fills only what it reads: a lone ``cremona_at`` or ``star_violation``
reads the 1 + 4(k - 4) brackets around its centers.  ``orbit``'s rescan of
the stored points, which only tests their brackets against zero, reads no
table: it takes each residue first (``orbit._zero_subsets``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegeneratePointError,
    GenerationError,
    StarViolation,
    StarViolationError,
    UsageError,
)
from .lattice import _check_rank
from .linalg import adjugate4, det4


def _oriented(p):
    """p or -p, whichever has a positive first nonzero entry."""
    return p if p > (0, 0, 0, 0) else tuple(-v for v in p)


def _primitive(v):
    """v divided by the gcd of its entries, signed so the first nonzero entry is positive."""
    g = math.gcd(*v)
    if g == 0:
        raise DegeneratePointError("all four homogeneous coordinates are zero")
    return _oriented(tuple(x // g for x in v))


@dataclass(frozen=True, slots=True, order=True)
class ProjectivePoint:
    """A point of P^3 from any nonzero 4 ints, made canonical here (``_primitive``), not before."""

    coords: tuple[int, int, int, int]

    def __post_init__(self):
        c = tuple(self.coords)
        if len(c) != 4 or not all(isinstance(v, int) for v in c):
            raise TypeError("coords must be 4 integers, got %s" % [type(v).__name__ for v in c])
        object.__setattr__(self, "coords", _primitive(c))


# the coordinate vertices e0, e1, e2, e3
_VERTICES = tuple(ProjectivePoint(tuple(int(i == j) for j in range(4))) for i in range(4))


def normalize_point(raw) -> ProjectivePoint:
    """The point of a 4-tuple of ints or Fractions, cleared of denominators; floats are rejected."""
    vals = []
    for v in raw:
        if isinstance(v, float):
            raise TypeError("floating point coordinates are not allowed: %r" % (v,))
        vals.append(v if isinstance(v, (int, Fraction)) else Fraction(v))
    lcm = math.lcm(*(v.denominator for v in vals))
    return ProjectivePoint(tuple(int(v * lcm) for v in vals))


@dataclass(frozen=True, slots=True)
class Configuration:
    """Ordered tuple of k >= 8 distinct points; labels run 1..k."""

    points: tuple[ProjectivePoint, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 8:
            raise ValueError("need at least 8 points, got %d" % len(pts))
        if len({p.coords for p in pts}) != len(pts):
            raise ValueError("points must be pairwise distinct")

    @property
    def k(self) -> int:
        return len(self.points)

    def point(self, label: int) -> ProjectivePoint:
        return self.points[label - 1]


@dataclass(frozen=True, slots=True)
class CenterSet:
    """Four distinct 1-based labels, kept sorted."""

    indices: tuple[int, int, int, int]

    def __post_init__(self):
        idx = tuple(sorted(self.indices))
        object.__setattr__(self, "indices", idx)
        if len(idx) != 4 or len(set(idx)) != 4:
            raise UsageError("need exactly 4 distinct labels, got %r" % (self.indices,))
        if idx[0] < 1:
            raise UsageError("labels are 1-based, got %r" % (idx,))

    def within(self, k: int) -> "CenterSet":
        """This center set, after checking that every label is at most k."""
        if self.indices[-1] > k:
            raise UsageError("center labels %r out of range 1..%d" % (self.indices, k))
        return self

    def complement(self, k: int) -> tuple[int, ...]:
        inside = set(self.indices)
        return tuple(i for i in range(1, k + 1) if i not in inside)


# ---------------------------------------------------------------------------
# predicates

def coplanar(p1, p2, p3, p4) -> bool:
    """True iff the four points lie on a common plane (4x4 determinant zero)."""
    return det4((p1.coords, p2.coords, p3.coords, p4.coords)) == 0


class BracketTable(dict):
    """The brackets [abcd] = det(p_a, p_b, p_c, p_d) of a configuration, by sorted 4-subset.

    It starts empty and computes a bracket the first time it is read, so it
    holds its keys in read order; a bracket is zero iff its four points are
    coplanar.  It is the one source of the configuration's brackets.
    """

    __slots__ = ("k", "_pts")

    def __init__(self, config: Configuration):
        super().__init__()
        self.k = config.k
        self._pts = (None,) + tuple(p.coords for p in config.points)

    def __missing__(self, sub):
        pts = self._pts
        value = self[sub] = det4((pts[sub[0]], pts[sub[1]], pts[sub[2]], pts[sub[3]]))
        return value


# the signs (-1)^r of the four positions r != j of a sorted 5-subset
_DROP_SIGNS = tuple(tuple((-1) ** r for r in range(5) if r != j) for j in range(5))


def _signed_drops(base, t):
    """The four 4-subsets S - S_r that ``cramer`` reads, then their signs (-1)^r.

    S = sorted(base + t), and r runs over the positions of the base labels
    in S.  When no label exceeds ``_DROPS_LABELS`` the result is kept in
    ``_DROPS``, its 4-subsets shared through ``_SUBSETS``.
    """
    s = sorted((*base, t))
    subs = reversed(list(itertools.combinations(s, 4)))  # S - S_r for r = 0..4
    kept = s[4] <= _DROPS_LABELS
    drops = (*(_SUBSETS.setdefault(sub, sub) if kept else sub
               for label, sub in zip(s, subs) if label != t),
             _DROP_SIGNS[s.index(t)])
    if kept:
        _DROPS[base, t] = drops
    return drops


# _signed_drops by (base, t) for labels up to 12 (at most C(12, 4) * 8 = 3960
# entries), filled on first use, and the 4-subsets its entries share.  Built at
# import, the table would take its memory in every process, used or not.
_DROPS = {}
_SUBSETS = {}
_DROPS_LABELS = 12


def cramer(br, base, t):
    """adj(A) p_t up to a common sign, divided by its gcd: the signed 5-subset rule.

    A has the points of the sorted labels ``base`` as columns; the brackets
    of base + t are read from the table ``br``.  By Cramer's rule (adj(A) p_t)_i is the bracket
    of the base with p_t in column i.  Let S = sorted(base + t) hold t at
    position j and base[i] at position r: sorting that column order takes
    r + j + 1 transpositions mod 2, so (adj(A) p_t)_i = (-1)^(r+j+1) [S - S_r].
    The common sign (-1)^(j+1) is dropped.  The vector is nonzero if [base] is.
    The signed drops depend on the labels only, so they are kept in a table
    bounded by the largest label.
    """
    s0, s1, s2, s3, (e0, e1, e2, e3) = _DROPS.get((base, t)) or _signed_drops(base, t)
    v0, v1, v2, v3 = e0 * br[s0], e1 * br[s1], e2 * br[s2], e3 * br[s3]
    g = math.gcd(v0, v1, v2, v3)
    return v0 // g, v1 // g, v2 // g, v3 // g


def star_witness(br: BracketTable, centers: CenterSet) -> StarViolation | None:
    """``star_violation`` read from the bracket table ``br``, up to its first zero bracket.

    The bracket of the centers with p_t in place of c_{i+1}, coordinate i of
    ``cramer(br, centers, t)`` up to sign, is zero iff p_t lies on the plane
    through the other three centers.
    """
    idx = centers.indices
    if br[idx] == 0:
        return StarViolation(plane=idx)
    others = centers.complement(br.k)
    for i in (3, 2, 1, 0):  # dropping c4 leaves the plane (c1, c2, c3), which comes first
        plane = idx[:i] + idx[i + 1:]
        for t in others:
            if br[tuple(sorted((*plane, t)))] == 0:
                return StarViolation(plane=plane, point=t)
    return None


def star_violation(config: Configuration, centers: CenterSet) -> StarViolation | None:
    """First witness against condition (*), or None if it holds.

    Condition (*): the centers span P^3 and no other point of the
    configuration lies on any plane through three of them.  The witness is
    the first failure in this order: the four centers themselves; then the
    planes (c1,c2,c3), (c1,c2,c4), (c1,c3,c4), (c2,c3,c4) of the sorted
    centers, each against the other points in ascending label order.
    """
    return star_witness(BracketTable(config), centers.within(config.k))


# ---------------------------------------------------------------------------
# relabeling

def check_permutation(perm, k: int) -> None:
    """Raise ValueError unless perm lists each label 1..k exactly once."""
    if len(perm) != k or sorted(perm) != list(range(1, k + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (k, perm))


def permute_config(config: Configuration, perm) -> Configuration:
    """Reorder points: new position i holds old point perm[i] (1-based)."""
    check_permutation(perm, config.k)
    return Configuration(tuple(config.points[p - 1] for p in perm))


# ---------------------------------------------------------------------------
# the Cremona move

def cremona_at(config: Configuration, centers: CenterSet) -> Configuration:
    """Cremona transformation centered at four configuration points (``cremona_image``).

    Raises StarViolationError when condition (*) fails.
    """
    br = BracketTable(config)
    viol = star_witness(br, centers.within(config.k))
    if viol is not None:
        raise StarViolationError(viol)
    return cremona_image(br, centers)


def _reciprocal(y):
    """(1/y0 : 1/y1 : 1/y2 : 1/y3), cleared of denominators."""
    return (y[1] * y[2] * y[3], y[0] * y[2] * y[3], y[0] * y[1] * y[3], y[0] * y[1] * y[2])


def cremona_image(br: BracketTable, centers: CenterSet) -> Configuration:
    """The Cremona move at centers where (*) holds, read from the configuration's bracket table.

    Output is written in the Cremona frame: T = adj(A), A the matrix whose
    columns are the sorted centers, puts the centers at the coordinate
    vertices.  Each center maps to the vertex it occupies (the image of the
    plane through the other three centers), and every other point p_t to the
    coordinate-wise reciprocal of its T-image, a multiple of ``cramer(br, centers, t)``.
    """
    idx = centers.indices
    vertex = dict(zip(idx, _VERTICES))
    return Configuration(tuple(
        vertex[t] if t in vertex else ProjectivePoint(_reciprocal(cramer(br, idx, t)))
        for t in range(1, br.k + 1)))


# ---------------------------------------------------------------------------
# seeded generation

def _plane(p, q, r):
    """The plane through three points: det(p, q, r, x) is its dot product with x.

    Its entries are the last-row cofactors, read off column 3 of the adjugate;
    all four are zero iff the three points are collinear.
    """
    return tuple(row[3] for row in adjugate4((p, q, r, (0, 0, 0, 0))))


def random_config(seed: int, height: int, k: int = 8) -> Configuration:
    """Deterministic k-point configuration in general position.

    Coordinates are drawn uniformly from [-height, height]; points are added
    one at a time and rejected while they create a duplicate, a collinear
    triple, or a coplanar 4-tuple, so every 4-subset of the result spans P^3
    (hence condition (*) holds for every center choice and every 5 points
    contain a frame).
    """
    if height < 2:
        raise UsageError("height must be >= 2")
    _check_rank(k)
    rng = random.Random(seed)
    for _restart in range(50):
        pts: list[tuple[int, ...]] = []
        planes: list[tuple[int, ...]] = []  # one per accepted triple
        while len(pts) < k:
            for _try in range(2000):
                raw = tuple(rng.randint(-height, height) for _ in range(4))
                if raw == (0, 0, 0, 0):
                    continue
                cand = _primitive(raw)
                if cand in pts:
                    continue
                if len(pts) == 2 and not any(_plane(*pts, cand)):
                    continue  # collinear
                x0, x1, x2, x3 = cand
                if any(h0 * x0 + h1 * x1 + h2 * x2 + h3 * x3 == 0 for h0, h1, h2, h3 in planes):
                    continue
                planes.extend(_plane(p, q, cand) for p, q in itertools.combinations(pts, 2))
                pts.append(cand)
                break
            else:
                break  # budget for this point exhausted; restart from scratch
        if len(pts) == k:
            return Configuration(tuple(map(ProjectivePoint, pts)))
    raise GenerationError(
        "could not sample %d points in general position at height %d (seed %d)"
        % (k, height, seed)
    )
