"""Exact projective geometry over Q in P^3.

Points are canonical integer 4-tuples (gcd 1, first nonzero coordinate
positive), which ``ProjectivePoint`` alone builds from any nonzero integer
4-tuple, so equality of points is equality of tuples.  All predicates are
exact integer decisions; floats are rejected outright.

Every bracket comes from one table (``BracketTable``), which starts empty
and computes a bracket the first time it is read.  The iterate's zero scan
reads it directly; the Cremona move and the canonical form read it through
one Cramer rule (``cramer``), which gives the vectors of every point outside
a base in one call, reading the table through that base's plan
(``_cramer_plan``, cached per k and base).  The move decides condition (*)
from the same Cramer vectors it inverts.  Each reader builds its own table
and fills only what it reads: a lone ``cremona_at`` or ``star_violation``
reads the 1 + 4(k - 4) brackets around its centers.
``orbit.coplanar_scan``, which only tests brackets against zero, reads no
table: it takes each residue first.

The standard frame (``_FRAME``: e0, e1, e2, e3, (1:1:1:1)) is written once:
the Cremona image puts its centers at the first four points, and the
canonical form and the normalized copy send a frame of the configuration to
all five.
"""

from __future__ import annotations

import functools
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
from .linalg import det4


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


# the standard frame: the coordinate vertices e0, e1, e2, e3, then the unit point (1:1:1:1)
_FRAME = tuple(ProjectivePoint(tuple(int(i in (j, 4)) for j in range(4))) for i in range(5))


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


# the 4-subsets the Cramer plans read, each kept as the first tuple equal to
# it, so that every plan reads the same key object for one subset
_SUBSETS: dict = {}


@functools.lru_cache(maxsize=4096)
def _cramer_plan(k, base):
    """For each label t outside ``base``, in order: the four 4-subsets S - S_r, then their signs.

    S = sorted(base + t), and r runs over the positions of the base labels
    in S, with sign (-1)^r.  The plan depends on k and the labels only.  The
    cache holds 4096 plans, every base up to k = 19 (C(19, 4) = 3876).  The
    orbit search moves at every center set, so the 715 bases of k = 13
    never evict one another; the canonical form reads fewer, the bases of
    its scan plan (``canonical._plan``: 14 at k = 8, 230 at k = 13).  A
    plan is a tuple of k - 4 rows of eight references: 40 + 112(k - 4)
    bytes (``sys.getsizeof`` of the tuple and its rows), 712 at k = 10 and
    1048 at k = 13, about 7 MB for a full cache at k = 19, besides the
    cache's own key and link.
    Its subsets are shared: ``_SUBSETS`` keeps the first 72-byte tuple equal
    to each 4-subset a plan read, at most C(k, 4) of them for labels up to
    k, so a table read finds the key it stored by identity.  Plans are built
    on first use, none at import.
    """
    rows = []
    for t in range(1, k + 1):
        if t in base:
            continue
        s = sorted((*base, t))
        subs = [_SUBSETS.setdefault(sub, sub) for sub in itertools.combinations(s, 4)][::-1]
        drops = [r for r in range(5) if s[r] != t]  # S - S_r is subs[r]
        rows.append((*(subs[r] for r in drops), *((-1) ** r for r in drops)))
    return tuple(rows)


def cramer(br, base):
    """adj(A) p_t up to a common sign, divided by its gcd, for each label t outside ``base``.

    The one Cramer rule: the signed 5-subset rule, read through the plan of
    ``base`` (``_cramer_plan``), one row per t in label order.  A has the
    points of the sorted labels ``base`` as columns; the brackets of base + t
    are read from the table ``br``.  By Cramer's rule (adj(A) p_t)_i is the
    bracket of the base with p_t in column i.  Let S = sorted(base + t) hold
    t at position j and base[i] at position r: sorting that column order
    takes r + j + 1 transpositions mod 2, so (adj(A) p_t)_i =
    (-1)^(r+j+1) [S - S_r].  The common sign (-1)^(j+1) is dropped.  A vector
    is nonzero if [base] is, and then coordinate i is zero iff p_t lies on
    the plane through the other three base points: the one rule by which the
    frame scan and condition (*) find a point on a plane.
    """
    gcd = math.gcd
    vecs = []
    for s0, s1, s2, s3, e0, e1, e2, e3 in _cramer_plan(br.k, base):
        v0, v1, v2, v3 = e0 * br[s0], e1 * br[s1], e2 * br[s2], e3 * br[s3]
        g = gcd(v0, v1, v2, v3)
        vecs.append((v0 // g, v1 // g, v2 // g, v3 // g))
    return vecs


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
    return cremona_image(BracketTable(config), centers.within(config.k))


def star_violation(config: Configuration, centers: CenterSet) -> StarViolation | None:
    """The witness against condition (*) that ``cremona_at`` raises, or None if it holds."""
    try:
        cremona_at(config, centers)
    except StarViolationError as err:
        return err.violation
    return None


def _reciprocal(y):
    """(1/y0 : 1/y1 : 1/y2 : 1/y3), cleared of denominators."""
    return (y[1] * y[2] * y[3], y[0] * y[2] * y[3], y[0] * y[1] * y[3], y[0] * y[1] * y[2])


def cremona_image(br: BracketTable, centers: CenterSet) -> Configuration:
    """The Cremona move at the centers, read from the configuration's bracket table.

    Output is written in the Cremona frame: T = adj(A), A the matrix whose
    columns are the sorted centers, puts the centers at the coordinate
    vertices.  Each center maps to the vertex it occupies (the image of the
    plane through the other three centers), and every other point p_t to the
    coordinate-wise reciprocal of its T-image, a multiple of its vector in
    ``cramer(br, centers)``.

    The move exists iff condition (*) holds: the centers span P^3 and no
    other point lies on a plane through three of them, that is [centers] is
    nonzero and so is every coordinate of every Cramer vector.  Otherwise a
    StarViolationError carries the first failure in this order: the four
    centers themselves; then the planes (c1,c2,c3), (c1,c2,c4), (c1,c3,c4),
    (c2,c3,c4) of the sorted centers, each against the other points in
    ascending label order.
    """
    idx = centers.indices
    if br[idx] == 0:
        raise StarViolationError(StarViolation(plane=idx))
    others = centers.complement(br.k)
    vecs = cramer(br, idx)
    for i in (3, 2, 1, 0):  # coordinate 3 drops c4: the plane (c1, c2, c3) comes first
        for t, v in zip(others, vecs):
            if v[i] == 0:
                raise StarViolationError(StarViolation(plane=idx[:i] + idx[i + 1:], point=t))
    image = dict(zip(idx, _FRAME[:4]))
    image.update((t, ProjectivePoint(_reciprocal(v))) for t, v in zip(others, vecs))
    return Configuration(tuple(image[t] for t in range(1, br.k + 1)))


# ---------------------------------------------------------------------------
# seeded generation

def _plane(p, q, r):
    """The plane through three points: det(p, q, r, x) is its dot product with x.

    Entry i is the last-row cofactor det(p, q, r, e_i), from the six 2x2 minors
    of p and q as ``linalg.det4`` names them; all four are zero iff the three
    points are collinear.
    """
    (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3) = p, q, r
    s0 = p0 * q1 - q0 * p1
    s1 = p0 * q2 - q0 * p2
    s2 = p0 * q3 - q0 * p3
    s3 = p1 * q2 - q1 * p2
    s4 = p1 * q3 - q1 * p3
    s5 = p2 * q3 - q2 * p3
    return (-r1 * s5 + r2 * s4 - r3 * s3, r0 * s5 - r2 * s2 + r3 * s1,
            -r0 * s4 + r1 * s2 - r3 * s0, r0 * s3 - r1 * s1 + r2 * s0)


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
