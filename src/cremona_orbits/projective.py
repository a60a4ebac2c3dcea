"""Exact projective geometry over Q in P^3.

Points are canonical integer 4-tuples (gcd 1, first nonzero coordinate
positive), so equality of points is equality of tuples.  All predicates are
exact integer decisions; floats are rejected outright.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegeneratePointError,
    FrameError,
    GenerationError,
    StarViolation,
    StarViolationError,
)
from .linalg import adjugate4, det4, mat_vec


def _canonical4(coords):
    """gcd-reduce and sign-normalize a nonzero integer 4-vector."""
    g = math.gcd(*coords)
    if g == 0:
        raise DegeneratePointError("all four homogeneous coordinates are zero")
    x = tuple(c // g for c in coords)
    for c in x:
        if c:
            return x if c > 0 else tuple(-v for v in x)
    raise AssertionError("unreachable")


@dataclass(frozen=True, slots=True, order=True)
class ProjectivePoint:
    """A point of P^3 as its canonical integer representative."""

    coords: tuple[int, int, int, int]

    def __post_init__(self):
        c = tuple(self.coords)
        object.__setattr__(self, "coords", c)
        if len(c) != 4 or not all(isinstance(v, int) for v in c):
            raise TypeError("coords must be 4 integers, got %r" % (c,))
        if c != _canonical4(c):
            raise ValueError("non-canonical representative %r" % (c,))


def normalize_point(raw) -> ProjectivePoint:
    """Canonical representative of a 4-tuple of rationals (ints or Fractions)."""
    vals = []
    for v in raw:
        if isinstance(v, float):
            raise TypeError("floating point coordinates are not allowed: %r" % (v,))
        vals.append(v if isinstance(v, (int, Fraction)) else Fraction(v))
    if len(vals) != 4:
        raise ValueError("expected 4 coordinates, got %d" % len(vals))
    lcm = 1
    for v in vals:
        if isinstance(v, Fraction):
            lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    ints = []
    for v in vals:
        w = v * lcm
        assert isinstance(w, int) or w.denominator == 1
        ints.append(int(w))
    return ProjectivePoint(_canonical4(tuple(ints)))


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
class ProjectiveMap:
    """An element of PGL(4), stored as its canonical primitive integer matrix.

    The matrix is defined up to a nonzero scalar; the stored representative
    has coprime entries and positive first nonzero entry (row-major), so
    dataclass equality is exactly equality in PGL(4).
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        flat = [v for r in rows for v in r]
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("need a 4x4 matrix")
        if flat != list(_canonical16(flat)):
            raise ValueError("non-canonical matrix representative")
        if det4(rows) == 0:
            raise ValueError("projective map must be invertible")

    @classmethod
    def from_rows(cls, rows) -> "ProjectiveMap":
        """Build from any 4x4 of ints/Fractions, clearing scale canonically."""
        flat = []
        for r in rows:
            for v in r:
                if isinstance(v, float):
                    raise TypeError("floating point entries are not allowed")
                flat.append(v if isinstance(v, (int, Fraction)) else Fraction(v))
        if len(flat) != 16:
            raise ValueError("need a 4x4 matrix")
        lcm = 1
        for v in flat:
            if isinstance(v, Fraction):
                lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
        ints = [int(v * lcm) for v in flat]
        ints = _canonical16(ints)
        return cls(tuple(tuple(ints[4 * i: 4 * i + 4]) for i in range(4)))

    def apply(self, p: ProjectivePoint) -> ProjectivePoint:
        return ProjectivePoint(_canonical4(mat_vec(self.rows, p.coords)))

    def compose(self, other: "ProjectiveMap") -> "ProjectiveMap":
        """self after other (matrix product self @ other)."""
        prod = tuple(
            tuple(sum(self.rows[i][t] * other.rows[t][j] for t in range(4)) for j in range(4))
            for i in range(4)
        )
        return ProjectiveMap.from_rows(prod)


def _canonical16(flat):
    g = math.gcd(*flat)
    if g == 0:
        raise ValueError("zero matrix is not a projective map")
    out = tuple(v // g for v in flat)
    for v in out:
        if v:
            return out if v > 0 else tuple(-x for x in out)
    raise AssertionError("unreachable")


@dataclass(frozen=True, slots=True)
class CenterSet:
    """Four distinct 1-based labels, kept sorted."""

    indices: tuple[int, int, int, int]

    def __post_init__(self):
        idx = tuple(sorted(self.indices))
        object.__setattr__(self, "indices", idx)
        if len(idx) != 4 or len(set(idx)) != 4:
            raise ValueError("need exactly 4 distinct labels, got %r" % (self.indices,))
        if idx[0] < 1:
            raise ValueError("labels are 1-based, got %r" % (idx,))

    def complement(self, k: int) -> tuple[int, ...]:
        inside = set(self.indices)
        return tuple(i for i in range(1, k + 1) if i not in inside)


# ---------------------------------------------------------------------------
# predicates

def coplanar(p1, p2, p3, p4) -> bool:
    """True iff the four points lie on a common plane (4x4 determinant zero)."""
    return det4((p1.coords, p2.coords, p3.coords, p4.coords)) == 0


def brackets(config: Configuration) -> dict[tuple[int, int, int, int], int]:
    """The bracket [abcd] = det(p_a, p_b, p_c, p_d) of every sorted 4-subset of labels.

    Keys are sorted label 4-tuples in lexicographic order; a bracket is zero
    iff its four points are coplanar.
    """
    pts = (None,) + tuple(p.coords for p in config.points)
    return {
        sub: det4((pts[sub[0]], pts[sub[1]], pts[sub[2]], pts[sub[3]]))
        for sub in itertools.combinations(range(1, config.k + 1), 4)
    }


def _collinear(p1, p2, p3) -> bool:
    """True iff the 3x4 coordinate matrix has rank < 3 (all 3x3 minors zero)."""
    rows = (p1.coords, p2.coords, p3.coords)
    for cols in itertools.combinations(range(4), 3):
        a, b, c = (tuple(r[j] for j in cols) for r in rows)
        if (a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0])) != 0:
            return False
    return True


def star_violation(config: Configuration, centers: CenterSet) -> StarViolation | None:
    """First witness against condition (*), or None if it holds.

    Condition (*): the centers span P^3 and no other point of the
    configuration lies on any plane through three of them.
    """
    idx = centers.indices
    if idx[-1] > config.k:
        raise ValueError("center labels %r out of range 1..%d" % (idx, config.k))
    cpts = [config.point(i) for i in idx]
    if coplanar(*cpts):
        return StarViolation(plane=idx)
    others = centers.complement(config.k)
    for triple in itertools.combinations(range(4), 3):
        plane_labels = tuple(idx[t] for t in triple)
        plane_pts = [cpts[t] for t in triple]
        for j in others:
            if coplanar(*plane_pts, config.point(j)):
                return StarViolation(plane=plane_labels, point=j)
    return None


def condition_star(config: Configuration, centers: CenterSet) -> bool:
    return star_violation(config, centers) is None


# ---------------------------------------------------------------------------
# frames and maps

def frame_transform(points) -> ProjectiveMap:
    """The unique map sending five frame points to e0, e1, e2, e3, (1:1:1:1).

    The five points must be a projective frame: every 4-subset spans P^3.
    """
    pts = tuple(points)
    if len(pts) != 5:
        raise ValueError("a frame consists of 5 points, got %d" % len(pts))
    a = tuple(tuple(pts[j].coords[i] for j in range(4)) for i in range(4))
    if det4(a) == 0:
        raise FrameError((0, 1, 2, 3))
    adj = adjugate4(a)
    c = mat_vec(adj, pts[4].coords)
    for i in range(4):
        if c[i] == 0:
            raise FrameError(tuple(j for j in range(4) if j != i) + (4,))
    scale = (
        c[1] * c[2] * c[3],
        c[0] * c[2] * c[3],
        c[0] * c[1] * c[3],
        c[0] * c[1] * c[2],
    )
    return ProjectiveMap.from_rows(
        tuple(tuple(scale[i] * v for v in adj[i]) for i in range(4))
    )


def transform_config(config: Configuration, pmap: ProjectiveMap) -> Configuration:
    return Configuration(tuple(pmap.apply(p) for p in config.points))


def permute_config(config: Configuration, perm) -> Configuration:
    """Reorder points: new position i holds old point perm[i] (1-based)."""
    k = config.k
    if len(perm) != k or sorted(perm) != list(range(1, k + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (k, perm))
    return Configuration(tuple(config.points[p - 1] for p in perm))


# ---------------------------------------------------------------------------
# the Cremona move

def cremona_at(config: Configuration, centers: CenterSet) -> Configuration:
    """Cremona transformation centered at four configuration points.

    Output is written in the Cremona frame: the coordinate change T with
    T^{-1}'s columns the canonical center representatives puts the centers at
    the coordinate vertices; every non-center point then maps to the
    coordinate-wise reciprocal of its T-image, and each center to the vertex
    it occupies (the image of the plane through the other three centers).
    """
    viol = star_violation(config, centers)
    if viol is not None:
        raise StarViolationError(viol)
    idx = centers.indices
    inside = set(idx)
    a = tuple(tuple(config.point(idx[j]).coords[i] for j in range(4)) for i in range(4))
    t = adjugate4(a)
    out = []
    for label in range(1, config.k + 1):
        y = mat_vec(t, config.point(label).coords)
        if label in inside:
            out.append(ProjectivePoint(_canonical4(y)))
        else:
            assert 0 not in y, "condition (*) guarantees nonzero Cremona-frame coordinates"
            rec = (y[1] * y[2] * y[3], y[0] * y[2] * y[3], y[0] * y[1] * y[3], y[0] * y[1] * y[2])
            out.append(ProjectivePoint(_canonical4(rec)))
    return Configuration(tuple(out))


# ---------------------------------------------------------------------------
# seeded generation

def random_config(seed: int, height: int, k: int = 8) -> Configuration:
    """Deterministic k-point configuration in general position.

    Coordinates are drawn uniformly from [-height, height]; points are added
    one at a time and rejected while they create a duplicate, a collinear
    triple, or a coplanar 4-tuple, so every 4-subset of the result spans P^3
    (hence condition (*) holds for every center choice and every 5 points
    contain a frame).
    """
    if height < 2:
        raise ValueError("height must be >= 2")
    if k < 8:
        raise ValueError("k must be >= 8")
    rng = random.Random(seed)
    for _restart in range(50):
        pts: list[ProjectivePoint] = []
        while len(pts) < k:
            for _try in range(2000):
                raw = tuple(rng.randint(-height, height) for _ in range(4))
                if raw == (0, 0, 0, 0):
                    continue
                cand = ProjectivePoint(_canonical4(raw))
                if any(cand.coords == p.coords for p in pts):
                    continue
                if len(pts) == 2 and _collinear(pts[0], pts[1], cand):
                    continue
                if len(pts) >= 3 and any(
                    coplanar(*triple, cand) for triple in itertools.combinations(pts, 3)
                ):
                    continue
                pts.append(cand)
                break
            else:
                break  # budget for this point exhausted; restart from scratch
        if len(pts) == k:
            return Configuration(tuple(pts))
    raise GenerationError(
        "could not sample %d points in general position at height %d (seed %d)"
        % (k, height, seed)
    )
