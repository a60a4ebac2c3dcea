"""Integer model of the divisor and curve lattices of a blown-up P^3.

A divisor class d*H - sum(m_i * E_i) is stored as (d, m).  Matrices act on
coefficient vectors in the (H, E_1..E_k) basis, where the E_i-coefficient
of d*H - sum(m_i E_i) is -m_i; ``_to_vector`` / ``_from_vector`` own that
sign convention, nothing else converts by hand.  Every class action steps
through the two generators, ``cremona_pushforward`` and ``permute_class``;
``class_map`` builds the dense matrix of such an action when one is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .errors import DimensionError, UsageError
from .projective import CenterSet, check_permutation


@dataclass(frozen=True, slots=True)
class DivisorClass:
    """The class d*H - sum(m_i * E_i)."""

    d: int
    m: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(self.m))

    @property
    def k(self) -> int:
        return len(self.m)

    def __str__(self):
        parts = ["%dH" % self.d] if self.d else []
        for i, mi in enumerate(self.m, start=1):
            if mi:
                parts.append("%+dE%d" % (-mi, i))
        return " ".join(parts) if parts else "0"


@dataclass(frozen=True, slots=True)
class CurveClass:
    """The class a*l - sum(n_i * e_i) in the curve lattice."""

    a: int
    n: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(self.n))

    @property
    def k(self) -> int:
        return len(self.n)


def _to_vector(c: DivisorClass) -> tuple[int, ...]:
    return (c.d, *(-x for x in c.m))


def _from_vector(v) -> DivisorClass:
    return DivisorClass(v[0], tuple(-x for x in v[1:]))


@dataclass(frozen=True, slots=True)
class LatticeMap:
    """(k+1)x(k+1) integer matrix acting on (H, E_1..E_k) coefficient vectors."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        if abs(linalg.det_bareiss(rows)) != 1:
            raise ValueError("lattice map must be unimodular")

    @property
    def k(self) -> int:
        return len(self.entries) - 1

    def apply(self, c: DivisorClass) -> DivisorClass:
        if c.k != self.k:
            raise DimensionError("class has k=%d, map has k=%d" % (c.k, self.k))
        return _from_vector(linalg.mat_vec(self.entries, _to_vector(c)))


# ---------------------------------------------------------------------------
# basic classes

def hyperplane_class(k: int = 8) -> DivisorClass:
    return DivisorClass(1, (0,) * k)


def exceptional_class(i: int, k: int = 8) -> DivisorClass:
    """The exceptional divisor E_i (so d=0 and m_i = -1)."""
    m = [0] * k
    m[i - 1] = -1
    return DivisorClass(0, tuple(m))


def anticanonical_class(k: int = 8) -> DivisorClass:
    return DivisorClass(4, (2,) * k)


def plane_through_last_four(k: int = 8) -> DivisorClass:
    """H - E_{k-3} - E_{k-2} - E_{k-1} - E_k (H minus every E_i when k < 4)."""
    m = [0] * k
    for i in range(max(k - 4, 0), k):
        m[i] = 1
    return DivisorClass(1, tuple(m))


def line_curve(k: int = 8) -> CurveClass:
    return CurveClass(1, (0,) * k)


def exceptional_curve(i: int, k: int = 8) -> CurveClass:
    n = [0] * k
    n[i - 1] = -1
    return CurveClass(0, tuple(n))


def quartic_curve_class(k: int = 8) -> CurveClass:
    """4*l - sum(e_i): the degree-4 curve class through all the points."""
    return CurveClass(4, (1,) * k)


# ---------------------------------------------------------------------------
# the two generators and the Coxeter element

def cremona_pushforward(c: DivisorClass, centers) -> DivisorClass:
    """Strict-transform class under the Cremona transformation at the centers.

    With s the sum of the center multiplicities: d' = 3d - s, and
    m'_i = 2d + m_i - s on centers, m'_i = m_i off them.
    """
    idx = CenterSet(centers).within(c.k).indices
    s = sum(c.m[i - 1] for i in idx)
    shift = 2 * c.d - s
    m2 = list(c.m)
    for i in idx:
        m2[i - 1] += shift
    return DivisorClass(3 * c.d - s, tuple(m2))


def permute_class(c: DivisorClass, perm) -> DivisorClass:
    """Relabel multiplicities: new m_i = old m_{perm[i]} (1-based labels)."""
    check_permutation(perm, c.k)
    return DivisorClass(c.d, tuple(c.m[p - 1] for p in perm))


def cyclic_shift(k: int) -> tuple[int, ...]:
    """Permutation moving the first point to the last place: new i holds old i+1."""
    return tuple(range(2, k + 1)) + (1,)


def class_map(k: int, image) -> LatticeMap:
    """The lattice map of a linear class action: column j is the vector of image(basis class j)."""
    cols = [_to_vector(image(_from_vector(e))) for e in linalg.identity(k + 1)]
    return LatticeMap(tuple(zip(*cols)))


def cremona_map(k: int, centers) -> LatticeMap:
    return class_map(k, lambda c: cremona_pushforward(c, centers))


def permutation_map(k: int, perm) -> LatticeMap:
    return class_map(k, lambda c: permute_class(c, perm))


def _check_rank(k: int) -> None:
    """The Coxeter element and the T(2, 4, k-4) presentation need k >= 8."""
    if k < 8:
        raise UsageError("need k >= 8, got %d" % k)


def coxeter_step(c: DivisorClass) -> DivisorClass:
    """The Coxeter element on one class: Cremona at {1,2,3,4}, then the cyclic shift."""
    return permute_class(cremona_pushforward(c, (1, 2, 3, 4)), cyclic_shift(c.k))


def coxeter_element(k: int = 8) -> LatticeMap:
    """Cremona at {1,2,3,4} followed by the cyclic shift, as one lattice map."""
    _check_rank(k)
    return class_map(k, coxeter_step)


# ---------------------------------------------------------------------------
# pairing and root classes

def intersect(dc: DivisorClass, cc: CurveClass) -> int:
    """Pairing with H.l = 1 and E_i.e_j = -delta_ij, so the value is d*a - sum(m_i n_i)."""
    if dc.k != cc.k:
        raise DimensionError("divisor has k=%d, curve has k=%d" % (dc.k, cc.k))
    return dc.d * cc.a - sum(mi * ni for mi, ni in zip(dc.m, cc.n))


def is_root_class(c: DivisorClass, curve: CurveClass | None = None) -> bool:
    """True iff the class pairs to zero against the quartic curve class.

    For k = 8 the quartic 4*l - sum(e_i) is implied; other k require an
    explicit pairing curve.
    """
    if curve is None:
        if c.k != 8:
            raise DimensionError("default quartic pairing only defined for k=8")
        curve = quartic_curve_class(8)
    return intersect(c, curve) == 0


def flopped_curve_classes(centers, k: int = 8) -> list[CurveClass]:
    """The six classes l - e_i - e_j over pairs of centers (the flopped lines)."""
    idx = CenterSet(centers).within(k).indices
    out = []
    for i, j in itertools.combinations(idx, 2):
        n = [0] * k
        n[i - 1] = 1
        n[j - 1] = 1
        out.append(CurveClass(1, tuple(n)))
    return out


# ---------------------------------------------------------------------------
# iteration and certificates

def iterate_class(v: DivisorClass, n: int) -> list[DivisorClass]:
    """[v, Mv, .., M^n v] for M the Coxeter element of the same k."""
    _check_rank(v.k)
    out = [v]
    for _ in range(n):
        out.append(coxeter_step(out[-1]))
    return out


@dataclass(frozen=True, slots=True)
class JordanCertificate:
    """Eigenvalue-1 structure of an integer matrix, certified by exact ranks.

    ``ranks[j-1]`` is the rank of (M - I)^j over Q, j = 1..4.  Only the ranks
    and the characteristic polynomial are stored; the rest is read from them.
    """

    ranks: tuple[int, int, int, int]
    charpoly: tuple[int, ...]

    def __post_init__(self):
        if list(self.ranks) != sorted(self.ranks, reverse=True):
            raise ValueError("ranks must be weakly decreasing: %r" % (self.ranks,))

    @property
    def multiplicity_of_one(self) -> int:
        return linalg.multiplicity_at_one(self.charpoly)

    @property
    def stabilized(self) -> bool:
        """Nilpotency degree at eigenvalue 1 is at most 3."""
        return self.ranks[2] == self.ranks[3]

    def eigenvalue_one_block_sizes(self) -> tuple[int, ...]:
        """Jordan block sizes at eigenvalue 1, largest first (needs stabilized ranks)."""
        if not self.stabilized:
            raise ValueError("ranks did not stabilize by exponent 4")
        n = len(self.charpoly) - 1
        kernels = [0] + [n - r for r in self.ranks]
        at_least = [kernels[j] - kernels[j - 1] for j in range(1, 5)] + [0]
        sizes = []
        for size in range(4, 0, -1):
            sizes.extend([size] * (at_least[size - 1] - at_least[size]))
        return tuple(sizes)


def jordan_certificate(M: LatticeMap) -> JordanCertificate:
    """Exact characteristic polynomial plus the ranks of (M - I)^j, j = 1..4."""
    mat = M.entries
    n = linalg.mat_sub(mat, linalg.identity(len(mat)))
    powers = [n]
    for _ in range(3):
        powers.append(linalg.mat_mul(powers[-1], n))
    return JordanCertificate(tuple(linalg.rank(p) for p in powers), linalg.charpoly(mat))


@dataclass(frozen=True, slots=True)
class DistinctnessReport:
    """Exact-iteration evidence that the orbit of a class is injective up to N.

    Only the data the verdicts are read from is stored; the verdicts are
    properties.  ``trailing_min`` pairs (t, min degree over steps t..N)
    demonstrate degree growth.  The checkpoints are t = N * i // 10 for
    i = 0..9 without repeats, so N < 10 gives t = 0..N-1; ``degree_growth``
    says that the last trailing minimum exceeds the first.
    ``quadratic_part_nonzero`` records (M - I)^2 v != 0, i.e. the class meets
    the rank-3 Jordan block so its degree growth is quadratic.
    """

    N: int
    start: DivisorClass
    first_collision: tuple[int, int] | None
    degrees: tuple[int, ...]
    quadratic_part_nonzero: bool

    @property
    def all_distinct(self) -> bool:
        return self.first_collision is None

    @property
    def trailing_min(self) -> tuple[tuple[int, int], ...]:
        checkpoints = sorted({self.N * i // 10 for i in range(10)})
        return tuple((t, min(self.degrees[t:])) for t in checkpoints)

    @property
    def degree_growth(self) -> bool:
        trailing = self.trailing_min
        return trailing[-1][1] > trailing[0][1]


def distinctness_certificate(v: DivisorClass, N: int) -> DistinctnessReport:
    if N < 1:
        raise UsageError("N must be >= 1")
    orbit = iterate_class(v, max(N, 2))
    # (M - I)^2 v = M^2 v - 2 M v + v, read off the first two steps even when N == 1
    quad = [c - 2 * b + a for a, b, c in zip(*map(_to_vector, orbit[:3]))]
    orbit = orbit[: N + 1]
    seen: dict[tuple, int] = {}
    first_collision = None
    for n, c in enumerate(orbit):
        key = (c.d, c.m)
        if key in seen:
            first_collision = (seen[key], n)
            break
        seen[key] = n
    return DistinctnessReport(N, v, first_collision, tuple(c.d for c in orbit), any(quad))


# ---------------------------------------------------------------------------
# Coxeter presentation checks

def _word_is_identity(k: int, word, power: int) -> bool:
    """True iff (word)^power returns every basis class H, E_1..E_k to itself.

    ``word`` lists generators as in a product, so the last one acts first:
    0 is r, the Cremona move at {1,2,3,4}, and i >= 1 is s_i, the swap of
    labels i and i+1, applied by swapping multiplicities i and i+1.  The
    action on classes is linear, so fixing the basis is exactly the matrix
    identity (word)^power = 1.
    """
    def act(c):
        for g in reversed(word * power):
            c = (cremona_pushforward(c, (1, 2, 3, 4)) if g == 0
                 else DivisorClass(c.d, c.m[:g - 1] + (c.m[g], c.m[g - 1]) + c.m[g + 1:]))
        return c

    return all(_to_vector(act(_from_vector(e))) == e for e in linalg.identity(k + 1))


def coxeter_relations(k: int) -> list[tuple[str, bool]]:
    """Each defining relation of the rank-k presentation with a verdict.

    Generators: s_i swaps E_i, E_{i+1} (i = 1..k-1); r is the Cremona map at
    {1,2,3,4}.  The diagram is a path s_1..s_{k-1} with r attached at s_4.
    Each relation is checked by driving the k+1 basis classes through the
    generator actions, which by linearity is the exact matrix identity.
    """
    _check_rank(k)
    out = [("r^2 = 1", _word_is_identity(k, (0,), 2))]
    for i, j in itertools.combinations(range(1, k), 2):
        if j - i >= 2:
            out.append(("(s%d s%d)^2 = 1" % (i, j), _word_is_identity(k, (i, j), 2)))
    for i in range(1, k - 1):
        out.append(("(s%d s%d)^3 = 1" % (i, i + 1), _word_is_identity(k, (i, i + 1), 3)))
    out.append(("(r s4)^3 = 1", _word_is_identity(k, (0, 4), 3)))
    for i in [1, 2, 3] + list(range(5, k)):
        out.append(("(r s%d)^2 = 1" % i, _word_is_identity(k, (0, i), 2)))
    return out


def coxeter_relations_check(k: int) -> bool:
    """True iff every relation fixes the basis classes, i.e. holds as a matrix identity."""
    return all(ok for _, ok in coxeter_relations(k))
