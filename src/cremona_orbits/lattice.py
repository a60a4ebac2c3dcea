"""Integer model of the divisor lattice of a blown-up P^3.

A divisor class d*H - sum(m_i * E_i) is stored as (d, m).  Matrices act on
coefficient vectors in the (H, E_1..E_k) basis, where the E_i-coefficient
of d*H - sum(m_i E_i) is -m_i; ``_to_vector`` / ``_from_vector`` own that
sign convention, nothing else converts by hand.
The pushforward formula lives once, in the unchecked in-place kernel
``_push_in_place`` on a raw degree and a list of multiplicities;
``_pushforward`` runs it on a copy, and the Coxeter step, ``iterate_class``
and the relation checks call that and shift or swap the multiplicities by
slicing, so a long orbit checks its rank once and not once per step.  The
one dense matrix is the Coxeter element's, built from the images of the
basis classes.  The distinctness orbit runs the kernel on one ring of
multiplicities and shifts by an offset into it, so a step moves no data
but the four centers and the degree; it is stepped in exact
``decimal.Decimal`` arithmetic (``_EXACT``), so its degrees are written as
decimal text without a binary to decimal conversion.
"""

from __future__ import annotations

import decimal
import itertools
from dataclasses import dataclass

from . import linalg
from .errors import UsageError


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


# ---------------------------------------------------------------------------
# basic classes

def plane_through_last_four(k: int = 8) -> DivisorClass:
    """H - E_{k-3} - E_{k-2} - E_{k-1} - E_k, for k checked by ``_check_rank``."""
    _check_rank(k)
    return DivisorClass(1, (0,) * (k - 4) + (1, 1, 1, 1))


# ---------------------------------------------------------------------------
# the Cremona pushforward and the Coxeter element

def _push_in_place(d, m, pos):
    """The pushforward formula, in place: returns d' and steps the list m to m'.

    With s the sum of the multiplicities at the 0-based positions pos:
    d' = 3d - s, and m'_i = 2d + m_i - s on those positions, m_i off them.
    It adds shift = d + d - s to the four positions and returns d + shift,
    which is 3d - s exactly: only additions and subtractions, no literal,
    so raw ints or integral Decimals under ``_EXACT`` alike, and the same
    kind back.  Unchecked; a long orbit runs this once per step.
    """
    i1, i2, i3, i4 = pos
    shift = d + d - m[i1] - m[i2] - m[i3] - m[i4]
    m[i1] += shift
    m[i2] += shift
    m[i3] += shift
    m[i4] += shift
    return d + shift


def _pushforward(d, m, idx) -> tuple:
    """Strict-transform class under the Cremona transformation at 1-based center labels idx.

    Raw (d, m) in, (d', a new list m') out, unchecked: m is copied and the
    copy stepped by ``_push_in_place``, so a tuple or a list passed in is
    left as it was.
    """
    i1, i2, i3, i4 = idx
    m2 = list(m)
    return _push_in_place(d, m2, (i1 - 1, i2 - 1, i3 - 1, i4 - 1)), m2


def cyclic_shift(k: int) -> tuple[int, ...]:
    """Permutation moving the first point to the last place: new i holds old i+1."""
    return tuple(range(2, k + 1)) + (1,)


# The largest k that _check_rank and projective.random_config accept.  On
# Python 3.11.7, 2 cores, ``lattice-cert --N 1`` took 0.18-0.19 / 0.19-0.25 /
# 0.28-0.35 s at k = 32 / 48 / 64 (three runs each, start-up included); in
# process at k = 64, 0.08 s of it is the ranks and charpoly of the 65x65
# Coxeter matrix and 0.07-0.11 s the relation checks.  random_config(1, 10**6, k)
# took 0.03 / 0.15 / 0.44 / 1.0 s at k = 32 / 48 / 64 / 80, growing like k^4.
MAX_K = 64


def _check_rank(k: int) -> None:
    """The Coxeter element and the T(2, 4, k-4) presentation need k >= 8; k is capped at MAX_K."""
    if k < 8:
        raise UsageError("need k >= 8, got %d" % k)
    if k > MAX_K:
        raise UsageError("need k <= %d, got %d" % (MAX_K, k))


def _coxeter(d, m) -> tuple:
    """The Coxeter step on raw coefficients, for k >= 8 already checked.

    Raw ints or integral Decimals under ``_EXACT``, as ``_push_in_place`` takes them.
    """
    d2, m2 = _pushforward(d, m, (1, 2, 3, 4))
    return d2, (*m2[1:], m2[0])


def coxeter_step(c: DivisorClass) -> DivisorClass:
    """The Coxeter element on one class: Cremona at {1,2,3,4}, then the cyclic shift."""
    _check_rank(c.k)
    return DivisorClass(*_coxeter(c.d, c.m))


def coxeter_element(k: int = 8) -> LatticeMap:
    """Cremona at {1,2,3,4} followed by the cyclic shift, as one lattice map."""
    _check_rank(k)
    cols = [_to_vector(coxeter_step(_from_vector(e))) for e in linalg.identity(k + 1)]
    return LatticeMap(tuple(zip(*cols)))


# ---------------------------------------------------------------------------
# iteration and certificates

def iterate_class(v: DivisorClass, n: int) -> list[DivisorClass]:
    """[v, Mv, .., M^n v] for M the Coxeter element of the same k."""
    _check_rank(v.k)
    out = [v]
    d, m = v.d, v.m
    for _ in range(n):
        d, m = _coxeter(d, m)
        out.append(DivisorClass(d, m))
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
        powers.append(linalg.mat_mul(n, powers[-1]))  # sparse n on the left; powers of n commute
    return JordanCertificate(tuple(linalg.rank(p) for p in powers), linalg.charpoly(mat))


@dataclass(frozen=True, slots=True)
class DistinctnessReport:
    """Exact-iteration evidence that the orbit of a class is injective up to N.

    Only the data the verdicts are read from is stored; the verdicts are
    properties.  ``degrees[n]`` is the degree of M^n v for n = 0..N, so N is
    ``len(degrees) - 1`` and any degree-growth reading (trailing minima, say)
    comes from ``degrees``.  ``distinctness_certificate`` stores them as
    integral Decimals, which equal and hash like the ints they are.
    ``quadratic_part_nonzero`` records
    (M - I)^2 v != 0.  That alone does not make the growth quadratic: at
    k = 8 it holds for the plane class, whose degrees grow linearly (168,
    335, 668 at n = 500, 1000, 2000), while those of H grow quadratically.
    """

    start: DivisorClass
    first_collision: tuple[int, int] | None
    degrees: tuple[decimal.Decimal, ...]
    quadratic_part_nonzero: bool

    @property
    def all_distinct(self) -> bool:
        return self.first_collision is None


# The largest N distinctness_certificate accepts.  Time and peak memory grow
# like N^2 (about 1.6-1.8 s and 320 MB for lattice-cert at N = 50000, k = 24
# or 64); the docstring has the measurements.
MAX_ORBIT_STEPS = 50000

# Integer arithmetic in decimal with no digit to lose: a result that would
# need rounding raises Inexact or Rounded instead, and no exponent bound is in
# reach.  Integral operands of +, - and * stay integral, with exponent 0.
# Nothing divides under it: a division would try to allocate MAX_PREC digits
# and raise MemoryError.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow,
                                decimal.InvalidOperation])


def distinctness_certificate(v: DivisorClass, N: int) -> DistinctnessReport:
    """Step v through N Coxeter steps, keeping the degrees and the first return to v.

    M is invertible, so M^i v = M^j v with i < j gives v = M^(j-i) v: the
    first repeat of the orbit is always a return to the start, (0, n) for the
    least n >= 1 with M^n v = v.  Comparing each class with v alone is
    therefore exact, and only the degrees are kept.

    The orbit is stepped in Decimals under ``_EXACT``, whatever the caller's
    decimal context: v is converted once, the kernel only adds and
    subtracts, and the kept degrees are integral Decimals whose ``str`` is
    linear in their digits, where CPython's int to str is quadratic.  Never
    convert a degree back to int: that is quadratic too.

    The multiplicities live in one ring of k Decimals that the kernel steps
    in place.  The cyclic shift is an offset: step n's class is the ring
    read from offset n % k, so step n moves the centers at ring offsets
    n - 1 .. n + 2.  A class can only return when its degree does, so the
    ring is rotated into a list and compared with v only at a step whose
    degree equals v's.

    N is capped at MAX_ORBIT_STEPS = 50000.  Degrees grow at most quadratically
    for k = 8 and exponentially for k >= 9, by 0.36 bits per step at k = 9 and
    0.544 to 0.551 for every k from 16 to 24, so the kept degrees and the
    decimal text ``lattice-cert`` writes grow like N^2 for any k >= 16, and
    so do the time to step them and to write them.  ``lattice-cert`` (Python
    3.11.7, 2 cores, two runs each) takes 0.59-0.67 s and 130 MB peak at
    N = 3 * 10^4 and 1.72-1.75 s / 317 MB at 5 * 10^4 for k = 24, and
    0.83-0.96 s / 131 MB and 1.61-1.73 s / 319 MB for k = 64: the degrees,
    not k, set the cost.  Of that, the stepping alone takes 0.11-0.16 s at
    N = 3 * 10^4 and 0.28-0.34 s at 5 * 10^4.  With int degrees rendered by
    ``digits.int_to_decimal`` the same runs took 2.9-3.0 s / 128 MB and
    11.8-11.9 s / 315 MB at k = 24, 2.8-3.3 s / 130 MB and 11.2-12.5 s /
    317 MB at k = 64, the rendering growing like N^3.  The peak is the
    degrees and their decimal text, held at once; by the N^2 law N = 10^5
    would need about 1.3 GB (not run).
    """
    if N < 1:
        raise UsageError("N must be >= 1")
    if N > MAX_ORBIT_STEPS:
        raise UsageError("N must be <= %d" % MAX_ORBIT_STEPS)
    one = coxeter_step(v)
    # (M - I)^2 v = M^2 v - 2 M v + v, read off the first two steps even when N == 1
    quad = [c - 2 * b + a for a, b, c in zip(*map(_to_vector, (v, one, coxeter_step(one))))]
    d0, m0 = decimal.Decimal(v.d), [*map(decimal.Decimal, v.m)]
    k, d, ring = v.k, d0, m0.copy()
    centers = itertools.cycle([(o, (o + 1) % k, (o + 2) % k, (o + 3) % k) for o in range(k)])
    degrees = [d]
    first_collision = None
    with decimal.localcontext(_EXACT):
        for n, pos in zip(range(1, N + 1), centers):
            d = _push_in_place(d, ring, pos)
            degrees.append(d)
            if first_collision is None and d == d0:
                o = n % k
                if ring[o:] + ring[:o] == m0:
                    first_collision = (0, n)
    return DistinctnessReport(v, first_collision, tuple(degrees), any(quad))


# ---------------------------------------------------------------------------
# Coxeter presentation checks

def _word_is_identity(k: int, word, power: int) -> bool:
    """True iff (word)^power returns every basis class H, E_1..E_k to itself.

    ``word`` lists generators as in a product, so the last one acts first:
    0 is r, the Cremona move at {1,2,3,4}, and i >= 1 is s_i, the swap of
    labels i and i+1, applied by swapping multiplicities i and i+1.

    One packed class decides it: x = (1, B, B^2, .., B^k) in the (H, E)
    basis with B = 2 * 8^g, g the number of letters of word^power.  Each
    generator matrix has row sums of absolute values at most 7 (the H row of
    r: 3d plus four center coefficients), so W = (word)^power has entries of
    size at most 7^g and ||W - I||_max <= 7^g + 1 < B.  If Wx = x, the lowest
    nonzero entry of a row of W - I would have to be divisible by B, so
    every entry is 0: Wx = x holds exactly when W = I.
    """
    letters = word * power
    base = 2 * 8 ** len(letters)
    c = x = _from_vector([base ** j for j in range(k + 1)])
    for g in reversed(letters):
        c = (DivisorClass(*_pushforward(c.d, c.m, (1, 2, 3, 4))) if g == 0
             else DivisorClass(c.d, c.m[:g - 1] + (c.m[g], c.m[g - 1]) + c.m[g + 1:]))
    return c == x


def coxeter_relations(k: int) -> list[tuple[str, bool]]:
    """Each defining relation of the rank-k presentation with a verdict.

    Generators: s_i swaps E_i, E_{i+1} (i = 1..k-1); r is the Cremona map at
    {1,2,3,4}.  The diagram is a path s_1..s_{k-1} with r attached at s_4.
    Each relation is checked by driving one packed class through the
    generator actions (``_word_is_identity``), which decides the exact matrix
    identity.
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

