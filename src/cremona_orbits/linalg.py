"""Exact integer linear algebra: determinants, adjugates, ranks, characteristic polynomials.

Everything here works on plain Python ints (arbitrary precision) in
lists/tuples of rows.  No floating point anywhere.
"""

from __future__ import annotations

from operator import mul


def det4(m):
    """Determinant of a 4x4 via complementary 2x2 minors."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = m
    s0 = a00 * a11 - a10 * a01
    s1 = a00 * a12 - a10 * a02
    s2 = a00 * a13 - a10 * a03
    s3 = a01 * a12 - a11 * a02
    s4 = a01 * a13 - a11 * a03
    s5 = a02 * a13 - a12 * a03
    c5 = a22 * a33 - a32 * a23
    c4 = a21 * a33 - a31 * a23
    c3 = a21 * a32 - a31 * a22
    c2 = a20 * a33 - a30 * a23
    c1 = a20 * a32 - a30 * a22
    c0 = a20 * a31 - a30 * a21
    return s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0


def adjugate4(m):
    """Adjugate of a 4x4: adjugate4(m) @ m == det4(m) * I."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = m
    s0 = a00 * a11 - a10 * a01
    s1 = a00 * a12 - a10 * a02
    s2 = a00 * a13 - a10 * a03
    s3 = a01 * a12 - a11 * a02
    s4 = a01 * a13 - a11 * a03
    s5 = a02 * a13 - a12 * a03
    c5 = a22 * a33 - a32 * a23
    c4 = a21 * a33 - a31 * a23
    c3 = a21 * a32 - a31 * a22
    c2 = a20 * a33 - a30 * a23
    c1 = a20 * a32 - a30 * a22
    c0 = a20 * a31 - a30 * a21
    return (
        (a11 * c5 - a12 * c4 + a13 * c3, -a01 * c5 + a02 * c4 - a03 * c3,
         a31 * s5 - a32 * s4 + a33 * s3, -a21 * s5 + a22 * s4 - a23 * s3),
        (-a10 * c5 + a12 * c2 - a13 * c1, a00 * c5 - a02 * c2 + a03 * c1,
         -a30 * s5 + a32 * s2 - a33 * s1, a20 * s5 - a22 * s2 + a23 * s1),
        (a10 * c4 - a11 * c2 + a13 * c0, -a00 * c4 + a01 * c2 - a03 * c0,
         a30 * s4 - a31 * s2 + a33 * s0, -a20 * s4 + a21 * s2 - a23 * s0),
        (-a10 * c3 + a11 * c1 - a12 * c0, a00 * c3 - a01 * c1 + a02 * c0,
         -a30 * s3 + a31 * s1 - a32 * s0, a20 * s3 - a21 * s1 + a22 * s0),
    )


def mat_vec(m, v):
    return tuple(sum(map(mul, r, v)) for r in m)


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def trace(m):
    return sum(m[i][i] for i in range(len(m)))


def _eliminate(m):
    """Fraction-free (Bareiss) elimination of an integer matrix, on a copy.

    Returns ``(rank, sign, last)``: the rank over Q, the sign of the row swaps
    and the last pivot.  Every entry stays a minor of ``m``, so each division
    is exact; for a full-rank square matrix, sign * last is the determinant.
    """
    a = [list(r) for r in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    sign = 1
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == nrows:
            break
    return r, sign, prev


def det_bareiss(m):
    """Exact integer determinant of a square matrix."""
    r, sign, last = _eliminate(m)
    return sign * last if r == len(m) else 0


def rank(m):
    """Rank over Q of an integer matrix."""
    return _eliminate(m)[0]


def charpoly(m):
    """Coefficients (1, c1, .., cn) of det(xI - M) = x^n + c1 x^(n-1) + .. + cn.

    Faddeev-LeVerrier recurrence; every division is exact for integer input.
    """
    n = len(m)
    coeffs = [1]
    work = identity(n)
    for k in range(1, n + 1):
        work = mat_mul(m, work)
        t = trace(work)
        assert t % k == 0
        ck = -t // k
        coeffs.append(ck)
        if k < n:
            work = tuple(
                tuple(work[i][j] + (ck if i == j else 0) for j in range(n))
                for i in range(n)
            )
    return tuple(coeffs)


def multiplicity_at_one(coeffs):
    """Multiplicity of 1 as a root of the polynomial with the given coefficients."""
    cur = list(coeffs)
    mult = 0
    while len(cur) > 1 and sum(cur) == 0:
        # synthetic division by (x - 1); remainder is sum(cur) == 0
        q = [cur[0]]
        for a in cur[1:-1]:
            q.append(q[-1] + a)
        cur = q
        mult += 1
    return mult
