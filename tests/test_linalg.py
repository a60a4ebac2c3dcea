"""Exact linear algebra helpers, cross-checked against sympy."""

import random

import sympy

from cremona_orbits import linalg


def rand_mat(rng, n, bound=9):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n))


def test_adjugate_times_matrix_is_det_times_identity():
    rng = random.Random(1)
    for _ in range(200):
        m = rand_mat(rng, 4)
        d = linalg.det4(m)
        prod = linalg.mat_mul(linalg.adjugate4(m), m)
        assert prod == tuple(
            tuple(d if i == j else 0 for j in range(4)) for i in range(4)
        )


def test_det4_agrees_with_bareiss():
    rng = random.Random(2)
    for _ in range(200):
        m = rand_mat(rng, 4)
        assert linalg.det4(m) == linalg.det_bareiss(m)


def test_det_bareiss_against_sympy():
    rng = random.Random(3)
    for n in range(1, 7):
        for trial in range(30):
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if trial % 3 == 1:
                m[0][0] = 0  # the first pivot needs a row swap
            if n >= 2 and trial % 3 == 2:
                m[rng.randrange(n)] = list(m[rng.randrange(n)])  # often singular
            assert linalg.det_bareiss(m) == sympy.Matrix(m).det()
    for m in (
        ((0, 1), (1, 0)),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        ((0, 1, 2), (0, 3, 4), (0, 5, 6)),  # zero first column
        ((1, 2, 3), (2, 4, 6), (1, 0, 1)),  # zero pivot after one step
    ):
        assert linalg.det_bareiss(m) == sympy.Matrix(m).det()


def test_rank_against_sympy():
    rng = random.Random(4)
    for _ in range(80):
        n = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.5:
            m[rng.randrange(n)] = list(m[rng.randrange(n)])  # force rank drops
        assert linalg.rank(m) == sympy.Matrix(m).rank()
    for _ in range(80):  # rectangular, wide and tall
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if rows >= 2 and rng.random() < 0.5:
            m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
        if rng.random() < 0.3:
            for r in m:
                r[rng.randrange(cols)] = 0  # zero entries that force pivot search
        assert linalg.rank(m) == sympy.Matrix(m).rank()


def test_charpoly_against_sympy():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rand_mat(rng, n, 5)
        want = [int(c) for c in sympy.Matrix(m).charpoly().all_coeffs()]
        assert list(linalg.charpoly(m)) == want


def test_mat_mul_and_mat_vec_against_sympy():
    rng = random.Random(6)
    for _ in range(40):
        rows, inner, cols = (rng.randint(1, 5) for _ in range(3))
        a = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(inner)]
        v = [rng.randint(-9, 9) for _ in range(inner)]
        want = (sympy.Matrix(a) * sympy.Matrix(b)).tolist()
        assert linalg.mat_mul(a, b) == tuple(tuple(int(x) for x in r) for r in want)
        assert linalg.mat_vec(a, v) == tuple(int(x) for x in sympy.Matrix(a) * sympy.Matrix(v))
    assert linalg.mat_mul(linalg.identity(3), ((1, 2, 3),) * 3) == ((1, 2, 3),) * 3
    # sparse left operands: mat_mul reads only the nonzero entries of a's rows
    for _ in range(40):
        rows, inner, cols = (rng.randint(1, 6) for _ in range(3))
        a = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(inner)]
        for i in rng.sample(range(rows), rng.randint(1, rows)):
            a[i] = [0] * inner  # all-zero rows
        for j in rng.sample(range(inner), rng.randint(0, inner)):
            for r in a:
                r[j] = 0  # all-zero columns
        for r in a:
            if rng.random() < 0.5:
                r[:] = [0] * inner
                r[rng.randrange(inner)] = rng.choice((-1, 1))  # signed permutation rows
        want = (sympy.Matrix(a) * sympy.Matrix(b)).tolist()
        assert linalg.mat_mul(a, b) == tuple(tuple(int(x) for x in r) for r in want)
    assert linalg.mat_mul(((0, 0), (0, 0)), ((1, 2, 3), (4, 5, 6))) == ((0, 0, 0),) * 2
    perm = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    assert linalg.mat_mul(perm, ((1, 2), (3, 4), (5, 6))) == ((3, 4), (5, 6), (1, 2))
