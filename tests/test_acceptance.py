"""Acceptance suite: one check per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings; every check also enforces its runtime limit.
"""

import random
import time
from contextlib import contextmanager

import cremona_orbits as co
from cremona_orbits import linalg
from helpers import (cremona_map, map_class, moved, permute_class, pushforward,
                     rand_invertible_map, rand_permutation, special_coplanar_config)
from test_lattice import COXETER_MATRIX_K8


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("acceptance %02d %s: FAIL" % (num, name))
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < limit_s else "FAIL (too slow)"
    print("acceptance %02d %s: %s [%.2fs < %.0fs]" % (num, name, verdict, dt, limit_s))
    assert dt < limit_s, "%s ran %.2fs, limit %.0fs" % (name, dt, limit_s)


def test_01_matrix_reproduction():
    with criterion(1, "coxeter-matrix-reproduction", 1.0):
        assert co.coxeter_element(8).entries == COXETER_MATRIX_K8


def test_02_pushforward_formula_consistency():
    # apply the textual update rules plus the cyclic shift to the basis
    # classes, independently of the lattice module's matrix builder
    def push(d, m):
        s = sum(m[:4])
        return 3 * d - s, [2 * d + mi - s for mi in m[:4]] + list(m[4:])

    def shift(m):
        return m[1:] + m[:1]

    with criterion(2, "pushforward-formula-consistency", 1.0):
        for j in range(9):
            d = 1 if j == 0 else 0
            m = [0] * 8
            if j > 0:
                m[j - 1] = -1  # basis class E_j has multiplicity -1
            d2, m2 = push(d, m)
            m2 = shift(m2)
            column = (d2, *(-x for x in m2))
            assert column == tuple(COXETER_MATRIX_K8[i][j] for i in range(9))


def test_03_involution_and_invariants():
    with criterion(3, "involution-and-invariants", 1.0):
        rng = random.Random(2024)
        r = cremona_map(8, (1, 2, 3, 4))
        assert linalg.mat_mul(r.entries, r.entries) == linalg.identity(9)

        def quartic(c):  # the pairing with the quartic curve 4l - sum(e_i)
            return 4 * c.d - sum(c.m)

        msigma = co.coxeter_element(8)
        for _ in range(1000):
            c = co.DivisorClass(
                rng.randint(-50, 50), tuple(rng.randint(-50, 50) for _ in range(8))
            )
            pushed = pushforward(c, (1, 2, 3, 4))
            assert pushforward(pushed, (1, 2, 3, 4)) == c
            assert quartic(pushed) == quartic(c)
            perm = rand_permutation(rng, 8)
            assert quartic(permute_class(c, perm)) == quartic(c)
        for fixed in (co.DivisorClass(2, (1,) * 8), co.DivisorClass(4, (2,) * 8)):
            assert map_class(msigma, fixed) == fixed


def test_04_jordan_certificate():
    with criterion(4, "jordan-certificate", 5.0):
        cert = co.jordan_certificate(co.coxeter_element(8))
        assert cert.multiplicity_of_one == 3
        assert cert.ranks == (8, 7, 6, 6)


def test_05_distinctness_at_desk_scale():
    with criterion(5, "distinctness-to-500", 10.0):
        rep = co.distinctness_certificate(co.plane_through_last_four(8), 500)
        assert rep.all_distinct
        assert rep.degrees[:8] == (1, 3, 2, 3, 3, 4, 3, 5)
        assert rep.quadratic_part_nonzero
        # degree growth: the minimum over steps t..500 rises with t, every 50 steps
        mins = [min(rep.degrees[t:]) for t in range(0, 500, 50)]
        assert mins == sorted(mins) and mins[-1] > mins[0]


def test_06_coxeter_relations():
    with criterion(6, "coxeter-relations-k8-k9", 5.0):
        for k in (8, 9):
            assert all(ok for _, ok in co.coxeter_relations(k))


def test_07_geometric_lattice_cross_validation():
    with criterion(7, "geometric-lattice-cross-validation", 60.0):
        report = co.coxeter_iterate(co.random_config(7, 10), 6)
        assert report.star_ok == (True,) * 7
        assert len(report.configs) == 7
        assert report.all_pairwise_inequivalent
        assert co.consistency_check(report)

        special = co.coxeter_iterate(special_coplanar_config(0), 1)
        assert special.coplanar_tuples[0] == ((5, 6, 7, 8),)
        assert special.coplanar_tuples[1] == ()
        assert co.consistency_check(special)


def test_08_equivalence_decision_soundness():
    with criterion(8, "equivalence-decision-soundness", 60.0):
        centers = co.CenterSet((1, 2, 3, 4))
        for trial in range(100):
            rng = random.Random(10_000 + trial)
            cfg = co.random_config(20_000 + trial, 10)
            image = moved(
                co.permute_config(cfg, rand_permutation(rng, 8)),
                rand_invertible_map(rng),
            )
            assert co.equivalent(cfg, image)
            assert not co.equivalent(cfg, co.cremona_at(cfg, centers))


def test_09_orbit_bfs_depth_one():
    with criterion(9, "orbit-bfs-depth-one", 120.0):
        cfg = co.random_config(7, 10)
        g1 = co.orbit_bfs(cfg, 1, 10_000, workers=1)
        assert len(g1.nodes) == 71
        g4 = co.orbit_bfs(cfg, 1, 10_000, workers=4)
        assert set(g1.nodes) == set(g4.nodes)
        assert g1.edges == g4.edges
