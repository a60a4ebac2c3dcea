"""Divisor lattice: pushforward, Coxeter element, pairings, certificates."""

import random
import re

import pytest
import sympy

import cremona_orbits as co
from cremona_orbits import linalg
from cremona_orbits.lattice import _from_vector, _to_vector, _word_is_identity
from helpers import rand_divisor, rand_permutation

# closed form of the Coxeter element for k = 8 (Cremona at {1,2,3,4}, then the
# shift moving label 1 last), derivable by hand from the pushforward formulas
COXETER_MATRIX_K8 = (
    (3, 1, 1, 1, 1, 0, 0, 0, 0),
    (-2, -1, 0, -1, -1, 0, 0, 0, 0),
    (-2, -1, -1, 0, -1, 0, 0, 0, 0),
    (-2, -1, -1, -1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1),
    (-2, 0, -1, -1, -1, 0, 0, 0, 0),
)

CENTERS = (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# pushforward

def test_pushforward_of_hyperplane():
    out = co.cremona_pushforward(co.hyperplane_class(8), CENTERS)
    assert out == co.DivisorClass(3, (2, 2, 2, 2, 0, 0, 0, 0))


def test_pushforward_of_exceptional():
    out = co.cremona_pushforward(co.exceptional_class(1, 8), CENTERS)
    assert out == co.DivisorClass(1, (0, 1, 1, 1, 0, 0, 0, 0))  # H - E2 - E3 - E4


def test_pushforward_fixes_quadric_through_all_points():
    quadric = co.DivisorClass(2, (1,) * 8)
    assert co.cremona_pushforward(quadric, CENTERS) == quadric


def test_pushforward_at_other_centers_is_conjugate():
    rng = random.Random(41)
    for _ in range(50):
        c = rand_divisor(rng)
        centers = tuple(sorted(rng.sample(range(1, 9), 4)))
        # relabel so the chosen centers become 1..4, push there, relabel back
        rest = [i for i in range(1, 9) if i not in centers]
        fwd = tuple(centers) + tuple(rest)  # new i holds old fwd[i]
        inv = tuple(fwd.index(i) + 1 for i in range(1, 9))
        via_conjugation = co.permute_class(
            co.cremona_pushforward(co.permute_class(c, fwd), CENTERS), inv
        )
        assert co.cremona_pushforward(c, centers) == via_conjugation


def test_pushforward_is_involution():
    rng = random.Random(42)
    for _ in range(100):
        c = rand_divisor(rng)
        centers = tuple(sorted(rng.sample(range(1, 9), 4)))
        assert co.cremona_pushforward(co.cremona_pushforward(c, centers), centers) == c


@pytest.mark.parametrize("centers", [(1, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 9), (1, 2, 3)])
def test_bad_center_labels_are_rejected(centers):
    with pytest.raises(ValueError):
        co.cremona_pushforward(co.hyperplane_class(8), centers)
    with pytest.raises(ValueError):
        co.flopped_curve_classes(centers, 8)


# ---------------------------------------------------------------------------
# permutations

def test_permute_identity():
    c = rand_divisor(random.Random(43))
    assert co.permute_class(c, tuple(range(1, 9))) == c


@pytest.mark.parametrize(
    "perm", [(1, 1, 3, 4, 5, 6, 7, 8), (0, 2, 3, 4, 5, 6, 7, 8), (2, 3, 4, 5, 6, 7, 8, 9),
             (1, 2, 3, 4, 5, 6, 7)],
)
def test_permute_class_rejects_non_permutation(perm):
    with pytest.raises(ValueError):
        co.permute_class(co.hyperplane_class(8), perm)


def test_cyclic_shift_moves_e5_to_e4():
    out = co.permute_class(co.exceptional_class(5, 8), co.cyclic_shift(8))
    assert out == co.exceptional_class(4, 8)


def test_shift_twice_is_shift_by_two():
    rng = random.Random(44)
    shift = co.cyclic_shift(8)
    two = tuple(list(range(3, 9)) + [1, 2])
    for _ in range(20):
        c = rand_divisor(rng)
        assert co.permute_class(co.permute_class(c, shift), shift) == co.permute_class(c, two)


# ---------------------------------------------------------------------------
# the Coxeter element

def test_coxeter_element_matches_closed_form():
    assert co.coxeter_element(8).entries == COXETER_MATRIX_K8


def test_coxeter_element_on_basis_classes():
    msigma = co.coxeter_element(8)
    assert msigma.apply(co.hyperplane_class(8)) == co.DivisorClass(3, (2, 2, 2, 0, 0, 0, 0, 2))
    assert msigma.apply(co.exceptional_class(1, 8)) == co.DivisorClass(1, (1, 1, 1, 0, 0, 0, 0, 0))
    assert msigma.apply(co.exceptional_class(5, 8)) == co.exceptional_class(4, 8)


def test_coxeter_element_is_shift_after_cremona():
    rng = random.Random(45)
    for k in (8, 10):
        msigma = co.coxeter_element(k)
        shift = co.cyclic_shift(k)
        assert msigma.entries == linalg.mat_mul(co.permutation_map(k, shift).entries,
                                                co.cremona_map(k, CENTERS).entries)
        for _ in range(50):
            c = rand_divisor(rng, k=k)
            assert msigma.apply(c) == co.permute_class(
                co.cremona_pushforward(c, CENTERS), shift
            )


def test_rank_below_eight_is_rejected():
    v = co.plane_through_last_four(7)
    for call in (
        lambda: co.coxeter_element(7),
        lambda: co.coxeter_relations(7),
        lambda: co.iterate_class(v, 0),
        lambda: co.iterate_class(v, 5),
        lambda: co.distinctness_certificate(v, 10),
    ):
        with pytest.raises(co.UsageError, match="need k >= 8"):
            call()


def test_generated_maps_are_unimodular():
    rng = random.Random(46)
    for k in (8, 9):
        for mat in (
            co.cremona_map(k, CENTERS),
            co.permutation_map(k, rand_permutation(rng, k)),
            co.coxeter_element(k),
        ):
            assert abs(linalg.det_bareiss(mat.entries)) == 1


def test_lattice_map_rejects_non_unimodular():
    with pytest.raises(ValueError):
        co.LatticeMap(((2, 0), (0, 1)))


def test_fixed_classes():
    msigma = co.coxeter_element(8)
    for c in (co.DivisorClass(2, (1,) * 8), co.anticanonical_class(8)):
        assert msigma.apply(c) == c


def test_sign_convention_roundtrip():
    rng = random.Random(47)
    for _ in range(20):
        c = rand_divisor(rng)
        assert _from_vector(_to_vector(c)) == c


# ---------------------------------------------------------------------------
# pairing, roots, flopped curves

def test_intersection_normalization():
    assert co.intersect(co.hyperplane_class(8), co.line_curve(8)) == 1
    assert co.intersect(co.exceptional_class(1, 8), co.exceptional_curve(1, 8)) == -1


def test_intersection_with_quartic_is_root_functional():
    rng = random.Random(48)
    quartic = co.quartic_curve_class(8)
    for _ in range(50):
        c = rand_divisor(rng)
        assert co.intersect(c, quartic) == 4 * c.d - sum(c.m)


def test_intersection_dimension_mismatch():
    with pytest.raises(co.DimensionError):
        co.intersect(co.hyperplane_class(8), co.line_curve(9))


def test_root_class_examples():
    assert co.is_root_class(co.plane_through_last_four(8))
    assert not co.is_root_class(co.hyperplane_class(8))
    assert co.is_root_class(co.anticanonical_class(8))


def test_root_class_needs_curve_for_other_k():
    c = co.hyperplane_class(9)
    with pytest.raises(co.DimensionError):
        co.is_root_class(c)
    assert not co.is_root_class(c, curve=co.quartic_curve_class(9))


def test_flopped_curve_classes():
    flopped = co.flopped_curve_classes(CENTERS)
    assert len(flopped) == 6
    pairs = set()
    quadric = co.DivisorClass(2, (1,) * 8)
    for cc in flopped:
        assert cc.a == 1
        pairs.add(tuple(i + 1 for i, n in enumerate(cc.n) if n == 1))
        assert co.intersect(quadric, cc) == 0
        assert co.intersect(co.anticanonical_class(8), cc) == 0
    assert pairs == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}


# ---------------------------------------------------------------------------
# iteration

def test_iterate_first_step():
    orbit = co.iterate_class(co.plane_through_last_four(8), 1)
    assert orbit[1] == co.DivisorClass(3, (2, 2, 2, 1, 1, 1, 1, 2))


def test_iterate_degree_sequence():
    orbit = co.iterate_class(co.plane_through_last_four(8), 7)
    assert tuple(c.d for c in orbit) == (1, 3, 2, 3, 3, 4, 3, 5)


def test_iterate_stays_in_root_classes():
    for c in co.iterate_class(co.plane_through_last_four(8), 30):
        assert co.is_root_class(c)


def test_iterate_against_matrix_power_oracle():
    msigma = sympy.Matrix(COXETER_MATRIX_K8)
    v = sympy.Matrix([1, 0, 0, 0, 0, -1, -1, -1, -1])  # (H, E) coefficients
    orbit = co.iterate_class(co.plane_through_last_four(8), 12)
    for n, c in enumerate(orbit):
        want = msigma**n * v
        assert list(_to_vector(c)) == [int(x) for x in want]


@pytest.mark.parametrize("k", [10, 12])
def test_iterate_against_repeated_coxeter_element(k):
    rng = random.Random(k)
    msigma = co.coxeter_element(k)
    for v in (co.plane_through_last_four(k), rand_divisor(rng, k=k)):
        cur = v
        for c in co.iterate_class(v, 12):
            assert c == cur
            cur = msigma.apply(cur)


# ---------------------------------------------------------------------------
# Jordan certificate

def test_jordan_of_identity():
    cert = co.jordan_certificate(co.LatticeMap(linalg.identity(9)))
    assert cert.multiplicity_of_one == 9
    assert cert.ranks == (0, 0, 0, 0)
    assert cert.eigenvalue_one_block_sizes() == (1,) * 9


def test_jordan_of_single_block():
    block = co.LatticeMap(((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    cert = co.jordan_certificate(block)
    assert cert.multiplicity_of_one == 3
    assert cert.ranks == (2, 1, 0, 0)
    assert cert.eigenvalue_one_block_sizes() == (3,)


def test_jordan_of_coxeter_element():
    cert = co.jordan_certificate(co.coxeter_element(8))
    assert cert.multiplicity_of_one == 3
    assert cert.ranks == (8, 7, 6, 6)
    assert cert.stabilized
    assert cert.eigenvalue_one_block_sizes() == (3,)


def test_jordan_data_against_sympy():
    m = sympy.Matrix(COXETER_MATRIX_K8)
    cert = co.jordan_certificate(co.coxeter_element(8))
    assert list(cert.charpoly) == [int(c) for c in m.charpoly().all_coeffs()]
    n = m - sympy.eye(9)
    assert cert.ranks == tuple((n**j).rank() for j in range(1, 5))


# ---------------------------------------------------------------------------
# distinctness

def test_distinctness_of_iterated_plane():
    rep = co.distinctness_certificate(co.plane_through_last_four(8), 500)
    assert rep.all_distinct
    assert rep.first_collision is None
    assert rep.degrees[:8] == (1, 3, 2, 3, 3, 4, 3, 5)
    assert rep.degree_growth
    assert rep.quadratic_part_nonzero
    # trailing minima are nondecreasing and end well above the start
    mins = [d for _, d in rep.trailing_min]
    assert mins == sorted(mins)
    assert mins[-1] > mins[0]


@pytest.mark.parametrize("N, checkpoints, growth", [
    (1, [0], False),
    (5, [0, 1, 2, 3, 4], True),  # degrees 1, 3, 2, 3, 3, 4 grow
    (13, [0, 1, 2, 3, 5, 6, 7, 9, 10, 11], True),
    (20, [0, 2, 4, 6, 8, 10, 12, 14, 16, 18], True),
])
def test_distinctness_checkpoints(N, checkpoints, growth):
    v = co.plane_through_last_four(8)
    rep = co.distinctness_certificate(v, N)
    assert rep.degrees == tuple(c.d for c in co.iterate_class(v, N))
    assert [t for t, _ in rep.trailing_min] == checkpoints
    assert rep.degree_growth is growth
    assert rep.quadratic_part_nonzero  # needs two steps, also when N == 1


def test_distinctness_detects_fixed_class():
    rep = co.distinctness_certificate(co.DivisorClass(2, (1,) * 8), 50)
    assert not rep.all_distinct
    assert rep.first_collision == (0, 1)
    assert not rep.quadratic_part_nonzero
    assert not rep.degree_growth


# ---------------------------------------------------------------------------
# Coxeter relations

def test_relations_hold_for_k8_and_k9():
    assert co.coxeter_relations_check(8)
    assert co.coxeter_relations_check(9)


def test_cremona_map_is_involution_matrix():
    r = co.cremona_map(8, CENTERS)
    assert linalg.mat_mul(r.entries, r.entries) == linalg.identity(9)


def sympy_word(k, letters, power):
    """The matrix (letters[0] letters[1] ..)^power from the dense generator maps."""
    prod = sympy.eye(k + 1)
    for g in letters:
        if g == "r":
            prod *= sympy.Matrix(co.cremona_map(k, CENTERS).entries)
        else:
            i = int(g[1:])
            perm = list(range(1, k + 1))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            prod *= sympy.Matrix(co.permutation_map(k, perm).entries)
    return prod**power


@pytest.mark.parametrize("k", [8, 9, 10])
def test_relation_verdicts_match_sympy_matrices(k):
    for name, ok in co.coxeter_relations(k):
        m = re.fullmatch(r"\(?(r|s\d+)(?: (s\d+))?\)?\^(\d+) = 1", name)
        letters = [g for g in m.group(1, 2) if g]
        assert ok == (sympy_word(k, letters, int(m.group(3))) == sympy.eye(k + 1)), name


@pytest.mark.parametrize("word, power", [
    ((0, 4), 2), ((1, 2), 2), ((0,), 1), ((1, 3), 1), ((0, 5), 1),
])
def test_word_checker_rejects_non_relations(word, power):
    assert not _word_is_identity(8, word, power)
    letters = ["r" if g == 0 else "s%d" % g for g in word]
    assert sympy_word(8, letters, power) != sympy.eye(9)


def test_relation_list_is_complete_for_k8():
    names = [name for name, _ in co.coxeter_relations(8)]
    # 1 involution + 15 commuting pairs + 6 braid + 1 branch braid + 6 branch commuting
    assert len(names) == 29
    assert "r^2 = 1" in names and "(r s4)^3 = 1" in names
