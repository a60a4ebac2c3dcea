"""Divisor lattice: pushforward, Coxeter element, root classes, certificates."""

import decimal
import itertools
import random
import re

import pytest
import sympy

import cremona_orbits as co
from cremona_orbits import linalg
from cremona_orbits.lattice import _from_vector, _push_in_place, _to_vector, _word_is_identity
from helpers import (cremona_map, distinctness_by_dict, map_class, permutation_map,
                     permute_class, pushforward, rand_divisor, rand_permutation,
                     word_fixes_basis)

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


def hyperplane(k=8):
    return co.DivisorClass(1, (0,) * k)


def exceptional(i, k=8):
    """E_i, so d = 0 and m_i = -1."""
    return co.DivisorClass(0, tuple(-int(j == i) for j in range(1, k + 1)))


def anticanonical(k=8):
    return co.DivisorClass(4, (2,) * k)


def is_root(c):
    """True iff c pairs to zero with the quartic curve 4l - sum(e_i): H.l = 1, E_i.e_j = -delta_ij."""
    return 4 * c.d == sum(c.m)


# ---------------------------------------------------------------------------
# pushforward, on the raw kernel: (d, m) in, d' out and m stepped to m' in place

def push(c, pos):
    """The library's in-place kernel at 0-based positions, run on a copy of c's multiplicities."""
    m = list(c.m)
    return co.DivisorClass(_push_in_place(c.d, m, pos), m)


def test_pushforward_of_hyperplane():
    m = [0] * 8
    assert _push_in_place(1, m, (0, 1, 2, 3)) == 3
    assert m == [2, 2, 2, 2, 0, 0, 0, 0]


def test_pushforward_of_exceptional():
    # E1 goes to H - E2 - E3 - E4
    m = [-1] + [0] * 7
    assert _push_in_place(0, m, (0, 1, 2, 3)) == 1
    assert m == [0, 1, 1, 1, 0, 0, 0, 0]


def test_pushforward_fixes_quadric_through_all_points():
    m = [1] * 8
    assert _push_in_place(2, m, (0, 1, 2, 3)) == 2
    assert m == [1] * 8


def test_pushforward_at_other_centers_is_conjugate():
    rng = random.Random(41)
    for _ in range(50):
        c = rand_divisor(rng)
        pos = tuple(sorted(rng.sample(range(8), 4)))
        # relabel so the chosen centers become 1..4, push there, relabel back
        rest = [i for i in range(8) if i not in pos]
        fwd = tuple(i + 1 for i in pos + tuple(rest))  # new i holds old fwd[i]
        inv = tuple(fwd.index(i) + 1 for i in range(1, 9))
        via_conjugation = permute_class(push(permute_class(c, fwd), (0, 1, 2, 3)), inv)
        assert push(c, pos) == via_conjugation


def test_pushforward_is_involution():
    rng = random.Random(42)
    for _ in range(100):
        c = rand_divisor(rng)
        pos = tuple(sorted(rng.sample(range(8), 4)))
        assert push(push(c, pos), pos) == c


@pytest.mark.parametrize("centers", [(1, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 9), (1, 2, 3)])
def test_bad_center_labels_are_rejected(centers):
    # the kernel takes its labels unchecked; a Cremona move's centers are
    # checked once, by CenterSet, before any bracket or class is read
    with pytest.raises(co.UsageError):
        co.CenterSet(centers).within(8)


# ---------------------------------------------------------------------------
# the cyclic shift, as a relabeling of multiplicities

def test_permute_identity():
    # the identity relabels nothing, and the shift has order k
    for k in (8, 11):
        c = rand_divisor(random.Random(43), k=k)
        assert permute_class(c, tuple(range(1, k + 1))) == c
        cur = c
        for n in range(1, k + 1):
            cur = permute_class(cur, co.cyclic_shift(k))
            assert (cur == c) == (n == k)


def test_cyclic_shift_moves_e5_to_e4():
    out = permute_class(exceptional(5, 8), co.cyclic_shift(8))
    assert out == exceptional(4, 8)


def test_shift_twice_is_shift_by_two():
    rng = random.Random(44)
    shift = co.cyclic_shift(8)
    two = tuple(list(range(3, 9)) + [1, 2])
    for _ in range(20):
        c = rand_divisor(rng)
        assert permute_class(permute_class(c, shift), shift) == permute_class(c, two)


# ---------------------------------------------------------------------------
# the Coxeter element

def test_coxeter_element_matches_closed_form():
    assert co.coxeter_element(8).entries == COXETER_MATRIX_K8


def test_coxeter_element_on_basis_classes():
    msigma = co.coxeter_element(8)
    images = {hyperplane(8): co.DivisorClass(3, (2, 2, 2, 0, 0, 0, 0, 2)),
              exceptional(1, 8): co.DivisorClass(1, (1, 1, 1, 0, 0, 0, 0, 0)),
              exceptional(5, 8): exceptional(4, 8)}
    for c, image in images.items():
        assert map_class(msigma, c) == co.iterate_class(c, 1)[1] == image


def test_coxeter_element_is_shift_after_cremona():
    rng = random.Random(45)
    for k in (8, 10):
        msigma = co.coxeter_element(k)
        shift = co.cyclic_shift(k)
        assert msigma.entries == linalg.mat_mul(permutation_map(k, shift).entries,
                                                cremona_map(k, CENTERS).entries)
        for _ in range(50):
            c = rand_divisor(rng, k=k)
            assert map_class(msigma, c) == permute_class(pushforward(c, CENTERS), shift)


def test_rank_below_eight_is_rejected():
    v = co.DivisorClass(1, (0, 0, 0, 1, 1, 1, 1))
    for call in (
        lambda: co.plane_through_last_four(7),
        lambda: co.coxeter_element(7),
        lambda: co.coxeter_relations(7),
        lambda: co.iterate_class(v, 0),
        lambda: co.iterate_class(v, 5),
        lambda: co.distinctness_certificate(v, 10),
    ):
        with pytest.raises(co.UsageError, match="need k >= 8"):
            call()
    with pytest.raises(co.UsageError, match="need k <= %d" % co.lattice.MAX_K):
        co.plane_through_last_four(co.lattice.MAX_K + 1)


@pytest.mark.parametrize("n", [-1, -5])
def test_negative_step_count_is_rejected(n):
    with pytest.raises(co.UsageError, match="n must be >= 0, got %d" % n):
        co.iterate_class(co.plane_through_last_four(8), n)


def test_generated_maps_are_unimodular():
    rng = random.Random(46)
    for k in (8, 9):
        for mat in (
            cremona_map(k, CENTERS),
            permutation_map(k, rand_permutation(rng, k)),
            co.coxeter_element(k),
        ):
            assert abs(linalg.det_bareiss(mat.entries)) == 1


def test_lattice_map_rejects_non_unimodular():
    with pytest.raises(ValueError):
        co.LatticeMap(((2, 0), (0, 1)))
    with pytest.raises(ValueError, match="square"):
        co.LatticeMap(((1, 0, 0), (0, 1, 0)))


def test_fixed_classes():
    msigma = co.coxeter_element(8)
    for c in (co.DivisorClass(2, (1,) * 8), anticanonical(8)):
        assert map_class(msigma, c) == c


def test_sign_convention_roundtrip():
    rng = random.Random(47)
    for _ in range(20):
        c = rand_divisor(rng)
        assert _from_vector(_to_vector(c)) == c


# ---------------------------------------------------------------------------
# roots, flopped lines

def test_root_class_examples():
    assert is_root(co.plane_through_last_four(8))
    assert not is_root(hyperplane(8))
    assert is_root(anticanonical(8))


def test_flopped_curve_classes():
    # the flopped line l - e_i - e_j over two centers pairs to d - m_i - m_j
    # with d*H - sum(m_i E_i): zero on both fixed classes
    for fixed in (co.DivisorClass(2, (1,) * 8), anticanonical(8)):
        for i, j in itertools.combinations(CENTERS, 2):
            assert fixed.d - fixed.m[i - 1] - fixed.m[j - 1] == 0


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
        assert is_root(c)


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
            cur = map_class(msigma, cur)


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
    with pytest.raises(ValueError, match="weakly decreasing"):
        co.JordanCertificate((1, 2, 0, 0), cert.charpoly)
    # a block of size 5: (M - I)^4 has rank 1, so the ranks have not stabilized
    five = co.LatticeMap(tuple(tuple(int(j in (i, i + 1)) for j in range(5)) for i in range(5)))
    cert = co.jordan_certificate(five)
    assert cert.ranks == (4, 3, 2, 1) and not cert.stabilized
    with pytest.raises(ValueError, match="stabilize"):
        cert.eigenvalue_one_block_sizes()


def test_jordan_of_coxeter_element():
    cert = co.jordan_certificate(co.coxeter_element(8))
    assert cert.multiplicity_of_one == 3
    assert cert.ranks == (8, 7, 6, 6)
    assert cert.stabilized
    assert cert.eigenvalue_one_block_sizes() == (3,)


def multiplicity_of_root_one(m):
    """The multiplicity of 1 as a root of m's characteristic polynomial, by sympy's factorization."""
    x = sympy.symbols("x")
    return dict(sympy.factor_list(m.charpoly(x).as_expr())[1]).get(x - 1, 0)


def test_jordan_data_against_sympy():
    m = sympy.Matrix(COXETER_MATRIX_K8)
    cert = co.jordan_certificate(co.coxeter_element(8))
    assert list(cert.charpoly) == [int(c) for c in m.charpoly().all_coeffs()]
    n = m - sympy.eye(9)
    assert cert.ranks == tuple((n**j).rank() for j in range(1, 5))
    assert cert.multiplicity_of_one == multiplicity_of_root_one(m) == 3
    # larger k: sympy multiplies the generator matrices itself, so neither side
    # of the check goes through linalg.mat_mul
    for k in (9, 16, 24):
        m = (sympy.Matrix(permutation_map(k, co.cyclic_shift(k)).entries)
             * sympy.Matrix(cremona_map(k, CENTERS).entries))
        msigma = co.coxeter_element(k)
        assert [list(r) for r in msigma.entries] == m.tolist()
        cert = co.jordan_certificate(msigma)
        assert list(cert.charpoly) == [int(c) for c in m.charpoly().all_coeffs()]
        n = m - sympy.eye(k + 1)
        assert cert.ranks == tuple((n**j).rank() for j in range(1, 5))
        assert cert.multiplicity_of_one == multiplicity_of_root_one(m)


# ---------------------------------------------------------------------------
# distinctness

def test_distinctness_of_iterated_plane():
    rep = co.distinctness_certificate(co.plane_through_last_four(8), 500)
    assert rep.all_distinct
    assert rep.first_collision is None
    assert rep.degrees[:8] == (1, 3, 2, 3, 3, 4, 3, 5)
    assert rep.quadratic_part_nonzero
    # the degrees' trailing minima are nondecreasing and end well above the start
    mins = [min(rep.degrees[t:]) for t in range(0, 500, 50)]
    assert mins == sorted(mins)
    assert mins[-1] > mins[0]


@pytest.mark.parametrize("N, checkpoints, growth", [
    (1, [0], False),
    (5, [0, 1, 2, 3, 4], True),  # degrees 1, 3, 2, 3, 3, 4 grow
    (13, [0, 1, 2, 3, 5, 6, 7, 9, 10, 11], True),
    (20, [0, 2, 4, 6, 8, 10, 12, 14, 16, 18], True),
])
def test_distinctness_checkpoints(N, checkpoints, growth):
    # checkpoints t = N * i // 10 for i = 0..9 without repeats: the degrees
    # grew when their minimum over steps t..N at the last one exceeds the minimum over all
    v = co.plane_through_last_four(8)
    rep = co.distinctness_certificate(v, N)
    assert rep.degrees == tuple(c.d for c in co.iterate_class(v, N))
    assert (min(rep.degrees[checkpoints[-1]:]) > min(rep.degrees)) is growth
    assert rep.quadratic_part_nonzero  # needs two steps, also when N == 1


def test_distinctness_detects_fixed_class():
    rep = co.distinctness_certificate(co.DivisorClass(2, (1,) * 8), 50)
    assert not rep.all_distinct
    assert rep.first_collision == (0, 1)
    assert not rep.quadratic_part_nonzero
    assert rep.degrees == (2,) * 51


# classes of period 4 and 3 under the k = 8 Coxeter element (E_7 - E_1, E_6 - E_2)
PERIODIC_K8 = {4: co.DivisorClass(0, (1, 0, 0, 0, 0, 0, -1, 0)),
               3: co.DivisorClass(0, (0, 1, 0, 0, 0, -1, 0, 0))}


@pytest.mark.parametrize("k", [8, 9, 12, 24, 64])
def test_distinctness_matches_dict_oracle(k):
    starts = [co.plane_through_last_four(k), hyperplane(k), exceptional(1, k),
              anticanonical(k), co.DivisorClass(2, (1,) * k)]
    if k == 8:
        starts += PERIODIC_K8.values()
    for v in starts:
        for N in (1, 2, 5, 13, 400):
            rep = co.distinctness_certificate(v, N)
            assert rep == distinctness_by_dict(v, N), (v, N)
            assert rep.first_collision is None or rep.first_collision[1] <= N


# classes whose shift 2d - s is 0 at every step: the degree returns at every
# step while the multiplicities only rotate, so the first return is at the
# rotation's period, never at step 1
ROTATING = [(co.DivisorClass(1, (1, 0) * 4), 2), (co.DivisorClass(1, (1, 0) * 5), 2),
            (co.DivisorClass(1, (1, 1, 0, 0) * 3), 4), (co.DivisorClass(1, (0, 1, 1, 0) * 4), 4)]


@pytest.mark.parametrize("v, period", ROTATING, ids=lambda x: getattr(x, "k", x))
def test_distinctness_first_return_of_a_rotation(v, period):
    for N in range(1, 31):
        rep = co.distinctness_certificate(v, N)
        assert rep.first_collision == (None if N < period else (0, period)), N
        assert rep == distinctness_by_dict(v, N), N
        assert rep.degrees == (1,) * (N + 1)


@pytest.mark.parametrize("k", [9, 24])
def test_distinctness_is_exact_in_any_decimal_context(k):
    # the orbit is stepped in Decimals under the module's own exact context, so
    # a caller's 3-digit context without traps neither rounds a degree nor changes
    v = co.plane_through_last_four(k)
    with decimal.localcontext(decimal.Context(prec=3, traps=[])) as caller:
        before = repr(caller)
        rep = co.distinctness_certificate(v, 4000)
        assert decimal.getcontext() is caller and repr(caller) == before
    assert rep.degrees == tuple(c.d for c in co.iterate_class(v, 4000))
    assert all(d.as_tuple().exponent == 0 for d in rep.degrees)
    assert max(rep.degrees) > 10 ** 400  # far past the caller's 3 digits


def test_distinctness_reports_the_first_return():
    for period, v in PERIODIC_K8.items():
        assert co.distinctness_certificate(v, period - 1).all_distinct
        assert co.distinctness_certificate(v, 50).first_collision == (0, period)


# ---------------------------------------------------------------------------
# Coxeter relations

def test_relations_hold_for_k8_and_k9():
    for k in (8, 9):
        assert all(ok for _, ok in co.coxeter_relations(k))


def test_cremona_map_is_involution_matrix():
    r = cremona_map(8, CENTERS)
    assert linalg.mat_mul(r.entries, r.entries) == linalg.identity(9)


def sympy_word(k, letters, power):
    """The matrix (letters[0] letters[1] ..)^power from the dense generator maps."""
    prod = sympy.eye(k + 1)
    for g in letters:
        if g == "r":
            prod *= sympy.Matrix(cremona_map(k, CENTERS).entries)
        else:
            i = int(g[1:])
            perm = list(range(1, k + 1))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            prod *= sympy.Matrix(permutation_map(k, perm).entries)
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


def relation_word(name):
    """(word, power) of a relation name such as "(r s4)^3 = 1", with r as 0 and s_i as i."""
    m = re.fullmatch(r"\(?(r|s\d+)(?: (s\d+))?\)?\^(\d+) = 1", name)
    return tuple(0 if g == "r" else int(g[1:]) for g in m.group(1, 2) if g), int(m.group(3))


NON_RELATIONS = [((0, 4), 2), ((0, 3), 3), ((1, 2), 2), ((0,), 1)]


@pytest.mark.parametrize("k", [8, 9, 10, 11, 12, 24, 64])
def test_packed_class_matches_basis_oracle(k):
    relations = co.coxeter_relations(k)
    rng = random.Random(k)
    if k == 64:
        # the oracle takes about 2 s on all 2017 relations; a seeded sample of them
        relations = rng.sample(relations, 200)
    for name, ok in relations:
        assert ok and word_fixes_basis(k, *relation_word(name)), name
    for word, power in NON_RELATIONS:
        assert not _word_is_identity(k, word, power)
        assert not word_fixes_basis(k, word, power)
    for _ in range(40):
        word = tuple(rng.randrange(k) for _ in range(rng.randint(1, 4)))
        power = rng.randint(1, 3)
        assert _word_is_identity(k, word, power) == word_fixes_basis(k, word, power), word


def test_relation_list_is_complete_for_k8():
    names = [name for name, _ in co.coxeter_relations(8)]
    # 1 involution + 15 commuting pairs + 6 braid + 1 branch braid + 6 branch commuting
    assert len(names) == 29
    assert "r^2 = 1" in names and "(r s4)^3 = 1" in names
