"""Exact projective geometry: points, condition (*), Cremona, and the oracle's frame matrix."""

import itertools
import pickle
import random
from fractions import Fraction

import pytest
import sympy

import cremona_orbits as co
from cremona_orbits import linalg
from helpers import (cfg_from_rows, coxeter_chain, frame_matrix, moved, rand_invertible_map,
                     special_coplanar_config)

E0, E1, E2, E3 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
ONES = (1, 1, 1, 1)


def pt(*coords):
    return co.normalize_point(coords)


# ---------------------------------------------------------------------------
# normalize_point

def test_normalize_clears_denominators():
    assert pt(1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)).coords == (12, 6, 4, 3)


def test_normalize_gcd_and_sign():
    assert pt(0, -2, -4, 0).coords == (0, 1, 2, 0)


def test_normalize_scaling():
    assert pt(5, 0, 0, 0).coords == (1, 0, 0, 0)


def test_normalize_rejects_zero():
    with pytest.raises(co.DegeneratePointError):
        pt(0, 0, 0, 0)


def test_normalize_rejects_floats():
    with pytest.raises(TypeError):
        pt(1.0, 2, 3, 4)


def test_normalize_scale_invariant_and_idempotent():
    rng = random.Random(11)
    for _ in range(300):
        raw = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(4))
        if all(v == 0 for v in raw):
            continue
        lam = Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
        p = co.normalize_point(raw)
        assert co.normalize_point(tuple(lam * v for v in raw)) == p
        assert co.normalize_point(p.coords) == p


def test_point_constructor_makes_canonical():
    assert co.ProjectivePoint((2, 4, 0, 0)).coords == (1, 2, 0, 0)
    assert co.ProjectivePoint((-1, 0, 0, 1)).coords == (1, 0, 0, -1)


# the last is past Python's int/str digit cap, so the error must not print the values
@pytest.mark.parametrize("coords", [(1, 2, 3), (1, 2, 3, 4, 5), (10 ** 5000,) * 5])
def test_point_needs_four_coordinates(coords):
    with pytest.raises(TypeError):
        co.ProjectivePoint(coords)
    with pytest.raises(TypeError):
        co.normalize_point(coords)


def test_point_constructor_takes_ints_only():
    with pytest.raises(TypeError):
        co.ProjectivePoint(("1", 0, 0, 2))
    assert co.normalize_point(("1", 0, 0, 2)).coords == (1, 0, 0, 2)
    with pytest.raises(co.DegeneratePointError):
        co.ProjectivePoint((0, 0, 0, 0))


# ---------------------------------------------------------------------------
# coplanar

def test_coplanar_examples():
    assert not co.coplanar(pt(*E0), pt(*E1), pt(*E2), pt(*E3))
    assert co.coplanar(pt(*E0), pt(*E1), pt(*E2), pt(1, 1, 0, 0))
    assert not co.coplanar(pt(*E0), pt(*E1), pt(*E2), pt(*ONES))


# ---------------------------------------------------------------------------
# the bracket table

def test_brackets_fill_every_subset_in_lexicographic_order():
    cfg = co.random_config(11, 6, k=9)
    br = co.projective.BracketTable(cfg)
    subs = list(itertools.combinations(range(1, 10), 4))
    for sub in subs:
        assert br[sub] == linalg.det_bareiss([cfg.point(i).coords for i in sub])
    assert list(br) == subs


def test_bracket_table_survives_pickle_partly_filled():
    # no command sends a table between processes, but a pickled table keeps
    # its brackets, its read order and its points
    cfg = co.random_config(12, 6)
    br = co.projective.BracketTable(cfg)
    br[(1, 2, 3, 4)]
    back = pickle.loads(pickle.dumps(br))
    assert type(back) is co.projective.BracketTable and back.k == 8
    assert dict(back) == {(1, 2, 3, 4): br[(1, 2, 3, 4)]}
    assert back[(5, 6, 7, 8)] == co.projective.BracketTable(cfg)[(5, 6, 7, 8)]
    assert list(back) == [(1, 2, 3, 4), (5, 6, 7, 8)]


@pytest.mark.parametrize("call", [co.star_violation, co.cremona_at])
def test_center_labels_above_k_raise_usage_error(call):
    # the check comes before any bracket of the missing point is read
    with pytest.raises(co.UsageError, match=r"\(1, 2, 3, 9\) out of range 1..8"):
        call(co.random_config(13, 6), co.CenterSet((1, 2, 3, 9)))


# ---------------------------------------------------------------------------
# the explicit frame matrix of the brute-force oracle (helpers.frame_matrix)

def proportional(m, n):
    """True iff the 4x4 matrices m and n are nonzero multiples of each other."""
    a = [v for row in m for v in row]
    b = [v for row in n for v in row]
    i = next(i for i, v in enumerate(a) if v)
    return b[i] != 0 and all(x * b[i] == y * a[i] for x, y in zip(a, b))


def test_frame_transform_identity():
    t = frame_matrix([pt(*E0), pt(*E1), pt(*E2), pt(*E3), pt(*ONES)])
    assert proportional(t, [E0, E1, E2, E3])


def test_frame_transform_swap():
    t = frame_matrix([pt(*E1), pt(*E0), pt(*E2), pt(*E3), pt(*ONES)])
    assert proportional(t, [E1, E0, E2, E3])


def test_frame_transform_diagonal():
    t = frame_matrix([pt(*E0), pt(*E1), pt(*E2), pt(*E3), pt(1, 2, 3, 4)])
    want = [[1, 0, 0, 0],
            [0, Fraction(1, 2), 0, 0],
            [0, 0, Fraction(1, 3), 0],
            [0, 0, 0, Fraction(1, 4)]]
    assert proportional(t, want)


def test_frame_transform_sends_frame_to_reference():
    targets = [pt(*E0), pt(*E1), pt(*E2), pt(*E3), pt(*ONES)]
    for seed in range(5):
        five = co.random_config(100 + seed, 9).points[:5]
        t = frame_matrix(five)
        assert [co.normalize_point(linalg.mat_vec(t, p.coords)) for p in five] == targets
    # a coplanar 4-subset, without and with the fifth point, is no frame
    assert frame_matrix([pt(*E0), pt(*E1), pt(*E2), pt(1, 1, 0, 0), pt(*ONES)]) is None
    assert frame_matrix([pt(*E0), pt(*E1), pt(*E2), pt(*E3), pt(1, 1, 1, 0)]) is None


# ---------------------------------------------------------------------------
# condition (*)

def vertex_config(fifth=(1, 1, 1, 1)):
    return cfg_from_rows(
        [E0, E1, E2, E3, fifth, (1, 2, 3, 4), (1, 1, 2, 3), (3, 1, 1, 2)]
    )


def test_condition_star_generic_true():
    cfg = vertex_config()
    assert co.star_violation(cfg, co.CenterSet((1, 2, 3, 4))) is None


def test_condition_star_point_on_plane():
    cfg = vertex_config(fifth=(1, 1, 1, 0))
    centers = co.CenterSet((1, 2, 3, 4))
    assert co.star_violation(cfg, centers) is not None
    viol = co.star_violation(cfg, centers)
    assert viol.plane == (1, 2, 3) and viol.point == 5
    assert repr(viol) == "StarViolation(plane=(1, 2, 3), point=5)"


def test_condition_star_coplanar_centers():
    cfg = cfg_from_rows(
        [E0, E1, E2, (1, 1, 0, 0), E3, (1, 2, 3, 4), (1, 1, 2, 3), (3, 1, 1, 2)]
    )
    centers = co.CenterSet((1, 2, 3, 4))
    assert co.star_violation(cfg, centers) is not None
    viol = co.star_violation(cfg, centers)
    assert viol.plane == (1, 2, 3, 4) and viol.point is None


def test_condition_star_invariant_under_maps_and_center_fixing_relabeling():
    rng = random.Random(13)
    for seed in range(4):
        cfg = co.random_config(200 + seed, 8)
        centers = co.CenterSet(tuple(sorted(rng.sample(range(1, 9), 4))))
        base = co.star_violation(cfg, centers)
        image = moved(cfg, rand_invertible_map(rng))
        assert co.star_violation(image, centers) == base
        # relabel within the centers and within the complement
        inside = list(centers.indices)
        outside = list(centers.complement(8))
        rng.shuffle(inside)
        rng.shuffle(outside)
        perm = [0] * 8
        for new, old in zip(centers.indices, inside):
            perm[new - 1] = old
        for new, old in zip(centers.complement(8), outside):
            perm[new - 1] = old
        assert (co.star_violation(co.permute_config(cfg, tuple(perm)), centers) is None) == (
            base is None)


def brute_force_star_violation(cfg, centers):
    """The first witness found by coplanarity tests in the documented order."""
    idx = centers.indices
    if co.coplanar(*(cfg.point(c) for c in idx)):
        return co.StarViolation(plane=idx)
    for plane in itertools.combinations(idx, 3):
        for j in centers.complement(cfg.k):
            if co.coplanar(*(cfg.point(c) for c in plane), cfg.point(j)):
                return co.StarViolation(plane=plane, point=j)
    return None


@pytest.mark.parametrize("k", [8, 13])
def test_lone_move_reads_the_brackets_around_its_centers(k, monkeypatch):
    # a lone star_violation or cremona_at reads the 1 + 4(k - 4) brackets
    # around its centers: all of them where (*) holds, some where it fails
    tables = []

    class Recorded(co.projective.BracketTable):
        __slots__ = ()

        def __init__(self, config):
            super().__init__(config)
            tables.append(self)

    monkeypatch.setattr(co.projective, "BracketTable", Recorded)
    holds = co.random_config(2300 + k, 6, k=k)
    p1, p2, p3 = (holds.point(i).coords for i in (1, 2, 3))  # p_k moves to their plane
    on_plane = co.normalize_point(tuple(a + 2 * b - 3 * c for a, b, c in zip(p1, p2, p3)))
    fails = co.Configuration(holds.points[:-1] + (on_plane,))
    for centers, witness in ((co.CenterSet((1, 2, 3, 4)), co.StarViolation((1, 2, 3), k)),
                             (co.CenterSet((1, 2, 3, k)), co.StarViolation((1, 2, 3, k)))):
        near = {sub for t in centers.complement(k)
                for sub in itertools.combinations(sorted((*centers.indices, t)), 4)}
        assert len(near) == 1 + 4 * (k - 4)
        tables.clear()
        assert co.star_violation(holds, centers) is None
        co.cremona_at(holds, centers)
        assert co.star_violation(fails, centers) == witness
        with pytest.raises(co.StarViolationError):
            co.cremona_at(fails, centers)
        assert len(tables) == 4
        assert set(tables[0]) == set(tables[1]) == near
        assert set(tables[2]) == set(tables[3]) <= near


def test_star_violation_matches_brute_force_on_small_coordinates():
    # points with coordinates in {-1, 0, 1}: most center sets violate (*)
    small = sorted({pt(*v) for v in itertools.product((-1, 0, 1), repeat=4) if any(v)})
    rng = random.Random(16)
    kinds = {"coplanar centers": 0, "point on plane": 0, "holds": 0}
    # at k = 13 the C(13, 4) * 9 = 6435 (base, t) pairs of the Cramer rule
    # outnumber its cache of signed drops, so entries are evicted mid-run
    for k in (8, 9) * 6 + (13,) * 2:
        cfg = co.Configuration(tuple(rng.sample(small, k)))
        for sub in itertools.combinations(range(1, cfg.k + 1), 4):
            centers = co.CenterSet(sub)
            viol = co.star_violation(cfg, centers)
            want = brute_force_star_violation(cfg, centers)
            assert viol == want
            assert repr(viol) == repr(want)
            if viol is None:
                kinds["holds"] += 1
            else:
                assert viol.describe() == want.describe()
                kinds["coplanar centers" if viol.point is None else "point on plane"] += 1
    assert min(kinds.values()) > 0
    assert kinds["holds"] < kinds["point on plane"] + kinds["coplanar centers"]


# ---------------------------------------------------------------------------
# cremona_at

def test_cremona_matches_bracket_reciprocals():
    # coordinate i of a non-center image is 1 / [centers with p_t in place of center i]
    rng = random.Random(17)
    tall = coxeter_chain(co.random_config(600, 9), 3)
    cases = [co.random_config(500 + s, 9, k=8 + s % 2) for s in range(4)] + [tall]
    for cfg in cases:
        centers = co.CenterSet(tuple(rng.sample(range(1, cfg.k + 1), 4)))
        cols = [list(cfg.point(c).coords) for c in centers.indices]
        out = co.cremona_at(cfg, centers)
        for label in range(1, cfg.k + 1):
            if label in centers.indices:
                want = pt(*(int(c == label) for c in centers.indices))
            else:
                p = list(cfg.point(label).coords)
                br = [int(sympy.Matrix(cols[:i] + [p] + cols[i + 1:]).T.det()) for i in range(4)]
                want = co.normalize_point(tuple(Fraction(1, b) for b in br))
            assert out.point(label) == want


def test_cremona_fixes_unit_point():
    cfg = vertex_config()
    out = co.cremona_at(cfg, co.CenterSet((1, 2, 3, 4)))
    assert out.points[4] == pt(*ONES)


def test_cremona_reciprocal_example():
    cfg = cfg_from_rows(
        [E0, E1, E2, E3, (1, 2, 3, 4), ONES, (1, 1, 2, 3), (3, 1, 1, 2)]
    )
    out = co.cremona_at(cfg, co.CenterSet((1, 2, 3, 4)))
    assert out.points[4].coords == (12, 6, 4, 3)


def test_cremona_keeps_centers_at_vertices():
    cfg = co.random_config(42, 9)
    out = co.cremona_at(cfg, co.CenterSet((2, 3, 5, 7)))
    assert [out.points[i - 1].coords for i in (2, 3, 5, 7)] == [E0, E1, E2, E3]


def test_cremona_noncenter_coordinates_all_nonzero():
    for seed in range(4):
        cfg = co.random_config(300 + seed, 8)
        centers = co.CenterSet((1, 4, 6, 8))
        out = co.cremona_at(cfg, centers)
        for label in centers.complement(8):
            assert 0 not in out.point(label).coords


def test_cremona_is_involution_up_to_equivalence():
    # general position at k = 8..13, and the special roots, whose coplanar
    # 4-tuple {5,6,7,8} holds at most two centers of each set, so (*) holds
    cases = [(co.random_config(400 + seed, 7), (1, 2, 3, 4)) for seed in range(3)]
    cases += [(co.random_config(410 + k, 7, k=k), c) for k in range(9, 14)
              for c in ((1, 2, 3, 4), (2, 5, 7, k))]
    cases += [(special_coplanar_config(s), c) for s in (0, 1) for c in ((1, 2, 3, 4), (1, 2, 5, 6))]
    for cfg, sub in cases:
        centers = co.CenterSet(sub)
        assert co.star_violation(cfg, centers) is None
        twice = co.cremona_at(co.cremona_at(cfg, centers), centers)
        assert co.equivalent(twice, cfg)


def test_cremona_raises_with_witness():
    cfg = vertex_config(fifth=(1, 1, 1, 0))
    with pytest.raises(co.StarViolationError) as err:
        co.cremona_at(cfg, co.CenterSet((1, 2, 3, 4)))
    assert err.value.violation.plane == (1, 2, 3)
    assert err.value.violation.point == 5


# ---------------------------------------------------------------------------
# random_config

def test_random_config_deterministic():
    a = co.random_config(7, 50)
    b = co.random_config(7, 50)
    assert a == b


def test_random_config_general_position():
    cfg = co.random_config(5, 12)
    assert co.coplanar_scan(cfg) == ()
    for sub in itertools.combinations(range(1, 9), 4):
        assert co.star_violation(cfg, co.CenterSet(sub)) is None


def test_random_config_height_bound_and_k():
    cfg = co.random_config(9, 6, k=9)
    assert cfg.k == 9
    assert all(abs(v) <= 6 for p in cfg.points for v in p.coords)


def test_random_config_validates_arguments():
    with pytest.raises(ValueError):
        co.random_config(1, 1)
    with pytest.raises(ValueError):
        co.random_config(1, 5, k=7)


def test_random_config_pinned_points():
    # the sampler's random stream fixes configurations recorded elsewhere (the
    # benchmark's seed tables); seed 23 at height 2 rejects a collinear triple
    assert [p.coords for p in co.random_config(23, 2).points] == [
        (0, 1, 1, -1), (0, 1, 1, 2), (1, -2, -1, 2), (1, -2, -2, -2),
        (1, 1, -2, 2), (1, 0, -2, -1), (2, -1, 0, 2), (2, -2, 1, -1),
    ]
    assert [p.coords for p in co.random_config(7, 10).points] == [
        (0, 3, -1, -5), (9, 8, -7, 7), (1, 8, -9, 6), (4, 9, 8, -3),
        (3, -8, -3, -8), (7, 3, -9, 8), (7, 3, -10, -10), (8, -9, 8, 8),
    ]


def test_random_config_small_height_still_succeeds():
    cfg = co.random_config(3, 2)
    assert cfg.k == 8


# ---------------------------------------------------------------------------
# configuration plumbing

def test_configuration_rejects_duplicates_and_small_k():
    with pytest.raises(ValueError):
        cfg_from_rows([E0, E1, E2, E3, ONES, (1, 2, 3, 4), (1, 1, 2, 3), (2, 0, 0, 0)])
    with pytest.raises(ValueError):
        co.Configuration(tuple(co.normalize_point(r) for r in [E0, E1, E2, E3, ONES]))


def test_permute_config_convention():
    cfg = co.random_config(21, 9)
    shifted = co.permute_config(cfg, co.cyclic_shift(8))
    assert shifted.points[:7] == cfg.points[1:]
    assert shifted.points[7] == cfg.points[0]


@pytest.mark.parametrize(
    "perm", [(1, 1, 3, 4, 5, 6, 7, 8), (0, 2, 3, 4, 5, 6, 7, 8), (2, 3, 4, 5, 6, 7, 8, 9),
             (1, 2, 3, 4, 5, 6, 7)],
)
def test_permute_config_rejects_non_permutation(perm):
    with pytest.raises(ValueError, match="not a permutation of 1..8"):
        co.permute_config(co.random_config(21, 9), perm)
