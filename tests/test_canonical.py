"""Canonical forms and the equivalence decision."""

import hashlib
import itertools
import math
import random

import pytest

import cremona_orbits as co
from cremona_orbits import canonical
from cremona_orbits.linalg import adjugate4, det4, mat_vec
from helpers import (
    brute_force_canonical,
    brute_force_canonical_bytes,
    cfg_from_rows,
    rand_invertible_map,
    rand_permutation,
    special_coplanar_config,
)

CENTERS = co.CenterSet((1, 2, 3, 4))


def scrambled(cfg, rng):
    """A random relabeling of cfg hit by a random invertible map."""
    return co.transform_config(
        co.permute_config(cfg, rand_permutation(rng, cfg.k)), rand_invertible_map(rng)
    )


def test_matches_brute_force_enumeration():
    # independent route: every ordered frame through the public frame_transform
    for seed in (1, 2):
        cfg = co.random_config(500 + seed, 5)
        assert co.canonical_form(cfg) == brute_force_canonical(cfg)


def test_matches_brute_force_with_coplanar_four_tuple():
    # {5,6,7,8} is coplanar, so the 5-subsets containing it are no frames and
    # some images have zero coordinates
    cfg = special_coplanar_config(3)
    assert co.canonical_form(cfg) == brute_force_canonical(cfg)


def _coplanar_with_last_label(seed):
    """Nine points whose one coplanar 4-tuple is {2, 5, 7, 9}: p9 is on the plane of p2, p5, p7."""
    cfg = co.random_config(seed, 6, k=9)
    p2, p5, p7 = (cfg.point(i).coords for i in (2, 5, 7))
    p9 = co.normalize_point(tuple(a + 2 * b - 3 * c for a, b, c in zip(p2, p5, p7)))
    cfg = co.Configuration(cfg.points[:8] + (p9,))
    assert co.coplanar_scan(cfg) == ((2, 5, 7, 9),)
    return cfg


@pytest.mark.parametrize("make", [
    lambda: co.random_config(510, 5, k=9),
    lambda: co.cremona_at(co.random_config(510, 5, k=9), CENTERS),
    lambda: _coplanar_with_last_label(511),
], ids=["random", "cremona-image", "coplanar-with-label-9"])
def test_matches_brute_force_k9(make):
    # label 9 is never in a reduced base, so every frame holding it comes from
    # a unit swap; with {2,5,7,9} coplanar, some 5-subsets through 9 are no frames
    cfg = make()
    assert cfg.k == 9
    assert co.canonical_form(cfg) == brute_force_canonical(cfg)


@pytest.mark.parametrize("j", range(4))
def test_unit_swap_is_unimodular_involution_of_the_frame(j):
    frame = set(canonical._FRAME_IMAGES)
    basis = [tuple(int(i == c) for i in range(4)) for c in range(4)]
    columns = [canonical._swap_unit(e, j) for e in basis]
    assert det4(columns) in (1, -1)
    for y in basis + [(3, -1, 4, -1), (0, 5, -9, 2)]:
        assert canonical._swap_unit(canonical._swap_unit(y, j), j) == y
    images = {co.normalize_point(canonical._swap_unit(y, j)).coords for y in frame}
    assert images == frame
    unit = (1, 1, 1, 1)
    assert co.normalize_point(canonical._swap_unit(unit, j)).coords == basis[j]
    assert co.normalize_point(canonical._swap_unit(basis[j], j)).coords == unit


def test_verdicts_match_byte_order_oracle():
    # the byte-least serialization picks other winners; verdicts must agree
    rng = random.Random(36)
    a = co.random_config(1500, 6)
    s = special_coplanar_config(4)
    b = co.random_config(1501, 6, k=9)
    c = co.random_config(1502, 6, k=10)
    corpus = [a, scrambled(a, rng), co.cremona_at(a, CENTERS), s, scrambled(s, rng),
              b, scrambled(b, rng), c, co.cremona_at(scrambled(c, rng), CENTERS)]
    new = [co.canonical_form(x) for x in corpus]
    old = [brute_force_canonical_bytes(x) for x in corpus]
    verdicts = set()
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            verdict = new[i] == new[j]
            assert verdict == (old[i] == old[j]), (i, j)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_invariant_on_a_tall_iterate():
    # twelve Cremona-then-shift steps: coordinates of several thousand bits
    word = co.CremonaWord(co.CremonaWord.coxeter_step(8).moves * 12)
    tall, _ = co.apply_word(co.random_config(1600, 5), word)
    assert max(abs(v).bit_length() for p in tall.points for v in p.coords) > 1500
    rng = random.Random(37)
    assert co.canonical_form(scrambled(tall, rng)) == co.canonical_form(tall)


def test_invariant_under_permutation_and_projective_maps():
    rng = random.Random(31)
    for seed in range(5):
        cfg = co.random_config(600 + seed, 8)
        assert co.canonical_form(scrambled(cfg, rng)) == co.canonical_form(cfg)


def test_deterministic_across_calls():
    cfg = cfg_from_rows(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
         (1, 1, 1, 1), (1, 1, 1, 2), (1, 2, 4, 8), (3, 2, 1, 5)]
    )
    assert co.canonical_form(cfg) == co.canonical_form(cfg)


def test_inequivalent_configurations_get_different_forms():
    for seed in range(5):
        a = co.random_config(700 + seed, 9)
        b = co.random_config(800 + seed, 9)
        assert co.canonical_form(a) != co.canonical_form(b)
        assert not co.equivalent(a, b)


def test_moving_one_point_breaks_equivalence():
    rng = random.Random(32)
    cfg = co.random_config(900, 9)
    while True:
        cand = co.normalize_point(tuple(rng.randint(-9, 9) for _ in range(4)))
        if all(cand != p for p in cfg.points):
            break
    moved = co.Configuration(cfg.points[:7] + (cand,))
    assert not co.equivalent(cfg, moved)


def test_equivalent_by_construction():
    rng = random.Random(33)
    for seed in range(5):
        cfg = co.random_config(1000 + seed, 8)
        assert co.equivalent(cfg, scrambled(cfg, rng))


def test_equivalence_is_transitive_on_a_chain():
    rng = random.Random(34)
    a = co.random_config(1100, 8)
    b = scrambled(a, rng)
    c = scrambled(b, rng)
    assert co.equivalent(a, b) and co.equivalent(b, c) and co.equivalent(a, c)


def test_equivalence_iff_canonical_forms_agree():
    rng = random.Random(35)
    a = co.random_config(1200, 8)
    pairs = [(a, scrambled(a, rng)), (a, co.random_config(1300, 8))]
    for x, y in pairs:
        assert co.equivalent(x, y) == (co.canonical_form(x) == co.canonical_form(y))


def test_different_k_is_inequivalent():
    assert not co.equivalent(co.random_config(1, 6, k=8), co.random_config(1, 6, k=9))


def test_no_frame_error():
    planar = cfg_from_rows(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0),
         (1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0), (1, 2, 3, 0)]
    )
    with pytest.raises(co.NoFrameError):
        co.canonical_form(planar)
    with pytest.raises(co.NoFrameError):
        co.equivalent(planar, planar)


def test_form_is_ascii_and_starts_with_k():
    cfg = co.random_config(1400, 7)
    form = co.canonical_form(cfg)
    assert form.startswith(b"8|")
    form.decode("ascii")


# the 40 canonical points with coordinates in {-1, 0, 1}: random picks of 8-10
# of them are full of coplanar 4-tuples and zero image coordinates
_SMALL_POINTS = sorted(
    {co.normalize_point(p).coords for p in itertools.product((-1, 0, 1), repeat=4) if any(p)}
)


def _small_config(rng, k):
    return cfg_from_rows(rng.sample(_SMALL_POINTS, k))


def test_cramer_matches_adjugate():
    # the signed 5-subset rule against the adjugate itself, up to sign
    rng = random.Random(38)
    cfgs = [co.random_config(1700, 6, k=k) for k in (8, 9, 10)]
    cfgs += [_small_config(rng, k) for k in (8, 9, 10) for _ in range(3)]
    checked = 0
    for cfg in cfgs:
        br = co.brackets(cfg)
        for base in itertools.combinations(range(1, cfg.k + 1), 4):
            if br[base] == 0:
                continue
            adj = adjugate4(
                [[cfg.point(b).coords[i] for b in base] for i in range(4)]
            )
            for t in range(1, cfg.k + 1):
                if t in base:
                    continue
                w = mat_vec(adj, cfg.point(t).coords)
                g = math.gcd(*w)
                w = tuple(v // g for v in w)
                assert co.projective.cramer(br, base, t) in (w, tuple(-v for v in w))
                checked += 1
    assert checked > 1000


def test_canonical_forms_of_a_corpus_are_pinned():
    # sha256 of the forms, measured before the candidate loop was rewritten
    rng = random.Random(39)
    cfgs = [co.random_config(1800 + k, 6, k=k) for k in (9, 10)]
    cfgs += [co.cremona_at(c, CENTERS) for c in cfgs]
    cfgs += [special_coplanar_config(s) for s in (5, 6)]
    cfgs += [co.cremona_at(c, co.CenterSet((1, 2, 3, 5))) for c in cfgs[-2:]]
    cfgs += [_small_config(rng, k) for k in (8, 9, 10) for _ in range(4)]
    blob = b"\n".join(co.canonical_form(c) for c in cfgs)
    assert hashlib.sha256(blob).hexdigest() == (
        "73052cb96e4f0a495ee077a0c857faf5679ddcec57f7c459755113b837693f9d")
