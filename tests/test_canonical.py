"""Canonical forms and the equivalence decision."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

import cremona_orbits as co
from cremona_orbits import canonical
from cremona_orbits.linalg import adjugate4, det4, mat_vec
from helpers import (
    brute_force_canonical,
    brute_force_canonical_bytes,
    cfg_from_rows,
    coxeter_chain,
    moved,
    rand_invertible_map,
    rand_permutation,
    small_config,
    special_coplanar_config,
    unpruned_form,
)

CENTERS = co.CenterSet((1, 2, 3, 4))


def scrambled(cfg, rng):
    """A random relabeling of cfg hit by a random invertible map."""
    return moved(co.permute_config(cfg, rand_permutation(rng, cfg.k)), rand_invertible_map(rng))


def test_matches_brute_force_enumeration():
    # independent route: every ordered frame through helpers.frame_matrix
    for seed in (1, 2):
        cfg = co.random_config(500 + seed, 5)
        assert co.canonical_form(cfg) == brute_force_canonical(cfg)


def test_matches_brute_force_with_coplanar_four_tuple():
    # {5,6,7,8} is coplanar, so the 5-subsets containing it are no frames and
    # some images have zero coordinates
    cfg = special_coplanar_config(3)
    assert co.canonical_form(cfg) == brute_force_canonical(cfg)


def test_brute_force_oracles_share_no_rule_with_the_form(monkeypatch):
    # the references reach every frame through helpers.frame_matrix, so they
    # must run with the form's Cramer rule and image sets out of action
    cfg = special_coplanar_config(3)
    form = co.canonical_form(cfg)
    image = scrambled(cfg, random.Random(5))

    def broken(*args):
        raise AssertionError("the oracle reached the rule it checks")

    for module, name in ((co.projective, "cramer"), (canonical, "cramer"),
                         (canonical, "_scan")):
        monkeypatch.setattr(module, name, broken)
    assert brute_force_canonical(cfg) == form
    assert brute_force_canonical_bytes(cfg) == brute_force_canonical_bytes(image)


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
    # _swap_unit maps a whole image set at once, in order
    frame = {p.coords for p in co.projective._FRAME}
    basis = [tuple(int(i == c) for i in range(4)) for c in range(4)]
    columns = canonical._swap_unit(basis, j)
    assert det4(columns) in (1, -1)
    ys = basis + [(3, -1, 4, -1), (0, 5, -9, 2)]
    assert canonical._swap_unit(canonical._swap_unit(ys, j), j) == ys
    images = {co.normalize_point(y).coords for y in canonical._swap_unit(list(frame), j)}
    assert images == frame
    unit = (1, 1, 1, 1)
    assert [co.normalize_point(y).coords for y in canonical._swap_unit([unit, basis[j]], j)] == [
        basis[j], unit]


def _frames(cfg):
    """(ws, c) for every frame base + u of cfg: the Cramer vectors of the other points and of u."""
    br = co.projective.BracketTable(cfg)
    for base in itertools.combinations(range(1, cfg.k + 1), 4):
        if br[base] == 0:
            continue
        others = [t for t in range(1, cfg.k + 1) if t not in base]
        vecs = dict(zip(others, co.projective.cramer(br, base)))
        for u, c in vecs.items():
            if all(c):
                yield [w for t, w in vecs.items() if t != u], c


def test_frame_reduction_matches_exact_fractions():
    # steps 12 and 17 of random_config(7, 10), as the stored-point chain gives
    # them (each move in the Cremona frame of the last), cancel thousands of
    # bits per coordinate; in the special configuration the brackets through
    # {5,6,7,8} give zero coordinates
    step12 = coxeter_chain(co.random_config(7, 10), 12)
    step17 = coxeter_chain(step12, 5)
    cancelled = zeros = 0
    for cfg in (step12, step17, special_coplanar_config(3)):
        for ws, c in _frames(cfg):
            _, images = canonical._reduce(ws, c)
            assert len(images) == len(ws) == cfg.k - 5
            for w, y in zip(ws, images):
                want = co.normalize_point(tuple(Fraction(a, b) for a, b in zip(w, c)))
                assert canonical._oriented(y) == want.coords
                cancelled = max(cancelled, *(math.gcd(a, b).bit_length() for a, b in zip(w, c)))
                zeros += w.count(0)
    assert cancelled > 5000 and zeros > 0


def _selection_corpus(k):
    rng = random.Random(40 + k)
    cfgs = [co.random_config(2000 + k, 6, k=k), co.random_config(2100 + k, 3, k=k)]
    cfgs += [co.cremona_at(c, CENTERS) for c in cfgs]
    cfgs.append(small_config(rng, k))
    if k == 8:
        cfgs += [special_coplanar_config(3), co.cremona_at(special_coplanar_config(4), CENTERS)]
    return cfgs


@pytest.mark.parametrize("k", (8, 9, 10))
def test_selection_matches_unpruned_oracle(k):
    # every image set read in all 24 orders: the prunes must not lose the winner.
    # At k = 8 two more inputs have no frame at base 1234 ([1234] = 0, and no
    # unit point for 1234), so the search starts from a later base
    cfgs = _selection_corpus(k)
    if k == 8:
        late = [_on_planes(2203, {4: (1, 2, 3)}),
                _on_planes(2204, {5: (1, 2, 3), 6: (1, 2, 4), 7: (1, 3, 4), 8: (2, 3, 4)})]
        for cfg in late:
            assert not list(canonical._frames(co.projective.BracketTable(cfg), CENTERS.indices))
        cfgs += late
    for cfg in cfgs:
        assert co.canonical_form(cfg) == unpruned_form(cfg)


@pytest.mark.parametrize("k", (8, 9, 10))
def test_frame_bound_is_the_least_coordinate_of_the_unit_choices(k):
    # the bound each scan item carries, on every frame of the corpus, against
    # the least |coordinate| of its five unit choices, all built; the small
    # and coplanar inputs have zero coordinates
    zeros = 0
    for cfg in _selection_corpus(k):
        for bound, reduced in canonical._scan(co.projective.BracketTable(cfg)):
            sets = [reduced] + [canonical._swap_unit(reduced, j) for j in range(4)]
            want = min(abs(v) for ys in sets for y in ys for v in y)
            assert bound == want
            zeros += want == 0
    assert zeros > 0


@pytest.mark.parametrize("make", [
    lambda: co.random_config(7, 10),
    lambda: special_coplanar_config(3),
    lambda: small_config(random.Random(2), 10),  # 124 of its 126 image sets tie at bound 0
], ids=["random", "coplanar", "small-k10"])
def test_form_expands_exactly_the_least_bound_image_sets(make, monkeypatch):
    # the lemma of canonical_form: the winner's lead is the least bound, so
    # bracket_form expands the image sets whose bound equals it, and no other
    cfg = make()
    items = list(canonical._scan(co.projective.BracketTable(cfg)))
    least = min(bound for bound, _ in items)
    want = [ys for bound, ys in items if bound == least]
    oracle = unpruned_form(cfg)
    expanded = []
    real = canonical._unit_choices

    def recorded(ys):
        expanded.append(ys)
        return real(ys)

    monkeypatch.setattr(canonical, "_unit_choices", recorded)
    assert co.canonical_form(cfg) == oracle
    assert expanded == want and len(want) < len(items)


def test_frame_bound_skips_most_unit_swaps(monkeypatch):
    # 4 of the 56 x 4 unit swaps of this form are built, as one image set
    # alone has the least bound; a change that disables the bound builds all 224
    calls = []
    real = canonical._swap_unit

    def counted(ys, j):
        calls.append(j)
        return real(ys, j)

    monkeypatch.setattr(canonical, "_swap_unit", counted)
    co.canonical_form(co.random_config(7, 10))
    assert len(calls) == 4


def _on_planes(seed, planes):
    """random_config(seed, 6) with each point t moved onto the plane of the labels planes[t]."""
    rng = random.Random(seed)
    pts = [p.coords for p in co.random_config(seed, 6).points]
    for t, plane in planes.items():
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in plane]
        pts[t - 1] = tuple(sum(a * pts[i - 1][j] for a, i in zip(coeffs, plane)) for j in range(4))
    return cfg_from_rows(pts)


@pytest.mark.parametrize("make, lone", [
    (lambda: co.random_config(2200, 10), True),
    (lambda: co.random_config(2201, 10, k=9), True),
    (lambda: co.random_config(2202, 10, k=10), True),
    (lambda: special_coplanar_config(3), True),
    (lambda: _on_planes(2203, {4: (1, 2, 3)}), False),
    (lambda: _on_planes(2204, {5: (1, 2, 3), 6: (1, 2, 4), 7: (1, 3, 4), 8: (2, 3, 4)}), False),
], ids=["k8", "k9", "k10", "special", "1234-coplanar", "no-unit-for-1234"])
def test_equivalence_target_from_the_brackets_around_1234(make, lone, monkeypatch):
    # the target is the first image set of the full table, read from a table
    # filled on demand; with a frame 1234 + u it reads the 1 + 4(k - 4)
    # brackets around 1234 alone.  a's table is built first, then b's
    a = make()
    tables = []

    class Recorded(co.projective.BracketTable):
        __slots__ = ()

        def __init__(self, config):
            super().__init__(config)
            tables.append(self)

    monkeypatch.setattr(canonical, "BracketTable", Recorded)
    assert co.equivalent(a, a)
    read = tables[0]
    near = {sub for t in CENTERS.complement(a.k)
            for sub in itertools.combinations(sorted((*CENTERS.indices, t)), 4)}
    assert len(near) == 1 + 4 * (a.k - 4)
    assert (set(read) == near) == lone
    full = co.projective.BracketTable(a)
    for sub in itertools.combinations(range(1, a.k + 1), 4):
        full[sub]  # a miss: the table computes it
    want = next(canonical._scan(full))
    assert next(canonical._scan(co.projective.BracketTable(a))) == want


def test_equivalence_target_with_1234_coplanar_counts_det4(monkeypatch):
    a = _on_planes(2203, {4: (1, 2, 3)})
    calls = {"det4": 0}
    real = co.projective.det4

    def counted(*args):
        calls["det4"] += 1
        return real(*args)

    monkeypatch.setattr(co.projective, "det4", counted)
    assert co.equivalent(a, a)
    # the target: [1234] = 0, then [1235] and the 16 brackets of 1235 plus
    # one point, [1234] among them; the second argument's scan matches at
    # its first image set, so it reads the same 17
    assert calls["det4"] == 17 + 17


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
    tall = coxeter_chain(co.random_config(1600, 5), 12)
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


# eight points on the plane X3 = 0: no 4-subset spans P^3, so there is no frame
_PLANAR = cfg_from_rows(
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0),
     (1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0), (1, 2, 3, 0)]
)

# the standard frame and the three points (1:+-1:+-1:+-1) with two minus signs:
# every permutation of the coordinates maps the set onto itself, and so does the
# standard Cremona move at {1, 2, 3, 4}
_SYMMETRIC = cfg_from_rows(
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
     (1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)]
)

# the 272 canonical points with coordinates in -2..2: random picks are full of
# coplanar 4-tuples
_TINY_POINTS = sorted(
    {co.normalize_point(p).coords for p in itertools.product(range(-2, 3), repeat=4) if any(p)}
)


def _equivalence_corpus():
    """Seeded pairs of configurations with the same k, equivalent or not, some frameless."""
    rng = random.Random(35)
    pairs = []
    for k in (8, 9, 10, 11):
        for height in (10, 3):
            g = co.random_config(1200 + 10 * k + height, height, k)
            pairs += [(g, scrambled(g, rng)), (scrambled(g, rng), scrambled(g, rng)),
                      (g, scrambled(co.cremona_at(g, CENTERS), rng)),
                      (g, co.random_config(1300 + 10 * k + height, height, k))]
    for k in (8, 9, 10):
        t = cfg_from_rows(rng.sample(_TINY_POINTS, k))
        pairs += [(t, scrambled(t, rng)), (t, cfg_from_rows(rng.sample(_TINY_POINTS, k)))]
    for seed in (4, 5):
        s = special_coplanar_config(seed)
        pairs += [(s, scrambled(s, rng)), (s, scrambled(co.cremona_at(s, CENTERS), rng)),
                  (s, special_coplanar_config(seed + 2))]
    moved = cfg_from_rows([p.coords for p in _SYMMETRIC.points[:7]] + [(1, -1, -1, 2)])
    pairs += [(_SYMMETRIC, scrambled(_SYMMETRIC, rng)),
              (_SYMMETRIC, scrambled(co.cremona_at(_SYMMETRIC, CENTERS), rng)),
              (_SYMMETRIC, moved)]
    g = co.random_config(1400, 8)
    twice = co.cremona_at(co.cremona_at(g, CENTERS), co.CenterSet((5, 6, 7, 8)))
    pairs += [(g, twice), (twice, scrambled(twice, rng))]
    pairs += [(g, _PLANAR), (_PLANAR, _PLANAR)]
    return pairs


def _verdict(decide, x, y):
    try:
        return decide(x, y)
    except co.NoFrameError as e:
        return "NoFrameError: %s" % e


def test_equivalence_iff_canonical_forms_agree():
    # the forms are the oracle; each pair is asked in both orders
    forms = {}

    def by_forms(x, y):
        for c in (x, y):
            if id(c) not in forms:
                forms[id(c)] = co.canonical_form(c)
        return forms[id(x)] == forms[id(y)]

    corpus = _equivalence_corpus()
    verdicts = []
    for x, y in corpus:
        for p, q in ((x, y), (y, x)):
            want = _verdict(by_forms, p, q)
            assert _verdict(co.equivalent, p, q) == want, (corpus.index((x, y)), p is y)
            verdicts.append(want)
    assert (verdicts.count(True), verdicts.count(False)) == (48, 50)
    assert verdicts.count("NoFrameError: " + canonical._NO_FRAME) == 4


def test_equivalent_builds_no_canonical_form(monkeypatch):
    rng = random.Random(39)
    a = co.random_config(1900, 10, k=9)
    positive, negative = scrambled(a, rng), scrambled(co.cremona_at(a, CENTERS), rng)

    def refuse(*args):
        raise AssertionError("equivalent built a full canonical form")

    monkeypatch.setattr(canonical, "bracket_form", refuse)
    monkeypatch.setattr(canonical, "canonical_form", refuse)
    assert co.equivalent(a, positive)
    assert not co.equivalent(a, negative)


def test_different_k_is_inequivalent():
    assert not co.equivalent(co.random_config(1, 6, k=8), co.random_config(1, 6, k=9))


def test_no_frame_error():
    framed = co.random_config(1800, 8)
    with pytest.raises(co.NoFrameError):
        co.canonical_form(_PLANAR)
    for a, b in ((_PLANAR, _PLANAR), (framed, _PLANAR), (_PLANAR, framed)):
        with pytest.raises(co.NoFrameError):
            co.equivalent(a, b)


def test_form_is_ascii_and_starts_with_k():
    cfg = co.random_config(1400, 7)
    form = co.canonical_form(cfg)
    assert form.startswith(b"8|")
    form.decode("ascii")


def test_cramer_matches_adjugate():
    # the signed 5-subset rule against the adjugate itself, up to sign, for
    # every base and every point outside it; k = 13 has 715 bases
    rng = random.Random(38)
    cfgs = [co.random_config(1700, 6, k=k) for k in (8, 9, 10, 13)]
    cfgs += [small_config(rng, k) for k in (8, 9, 10) for _ in range(3)]
    checked = 0
    for cfg in cfgs:
        br = co.projective.BracketTable(cfg)
        for base in itertools.combinations(range(1, cfg.k + 1), 4):
            if br[base] == 0:
                continue
            adj = adjugate4(
                [[cfg.point(b).coords[i] for b in base] for i in range(4)]
            )
            others = [t for t in range(1, cfg.k + 1) if t not in base]
            vecs = co.projective.cramer(br, base)
            assert len(vecs) == len(others)
            for t, v in zip(others, vecs):
                w = mat_vec(adj, cfg.point(t).coords)
                g = math.gcd(*w)
                w = tuple(x // g for x in w)
                assert v in (w, tuple(-x for x in w))
                checked += 1
    assert checked > 1000


def test_canonical_forms_of_a_corpus_are_pinned():
    # sha256 of the forms, measured before the candidate loop was rewritten
    rng = random.Random(39)
    cfgs = [co.random_config(1800 + k, 6, k=k) for k in (9, 10)]
    cfgs += [co.cremona_at(c, CENTERS) for c in cfgs]
    cfgs += [special_coplanar_config(s) for s in (5, 6)]
    cfgs += [co.cremona_at(c, co.CenterSet((1, 2, 3, 5))) for c in cfgs[-2:]]
    cfgs += [small_config(rng, k) for k in (8, 9, 10) for _ in range(4)]
    blob = b"\n".join(co.canonical_form(c) for c in cfgs)
    assert hashlib.sha256(blob).hexdigest() == (
        "73052cb96e4f0a495ee077a0c857faf5679ddcec57f7c459755113b837693f9d")
