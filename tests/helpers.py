"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import random

import cremona_orbits as co
from cremona_orbits import linalg
from cremona_orbits.lattice import _from_vector, _to_vector


def cfg_from_rows(rows) -> co.Configuration:
    return co.Configuration(tuple(co.normalize_point(tuple(r)) for r in rows))


def rand_invertible_map(rng, bound=9) -> co.ProjectiveMap:
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(4)]
        try:
            return co.ProjectiveMap.from_rows(rows)
        except ValueError:
            continue


def rand_permutation(rng, k) -> tuple[int, ...]:
    perm = list(range(1, k + 1))
    rng.shuffle(perm)
    return tuple(perm)


def rand_divisor(rng, k=8, bound=9) -> co.DivisorClass:
    return co.DivisorClass(
        rng.randint(-bound, bound), tuple(rng.randint(-bound, bound) for _ in range(k))
    )


def special_coplanar_config(seed, height=20) -> co.Configuration:
    """Points 5-8 on the plane X3 = 0; the only coplanar 4-tuple is {5,6,7,8}."""
    rng = random.Random(seed)
    for _attempt in range(200):
        pts = []
        while len(pts) < 8:
            raw = [rng.randint(-height, height) for _ in range(4)]
            if len(pts) >= 4:
                raw[3] = 0
            if tuple(raw) == (0, 0, 0, 0):
                continue
            p = co.normalize_point(tuple(raw))
            if any(p == q for q in pts):
                continue
            pts.append(p)
        cfg = co.Configuration(tuple(pts))
        if co.coplanar_scan(cfg) == ((5, 6, 7, 8),):
            return cfg
    raise RuntimeError("failed to sample a special configuration for seed %d" % seed)


def _signed(y, sigma):
    """Canonical point y with coordinates reordered by sigma: flip to a positive lead."""
    yy = tuple(y[i] for i in sigma)
    return yy if next(v for v in yy if v) > 0 else tuple(-v for v in yy)


def _encode(k, pts) -> bytes:
    return b"%d|" % k + b";".join(b",".join(b"%d" % v for v in p) for p in pts)


def brute_force_canonical(config) -> bytes:
    """Reference canonical form, straight from the definition.

    Normalize by every ordered 5-point frame via the public frame_transform,
    sort the canonical points, keep the least outcome in the order of integer
    point tuples, and serialize it.
    """
    best = None
    for order in itertools.permutations(range(config.k), 5):
        try:
            t = co.frame_transform([config.points[i] for i in order])
        except co.FrameError:
            continue
        pts = sorted(t.apply(p).coords for p in config.points)
        if best is None or pts < best:
            best = pts
    if best is None:
        raise co.NoFrameError("no frame among the test points")
    return _encode(config.k, best)


def brute_force_canonical_bytes(config) -> bytes:
    """The earlier reference: the same candidates, the byte-least serialization kept.

    It picks other winners than ``brute_force_canonical`` but must decide
    equivalence the same way.  For speed it calls frame_transform once per
    5-subset and unit point: reordering the four vertices b_i -> e_i only
    permutes the coordinates of every image.
    """
    best = None
    for frame in itertools.combinations(range(config.k), 5):
        for unit in frame:
            order = [i for i in frame if i != unit] + [unit]
            try:
                t = co.frame_transform([config.points[i] for i in order])
            except co.FrameError:
                continue
            images = [t.apply(p).coords for p in config.points]
            for sigma in itertools.permutations(range(4)):
                blob = _encode(config.k, sorted(_signed(y, sigma) for y in images))
                if best is None or blob < best:
                    best = blob
    if best is None:
        raise co.NoFrameError("no frame among the test points")
    return best


# ---------------------------------------------------------------------------
# earlier lattice algorithms, kept as differential oracles

def _coxeter_step_by_generators(c) -> co.DivisorClass:
    return co.permute_class(co.cremona_pushforward(c, (1, 2, 3, 4)), co.cyclic_shift(c.k))


def distinctness_by_dict(v, N) -> co.DistinctnessReport:
    """The distinctness report from the whole orbit, every class hashed into a dict.

    The orbit steps through the public generators, one validated call each.
    """
    orbit = [v]
    for _ in range(max(N, 2)):
        orbit.append(_coxeter_step_by_generators(orbit[-1]))
    quad = [c - 2 * b + a for a, b, c in zip(*map(_to_vector, orbit[:3]))]
    orbit = orbit[: N + 1]
    seen = {}
    first_collision = None
    for n, c in enumerate(orbit):
        key = (c.d, c.m)
        if key in seen:
            first_collision = (seen[key], n)
            break
        seen[key] = n
    return co.DistinctnessReport(N, v, first_collision, tuple(c.d for c in orbit), any(quad))


def word_fixes_basis(k, word, power) -> bool:
    """True iff (word)^power returns each basis class H, E_1..E_k to itself.

    Letters as in ``lattice._word_is_identity``: 0 is the Cremona move at
    {1,2,3,4}, i >= 1 swaps multiplicities i and i+1; the last letter acts
    first.  By linearity, fixing the basis is the matrix identity.
    """
    def act(c):
        for g in reversed(word * power):
            c = (co.cremona_pushforward(c, (1, 2, 3, 4)) if g == 0
                 else co.DivisorClass(c.d, c.m[:g - 1] + (c.m[g], c.m[g - 1]) + c.m[g + 1:]))
        return c

    return all(_to_vector(act(_from_vector(e))) == e for e in linalg.identity(k + 1))
