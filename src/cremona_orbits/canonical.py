"""Configuration invariants under PGL(4) x permutation.

``canonical_form`` normalizes the configuration by every ordered 5-point
frame (send it to e0, e1, e2, e3, (1:1:1:1)) and sorts the resulting
canonical points; of these candidates it keeps the least in the order of
integer point tuples and writes it as ``k|x0,x1,x2,x3;...`` in decimal.  Two
configurations are equivalent iff their canonical forms agree.
``normalized_at`` gives the same configuration in the frame of one base and
unit point of its own, read from the brackets around that base.
"""

from __future__ import annotations

import itertools
import math
import operator

from .digits import int_to_decimal
from .errors import NoFrameError
from .projective import _VERTICES, Configuration, ProjectivePoint, brackets, cramer

# the 24 orders of the four frame vertices as coordinate getters, grouped by
# the coordinate they put first
_ORDERS_BY_LEAD = tuple(
    tuple(operator.itemgetter(*s) for s in itertools.permutations(range(4)) if s[0] == lead)
    for lead in range(4)
)

# images of the frame points themselves, shared by every candidate
_FRAME_IMAGES = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1))


def serialize_points(k, pts) -> bytes:
    """Byte encoding of a point list: ``k|x0,x1,x2,x3;...`` in decimal."""
    text = "%d|" % k + ";".join(",".join(int_to_decimal(v) for v in p) for p in pts)
    return text.encode("ascii")


def _quotient(w, c):
    """Primitive integer representative of the point (w0/c0 : .. : w3/c3)."""
    nums = []
    dens = []
    for wi, ci in zip(w, c):
        g = math.gcd(wi, ci)
        nums.append(wi // g)
        dens.append(ci // g)
    lcm = math.lcm(*dens)
    y = [n * (lcm // d) for n, d in zip(nums, dens)]
    g = math.gcd(*y)
    return tuple(v // g for v in y)


def _oriented(p):
    """p or -p, whichever has a positive first nonzero entry."""
    return p if p > (0, 0, 0, 0) else tuple(-v for v in p)


def _swap_unit(y, j):
    """M_j y, where M_j trades the frame vertex e_j with the unit point.

    (M_j y)_i = y_i - y_j for i != j and (M_j y)_j = -y_j.  M_j fixes e_i for
    i != j, sends e_j to -(1:1:1:1) and (1:1:1:1) to -e_j; it is an integer
    involution of determinant -1.
    """
    yj = y[j]
    z = [v - yj for v in y]
    z[j] = -yj
    return tuple(z)


def canonical_form(config: Configuration) -> bytes:
    """Deterministic byte-string invariant under point permutation and PGL(4).

    Candidates.  An ordered frame (b0, b1, b2, b3, u) of the configuration
    has a unique normalizing map T sending b_i to e_i and u to (1:1:1:1); the
    candidate is the sorted tuple of the canonical representatives of
    T(p_1), .., T(p_k).  For g in PGL(4) and a relabeling pi, the frames of
    g.pi(P) are exactly the images of the frames of P, and the normalizing map
    of the image frame is T g^{-1}, so it produces the same sorted tuple.  The
    multiset of candidates is therefore invariant under PGL(4) x S_k, and so is
    its minimum under any fixed total order; here that order compares sorted
    point tuples as integer tuples.  Conversely, equal minima come from frames
    F of P and F' of Q with T_F(P) = T_F'(Q) as point sets, so T_F'^{-1} T_F
    carries P onto Q up to relabeling.

    Brackets.  With A the matrix of columns p_b0, .., p_b3, T(p_t) is the
    point (w_i / c_i) for w = adj(A) p_t, c = adj(A) p_u, both read from the
    bracket table by ``cramer`` (``projective``) up to a common sign and a
    positive scale.  A sign common to w or to c only negates T(p_t), and
    neither the unit swap nor the prune below sees the sign, which is fixed
    last.  The coordinates of c are the brackets of the four 4-subsets of
    base + u other than the base, so base + u is a frame iff the base bracket
    and every c_i are nonzero.
    Reordering the four vertices only permutes the coordinates of every
    image, so each unordered 5-subset and choice of u yields one image set
    and 24 coordinate orders.

    Unit points.  Each frame S is reduced once, with u its largest label, so
    no base containing label k is used.  For the frame with b_j as unit point
    and u as vertex j, the normalizing map is M_j T: M_j (``_swap_unit``)
    fixes e_i for i != j and swaps e_j with (1:1:1:1) up to sign, so M_j T
    sends this ordered frame to the standard one, and a projective map is
    fixed by the images of a frame.  M_j is an integer matrix of determinant
    -1, so a primitive image stays primitive and only its sign is left to
    fix.  The five unit points of S thus give exactly the candidates of every
    (base, u) with base + u = S.

    Selection.  The five frame images are in every candidate and differ from
    every other image, so comparing candidates is comparing the sorted images
    of the k - 5 remaining points.  A vertex order sigma turns an image set
    into a candidate: each image is read in the order sigma, oriented
    (``_oriented``: a tuple exceeds zero iff its first nonzero entry is
    positive), and the results are sorted.  The first coordinate of the least
    of them is min_t |T(p_t)_{sigma_0}|; one bound per image set and leading
    coordinate prunes the six orders whose lead already exceeds the best.
    Only the winner is encoded.
    """
    return bracket_form(config.k, brackets(config))


def bracket_form(k: int, br) -> bytes:
    """``canonical_form`` of a k-point configuration, from its bracket table ``br``."""
    labels = range(1, k + 1)
    best = None
    for base in itertools.combinations(range(1, k), 4):
        if br[base] == 0:
            continue
        others = [t for t in labels if t not in base]
        vecs = {t: cramer(br, base, t) for t in others}
        for u in range(base[3] + 1, k + 1):
            if not all(vecs[u]):
                continue  # base + u is no frame: u lies on a plane of three base points
            reduced = [_quotient(vecs[t], vecs[u]) for t in others if t != u]
            for ys in (reduced, *([_swap_unit(y, j) for y in reduced] for j in range(4))):
                lows = [min(map(abs, col)) for col in zip(*ys)]
                for lead, orders in enumerate(_ORDERS_BY_LEAD):
                    if best is not None and lows[lead] > best[0][0]:
                        continue
                    for order in orders:
                        cand = sorted([_oriented(order(y)) for y in ys])
                        if best is None or cand < best:
                            best = cand
    if best is None:
        raise NoFrameError("no 5 points of the configuration form a projective frame")
    return serialize_points(k, sorted(_FRAME_IMAGES + tuple(best)))


def normalized_at(config: Configuration, br, base) -> Configuration | None:
    """``config`` moved by the map sending ``base`` to e0..e3 and a unit point to (1:1:1:1).

    ``br`` holds the brackets of the sorted labels ``base`` plus one point,
    such as ``projective._lone_brackets`` returns.  The unit point u is the
    label outside the base whose images are shortest in total bit length,
    ties going to the lower label; every other point p_t becomes
    (w_i / c_i) for w, c the Cramer vectors of t and u, as in
    ``canonical_form``.  None if base + u is a frame for no u.  The copy is
    PGL(4)-equivalent to ``config`` with the same labels, so it has the same
    canonical form and the same zero brackets, and its heights do not depend
    on the frame the configuration is written in.
    """
    if br[base] == 0:
        return None
    others = [t for t in range(1, config.k + 1) if t not in base]
    vecs = {t: cramer(br, base, t) for t in others}
    best = None
    for u in others:
        if not all(vecs[u]):
            continue  # u lies on a plane of three base points
        images = {t: _oriented(_quotient(vecs[t], vecs[u])) for t in others if t != u}
        size = sum(abs(v).bit_length() for y in images.values() for v in y)
        if best is None or size < best[0]:
            best = size, u, images
    if best is None:
        return None
    _, u, images = best
    points = dict(zip(base, _VERTICES))
    points[u] = ProjectivePoint((1, 1, 1, 1))
    points.update((t, ProjectivePoint(y)) for t, y in images.items())
    return Configuration(tuple(points[t] for t in range(1, config.k + 1)))


def equivalent(a: Configuration, b: Configuration) -> bool:
    """True iff some relabeling plus a projective map carries b onto a."""
    if a.k != b.k:
        return False
    return canonical_form(a) == canonical_form(b)
