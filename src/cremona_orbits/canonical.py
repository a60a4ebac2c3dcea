"""Configuration invariants under PGL(4) x permutation.

``canonical_form`` normalizes the configuration by every ordered 5-point
frame (send it to e0, e1, e2, e3, (1:1:1:1)) and sorts the resulting
canonical points; of these candidates it keeps the least in the order of
integer point tuples and writes it as ``k|x0,x1,x2,x3;...`` in decimal.  Two
configurations are equivalent iff their canonical forms agree; ``equivalent``
decides this without building either form, by looking for one candidate of
the first configuration among the candidates of the second.
``normalized_at`` gives the same configuration in the frame of one base and
unit point of its own, read from the brackets around that base.
"""

from __future__ import annotations

import itertools
import math
import operator

from .digits import int_to_decimal
from .errors import NoFrameError
from .projective import (
    _VERTICES,
    BracketTable,
    Configuration,
    ProjectivePoint,
    _oriented,
    cramer,
)

# the 24 orders of the four frame vertices as coordinate getters, grouped by
# the coordinate they put first
_ORDERS_BY_LEAD = tuple(
    tuple(operator.itemgetter(*s) for s in itertools.permutations(range(4)) if s[0] == lead)
    for lead in range(4)
)

# the same 24 getters in one tuple
_ORDERS = tuple(itertools.chain.from_iterable(_ORDERS_BY_LEAD))

# images of the frame points themselves, shared by every candidate
_FRAME_IMAGES = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1))

_NO_FRAME = "no 5 points of the configuration form a projective frame"


def serialize_points(k, pts) -> bytes:
    """Byte encoding of a point list: ``k|x0,x1,x2,x3;...`` in decimal."""
    text = "%d|" % k + ";".join(",".join(int_to_decimal(v) for v in p) for p in pts)
    return text.encode("ascii")


def _reduce(ws, c):
    """The primitive integer points (w0/c0 : .. : w3/c3), one for each primitive w in ``ws``.

    c is the Cramer vector of the unit point, w those of the other points.
    Each coordinate is cancelled on its own, w_i/c_i = n_i/d_i with
    g_i = gcd(w_i, c_i), and the point is n_i * (m / d_i) for m the lcm of
    the d_i.  That is already primitive: a prime dividing m misses the
    coordinate whose d_i holds its full power in m, and any other common
    prime divides every n_i, hence every w_i, and w is primitive.  No c_i
    may be zero.
    """
    c0, c1, c2, c3 = c
    gcd = math.gcd
    out = []
    for w0, w1, w2, w3 in ws:
        g0, g1, g2, g3 = gcd(w0, c0), gcd(w1, c1), gcd(w2, c2), gcd(w3, c3)
        d0, d1, d2, d3 = c0 // g0, c1 // g1, c2 // g2, c3 // g3
        m = math.lcm(d0, d1, d2, d3)
        out.append((w0 // g0 * (m // d0), w1 // g1 * (m // d1),
                    w2 // g2 * (m // d2), w3 // g3 * (m // d3)))
    return out


def _swap_unit(ys, j):
    """M_j y for each image y in ``ys``, where M_j trades the frame vertex e_j with the unit point.

    (M_j y)_i = y_i - y_j for i != j and (M_j y)_j = -y_j.  M_j fixes e_i for
    i != j, sends e_j to -(1:1:1:1) and (1:1:1:1) to -e_j; it is an integer
    involution of determinant -1.
    """
    if j == 0:
        return [(-a, b - a, c - a, d - a) for a, b, c, d in ys]
    if j == 1:
        return [(a - b, -b, c - b, d - b) for a, b, c, d in ys]
    if j == 2:
        return [(a - c, b - c, -c, d - c) for a, b, c, d in ys]
    return [(a - d, b - d, c - d, -d) for a, b, c, d in ys]


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

    Unit points.  Each 5-subset S is reduced in one frame only, with u its
    largest label, so no base containing label k is used.  For the frame
    with b_j as unit point and u as vertex j, the normalizing map is M_j T:
    M_j (``_swap_unit``) fixes e_i for i != j and swaps e_j with (1:1:1:1)
    up to sign, so M_j T sends this ordered frame to the standard one, and a
    projective map is fixed by the images of a frame.  M_j is an integer
    matrix of determinant -1, so a primitive image stays primitive and only
    its sign is left to fix.  The five unit points of S thus give exactly the
    candidates of every (base, u) with base + u = S.

    Kernel.  Per base, ``cramer`` gives the vector of each other point once,
    its four signed brackets looked up by label.  Per frame, ``_reduce``
    turns all k - 5 vectors into images in one call, cancelling each
    coordinate w_i / c_i by gcd(w_i, c_i) and scaling by the lcm of the
    reduced denominators, so the images come out primitive with no further
    gcd; cancelling per coordinate keeps the products short on tall
    configurations, where gcd(w_i, c_i) is large.  ``_swap_unit`` applies
    M_j to a whole image set in one comprehension.

    Cost.  C(k, 5) five-subsets times 5 unit points give 280, 630 and 1260
    image sets of k - 5 images at k = 8, 9 and 10.  The two bounds below drop
    most 5-subsets before any unit swap is built (16 of the 224 swaps are
    built for ``random_config(7, 10)``) and all but a few image sets before
    any vertex order is sorted.

    Selection.  The five frame images are in every candidate and differ from
    every other image, so comparing candidates is comparing the sorted images
    of the k - 5 remaining points.  A vertex order sigma turns an image set
    into a candidate: each image is read in the order sigma, oriented
    (``_oriented``: a tuple exceeds zero iff its first nonzero entry is
    positive), and the results are sorted.  The search starts from the first
    candidate, the first image set read in the given vertex order
    (``_scan``).  The first coordinate of the least image is
    min_t |T(p_t)_{sigma_0}|, so two lower bounds on it prune, each against
    the lead of the best so far.  Per 5-subset, ``_frame_low`` is the least
    |coordinate| over its five unit choices: M_j turns the coordinates y_i
    of an image into y_i - y_j and -y_j, so it is the least of |y_i| and
    |y_i - y_j| over the one reduced image set, and a 5-subset whose bound
    exceeds the best lead is skipped before any unit swap is built.  Per
    image set and leading coordinate, the six orders are skipped when the
    least |coordinate| in that position exceeds the best lead, so an image
    set whose every |coordinate| exceeds it sorts no order.  Only the winner
    is encoded.
    """
    return bracket_form(BracketTable(config))


def bracket_form(br: BracketTable) -> bytes:
    """``canonical_form`` of a configuration, from its bracket table ``br``."""
    best, frames = _scan(br)
    for reduced in frames:
        if _frame_low(reduced) > best[0][0]:
            continue  # every lead of the five unit choices exceeds the best
        for ys in _unit_choices(reduced):
            lows = [min(map(abs, col)) for col in zip(*ys)]
            for lead, orders in enumerate(_ORDERS_BY_LEAD):
                if lows[lead] > best[0][0]:
                    continue
                for order in orders:
                    cand = sorted([_oriented(order(y)) for y in ys])
                    if cand < best:
                        best = cand
    return serialize_points(br.k, sorted(_FRAME_IMAGES + tuple(best)))


def _scan(br: BracketTable):
    """The first candidate of ``br``, and every reduced image set (``_reduced_frames``).

    The candidate is the first image set read in the given vertex order; the
    image sets start with that one.  NoFrameError if there is none.
    """
    frames = _reduced_frames(br)
    first = next(frames, None)
    if first is None:
        raise NoFrameError(_NO_FRAME)
    return sorted([_oriented(y) for y in first]), itertools.chain((first,), frames)


def _frames(br: BracketTable, base, first):
    """u and the images of the other k - 5 points for each frame base + u with u >= first.

    ``base`` is a sorted 4-subset of labels and u runs upward over the other
    labels; the images (``_reduce``, in label order) are in the frame sending
    the base to e0..e3 and u to (1:1:1:1).  Only the brackets of base plus
    one point are read.
    """
    if br[base] == 0:
        return
    others = [t for t in range(1, br.k + 1) if t not in base]
    vecs = [cramer(br, base, t) for t in others]
    for n, u in enumerate(others):
        c = vecs[n]
        if u < first or not all(c):
            continue  # below first, or a zero c_i: u lies on a plane of three base points
        yield u, _reduce(vecs[:n] + vecs[n + 1:], c)


def _reduced_frames(br: BracketTable):
    """The reduced image set of every frame with its largest label as unit point, in scan order.

    For each base of labels below k, in lexicographic order, and each unit
    point u above its last label that makes base + u a frame (``_frames``),
    this yields the k - 5 other points reduced in that frame.  The candidate
    order is this one with each image set followed by its four unit swaps
    (``_unit_choices``); ``bracket_form`` and ``equivalent`` both expand a
    frame only past its bound (``_frame_low``).  A reader that stops early
    has read only the brackets around the bases scanned so far.
    """
    for base in itertools.combinations(range(1, br.k), 4):
        for _, reduced in _frames(br, base, base[3] + 1):
            yield reduced


def _unit_choices(ys):
    """The image set ``ys`` of a 5-subset with u as unit point, then with each b_j as unit point."""
    yield ys
    for j in range(4):
        yield _swap_unit(ys, j)


def _frame_low(ys):
    """The least |coordinate| over the five image sets of ``_unit_choices(ys)``.

    Their coordinates are the y_i (unit u) and the y_i - y_j and -y_j (M_j)
    of each image y, so the least is that of |y_i| and |y_i - y_j|, i < j.
    """
    return min([min(abs(a), abs(b), abs(c), abs(d), abs(a - b), abs(a - c), abs(a - d),
                    abs(b - c), abs(b - d), abs(c - d)) for a, b, c, d in ys])


def normalized_at(br: BracketTable, base) -> Configuration | None:
    """The configuration of ``br`` moved by the map sending ``base`` to e0..e3 and u to (1:1:1:1).

    Only the brackets of the sorted labels ``base`` plus one point are read.
    The unit point u is the label whose images (``_frames``) are shortest in
    total bit length, ties going to the lower label; every other point p_t
    becomes (w_i / c_i) for w, c the Cramer vectors of t and u, as in
    ``canonical_form``.  None if base + u is a frame for no u.  The copy is
    PGL(4)-equivalent to the configuration with the same labels, so it has
    the same canonical form and the same zero brackets, and its heights do
    not depend on the frame the configuration is written in.
    """
    sized = [(sum(abs(v).bit_length() for y in ys for v in y), u, ys)
             for u, ys in _frames(br, base, 1)]
    if not sized:
        return None
    _, u, ys = min(sized)  # u breaks ties, so the images are never compared
    points = dict(zip(base, _VERTICES))
    points[u] = ProjectivePoint((1, 1, 1, 1))
    rest = [t for t in range(1, br.k + 1) if t not in points]
    points.update((t, ProjectivePoint(y)) for t, y in zip(rest, ys))
    return Configuration(tuple(points[t] for t in range(1, br.k + 1)))


def equivalent(a: Configuration, b: Configuration) -> bool:
    """True iff some relabeling plus a projective map carries b onto a.

    The target is one candidate of ``a`` (``canonical_form``): its first
    image set, read in the given vertex order (``_scan``).  Each
    configuration's bracket table starts empty and is filled only as far as
    the bases scanned, so a verdict of True reads ``b``'s brackets only up
    to the match.  The candidate multiset is invariant under PGL(4) x S_k,
    so if a ~ b the target is a candidate of ``b``.  Conversely, a candidate of ``b`` equal
    to it comes from frames F of a and F' of b with T_F(a) = T_F'(b) as
    point sets, so T_F'^{-1} T_F carries a onto b up to relabeling.  So the
    image sets of ``b`` are scanned until one of their 24 orders gives the
    target.  Reordering the vertices and orienting and sorting the images
    leave the multiset of |coordinates| of an image set as it is, so an
    image set whose multiset differs from the target's is skipped.  A
    matching image set has the target's least |coordinate|, so a 5-subset
    whose bound ``_frame_low`` (the least |coordinate| over its five unit
    choices) exceeds it is skipped before any unit swap is built; on a
    verdict of False every 5-subset of ``b`` is read.  When the sizes
    differ, the verdict is False once ``b``'s first frame is read: without
    one the input is rejected, as at equal sizes.
    """
    target, _ = _scan(BracketTable(a))
    _, frames = _scan(BracketTable(b))
    if a.k != b.k:
        return False  # no image set of b can match: only its first frame is read
    profile = _abs_profile(target)
    for reduced in frames:
        if _frame_low(reduced) > profile[0]:
            continue  # no unit choice has the target's least |coordinate|
        for ys in _unit_choices(reduced):
            if _abs_profile(ys) != profile:
                continue
            for order in _ORDERS:
                if sorted([_oriented(order(y)) for y in ys]) == target:
                    return True
    return False


def _abs_profile(ys):
    """The sorted |coordinates| of all images in ``ys``."""
    return sorted(map(abs, itertools.chain.from_iterable(ys)))
