"""Configuration invariants under PGL(4) x permutation.

``canonical_form`` normalizes the configuration by every ordered 5-point
frame (send it to the standard frame ``projective._FRAME``: e0, e1, e2, e3,
(1:1:1:1)) and sorts the resulting canonical points; of these candidates it
keeps the least in the order of integer point tuples and writes it as
``k|x0,x1,x2,x3;...`` in decimal.  Two configurations are equivalent iff
their canonical forms agree; ``equivalent`` decides this without building
either form, by looking for any candidate of the first configuration's
first frame base among the candidates of the second.  Both read the frames
from one scan (``_scan``), in one order: a plan per k (``_plan``) puts each
5-subset of labels under one base, and one kernel (``_frames``) reduces all
the frames of a base together.
``normalized_at`` gives the same configuration in the frame of one base and
a unit point of its own above it, read from the brackets around that base.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator

from .digits import int_to_decimal
from .errors import NoFrameError
from .projective import _FRAME, BracketTable, Configuration, ProjectivePoint, _oriented, cramer

# the 24 orders of the four frame vertices as coordinate getters, grouped by
# the coordinate they put first
_ORDERS_BY_LEAD = tuple(
    tuple(operator.itemgetter(*s) for s in itertools.permutations(range(4)) if s[0] == lead)
    for lead in range(4)
)

# the same 24 getters in one tuple
_ORDERS = tuple(itertools.chain.from_iterable(_ORDERS_BY_LEAD))

_NO_FRAME = "no 5 points of the configuration form a projective frame"


def serialize_points(k, pts) -> bytes:
    """Byte encoding of a point list: ``k|x0,x1,x2,x3;...`` in decimal."""
    text = "%d|" % k + ";".join(",".join(int_to_decimal(v) for v in p) for p in pts)
    return text.encode("ascii")


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

    Unit points.  Each 5-subset S is reduced in one frame only: the plan
    (``_plan``) puts it under one base, and its fifth label is u.  For the
    frame with b_j as unit point and u as vertex j, the normalizing map is
    M_j T: M_j (``_swap_unit``) fixes e_i for i != j and swaps e_j with
    (1:1:1:1) up to sign, so M_j T sends this ordered frame to the standard
    one, and a projective map is fixed by the images of a frame.  M_j is an
    integer matrix of determinant -1, so a primitive image stays primitive
    and only its sign is left to fix.  The five unit points of S thus give
    exactly the candidates of every (base, u) with base + u = S.

    Kernel.  Per base, one ``cramer`` call gives the vectors of all k - 4
    other points, read through the base's cached Cramer plan of signed
    4-subsets, and ``_frames`` turns them into the image sets of all the
    base's frames.  An image cancels each coordinate w_i / c_i by
    gcd(w_i, c_i) and is scaled by the lcm of the reduced denominators, so
    it comes out primitive with no further gcd; cancelling per coordinate
    keeps the products short on tall configurations, where gcd(w_i, c_i) is
    large.  The image of u in the frame of t needs the gcds of the image of
    t in the frame of u, with the quotients swapped, so each pair of points
    is cancelled once for both frames: at k = 8, where every base of the
    plan has four units, 6 pairs give its 4 x 3 images.  The kernel also
    takes each image set's bound: the least gap between neighbours of
    sorted((0, *y)) over its images y.  The least gap of a set of numbers
    is its least pairwise distance, so the bound is the least of |y_i| and
    |y_i - y_j|; as M_j turns the coordinates y_i of an image into y_i - y_j
    and -y_j, that is the least |coordinate| over the five unit choices of
    the 5-subset.  ``_swap_unit`` applies M_j to a whole image set in one
    comprehension.

    Cost.  C(k, 5) five-subsets times 5 unit points give 280, 630 and 1260
    image sets of k - 5 images at k = 8, 9 and 10, read through the plan's
    14, 32 and 56 bases, one ``cramer`` call each.  Every 5-subset is
    reduced once and carries its bound; only those that tie the least bound
    build their unit swaps (4 of the 56 x 4 swaps for ``random_config(7,
    10)``, where one 5-subset ties), and the per-coordinate bound below
    keeps all but a few image sets from sorting any vertex order.  Where
    points lie on frame planes the least bound is 0 and most 5-subsets tie
    at it, so the expansion saves little there.

    Selection.  The five frame images are in every candidate and differ from
    every other image, so comparing candidates is comparing the sorted images
    of the k - 5 remaining points.  A vertex order sigma turns an image set
    into a candidate: each image is read in the order sigma, oriented
    (``_oriented``: a tuple exceeds zero iff its first nonzero entry is
    positive), and the results are sorted.  The lead of a candidate, the
    first coordinate of its least image, is min_t |T(p_t)_{sigma_0}|.
    Lemma: the least candidate's lead is the least bound over all
    5-subsets, and no 5-subset whose bound exceeds it holds the winner.  For
    the least candidate minimizes the lead first, and the least lead over
    the candidates of one 5-subset, over its five unit choices, four leading
    positions and k - 5 images, is its least |coordinate|, its bound.  So
    ``bracket_form`` streams the scan (``_scan``), keeps only the image sets
    that tie the running least bound, and expands those alone, holding no
    more than the ties.  Per expanded image set and leading coordinate, the
    six orders are skipped when the least |coordinate| in that position
    exceeds the least bound, as every candidate they give has a larger lead.
    Only the winner is encoded.
    """
    return bracket_form(BracketTable(config))


def bracket_form(br: BracketTable) -> bytes:
    """``canonical_form`` of a configuration, from its bracket table ``br``."""
    items = _scan(br)
    low, first = next(items)
    ties = [first]
    for bound, ys in items:
        if bound < low:
            low, ties = bound, [ys]
        elif bound == low:
            ties.append(ys)
    best = sorted([_oriented(y) for y in ties[0]])  # one candidate of a tie, to improve on
    for reduced in ties:
        for ys in _unit_choices(reduced):
            lows = [min(map(abs, col)) for col in zip(*ys)]
            for lead, orders in enumerate(_ORDERS_BY_LEAD):
                if lows[lead] > low:
                    continue
                for order in orders:
                    cand = sorted([_oriented(order(y)) for y in ys])
                    if cand < best:
                        best = cand
    return serialize_points(br.k, sorted([p.coords for p in _FRAME] + best))


def _scan(br: BracketTable):
    """The bound and the reduced image set of every frame, in scan order.

    For each base of the plan (``_plan``), in plan order, and each of its
    units u that makes base + u a frame (``_frames``), an item holds the
    k - 5 other points reduced in that frame, with its bound.  The
    candidate order is this one with each image set followed by its four
    unit swaps (``_unit_choices``); ``bracket_form`` and ``equivalent`` both
    expand an image set only as its bound allows.  A reader that stops early
    has read only the brackets around the bases scanned so far.  The first
    item is read here: NoFrameError if there is none.
    """
    items = (item for frames in _bases(br) for _, item in frames)
    first = next(items, None)
    if first is None:
        raise NoFrameError(_NO_FRAME)
    return itertools.chain((first,), items)


def _bases(br: BracketTable):
    """The frames (``_frames``) of each base of the plan, base by base in plan order."""
    return (_frames(br, base, units) for base, units in _plan(br.k))


@functools.lru_cache(maxsize=16)
def _plan(k):
    """The scan plan of k labels: (base, units) pairs that put each 5-subset under one base.

    ``base`` is a sorted 4-subset and ``units`` the labels u, in order, whose
    5-subset base + u the base reduces; every 5-subset of 1..k is some
    base + u exactly once.  Built greedily: the next base is the one with
    the most 5-subsets not yet assigned, the lexicographically least among
    ties, and it takes all of them.  A heap with lazy updates finds it, as a
    base's count only falls.  The first base is (1,2,3,4) with all k - 4
    units; there are 14, 32, 56, 93, 143 and 230 bases at k = 8..13.  At
    k = 8 the plan is the 14 complements of a Steiner system S(3,4,8) (every
    3-subset of labels lies in one block), each with its block as units.
    Plans are built on first use, none at import.
    """
    labels = range(1, k + 1)
    todo = set(itertools.combinations(labels, 5))
    count = dict.fromkeys(itertools.combinations(labels, 4), k - 4)
    heap = [(4 - k, base) for base in count]  # sorted, so already a heap
    plan = []
    while todo:
        neg, base = heapq.heappop(heap)
        if -neg != count[base]:
            heapq.heappush(heap, (-count[base], base))  # stale: its count fell since
            continue
        units = []
        for u in labels:
            s = tuple(sorted((*base, u)))
            if u not in base and s in todo:
                todo.remove(s)
                units.append(u)
                for sub in itertools.combinations(s, 4):
                    count[sub] -= 1
        plan.append((base, tuple(units)))
    return tuple(plan)


def _frames(br: BracketTable, base, units):
    """u and the scan item of each frame base + u, u in ``units``.

    ``base`` is a sorted 4-subset of labels; the item is the bound and the
    images, in label order, of the other k - 5 points in the frame sending
    the base to e0..e3 and u to (1:1:1:1) (``canonical_form``, "Kernel"),
    for each u in ``units`` whose Cramer vector has no zero coordinate, in
    label order.  Only the brackets of base plus one point are read, through
    one ``cramer`` call, when the first item is.

    For points t and u outside the base with vectors w and c, the image of t
    in the frame of u is (w_i / c_i) and that of u in the frame of t is
    (c_i / w_i): with g_i = gcd(w_i, c_i), one reads (w_i / g_i) over
    (c_i / g_i) and the other the same quotients swapped, so each pair is
    cancelled once for both frames.  An image with reduced numerators n_i
    and denominators d_i is n_i * (m / d_i), for m the lcm of the d_i.
    That is already primitive: a prime dividing m misses the coordinate
    whose d_i holds its full power in m, and any other common prime divides
    every n_i, hence every coordinate of the point's vector, which
    ``cramer`` makes primitive.  No d_i is zero, as a unit's vector has no
    zero coordinate.
    The bound is the least gap between neighbours of sorted((0, *y)) over
    the images y.
    """
    if br[base] == 0:
        return
    others = [t for t in range(1, br.k + 1) if t not in base]
    rows = [(t in units and all(v), v, []) for t, v in zip(others, cramer(br, base))]
    gcd, lcm = math.gcd, math.lcm
    for n, (at_w, (w0, w1, w2, w3), ys_w) in enumerate(rows):
        for at_c, (c0, c1, c2, c3), ys_c in rows[n + 1:]:
            if not (at_w or at_c):
                continue  # neither point is a unit of a frame
            g0, g1, g2, g3 = gcd(w0, c0), gcd(w1, c1), gcd(w2, c2), gcd(w3, c3)
            a0, a1, a2, a3 = w0 // g0, w1 // g1, w2 // g2, w3 // g3
            b0, b1, b2, b3 = c0 // g0, c1 // g1, c2 // g2, c3 // g3
            if at_c:
                m = lcm(b0, b1, b2, b3)
                ys_c.append((a0 * (m // b0), a1 * (m // b1), a2 * (m // b2), a3 * (m // b3)))
            if at_w:
                m = lcm(a0, a1, a2, a3)
                ys_w.append((b0 * (m // a0), b1 * (m // a1), b2 * (m // a2), b3 * (m // a3)))
    for u, (at, _, ys) in zip(others, rows):
        if at:
            low = min(min(z1 - z0, z2 - z1, z3 - z2, z4 - z3)
                      for z0, z1, z2, z3, z4 in map(sorted, ((0, *y) for y in ys)))
            yield u, (low, ys)


def _unit_choices(ys):
    """The image set ``ys`` of a 5-subset with u as unit point, then with each b_j as unit point."""
    yield ys
    for j in range(4):
        yield _swap_unit(ys, j)


def normalized_at(br: BracketTable, base) -> Configuration | None:
    """The configuration of ``br`` moved by the map sending ``base`` to e0..e3 and u to (1:1:1:1).

    Only the brackets of the sorted labels ``base`` plus one point are read.
    The unit point u is the label above the base whose images (``_frames``)
    are shortest in total bit length, ties going to the lower label; above
    the iterate's base (1,2,3,4) is every other label.  Every other point
    p_t becomes (w_i / c_i) for w, c the Cramer vectors of t and u, as in
    ``canonical_form``.  None if base + u is a frame for no u.  The copy is
    PGL(4)-equivalent to the configuration with the same labels, so it has
    the same canonical form and the same zero brackets, and its heights do
    not depend on the frame the configuration is written in.
    """
    above = range(base[3] + 1, br.k + 1)
    sized = [(sum(abs(v).bit_length() for y in ys for v in y), u, ys)
             for u, (_, ys) in _frames(br, base, above)]
    if not sized:
        return None
    _, u, ys = min(sized)  # u breaks ties, so the images are never compared
    points = dict(zip((*base, u), _FRAME))
    rest = [t for t in range(1, br.k + 1) if t not in points]
    points.update((t, ProjectivePoint(y)) for t, y in zip(rest, ys))
    return Configuration(tuple(points[t] for t in range(1, br.k + 1)))


def equivalent(a: Configuration, b: Configuration) -> bool:
    """True iff some relabeling plus a projective map carries b onto a.

    The targets are the candidates (``canonical_form``) of every frame of
    ``a``'s first frame base, each image set read in the given vertex
    order: at most k - 4 of them, all from that base's one ``cramer`` call
    (``_frames``).  Each configuration's bracket table starts empty and is
    filled only as far as the bases scanned, so ``a``'s table reads only
    the brackets up to its first frame base, and a verdict of True reads
    ``b``'s only up to the match.  The candidate multiset is invariant under
    PGL(4) x S_k, so if a ~ b every target is a candidate of ``b``.
    Conversely, a candidate of ``b`` equal to any target comes from frames F
    of a and F' of b with T_F(a) = T_F'(b) as point sets, so T_F'^{-1} T_F
    carries a onto b up to relabeling.  So ``b`` is scanned once, and the
    first image set one of whose 24 orders gives a target decides True.

    Two exact filters keep most image sets of ``b`` from any vertex order.
    The bound of an image set (``_frames``) is the least of |y_i| and
    |y_i - y_j| over its images y: reordering the vertices permutes those
    numbers, orienting leaves them, and the unit swaps run over the five
    unit choices of the same 5-subset, so every candidate of a 5-subset has
    its bound, and a map of PGL(4) x S_k, which carries candidates to equal
    candidates, carries it too.  A 5-subset of ``b`` whose bound is no
    target's is skipped before any unit swap is built.  Reordering,
    orienting and sorting leave the multiset of |coordinates| of a unit
    choice as it is (``_abs_profile``), so each unit choice is compared only
    with the targets of its profile, each order by set membership.  On a
    verdict of False every 5-subset of ``b`` is read.  When the sizes
    differ, the verdict is False once ``b``'s first frame is read: without
    one the input is rejected, as at equal sizes.
    """
    for frames in _bases(BracketTable(a)):
        targets = [item for _, item in frames]
        if targets:
            break
    else:
        raise NoFrameError(_NO_FRAME)
    frames = _scan(BracketTable(b))
    if a.k != b.k:
        return False  # no image set of b can match: only its first frame is read
    bounds = {bound for bound, _ in targets}
    by_profile = {}
    for _, ys in targets:
        candidate = tuple(sorted([_oriented(y) for y in ys]))
        by_profile.setdefault(_abs_profile(ys), set()).add(candidate)
    for bound, reduced in frames:
        if bound not in bounds:
            continue  # no candidate of this 5-subset has a target's bound
        for ys in _unit_choices(reduced):
            wanted = by_profile.get(_abs_profile(ys))
            if wanted is None:
                continue
            for order in _ORDERS:
                if tuple(sorted([_oriented(order(y)) for y in ys])) in wanted:
                    return True
    return False


def _abs_profile(ys):
    """The sorted |coordinates| of all images in ``ys``, as a tuple."""
    return tuple(sorted(map(abs, itertools.chain.from_iterable(ys))))
