"""Test-only oracles, independent of the fast paths they check: the
exhaustive subset census for the clique engine on tiny instances, the
pair-by-pair squared distance, the Gram matrix and its rank, the least
nonsquare, the isometries of F_q^d that fix two points, the midpoint
pair census that the midpoint lemma replaced
in construct.midpoints, the midpoints and the midpoint lemma in one
field call per coordinate (construct's lane versions must agree), and
the orthogonalization without support masks."""

import itertools
from math import comb, isqrt

from ffdist import geometry, srg
from ffdist.field import SquareClass
from ffdist.geometry import PointSet, FORM_STANDARD, TooFewPoints
from ffdist.linalg import DimensionMismatch, LawViolated, dot, rank
from ffdist.search import TooLarge

BRUTE_FORCE_CEILING = 10**7


def brute_force_classify_all(f, d, n):
    """Classify every n-subset of F_q^d by exhaustive enumeration.

    Returns counts keyed by 'equilateral' / 'two_distance' / 'other'.
    Cross-validation oracle for the clique engine on tiny instances.
    """
    points = list(itertools.product(f.elements(), repeat=d))
    if comb(len(points), n) > BRUTE_FORCE_CEILING:
        raise TooLarge("C(q^d, n) exceeds the brute-force ceiling")
    norms = PointSet(f, d, FORM_STANDARD, points).pair_norms()
    census = {"equilateral": 0, "two_distance": 0, "other": 0}
    for subset in itertools.combinations(range(len(points)), n):
        cls = geometry.classify_values(
            {norms[i][j - i - 1] for i, j in itertools.combinations(subset, 2)})
        if isinstance(cls, geometry.Equilateral):
            census["equilateral"] += 1
        elif isinstance(cls, geometry.TwoDistance):
            census["two_distance"] += 1
        else:
            census["other"] += 1
    return census


def dist2(f, x, y):
    """Squared distance sum((x_i - y_i)^2), exact in the field."""
    if len(x) != len(y):
        raise DimensionMismatch("points of different length")
    acc = f.zero
    for a, b in zip(x, y):
        d = f.sub(a, b)
        acc = f.add(acc, f.mul(d, d))
    return acc


def gram(s):
    """Rows of the Gram matrix of v_i = P_i - P_0 under the standard
    bilinear form.

    For an equilateral set with common value delta this is the
    (n-1)x(n-1) matrix with diagonal delta and off-diagonal delta/2,
    i.e. (delta/2)(I+J) -- the source of the rank bound.
    """
    if len(s) < 2:
        raise TooFewPoints("gram needs at least 2 points")
    f = s.field
    p0 = s.points[0]
    vs = [tuple(f.sub(a, b) for a, b in zip(p, p0)) for p in s.points[1:]]
    return [[dot(f, u, v) for v in vs] for u in vs]


def gram_rank(s):
    return rank(s.field, gram(s))


def nonsquare_representative(f):
    """Smallest (by encoding) nonsquare element of f."""
    return next(a for a in f.elements()
                if f.square_class(a) is SquareClass.NONSQUARE)


def isometries_fixing(f, d, e, z):
    """Every linear isometry of F_q^d under the standard form that fixes
    the independent points e and z, as a dict from each point to its
    image.  The basis e, z, w_3, ..., w_d completes e and z with unit
    vectors; each of the q^(d(d-2)) choices of images of w_3, ..., w_d
    is kept when the images' Gram matrix equals the basis's (the form is
    nondegenerate, so the images are then independent too)."""
    basis = [tuple(e), tuple(z)]
    for i in range(d):
        unit = tuple(f.one if j == i else f.zero for j in range(d))
        if rank(f, basis + [unit]) > len(basis):
            basis.append(unit)
    points = list(itertools.product(f.elements(), repeat=d))

    def combine(vectors, coords):
        out = [f.zero] * d
        for c, v in zip(coords, vectors):
            out = [f.add(a, f.mul(c, b)) for a, b in zip(out, v)]
        return tuple(out)

    def gram_of(vectors):
        return [[dot(f, u, v) for v in vectors] for u in vectors]

    want = gram_of(basis)
    found = []
    for images in itertools.product(points, repeat=d - 2):
        image = basis[:2] + list(images)
        if gram_of(image) == want:
            found.append({combine(basis, c): combine(image, c)
                          for c in points})
    return found


def midpoint_census(mid, n):
    """The rows of the midpoint graph of mid (a construct.MidpointSet of
    n source points), checked pair by pair against the line graph of
    K_n: srg.midpoint_graph raises BadDistanceValue for a pair at
    neither delta/4 nor delta/2, and LawViolated marks a pair at the
    other type's value."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graph = srg.midpoint_graph(mid.points, mid.d4)
    # bit t of incident[i] is set iff vertex i lies on edge t
    incident = [sum(1 << t for t, e in enumerate(edges) if i in e)
                for i in range(n)]
    for t, (i, j) in enumerate(edges):
        wrong = graph[t] ^ incident[i] ^ incident[j]
        if wrong:  # both sides are symmetric: the lowest bit is above t
            u = (wrong & -wrong).bit_length() - 1
            raise LawViolated("midpoint distance law violated at %r/%r"
                              % (edges[t], edges[u]))
    return graph


def midpoints(f, points):
    """The midpoints (x + y)/2 of the pairs of points in lexicographic
    order, as construct.midpoints lists them."""
    half = f.inv(f.add(f.one, f.one))
    return [tuple(f.mul(half, f.add(a, b)) for a, b in zip(x, y))
            for i, x in enumerate(points) for y in points[i + 1:]]


def midpoint_sources(s):
    """construct.midpoint_sources by field calls: the x_0..x_(n-1) with
    m_ij = (x_i + x_j)/2 the points of s in lexicographic pair order,
    from x_0 = m_01 + m_02 - m_12 and x_j = 2 m_0j - x_0, or None when
    len(s) is not C(n, 2) with n >= 4 or some 2 m_ij != x_i + x_j."""
    v = len(s)
    n = (isqrt(8 * v + 1) + 1) // 2
    if n < 4 or comb(n, 2) != v:
        return None
    add, sub = s.field.add, s.field.sub
    m = s.points
    x0 = tuple(map(sub, map(add, m[0], m[1]), m[n - 1]))
    xs = [x0] + [tuple(map(sub, map(add, mj, mj), x0)) for mj in m[:n - 1]]
    pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    for mij, (i, j) in zip(m, pairs):
        if tuple(map(add, mij, mij)) != tuple(map(add, xs[i], xs[j])):
            return None
    return xs


def diagonalize_form(f, vectors):
    """Orthogonalize vectors of one length under dot in O(n^2 m): (diag,
    ws), ws spanning what vectors span, with dot(w_i, w_j) = diag[i] if
    i = j, else 0.

    Standard orthogonalization: pick a vector of nonzero norm, project
    it out of the rest, recurse.  If every remaining vector has zero
    norm but some pair has nonzero inner product, u := u+v creates a
    nonzero norm (needs odd characteristic, which the field guarantees).

    linalg.diagonalize_form without its support masks: every dot is
    taken, so this is the reference its (diag, ws) must equal.
    """
    remaining = [list(v) for v in vectors]
    if len(set(map(len, remaining))) > 1:
        raise DimensionMismatch("vectors must have one length")

    def add_multiple(i, c, v):  # u_i += c v
        remaining[i] = [f.add(x, f.mul(c, y)) if y else x
                        for x, y in zip(remaining[i], v)]

    ws = []
    diag = []
    while remaining:
        pivot = next((i for i, u in enumerate(remaining)
                      if dot(f, u, u) != f.zero), None)
        if pivot is None:
            pair = next(((i, j) for i in range(len(remaining))
                         for j in range(i + 1, len(remaining))
                         if dot(f, remaining[i], remaining[j]) != f.zero),
                        None)
            if pair is None:
                # remaining span is totally isotropic: zero diagonal block
                ws.extend(remaining)
                diag.extend([f.zero] * len(remaining))
                break
            pivot, j = pair
            add_multiple(pivot, f.one, remaining[j])
        v = remaining.pop(pivot)
        d = dot(f, v, v)
        ws.append(v)
        diag.append(d)
        minus_dinv = f.neg(f.inv(d))
        for idx, u in enumerate(remaining):
            c = f.mul(dot(f, u, v), minus_dinv)
            if c != f.zero:
                add_multiple(idx, c, v)
    return diag, ws
