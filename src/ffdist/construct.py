"""Explicit constructions: the modular equilateral simplex, its
midpoint two-distance set, and the embedding into standard coordinates.

The modular construction places d+2 equilateral points inside the
sum-zero hyperplane of F_q^(d+1); it exists exactly when the
characteristic divides d+2.  Midpoints of its edges form a two-distance
set of size C(d+2, 2), which meets the quadratic reference bound.
"""

from . import geometry, srg
from .geometry import PointSet, FORM_SUM_ZERO, FORM_STANDARD, dist2
from .linalg import MatrixF, LawViolated, dot, isometry_to_standard


class NotModular(ValueError):
    pass


class ZeroScale(ValueError):
    pass


class NotEquilateral(ValueError):
    pass


SHARED_VERTEX = "shared_vertex"
DISJOINT_EDGES = "disjoint_edges"


class ModularParams:
    """Parameters of the modular construction.

    d: target dimension, characteristic must divide d+2.
    b: nonzero scale; the common squared distance is 2 b^2.
    """

    def __init__(self, field, d, b=None):
        if (d + 2) % field.p != 0:
            raise NotModular("characteristic %d does not divide d+2 = %d"
                             % (field.p, d + 2))
        if b is None:
            b = field.one
        b = field.coerce(b)
        if b == field.zero:
            raise ZeroScale("scale b must be nonzero")
        self.field = field
        self.d = d
        self.m = d + 1
        self.b = b
        two = field.add(field.one, field.one)
        self.delta = field.mul(two, field.mul(b, b))


def modular_equilateral(params):
    """The d+2 points 0 and b*1 + b*e_i (i = 1..m) in the sum-zero
    hyperplane of F_q^m, m = d+1; pairwise squared distance 2 b^2."""
    f = params.field
    m = params.m
    b = params.b
    points = [(f.zero,) * m]
    for i in range(m):
        points.append(tuple(f.add(b, b) if j == i else b for j in range(m)))
    return PointSet(f, m, FORM_SUM_ZERO, points)


class MidpointSet:
    """Midpoints of all edges of an equilateral set.

    edges[t] is the source pair (i, j) of midpoint t; pair_types maps
    unordered midpoint index pairs to SHARED_VERTEX or DISJOINT_EDGES.
    The shared-vertex pairs sit at d4 = delta/4 and are the edges of
    graph; the disjoint-edge pairs sit at d2 = delta/2.
    """

    def __init__(self, points, edges, pair_types, delta, d4, d2, graph):
        self.points = points
        self.edges = edges
        self.pair_types = pair_types
        self.delta = delta
        self.d4 = d4
        self.d2 = d2
        self.graph = graph


def midpoints(s):
    """Midpoint set of an equilateral input, with the combinatorial type
    of every midpoint pair.

    Shared-vertex pairs sit at delta/4, disjoint-edge pairs at delta/2;
    both facts are re-verified here against the actual distances:
    srg.midpoint_graph raises BadDistanceValue for a pair at neither
    value, and LawViolated marks a pair at the other type's value.
    """
    cls = geometry.classify(s)
    if not isinstance(cls, geometry.Equilateral):
        raise NotEquilateral("midpoints need an equilateral input, got %r" % cls)
    f = s.field
    delta = cls.delta
    half = f.inv(f.add(f.one, f.one))
    quarter = f.mul(half, half)
    d4 = f.mul(delta, quarter)
    d2 = f.mul(delta, half)
    n = len(s)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mids = []
    for i, j in edges:
        mids.append(tuple(f.mul(half, f.add(a, b))
                          for a, b in zip(s.points[i], s.points[j])))
    mset = PointSet(f, s.ambient_dim, s.form, mids)
    graph = srg.midpoint_graph(mset, delta)
    pair_types = {}
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            shared = bool(set(edges[a]) & set(edges[b]))
            pair_types[(a, b)] = SHARED_VERTEX if shared else DISJOINT_EDGES
            if graph.adjacency[a][b] != shared:
                raise LawViolated("midpoint distance law violated at %r/%r"
                                  % (edges[a], edges[b]))
    return MidpointSet(mset, edges, pair_types, delta, d4, d2, graph)


def _hyperplane_basis(f, m):
    """Columns e_i - e_(i+1), a basis of the sum-zero hyperplane."""
    cols = []
    for i in range(m - 1):
        v = [f.zero] * m
        v[i] = f.one
        v[i + 1] = f.neg(f.one)
        cols.append(v)
    return MatrixF(f, [[cols[j][i] for j in range(m - 1)] for i in range(m)])


def embed_standard(s):
    """Rewrite a sum-zero hyperplane set in orthonormal coordinates of
    the hyperplane, dropping one dimension while preserving every
    squared distance.

    Raises NotIsometric when the hyperplane form is not congruent to
    the standard one (discriminant obstruction, e.g. characteristic 3
    with ambient dimension 5), and LawViolated if a distance changed.
    """
    if s.form != FORM_SUM_ZERO:
        raise ValueError("embed_standard expects a sum-zero hyperplane set")
    f = s.field
    m = s.ambient_dim
    basis = _hyperplane_basis(f, m)
    g = basis.transpose().mul(basis)
    t = isometry_to_standard(g)  # may raise NotIsometric
    # A point p = B c of the hyperplane (PointSet checked the sum) has
    # coordinates y = T^-1 c.  T^T G T = I gives T^-1 = T^T B^T B, so
    # y = (B T)^T p: one linear map for every point.  B is bidiagonal,
    # so row i of B T is T_i - T_(i-1), taking zero rows outside T.
    padded = [[f.zero] * (m - 1)] + t.entries + [[f.zero] * (m - 1)]
    bt = [[f.sub(a, b) for a, b in zip(padded[i + 1], padded[i])]
          for i in range(m)]
    out = PointSet(f, m - 1, FORM_STANDARD,
                   [tuple(dot(f, col, p) for col in zip(*bt))
                    for p in s.points])
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if dist2(f, out.points[i], out.points[j]) != \
                    dist2(f, s.points[i], s.points[j]):
                raise LawViolated("embedding changed the distance of "
                                  "points %d and %d" % (i, j))
    return out


def sharp_dimensions(p, d_max):
    """All d <= d_max with d = m*p - 2, i.e. d == -2 mod p, ascending."""
    return [d for d in range(1, d_max + 1) if (d + 2) % p == 0]


_TRIAL_DIVISION_LIMIT = 10**6


def admissible_chars(d):
    """Odd prime divisors of d+2, ascending; empty exactly when d+2 is
    a power of two (the excluded dimensions d = 2^t - 2)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d > _TRIAL_DIVISION_LIMIT:
        raise ValueError("trial division limited to d <= %d" % _TRIAL_DIVISION_LIMIT)
    n = d + 2
    while n % 2 == 0:
        n //= 2
    primes = []
    f = 3
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 2
    if n > 1:
        primes.append(n)
    return primes
