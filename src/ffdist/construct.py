"""Explicit constructions: the modular equilateral simplex, its
midpoint two-distance set, and the embedding into standard coordinates.

The modular construction places d+2 equilateral points inside the
sum-zero hyperplane of F_q^(d+1); it exists exactly when the
characteristic divides d+2.  Midpoints of its edges form a two-distance
set of size C(d+2, 2), which meets the quadratic reference bound; the
midpoint lemma (midpoint_sources) proves it without a pair census.
"""

from collections import namedtuple
from itertools import chain
from math import comb, isqrt

from . import geometry
from .geometry import PointSet, FORM_SUM_ZERO, FORM_STANDARD
from .linalg import (LawViolated, isometry_to_standard, row_product,
                     vector_lanes)


class NotModular(ValueError):
    pass


class ZeroScale(ValueError):
    pass


class NotEquilateral(ValueError):
    pass


class ModularParams:
    """Parameters of the modular construction.

    d: target dimension, characteristic must divide d+2.
    b: nonzero scale, an element encoding taken mod q; the common
       squared distance is 2 b^2.
    """

    def __init__(self, field, d, b=1):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if (d + 2) % field.p != 0:
            raise NotModular("characteristic %d does not divide d+2 = %d"
                             % (field.p, d + 2))
        b %= field.q
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
    f, m, b = params.field, params.m, params.b
    points = [(f.zero,) * m] + [(b,) * i + (f.add(b, b),) + (b,) * (m - 1 - i)
                                for i in range(m)]
    return PointSet(f, m, FORM_SUM_ZERO, points)


# Midpoints of all edges of an equilateral set, in lexicographic order of
# the source pairs (i, j).  Midpoints of edges that share a vertex sit at
# d4 = delta/4, those of disjoint edges at d2 = delta/2.
MidpointSet = namedtuple("MidpointSet", "points d4 d2")


def midpoint_values(f, delta):
    """(delta/4, delta/2) in the odd-characteristic field f."""
    half = f.inv(f.add(f.one, f.one))
    d2 = f.mul(delta, half)
    return f.mul(d2, half), d2


def midpoint_sources(s):
    """The points x_0..x_(n-1) whose midpoints m_ij = (x_i + x_j)/2 are
    the points of s in lexicographic pair order, or None: when len(s) is
    not C(n, 2) with n >= 4, or some m_ij != x_i/2 + x_j/2 for x_0 = m_01
    + m_02 - m_12 and x_j = 2 m_0j - x_0.  A few whole-vector operations
    per point and pair (linalg.vector_lanes, on encodings), O(v d).

    The midpoint lemma: if the x_i are pairwise at delta != 0 (p odd),
    <x_i - x_k, x_j - x_l> = 0 for distinct indices (polarization), so
    midpoints of pairs sharing one index are at delta/4, of disjoint
    pairs at delta/2, and the delta/4 graph is T(n) (t -> (i, j))."""
    v = len(s)
    n = (isqrt(8 * v + 1) + 1) // 2
    if n < 4 or comb(n, 2) != v:
        return None
    pack, add, halve, unpack, minus = vector_lanes(s.field, s.ambient_dim)
    m = list(map(pack, s.points[:n]))  # m_01 .. m_0(n-1), m_12
    x0 = add(add(m[0], m[1]), minus - m[n - 1])
    xs = [x0] + [add(add(mj, mj), minus - x0) for mj in m[:n - 1]]
    hs = list(map(halve, xs))
    pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    if any(add(hs[i], hs[j]) != mij  # each m_ij packed as it is read
           for mij, (i, j) in zip(map(pack, s.points), pairs)):
        return None
    return list(map(unpack, xs))


def midpoints(s):
    """Midpoint set of an equilateral input, checked exactly: for n >= 4
    points midpoint_sources must give back the input, which by the
    midpoint lemma fixes every distance and the graph T(n); the
    midpoints of n < 4 points must all be at delta/4.  LawViolated marks
    a failure of either.
    """
    cls = geometry.classify(s)
    if not isinstance(cls, geometry.Equilateral):
        raise NotEquilateral("midpoints need an equilateral input, got %r" % cls)
    f = s.field
    d4, d2 = midpoint_values(f, cls.delta)
    n = len(s)
    pack, add, halve, unpack, _ = vector_lanes(f, s.ambient_dim)
    hs = [halve(pack(x)) for x in s.points]  # (x + y)/2 = x/2 + y/2
    mids = [unpack(add(a, b)) for i, a in enumerate(hs) for b in hs[i + 1:]]
    mset = PointSet(f, s.ambient_dim, s.form, mids)
    if n >= 4:
        ok = midpoint_sources(mset) == s.points
    else:
        ok = {d4}.issuperset(chain.from_iterable(mset.pair_norms()))
    if not ok:
        raise LawViolated("midpoint lemma violated on the midpoints of "
                          "%d points" % n)
    return MidpointSet(mset, d4, d2)


def embed_standard(s):
    """Rewrite a sum-zero hyperplane set in orthonormal coordinates of
    the hyperplane, dropping one dimension while preserving every
    squared distance; W W^T = I for the basis w_i (rows of W) and the
    round trip W^T y_i = p_i of every point prove it without a census.

    Raises NotIsometric when the hyperplane form is not congruent to the
    standard one (discriminant obstruction, e.g. characteristic 3 with
    ambient dimension 5), LawViolated if the basis w_i found for the
    hyperplane is not orthonormal or the map does not give back a point.
    """
    if s.form != FORM_SUM_ZERO:
        raise ValueError("embed_standard expects a sum-zero hyperplane set")
    f = s.field
    m = s.ambient_dim
    minus_one = f.neg(f.one)
    basis = [[f.one if j == i else minus_one if j == i + 1 else f.zero
              for j in range(m)] for i in range(m - 1)]  # e_i - e_(i+1)
    w = isometry_to_standard(f, basis)  # may raise NotIsometric
    # A point p of the hyperplane (PointSet checked the sum) is the sum
    # of y_i w_i with y_i = w_i . p: one linear map for every point.
    times_wt = row_product(f, list(zip(*w)))
    eye = [[f.one if i == j else f.zero for j in range(m - 1)]
           for i in range(m - 1)]
    if list(map(times_wt, w)) != eye:
        raise LawViolated("the hyperplane basis is not orthonormal")
    ys = list(map(times_wt, s.points))
    # The round trip y_i W = p_i, i.e. W^T y_i = p_i, fixes every
    # distance: p_i - p_j = W^T (y_i - y_j), so Q(p_i - p_j) =
    # (y_i - y_j)^T W W^T (y_i - y_j) = Q(y_i - y_j) as W W^T = I.
    times_w = row_product(f, w)
    for i, (y, p) in enumerate(zip(ys, s.points)):
        if tuple(times_w(y)) != p:
            raise LawViolated("embedding moved point %d" % i)
    return PointSet(f, m - 1, FORM_STANDARD, ys)


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
