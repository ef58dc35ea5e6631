"""Point sets over finite fields and the squared-distance census.

"Distance" always means the squared quantity Q(x - y), Q(x) = x.x; there
are no square roots over a finite field.  Point sets either live in the
full standard space or in the sum-zero hyperplane of the ambient space;
either way distances are evaluated in ambient coordinates.

PointSet.pair_norms is the one census: every Q(x - y) from one pass,
kept on the set.  Q(x - y) = Q(x) + Q(y) - 2 x.y is x'.y' for x' = (x,
Q(x), 1) and y' = (-2y, 1, Q(y)), so the census is the upper triangle
of one matrix product, linalg.row_product.  For k > 1 its inputs come
from tables of a^2 and -2a over the distinct coordinates, which
PointSet checks are encodings, and Q(x) from one lane sum per point
(_coordinate_sums).  tests/brute_force.py holds dist2, the reference.
"""

import math
from collections import Counter
from functools import partial
from itertools import chain, repeat
from operator import mul
from struct import Struct

from .linalg import horner, lane_format, row_product, DimensionMismatch


class TooFewPoints(ValueError):
    pass


class OffHyperplane(ValueError):
    pass


FORM_STANDARD = "standard"
FORM_SUM_ZERO = "sum_zero_hyperplane"


class PointSet:
    """Distinct points in F_q^ambient_dim.

    form is FORM_STANDARD or FORM_SUM_ZERO; in the hyperplane case the
    coordinates of every point must sum to zero (checked).  The
    geometric dimension is ambient_dim for standard sets and
    ambient_dim - 1 for hyperplane sets.
    """

    def __init__(self, field, ambient_dim, form, points):
        self.field = field
        self.ambient_dim = ambient_dim
        self.form = form
        self.points = [tuple(p) for p in points]
        if not {ambient_dim}.issuperset(map(len, self.points)):
            raise DimensionMismatch("point of wrong length")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")
        # for k > 1 coordinates index tables, so each must be an encoding
        values = field.k > 1 and set().union(*self.points)
        if values and not (0 <= min(values) and max(values) < field.q):
            raise ValueError("coordinates over %r must lie in 0..%d"
                             % (field, field.q - 1))
        if form == FORM_SUM_ZERO:
            if any(_coordinate_sums(field, ambient_dim, self.points)):
                raise OffHyperplane("point off the sum-zero hyperplane")
        elif form != FORM_STANDARD:
            raise ValueError("unknown form %r" % form)
        self._pair_norms = None

    def __len__(self):
        return len(self.points)

    def dimension(self):
        return self.ambient_dim - (1 if self.form == FORM_SUM_ZERO else 0)

    def pair_norms(self):
        """rows[i][j - i - 1] = Q(p_i - p_j) for i < j (see the module
        doc), computed on first use."""
        if self._pair_norms is None:
            f, points = self.field, self.points
            if f.k > 1:  # a^2 and -2a, one field call per distinct a
                values = set().union(*points)
                norms = _coordinate_sums(f, self.ambient_dim, points,
                                         {a: f.mul(a, a) for a in values})
                minus2 = {a: f.mul(f.coerce(-2), a)
                          for a in values}.__getitem__
            else:  # plain integers, which row_product reduces mod p
                norms = list(map(sum, map(map, repeat(mul), points, points)))
                minus2 = partial(mul, -2)
            row = row_product(f, [list(map(minus2, c)) for c in zip(*points)]
                              + [[f.one] * len(points), norms])
            self._pair_norms = [row((*x, q, 1), i + 1)
                                for i, (x, q) in enumerate(zip(points, norms))]
        return self._pair_norms


def _coordinate_sums(f, m, points, table=None):
    """The encodings of sum_j table[x_j] (sum_j x_j without a table)
    for the m-vectors x of encodings in points: per point a C-level sum
    of Field.lanes ints, whose lanes hold the coefficient sums, then one
    mod p and Horner over all lanes.  For k = 1 no table, any ints."""
    p, k = f.p, f.k
    if k == 1:
        return list(map(p.__rmod__, map(sum, points)))
    width, fmt = lane_format((m * (p - 1)).bit_length())
    lanes = f.lanes(8 * width)
    code = ({a: lanes[b] for a, b in table.items()} if table
            else lanes).__getitem__
    sums = map(sum, map(map, repeat(code), points))
    raw = b"".join(map(int.to_bytes, sums, repeat(k * width),
                       repeat("little")))
    coeffs = Struct("<%d%s" % (k * len(points), fmt)).unpack(raw)
    return horner(list(map(p.__rmod__, coeffs)), p, k)


def spectrum(s):
    """Census of squared distances over all unordered pairs: a dict
    distance -> pair count."""
    if len(s) < 2:
        raise TooFewPoints("spectrum needs at least 2 points")
    return dict(Counter(chain.from_iterable(s.pair_norms())))


class Equilateral:
    def __init__(self, delta):
        self.delta = delta

    def __eq__(self, other):
        return isinstance(other, Equilateral) and other.delta == self.delta

    def __repr__(self):
        return "Equilateral(%r)" % (self.delta,)


class TwoDistance:
    def __init__(self, a, b):
        self.values = frozenset((a, b))

    def __eq__(self, other):
        return isinstance(other, TwoDistance) and other.values == self.values

    def __repr__(self):
        return "TwoDistance(%s)" % ", ".join(map(repr, sorted(self.values)))


class Other:
    def __init__(self, value_count, has_zero):
        self.value_count = value_count
        self.has_zero = has_zero

    def __eq__(self, other):
        return (isinstance(other, Other) and other.value_count == self.value_count
                and other.has_zero == self.has_zero)

    def __repr__(self):
        return "Other(%d values, has_zero=%r)" % (self.value_count, self.has_zero)


def classify(s):
    """Equilateral / TwoDistance / Other from the exact census.

    Both definitions require nonzero values: a zero distance between
    distinct points (isotropic difference) always lands in Other.
    One-value sets are Equilateral, never a degenerate TwoDistance.
    """
    return classify_values(spectrum(s))


def classify_values(values):
    """classify for the set of distances of all pairs of a point set;
    elements are encodings, so the zero distance is 0."""
    vals = sorted(values)
    if not vals:
        raise TooFewPoints("no pair distances to classify")
    if vals[0] == 0:
        return Other(len(vals), True)
    if len(vals) == 1:
        return Equilateral(vals[0])
    if len(vals) == 2:
        return TwoDistance(vals[0], vals[1])
    return Other(len(vals), False)


def equilateral_upper(f, d):
    """Largest equilateral size consistent with the rank argument:
    d+2 when the characteristic divides d+2, else d+1."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return d + 2 if (d + 2) % f.p == 0 else d + 1


def blokhuis_bound(d):
    """The quadratic two-distance reference value C(d+2, 2).

    A reference, not an invariant: over small finite fields it can be
    exceeded (all 9 points of F_3^2 form a two-distance set).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.comb(d + 2, 2)


def bound_status(size, bound):
    """"exceeded", "attained" or "unreached": a set size against a
    bound value."""
    return ("exceeded" if size > bound else
            "attained" if size == bound else "unreached")
