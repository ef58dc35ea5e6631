"""Point sets over finite fields and the squared-distance census.

"Distance" always means the squared quantity sum((x_i - y_i)^2); there
are no square roots over a finite field.  Point sets either live in the
full standard space or in the sum-zero hyperplane of the ambient space;
either way distances are evaluated in ambient coordinates.
"""

import math

from .linalg import MatrixF, rank, dot, DimensionMismatch


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
        seen = set()
        for p in self.points:
            if len(p) != ambient_dim:
                raise DimensionMismatch("point of wrong length")
            if p in seen:
                raise ValueError("points must be pairwise distinct")
            seen.add(p)
        if form == FORM_SUM_ZERO:
            for p in self.points:
                s = field.zero
                for c in p:
                    s = field.add(s, c)
                if s != field.zero:
                    raise OffHyperplane("point off the sum-zero hyperplane")
        elif form != FORM_STANDARD:
            raise ValueError("unknown form %r" % form)

    def __len__(self):
        return len(self.points)

    def dimension(self):
        return self.ambient_dim - (1 if self.form == FORM_SUM_ZERO else 0)


def dist2(f, x, y):
    """Squared distance sum((x_i - y_i)^2), exact in the field."""
    if len(x) != len(y):
        raise DimensionMismatch("points of different length")
    acc = f.zero
    for a, b in zip(x, y):
        d = f.sub(a, b)
        acc = f.add(acc, f.mul(d, d))
    return acc


class Spectrum:
    """Census of squared distances over all unordered pairs."""

    def __init__(self, values, has_zero):
        self.values = values  # dict: distance -> pair count
        self.has_zero = has_zero


def spectrum(s):
    if len(s) < 2:
        raise TooFewPoints("spectrum needs at least 2 points")
    f = s.field
    values = {}
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            d = dist2(f, s.points[i], s.points[j])
            values[d] = values.get(d, 0) + 1
    return Spectrum(values, f.zero in values)


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
        return "TwoDistance(%s)" % ", ".join(map(repr, sorted(self.values, key=str)))


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
    sp = spectrum(s)
    vals = sorted(sp.values)
    if sp.has_zero:
        return Other(len(vals), True)
    if len(vals) == 1:
        return Equilateral(vals[0])
    if len(vals) == 2:
        return TwoDistance(vals[0], vals[1])
    return Other(len(vals), False)


def gram(s):
    """Gram matrix of v_i = P_i - P_0 under the standard bilinear form.

    For an equilateral set with common value delta this is the
    (n-1)x(n-1) matrix with diagonal delta and off-diagonal delta/2,
    i.e. (delta/2)(I+J) -- the source of the rank bound.
    """
    if len(s) < 2:
        raise TooFewPoints("gram needs at least 2 points")
    f = s.field
    p0 = s.points[0]
    vs = [tuple(f.sub(a, b) for a, b in zip(p, p0)) for p in s.points[1:]]
    return MatrixF(f, [[dot(f, u, v) for v in vs] for u in vs])


def gram_rank(s):
    return rank(gram(s))


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
