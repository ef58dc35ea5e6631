"""Exact dense linear algebra over a finite field.

Matrices are small and dense (desk scale: dimension a few dozen at
most); rank is plain Gaussian elimination with any nonzero pivot, the
only elimination in the package.  Symmetric forms are diagonalized by
congruence, compared by discriminant square class, and mapped onto the
standard form when the discriminant permits.
"""

from .field import SquareClass


class NotSymmetric(ValueError):
    pass


class Degenerate(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class FieldMismatch(ValueError):
    pass


class LawViolated(ArithmeticError):
    """An exact identity the mathematics guarantees did not hold; this
    means a bug, never bad input, and is raised even under python -O."""


class NotIsometric(ValueError):
    """No congruence to the identity form exists.

    Carries the obstruction: `witness` is a nonsquare diagonal entry
    left over after pairing, `witness_class` its square class.
    """

    def __init__(self, field, witness):
        self.field = field
        self.witness = witness
        self.witness_class = field.square_class(witness)
        super().__init__(
            "form is not isometric to the standard form; "
            "leftover square class witness %r" % (field.serialize(witness),))


class MatrixF:
    """Dense matrix over a Field; entries row-major, already reduced."""

    def __init__(self, field, entries):
        self.field = field
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged rows")

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero
                            for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, [[field.zero] * cols for _ in range(rows)])

    def __eq__(self, other):
        return (isinstance(other, MatrixF) and self.field == other.field
                and self.entries == other.entries)

    def __repr__(self):
        return "MatrixF(%r, %r)" % (self.field, self.entries)

    def transpose(self):
        return MatrixF(self.field,
                       [[self.entries[i][j] for i in range(self.rows)]
                        for j in range(self.cols)])

    def mul(self, other):
        f = self.field
        if f != other.field:
            raise FieldMismatch("matrix product across different fields")
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = f.zero
                for t in range(self.cols):
                    acc = f.add(acc, f.mul(self.entries[i][t],
                                           other.entries[t][j]))
                row.append(acc)
            out.append(row)
        return MatrixF(f, out)

    def is_symmetric(self):
        return (self.rows == self.cols
                and all(self.entries[i][j] == self.entries[j][i]
                        for i in range(self.rows) for j in range(i)))


def dot(f, u, v):
    """Standard bilinear form sum(u_i v_i), exact in the field; zero
    coordinates are skipped, so sparse vectors cost less."""
    acc = f.zero
    for a, b in zip(u, v):
        if a and b:
            acc = f.add(acc, f.mul(a, b))
    return acc


def rank(m):
    """Rank by Gaussian elimination; exact, any nonzero pivot works."""
    f = m.field
    a = [row[:] for row in m.entries]
    r = 0
    for c in range(m.cols):
        pivot = None
        for i in range(r, m.rows):
            if a[i][c] != f.zero:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(x, inv) for x in a[r]]
        for i in range(r + 1, m.rows):
            factor = a[i][c]
            if factor != f.zero:
                a[i] = [f.sub(x, f.mul(factor, y))
                        for x, y in zip(a[i], a[r])]
        r += 1
        if r == m.rows:
            break
    return r


def gram_rank_law(n, f):
    """Rank of the (n-1)x(n-1) matrix I+J over f.

    The result is checked against the closed form n-2 (characteristic
    divides n) / n-1 (otherwise); a discrepancy raises LawViolated.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    one, two = f.one, f.add(f.one, f.one)
    m = MatrixF(f, [[two if i == j else one for j in range(n - 1)]
                    for i in range(n - 1)])
    r = rank(m)
    expected = n - 2 if n % f.p == 0 else n - 1
    if r != expected:
        raise LawViolated("rank law violated: got %d for n=%d over %r"
                          % (r, n, f))
    return r


class DiagForm:
    """Diagonalized symmetric form: basis B with B^T G B = diag(entries)."""

    def __init__(self, field, entries, basis):
        self.field = field
        self.entries = list(entries)
        self.basis = basis

    def determinant(self):
        d = self.field.one
        for e in self.entries:
            d = self.field.mul(d, e)
        return d

    def is_degenerate(self):
        return any(e == self.field.zero for e in self.entries)


def _form_value(g, u, v):
    f = g.field
    return dot(f, u, [dot(f, row, v) for row in g.entries])


def diagonalize_form(g):
    """Congruence diagonalization of a symmetric matrix.

    Standard orthogonalization: pick a vector of nonzero norm, project
    it out of the rest, recurse.  If every remaining vector has zero
    norm but some pair has nonzero inner product, u := u+v creates a
    nonzero norm (needs odd characteristic, which the field guarantees).
    """
    if not g.is_symmetric():
        raise NotSymmetric("form matrix must be symmetric")
    f = g.field
    n = g.rows
    remaining = [[f.one if i == j else f.zero for j in range(n)]
                 for i in range(n)]
    basis_cols = []
    diag = []
    while remaining:
        pivot = None
        for idx, v in enumerate(remaining):
            if _form_value(g, v, v) != f.zero:
                pivot = idx
                break
        if pivot is None:
            fixed = False
            for i in range(len(remaining)):
                for j in range(i + 1, len(remaining)):
                    if _form_value(g, remaining[i], remaining[j]) != f.zero:
                        remaining[i] = [f.add(x, y) for x, y in
                                        zip(remaining[i], remaining[j])]
                        pivot = i
                        fixed = True
                        break
                if fixed:
                    break
        if pivot is None:
            # remaining space is totally isotropic: zero diagonal block
            basis_cols.extend(remaining)
            diag.extend([f.zero] * len(remaining))
            break
        v = remaining.pop(pivot)
        d = _form_value(g, v, v)
        basis_cols.append(v)
        diag.append(d)
        dinv = f.inv(d)
        for idx, u in enumerate(remaining):
            c = f.mul(_form_value(g, u, v), dinv)
            if c != f.zero:
                remaining[idx] = [f.sub(x, f.mul(c, y)) for x, y in zip(u, v)]
    basis = MatrixF(f, [[basis_cols[j][i] for j in range(n)]
                        for i in range(n)])
    return DiagForm(f, diag, basis)


def form_equivalent(d1, d2):
    """Nondegenerate diagonal forms over the same finite field are
    equivalent iff same dimension and same discriminant square class."""
    if d1.field != d2.field:
        raise FieldMismatch("forms over different fields")
    if len(d1.entries) != len(d2.entries):
        raise DimensionMismatch("forms of different dimension")
    if d1.is_degenerate() or d2.is_degenerate():
        raise Degenerate("form equivalence needs nondegenerate forms")
    f = d1.field
    return f.square_class(d1.determinant()) == f.square_class(d2.determinant())


def _represent_one(f, a, b):
    """The (x, y) with a x^2 + b y^2 = 1 of least x, y the smaller root;
    exists for any nondegenerate binary form over a finite field."""
    for x in f.elements():
        ax2 = f.mul(a, f.mul(x, x))
        rest = f.sub(f.one, ax2)
        # need b y^2 = rest
        target = f.mul(rest, f.inv(b))
        y = f.sqrt(target)
        if y is not None:
            return x, y
    raise AssertionError("binary form failed to represent 1")


def isometry_to_standard(g):
    """T with T^T G T = I, or NotIsometric carrying the obstruction.

    Diagonalize, rescale square entries by an inverse square root, and
    absorb nonsquare entries two at a time: if a, b are nonsquares and
    a x^2 + b y^2 = 1, the columns (x, y) and s(-b y, a x) with
    s = 1/sqrt(ab) are orthonormal for diag(a, b) (ab is a square).
    A single unpaired nonsquare is exactly the discriminant obstruction.
    """
    f = g.field
    d = diagonalize_form(g)
    if d.is_degenerate():
        raise Degenerate("form is degenerate")
    n = len(d.entries)
    cols = [[d.basis.entries[i][j] for i in range(n)] for j in range(n)]
    square_idx = []
    nonsquare_idx = []
    for i, e in enumerate(d.entries):
        if f.square_class(e) is SquareClass.SQUARE:
            square_idx.append(i)
        else:
            nonsquare_idx.append(i)
    if len(nonsquare_idx) % 2 == 1:
        raise NotIsometric(f, d.entries[nonsquare_idx[-1]])
    for i in square_idx:
        root = f.sqrt(d.entries[i])
        scale = f.inv(root)
        cols[i] = [f.mul(scale, x) for x in cols[i]]
    for i, j in zip(nonsquare_idx[::2], nonsquare_idx[1::2]):
        a, b = d.entries[i], d.entries[j]
        x, y = _represent_one(f, a, b)
        ci, cj = cols[i], cols[j]
        new_i = [f.add(f.mul(x, u), f.mul(y, v)) for u, v in zip(ci, cj)]
        s = f.inv(f.sqrt(f.mul(a, b)))
        mby = f.mul(s, f.neg(f.mul(b, y)))
        ax = f.mul(s, f.mul(a, x))
        new_j = [f.add(f.mul(mby, u), f.mul(ax, v)) for u, v in zip(ci, cj)]
        cols[i], cols[j] = new_i, new_j
    t = MatrixF(f, [[cols[j][i] for j in range(n)] for i in range(n)])
    if t.transpose().mul(g).mul(t) != MatrixF.identity(f, n):
        raise LawViolated("T^T G T is not the identity")
    return t
