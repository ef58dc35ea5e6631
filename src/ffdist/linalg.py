"""Exact dense linear algebra over a finite field.

A matrix is a list of rows of field encodings, with the field passed
beside it.  Every bulk product (the embedding map, the pair-norm
census) is one kernel, row_product: row i of A B is sum_t a_it (row t
of B), read off one big-int sum (Kronecker substitution).  An
element's k coefficients, its lanes, are the digits of one int
(Field.lanes; for k = 1 the element mod p), and row t of B packs entry
j's lanes into block j of 2k - 1 digits.  a_it's lanes times that int
put the product polynomial in Z[t] into each block of the sum, each
digit at most n k (p-1)^2 for inner dimension n.  For k > 1 the
digits of t^k .. t^(2k-2) are folded into the low k by one big-int
linear map, a table of t^s mod the modulus, which multiplies that bound
by at most 1 + (k-1)(p-1).  Digits are w = 8, 16, 32 or a multiple of
64 bits wide, a bit over b, the bit length of that bound and of q - 1.

The sum is reduced mod p in a few whole-row operations (SIMD within a
register): masks split its even and odd digits into 2w-bit lanes, and
x - ((x M >> s) & mask) p = x mod p on each digit x < 2^b for s = b +
bitlen(p) and M = ceil(2^s / p) (Granlund and Montgomery, PLDI 1994).
It is exact as e = M p - 2^s < p < 2^(s - b): x M / 2^s exceeds x/p by
x e / (p 2^s) < 1/p, too little to reach the next integer, and x M <
2^(2b + 1) + 2^b <= 2^(2w) stays in its lane.  The coefficients
weighted by p^s are the encodings, read off by one to_bytes and one
strided memoryview; calls with a growing start drop the columns below
it, 64 at a time.  dot is the pairwise form for single vectors, and
vector_lanes adds and halves whole vectors in the same kind of lanes.

Rank is plain Gaussian elimination with any nonzero pivot, the only
elimination in the package.  The standard form restricted to the span
of some vectors is diagonalized by orthogonalizing them in O(n^2 m)
for n vectors of length m, and mapped onto the standard form (an
orthonormal basis of the span) when the discriminant permits.
"""

import sys
from itertools import repeat
from operator import add, mul
from struct import Struct, calcsize


class Degenerate(ValueError):
    pass


class DimensionMismatch(ValueError):
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


def dot(f, u, v):
    """Standard bilinear form sum(u_i v_i), exact in the field; zero
    coordinates are skipped, so sparse vectors cost less."""
    acc = f.zero
    for a, b in zip(u, v):
        if a and b:
            acc = f.add(acc, f.mul(a, b))
    return acc


def lane_format(bits):
    """Bytes per lane for values below 2^bits, a bit to spare (1, 2, 4
    or a run of 8-byte words), and the struct code of its low word."""
    width = next((b for b in (1, 2, 4) if 8 * b > bits), bits // 64 * 8 + 8)
    return width, {1: "B", 2: "H", 4: "I"}.get(width, "Q")


def horner(digits, base, k):
    """sum_s c_s base^s of each run c_0 .. c_(k-1) of k digits (for
    base p, encodings), in one mapped pass per digit position."""
    codes = digits[k - 1::k]
    for s in range(k - 2, -1, -1):
        codes = list(map(add, map(mul, codes, repeat(base)), digits[s::k]))
    return codes


def row_product(f, b_rows):
    """The function (a, start=0) -> entries start, start + 1, ... of
    the row vector a times the matrix with rows b_rows, over f (see the
    module doc).  Entries of a and b_rows may be any integers when k = 1;
    they are reduced mod p."""
    p, k = f.p, f.k
    n, cols = len(b_rows), len(b_rows[0]) if b_rows else 0
    span = 2 * k - 1  # digits per entry: the product has degree 2k - 2
    # bit length of the largest digit after the fold, and of an encoding
    bits = max(n * k * (p - 1) ** 2 * (1 + (k - 1) * (p - 1)),
               f.q - 1).bit_length()
    width, fmt = lane_format(bits)
    w, order = 8 * width, sys.byteorder
    words = width // calcsize(fmt)  # each digit is read at its low word
    # an entry's coefficients as digits 0..k-1 of one int, and for k > 1
    # as the bytes of span digits
    lanes = f.lanes(w).__getitem__ if k > 1 else p.__rmod__
    digits = f.lanes(w, span * width).__getitem__ if k > 1 else None

    def pack(row):  # entry j as block j, digits j span .. j span + k - 1
        return int.from_bytes(b"".join(
            map(digits, row) if k > 1 else
            map(int.to_bytes, map(lanes, row), repeat(width), repeat(order))),
            order)
    terms = list(map(pack, b_rows))
    blocks = ((1 << w * span * cols) - 1) // ((1 << w * span) - 1)
    low = blocks * ((1 << w) - 1)  # digit 0 of every block
    keep = blocks * ((1 << w * k) - 1)  # digits 0..k-1
    # t^s mod the modulus, s = k..2k-2, as k digits from digit 0
    folds = [lanes(f.pow(p, s)) for s in range(k, span)]
    powers = [p**s for s in range(k)]
    # x mod p in every 2w-bit lane at once (Granlund-Montgomery)
    shift = bits + p.bit_length()
    magic = -(-(1 << shift) // p)  # ceil(2^shift / p)
    pairs = (((1 << 2 * w * ((cols * span + 1) // 2)) - 1)
             // ((1 << 2 * w) - 1))  # 1 in every 2w-bit lane
    even = pairs * ((1 << w) - 1)
    quotient = pairs * ((1 << 2 * w - shift) - 1)

    def mod_p(x):
        return x - (x * magic >> shift & quotient) * p
    cut, cut_terms = 0, terms  # the terms without their cut low columns

    def row(a, start=0):
        nonlocal cut, cut_terms
        if start < cut:
            cut, cut_terms = 0, terms
        elif start - cut >= 64:
            drop, cut = w * span * (min(start, cols) - cut), min(start, cols)
            cut_terms = [t >> drop for t in cut_terms]
        acc = sum(map(mul, map(lanes, a), cut_terms))
        acc = (acc & keep) + sum(map(mul, [acc >> w * s & low for s in
                                           range(k, span)], folds))
        acc = mod_p(acc & even) | mod_p(acc >> w & even) << w
        # the encodings sum c_s p^s, in every block at once
        acc = sum(map(mul, [acc >> w * s & low for s in range(k)], powers))
        raw = acc.to_bytes((cols - cut) * span * width, order)
        first = (start - cut) * span * words
        return memoryview(raw).cast(fmt)[first::span * words].tolist()
    return row


def vector_lanes(f, m):
    """(pack, add, halve, unpack, minus) for m-vectors over f as ints,
    coefficient s of coordinate j in lane j k + s, w >= bitlen(p) + 2
    bits wide and wide enough for an encoding (SIMD within a register).
    pack and unpack convert tuples of encodings.  add(a, b) = a + b for
    lanes of a below p and of b up to p, so add(a, minus - b) = a - b: p
    leaves each lane whose sum s sets its top bit in s + 2^(w-1) - p.
    halve(a) = a / 2 for lanes below p: a + p (a & 1) is even in each."""
    p, k = f.p, f.k
    width, fmt = lane_format(max(p.bit_length() + 1,
                                 (f.q - 1).bit_length() - 1))
    w, order, size = 8 * width, sys.byteorder, m * k * width
    ones = ((1 << 8 * size) - 1) // ((1 << w) - 1)
    tops, excess = ones << w - 1, ones * ((1 << w - 1) - p)
    low = ((1 << 8 * size) - 1) // ((1 << w * k) - 1) * ((1 << w) - 1)
    # lane 0 of each coordinate (every lane for k = 1), in native order
    layout = Struct("=" + (fmt + "%dx" % ((k - 1) * width)) * m)
    codes = f.lanes(w, k * width).__getitem__ if k > 1 else None

    def pack(v):  # for k > 1 an encoding's k lanes from a table of bytes
        return int.from_bytes(b"".join(map(codes, v)) if k > 1
                              else layout.pack(*v), order)

    def add(a, b):
        s = a + b
        return s - ((s + excess & tops) >> w - 1) * p

    def halve(a):
        return a + p * (a & ones) >> 1

    def unpack(x):
        if k > 1:  # encodings sum c_s p^s by Horner, in lane 0 of each
            acc = 0
            for shift in range(w * (k - 1), -1, -w):
                acc = acc * p + (x >> shift & low)
            x = acc
        return layout.unpack(x.to_bytes(size, order))
    return pack, add, halve, unpack, p * ones


def rank(f, rows):
    """Rank by Gaussian elimination; exact, any nonzero pivot works."""
    a = [list(row) for row in rows]
    n_rows, r = len(a), 0
    for c in range(len(a[0]) if a else 0):
        pivot = None
        for i in range(r, n_rows):
            if a[i][c] != f.zero:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(x, inv) for x in a[r]]
        for i in range(r + 1, n_rows):
            factor = a[i][c]
            if factor != f.zero:
                a[i] = [f.sub(x, f.mul(factor, y))
                        for x, y in zip(a[i], a[r])]
        r += 1
        if r == n_rows:
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
    r = rank(f, [[two if i == j else one for j in range(n - 1)]
                 for i in range(n - 1)])
    expected = n - 2 if n % f.p == 0 else n - 1
    if r != expected:
        raise LawViolated("rank law violated: got %d for n=%d over %r"
                          % (r, n, f))
    return r


def diagonalize_form(f, vectors):
    """Orthogonalize vectors of one length under dot in O(n^2 m): (diag,
    ws), ws spanning what vectors span, with dot(w_i, w_j) = diag[i] if
    i = j, else 0.

    Standard orthogonalization: pick a vector of nonzero norm, project
    it out of the rest, recurse.  If every remaining vector has zero
    norm but some pair has nonzero inner product, u := u+v creates a
    nonzero norm (needs odd characteristic, which the field guarantees).
    Each vector carries an int mask over its nonzero coordinates (a
    superset once entries cancel); dot runs only where two masks meet,
    since elsewhere it is exactly zero, so sparse inputs such as the
    e_i - e_(i+1) stay cheap.
    """
    remaining = [list(v) for v in vectors]
    if len(set(map(len, remaining))) > 1:
        raise DimensionMismatch("vectors must have one length")
    masks = [sum(1 << j for j, x in enumerate(v) if x) for v in remaining]

    def add_multiple(i, c, v, mask):  # u_i += c v, v nonzero on mask
        remaining[i] = [f.add(x, f.mul(c, y)) if y else x
                        for x, y in zip(remaining[i], v)]
        masks[i] |= mask

    ws = []
    diag = []
    while remaining:
        pivot, d = next(((i, d) for i, u in enumerate(remaining)  # norm d
                         if masks[i] and (d := dot(f, u, u))), (None, None))
        if pivot is None:
            pivot, j, b = next(((i, j, b) for i in range(len(remaining))
                                for j in range(i + 1, len(remaining))
                                if masks[i] & masks[j]
                                and (b := dot(f, remaining[i], remaining[j]))),
                               (None, None, None))
            if pivot is None:
                # remaining span is totally isotropic: zero diagonal block
                ws.extend(remaining)
                diag.extend([f.zero] * len(remaining))
                break
            add_multiple(pivot, f.one, remaining[j], masks[j])
            d = f.add(b, b)  # Q(u + v) = 2 u.v, as Q(u) = Q(v) = 0 here
        v = remaining.pop(pivot)
        mask = masks.pop(pivot)
        ws.append(v)
        diag.append(d)
        minus_dinv = f.neg(f.inv(d))
        for idx, u in enumerate(remaining):
            if masks[idx] & mask:
                c = f.mul(dot(f, u, v), minus_dinv)
                if c != f.zero:
                    add_multiple(idx, c, v, mask)
    return diag, ws


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
    raise LawViolated("binary form failed to represent 1")


def isometry_to_standard(f, vectors):
    """An orthonormal basis under dot of the span of linearly independent
    vectors of one length: Degenerate if dot is degenerate on the span,
    NotIsometric carrying the obstruction if no such basis exists.

    Diagonalize, rescale square entries by an inverse square root, and
    absorb nonsquare entries two at a time: if a, b are nonsquares and
    a x^2 + b y^2 = 1, the combinations (x, y) and s(-b y, a x) with
    s = 1/sqrt(ab) are orthonormal for diag(a, b) (ab is a square).
    A single unpaired nonsquare is exactly the discriminant obstruction.
    The caller checks orthonormality and the round trip of the points
    it maps (embed_standard does both).
    """
    diag, ws = diagonalize_form(f, vectors)
    if f.zero in diag:
        raise Degenerate("form is degenerate")
    nonsquare_idx = []
    for i, e in enumerate(diag):
        root = f.sqrt(e)  # None for a nonsquare
        if root is None:
            nonsquare_idx.append(i)
        else:
            scale = f.inv(root)
            ws[i] = [f.mul(scale, x) if x else x for x in ws[i]]
    if len(nonsquare_idx) % 2 == 1:
        raise NotIsometric(f, diag[nonsquare_idx[-1]])
    for i, j in zip(nonsquare_idx[::2], nonsquare_idx[1::2]):
        a, b = diag[i], diag[j]
        x, y = _represent_one(f, a, b)
        s = f.inv(f.sqrt(f.mul(a, b)))
        mby = f.mul(s, f.neg(f.mul(b, y)))
        ax = f.mul(s, f.mul(a, x))
        wi, wj = ws[i], ws[j]  # both stay zero off the two supports
        ws[i] = [f.add(f.mul(x, u), f.mul(y, v)) if u or v else u
                 for u, v in zip(wi, wj)]
        ws[j] = [f.add(f.mul(mby, u), f.mul(ax, v)) if u or v else u
                 for u, v in zip(wi, wj)]
    return ws
