import random

import pytest

from ffdist.field import field_make, SquareClass
from ffdist.linalg import (
    dot, row_product, rank, gram_rank_law, diagonalize_form,
    isometry_to_standard, _represent_one, Degenerate, DimensionMismatch,
    NotIsometric, LawViolated,
)

from brute_force import diagonalize_form as plain_diagonalize_form
from test_geometry import _field

# GF(3, 7, 9, 25, 27, 49); 2^31 - 1 needs digits wider than 64 bits
PRODUCT_FIELDS = ((3, 1), (7, 1), (3, 2), (5, 2), (2**31 - 1, 1), (3, 3),
                  (7, 2))


def i_plus_j(f, size):
    two = f.add(f.one, f.one)
    return [[two if i == j else f.one for j in range(size)]
            for i in range(size)]


def identity(f, n):
    return diagonal(f, [f.one] * n)


def transpose(a):
    return [list(col) for col in zip(*a)]


def naive_mul(f, a, b):
    """Textbook triple-loop product of row lists, the oracle for the
    kernel row_product."""
    assert {len(b)} == set(map(len, a))
    cols = len(b[0])
    out = [[f.zero] * cols for _ in a]
    for i, row in enumerate(a):
        for j in range(cols):
            for t, x in enumerate(row):
                out[i][j] = f.add(out[i][j], f.mul(x, b[t][j]))
    return out


def kernel_product(f, a, b):
    """A B by the kernel, one row_product call per row of A."""
    row = row_product(f, b)
    return [row(x) for x in a]


def gram(f, vs):
    """The matrix of inner products dot(v_i, v_j), by the naive
    product."""
    return naive_mul(f, vs, transpose(vs))


def same_span(f, vs, ws):
    """Whether the rows of vs and ws span one space."""
    r = rank(f, vs)
    return rank(f, ws) == r == rank(f, vs + ws)


def hyperplane_basis(f, m):
    """The m - 1 vectors e_i - e_(i+1) of F_q^m, a basis of the sum-zero
    hyperplane."""
    return [[f.one if j == i else f.neg(f.one) if j == i + 1 else f.zero
             for j in range(m)] for i in range(m - 1)]


def diagonal(f, entries):
    n = len(entries)
    return [[entries[i] if i == j else f.zero for j in range(n)]
            for i in range(n)]


def determinant(f, diag):
    d = f.one
    for e in diag:
        d = f.mul(d, e)
    return d


def random_entry(f, rng, zero_frac):
    if zero_frac and rng.random() < zero_frac:
        return f.zero
    return rng.randrange(f.q)


def random_matrix(f, n, rng, cols=None, zero_frac=0.0):
    cols = n if cols is None else cols
    return [[random_entry(f, rng, zero_frac) for _ in range(cols)]
            for _ in range(n)]


def random_vectors(f, n, m, rng, zero_frac=0.0, isotropic=False):
    """n random vectors of length m, drawn until each has norm zero if
    isotropic."""
    vs = []
    while len(vs) < n:
        v = [random_entry(f, rng, zero_frac) for _ in range(m)]
        if not isotropic or dot(f, v, v) == f.zero:
            vs.append(v)
    return vs


def random_invertible(f, n, rng):
    while True:
        m = random_matrix(f, n, rng)
        if rank(f, m) == n:
            return m


def test_rank_examples():
    f3 = field_make(3)
    # size-2 I+J over F_3: det = 3 = 0 but matrix nonzero, so rank 1
    assert rank(f3, i_plus_j(f3, 2)) == 1
    assert rank(f3, i_plus_j(f3, 4)) == 4
    for d in (1, 3, 5):
        assert rank(f3, identity(f3, d)) == d
    assert rank(f3, [[f3.zero] * 3 for _ in range(3)]) == 0


def test_rank_rectangular():
    f5 = field_make(5)
    m = [[1, 2, 3], [2, 4, 2]]
    assert rank(f5, m) == 2
    m2 = [[1, 2, 3], [2, 4, 1]]  # second row = 2 * first mod 5
    assert rank(f5, m2) == 1


def test_gram_rank_law_examples():
    f3, f5 = field_make(3), field_make(5)
    assert gram_rank_law(3, f3) == 1
    assert gram_rank_law(6, f3) == 4
    assert gram_rank_law(7, f5) == 6


def test_gram_rank_law_closed_form_grid():
    for p in (3, 5, 7, 11):
        f = field_make(p)
        for n in range(2, 41):
            expected = n - 2 if n % p == 0 else n - 1
            assert gram_rank_law(n, f) == expected


def test_rank_invariance():
    rng = random.Random(7)
    for f in (field_make(3), field_make(5), field_make(3, 2)):
        for _ in range(20):
            n = rng.randint(1, 4)
            m = random_matrix(f, n, rng)
            r = rank(f, m)
            perm = list(range(n))
            rng.shuffle(perm)
            assert rank(f, [m[i] for i in perm]) == r
            t = random_invertible(f, n, rng)
            assert rank(f, kernel_product(f, t, m)) == r
            assert rank(f, kernel_product(f, m, t)) == r


def test_mul_matches_naive_product():
    rng = random.Random(31)
    for p, k in PRODUCT_FIELDS:
        f = field_make(p, k)
        for _ in range(40):
            rows, inner, cols = (rng.randint(1, 7) for _ in range(3))
            if rng.random() < 0.3:
                rows = inner = cols
            zero_frac = rng.choice((0.5, 0.7, 0.9))
            a = random_matrix(f, rows, rng, inner, zero_frac)
            b = random_matrix(f, inner, rng, cols, zero_frac)
            assert kernel_product(f, a, b) == naive_mul(f, a, b)


# the kernel's fields: every PRODUCT_FIELDS entry and GF(7^6), k = 6
KERNEL_FIELDS = PRODUCT_FIELDS + ((7, 6),)

# (p, k, inner dimension) whose digit bound n k (p-1)^2 (1 + (k-1)(p-1))
# has a bit length on either side of a digit width: 7, 8, 15, 16, 31, 32,
# 63 and 64 bits, and 65 past 8 bytes; there the multiply-shift
# reduction's constants are tightest
LANE_EDGES = [(5, 1, 7), (7, 1, 7), (181, 1, 1), (181, 1, 2),
              (18919, 1, 6), (46337, 1, 2), (2**31 - 1, 1, 2),
              (2**31 - 1, 1, 4), (2**31 - 1, 1, 8), (3, 2, 5), (3, 2, 10),
              (7, 2, 65), (7, 2, 130)]


def lane_edge_factors(p, k, n):
    """(p, k, a, b) for a LANE_EDGES entry.  The first row of a and
    column of b have every coefficient at p - 1, so one digit reaches
    the bound; for k = 1 two digits just below it are -1 and -2 mod p,
    where a wrong reduction constant errs first.  Also multiples of p
    and, for k = 1, integers outside [0, p)."""
    top = p**k - 1
    a = [[top] * n, [top] * (n - 1) + [(n + 1) % p], [p] * n,
         [j % (top + 1) for j in range(n)]]
    b = [[top, p, 1, top] for _ in range(n)]
    b[-1][-1] = n % p
    if k == 1:
        a += [[-1] * n, [2 * p - 1] * n, [-p] * n]
        b = [row + [-1, 3 * p - 1] for row in b]
    return p, k, a, b


def test_product_matches_naive_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def factors(draw):
        f = _field(*draw(st.sampled_from(KERNEL_FIELDS)))
        rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
        entry = st.one_of(st.just(f.zero), st.integers(0, f.q - 1),
                          st.integers(f.q - 3, f.q - 1))
        if f.k == 1:  # any integer is accepted and reduced mod p
            entry = st.one_of(entry, st.integers(-2**70, -1),
                              st.integers(f.p, 2**70))

        def matrix(r, c):  # some rows all zero
            line = st.one_of(st.just([f.zero] * c),
                             st.lists(entry, min_size=c, max_size=c))
            return [draw(line) for _ in range(r)]
        return f, matrix(rows, inner), matrix(inner, cols)

    def triple(p, k, a, b):
        return _field(p, k), a, b

    top, big = 7**6 - 1, 2**31 - 2

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(factors())
    # inner dimension 1 at k = 6; a single column and an all-zero row;
    # digits wider than 64 bits
    @hypothesis.example(triple(7, 6, [[top], [0], [1234]], [[top, 1, 0, 7]]))
    @hypothesis.example(triple(5, 2, [[0, 0, 0], [24, 5, 1]],
                               [[24], [24], [7]]))
    @hypothesis.example(triple(2**31 - 1, 1, [[big] * 6], [[big]] * 6))
    def check(fab):
        f, a, b = fab
        want = naive_mul(f, a, b)
        assert kernel_product(f, a, b) == want
        row = row_product(f, b)
        for i, r in enumerate(a):
            for start in range(len(b[0]) + 1):
                assert row(r, start) == want[i][start:]

    for edge in LANE_EDGES:
        check = hypothesis.example(triple(*lane_edge_factors(*edge)))(check)
    check()


def test_row_starts_in_any_order_past_the_cut():
    # row drops the packed columns below a growing start, 64 at a time;
    # a later start, smaller or larger or past the end, still reads the
    # exact entries
    rng = random.Random(5)
    for p, k in ((7, 1), (5, 2)):
        f = field_make(p, k)
        a = random_matrix(f, 3, rng, 4)
        b = random_matrix(f, 4, rng, 200)
        want = naive_mul(f, a, b)
        row = row_product(f, b)
        for start in (0, 63, 64, 65, 130, 199, 200, 201, 70, 0, 140, 5):
            for i, r in enumerate(a):
                assert row(r, start) == want[i][start:]


def test_diagonalize_already_diagonal():
    # (1, 1, 0) and (1, 4, 1) are orthogonal in F_5^3, of norms 2 and 3
    f5 = field_make(5)
    vs = [[1, 1, 0], [1, 4, 1]]
    diag, ws = diagonalize_form(f5, vs)
    assert diag == [2, 3]
    assert ws == vs


def test_diagonalize_hyperbolic_plane():
    # (1, 2) and (3, 4) are isotropic in F_5^2 with inner product 1
    f5 = field_make(5)
    vs = [[1, 2], [3, 4]]
    assert gram(f5, vs) == [[0, 1], [1, 0]]
    diag, ws = diagonalize_form(f5, vs)
    assert gram(f5, ws) == diagonal(f5, diag)
    assert same_span(f5, vs, ws)
    # discriminant of the hyperbolic plane is the class of -1
    assert (f5.square_class(determinant(f5, diag))
            == f5.square_class(f5.neg(f5.one)))


def test_diagonalize_hyperplane_gram():
    # the basis {e1-e2, e2-e3, e3-e4} of the sum-zero hyperplane in
    # F_5^4; its Gram determinant is 4, a square mod 5
    f5 = field_make(5)
    vs = hyperplane_basis(f5, 4)
    diag, ws = diagonalize_form(f5, vs)
    assert gram(f5, ws) == diagonal(f5, diag)
    assert same_span(f5, vs, ws)
    assert f5.square_class(determinant(f5, diag)) is SquareClass.SQUARE


def test_diagonalize_random_congruence():
    rng = random.Random(99)
    for f in (field_make(3), field_make(5), field_make(7), field_make(3, 2)):
        for _ in range(25):
            n = rng.randint(1, 4)
            vs = random_vectors(f, n, rng.randint(1, 5), rng)
            diag, ws = diagonalize_form(f, vs)
            assert len(ws) == n and same_span(f, vs, ws)
            assert gram(f, ws) == diagonal(f, diag)


def test_diagonalize_every_branch_up_to_n8():
    # A set of isotropic vectors that is not totally isotropic has no
    # vector of nonzero norm, so its first step is the pair fix-up; a
    # set whose Gram matrix is singular (dependent vectors, or a radical
    # in their span) ends in the totally isotropic tail, which is where
    # the zero entries come from.
    rng = random.Random(2718)
    fixups = tails = 0
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        f = field_make(p, k)
        for n in range(1, 9):
            m = rng.randint(max(1, n - 2), n + 2)
            sets = [[[f.zero] * m for _ in range(n)]]
            for zero_frac in (0.0, 0.6, 0.9):
                sets.append(random_vectors(f, n, m, rng, zero_frac))
                sets.append(random_vectors(f, n, m, rng, zero_frac,
                                           isotropic=True))
            for vs in sets:
                diag, ws = diagonalize_form(f, vs)
                assert (diag, ws) == plain_diagonalize_form(f, vs)
                assert len(ws) == n and same_span(f, vs, ws)
                assert gram(f, ws) == diagonal(f, diag)
                r = rank(f, gram(f, vs))
                assert diag.count(f.zero) == n - r
                assert all(diag[:r])  # zeros only in the tail
                fixups += r > 0 and not any(dot(f, v, v) for v in vs)
                tails += r < n
    assert fixups >= 40 and tails >= 40


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2),
                                 (5, 2)])
def test_diagonalize_masks_match_plain_on_hyperplane_bases(p, k):
    # the support masks skip only dots that are exactly zero, so the
    # pivots, fix-ups and outputs are those of the plain elimination
    f = field_make(p, k)
    for m in (2, 3, 4, 7, 12, 30):
        basis = hyperplane_basis(f, m)
        assert diagonalize_form(f, basis) == plain_diagonalize_form(f, basis)


def test_diagonalize_any_number_of_vectors():
    # fewer vectors than coordinates, and more (a dependent set, which
    # ends in a zero vector of zero norm)
    f3 = field_make(3)
    assert diagonalize_form(f3, [[1, 0, 0], [0, 1, 0]]) == (
        [1, 1], [[1, 0, 0], [0, 1, 0]])
    assert diagonalize_form(f3, [[1, 0], [0, 1], [0, 0]]) == (
        [1, 1, 0], [[1, 0], [0, 1], [0, 0]])


@pytest.mark.parametrize("g", [  # the generating vectors
    [[1, 0], [0, 1, 0]],  # a longer vector after a shorter one
    [[1, 0], [0, 1], []],  # an empty vector last
    [[1, 0], [0]],  # a shorter vector last
    [[1, 0, 2], [0, 1]],  # first vector too long
])
def test_diagonalize_rejects_non_square_and_ragged(g):
    # vectors of unequal length, however many there are
    with pytest.raises(DimensionMismatch):
        diagonalize_form(field_make(3), g)
    with pytest.raises(DimensionMismatch):
        isometry_to_standard(field_make(3), g)


def test_isometry_identity():
    f5 = field_make(5)
    vs = identity(f5, 3)
    assert isometry_to_standard(f5, vs) == vs


def test_isometry_hyperplane_form_f5():
    f5 = field_make(5)
    vs = hyperplane_basis(f5, 4)
    ws = isometry_to_standard(f5, vs)
    assert gram(f5, ws) == identity(f5, 3)
    assert same_span(f5, vs, ws)


def test_isometry_obstruction_f3():
    # the sum-zero hyperplane basis in F_3^5: its Gram determinant is
    # 5 = 2 mod 3, a nonsquare
    f3 = field_make(3)
    with pytest.raises(NotIsometric) as exc:
        isometry_to_standard(f3, hyperplane_basis(f3, 5))
    assert exc.value.witness == 2
    assert exc.value.witness_class is SquareClass.NONSQUARE


def test_isometry_random_success_or_obstruction():
    rng = random.Random(4242)
    for f in (field_make(3), field_make(5), field_make(7)):
        for _ in range(30):
            n = rng.randint(1, 4)
            vs = random_vectors(f, n, rng.randint(n, n + 2), rng, 0.3,
                                isotropic=rng.random() < 0.3)
            diag, _ = diagonalize_form(f, vs)
            if f.zero in diag:
                with pytest.raises(Degenerate):
                    isometry_to_standard(f, vs)
                continue
            disc = f.square_class(determinant(f, diag))
            try:
                ws = isometry_to_standard(f, vs)
            except NotIsometric:
                assert disc is SquareClass.NONSQUARE
            else:
                assert gram(f, ws) == identity(f, n)
                assert same_span(f, vs, ws)
                assert disc is SquareClass.SQUARE


def test_isometry_tridiagonal_gram_sizes():
    # the hyperplane bases construct.embed_standard hands over (Gram
    # matrix tridiagonal), at sizes where the O(n^2 m) orthogonalization
    # and sparse updates matter
    for p, k, n in ((5, 1, 28), (13, 1, 22), (5, 2, 27), (7, 2, 12)):
        f = field_make(p, k)
        vs = hyperplane_basis(f, n + 1)
        ws = isometry_to_standard(f, vs)
        assert gram(f, ws) == identity(f, n)
        assert same_span(f, vs, ws)


def test_represent_one_failure_is_law_violation(monkeypatch):
    f5 = field_make(5)
    assert _represent_one(f5, 2, 2) == (2, 2)  # 2*4 + 2*4 = 16 = 1
    monkeypatch.setattr(f5, "sqrt", lambda a: None)
    with pytest.raises(LawViolated):
        _represent_one(f5, 2, 2)


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(1618)
    for p in (3, 5, 7, 13):
        f = field_make(p)
        domain = sympy.GF(p)
        for _ in range(30):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = random_matrix(f, rows, rng, cols,
                              zero_frac=rng.choice((0.0, 0.5, 0.8)))
            oracle = DomainMatrix([[domain(x) for x in row] for row in m],
                                  (rows, cols), domain)
            assert rank(f, m) == oracle.rank()
