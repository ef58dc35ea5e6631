import random

import pytest

from ffdist.field import field_make, SquareClass
from ffdist.linalg import (
    row_product, rank, gram_rank_law, diagonalize_form, isometry_to_standard,
    _represent_one, NotSymmetric, Degenerate, NotIsometric, LawViolated,
)

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


def congruence(f, b, g):
    """B^T G B by the naive product."""
    return naive_mul(f, naive_mul(f, transpose(b), g), b)


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


def random_symmetric(f, n, rng, zero_frac=0.0, zero_diagonal=False):
    e = [[f.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            e[i][j] = e[j][i] = random_entry(f, rng, zero_frac)
    return e


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


def test_product_matches_naive_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def factors(draw):
        f = _field(*draw(st.sampled_from(KERNEL_FIELDS)))
        rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
        entry = st.one_of(st.just(f.zero), st.integers(0, f.q - 1),
                          st.integers(f.q - 3, f.q - 1))

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

    check()


def test_diagonalize_already_diagonal():
    f5 = field_make(5)
    g = [[2, 0], [0, 3]]
    diag, cols = diagonalize_form(f5, g)
    assert diag == [2, 3]
    assert cols == identity(f5, 2)


def test_diagonalize_hyperbolic_plane():
    f5 = field_make(5)
    g = [[0, 1], [1, 0]]
    diag, cols = diagonalize_form(f5, g)
    assert congruence(f5, transpose(cols), g) == diagonal(f5, diag)
    # discriminant of the hyperbolic plane is the class of -1
    assert (f5.square_class(determinant(f5, diag))
            == f5.square_class(f5.neg(f5.one)))


def test_diagonalize_hyperplane_gram():
    # Gram of the basis {e1-e2, e2-e3, e3-e4} of the sum-zero
    # hyperplane in F_5^4; integer determinant 4, a square mod 5
    f5 = field_make(5)
    g = [[2, 4, 0], [4, 2, 4], [0, 4, 2]]
    diag, cols = diagonalize_form(f5, g)
    assert congruence(f5, transpose(cols), g) == diagonal(f5, diag)
    assert f5.square_class(determinant(f5, diag)) is SquareClass.SQUARE


def test_diagonalize_random_congruence():
    rng = random.Random(99)
    for f in (field_make(3), field_make(5), field_make(7), field_make(3, 2)):
        for _ in range(25):
            n = rng.randint(1, 4)
            g = random_symmetric(f, n, rng)
            diag, cols = diagonalize_form(f, g)
            assert rank(f, cols) == n  # invertible basis
            assert congruence(f, transpose(cols), g) == diagonal(f, diag)


def test_diagonalize_every_branch_up_to_n8():
    # A nonzero form with zero diagonal has no vector of nonzero norm
    # among the e_i, so its first step is the isotropic pair fix-up; a
    # rank-deficient form ends in the totally isotropic tail, which is
    # where the zero entries come from.
    rng = random.Random(2718)
    fixups = tails = 0
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        f = field_make(p, k)
        for n in range(1, 9):
            forms = [[[f.zero] * n for _ in range(n)]]
            for zero_frac in (0.0, 0.6, 0.9):
                forms.append(random_symmetric(f, n, rng, zero_frac))
                forms.append(random_symmetric(f, n, rng, zero_frac,
                                              zero_diagonal=True))
            for g in forms:
                diag, cols = diagonalize_form(f, g)
                assert rank(f, cols) == n
                assert congruence(f, transpose(cols), g) == diagonal(f, diag)
                r = rank(f, g)
                assert diag.count(f.zero) == n - r
                assert all(diag[:r])  # zeros only in the tail
                fixups += r > 0 and not any(g[i][i] for i in range(n))
                tails += r < n
    assert fixups >= 40 and tails >= 40


def test_diagonalize_rejects_asymmetric():
    f3 = field_make(3)
    with pytest.raises(NotSymmetric):
        diagonalize_form(f3, [[0, 1], [2, 0]])


@pytest.mark.parametrize("g", [
    [[1, 0, 0], [0, 1, 0]],  # non-square
    [[1, 0], [0, 1], [0, 0]],  # non-square, the other way
    [[1, 0], [0]],  # ragged
    [[1, 0, 2], [0, 1]],  # ragged, first row too long
])
def test_diagonalize_rejects_non_square_and_ragged(g):
    with pytest.raises(NotSymmetric):
        diagonalize_form(field_make(3), g)


def test_isometry_identity():
    f5 = field_make(5)
    g = identity(f5, 3)
    assert isometry_to_standard(f5, g) == g


def test_isometry_hyperplane_form_f5():
    f5 = field_make(5)
    g = [[2, 4, 0], [4, 2, 4], [0, 4, 2]]
    t = isometry_to_standard(f5, g)
    assert congruence(f5, t, g) == identity(f5, 3)


def test_isometry_obstruction_f3():
    # tridiagonal Gram of the sum-zero hyperplane basis in F_3^5:
    # integer determinant 5 = 2 mod 3, a nonsquare
    f3 = field_make(3)
    g = [[2, 2, 0, 0], [2, 2, 2, 0], [0, 2, 2, 2], [0, 0, 2, 2]]
    with pytest.raises(NotIsometric) as exc:
        isometry_to_standard(f3, g)
    assert exc.value.witness == 2
    assert exc.value.witness_class is SquareClass.NONSQUARE


def test_isometry_random_success_or_obstruction():
    rng = random.Random(4242)
    for f in (field_make(3), field_make(5), field_make(7)):
        for _ in range(30):
            n = rng.randint(1, 4)
            g = random_symmetric(f, n, rng)
            diag, _ = diagonalize_form(f, g)
            if f.zero in diag:
                with pytest.raises(Degenerate):
                    isometry_to_standard(f, g)
                continue
            disc = f.square_class(determinant(f, diag))
            try:
                t = isometry_to_standard(f, g)
            except NotIsometric:
                assert disc is SquareClass.NONSQUARE
            else:
                assert congruence(f, t, g) == identity(f, n)
                assert disc is SquareClass.SQUARE


def test_isometry_tridiagonal_gram_sizes():
    # the Gram matrices construct.embed_standard hands over, at sizes
    # where the O(n^3) diagonalization and sparse product matter
    for p, k, n in ((5, 1, 28), (13, 1, 22), (5, 2, 27), (7, 2, 12)):
        f = field_make(p, k)
        g = [[f.coerce({0: 2, 1: -1}.get(abs(i - j), 0)) for j in range(n)]
             for i in range(n)]
        t = isometry_to_standard(f, g)
        assert congruence(f, t, g) == identity(f, n)


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
