import random

import pytest

from ffdist.field import (
    field_make, SquareClass,
    NotPrime, EvenCharacteristic, ReducibleModulus, DivisionByZero,
    _poly_mod, _poly_mul, _poly_trim,
)

from brute_force import nonsquare_representative


def small_fields():
    return [field_make(3), field_make(5), field_make(7),
            field_make(3, 2), field_make(3, 3)]


def test_prime_field_basics():
    f = field_make(5)
    assert (f.p, f.k, f.q) == (5, 1, 5)
    assert f.modulus is None
    assert f.inv(2) == 3
    assert f.neg(0) == 0


def test_neg_zero_f7():
    f = field_make(7)
    assert f.neg(0) == 0


def test_even_characteristic_rejected():
    with pytest.raises(EvenCharacteristic):
        field_make(2)
    with pytest.raises(EvenCharacteristic):
        field_make(2, 3)


def test_not_prime_rejected():
    for n in (1, 9, 15, 21):
        with pytest.raises(NotPrime):
            field_make(n)


def test_oversized_field_rejected():
    with pytest.raises(ValueError):
        field_make(3, 21)  # 3^21 > 2^31
    with pytest.raises(ValueError):
        field_make(3, 12)  # 3^12 > 2^17, the extension-table ceiling


def test_f9_modulus_is_lexicographically_first():
    # exhaustive scan over the 9 monic quadratics over GF(3): the first
    # irreducible one in low-coefficient lex order is t^2 + 1
    f = field_make(3, 2)
    assert f.modulus == (1, 0, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        field_make(3, 2, modulus=[0, 0, 1])  # t^2 = t * t
    with pytest.raises(ReducibleModulus):
        field_make(3, 2, modulus=[2, 0, 1])  # t^2 + 2 = (t+1)(t+2)


@pytest.mark.parametrize("modulus", [[7, 7, 7], [], [0, 1], [2, 1]])
def test_prime_field_takes_no_modulus(modulus):
    with pytest.raises(ValueError, match="GF\\(5\\) takes no modulus"):
        field_make(5, 1, modulus)


def test_f9_extension_multiplication():
    # (t+1)*(t+1) = t^2 + 2t + 1 = 2t  since t^2 = -1; the element
    # c_0 + c_1 t is encoded as c_0 + 3 c_1, so t+1 is 4 and 2t is 6
    f = field_make(3, 2)
    assert f.mul(4, 4) == 6


def test_inverse_of_zero_raises():
    for f in small_fields():
        with pytest.raises(DivisionByZero):
            f.inv(f.zero)


def test_inverse_exhaustive_small_fields():
    for f in [field_make(3), field_make(5), field_make(7), field_make(11),
              field_make(3, 2), field_make(3, 3), field_make(3, 4),
              field_make(5, 2), field_make(7, 2), field_make(79)]:
        assert f.q <= 81
        for a in f.elements():
            if a == f.zero:
                continue
            assert f.mul(a, f.inv(a)) == f.one
            assert f.pow(a, f.q - 1) == f.one


def test_field_axioms_randomized():
    rng = random.Random(20240811)
    for f in small_fields():
        els = list(f.elements())
        for _ in range(10**4):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.sub(a, b) == f.add(a, f.neg(b))


def test_square_class_examples():
    f5 = field_make(5)
    assert f5.square_class(4) is SquareClass.SQUARE
    assert f5.square_class(2) is SquareClass.NONSQUARE
    assert f5.square_class(0) is SquareClass.ZERO
    # -1 is a square in F_9 since q = 9 = 1 mod 4
    f9 = field_make(3, 2)
    assert f9.square_class(f9.neg(f9.one)) is SquareClass.SQUARE


def test_square_class_matches_enumeration():
    for f in small_fields():
        squares = {f.mul(x, x) for x in f.elements()}
        for a in f.elements():
            expect = (SquareClass.ZERO if a == f.zero
                      else SquareClass.SQUARE if a in squares
                      else SquareClass.NONSQUARE)
            assert f.square_class(a) is expect


def test_square_classes_split_evenly():
    for f in small_fields():
        counts = {SquareClass.SQUARE: 0, SquareClass.NONSQUARE: 0}
        for a in f.elements():
            if a != f.zero:
                counts[f.square_class(a)] += 1
        assert counts[SquareClass.SQUARE] == (f.q - 1) // 2
        assert counts[SquareClass.NONSQUARE] == (f.q - 1) // 2


def test_serialize_shapes():
    f5 = field_make(5)
    assert f5.serialize(3) == 3
    f9 = field_make(3, 2)
    assert f9.serialize(7) == [1, 2]  # 7 = 1 + 2*3 encodes 1 + 2t
    assert f9.deserialize([1, 2]) == 7
    with pytest.raises(ValueError):
        f9.deserialize(4)


def test_nonsquare_representative():
    assert nonsquare_representative(field_make(3)) == 2
    assert nonsquare_representative(field_make(5)) == 2
    assert nonsquare_representative(field_make(7)) == 3


def test_sqrt():
    for f in small_fields():
        for a in f.elements():
            r = f.sqrt(a)
            if f.square_class(a) is SquareClass.NONSQUARE:
                assert r is None
            else:
                assert r is not None and f.mul(r, r) == a


def test_deterministic_construction():
    a = field_make(3, 3)
    b = field_make(3, 3)
    assert a.modulus == b.modulus
    assert a == b


class PolyReference:
    """GF(p^k) arithmetic on coefficient digits with the polynomial
    helpers of the modulus search: an oracle independent of the tables."""

    def __init__(self, f):
        self.p, self.k, self.m = f.p, f.k, f.modulus

    def digits(self, n):
        return tuple(n // self.p**i % self.p for i in range(self.k))

    def encode(self, c):
        return sum(x * self.p**i for i, x in enumerate(c))

    def add(self, a, b):
        return self.encode((x + y) % self.p
                           for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a):
        return self.encode(-x % self.p for x in self.digits(a))

    def mul(self, a, b):
        prod = _poly_mul(_poly_trim(self.digits(a)),
                         _poly_trim(self.digits(b)), self.p)
        return self.encode(_poly_mod(prod, self.m, self.p))

    def pow(self, a, e):  # square and multiply
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a, e = self.mul(a, a), e >> 1
        return result


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_extension_arithmetic_matches_polynomial_reference(p, k):
    f = field_make(p, k)
    ref = PolyReference(f)
    q = f.q
    inverse = {}
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == ref.add(a, b)
            assert f.sub(a, b) == ref.add(a, ref.neg(b))
            prod = ref.mul(a, b)
            assert f.mul(a, b) == prod
            if prod == 1:
                inverse[a] = b
        assert f.neg(a) == ref.neg(a)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.pow(0, -1)
    for a in range(q):
        if a:
            assert f.inv(a) == inverse[a]
        power = 1
        for e in range(q + 1):
            assert f.pow(a, e) == power
            if a and e:
                assert f.pow(a, -e) == inverse[power]
            power = ref.mul(power, a)
    roots = {}
    for x in range(q):  # ascending, so the first root seen is the smaller
        roots.setdefault(ref.mul(x, x), x)
    for a in range(q):
        expect = (SquareClass.ZERO if a == 0
                  else SquareClass.SQUARE if a in roots
                  else SquareClass.NONSQUARE)
        assert f.square_class(a) is expect
        assert f.sqrt(a) == roots.get(a)
    assert nonsquare_representative(f) == min(set(range(1, q)) - set(roots))


def test_ceiling_field_sampled_against_polynomial_reference():
    f = field_make(7, 6)  # 117649 elements, the largest 7-power admitted
    ref = PolyReference(f)
    half = (f.q - 1) // 2
    rng = random.Random(76)
    for _ in range(2000):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        e = rng.randrange(-f.q, f.q)
        assert f.add(a, b) == ref.add(a, b)
        assert f.sub(a, b) == ref.add(a, ref.neg(b))
        assert f.mul(a, b) == ref.mul(a, b)
        if a:
            assert ref.mul(a, f.inv(a)) == 1
            assert f.pow(a, e) == ref.pow(a, e % (f.q - 1))
            square = ref.pow(a, half) == 1
            assert f.square_class(a) is (SquareClass.SQUARE if square
                                         else SquareClass.NONSQUARE)
            r = f.sqrt(a)
            if square:
                assert ref.mul(r, r) == a and r <= ref.neg(r)
            else:
                assert r is None


def test_prime_sqrt_is_the_smaller_root():
    for p in (3, 5, 7, 11, 13, 17, 41, 73, 97, 113, 193, 257):
        f = field_make(p)
        for a in range(p):
            scan = next((x for x in range(p) if x * x % p == a), None)
            assert f.sqrt(a) == scan
    p = 15 * 2**27 + 1  # prime; 2^27 divides p - 1
    f = field_make(p)
    rng = random.Random(31)
    for _ in range(200):
        x = rng.randrange(1, p)
        r = f.sqrt(x * x % p)
        assert r == min(x, p - x)


def test_exp_table_is_one_cycle_and_log_inverts_it():
    """The primitive walk: exp[0..q-2] visits every nonzero element once,
    log inverts it, and exp[1] is the primitive element of least
    encoding (the arithmetic cannot tell which primitive was chosen)."""
    admitted = [(p, k) for p in range(3, 47, 2) if all(p % r for r in
                                                       range(3, p, 2))
                for k in range(2, 8) if p**k <= 3**7]
    assert len(admitted) == 22
    for p, k in admitted:
        f = field_make(p, k)
        n = f.q - 1
        exp, log = f._exp, f._log
        assert sorted(exp[:n]) == list(range(1, f.q)), (p, k)
        assert exp[n:2 * n] == exp[:n]
        assert all(log[exp[i]] == i for i in range(n))
        if f.q <= 400:
            def order(a):
                power, e = a, 1
                while power != 1:
                    power, e = f.mul(power, a), e + 1
                return e
            assert exp[1] == next(a for a in range(2, f.q) if order(a) == n)
