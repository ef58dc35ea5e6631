"""Exact arithmetic in GF(p) and GF(p^k) for odd p.

Every element is a plain integer in [0, q), q = p^k: c_0 + c_1 t + ...
+ c_(k-1) t^(k-1) is encoded as sum c_i p^i, so GF(p) is 0..p-1 and the
generator t is p.  The modulus is the lexicographically smallest monic
irreducible polynomial of degree k, so a field built twice is identical.
Certificates store a k > 1 element as its coefficients [c_0, ...,
c_(k-1)] (serialize/deserialize); all other code works on encodings.

One Field class serves every q, its kernel picked once when the field is
built: native mod-p arithmetic for k = 1; for k > 1 exp/log/Zech tables
on the powers of the primitive element of least encoding (Lidl and
Niederreiter, Finite Fields, 9.1), so mul, inv, pow, square_class and
sqrt are lookups; that element is the first whose walk over its powers
takes q - 1 steps, and the walk is the exp table.  Admitted: p <= 2^31
(MAX_Q) for k = 1, and q <= 2^17 (TABLE_CEILING) for k > 1, where the
tables hold about 15 MB; field_make takes 0.35-0.54 s for GF(3^10),
0.3 s for GF(7^6) and 0.2 s for GF(17^4) (Python 3.11, a shared 2-vCPU
Xeon).  All arithmetic is exact; no floating point anywhere.
"""

import enum
import itertools
import sys
from operator import mul as _mul


class NotPrime(ValueError):
    pass


class EvenCharacteristic(ValueError):
    pass


class ReducibleModulus(ValueError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


class SquareClass(enum.Enum):
    ZERO = "zero"
    SQUARE = "square"
    NONSQUARE = "nonsquare"


# Largest admitted prime field: keeps every intermediate product inside
# native integer range on any platform.
MAX_Q = 2**31
# Largest admitted extension field: bounds the size-q tables.
TABLE_CEILING = 2**17


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (little-endian coefficient tuples)
# ---------------------------------------------------------------------------

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _monic_polys_lex(p, deg):
    """Monic degree-deg polynomials, low coefficients in tuple-lex order."""
    for low in itertools.product(range(p), repeat=deg):
        yield low + (1,)


def _is_irreducible(m, p):
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    for d in range(1, (len(m) - 1) // 2 + 1):
        for g in _monic_polys_lex(p, d):
            if not _poly_mod(m, g, p):
                return False
    return True


def _find_modulus(p, k):
    for m in _monic_polys_lex(p, k):
        if _is_irreducible(m, p):
            return m
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _sqrt_mod(a, p):
    """A root of the nonzero square a mod p (Tonelli-Shanks)."""
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, p // 2, p) != 1)
    c, t, r = pow(z, odd, p), pow(a, odd, p), pow(a, (odd + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _table_kernel(p, k, modulus, name):
    """exp/log/Zech arithmetic in GF(p^k) on the powers of a primitive g,
    as a dict of the Field operations it replaces and the tables _exp and
    _log.

    With n = q - 1: exp[i] = g^(i mod n) for i < 2n and 0 beyond, and
    log[0] = 2n, so exp[log[a] + log[b]] is a*b even when a or b is 0.
    zech[d] = log(1 + g^d), or 2n where 1 + g^d = 0, so for nonzero a,
    b, a + b = exp[log a + zech[log b - log a]]; zech is stored twice
    over, so every difference in (-n, 2n) indexes it modulo n.
    """
    n = p**k - 1
    half = n // 2  # g^half = -1
    # g x = sum_i c_i (g t^i) is linear in the coefficients c_i of x.
    # The coefficients of each g t^i are packed into one int, s bits per
    # coefficient, wide enough for the unreduced sum of k products.
    s = (k * (p - 1) ** 2).bit_length()
    mask, shifts = (1 << s) - 1, range(0, s * k, s)
    weights = [p**i for i in range(k)]
    # A walk over the powers of g returns to 1 after its order; the first
    # g to take n steps is primitive.  Encodings below p form GF(p),
    # whose orders divide p - 1 < n.  Every power on a shorter walk has an
    # order dividing that walk's length, so it is marked and not walked.
    seen = bytearray(n + 1)
    for a in range(p, n + 1):
        if seen[a]:
            continue
        power = [a // r % p for r in weights]  # the coefficients of g = a
        g = _poly_trim(power)
        columns = [sum(c << (s * j) for j, c in enumerate(
            _poly_mod(_poly_mul(g, (0,) * i + (1,), p), modulus, p)))
            for i in range(k)]
        cycle = [1]
        while a != 1:
            cycle.append(a)
            w = sum(map(_mul, power, columns))
            power = [(w >> sh & mask) % p for sh in shifts]
            a = sum(map(_mul, power, weights))
        if len(cycle) == n:
            break
        for x in cycle:
            seen[x] = 1
    exp = cycle + cycle + [0] * (2 * n + 1)
    log = [2 * n] * (n + 1)
    for i, a in enumerate(cycle):
        log[a] = i
    # 1 + a only changes the constant coefficient of a
    zech = [log[a - a % p + (a + 1) % p] for a in cycle] * 2

    def add(a, b):
        if not a or not b:
            return a or b
        i = log[a]
        return exp[i + zech[log[b] - i]]

    def sub(a, b):
        if not b:
            return a
        j = log[b] + half  # log of -b
        if not a:
            return exp[j]
        i = log[a]
        return exp[i + zech[j - i]]

    def inv(a):
        if not a:
            raise DivisionByZero("inverse of zero in %s" % name)
        return exp[n - log[a]]

    def pow_(a, e):
        if e < 0:
            a, e = inv(a), -e
        return exp[log[a] * e % n] if a else (1 if e == 0 else 0)

    def square_class(a):
        if not a:
            return SquareClass.ZERO
        return SquareClass.NONSQUARE if log[a] % 2 else SquareClass.SQUARE

    def sqrt(a):
        if not a:
            return 0
        if log[a] % 2:
            return None
        i = log[a] // 2
        return min(exp[i], exp[i + half])

    return dict(
        _exp=exp, _log=log, add=add, sub=sub,
        neg=lambda a: exp[log[a] + half],
        mul=lambda a, b: exp[log[a] + log[b]],
        inv=inv, pow=pow_, square_class=square_class, sqrt=sqrt)


class Field:
    """GF(p^k); elements are the encodings 0..q-1 (see the module doc).

    The arithmetic methods below are the mod-p kernel of k = 1 (methods,
    which the interpreter calls faster than instance attributes).  For
    k > 1 the constructor shadows them with _table_kernel's lookups.
    """

    def __init__(self, p, k=1, modulus=None):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        if k > 1:
            vars(self).update(_table_kernel(p, k, modulus, repr(self)))

    def __repr__(self):
        if self.k == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.k)

    def __eq__(self, other):
        return (isinstance(other, Field) and other.p == self.p
                and other.k == self.k and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("GF", self.p, self.k, self.modulus))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero in %r" % self)
        return pow(a, -1, self.p)

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def square_class(self, a):
        if a % self.p == 0:
            return SquareClass.ZERO
        if pow(a, self.p // 2, self.p) == 1:
            return SquareClass.SQUARE
        return SquareClass.NONSQUARE

    def sqrt(self, a):
        """The root of smaller encoding, or None."""
        a %= self.p
        if self.square_class(a) is SquareClass.NONSQUARE:
            return None
        r = _sqrt_mod(a, self.p) if a else 0
        return min(r, self.p - r)

    def coerce(self, n):
        """The prime-subfield element n * 1, for an integer n."""
        return n % self.p

    def elements(self):
        return range(self.q)

    def lanes(self, w, size=0):
        """A lane table for k > 1, built once per lane width w and size:
        by encoding, the int sum c_s 2^(w s) of its coefficients c_s, or
        for size > 0 that int as size native-order bytes."""
        tables = vars(self).setdefault("_lanes", {})
        if (w, size) not in tables:
            table = [0]
            for s in range(self.k):  # coefficient s varies slowest
                table = [(c << w * s) + low for c in range(self.p)
                         for low in table]
            tables[w, size] = [c.to_bytes(size, sys.byteorder)
                               for c in table] if size else table
        return tables[w, size]

    def serialize(self, a):
        """Certificate form: the encoding for k = 1, else [c_0, ...]."""
        if self.k == 1:
            return a
        return [a // self.p**i % self.p for i in range(self.k)]

    def deserialize(self, v):
        if self.k == 1:
            if not isinstance(v, int):
                raise ValueError("prime-field element must be an integer")
            return v % self.p
        if not isinstance(v, list) or len(v) != self.k:
            raise ValueError("extension element must be a %d-array" % self.k)
        return sum(int(c) % self.p * self.p**i for i, c in enumerate(v))


def field_make(p, k=1, modulus=None):
    """Build GF(p^k) for odd prime p.

    For k > 1 without an explicit modulus, the lexicographically first
    monic irreducible polynomial of degree k is chosen, so the field
    (and everything serialized from it) is reproducible.
    """
    if p == 2:
        raise EvenCharacteristic("characteristic 2 is not supported")
    # bounded first: trial division of a p near 2^61 takes minutes, and
    # p >= 3 > 2 puts a k this long past 2^31 before the power, which
    # would take seconds to compute for a huge k
    if p > MAX_Q or k >= MAX_Q.bit_length():
        raise ValueError("field too large: p^k must be <= 2^31")
    if not _is_prime(p):
        raise NotPrime("%d is not prime" % p)
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if p**k > MAX_Q:
        raise ValueError("field too large: p^k must be <= 2^31")
    if k == 1:
        if modulus is not None:
            raise ValueError("GF(%d) takes no modulus" % p)
        return Field(p)
    if p**k > TABLE_CEILING:
        raise ValueError("extension field too large: p^k must be <= 2^17")
    if modulus is None:
        modulus = _find_modulus(p, k)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree %d" % k)
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus("modulus is reducible over GF(%d)" % p)
    return Field(p, k, modulus)
