"""Strongly-regular verification of the midpoint graph.

The shared-vertex relation on midpoints is the line graph of K_n (the
triangular / Johnson graph J(n,2)).  A Graph holds one bitset row per
vertex, built directly from the point set's pair norms.  All checks here
are exact integer arithmetic: the A^2 = kI + lambda A + mu (J-I-A)
identity row by row, and then the eigenvalue multiplicities, which that
identity fixes once mu > 0.  Mod-p statements (the eigenvalue collapse)
are derived afterwards.
"""

from itertools import compress
from math import comb, isqrt


class TooSmall(ValueError):
    pass


class BadDistanceValue(ValueError):
    pass


_FLAGS = bytes.maketrans(b"01", b"\0\1")  # bit characters <-> 0/1 bytes
_BITS = bytes.maketrans(b"\0\1", b"01")


def _transpose(rows, v):
    """Rows of the transpose of the v x v 0/1 matrix with these rows."""
    cols = zip(*(format(r, "0%db" % v) for r in rows))
    return [int("".join(c)[::-1], 2) for c in cols][::-1]


class Graph:
    """Simple undirected graph on vertices 0..v-1; bit j of rows[i] is
    set iff i and j are adjacent.  Rows must be symmetric with a zero
    diagonal (checked)."""

    def __init__(self, rows):
        self.rows = list(rows)
        self.n_vertices = v = len(self.rows)
        for i, r in enumerate(self.rows):
            if not 0 <= r < 1 << v or r >> i & 1:
                raise ValueError("rows must be v-bit masks with zero diagonal")
        if _transpose(self.rows, v) != self.rows:
            raise ValueError("adjacency must be symmetric")

    def degrees(self):
        return [r.bit_count() for r in self.rows]


class SrgParams:
    """(v, k, lambda, mu) plus the claimed integer spectrum."""

    def __init__(self, v, k, lam, mu, eigenvalues):
        self.v = v
        self.k = k
        self.lam = lam
        self.mu = mu
        self.eigenvalues = list(eigenvalues)  # [(value, multiplicity)]


def midpoint_graph(mids, edge):
    """Graph on the midpoints with an edge exactly at distance edge =
    delta/4 (the shared-vertex relation); pairs at 2 edge = delta/2 are
    non-edges, anything else is an error."""
    f = mids.field
    allowed = {edge, f.add(edge, edge)}
    upper = []  # bit j of upper[i] is the edge {i, j} for j > i
    for i, norms in enumerate(mids.pair_norms()):
        if not allowed.issuperset(norms):
            j, d = next((j, d) for j, d in enumerate(norms, i + 1)
                        if d not in allowed)
            raise BadDistanceValue(
                "midpoint pair (%d, %d) at unexpected distance %r"
                % (i, j, f.serialize(d)))
        flags = bytes(map(edge.__eq__, reversed(norms))).translate(_BITS)
        upper.append(int(flags or b"0", 2) << i + 1)
    lower = _transpose(upper, len(upper))
    return Graph([a | b for a, b in zip(upper, lower)])


def expected_params(n):
    """SRG data of the triangular graph on C(n,2) vertices."""
    if n < 4:
        raise TooSmall("mu is vacuous below n = 4")
    return SrgParams(
        v=comb(n, 2),
        k=2 * (n - 2),
        lam=n - 2,
        mu=4,
        eigenvalues=[(2 * (n - 2), 1), (n - 4, n - 1), (-2, n * (n - 3) // 2)],
    )


def _spectrum(v, k, lam, mu):
    """Integer eigenvalue -> multiplicity of any graph satisfying the
    SRG identity with these parameters and mu > 0.

    Such a graph is connected, k is a simple eigenvalue, and every other
    eigenvalue is a root r or s of x^2 - (lambda - mu) x - (k - mu)
    (Brouwer-Haemers, Spectra of Graphs, 9.1).  Their multiplicities f,
    g solve f + g = v - 1 and k + f r + g s = tr A = 0.  Irrational
    roots (a conference graph) have multiplicity 0 at every integer.
    """
    b = lam - mu
    disc = b * b + 4 * (k - mu)
    root = isqrt(disc) if disc >= 0 else -1
    if root * root != disc:
        return {k: 1}
    r, s = (b + root) // 2, (b - root) // 2
    if r == s:  # a double root: K_v claimed with mu = v
        return {k: 1, r: v - 1}
    f = (-k - s * (v - 1)) // (r - s)
    return {k: 1, r: f, s: v - 1 - f}


def srg_check(g, params):
    """Verify the SRG identity and the claimed spectrum, exactly.

    Returns a report dict with ok=True, or ok=False plus the first
    violated fact.
    """
    v = g.n_vertices
    report = {"ok": True, "v": v, "k": params.k, "lambda": params.lam,
              "mu": params.mu, "eigenvalues": list(params.eigenvalues)}

    def fail(reason):
        report["ok"] = False
        report["failure"] = reason
        return report

    if v != params.v:
        return fail("vertex count %d != v = %d" % (v, params.v))
    degs = g.degrees()
    for i, d in enumerate(degs):
        if d != params.k:
            return fail("vertex %d has degree %d, expected %d" % (i, d, params.k))
    # A^2 = k I + lambda A + mu (J - I - A), entrywise over Z.  Row i of
    # A^2 is the sum of the rows of i's neighbours, each spread to one
    # w-bit digit per vertex.  Its entries lie in 0..k < 2^w - 1, so no
    # digit carries, and a wanted value outside 0..k becomes 2^w - 1,
    # which no entry reaches.
    w = (params.k + 1).bit_length()
    top = (1 << w) - 1
    zero, one = "0" * w, "0" * (w - 1) + "1"
    spread = [int(bin(r)[2:].replace("0", zero).replace("1", one), 2)
              for r in g.rows + [(1 << v) - 1]]
    ones = spread.pop()
    k, lam, mu = (x if 0 <= x <= params.k else top
                  for x in (params.k, params.lam, params.mu))
    for i, r in enumerate(g.rows):
        unit = 1 << w * i
        flags = format(r, "0%db" % v)[::-1].encode().translate(_FLAGS)
        a2 = sum(compress(spread, flags))
        wrong = a2 ^ (k * unit + lam * spread[i]
                      + mu * (ones - unit - spread[i]))
        if wrong:  # its lowest digit is the first wrong entry
            j = ((wrong & -wrong).bit_length() - 1) // w
            want = (params.k if i == j
                    else params.lam if r >> j & 1 else params.mu)
            return fail("A^2 entry (%d, %d) is %d, expected %d"
                        % (i, j, a2 >> w * j & top, want))
    if params.mu <= 0:
        return fail("mu = %d does not determine the spectrum" % params.mu)
    spectrum = _spectrum(v, params.k, params.lam, params.mu)
    total_mult = 0
    for theta, mult in params.eigenvalues:
        got = spectrum.get(theta, 0)
        if got != mult:
            return fail("eigenvalue %d has multiplicity %d, expected %d"
                        % (theta, got, mult))
        total_mult += mult
    if total_mult != v:
        return fail("multiplicities sum to %d, not v = %d" % (total_mult, v))
    return report


def eigen_collapse(n, p):
    """Whether the top two integer eigenvalues 2(n-2) and n-4 coincide
    mod p (exactly when p | n) while -2 stays distinct from n-4
    (exactly when p does not divide n-2)."""
    if n < 4:
        raise TooSmall("needs n >= 4")
    top = 2 * (n - 2)
    mid = n - 4
    low = -2
    return {
        "n": n,
        "p": p,
        "top_mod_p": top % p,
        "mid_mod_p": mid % p,
        "low_mod_p": low % p,
        "collapse": top % p == mid % p,
        "collapse_iff_p_divides_n": (top % p == mid % p) == (n % p == 0),
        "third_distinct": mid % p != low % p,
        "third_distinct_iff": (mid % p != low % p) == ((n - 2) % p != 0),
    }
