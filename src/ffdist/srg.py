"""Strongly-regular verification of the midpoint graph.

The shared-vertex relation on midpoints is the line graph of K_n (the
triangular / Johnson graph J(n,2)).  All checks here are exact integer
arithmetic: the A^2 = kI + lambda A + mu (J-I-A) identity entry by
entry, and then the eigenvalue multiplicities, which that identity
fixes once mu > 0.  Mod-p statements (the eigenvalue collapse) are
derived afterwards.
"""

from math import comb, isqrt

from .geometry import dist2


class TooSmall(ValueError):
    pass


class BadDistanceValue(ValueError):
    pass


class Graph:
    """Simple undirected graph as a symmetric 0/1 matrix, zero diagonal."""

    def __init__(self, adjacency):
        self.adjacency = [list(row) for row in adjacency]
        self.n_vertices = len(self.adjacency)
        for i, row in enumerate(self.adjacency):
            if len(row) != self.n_vertices or row[i] != 0:
                raise ValueError("adjacency must be square with zero diagonal")
            for j, x in enumerate(row):
                if x not in (0, 1) or x != self.adjacency[j][i]:
                    raise ValueError("adjacency must be symmetric 0/1")

    def degrees(self):
        return [sum(row) for row in self.adjacency]

    def edge_count(self):
        return sum(self.degrees()) // 2


class SrgParams:
    """(v, k, lambda, mu) plus the claimed integer spectrum."""

    def __init__(self, v, k, lam, mu, eigenvalues):
        self.v = v
        self.k = k
        self.lam = lam
        self.mu = mu
        self.eigenvalues = list(eigenvalues)  # [(value, multiplicity)]


def midpoint_graph(mids, delta):
    """Graph on the midpoints with an edge exactly at distance delta/4
    (the shared-vertex relation); delta/2 pairs are non-edges, anything
    else is an error."""
    f = mids.field
    inv4 = f.inv(f.coerce(4))
    inv2 = f.inv(f.coerce(2))
    d4 = f.mul(delta, inv4)
    d2 = f.mul(delta, inv2)
    n = len(mids)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = dist2(f, mids.points[i], mids.points[j])
            if d == d4:
                adj[i][j] = adj[j][i] = 1
            elif d != d2:
                raise BadDistanceValue(
                    "midpoint pair (%d, %d) at unexpected distance %r"
                    % (i, j, f.serialize(d)))
    return Graph(adj)


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
    a = g.adjacency
    # A^2 = k I + lambda A + mu (J - I - A), entrywise over Z; entry
    # (i, j) of A^2 counts common neighbours, a popcount of bitset rows
    rows = [int("".join(map(str, row)), 2) for row in a]
    for i in range(v):
        for j in range(v):
            a2 = (rows[i] & rows[j]).bit_count()
            if i == j:
                want = params.k
            elif a[i][j]:
                want = params.lam
            else:
                want = params.mu
            if a2 != want:
                return fail("A^2 entry (%d, %d) is %d, expected %d"
                            % (i, j, a2, want))
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
