"""Strongly-regular verification of the midpoint graph.

The shared-vertex relation on the midpoints of n >= 4 equilateral points
is the line graph of K_n, the triangular graph T(n) = J(n,2), an
srg(C(n,2), 2(n-2), n-2, 4), held as one bitset row per vertex built
from the point set's pair norms.  srg_check verifies T(n)'s identity
A^2 = kI + lambda A + mu (J-I-A) row by row in exact integers; with
mu = 4 > 0 it fixes the spectrum.  Mod-p statements (the eigenvalue
collapse) are derived afterwards.

This O(v^2) census is verify's path for files that the midpoint lemma
(construct.midpoint_sources) does not settle, and the lemma's oracle.
"""

from itertools import compress
from math import comb


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


def midpoint_graph(mids, edge):
    """Adjacency rows (bit j of row i: i and j adjacent) of the graph on
    the midpoints with an edge exactly at distance edge = delta/4 (the
    shared-vertex relation); pairs at 2 edge = delta/2 are non-edges,
    anything else is an error.  The rows are the upper triangle OR'd
    with its transpose: symmetric, with a zero diagonal."""
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
    return [a | b for a, b in zip(upper, lower)]


def expected_params(n):
    """SRG data of the triangular graph T(n) on C(n,2) vertices, with
    its eigenvalues as (value, multiplicity) pairs."""
    if n < 4:
        raise TooSmall("mu is vacuous below n = 4")
    return {"v": comb(n, 2), "k": 2 * (n - 2), "lambda": n - 2, "mu": 4,
            "eigenvalues": [(2 * (n - 2), 1), (n - 4, n - 1),
                            (-2, n * (n - 3) // 2)]}


def passing_report(n):
    """srg_check's report on T(n), which certificates store."""
    return {"ok": True, **expected_params(n), "n": n}


def srg_check(rows, n):
    """Verify that the graph with these adjacency rows (symmetric, zero
    diagonal) is T(n), exactly.  Returns passing_report(n); with ok=False
    and the first violated fact when it fails.  The identity fixes
    the eigenvalues (Brouwer-Haemers, Spectra of Graphs, 9.1): with mu >
    0 the graph is connected, k is simple, the others are the roots n-4
    and -2 of x^2 - (lambda - mu) x - (k - mu), and their multiplicities
    solve f + g = v - 1 and k + f (n-4) - 2 g = tr A = 0.
    """
    report = passing_report(n)
    v, k, lam, mu = (report[key] for key in ("v", "k", "lambda", "mu"))

    def fail(reason):
        report["ok"] = False
        report["failure"] = reason
        return report

    if len(rows) != v:
        return fail("vertex count %d != v = %d" % (len(rows), v))
    for i, r in enumerate(rows):
        if r.bit_count() != k:
            return fail("vertex %d has degree %d, expected %d"
                        % (i, r.bit_count(), k))
    # A^2 = k I + lambda A + mu (J - I - A), entrywise over Z.  Row i of
    # A^2 is the sum of the rows of i's neighbours, each spread to one
    # w-bit digit per vertex.  Its entries lie in 0..k < 2^w, so no
    # digit carries; lambda = n-2 and mu = 4 lie in 0..k too.
    w = (k + 1).bit_length()
    zero, one = "0" * w, "0" * (w - 1) + "1"
    spread = [int(bin(r)[2:].replace("0", zero).replace("1", one), 2)
              for r in rows + [(1 << v) - 1]]
    ones = spread.pop()
    for i, r in enumerate(rows):
        unit = 1 << w * i
        flags = format(r, "0%db" % v)[::-1].encode().translate(_FLAGS)
        a2 = sum(compress(spread, flags))
        wrong = a2 ^ (k * unit + lam * spread[i]
                      + mu * (ones - unit - spread[i]))
        if wrong:  # its lowest digit is the first wrong entry
            j = ((wrong & -wrong).bit_length() - 1) // w
            want = k if i == j else lam if r >> j & 1 else mu
            return fail("A^2 entry (%d, %d) is %d, expected %d"
                        % (i, j, a2 >> w * j & (1 << w) - 1, want))
    return report


def eigen_collapse(n, p):
    """Whether the top two integer eigenvalues 2(n-2) and n-4 coincide
    mod p (exactly when p | n, as they differ by n) while -2 stays
    distinct from n-4 (exactly when p does not divide n-2, their
    difference)."""
    (top, _), (mid, _), (low, _) = expected_params(n)["eigenvalues"]
    return {
        "n": n,
        "p": p,
        "top_mod_p": top % p,
        "mid_mod_p": mid % p,
        "low_mod_p": low % p,
        "collapse": top % p == mid % p,
        "third_distinct": mid % p != low % p,
    }
