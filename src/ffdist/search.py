"""Exhaustive search for equilateral and two-distance sets in small
spaces: the independent oracle behind every bound claim.

The vertex set is all of F_q^d in lexicographic order of integer
coordinates.  Distance is translation invariant, so one clique vertex
is pinned at the origin and the search runs inside its neighborhood.
Candidate distance values are deduplicated up to the scaling symmetry
x -> lambda x, which multiplies every distance by lambda^2; a value set
is keyed by square classes and ratios, which that scaling fixes.

Three clique points are pinned by triangle type.  Q(x) = x.x is
nondegenerate and p is odd (field_make rejects p = 2), so Witt's
extension theorem extends every isometry between subspaces of F_q^d,
degenerate ones included, to all of F_q^d.  A triangle (0, e, z) is
therefore fixed up to isometry and translation by its type: whether it
is collinear, and its sorted sides (Q(e), Q(z), Q(z - e)).  Relabelling
the vertices permutes the sides in every way, so two triangles of one
type can be labelled with equal sides in that order.  Those fix the
Gram matrix of (e, z), and Witt extends the map between two
non-collinear pairs with equal Gram matrices.  A collinear triangle
z = lambda e has sides (a, lambda^2 a, (lambda - 1)^2 a), which fix
lambda for odd p, so the map e -> e' carries z to z'.
Each type present in a value set is represented by its first triangle
(0, e_a, z), with e_a the first neighbor of the origin of norm a and z in
the neighborhood of e_a; that finds every type, since a vertex of any
triangle can be translated to the origin and the next one moved onto
e_a.  The types are ordered, non-collinear ones first and then by
sides, and each costs one clique search in the common neighborhood of
0, e and z, less every vertex that forms an earlier type with two of
the three: a clique holding a triangle of an earlier type was searched
under that type (isomorph rejection in orderly generation, McKay 1998).
The sides decide the collinear bit, except in a degenerate plane, where
the line through two of the points decides it (see _triangle_subproblems).

The fourth point is pinned by class (orbital branching, Ostrowski,
Linderoth, Rossi and Smriglio 2011, Math. Program. 126; isomorph
rejection, McKay 1998).  In the subproblem (0, e, z; verts), x is keyed
by (Q(x), Q(x - e), Q(x - z)), which give the Gram matrix of (e, z, x)
by polarization.  Where its determinant is nonzero, Witt maps any two x
of one key onto each other with 0, e and z fixed, and that isometry
keeps verts and its graph.  So the clique engine branches at the root
once per such key, on its lowest vertex, and then drops the whole key;
the vertices left, whose determinant is zero (they may lie in the plane
of e and z), go to the plain engine.  For a collinear type or d <= 2
every determinant is zero, and the plain engine runs alone (see
_witt_classes).

When d is even, x.x and nu*(x.x) (nu a nonsquare) are isometric, so a
similitude with a nonsquare multiplier maps the cliques of a value set V
onto those of nu*V, and the search pass keeps one value set per orbit
under all of F_q^* (see _candidate_value_sets).  A square orbit lies in
one such class and a similitude keeps clique numbers, so the canonical
pass walks only the square orbits whose class reaches the maximum: with
--canonical the search pass seeks, in each class, a clique that ties the
best so far until it has one, which makes the recorded class maximum
exact wherever it reaches the best (orbit-level isomorph rejection,
McKay 1998).

Sizes, exhaustion and the canonical witness are those of a search over
the whole neighborhood of the origin; the non-canonical witness and the
node counts are not, and differ from versions with fewer pins.  Before
any value set is enumerated, a point at an allowed distance from the
origin is recorded as a size-2 witness, so a budget hit never reports
less.  stats["subproblems"] records each pinned run with its type and
its root branches.

Each graph is a Cayley graph on (F_q^d, +): x ~ y iff Q(x - y) lies in
the value set.  The norm of every difference is tabulated once per
(q, d), and adjacency once per value set, so an adjacency test is one
subtraction of point keys and one lookup (see _CayleyTable).  The search
pass builds adjacency only among the vertices of each subproblem, in
ascending point order: the clique engine sees the induced subgraph under
an order-preserving relabelling; the canonical walk builds only the rows
it reads, from the same row function (see _CayleyTable.upper).
Ceilings, for both passes: q^d <= 2^16 keeps norms in a byte for d >= 2
(q <= 256) and in 16 bits for d = 1, and the table has (2p-1)^(dk) <= 9^6
entries.

The time budget is the only limit of a run.  It covers value-set
enumeration, graph building, the clique search and the canonical pass,
which runs only after an exhausted search.  A hit in the canonical pass
reports exhausted=False with the proven maximum size and the search
pass's witness.

The clique engine is exact branch and bound with a greedy sequential
coloring bound (MCQ, Tomita-Seki 2003), adjacency held in Python-int
bitsets; colour classes too low to branch on are coloured but not
recorded (MCS, Tomita et al. 2010).
"""

import sys
import time
from array import array
from functools import cache
from itertools import compress, count, product

from . import geometry
from .field import SquareClass
from .geometry import PointSet, FORM_STANDARD
from .linalg import LawViolated


class TooLarge(ValueError):
    pass


POINT_CEILING = 2**16
TABLE_CEILING = 9**6

MODE_EQUILATERAL = "equilateral"
MODE_TWO_DISTANCE = "two_distance"


class SearchProblem:
    def __init__(self, field, d, mode, fixed_values=None,
                 budget_secs=60.0, canonical=False):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if not budget_secs >= 0:  # NaN fails this too
            raise ValueError("budget must be a number of seconds >= 0")
        # q >= 3 > 2, so a d this long is past the ceiling before the
        # power, which would take seconds to compute for a huge d
        if d >= POINT_CEILING.bit_length() or field.q**d > POINT_CEILING:
            raise TooLarge("q^d exceeds the point ceiling %d" % POINT_CEILING)
        if (2 * field.p - 1)**(d * field.k) > TABLE_CEILING:
            raise TooLarge("(2p-1)^(dk) exceeds the norm-table ceiling %d"
                           % TABLE_CEILING)
        if mode not in (MODE_EQUILATERAL, MODE_TWO_DISTANCE):
            raise ValueError("unknown mode %r" % mode)
        if fixed_values is not None:
            fixed_values = tuple(v % field.q for v in fixed_values)
            if 0 in fixed_values:
                raise ValueError("fixed distance values must be nonzero")
            most = 1 if mode == MODE_EQUILATERAL else 2
            if not 1 <= len(set(fixed_values)) == len(fixed_values) <= most:
                raise ValueError(
                    "fixed distance values: one for %s, one or two distinct "
                    "mod q = %d for %s" % (MODE_EQUILATERAL, field.q,
                                            MODE_TWO_DISTANCE))
        self.field = field
        self.d = d
        self.mode = mode
        self.fixed_values = fixed_values
        self.budget_secs = budget_secs
        self.canonical = canonical


class SearchResult:
    def __init__(self, problem, max_size, witness, exhausted, stats,
                 values=None):
        self.problem = problem
        self.max_size = max_size
        self.witness = witness  # PointSet
        self.exhausted = exhausted
        # {"nodes": int, "seconds": float, "subproblems": [one record per
        # pinned clique run: values, type (see _triangle_subproblems),
        # graph_size, root_branches (the fourth-point classes, single
        # vertices included, or graph_size on the plain engine), nodes,
        # seconds, done]}; nodes counts the search pass.  With
        # --canonical also "canonical": {"orbits": square orbits,
        # "visited": those walked, "nodes", "rows" built, "seconds",
        # "classes": [per searched class: values, max]}; max is a lower
        # bound on the class's clique number, exact where either is max_size.
        self.stats = stats
        self.values = values  # distance values of the best subproblem


class _Budget:
    """Wall-clock limit shared by every phase of one search."""

    def __init__(self, budget_secs):
        self.deadline = time.monotonic() + budget_secs
        self.nodes = 0

    def tick(self):  # reads the clock at nodes 1, 257, 513, ...
        self.nodes += 1
        if self.nodes & 255 == 1 and time.monotonic() > self.deadline:
            raise _BudgetHit

    def check(self):
        if time.monotonic() > self.deadline:
            raise _BudgetHit


class _BudgetHit(Exception):
    pass


def _max_clique(adj, budget, lower=0, classes=None):
    """Exact maximum clique of a graph given as a bitset adjacency list.

    Returns (best_vertices, exhausted).  `lower` seeds the pruning
    bound with an already-known clique size.  `classes`, bitmasks that
    partition the vertices such that an automorphism of the graph maps
    any member of a class onto any other, makes the root branch once per
    class of two or more vertices, on its lowest vertex, and then drop the
    whole class (orbital branching); the plain engine then searches the
    single vertices left.  Any order of the classes is exact."""
    best = []
    best_size = lower
    apart = [~(a | 1 << v) for v, a in enumerate(adj)]  # drops v too

    def color_order(p_mask, dead):
        # expand never branches on classes 1..dead: best_size only grows
        order, bounds = [], []
        color = 0
        while p_mask and color < dead:
            color += 1
            cand = p_mask
            while cand:
                low = cand & -cand
                cand &= apart[low.bit_length() - 1]
                p_mask ^= low
        while p_mask:
            color += 1
            cand = p_mask
            while cand:
                low = cand & -cand
                v = low.bit_length() - 1
                cand &= apart[v]
                p_mask ^= low
                order.append(v)
                bounds.append(color)
        return order, bounds

    def expand(stack, p_mask):
        nonlocal best, best_size
        budget.tick()
        order, bounds = color_order(p_mask, best_size - len(stack))
        for i in range(len(order) - 1, -1, -1):
            if len(stack) + bounds[i] <= best_size:
                return
            v = order[i]
            stack.append(v)
            p2 = p_mask & adj[v]
            if p2:
                expand(stack, p2)
            elif len(stack) > best_size:
                best = stack[:]
                best_size = len(stack)
            stack.pop()
            p_mask ^= 1 << v

    def root(p_mask):
        # exact: a largest clique that meets a class of two or more
        # vertices, the first it meets being i as early as any such
        # clique's, is sent by an automorphism onto one through the
        # lowest vertex v of class i that meets no earlier class, which
        # branch i finds; a largest clique that meets none is left to
        # the plain engine on the single vertices
        nonlocal best, best_size
        budget.tick()
        for cls in classes:
            if not cls & (cls - 1):
                continue  # a single vertex
            if not color_order(p_mask, best_size)[0]:
                return  # the colouring bound holds for all that is left
            v = (cls & -cls).bit_length() - 1
            p2 = p_mask & adj[v]
            if p2:
                expand([v], p2)
            elif best_size < 1:
                best, best_size = [v], 1
            p_mask &= ~cls
        if p_mask:
            expand([], p_mask)

    try:
        if classes is None:
            expand([], (1 << len(adj)) - 1)
        else:
            root((1 << len(adj)) - 1)
        return best, True
    except _BudgetHit:
        return best, False


def _lex_least_clique(upper, n, size, budget):
    """(Lexicographically least clique of the given size, vertices in
    ascending order, or None; rows built) in a graph on 0..n-1.  upper(i)
    lists the j > i adjacent to i, all that the walk reads; row i's bits
    are built from it on first read and kept in a list."""
    rows = [None] * n

    def grow(stack, p_mask):
        # p_mask holds the common neighbors of stack above its last vertex
        budget.tick()
        if len(stack) == size:
            return stack
        while p_mask:
            low = p_mask & -p_mask
            p_mask ^= low
            v = low.bit_length() - 1
            if rows[v] is None:
                rows[v] = sum(1 << j for j in upper(v))
            rest = p_mask & rows[v]
            if len(stack) + 1 + rest.bit_count() < size:
                continue
            found = grow(stack + [v], rest)
            if found:
                return found
        return None

    return grow([], (1 << n) - 1), n - rows.count(None)


def _keys(p, digits):
    """array("I") of key[i] (see _CayleyTable), a digit at a time: block
    r is the keys so far plus r (2p-1)^s, in 32-bit lanes of one int."""
    keys, order = array("I", range(p)), sys.byteorder
    for s in range(1, digits):  # so p <= 256
        rest, n = int.from_bytes(keys, order), len(keys)
        ones = ((1 << 32 * n) - 1) // 0xFFFFFFFF
        keys = array("I", b"".join(
            (rest + r * (2 * p - 1)**s * ones).to_bytes(4 * n, order)
            for r in range(p)))
    return keys


def _by_code(table, p, k):
    """table (bytes or an array) by field element, re-indexed by
    difference code (see _CayleyTable): each round moves the lowest digit
    to the top by strided slices and spreads it, 1..p-1 then 0..p-1."""
    view = memoryview(table)
    for _ in range(k):
        rows = len(view) // p
        top = view.tobytes() if rows == 1 else b"".join(
            view[j::p].tobytes() for j in range(p))
        view = memoryview(top[rows * view.itemsize:] + top).cast(view.format)
    lanes = view.tobytes()
    return lanes if isinstance(table, bytes) else array(table.typecode, lanes)


def _marks(norms, values):
    """1 where norms (bytes, or for d = 1 and q > 256 an array("H") read
    one entry at a time) holds a value in values, else 0."""
    want = bytearray(256 if isinstance(norms, bytes) else 1 << 16)
    for a in values:
        want[a] = 1
    return norms.translate(want) if len(want) == 256 else bytes(
        map(want.__getitem__, norms))


class _CayleyTable:
    """Norm Q(x - y) of every pair of points of F_q^d, by one
    subtraction of keys and one lookup.

    Point index i is the position of a point in lexicographic order of
    integer coordinates; it has d*k base-p digits.  key[i] reads the
    same digits in base 2p-1, so every digit of key[x] - key[y] lies in
    [-(p-1), p-1] and the subtraction has no carries.  Adding
    off = ((2p-1)^(dk) - 1) / 2 moves each digit into [0, 2p-2], where
    digit v stands for the coefficient (v + 1) mod p of x - y; the k
    digits of a coordinate form its difference code.

    The tables are built a coordinate at a time, the new one most
    significant, one block per code c of it.  norm[key[x] - key[y] + off]
    encodes Q(x - y) and point_norm[i] Q(point i): block c is the table
    so far translated (bytes.translate) by a -> a + c^2.
    """
    _adjacent = None, None  # values and adjacent(values) of the last call

    def __init__(self, f, d):
        p, q = f.p, f.q
        self.field, self.d = f, d
        self.off = ((2 * p - 1)**(d * f.k) - 1) // 2
        self.key = _keys(p, d * f.k)
        square = [f.mul(x, x) for x in f.elements()]
        point_norm = bytes(square) if q <= 256 else array("H", square)
        norm = _by_code(point_norm, p, f.k)
        if d > 1:  # so q <= 256 (POINT_CEILING): rows of 256 bytes
            # add[s]: a -> a + s; add[s + u] is add[s] translated by the
            # step a -> a + u, u = p^i: each block of u p entries rotated
            ident = bytes(range(256))
            add = [ident]
            for u in map(p.__pow__, range(f.k)):
                step = b"".join(ident[b + u:b + u * p] + ident[b:b + u]
                                for b in range(0, q, u * p)) + ident[q:]
                for _ in range(p - 1):
                    add += [row.translate(step) for row in add[-u:]]
            code_add = list(map(add.__getitem__, norm))
        for _ in range(1, d):
            point_norm = b"".join(map(point_norm.translate,
                                      map(add.__getitem__, square)))
            norm = b"".join(map(norm.translate, code_add))
        self.norm, self.point_norm = norm, point_norm

    def neighbors(self, values):
        """Point indices at a distance in values from the origin, in
        ascending (lexicographic) order."""
        return list(compress(count(), _marks(self.point_norm, values)))

    def adjacent(self, values):
        """Indexed like norm: 1 where Q lies in values, else 0.  Only the
        last value set's table is kept: one can reach 9^6 bytes."""
        values = tuple(values)
        if self._adjacent[0] != values:
            self._adjacent = values, _marks(self.norm, values)
        return self._adjacent[1]

    def upper(self, verts, values, budget):
        """Row function of the graph under values on the point indices
        verts, ascending: upper(i) lists in order the j > i with
        Q(verts[i] - verts[j]) in values; each call checks the budget."""
        adjacent, off = self.adjacent(values), self.off
        keys = [self.key[i] for i in verts]

        def upper(i):
            budget.check()
            at = keys[i] + off
            return [j for j, k in enumerate(keys[i + 1:], i + 1)
                    if adjacent[at - k]]

        return upper

    def graph(self, verts, values, budget):
        """Bitset adjacency among the point indices verts, in ascending
        order: bit j of row i is set iff Q(verts[i] - verts[j]) lies in
        values, so ordering and cliques follow the points.  Each row
        above the diagonal (upper) is mirrored below it."""
        upper, adj = self.upper(verts, values, budget), [0] * len(verts)
        for i in range(len(verts)):
            bit = 1 << i
            for j in upper(i):
                adj[i] |= 1 << j
                adj[j] |= bit
        return adj

    def line(self, a, b):
        """Point indices of a + lam (b - a) by lam, for point indices a, b."""
        f, line = self.field, [0] * self.field.q
        for u, v in zip(_point(f, self.d, a), _point(f, self.d, b)):
            step = f.sub(v, u)
            line = [i * f.q + f.add(u, f.mul(lam, step))
                    for i, lam in zip(line, f.elements())]
        return line


def _point(f, d, i):
    """The point with index i (see _CayleyTable)."""
    return tuple(i // f.q**j % f.q for j in reversed(range(d)))


def _candidate_value_sets(f, d, mode, fixed, budget):
    """Distance-value sets to search, one per orbit under multiplication
    by nonzero squares (the effect of rescaling coordinates), each its
    orbit's first set in enumeration order: {values: its class key}.
    A square multiplier fixes the square class of a value and the ratio
    of two values, and any two ordered pairs with the same class of the
    first value and the same ratio differ by one.  So {a} is keyed by
    the class of a, and {a, b} by the lesser of its two ordered keys
    (class of a, b/a) and (class of b, a/b); for odd d that orbit is the
    class.  For even d, x.x and nu*(x.x) (nu a nonsquare) have the same
    dimension and discriminant class, so some linear g has Q(gx) =
    nu*Q(x) and carries the cliques of V onto those of nu*V: a class is an
    orbit under all of F_q^*, keyed None for every {a} and min(b/a, a/b)
    for {a, b}."""
    if fixed is not None:
        return {fixed: None}  # the only set, in a class of its own
    even, nonzero = d % 2 == 0, range(1, f.q)
    square = [None] + [f.square_class(v) is SquareClass.SQUARE
                       for v in nonzero]
    if mode == MODE_TWO_DISTANCE:
        inv = [None] + [f.inv(v) for v in nonzero]
    seen = {}  # square-orbit key -> (values, class key)
    for a in nonzero:
        budget.check()  # once per first value
        if mode == MODE_EQUILATERAL:
            seen.setdefault(square[a], ((a,), None if even else square[a]))
            continue
        for b in nonzero[a:]:
            ba, ab = f.mul(b, inv[a]), f.mul(a, inv[b])
            key = min((square[a], ba), (square[b], ab))
            if key not in seen:
                seen[key] = (a, b), min(ba, ab) if even else key
    return dict(seen.values())


def _triangle_subproblems(table, cand, values):
    """The clique subproblems of one value set, one per triangle type,
    in search order.

    Returns a list of (type, e, z, verts, classes) in point indices:
    (0, e, z) is the first triangle of the type with e the Witt pin e_a
    of some value a and z in the row of e in cand (the origin's
    neighborhood), verts lists in ascending order the common neighbors of
    e and z in cand that form no earlier type with two of 0, e, z, and
    classes are the fourth-point classes of verts (see _witt_classes).  A
    type is {"collinear": bool, "sides": sorted side norms}; non-collinear
    types come first, then types in order of their sides.

    A type is coded as its collinear bit plus twice a base-4 count of its
    sides per value, and the sides decide the bit.  Let a triangle
    (a, b, x) have sides s = Q(b - a), t = Q(x - a), u = Q(x - b); with
    y = b - a and w = x - a, s + t - u = 2 y.w.  If w = lam y, then
    lam = (s + t - u) / 2s (s != 0, p odd) and t = lam^2 s.  Conversely
    t = lam^2 s makes the Gram determinant s t - (y.w)^2 of (y, w)
    vanish, which for d <= 2 forces w = lam y: two independent vectors
    span F_q^d, on which x.x is nondegenerate.  For d >= 3 the plane of
    y and w may be degenerate, so x is compared with entry lam of the
    line through a and b, listed once per pair when first needed.  Each
    test is one lookup keyed by the ordered sides, and each x's own
    lookups are made once."""
    f, norm, off, key = table.field, table.norm, table.off, table.key
    adjacent = table.adjacent(values)
    weight = {v: 4**i for i, v in enumerate(values)}
    by_sides, deep, line = {}, int(table.d > 2), cache(table.line)
    for s, t, u in product(values, repeat=3):  # to (type code, lam)
        lam = f.mul(f.sub(f.add(s, t), u), f.inv(f.add(s, s)))
        by_sides[s, t, u] = (2 * (weight[s] + weight[t] + weight[u])
                             + (f.mul(f.mul(lam, lam), s) == t)), lam

    def kind(a, b, x, s, t, u):  # the type code of (a, b, x)
        c, lam = by_sides[s, t, u]
        if c & deep:  # only a degenerate plane leaves the bit open
            c -= line(a, b)[lam] != x
        return c

    first, rows = {}, {}
    norms = table.point_norm
    pins = {a: norms.index(a) for a in values if a in norms}
    for a, e in pins.items():
        at = off - key[e]
        rows[e] = row = []
        for x in [x for x in cand if adjacent[key[x] + at]]:
            kx = key[x]  # and the norms of x and of x - e
            nx, nxe = norm[kx + off], norm[kx + at]
            c = kind(0, e, x, a, nx, nxe)
            row.append((x, kx, nx, nxe, c))
            if c not in first:
                first[c] = bool(c & 1), tuple(sorted((a, nx, nxe))), e, row[-1]
    order = sorted(first, key=lambda c: first[c][:2])
    rank = {c: i for i, c in enumerate(order)}
    subproblems = []
    for i, c in enumerate(order):
        collinear, sides, e, (z, kz, nz, nze, _) = first[c]
        at = off - kz
        # no earlier type with 0 and e, 0 and z, or e and z; each x kept
        # with its key (Q(x), Q(x - e), Q(x - z)), nxz = 0 off z's row
        verts, keys = [], []
        for x, kx, nx, nxe, cx in rows[e]:
            nxz = adjacent[kx + at] and norm[kx + at]
            if nxz and (not i or rank[cx] >= i
                        and rank[kind(0, z, x, nz, nx, nxz)] >= i
                        and rank[kind(e, z, x, nze, nxe, nxz)] >= i):
                verts.append(x)
                keys.append((nx, nxe, nxz))
        classes = None if collinear or not deep else _witt_classes(
            f, (norms[e], nz, nze), keys)
        subproblems.append(({"collinear": collinear, "sides": list(sides)},
                            e, z, verts, classes))
    return subproblems


def _witt_classes(f, sides, keys):
    """Classes of the vertices of a subproblem (0, e, z; verts) of a
    non-collinear type in d >= 3 that isometries fixing 0, e and z map
    onto each other: bitmasks of positions in verts, in order of their
    lowest vertex, or None when every class is a single vertex.  sides
    is (Q(e), Q(z), Q(z - e)); keys[i], (Q(x), Q(x - e), Q(x - z)) for
    x = verts[i], gives twice the Gram matrix of (e, z, x) by
    2 u.v = Q(u) + Q(v) - Q(u - v).  Where that is nonsingular the triple
    is independent, and Witt maps any two x of the key onto each other by
    an isometry that fixes cand and every triangle type, so keeps verts
    and its graph.  Otherwise (x may lie in the plane of e and z, as all
    do for a collinear type or d <= 2) each x is a class of its own."""
    add, sub, mul = f.add, f.sub, f.mul
    ne, nz, nze = sides
    a, b, u = add(ne, ne), add(nz, nz), sub(add(ne, nz), nze)
    free, classes = {}, {}  # by key: Gram matrix nonsingular; by class

    def nonsingular(nx, nxe, nxz):
        # det [[a, u, v], [u, b, w], [v, w, c]] by its first row
        c, v, w = add(nx, nx), sub(add(ne, nx), nxe), sub(add(nz, nx), nxz)
        return add(sub(mul(a, sub(mul(b, c), mul(w, w))),
                       mul(u, sub(mul(u, c), mul(w, v)))),
                   mul(v, sub(mul(u, w), mul(b, v)))) != f.zero

    for i, k in enumerate(keys):
        if k not in free:
            free[k] = nonsingular(*k)
        c = k if free[k] else i  # a tuple, or a vertex's own class
        classes[c] = classes.get(c, 0) | 1 << i
    return list(classes.values()) if len(classes) < len(keys) else None


def _search(problem):
    f, d = problem.field, problem.d
    start = time.monotonic()
    budget = _Budget(problem.budget_secs)
    best_size, best_indices, best_values = 1, [0], None  # the origin
    exhausted = False
    subproblems, classes, value_sets, class_top = [], [], {}, {}
    try:
        table = _CayleyTable(f, d)
        # any point at an allowed distance from the origin gives a
        # size-2 witness before any value set is enumerated
        firsts = table.neighbors(problem.fixed_values or range(1, f.q))
        if firsts:
            best_size, best_indices = 2, [0, firsts[0]]
            best_values = (table.point_norm[firsts[0]],)
        value_sets = _candidate_value_sets(f, d, problem.mode,
                                           problem.fixed_values, budget)
        for values, class_key in value_sets.items():
            if class_key in class_top:
                continue  # its class's first set was searched
            cand = table.neighbors(values)
            top = 2 if cand else 1  # the class maximum so far
            for ttype, e, z, verts, orbits in _triangle_subproblems(
                    table, cand, values):
                nodes, t0 = budget.nodes, time.monotonic()
                adj = table.graph(verts, values, budget)
                # --canonical seeks a tie with the best until the class
                # has one, so top ends exact wherever it reaches best_size
                tie = problem.canonical and top < best_size
                clique, done = _max_clique(adj, budget,
                                           lower=best_size - 3 - tie,
                                           classes=orbits)
                subproblems.append({
                    "values": list(values), "type": ttype,
                    "graph_size": len(verts),
                    "root_branches": len(orbits or verts),
                    "nodes": budget.nodes - nodes,
                    "seconds": time.monotonic() - t0, "done": done})
                top = max(top, 3 + len(clique))  # the triangle counts
                if 3 + len(clique) > best_size:
                    best_size = 3 + len(clique)
                    best_indices = [0, e, z] + [verts[i] for i in clique]
                    best_values = values
                if not done:
                    raise _BudgetHit
            classes.append({"values": list(values), "max": top})
            class_top[class_key] = top
        exhausted = True
    except _BudgetHit:
        pass
    stats = {"nodes": budget.nodes, "subproblems": subproblems}
    if problem.canonical:
        stats["canonical"] = canon = {
            "orbits": len(value_sets), "visited": 0, "nodes": 0, "rows": 0,
            "seconds": 0.0, "classes": classes}
    if problem.canonical and exhausted and best_size >= 2:
        # second pass: lexicographically least witness of the maximum
        # size across the square orbits whose class reaches it; point
        # indices are in lexicographic order, so they compare as points
        t0 = time.monotonic()
        best_key = None
        try:
            for values, class_key in value_sets.items():
                if class_top[class_key] < best_size:
                    continue
                canon["visited"] += 1
                cand = table.neighbors(values)
                clique, rows = _lex_least_clique(
                    table.upper(cand, values, budget), len(cand),
                    best_size - 1, budget)
                canon["rows"] += rows
                if clique is None:
                    continue
                key = [0] + [cand[i] for i in clique]
                if best_key is None or key < best_key:
                    best_key, key_values = key, values
            if best_key is None:
                raise LawViolated("no square orbit of a class that reaches "
                                  "size %d holds such a clique" % best_size)
            best_indices, best_values = best_key, key_values
        except _BudgetHit:
            exhausted = False  # the search pass's witness stands
        canon["nodes"] = budget.nodes - stats["nodes"]
        canon["seconds"] = time.monotonic() - t0
    witness = PointSet(f, d, FORM_STANDARD,
                       [_point(f, d, i) for i in best_indices])
    stats["seconds"] = time.monotonic() - start
    return best_size, witness, best_values, exhausted, stats


def max_equilateral(problem):
    """Largest equilateral set in F_q^d, exact when exhausted=True.

    An exhausted result must respect the rank bound; a violation would
    mean a bug somewhere, so it raises LawViolated."""
    size, witness, values, exhausted, stats = _search(problem)
    if exhausted and size > geometry.equilateral_upper(problem.field,
                                                       problem.d):
        raise LawViolated("exhausted search found %d equilateral points, "
                          "above the rank bound" % size)
    return SearchResult(problem, size, witness, exhausted, stats,
                        values=values)


def max_two_distance(problem):
    """Largest set whose distances lie in some two-value nonzero set.

    The witness may realize only one of the two values (then it is
    equilateral); certificate.derived_meta records which case occurred
    and how the size compares with C(d+2, 2)."""
    size, witness, values, exhausted, stats = _search(problem)
    return SearchResult(problem, size, witness, exhausted, stats,
                        values=values)
