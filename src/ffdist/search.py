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
Every test is a few table lookups (see _triangle_subproblems).

When d is even, x.x and nu*(x.x) (nu a nonsquare) are isometric, so a
similitude with a nonsquare multiplier maps the cliques of a value set V
onto those of nu*V, and the search pass keeps one value set per orbit
under all of F_q^* (see _similitude_classes).  A square orbit lies in
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
less.  stats["subproblems"] records each pinned run with its type.

Each graph is a Cayley graph on (F_q^d, +): x ~ y iff Q(x - y) lies in
the value set.  The norm of every difference is tabulated once per
(q, d), so an adjacency test is one subtraction of point keys and one
lookup (see _CayleyTable).  The search pass builds adjacency only among
the vertices of each subproblem, in ascending point order: the clique
engine sees the induced subgraph under an order-preserving relabelling.
The canonical pass builds the neighborhood graph of each orbit it walks.
Ceilings: q^d <= 2^16 keeps norm and ray ids in 16 bits, the table has
(2p-1)^(dk) <= 9^6 entries, and --canonical keeps q^d <= 10^4.

The time and node budget covers the whole run: value-set enumeration,
graph building, the clique search and the canonical pass, which runs
only after an exhausted search.  A hit in the canonical pass reports
exhausted=False with the proven maximum size and the search pass's
witness.

The clique engine is exact branch and bound with a greedy sequential
coloring bound (MCQ, Tomita-Seki 2003), adjacency held in Python-int
bitsets.
"""

import itertools
import time
from array import array
from math import comb

from . import geometry
from .field import SquareClass
from .geometry import PointSet, FORM_STANDARD
from .linalg import LawViolated


class TooLarge(ValueError):
    pass


POINT_CEILING = 2**16
TABLE_CEILING = 9**6
CANONICAL_CEILING = 10**4
BRUTE_FORCE_CEILING = 10**7

MODE_EQUILATERAL = "equilateral"
MODE_TWO_DISTANCE = "two_distance"


class SearchProblem:
    def __init__(self, field, d, mode, fixed_values=None,
                 budget_secs=60.0, node_limit=10**8, canonical=False):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if not budget_secs >= 0:  # NaN fails this too
            raise ValueError("budget must be a number of seconds >= 0")
        ceiling = CANONICAL_CEILING if canonical else POINT_CEILING
        # q >= 3 > 2, so a d this long is past the ceiling before the
        # power, which would take seconds to compute for a huge d
        if d >= ceiling.bit_length() or field.q**d > ceiling:
            raise TooLarge("q^d exceeds the %s ceiling %d" % (
                "--canonical" if canonical else "point", ceiling))
        if (2 * field.p - 1)**(d * field.k) > TABLE_CEILING:
            raise TooLarge("(2p-1)^(dk) exceeds the norm-table ceiling %d"
                           % TABLE_CEILING)
        if mode not in (MODE_EQUILATERAL, MODE_TWO_DISTANCE):
            raise ValueError("unknown mode %r" % mode)
        if fixed_values is not None:
            fixed_values = tuple(v % field.q for v in fixed_values)
            if 0 in fixed_values:
                raise ValueError("fixed distance values must be nonzero")
        self.field = field
        self.d = d
        self.mode = mode
        self.fixed_values = fixed_values
        self.budget_secs = budget_secs
        self.node_limit = node_limit
        self.canonical = canonical


class SearchResult:
    def __init__(self, problem, max_size, witness, exhausted, stats,
                 values=None, both_values=None, bound_status=None):
        self.problem = problem
        self.max_size = max_size
        self.witness = witness  # PointSet
        self.exhausted = exhausted
        # {"nodes": int, "seconds": float, "subproblems": [one record per
        # pinned clique run: values, type (see _triangle_subproblems),
        # graph_size, nodes, seconds, done]}; nodes counts the search
        # pass.  With --canonical also "canonical": {"orbits": square
        # orbits, "visited": those walked, "nodes", "seconds", "classes":
        # [per searched class: values, max]}; max is a lower bound on the
        # class's clique number, exact wherever either reaches max_size.
        self.stats = stats
        self.values = values  # distance values of the best subproblem
        self.both_values = both_values  # two-distance mode only
        self.bound_status = bound_status  # two-distance mode only


class _Budget:
    """Node and wall-clock limits shared by every phase of one search."""

    def __init__(self, budget_secs, node_limit):
        self.deadline = time.monotonic() + budget_secs
        self.node_limit = node_limit
        self.nodes = 0

    def tick(self):  # reads the clock at nodes 1, 257, 513, ...
        self.nodes += 1
        if self.nodes > self.node_limit or (
                self.nodes & 255 == 1 and time.monotonic() > self.deadline):
            raise _BudgetHit

    def check(self):
        if time.monotonic() > self.deadline:
            raise _BudgetHit


class _BudgetHit(Exception):
    pass


def _max_clique(adj, budget, lower=0):
    """Exact maximum clique of a graph given as a bitset adjacency list.

    Returns (best_vertices, exhausted).  `lower` seeds the pruning
    bound with an already-known clique size."""
    best = []
    best_size = lower

    def color_order(p_mask):
        order, bounds = [], []
        color = 0
        while p_mask:
            color += 1
            cand = p_mask
            while cand:
                low = cand & -cand
                v = low.bit_length() - 1
                cand = (cand ^ low) & ~adj[v]
                p_mask ^= low
                order.append(v)
                bounds.append(color)
        return order, bounds

    def expand(stack, p_mask):
        nonlocal best, best_size
        budget.tick()
        order, bounds = color_order(p_mask)
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
            p_mask &= ~(1 << v)

    try:
        expand([], (1 << len(adj)) - 1)
        return best, True
    except _BudgetHit:
        return best, False


def _lex_least_clique(adj, size, budget):
    """Lexicographically least clique of the given size (vertices in
    ascending index order), or None if none exists."""

    def grow(stack, p_mask):
        # p_mask holds the common neighbors of stack above its last vertex
        budget.tick()
        if len(stack) == size:
            return stack
        while p_mask:
            low = p_mask & -p_mask
            p_mask ^= low
            v = low.bit_length() - 1
            rest = p_mask & adj[v]
            if len(stack) + 1 + rest.bit_count() < size:
                continue
            found = grow(stack + [v], rest)
            if found:
                return found
        return None

    return grow([], (1 << len(adj)) - 1)


def _rays(f, d):
    """Ray id of every point index: the index of the point whose first
    nonzero coordinate is 1 on the same line through the origin (0 for
    the origin itself).

    Built one leading coordinate at a time: in dimension m + 1 the point
    c*q^m + r with c != 0 lies on the ray of (1, r/c), whose index is
    q^m plus the index of r/c, read from scaled[1/c]; scaled[l] maps each
    point index of dimension m to that of l times the point."""
    q = f.q
    inv = [0] + [f.inv(c) for c in range(1, q)]
    ray = [0]
    scaled = [[0]] * q
    for m in range(d):
        n = q**m
        ray += [n + s for c in range(1, q) for s in scaled[inv[c]]]
        if m + 1 < d:
            scaled = [[f.mul(lam, c) * n + s for c in range(q)
                       for s in scaled[lam]] for lam in range(q)]
    return ray


def _spread(by_point, p, digits):
    """by_point[point index of x - y] at each table index of x - y (see
    _CayleyTable), a base-p digit at a time from the last: table digit v
    stands for (v - (p - 1)) mod p, so p blocks become 1..p-1, 0..p-1."""
    size = 1
    for _ in range(digits):
        src, step, new = memoryview(by_point), p * size, (2 * p - 1) * size
        by_point = array("H", [0]) * (len(src) // step * new)
        dst = memoryview(by_point)
        for i in range(len(src) // step):
            g, o = i * step, i * new
            dst[o:o + step - size] = src[g + size:g + step]
            dst[o + step - size:o + new] = src[g:g + step]
        size = new
    return by_point


class _CayleyTable:
    """Norm Q(x - y) of every pair of points of F_q^d, by one
    subtraction of keys and one lookup.

    Point index i is the position of a point in lexicographic order of
    integer coordinates; it has d*k base-p digits.  key[i] reads the
    same digits in base 2p-1, so every digit of key[x] - key[y] lies in
    [-(p-1), p-1] and the subtraction has no carries.  Adding
    off = ((2p-1)^(dk) - 1) / 2 moves each digit into [0, 2p-2], and
    norm[key[x] - key[y] + off] is the encoding of Q(x - y), stored in
    16 bits since q^d <= 2^16 (POINT_CEILING).  ray[key[x] - key[y] +
    off] is the ray id of x - y (see _rays), so x, y, w are collinear
    iff x - w and y - w have the same ray id.  by_norm[a] lists the
    points of norm a; graph builds adjacency among any ascending list of
    points, such as the vertices of one subproblem.
    """

    def __init__(self, f, d):
        p, digits = f.p, d * f.k
        base = 2 * p - 1
        self.off = (base**digits - 1) // 2
        key = [0]
        for _ in range(digits):
            key = [a * base + r for a in key for r in range(p)]
        self.key = array("I", key)
        # norm of each point, by point index
        square = [f.mul(x, x) for x in f.elements()]
        point_norm = square
        for _ in range(d - 1):
            point_norm = [f.add(a, s) for a in point_norm for s in square]
        self.ray = _spread(array("H", _rays(f, d)), p, digits)
        self.norm = _spread(array("H", point_norm), p, digits)
        self.by_norm = [array("H") for _ in range(f.q)]
        for i, a in enumerate(point_norm):
            self.by_norm[a].append(i)

    def neighbors(self, values):
        """Point indices at a distance in values from the origin, in
        ascending (lexicographic) order."""
        return sorted(i for a in set(values) for i in self.by_norm[a])

    def graph(self, verts, values, budget=None):
        """Bitset adjacency among the point indices verts, in ascending
        order: bit j of row i is set iff Q(verts[i] - verts[j]) lies in
        values, so ordering and cliques follow the points."""
        vset = set(values)
        norm, off = self.norm, self.off
        keys = [self.key[i] for i in verts]
        n = len(keys)
        adj = [0] * n
        for i in range(n):
            if budget is not None:
                budget.check()
            row = keys[i] + off
            bit = 1 << i
            for j in range(i + 1, n):
                if norm[row - keys[j]] in vset:
                    adj[i] |= 1 << j
                    adj[j] |= bit
        return adj


def _point(f, d, i):
    """The point with index i (see _CayleyTable)."""
    return tuple(i // f.q**j % f.q for j in reversed(range(d)))


def _candidate_value_sets(f, mode, fixed, budget):
    """Distance-value sets to search, one per orbit under multiplication
    by nonzero squares (the effect of rescaling coordinates), each
    represented by its first set in enumeration order.

    A square multiplier fixes the square class of a value and the ratio
    of two values, and any two ordered pairs with the same class of the
    first value and the same ratio differ by one.  So {a} is keyed by
    the class of a, and {a, b} by the lesser of its two ordered keys
    (class of a, b/a) and (class of b, a/b)."""
    if fixed is not None:
        return [fixed]
    nonzero = range(1, f.q)
    square = [None] + [f.square_class(v) is SquareClass.SQUARE
                       for v in nonzero]
    if mode == MODE_EQUILATERAL:
        keyed = (((a,), square[a]) for a in nonzero)
    else:
        inv = [None] + [f.inv(v) for v in nonzero]
        keyed = (((a, b), min((square[a], f.mul(b, inv[a])),
                              (square[b], f.mul(a, inv[b]))))
                 for i, a in enumerate(nonzero) for b in nonzero[i + 1:])
    seen = {}
    for vals, key in keyed:
        budget.check()
        if key not in seen:
            seen[key] = vals
    return list(seen.values())


def _similitude_classes(f, d, value_sets):
    """The first set of each orbit of value_sets under multiplication by
    all of F_q^*, when d is even; value_sets itself when d is odd.

    For even d, x.x and nu*(x.x) (nu a nonsquare) have the same dimension
    and discriminant class, so they are isometric: some linear g has
    Q(gx) = nu*Q(x) and carries the cliques of V onto those of nu*V."""
    seen = {}
    for vals in value_sets:
        seen.setdefault(_class_key(f, d, vals), vals)
    return list(seen.values())


def _class_key(f, d, vals):
    """Key of the class of vals in _similitude_classes: vals itself for
    odd d; for even d all {a} form one orbit, keyed None, and {a, b} is
    keyed by min(b/a, a/b)."""
    if d % 2:
        return tuple(vals)
    if len(vals) == 2:
        a, b = vals
        return min(f.mul(b, f.inv(a)), f.mul(a, f.inv(b)))
    return None


def _triangle_subproblems(table, cand, values):
    """The clique subproblems of one value set, one per triangle type,
    in search order.

    Returns a list of (type, e, z, verts) in point indices: (0, e, z) is
    the first triangle of the type with e the Witt pin e_a of some value
    a and z in the row of e in cand (the origin's neighborhood), and
    verts lists in ascending order the common neighbors of e and z in
    cand that form no earlier type with two of 0, e, z.  A type is
    {"collinear": bool, "sides": sorted side norms}; non-collinear types
    come first, then types in order of their sides.

    Each test is a few table lookups: a type is coded as its collinear
    flag plus a base-4 count of its sides per value, and collinearity
    compares ray ids of differences."""
    norm, ray, off, key = table.norm, table.ray, table.off, table.key
    vset = set(values)
    weight = {v: 4**i for i, v in enumerate(values)}

    def code(collinear, s, t, u):
        return 2 * (weight[s] + weight[t] + weight[u]) + collinear

    first, rows = {}, {}
    pins = {a: table.by_norm[a][0] for a in values if table.by_norm[a]}
    for a, e in pins.items():
        ke = key[e]
        re = ray[ke + off]
        rows[e] = [z for z in cand if norm[key[z] - ke + off] in vset]
        for z in rows[e]:
            kz = key[z]
            collinear = ray[kz + off] == re
            sides = (a, norm[kz + off], norm[kz - ke + off])
            first.setdefault(code(collinear, *sides),
                             (collinear, tuple(sorted(sides)), e, z))
    order = sorted(first, key=lambda c: first[c][:2])
    rank = {c: i for i, c in enumerate(order)}
    subproblems = []
    for i, c in enumerate(order):
        collinear, sides, e, z = first[c]
        ke, kz = key[e], key[z]
        ne, nz, nze = norm[ke + off], norm[kz + off], norm[kz - ke + off]
        re, rz, rze = ray[ke + off], ray[kz + off], ray[kz - ke + off]
        verts = []
        for x in rows[e]:
            kx = key[x]
            nxz = norm[kx - kz + off]
            if nxz not in vset:
                continue
            nx, rx, nxe = norm[kx + off], ray[kx + off], norm[kx - ke + off]
            if i and (rank[code(rx == re, ne, nx, nxe)] < i
                      or rank[code(rx == rz, nz, nx, nxz)] < i
                      or rank[code(ray[kx - ke + off] == rze,
                                   nze, nxe, nxz)] < i):
                continue
            verts.append(x)
        subproblems.append(({"collinear": collinear, "sides": list(sides)},
                            e, z, verts))
    return subproblems


def _search(problem):
    f, d = problem.field, problem.d
    start = time.monotonic()
    budget = _Budget(problem.budget_secs, problem.node_limit)
    best_size, best_indices, best_values = 1, [0], None  # the origin
    exhausted = False
    subproblems, classes, value_sets = [], [], []
    try:
        table = _CayleyTable(f, d)
        # any point at an allowed distance from the origin gives a
        # size-2 witness before any value set is enumerated
        allowed = problem.fixed_values or range(1, f.q)
        firsts = [(table.by_norm[a][0], a) for a in allowed
                  if table.by_norm[a]]
        if firsts:
            e, a = min(firsts)
            best_size, best_indices, best_values = 2, [0, e], (a,)
        value_sets = _candidate_value_sets(f, problem.mode,
                                           problem.fixed_values, budget)
        for values in _similitude_classes(f, d, value_sets):
            cand = table.neighbors(values)
            top = 2 if cand else 1  # the class maximum so far
            for ttype, e, z, verts in _triangle_subproblems(table, cand,
                                                            values):
                nodes, t0 = budget.nodes, time.monotonic()
                adj = table.graph(verts, values, budget)
                # --canonical seeks a tie with the best until the class
                # has one, so top ends exact wherever it reaches best_size
                tie = problem.canonical and top < best_size
                clique, done = _max_clique(adj, budget,
                                           lower=best_size - 3 - tie)
                subproblems.append({
                    "values": list(values), "type": ttype,
                    "graph_size": len(verts),
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
        exhausted = True
    except _BudgetHit:
        pass
    stats = {"nodes": budget.nodes, "subproblems": subproblems}
    if problem.canonical:
        stats["canonical"] = canon = {
            "orbits": len(value_sets), "visited": 0, "nodes": 0,
            "seconds": 0.0, "classes": classes}
    if problem.canonical and exhausted and best_size >= 2:
        # second pass: lexicographically least witness of the maximum
        # size across the square orbits whose class reaches it; point
        # indices are in lexicographic order, so they compare as points
        t0 = time.monotonic()
        class_top = {_class_key(f, d, c["values"]): c["max"]
                     for c in classes}
        best_key = None
        try:
            for values in value_sets:
                if class_top[_class_key(f, d, values)] < best_size:
                    continue
                canon["visited"] += 1
                cand = table.neighbors(values)
                clique = _lex_least_clique(table.graph(cand, values, budget),
                                           best_size - 1, budget)
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
    equilateral); both_values reports which case occurred.  The size is
    compared against the quadratic reference value C(d+2, 2)."""
    size, witness, values, exhausted, stats = _search(problem)
    both = None
    if size >= 2 and values is not None:
        sp = geometry.spectrum(witness)
        both = len(sp.values) == 2
    bound = geometry.blokhuis_bound(problem.d)
    if not exhausted and size < bound:
        status = "unreached"  # not proven: budget was hit
    elif size > bound:
        status = "exceeded"
    elif size == bound:
        status = "attained"
    else:
        status = "unreached"
    return SearchResult(problem, size, witness, exhausted, stats,
                        values=values, both_values=both, bound_status=status)


def brute_force_classify_all(f, d, n):
    """Classify every n-subset of F_q^d by exhaustive enumeration.

    Returns counts keyed by 'equilateral' / 'two_distance' / 'other'.
    Cross-validation oracle for the clique engine on tiny instances.
    """
    points = list(itertools.product(f.elements(), repeat=d))
    if comb(len(points), n) > BRUTE_FORCE_CEILING:
        raise TooLarge("C(q^d, n) exceeds the brute-force ceiling")
    norms = PointSet(f, d, FORM_STANDARD, points).pair_norms()
    census = {"equilateral": 0, "two_distance": 0, "other": 0}
    for subset in itertools.combinations(range(len(points)), n):
        cls = geometry.classify_values(
            {norms[i][j - i - 1] for i, j in itertools.combinations(subset, 2)})
        if isinstance(cls, geometry.Equilateral):
            census["equilateral"] += 1
        elif isinstance(cls, geometry.TwoDistance):
            census["two_distance"] += 1
        else:
            census["other"] += 1
    return census
