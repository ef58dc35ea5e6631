"""Exhaustive search for equilateral and two-distance sets in small
spaces: the independent oracle behind every bound claim.

The vertex set is all of F_q^d in lexicographic order of integer
coordinates.  Distance is translation invariant, so one clique vertex
is pinned at the origin and the search runs inside its neighborhood.
Candidate distance values are deduplicated up to the scaling symmetry
x -> lambda x, which multiplies every distance by lambda^2.

Each graph is a Cayley graph on (F_q^d, +): x ~ y iff Q(x - y) lies in
the value set.  The norm of every difference is tabulated once per
(q, d), in (2p-1)^(dk) entries (at most 5^8 = 390625 under the
enumeration ceiling), so an adjacency test is one subtraction of point
keys and one lookup (see _CayleyTable); the canonical pass rebuilds its
graphs from the same table.

The time budget covers the whole run: value-set enumeration, graph
building and the clique search (not the canonical pass, which runs
only after an exhausted search).

The clique engine is exact branch and bound with a greedy sequential
coloring bound, adjacency held in Python-int bitsets.
"""

import itertools
import time
from array import array
from math import comb

from . import geometry
from .geometry import PointSet, FORM_STANDARD
from .linalg import LawViolated


class TooLarge(ValueError):
    pass


ENUMERATION_CEILING = 10**4
BRUTE_FORCE_CEILING = 10**7

MODE_EQUILATERAL = "equilateral"
MODE_TWO_DISTANCE = "two_distance"


class SearchProblem:
    def __init__(self, field, d, mode, fixed_values=None,
                 budget_secs=60.0, node_limit=10**8, canonical=False):
        if field.q**d > ENUMERATION_CEILING:
            raise TooLarge("q^d exceeds the enumeration ceiling %d"
                           % ENUMERATION_CEILING)
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
        self.stats = stats  # {"nodes": int, "seconds": float}
        self.values = values  # distance values of the best subproblem
        self.both_values = both_values  # two-distance mode only
        self.bound_status = bound_status  # two-distance mode only


class _Budget:
    """Node and wall-clock limits shared by every phase of one search."""

    def __init__(self, budget_secs, node_limit):
        self.deadline = time.monotonic() + budget_secs
        self.node_limit = node_limit
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.node_limit or time.monotonic() > self.deadline:
            raise _BudgetHit

    def check(self):
        if time.monotonic() > self.deadline:
            raise _BudgetHit


class _BudgetHit(Exception):
    pass


def _max_clique(adj, n, budget, lower=0):
    """Exact maximum clique on a bitset adjacency list.

    Returns (best_vertices, exhausted).  `lower` seeds the pruning
    bound with an already-known clique size.
    """
    best = []
    best_size = lower

    def color_order(p_mask):
        order, bounds = [], []
        uncolored = p_mask
        color = 0
        while uncolored:
            color += 1
            cand = uncolored
            while cand:
                v = (cand & -cand).bit_length() - 1
                bit = 1 << v
                cand &= ~(bit | adj[v])
                uncolored &= ~bit
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
        expand([], (1 << n) - 1)
        return best, True
    except _BudgetHit:
        return best, False


def _lex_least_clique(adj, n, size):
    """Lexicographically least clique of the given size (vertices in
    ascending index order), or None if none exists."""

    def grow(start, stack, p_mask):
        if len(stack) == size:
            return stack[:]
        for v in range(start, n):
            bit = 1 << v
            if not (p_mask & bit):
                continue
            rest = p_mask & adj[v]
            if len(stack) + 1 + bin(rest >> (v + 1)).count("1") < size:
                continue
            stack.append(v)
            found = grow(v + 1, stack, rest)
            stack.pop()
            if found:
                return found
        return None

    return grow(0, [], (1 << n) - 1)


class _CayleyTable:
    """Norm Q(x - y) of every pair of points of F_q^d, by one
    subtraction of keys and one lookup.

    Point index i is the position of a point in lexicographic order of
    integer coordinates; it has d*k base-p digits.  key[i] reads the
    same digits in base 2p-1, so every digit of key[x] - key[y] lies in
    [-(p-1), p-1] and the subtraction has no carries.  Adding
    off = ((2p-1)^(dk) - 1) / 2 moves each digit into [0, 2p-2], and
    norm[key[x] - key[y] + off] is the encoding of Q(x - y), stored in
    16 bits since q <= 10^4.
    """

    def __init__(self, f, d):
        p, digits = f.p, d * f.k
        base = 2 * p - 1
        self.size = f.q**d
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
        # point index of the difference that each table index stands
        # for, one digit at a time; the last digit streams into the table
        digit = [(v - (p - 1)) % p for v in range(base)]
        diff = [0]
        for _ in range(digits - 1):
            diff = array("H", (a * p + r for a in diff for r in digit))
        self.norm = array("H", (point_norm[a * p + r]
                                for a in diff for r in digit))

    def graph(self, values, budget=None):
        """Induced graph on the origin's distance-in-values neighborhood.

        Pinning the origin is sound because distance is translation
        invariant and the origin is the lexicographically first point.
        cand lists point indices in ascending (lexicographic) order."""
        vset = set(values)
        norm, key, off = self.norm, self.key, self.off
        cand = [i for i in range(1, self.size) if norm[key[i] + off] in vset]
        keys = [key[i] for i in cand]
        n = len(cand)
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
        return cand, adj


def _point(f, d, i):
    """The point with index i (see _CayleyTable)."""
    return tuple(i // f.q**j % f.q for j in reversed(range(d)))


def _candidate_value_sets(f, mode, fixed, budget):
    """Distance-value sets to search, one per orbit under multiplication
    by nonzero squares (the effect of rescaling coordinates).  The
    first set met in enumeration order represents its orbit, whose key
    is the least sorted tuple of values over the orbit."""
    if fixed is not None:
        return [fixed]
    nonzero = range(1, f.q)
    squares = {f.mul(x, x) for x in nonzero}
    orbit = {v: [f.mul(s, v) for s in squares] for v in nonzero}
    if mode == MODE_EQUILATERAL:
        sets = ((a,) for a in nonzero)
    else:
        sets = ((a, b) for i, a in enumerate(nonzero)
                for b in nonzero[i + 1:])
    seen = {}
    for vals in sets:
        budget.check()
        key = min(tuple(sorted(images))
                  for images in zip(*(orbit[v] for v in vals)))
        if key not in seen:
            seen[key] = vals
    return list(seen.values())


def _search(problem):
    f = problem.field
    d = problem.d
    start = time.monotonic()
    budget = _Budget(problem.budget_secs, problem.node_limit)
    best_size = 1
    best_indices = [0]  # the origin
    best_values = None
    exhausted = False
    try:
        table = _CayleyTable(f, d)
        value_sets = _candidate_value_sets(f, problem.mode,
                                           problem.fixed_values, budget)
        for values in value_sets:
            cand, adj = table.graph(values, budget)
            clique, done = _max_clique(adj, len(cand), budget,
                                       lower=best_size - 1)
            if 1 + len(clique) > best_size:
                best_size = 1 + len(clique)
                best_indices = [0] + [cand[i] for i in clique]
                best_values = values
            if not done:
                break
        else:
            exhausted = True
    except _BudgetHit:
        pass
    if problem.canonical and exhausted and best_size >= 2:
        # second pass: lexicographically least witness of the maximum
        # size across the (deduplicated) value-set subproblems; point
        # indices are in lexicographic order, so they compare as points
        best_key = None
        for values in value_sets:
            cand, adj = table.graph(values)
            clique = _lex_least_clique(adj, len(cand), best_size - 1)
            if clique is None:
                continue
            key = [0] + [cand[i] for i in clique]
            if best_key is None or key < best_key:
                best_key = key
                best_values = values
        best_indices = best_key
    witness = PointSet(f, d, FORM_STANDARD,
                       [_point(f, d, i) for i in best_indices])
    stats = {"nodes": budget.nodes,
             "seconds": time.monotonic() - start}
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
    census = {"equilateral": 0, "two_distance": 0, "other": 0}
    for subset in itertools.combinations(points, n):
        s = PointSet(f, d, FORM_STANDARD, subset)
        cls = geometry.classify(s)
        if isinstance(cls, geometry.Equilateral):
            census["equilateral"] += 1
        elif isinstance(cls, geometry.TwoDistance):
            census["two_distance"] += 1
        else:
            census["other"] += 1
    return census
