"""Exhaustive search for equilateral and two-distance sets in small
spaces: the independent oracle behind every bound claim.

The vertex set is all of F_q^d in lexicographic order of encoded
coordinates.  Distance is translation invariant, so one clique vertex
is pinned at the origin and the search runs inside its neighborhood.
Candidate distance values are deduplicated up to the scaling symmetry
x -> lambda x, which multiplies every distance by lambda^2.

The clique engine is exact branch and bound with a greedy sequential
coloring bound, adjacency held in Python-int bitsets.
"""

import itertools
import time
from math import comb

from . import geometry
from .geometry import PointSet, FORM_STANDARD, dist2
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
    def __init__(self, budget_secs, node_limit):
        self.deadline = time.monotonic() + budget_secs
        self.node_limit = node_limit
        self.nodes = 0
        self.hit = False

    def tick(self):
        self.nodes += 1
        if self.nodes > self.node_limit or time.monotonic() > self.deadline:
            self.hit = True
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


def _all_points(f, d):
    coords = list(f.elements())
    return [tuple(p) for p in itertools.product(coords, repeat=d)]


def _value_orbit_key(f, values):
    """Canonical key of a value set under multiplication by nonzero
    squares (the effect of rescaling coordinates)."""
    squares = {f.mul(x, x) for x in f.elements() if x != f.zero}
    best = None
    for s in squares:
        key = tuple(sorted(f.encode(f.mul(s, v)) for v in values))
        if best is None or key < best:
            best = key
    return best


def _candidate_value_sets(f, mode, fixed):
    nonzero = [a for a in f.elements() if a != f.zero]
    if fixed is not None:
        vals = tuple(f.coerce(v) for v in fixed)
        if f.zero in vals:
            raise ValueError("fixed distance values must be nonzero")
        return [vals]
    if mode == MODE_EQUILATERAL:
        sets = [(a,) for a in nonzero]
    else:
        sets = [(a, b) for i, a in enumerate(nonzero)
                for b in nonzero[i + 1:]]
    seen = {}
    for vals in sets:
        key = _value_orbit_key(f, vals)
        if key not in seen:
            seen[key] = vals
    return list(seen.values())


def _neighborhood_graph(f, points, values):
    """Induced graph on the origin's distance-in-values neighborhood;
    pinning the origin is sound because distance is translation
    invariant and the origin is the lexicographically first point."""
    origin = points[0]
    vset = set(values)
    cand = [p for p in points
            if p != origin and dist2(f, origin, p) in vset]
    n = len(cand)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dist2(f, cand[i], cand[j]) in vset:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return cand, adj


def _search(problem):
    f = problem.field
    d = problem.d
    points = _all_points(f, d)
    origin = points[0]
    start = time.monotonic()
    budget = _Budget(problem.budget_secs, problem.node_limit)
    value_sets = _candidate_value_sets(f, problem.mode, problem.fixed_values)
    best_size = 1
    best_points = [origin]
    best_values = None
    exhausted = True
    for values in value_sets:
        cand, adj = _neighborhood_graph(f, points, values)
        clique, done = _max_clique(adj, len(cand), budget,
                                   lower=best_size - 1)
        if not done:
            exhausted = False
        if 1 + len(clique) > best_size:
            best_size = 1 + len(clique)
            best_points = [origin] + [cand[i] for i in clique]
            best_values = values
    if problem.canonical and exhausted and best_size >= 2:
        # second pass: lexicographically least witness of the maximum
        # size across the (deduplicated) value-set subproblems
        best_key = None
        for values in value_sets:
            cand, adj = _neighborhood_graph(f, points, values)
            clique = _lex_least_clique(adj, len(cand), best_size - 1)
            if clique is None:
                continue
            pts = [origin] + [cand[i] for i in clique]
            key = tuple(tuple(f.encode(c) for c in p) for p in pts)
            if best_key is None or key < best_key:
                best_key = key
                best_points = pts
                best_values = values
    witness = PointSet(f, d, FORM_STANDARD, best_points)
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
    points = _all_points(f, d)
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
