import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from ffdist.field import field_make
from ffdist import certificate, geometry, search
from ffdist.search import (
    SearchProblem, max_equilateral, max_two_distance, TooLarge,
    MODE_EQUILATERAL, MODE_TWO_DISTANCE,
)

from brute_force import brute_force_classify_all, dist2, isometries_fixing
from test_geometry import assert_pair_norms_match_dist2

GOLDEN_DIR = Path(__file__).parent / "golden"


def node_capped(limit):
    """A search._Budget that also runs out past `limit` clique nodes: a
    budget hit that does not depend on the machine's speed."""

    class Capped(search._Budget):
        def tick(self):
            super().tick()
            if self.nodes > limit:
                raise search._BudgetHit

    return Capped


@pytest.fixture
def plain_engine(monkeypatch):
    """Every subproblem on the plain clique engine, with no fourth-point
    classes: the trees recorded before the classes existed."""
    monkeypatch.setattr(search, "_witt_classes", lambda *args: None)


def recorded(r):
    """The meta.search entries certificate.derived_meta gives r's witness:
    bound_status against C(d+2, 2) and both_values."""
    return certificate.derived_meta(r.witness,
                                    geometry.classify(r.witness))["search"]


def run(p, d, mode, k=1, **kw):
    f = field_make(p, k)
    prob = SearchProblem(f, d, mode, **kw)
    if mode == MODE_EQUILATERAL:
        return max_equilateral(prob)
    return max_two_distance(prob)


def test_f3_line_equilateral():
    r = run(3, 1, MODE_EQUILATERAL)
    assert r.max_size == 3 and r.exhausted
    assert sorted(r.witness.points) == [(0,), (1,), (2,)]


def test_f3_line_two_distance():
    r = run(3, 1, MODE_TWO_DISTANCE)
    assert r.max_size == 3 and r.exhausted
    assert recorded(r)["bound_status"] == "attained"


def test_f5_line_equilateral():
    r = run(5, 1, MODE_EQUILATERAL)
    assert r.max_size == 2 and r.exhausted


def test_f3_plane_equilateral():
    r = run(3, 2, MODE_EQUILATERAL)
    assert r.max_size == 3 and r.exhausted
    assert isinstance(geometry.classify(r.witness), geometry.Equilateral)


def test_f3_plane_two_distance_exceeds_reference():
    # all 9 points of F_3^2 form a two-distance set: the desk-scale
    # counterexample to carrying the quadratic bound over verbatim
    r = run(3, 2, MODE_TWO_DISTANCE)
    assert r.max_size == 9 and r.exhausted
    assert recorded(r)["bound_status"] == "exceeded"
    assert geometry.blokhuis_bound(2) == 6
    assert sorted(r.witness.points) == sorted(
        itertools.product(range(3), repeat=2))
    assert recorded(r)["both_values"]


def test_open_case_p3_d4_standard_form():
    # whether standard-form F_3^4 reaches d+2 = 6 equilateral points is
    # not settled by the hyperplane construction; the exhaustive answer
    # is no: the maximum is 4
    r = run(3, 4, MODE_EQUILATERAL, budget_secs=120)
    assert r.exhausted
    assert r.max_size == 4


def test_witness_consistent_with_mode():
    for p, d in [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
        r = run(p, d, MODE_EQUILATERAL)
        cls = geometry.classify(r.witness)
        assert isinstance(cls, geometry.Equilateral)
        r = run(p, d, MODE_TWO_DISTANCE)
        cls = geometry.classify(r.witness)
        assert isinstance(cls, (geometry.Equilateral, geometry.TwoDistance))
        assert recorded(r)["both_values"] == (
            len(geometry.spectrum(r.witness)) == 2)


def test_exhausted_respects_rank_bound():
    for p, d in [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1)]:
        f = field_make(p)
        r = run(p, d, MODE_EQUILATERAL)
        assert r.exhausted
        assert r.max_size <= geometry.equilateral_upper(f, d)


def test_fixed_values():
    r = run(3, 2, MODE_TWO_DISTANCE, fixed_values=[1, 2])
    assert r.max_size == 9
    r = run(3, 1, MODE_EQUILATERAL, fixed_values=[1])
    assert r.max_size == 3
    with pytest.raises(ValueError):
        run(3, 1, MODE_EQUILATERAL, fixed_values=[0])
    # one value for equilateral, one or two for two-distance, distinct
    # mod q (4 = 1 in F_3)
    for mode, values in ((MODE_EQUILATERAL, [1, 2]), (MODE_EQUILATERAL, []),
                         (MODE_TWO_DISTANCE, [1, 2, 1]),
                         (MODE_TWO_DISTANCE, []), (MODE_TWO_DISTANCE, [1, 4])):
        with pytest.raises(ValueError, match="fixed distance value"):
            SearchProblem(field_make(3), 1, mode, fixed_values=values)


def test_canonical_witness_is_deterministic():
    a = run(3, 2, MODE_EQUILATERAL, canonical=True)
    b = run(3, 2, MODE_EQUILATERAL, canonical=True)
    assert a.witness.points == b.witness.points
    # lexicographically least 3-clique through the origin
    assert a.witness.points == [(0, 0), (0, 1), (0, 2)]


def test_budget_exhaustion_reports_partial(monkeypatch):
    monkeypatch.setattr(search, "_Budget", node_capped(5))
    f = field_make(7)
    prob = SearchProblem(f, 3, MODE_TWO_DISTANCE, budget_secs=60.0)
    r = max_two_distance(prob)
    assert not r.exhausted
    assert r.max_size >= 1  # partial result, never dropped


def test_ceiling_enforced():
    # 11^4 points fit the point and norm-table ceilings (21^4 entries),
    # with --canonical too: both passes share one point ceiling
    SearchProblem(field_make(11), 4, MODE_EQUILATERAL)
    SearchProblem(field_make(11), 4, MODE_EQUILATERAL, canonical=True)
    with pytest.raises(TooLarge, match="point ceiling 65536"):
        SearchProblem(field_make(17), 4, MODE_EQUILATERAL, canonical=True)
    with pytest.raises(TooLarge, match="norm-table ceiling 531441"):
        SearchProblem(field_make(3), 9, MODE_EQUILATERAL)  # 5^9 entries
    with pytest.raises(TooLarge, match="point ceiling 65536"):
        SearchProblem(field_make(17), 4, MODE_EQUILATERAL)  # 83,521 points
    with pytest.raises(TooLarge, match="point ceiling 65536"):
        # 131,073 table entries, but 65,537 points overflow 16-bit ids
        SearchProblem(field_make(65537), 1, MODE_TWO_DISTANCE)
    SearchProblem(field_make(3, 6), 1, MODE_EQUILATERAL)  # 5^6 entries


def test_brute_force_examples():
    f3, f5 = field_make(3), field_make(5)
    assert brute_force_classify_all(f3, 1, 3)["equilateral"] == 1
    census = brute_force_classify_all(f3, 1, 2)
    assert census["equilateral"] == 3 and census["other"] == 0
    assert brute_force_classify_all(f5, 1, 3)["equilateral"] == 0


def test_brute_force_ceiling():
    f3 = field_make(3)
    with pytest.raises(TooLarge):
        brute_force_classify_all(f3, 3, 14)


def bf_max(f, d, mode, n_max=4):
    """Largest n <= n_max with a subset compatible with the mode, from
    the exhaustive subset census (independent of the clique engine)."""
    best = 1
    for n in range(2, n_max + 1):
        census = brute_force_classify_all(f, d, n)
        if mode == MODE_EQUILATERAL:
            count = census["equilateral"]
        else:
            count = census["equilateral"] + census["two_distance"]
        if count > 0:
            best = n
    return best


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
@pytest.mark.parametrize("mode", [MODE_EQUILATERAL, MODE_TWO_DISTANCE])
def test_oracle_agreement(p, d, mode):
    f = field_make(p)
    assert f.q**d <= 27 or (p, d) == (5, 2)
    r = run(p, d, mode)
    assert r.exhausted
    assert min(r.max_size, 4) == bf_max(f, d, mode)


def test_golden_files():
    files = sorted(GOLDEN_DIR.glob("*.json"))
    assert files, "golden directory is empty"
    for path in files:
        rec = json.loads(path.read_text())
        assert path.name == "q%d_d%d_%s.json" % (
            rec["p"]**rec["k"], rec["d"], rec["mode"]), path.name
        r = run(rec["p"], rec["d"], rec["mode"], k=rec["k"], budget_secs=120)
        assert r.max_size == rec["max_size"], path.name
        assert r.exhausted == rec["exhausted"], path.name
        if "bound_status" in rec:
            assert recorded(r)["bound_status"] == rec["bound_status"], \
                path.name


def reference_graph(f, d, values):
    """The search graph built pair by pair with brute_force.dist2."""
    points = list(itertools.product(list(f.elements()), repeat=d))
    vset = set(values)
    cand = [x for x in points[1:]
            if dist2(f, points[0], x) in vset]
    adj = [0] * len(cand)
    for i, x in enumerate(cand):
        for j, y in enumerate(cand):
            if dist2(f, x, y) in vset:
                adj[i] |= 1 << j
    return cand, adj


def reference_value_sets(f, mode):
    """First value set of each orbit under nonzero squares, keyed by the
    least sorted tuple of values, computed set by set."""
    nonzero = [a for a in f.elements() if a != f.zero]
    squares = {f.mul(x, x) for x in nonzero}
    seen = {}
    for vals in itertools.combinations(
            nonzero, 1 if mode == MODE_EQUILATERAL else 2):
        key = min(tuple(sorted(f.mul(s, v) for v in vals))
                  for s in squares)
        seen.setdefault(key, vals)
    return list(seen.values())


CAYLEY_GRIDS = [
    (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 1), (5, 1, 2),
    (5, 1, 3), (7, 1, 1), (7, 1, 2), (3, 2, 1), (3, 2, 2), (5, 2, 1),
    (5, 2, 2), (3, 3, 1), (3, 3, 2),
]


def nx_graph(nx, adj, vertices):
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from((i, j) for i in vertices for j in vertices
                     if j < i and adj[i] >> j & 1)
    return g


@pytest.mark.parametrize("p,k,d", CAYLEY_GRIDS)
def test_cayley_graph_matches_dist2_oracle(p, k, d):
    nx = None
    try:
        import networkx as nx
    except ImportError:
        pass
    f = field_make(p, k)
    table = search._CayleyTable(f, d)
    budget = search._Budget(600)
    for mode in (MODE_EQUILATERAL, MODE_TWO_DISTANCE):
        value_sets = list(search._candidate_value_sets(f, d, mode, None,
                                                       budget))
        assert value_sets == reference_value_sets(f, mode)
        for values in value_sets:
            cand = table.neighbors(values)
            adj = table.graph(cand, values, budget)
            want_cand, want_adj = reference_graph(f, d, values)
            assert [search._point(f, d, i) for i in cand] == want_cand
            assert adj == want_adj
            # a random ascending subset of cand gets its induced
            # subgraph, relabelled in order
            rng = random.Random(repr((p, k, d, values)))
            for _ in range(4):
                sub = [i for i in range(len(cand)) if rng.random() < 0.5]
                sub_adj = table.graph([cand[i] for i in sub], values, budget)
                assert sub_adj == [
                    sum(1 << t for t, j in enumerate(sub)
                        if want_adj[i] >> j & 1) for i in sub]
            if nx is None:
                continue
            g = nx_graph(nx, adj, range(len(cand)))
            clique, done = search._max_clique(adj, budget)
            assert done
            assert len(clique) == len(nx.max_weight_clique(g, None)[0])


def on_one_line(f, u, v):
    """Whether v = lambda u for some nonzero lambda, by scanning lambda."""
    return any(tuple(f.mul(lam, c) for c in u) == v for lam in range(1, f.q))


# the 16-bit d = 1 path beside every space the search graphs are checked on,
# and the 256-byte addition rows of GF(49) and F_251
@pytest.mark.parametrize("p,k,d", CAYLEY_GRIDS + [
    (257, 1, 1), (9973, 1, 1), (7, 2, 2), (251, 1, 2)])
def test_cayley_table_matches_dist2_and_lines(p, k, d):
    f = field_make(p, k)
    table = search._CayleyTable(f, d)
    n = f.q**d
    points = [search._point(f, d, i) for i in range(n)]
    origin = points[0]
    rng = random.Random(repr((p, k, d)))

    def entry(x, y):  # table index of points[x] - points[y]
        return table.key[x] - table.key[y] + table.off

    def diff(x, y):
        return tuple(f.sub(a, b) for a, b in zip(points[x], points[y]))

    if n <= 100:
        pairs = list(itertools.product(range(n), repeat=2))
    else:
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3000)]
    for x, y in pairs:
        assert table.norm[entry(x, y)] == dist2(
            f, points[x], points[y])
    norms = [dist2(f, origin, x) for x in points]
    assert list(table.point_norm) == norms
    for size in (1, 2, 3):
        values = rng.sample(range(1, f.q), min(size, f.q - 1))
        assert table.neighbors(values) == [
            i for i, a in enumerate(norms) if a in values]
    # entry lam of the line through w and x is the point w + lam (x - w),
    # its q entries are distinct, and they are the points y with y - w on
    # the line of x - w; y is on it half the time, so both sides show
    index = {x: i for i, x in enumerate(points)}
    for _ in range(300 if f.q <= 256 else 60):
        w, x, y = rng.sample(range(n), 3)
        line = table.line(w, x)
        lam = rng.randrange(f.q)
        assert line[lam] == index[tuple(
            f.add(a, f.mul(lam, b)) for a, b in zip(points[w], diff(x, w)))]
        assert len(set(line)) == f.q
        if rng.random() < 0.5:
            y = line[rng.randrange(1, f.q)]
        assert (y in line) == on_one_line(f, diff(x, w), diff(y, w))


# F_3^3 and F_5^3 hold degenerate planes; GF(9)^2 has none
@pytest.mark.parametrize("p,k,d", [(3, 1, 3), (5, 1, 3), (3, 2, 2)])
def test_sides_decide_collinearity(p, k, d):
    # the rule of search._triangle_subproblems, over every pair of nonzero
    # points y, x with s = Q(y) != 0: x is in the span of y iff t = Q(x) is
    # lam^2 s for lam = (s + t - u) / 2s, u = Q(x - y), and (for d >= 3)
    # x is entry lam of the line through 0 and y
    f = field_make(p, k)
    table = search._CayleyTable(f, d)
    points = [search._point(f, d, i) for i in range(f.q**d)]
    origin = points[0]
    flat_off_line = 0
    for j, y in enumerate(points[1:], 1):
        s = dist2(f, origin, y)
        if s == f.zero:
            continue
        line = table.line(0, j)
        for i, x in enumerate(points[1:], 1):
            t, u = dist2(f, origin, x), dist2(f, x, y)
            lam = f.mul(f.sub(f.add(s, t), u), f.inv(f.add(s, s)))
            flat = f.mul(f.mul(lam, lam), s) == t
            span = any(tuple(f.mul(mu, c) for c in y) == x
                       for mu in f.elements())
            assert span == (flat and (d <= 2 or line[lam] == i)), (y, x)
            flat_off_line += flat and not span
    assert (flat_off_line > 0) == (d >= 3)


@pytest.mark.parametrize("p,k,d", CAYLEY_GRIDS)
def test_pair_norms_match_dist2_on_cayley_spaces(p, k, d):
    f = field_make(p, k)
    points = [search._point(f, d, i) for i in range(f.q**d)]
    assert_pair_norms_match_dist2(
        geometry.PointSet(f, d, geometry.FORM_STANDARD, points))


@pytest.mark.parametrize("p,k,d", CAYLEY_GRIDS)
def test_witt_pin_matches_networkx_clique(p, k, d):
    # Witt's theorem: a clique of three or more points through the origin
    # has an isometric copy through the representative (0, e, z) of the
    # earliest triangle type it holds, inside that type's mask.  With G
    # the origin's neighborhood graph (so the Cayley graph's clique
    # number is 1 + omega(G)), max over types T of 3 + omega(G[mask_T])
    # = 1 + omega(G) whenever that is >= 3, and no type exists otherwise
    nx = pytest.importorskip("networkx")
    f = field_make(p, k)
    origin = (0,) * d
    table = search._CayleyTable(f, d)
    budget = search._Budget(600)
    for mode in (MODE_EQUILATERAL, MODE_TWO_DISTANCE):
        for values in search._candidate_value_sets(f, d, mode, None, budget):
            cand = table.neighbors(values)
            adj = table.graph(cand, values, budget)
            pos = {x: i for i, x in enumerate(cand)}
            omega = 1 + len(nx.max_weight_clique(
                nx_graph(nx, adj, range(len(cand))), None)[0])
            subs = search._triangle_subproblems(table, cand, values)
            order = [(t["collinear"], tuple(t["sides"]))
                     for t, _, _, _, _ in subs]
            assert order == sorted(set(order))
            pinned = []
            for ttype, e, z, verts, classes in subs:
                x, y = (search._point(f, d, i) for i in (e, z))
                assert ttype == {
                    "collinear": any(tuple(f.mul(lam, c) for c in x) == y
                                     for lam in f.elements()),
                    "sides": sorted([dist2(f, origin, x),
                                     dist2(f, origin, y),
                                     dist2(f, x, y)])}
                assert adj[pos[e]] >> pos[z] & 1
                assert verts == sorted(set(verts))
                assert all(adj[pos[e]] >> pos[v] & adj[pos[z]] >> pos[v] & 1
                           for v in verts)
                want = len(nx.max_weight_clique(
                    nx_graph(nx, adj, [pos[v] for v in verts]), None)[0])
                sub = table.graph(verts, values, budget)
                clique, done = search._max_clique(sub, budget)
                assert done and len(clique) == want
                # one root branch per fourth-point class
                clique, done = search._max_clique(sub, budget,
                                                  classes=classes)
                assert done and len(clique) == want
                assert all(sub[u] >> v & 1
                           for u, v in itertools.combinations(clique, 2))
                pinned.append(3 + want)
            if omega >= 3:
                assert max(pinned) == omega, (mode, values)
            else:
                assert not subs, (mode, values)


@pytest.mark.parametrize("p,k,d,split", [(3, 1, 3, False), (3, 1, 4, False),
                                         (5, 1, 3, True)])
def test_witt_classes_lie_in_one_orbit(p, k, d, split):
    # each class of _witt_classes lies inside one orbit of the group of
    # isometries that fix 0, e and z, enumerated by brute force; the
    # classes partition the vertices in order of their lowest one.  The
    # vertices of one norm key left apart, where the Gram matrix of
    # (e, z, x) is singular, span two orbits or more in F_5^3
    f = field_make(p, k)
    origin = (0,) * d
    table = search._CayleyTable(f, d)
    budget = search._Budget(600)
    merged, apart = 0, []
    for mode in (MODE_EQUILATERAL, MODE_TWO_DISTANCE):
        for values in search._candidate_value_sets(f, d, mode, None, budget):
            for ttype, e, z, verts, classes in search._triangle_subproblems(
                    table, table.neighbors(values), values):
                classes = classes or [1 << i for i in range(len(verts))]
                assert sum(classes) == (1 << len(verts)) - 1
                assert sum(c.bit_count() for c in classes) == len(verts)
                lows = [c & -c for c in classes]
                assert lows == sorted(lows)
                if ttype["collinear"]:
                    continue  # the enumeration needs independent e and z
                if len(classes) == len(verts) and not split:
                    continue
                pins = [search._point(f, d, i) for i in (e, z)]
                orbit = {}  # the orbit of each point, by the point
                for g in isometries_fixing(f, d, *pins):
                    for x, y in g.items():
                        orbit.setdefault(x, set()).add(y)
                by_key = {}
                for c in classes:
                    members = [search._point(f, d, verts[i])
                               for i in range(len(verts)) if c >> i & 1]
                    assert set(members) <= orbit[members[0]], (mode, values)
                    merged += len(members) - 1
                    if len(members) == 1:
                        x = members[0]
                        by_key.setdefault(tuple(dist2(f, y, x) for y in
                                                [origin] + pins), []).append(x)
                apart += [set(xs) <= orbit[xs[0]] for xs in by_key.values()
                          if len(xs) > 1]
    assert merged  # some class holds more than one vertex
    assert (False in apart) == split


# sha256 of the repr of every _triangle_subproblems list of both modes'
# value sets, (type, e, z, verts) of each subproblem, as computed while
# collinearity compared ray ids of differences; F_3^5, F_5^4, GF(9)^3 and
# F_7^3 hold degenerate planes that are not lines
SUBPROBLEM_SHA256 = {
    (3, 1, 1):
        "e68dcd2afca83888105b883b16ccfd02282e5f9c45dd88444a0fefca259ebcd3",
    (3, 1, 2):
        "f2ab2d3b97d31e2b35438fc1cdb03e91b8fcf28721a9162c8fdfe3f57b9e0fa5",
    (3, 1, 3):
        "ea852b8910b70ec201b6927ea9bf8cfbd0376bbb5afd3058b00693b86d0d528c",
    (3, 1, 4):
        "408d552bd706e1b61e874fcb84945e98879acceb8912aba31d42eaff4a22b407",
    (5, 1, 1):
        "db3012150cb5ebe56058a1174dc1676c115a1eea2f7869418d62e28e39ae64fa",
    (5, 1, 2):
        "61d3ac98251c98feff0edbfd63b943aa8c19e4f1e0a91b84085325b32682bb8a",
    (5, 1, 3):
        "99383c856d6b715427f86c0845ace50e23e4b12257981ce15d55110683833f4f",
    (7, 1, 1):
        "2fdeba3ee77812e38486594920554049c13fbeb872e9ee7032f43b52bcfcffa9",
    (7, 1, 2):
        "86ac82d0cecdfabea9a166f4615b446ba7fbaf8f9e8851b7f6eb6459e2d4a111",
    (3, 2, 1):
        "84f8f1895708472b3e7490bc99527cfa54e4952f7381a6080d9ca3862f011514",
    (3, 2, 2):
        "f5c4d1d0d00bd91fbcc61a3cfbc1d7128cdab9998eb6f68e38bf0ab641f460a8",
    (5, 2, 1):
        "e49cde4fc6589e01915078125b8a28d7e84ede06c655825c5bc91926bd630bb3",
    (5, 2, 2):
        "340b337b9e2d07cd6853e6ac50d214e0bfb66f4eb814be2dea2e508da763dd2e",
    (3, 3, 1):
        "12f65b73da708da18f82c92f8bee504b726d055a30b601983ca48b0c56312b85",
    (3, 3, 2):
        "7e1359ef63f05ec39d618d8797c4caa0abdeaebca09355d67dec48a9fa9d7531",
    (3, 1, 5):
        "7c4d252395bb133f7e03fdff768297c9b3890e4c81937ae5877ae7058950f75b",
    (5, 1, 4):
        "3c6ccffb39bac0b8a87a8a76129c24f29340ffb71807e77b163c222a378e622b",
    (3, 2, 3):
        "5425bca83273ce18fc43b36abb138104b922dae834928ac2b36d867ef8d46b36",
    (7, 1, 3):
        "5f8e1a185472243704864d46b15b74209a655520385db7736ce6c07ec1cc02a0",
}


@pytest.mark.parametrize("p,k,d", sorted(SUBPROBLEM_SHA256))
def test_triangle_subproblems_pinned(p, k, d):
    f = field_make(p, k)
    table = search._CayleyTable(f, d)
    budget = search._Budget(600)
    digest = hashlib.sha256()
    for mode in (MODE_EQUILATERAL, MODE_TWO_DISTANCE):
        for values in search._candidate_value_sets(f, d, mode, None, budget):
            subs = search._triangle_subproblems(
                table, table.neighbors(values), values)
            digest.update(repr([sub[:4] for sub in subs]).encode())
    assert digest.hexdigest() == SUBPROBLEM_SHA256[(p, k, d)]


def class_firsts(keys):
    """The first value set of each similitude class, by class key, from
    the {values: class key} of search._candidate_value_sets."""
    firsts = {}
    for values, key in keys.items():
        firsts.setdefault(key, values)
    return list(firsts.values())


@pytest.mark.parametrize("p,k,d", [g for g in CAYLEY_GRIDS if g[2] % 2 == 0])
def test_similitude_classes_keep_clique_numbers(p, k, d):
    # for even d a similitude with a nonsquare multiplier exists, so each
    # value set has the clique number of the first set of its orbit
    # under all of F_q^*, and the sets of one orbit share a class key;
    # for odd d every square orbit is a class of its own
    f = field_make(p, k)
    table = search._CayleyTable(f, d)
    budget = search._Budget(600)

    def omega(values):
        clique, done = search._max_clique(
            table.graph(table.neighbors(values), values, budget), budget)
        assert done
        return len(clique)

    def orbit(values):
        return {tuple(sorted(f.mul(lam, v) for v in values))
                for lam in range(1, f.q)}

    for mode in (MODE_EQUILATERAL, MODE_TWO_DISTANCE):
        keys = search._candidate_value_sets(f, d, mode, None, budget)
        firsts = {}
        for values in keys:
            rep = next(w for w in keys if tuple(sorted(w)) in orbit(values))
            firsts.setdefault(rep, values)
            assert omega(values) == omega(rep)
            assert keys[values] == keys[rep]
        assert class_firsts(keys) == list(firsts)
        odd = search._candidate_value_sets(f, d + 1, mode, None, budget)
        assert list(odd) == list(keys)
        assert class_firsts(odd) == list(odd)


def brute_force_clique_number(adj):
    """Size of the largest vertex subset whose members are pairwise
    adjacent, over all 2^n subsets (subset s extends s less its lowest
    vertex v by v, a clique iff v is adjacent to all of the rest)."""
    n = len(adj)
    clique = [True] * (1 << n)
    best = 0
    for s in range(1, 1 << n):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        clique[s] = clique[rest] and adj[v] & rest == rest
        if clique[s]:
            best = max(best, s.bit_count())
    return best


def check_max_clique(adj, data, classes=None):
    """_max_clique under a lower seed drawn from data, against brute force
    and, when installed, networkx: a seed below the clique number must not
    cost the maximum, and one at or above it leaves nothing to find."""
    from hypothesis import strategies
    omega = brute_force_clique_number(adj)
    try:
        import networkx as nx
    except ImportError:
        nx = None
    if nx is not None:
        assert omega == len(nx.max_weight_clique(
            nx_graph(nx, adj, range(len(adj))), None)[0])
    lower = data.draw(strategies.integers(0, omega + 1))
    clique, done = search._max_clique(adj, search._Budget(600), lower=lower,
                                      classes=classes)
    assert done
    if lower < omega:
        assert len(clique) == omega
        assert all(adj[u] >> v & 1
                   for u, v in itertools.combinations(clique, 2))
    else:
        assert clique == []


def test_max_clique_with_a_lower_seed_property():
    # pins the colour-class skip, which drops classes up to
    # best_size - depth, at its boundary
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(0, 14))
        adj = [0] * n
        for i, j in itertools.combinations(range(n), 2):
            if draw(st.booleans()):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        return adj

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(graphs(), st.data())
    def check(adj, data):
        check_max_clique(adj, data)
    check()


def test_max_clique_with_automorphism_classes_property():
    # orbital branching: a graph closed under a permutation sigma, with
    # the cycles of sigma as classes, in any order
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def symmetric_graphs(draw):
        n = draw(st.integers(0, 12))
        sigma = draw(st.permutations(range(n)))
        adj = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if draw(st.booleans()):
                while not adj[u] >> v & 1:  # the edge's orbit under sigma
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    u, v = sigma[u], sigma[v]
        cycles, seen = [], 0
        for start in range(n):
            cycle, v = 0, start
            while not (seen | cycle) >> v & 1:
                cycle |= 1 << v
                v = sigma[v]
            if cycle:
                cycles.append(cycle)
                seen |= cycle
        return adj, draw(st.permutations(cycles))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(symmetric_graphs(), st.data())
    def check(graph, data):
        adj, classes = graph
        check_max_clique(adj, data, classes)
    check()


# instances whose census up to max_size + 1 points stays small; the two
# two-distance maxima of 25-point spaces need 177,100 6-subsets each
BRUTE_FORCE_CASES = [
    (p, k, d, mode)
    for p, k, d in [(3, 1, 1), (3, 1, 2), (5, 1, 1), (7, 1, 1), (11, 1, 1),
                    (13, 1, 1), (3, 2, 1), (3, 3, 1)]
    for mode in (MODE_EQUILATERAL, MODE_TWO_DISTANCE)
] + [(5, 1, 2, MODE_EQUILATERAL), (5, 2, 1, MODE_EQUILATERAL)]


@pytest.mark.parametrize("p,k,d,mode", BRUTE_FORCE_CASES)
def test_max_size_matches_brute_force(p, k, d, mode):
    # the largest n with a compatible n-subset in the exhaustive census
    # (an n-set's subsets are compatible too, so the first n without one
    # ends the scan)
    f = field_make(p, k)
    r = (max_equilateral if mode == MODE_EQUILATERAL
         else max_two_distance)(SearchProblem(f, d, mode))
    assert r.exhausted
    n = 1
    while True:
        census = brute_force_classify_all(f, d, n + 1)
        count = census["equilateral"]
        if mode == MODE_TWO_DISTANCE:
            count += census["two_distance"]
        if not count:
            break
        n += 1
    assert r.max_size == n


def test_f3_dim6_two_distance_exhausts():
    # d + 2 = 8 is a power of two, so the construction does not apply;
    # 288 s with only two points pinned, a few seconds by triangle type,
    # 0.1 s (6,369 nodes) with the fourth point pinned by class
    r = run(3, 6, MODE_TWO_DISTANCE)
    assert r.exhausted
    assert r.max_size == 27
    assert recorded(r)["bound_status"] == "unreached"


def test_f5_dim5_two_distance_exhausts():
    r = run(5, 5, MODE_TWO_DISTANCE)
    assert r.exhausted
    assert r.max_size == 16


def test_size_two_witness_needs_an_allowed_norm():
    # no point of F_5 has the nonsquare norm 2; norm 4 is reached at 2
    # and 3, whose distance is 1
    r = run(5, 1, MODE_EQUILATERAL, fixed_values=[2])
    assert r.exhausted and r.max_size == 1
    r = run(5, 1, MODE_EQUILATERAL, fixed_values=[4])
    assert r.exhausted and r.max_size == 2
    assert r.witness.points == [(0,), (2,)]


def test_f3_dim7_equilateral_exhausts():
    # 1,163,226 clique nodes with only the origin pinned, 7,229 with two
    # points pinned, 151 with three pinned by triangle type, 17 with the
    # fourth pinned by class
    r = run(3, 7, MODE_EQUILATERAL)
    assert r.exhausted
    assert r.max_size == 9


def test_subproblem_stats():
    # one record per triangle type of each searched value set: d is even,
    # so one set per orbit under all of F_5^*
    f = field_make(5)
    r = run(5, 2, MODE_TWO_DISTANCE)
    subs = r.stats["subproblems"]
    table = search._CayleyTable(f, 2)
    want = []
    for values in class_firsts(search._candidate_value_sets(
            f, 2, MODE_TWO_DISTANCE, None, search._Budget(60))):
        want += [(list(values), t, len(verts)) for t, _, _, verts, _ in
                 search._triangle_subproblems(
                     table, table.neighbors(values), values)]
    assert want and [(s["values"], s["type"], s["graph_size"])
                     for s in subs] == want
    for s in subs:
        assert set(s) == {"values", "type", "graph_size", "root_branches",
                          "nodes", "seconds", "done"}
        assert set(s["type"]["sides"]) <= set(s["values"]) and s["done"]
        assert s["root_branches"] == s["graph_size"]  # d = 2: no classes
        assert s["graph_size"] >= 0 and s["seconds"] >= 0
    assert sum(s["nodes"] for s in subs) == r.stats["nodes"]


def test_subproblem_stats_record_budget_hit(monkeypatch):
    monkeypatch.setattr(search, "_Budget", node_capped(5))
    r = run(7, 3, MODE_TWO_DISTANCE)
    assert not r.exhausted
    assert r.stats["subproblems"][-1]["done"] is False
    assert all(s["done"] for s in r.stats["subproblems"][:-1])


# the subproblem records of two search passes as they ran when every
# subproblem built its graph and ran the clique engine: values,
# collinear, sides, graph_size, root_branches, nodes; all done
SKIP_PINS = {
    (5, 2, 2): [
        ((1, 2), False, (1, 1, 1), 1, 1, 1),
        ((1, 2), False, (1, 1, 2), 1, 1, 1),
        ((1, 2), False, (1, 2, 2), 1, 1, 1),
        ((1, 2), False, (2, 2, 2), 0, 0, 1),
        ((1, 4), False, (1, 1, 1), 0, 0, 1),
        ((1, 4), False, (4, 4, 4), 0, 0, 1),
        ((1, 4), True, (1, 1, 4), 2, 2, 2),
        ((1, 4), True, (1, 4, 4), 0, 0, 1),
        ((1, 5), False, (1, 1, 1), 3, 3, 1),
        ((1, 5), False, (1, 1, 5), 1, 1, 1),
        ((1, 5), False, (1, 5, 5), 0, 0, 1),
        ((1, 5), False, (5, 5, 5), 0, 0, 1),
        ((1, 6), False, (1, 1, 1), 0, 0, 1),
        ((1, 6), False, (6, 6, 6), 0, 0, 1),
        ((1, 7), False, (1, 1, 1), 0, 0, 1),
        ((1, 7), False, (1, 1, 7), 0, 0, 1),
        ((1, 7), False, (7, 7, 7), 0, 0, 1),
        ((1, 8), False, (1, 1, 1), 0, 0, 1),
        ((1, 8), False, (1, 1, 8), 0, 0, 1),
        ((1, 8), False, (8, 8, 8), 0, 0, 1),
        ((1, 9), False, (1, 1, 1), 0, 0, 1),
        ((1, 9), False, (1, 9, 9), 0, 0, 1),
        ((1, 9), False, (9, 9, 9), 0, 0, 1),
        ((1, 10), False, (1, 1, 1), 0, 0, 1),
        ((1, 10), False, (10, 10, 10), 0, 0, 1),
        ((1, 13), False, (1, 1, 1), 0, 0, 1),
        ((1, 13), False, (1, 1, 13), 0, 0, 1),
        ((1, 13), False, (13, 13, 13), 0, 0, 1),
        ((1, 14), False, (1, 1, 1), 0, 0, 1),
        ((1, 14), False, (1, 14, 14), 0, 0, 1),
        ((1, 14), False, (14, 14, 14), 0, 0, 1),
        ((1, 15), False, (1, 1, 1), 0, 0, 1),
        ((1, 15), False, (15, 15, 15), 0, 0, 1),
        ((1, 19), False, (1, 1, 1), 0, 0, 1),
        ((1, 19), False, (1, 19, 19), 0, 0, 1),
        ((1, 19), False, (19, 19, 19), 0, 0, 1),
    ],
    (5, 1, 4): [
        ((1, 2), False, (1, 1, 1), 43, 8, 9),
        ((1, 2), False, (1, 1, 2), 25, 13, 1),
        ((1, 2), False, (1, 2, 2), 7, 2, 1),
        ((1, 2), False, (2, 2, 2), 6, 1, 1),
        ((1, 4), False, (1, 1, 1), 48, 8, 89),
        ((1, 4), False, (1, 1, 4), 25, 13, 3),
        ((1, 4), False, (1, 4, 4), 10, 2, 1),
        ((1, 4), False, (4, 4, 4), 6, 1, 1),
        ((1, 4), True, (1, 1, 4), 2, 2, 1),
        ((1, 4), True, (1, 4, 4), 0, 0, 1),
    ],
}
SKIP_RUNS = {(5, 2, 2): (3, dict(canonical=True)), (5, 1, 4): (5, {})}


def graphs_built(monkeypatch):
    """Spy on _CayleyTable.graph: the budget's node count at each call."""
    starts = []
    made = search._CayleyTable.graph

    def spy(self, verts, values, budget):
        starts.append(budget.nodes)
        return made(self, verts, values, budget)

    monkeypatch.setattr(search._CayleyTable, "graph", spy)
    return starts


@pytest.mark.parametrize("p,k,d", sorted(SKIP_PINS))
def test_small_subproblems_skip_the_graph_exactly(monkeypatch, p, k, d):
    # a subproblem with no more vertices than the clique it must beat
    # builds no graph and counts the engine's one root node: the records
    # do not move, and every subproblem that builds no graph records 1
    built, kw = SKIP_RUNS[p, k, d]
    starts = graphs_built(monkeypatch)
    r = run(p, d, MODE_TWO_DISTANCE, k=k, **kw)
    subs = r.stats["subproblems"]
    assert r.exhausted and [
        (tuple(s["values"]), s["type"]["collinear"], tuple(s["type"]["sides"]),
         s["graph_size"], s["root_branches"], s["nodes"])
        for s in subs] == SKIP_PINS[p, k, d]
    assert all(s["done"] for s in subs)
    first = list(itertools.accumulate([0] + [s["nodes"] for s in subs]))
    assert len(starts) == built and set(starts) <= set(first)
    assert all(s["nodes"] == 1 for s, n in zip(subs, first)
               if n not in starts)


def test_budget_hit_on_a_skipped_subproblem(monkeypatch):
    # the budget runs out on the one node a subproblem without a graph
    # counts: it is recorded as not done, last, and nothing after it runs
    starts = graphs_built(monkeypatch)
    full = run(5, 2, MODE_TWO_DISTANCE, k=2, canonical=True)
    first = list(itertools.accumulate(
        [0] + [s["nodes"] for s in full.stats["subproblems"]]))
    i = next(i for i, n in enumerate(first) if n not in starts)
    starts.clear()
    monkeypatch.setattr(search, "_Budget", node_capped(first[i]))
    r = run(5, 2, MODE_TWO_DISTANCE, k=2, canonical=True)
    subs = r.stats["subproblems"]
    assert not r.exhausted and len(subs) == i + 1
    assert subs[-1]["nodes"] == 1 and subs[-1]["done"] is False
    assert [dict(s, seconds=0) for s in subs[:-1]] == [
        dict(s, seconds=0) for s in full.stats["subproblems"][:i]]
    assert first[i] not in starts and r.stats["nodes"] == first[i] + 1


# the clique tree of four instances as the search ran when it still built
# the whole neighborhood graph of each value set: building adjacency per
# subproblem, in ascending point order, must not move a node or a witness
TREE_PINS = json.loads(
    (Path(__file__).parent / "search_trees.json").read_text())


def tree_id(rec):
    return "q%d_d%d_%s" % (rec["p"]**rec["k"], rec["d"], rec["mode"])


@pytest.mark.parametrize("rec", TREE_PINS, ids=tree_id)
def test_clique_tree_pinned(rec, plain_engine):
    r = run(rec["p"], rec["d"], rec["mode"], k=rec["k"])
    assert r.exhausted and r.max_size == rec["max_size"]
    assert r.stats["nodes"] == rec["nodes"]
    assert [{key: s[key] for key in ("values", "type", "graph_size",
                                     "nodes", "done")}
            for s in r.stats["subproblems"]] == rec["subproblems"]
    assert [list(x) for x in r.witness.points] == rec["witness"]


@pytest.mark.parametrize("p,k,d", CAYLEY_GRIDS)
def test_canonical_pass_visits_exactly_the_orbits_that_reach_the_maximum(
        p, k, d):
    # a square orbit lies in one folded class and a similitude keeps
    # clique numbers, so the recorded class maximum must reach max_size
    # exactly when 1 + the clique number of the orbit's whole
    # neighborhood graph does; the canonical pass walks just those orbits
    nx = None
    try:
        import networkx as nx
    except ImportError:
        pass
    f = field_make(p, k)
    table = search._CayleyTable(f, d)
    budget = search._Budget(600)
    for mode in (MODE_EQUILATERAL, MODE_TWO_DISTANCE):
        r = run(p, d, mode, k=k, canonical=True)
        canon = r.stats["canonical"]
        keys = search._candidate_value_sets(f, d, mode, None, budget)
        top = {keys[tuple(c["values"])]: c["max"] for c in canon["classes"]}
        assert [c["values"] for c in canon["classes"]] == list(
            map(list, class_firsts(keys)))
        assert r.exhausted and canon["orbits"] == len(keys)
        reach = 0
        for values in keys:
            adj = table.graph(table.neighbors(values), values, budget)
            clique, done = search._max_clique(adj, budget)
            assert done
            if nx is not None:
                assert len(clique) == len(nx.max_weight_clique(
                    nx_graph(nx, adj, range(len(adj))), None)[0])
            omega = 1 + len(clique)
            t = top[keys[values]]
            assert t <= omega, (mode, values)
            assert (t == r.max_size) == (omega == r.max_size), (mode, values)
            reach += omega == r.max_size
        assert reach and canon["visited"] == reach


# the same four instances with one root branch per fourth-point class:
# total nodes, then (root_branches, nodes) of each subproblem
ORBIT_TREES = {
    "q5_d4_two_distance": (108, [
        (8, 9), (13, 1), (2, 1), (1, 1), (8, 89), (13, 3), (2, 1), (1, 1),
        (2, 1), (0, 1)]),
    "q3_d6_equilateral": (6, [(1, 5), (0, 1)]),
    "q7_d3_two_distance": (26, [
        (4, 3), (2, 1), (1, 1), (0, 1), (8, 1), (1, 1), (0, 1), (0, 1),
        (8, 4), (3, 1), (2, 1), (0, 1), (4, 1), (3, 1), (2, 1), (0, 1),
        (6, 1), (5, 1), (1, 1), (0, 1), (0, 1)]),
    "q9_d2_two_distance": (17, [(6, 6), (1, 1)] + [(0, 1)] * 10),
}


@pytest.mark.parametrize("rec", TREE_PINS, ids=tree_id)
def test_orbit_tree_pinned(rec):
    # the plain trees' sizes and subproblems, on fewer nodes where a
    # subproblem has classes of more than one vertex (d = 2 has none)
    r = run(rec["p"], rec["d"], rec["mode"], k=rec["k"])
    assert r.exhausted and r.max_size == rec["max_size"]
    subs = r.stats["subproblems"]
    assert [{key: s[key] for key in ("values", "type", "graph_size")}
            for s in subs] == [{key: s[key] for key in ("values", "type",
                                                       "graph_size")}
                               for s in rec["subproblems"]]
    assert (r.stats["nodes"], [(s["root_branches"], s["nodes"])
                               for s in subs]) == ORBIT_TREES[tree_id(rec)]
    assert all(s["root_branches"] <= s["graph_size"] for s in subs)


def upper_of(adj):
    """The row function of a bitset adjacency list: the j > i adjacent
    to i, in ascending order."""
    return lambda i: [j for j in range(i + 1, len(adj)) if adj[i] >> j & 1]


@pytest.mark.parametrize("p,k,d", CAYLEY_GRIDS)
def test_rows_built_when_read_match_the_graph(p, k, d):
    # the canonical pass's rows: row i, read in any order, is the whole
    # graph's row i with only its bits above i, the walk builds each row
    # it reads once and counts them, and it finds on them the clique it
    # finds on the whole graph
    f = field_make(p, k)
    table = search._CayleyTable(f, d)
    budget = search._Budget(600)
    for mode in (MODE_EQUILATERAL, MODE_TWO_DISTANCE):
        for values in search._candidate_value_sets(f, d, mode, None, budget):
            cand = table.neighbors(values)
            adj = table.graph(cand, values, budget)
            upper = table.upper(cand, values, budget)
            rng = random.Random(repr((p, k, d, values)))
            reads = [i for i in range(len(cand)) if rng.random() < 0.7] * 2
            rng.shuffle(reads)
            for i in reads:
                row = sum(1 << j for j in upper(i))
                assert row == adj[i] >> i + 1 << i + 1
            omega = len(search._max_clique(adj, budget)[0])
            for size in range(1, omega + 2):
                built = []

                def recorded(i):
                    built.append(i)
                    return upper(i)

                clique, rows = search._lex_least_clique(
                    recorded, len(cand), size, budget)
                assert (clique, rows) == (search._lex_least_clique(
                    upper_of(adj), len(adj), size, budget)[0], len(built))
                assert len(set(built)) == len(built)
                assert (clique is None) == (size > omega)


# (p, k, d, mode): search nodes on the plain engine, canonical nodes,
# square orbits walked and rows built; the first three as they were when
# the canonical pass built every row of the graphs it walked
CANONICAL_STATS = {
    (7, 1, 5, MODE_TWO_DISTANCE): (5476, 21, 1, 21),
    (5, 1, 6, MODE_EQUILATERAL): (395, 12, 2, 12),
    (3, 2, 4, MODE_TWO_DISTANCE): (129, 3559, 2, 182),
    (7, 1, 5, MODE_EQUILATERAL): (26, 7, 1, 6),
    (5, 2, 3, MODE_TWO_DISTANCE): (105, 10, 1, 11),
    (5, 2, 2, MODE_TWO_DISTANCE): (37, 10, 2, 8),
}


# search nodes of the same runs with one root branch per fourth-point
# class; the canonical pass's stats do not move
ORBIT_SEARCH_NODES = {
    (7, 1, 5, MODE_TWO_DISTANCE): 250,
    (5, 1, 6, MODE_EQUILATERAL): 14,
    (3, 2, 4, MODE_TWO_DISTANCE): 64,
    (7, 1, 5, MODE_EQUILATERAL): 6,
    (5, 2, 3, MODE_TWO_DISTANCE): 106,
    (5, 2, 2, MODE_TWO_DISTANCE): 37,
}


def canonical_stats(p, k, d, mode):
    r = run(p, d, mode, k=k, canonical=True)
    canon = r.stats["canonical"]
    assert r.exhausted
    return (r.stats["nodes"], canon["nodes"], canon["visited"],
            canon["rows"])


@pytest.mark.parametrize("p,k,d,mode", sorted(CANONICAL_STATS))
def test_canonical_stats_pinned(p, k, d, mode, plain_engine):
    assert canonical_stats(p, k, d, mode) == CANONICAL_STATS[(p, k, d, mode)]


@pytest.mark.parametrize("p,k,d,mode", sorted(CANONICAL_STATS))
def test_canonical_stats_pinned_with_classes(p, k, d, mode):
    plain = CANONICAL_STATS[(p, k, d, mode)]
    assert canonical_stats(p, k, d, mode) == (
        ORBIT_SEARCH_NODES[(p, k, d, mode)],) + plain[1:]


def test_f3_d6_two_distance_canonical_stats_pinned():
    # the canonical walk that reads most rows per node: search nodes with
    # the fourth-point classes, canonical nodes, orbits walked, rows built
    assert canonical_stats(3, 1, 6, MODE_TWO_DISTANCE) == (6369, 88798, 1,
                                                           174)


@pytest.mark.parametrize("p,k,d", [(5, 1, 4), (7, 1, 4), (5, 2, 3)])
@pytest.mark.parametrize("canonical", [False, True])
def test_class_engine_agrees_with_plain_engine(monkeypatch, p, k, d,
                                               canonical):
    # the fourth-point classes change node counts and, off --canonical,
    # which largest clique is found first; never the size, exhaustion,
    # subproblems, canonical witness or class maxima
    runs = []
    for plain in (False, True):
        with monkeypatch.context() as m:
            if plain:
                m.setattr(search, "_witt_classes", lambda *args: None)
            runs.append(run(p, d, MODE_TWO_DISTANCE, k=k,
                            canonical=canonical))
    classes, plain = runs
    assert classes.exhausted and plain.exhausted
    assert classes.max_size == plain.max_size
    assert [(s["values"], s["type"], s["graph_size"]) for s in
            classes.stats["subproblems"]] == [
        (s["values"], s["type"], s["graph_size"])
        for s in plain.stats["subproblems"]]
    if canonical:
        assert classes.witness.points == plain.witness.points
        assert classes.values == plain.values
        assert (classes.stats["canonical"]["classes"]
                == plain.stats["canonical"]["classes"])
    for r in runs:
        assert len(set(r.witness.points)) == r.max_size
        assert set(geometry.spectrum(r.witness)) <= set(r.values)


def test_witt_classes_asked_only_for_independent_pins(monkeypatch):
    # collinear types and d <= 2 get None without a call; every other
    # subproblem gets _witt_classes of its sides and keys
    witt, calls = search._witt_classes, []

    def spy(f, sides, keys):
        calls.append((sides, keys))
        return witt(f, sides, keys)

    monkeypatch.setattr(search, "_witt_classes", spy)
    seen = {"asked": 0, "collinear": 0, "plane": 0}
    for p, d in ((5, 2), (5, 3), (3, 4)):
        f = field_make(p)
        table = search._CayleyTable(f, d)
        origin = (0,) * d
        for values in search._candidate_value_sets(
                f, d, MODE_TWO_DISTANCE, None, search._Budget(60)):
            calls.clear()
            subs = search._triangle_subproblems(
                table, table.neighbors(values), values)
            asked = [s for s in subs if d > 2 and not s[0]["collinear"]]
            assert len(calls) == len(asked)
            assert all(s[4] is None for s in subs if s not in asked)
            seen["asked"] += len(asked)
            seen["plane" if d == 2 else "collinear"] += len(subs) - len(asked)
            for (ttype, e, z, verts, classes), (sides, keys) in zip(asked,
                                                                    calls):
                x, y = (search._point(f, d, i) for i in (e, z))
                assert sides == (dist2(f, origin, x), dist2(f, origin, y),
                                 dist2(f, x, y))
                assert keys == [tuple(dist2(f, w, search._point(f, d, v))
                                      for w in (origin, x, y))
                                for v in verts]
                assert classes == witt(f, sides, keys)
    assert all(seen.values()), seen


def walk_every_orbit(f, d, mode, size):
    """The canonical witness as found by walking the whole neighborhood
    graph of every square orbit: (least clique through the origin of the
    given size as point indices, its value set)."""
    table = search._CayleyTable(f, d)
    budget = search._Budget(600)
    best = None
    for values in search._candidate_value_sets(f, d, mode, None, budget):
        cand = table.neighbors(values)
        adj = table.graph(cand, values, budget)
        clique = search._lex_least_clique(
            upper_of(adj), len(adj), size - 1, budget)[0]
        if clique is None:
            continue
        key = [0] + [cand[i] for i in clique]
        if best is None or key < best[0]:
            best = key, values
    return best


# 28 spaces, 56 instances with both modes
WALK_CASES = ([(3, 1, d) for d in range(1, 6)]
              + [(5, 1, d) for d in range(1, 5)]
              + [(7, 1, d) for d in range(1, 4)]
              + [(q, 1, d) for q in (11, 13) for d in (1, 2)]
              + [(17, 1, 2), (19, 1, 2), (23, 1, 2), (7, 2, 1), (7, 2, 2)]
              + [(3, 2, d) for d in range(1, 4)] + [(5, 2, 1), (5, 2, 2)]
              + [(3, 3, 1), (3, 3, 2)])


def assert_canonical_witness_matches_walk(p, k, d, mode):
    f = field_make(p, k)
    r = run(p, d, mode, k=k, canonical=True)
    key, values = walk_every_orbit(f, d, mode, r.max_size)
    assert r.witness.points == [search._point(f, d, i) for i in key]
    assert r.values == values


@pytest.mark.parametrize("p,k,d", WALK_CASES)
def test_canonical_witness_matches_walk_of_every_orbit(p, k, d):
    for mode in (MODE_EQUILATERAL, MODE_TWO_DISTANCE):
        assert_canonical_witness_matches_walk(p, k, d, mode)


# above 10^4 points; the two-distance walks take 9 s at GF(25)^3 and do
# not end within 60 s at F_11^4, and F_7^5's equilateral walk takes 10 s
@pytest.mark.parametrize("p,k,d", [(5, 2, 3), (11, 1, 4)])
def test_canonical_equilateral_witness_matches_walk_of_every_orbit(p, k, d):
    assert_canonical_witness_matches_walk(p, k, d, MODE_EQUILATERAL)


def test_canonical_pass_budget_hit_keeps_proven_size(monkeypatch):
    # the node limit sits just above the search pass's own node count, so
    # only the canonical pass can hit it: the proven size and the search
    # pass's witness stand, and the run is not exhausted; F_7^3 and
    # GF(25)^3, 15,625 points
    for p, k in ((7, 1), (5, 2)):
        full = run(p, 3, MODE_TWO_DISTANCE, k=k, canonical=True)
        assert full.exhausted and full.stats["canonical"]["nodes"] > 2
        with monkeypatch.context() as m:
            m.setattr(search, "_Budget", node_capped(full.stats["nodes"] + 1))
            r = run(p, 3, MODE_TWO_DISTANCE, k=k, canonical=True)
        assert not r.exhausted
        assert r.stats["nodes"] == full.stats["nodes"]
        assert r.stats["canonical"]["nodes"] == 2  # the second one hits
        assert r.stats["subproblems"] == [
            dict(s, seconds=t["seconds"]) for s, t in
            zip(full.stats["subproblems"], r.stats["subproblems"])]
        assert (r.max_size, recorded(r)["bound_status"]) == (
            full.max_size, recorded(full)["bound_status"])
        assert len(r.witness.points) == r.max_size
        assert set(geometry.spectrum(r.witness)) <= set(r.values)


def test_default_budget_has_no_node_cap():
    # the clock is the only limit of a run: far past 10^8 nodes a tick
    # still passes while the deadline is ahead, and still reads the clock
    # at nodes 1 mod 256
    budget = search._Budget(600)
    budget.nodes = 10**9  # 10^9 + 1 = 1 mod 256: the next tick reads it
    for _ in range(512):
        budget.tick()
    assert budget.nodes == 10**9 + 512
    late = search._Budget(-1)
    late.nodes = 10**9
    with pytest.raises(search._BudgetHit):
        late.tick()


def test_canonical_pass_checks_the_deadline(monkeypatch):
    # every graph row of a canonical run, the rows of each graph the
    # search pass builds and those the canonical pass builds as its walk
    # reads them, is built under the run's budget, and both a row build
    # and the lexicographic walk stop at a passed deadline
    budgets, sizes = [], []
    made, graph = search._CayleyTable.upper, search._CayleyTable.graph

    def spy(self, verts, values, budget):
        upper = made(self, verts, values, budget)

        def counted(i):
            budgets.append(budget)
            return upper(i)

        return counted

    def graph_spy(self, verts, values, budget):
        sizes.append(len(verts))
        return graph(self, verts, values, budget)

    monkeypatch.setattr(search._CayleyTable, "upper", spy)
    monkeypatch.setattr(search._CayleyTable, "graph", graph_spy)
    r = run(7, 3, MODE_TWO_DISTANCE, canonical=True)
    assert len(budgets) == sum(sizes) + r.stats["canonical"]["rows"]
    assert r.stats["canonical"]["rows"] and None not in budgets
    assert len(set(map(id, budgets))) == 1
    monkeypatch.undo()
    f = field_make(7)
    table = search._CayleyTable(f, 3)
    cand = table.neighbors((1, 5))
    late = search._Budget(-1)
    with pytest.raises(search._BudgetHit):
        table.upper(cand, (1, 5), late)(0)
    with pytest.raises(search._BudgetHit):
        search._lex_least_clique(
            table.upper(cand, (1, 5), search._Budget(600)), len(cand), 6,
            late)


def test_value_sets_check_the_deadline_once_per_first_value():
    # one clock read per first value a of the sets, q - 1 on GF(25), and a
    # passed deadline stops the enumeration before any set is returned
    class Counted(search._Budget):
        checks = 0

        def check(self):
            self.checks += 1
            super().check()

    f = field_make(5, 2)
    for mode in (MODE_EQUILATERAL, MODE_TWO_DISTANCE):
        budget = Counted(600)
        assert list(search._candidate_value_sets(f, 2, mode, None,
                                                 budget)) == (
            reference_value_sets(f, mode))
        assert budget.checks == f.q - 1
        with pytest.raises(search._BudgetHit):
            search._candidate_value_sets(f, 2, mode, None,
                                         search._Budget(-1))
