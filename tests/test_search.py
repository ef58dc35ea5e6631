import itertools
import json
import os
from pathlib import Path

import pytest

from ffdist.field import field_make
from ffdist import geometry, search
from ffdist.search import (
    SearchProblem, max_equilateral, max_two_distance,
    brute_force_classify_all, TooLarge,
    MODE_EQUILATERAL, MODE_TWO_DISTANCE,
)

GOLDEN_DIR = Path(os.environ.get("FFDIST_GOLDEN_DIR",
                                 Path(__file__).parent / "golden"))


def run(p, d, mode, **kw):
    f = field_make(p)
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
    assert r.bound_status == "attained"


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
    assert r.bound_status == "exceeded"
    assert geometry.blokhuis_bound(2) == 6
    assert sorted(r.witness.points) == sorted(
        itertools.product(range(3), repeat=2))
    assert r.both_values


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
        assert r.both_values == isinstance(cls, geometry.TwoDistance)


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


def test_canonical_witness_is_deterministic():
    a = run(3, 2, MODE_EQUILATERAL, canonical=True)
    b = run(3, 2, MODE_EQUILATERAL, canonical=True)
    assert a.witness.points == b.witness.points
    # lexicographically least 3-clique through the origin
    assert a.witness.points == [(0, 0), (0, 1), (0, 2)]


def test_budget_exhaustion_reports_partial():
    f = field_make(7)
    prob = SearchProblem(f, 3, MODE_TWO_DISTANCE, budget_secs=60.0,
                         node_limit=5)
    r = max_two_distance(prob)
    assert not r.exhausted
    assert r.max_size >= 1  # partial result, never dropped


def test_ceiling_enforced():
    f = field_make(11)
    with pytest.raises(TooLarge):
        SearchProblem(f, 4, MODE_EQUILATERAL)  # 11^4 > 10^4


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
        r = run(rec["p"], rec["d"], rec["mode"], budget_secs=120)
        assert r.max_size == rec["max_size"], path.name
        assert r.exhausted == rec["exhausted"], path.name
        if "bound_status" in rec:
            assert r.bound_status == rec["bound_status"], path.name


def reference_graph(f, d, values):
    """The search graph built pair by pair with geometry.dist2."""
    points = list(itertools.product(list(f.elements()), repeat=d))
    vset = set(values)
    cand = [x for x in points[1:]
            if geometry.dist2(f, points[0], x) in vset]
    adj = [0] * len(cand)
    for i, x in enumerate(cand):
        for j, y in enumerate(cand):
            if geometry.dist2(f, x, y) in vset:
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


@pytest.mark.parametrize("p,k,d", [
    (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 1), (5, 1, 2),
    (5, 1, 3), (7, 1, 1), (7, 1, 2), (3, 2, 1), (3, 2, 2), (5, 2, 1),
    (5, 2, 2), (3, 3, 1), (3, 3, 2),
])
def test_cayley_graph_matches_dist2_oracle(p, k, d):
    nx = None
    try:
        import networkx as nx
    except ImportError:
        pass
    f = field_make(p, k)
    table = search._CayleyTable(f, d)
    budget = search._Budget(600, 10**9)
    for mode in (MODE_EQUILATERAL, MODE_TWO_DISTANCE):
        value_sets = search._candidate_value_sets(f, mode, None, budget)
        assert value_sets == reference_value_sets(f, mode)
        for values in value_sets:
            cand, adj = table.graph(values)
            want_cand, want_adj = reference_graph(f, d, values)
            assert [search._point(f, d, i) for i in cand] == want_cand
            assert adj == want_adj
            if nx is None:
                continue
            g = nx.Graph()
            g.add_nodes_from(range(len(cand)))
            g.add_edges_from((i, j) for i in range(len(cand))
                             for j in range(i) if adj[i] >> j & 1)
            clique, done = search._max_clique(adj, len(cand), budget)
            assert done
            assert len(clique) == len(nx.max_weight_clique(g, None)[0])
