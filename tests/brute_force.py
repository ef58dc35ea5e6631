"""The exhaustive subset census: a test-only oracle for the clique engine
on tiny instances, independent of the search's tables and pins."""

import itertools
from math import comb

from ffdist import geometry
from ffdist.geometry import PointSet, FORM_STANDARD
from ffdist.search import TooLarge

BRUTE_FORCE_CEILING = 10**7


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
