"""Whole-graph verification: every cross-check the library knows, one report per check.

Given a connected graph, this module recomputes its biharmonic structure along
every available route and confirms that the routes agree and that all the
proved inequalities hold. Each check returns its verdict and detail, and
`_CHECKS` names them in report order; verify_graph turns each into a named
CheckResult, and the CLI turns those into PASS/FAIL lines and exits nonzero if
any fail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import closed_forms, graphs, linalg, metrics
from .metrics import _worst

SPREAD_TOLERANCE = 1e-8
TRIANGLE_TOLERANCE = 1e-10
BOUND_SLACK = 1e-12
INDEX_MATCH = 1e-8
MONOTONICITY_MARGIN = 1e-12
MATRIX_TREE_RELATIVE = 1e-6
PINV_IDENTITY = 1e-8
CLOSED_FORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def fmt(x) -> str:
    """The one number format of every report and CLI line: 12 significant digits."""
    return f"{float(x):.12g}"


def flag(b) -> str:
    """The one boolean format of every report and CLI line."""
    return "true" if b else "false"


def count_spanning_trees_exhaustive(g: graphs.Graph) -> int:
    """Count spanning trees by testing every (n-1)-edge subset for connectivity."""
    if g.n == 1:
        return 1
    count = 0
    for subset in itertools.combinations(g.sorted_edges(), g.n - 1):
        if graphs.is_connected(graphs.make_graph(g.n, subset)):
            count += 1
    return count


def _check_connectivity(cache: metrics.SpectralCache):
    """A state exists only for a graph that passed the traversal test, and its
    eigendecomposition only with a spectral gap: a graph failing either
    certificate raises before any check runs."""
    _ = cache.eig
    return True, "traversal=true spectral=true"


def _rows(n: int):
    """Every pair u < v once, as (u, the array of v > u), one row u at a time."""
    return ((u, np.arange(u + 1, n)) for u in range(n - 1))


def _check_methods(cache: metrics.SpectralCache):
    """The four routes on all pairs, one row u at a time (memory O(n^2))."""
    worst = _worst(
        np.max(metrics.all_methods(cache, u, vs).max_relative_spread)
        for u, vs in _rows(cache.graph.n)
    )
    return worst <= SPREAD_TOLERANCE, f"max relative spread {fmt(worst)}"


def _triangle_defect(dm: np.ndarray) -> float:
    """Worst triple defect max over i, k of d(i,k) - min_j (d(i,j) + d(j,k)),
    or nan when that is nan or inf.

    The inner minimum is taken one row i at a time, so memory stays O(n^2)
    where the n^3 array of all sums would not; min and max are exact, so the
    result does not depend on the blocking.
    """
    closest = np.empty_like(dm)
    for i, row in enumerate(dm):
        closest[i] = np.min(row[:, None] + dm, axis=0)
    return _worst((np.max(dm - closest),))


def _check_metric_axioms(cache: metrics.SpectralCache):
    dm = metrics.distance_matrix(cache)
    n = cache.graph.n
    nonnegative = bool(np.all(dm >= 0.0))
    nullity = bool(np.all(np.diag(dm) == 0.0)) and (
        n < 2 or bool(np.min(dm[~np.eye(n, dtype=bool)]) > 0.0)
    )
    symmetric = bool(np.array_equal(dm, dm.T))
    violation = _triangle_defect(dm)
    passed = nonnegative and nullity and symmetric and violation <= TRIANGLE_TOLERANCE
    return passed, (
        f"nonnegative={flag(nonnegative)} nullity={flag(nullity)} "
        f"symmetric={flag(symmetric)} triangle defect {fmt(violation)}"
    )


def _check_bounds(cache: metrics.SpectralCache):
    reports = [metrics.bounds_report(cache, u, vs) for u, vs in _rows(cache.graph.n)]
    worst = _worst(
        np.max(x, initial=0.0) for r in reports for x in (r.lower - r.value, r.value - r.upper)
    )
    consistent = all(np.all(r.consistent) for r in reports)
    return (
        worst <= BOUND_SLACK and consistent,
        f"worst bound defect {fmt(worst)} attainment consistent {flag(consistent)}",
    )


def _check_index_consistency(cache: metrics.SpectralCache):
    spectral = metrics.biharmonic_index_spectral(cache)
    pairwise = metrics.biharmonic_index_pairwise(cache)
    ok = _worst((abs(spectral - pairwise),)) <= INDEX_MATCH * max(1.0, abs(spectral))
    return ok, f"spectral {fmt(spectral)} pairwise {fmt(pairwise)}"


def _index_bound(check, bound: str, cache: metrics.SpectralCache):
    """A proved lower bound on B through its metrics checker: a violation,
    which the checker raises, FAILs, and the equality flag must hold exactly
    on complete graphs. bound names the report field of the right side."""
    try:
        r = check(cache)
    except ArithmeticError as exc:
        return False, str(exc)
    return (
        r.equality == graphs.is_complete(cache.graph),
        f"B {fmt(r.b)} >= {fmt(getattr(r, bound))} equality={flag(r.equality)}",
    )


def _check_brk(cache: metrics.SpectralCache):
    if cache.graph.n < 2:
        return True, "single vertex, vacuous"
    return _index_bound(metrics.check_brk, "rhs", cache)


def _check_floor(cache: metrics.SpectralCache):
    return _index_bound(metrics.check_index_floor, "floor", cache)


def _check_monotonicity(cache: metrics.SpectralCache):
    """Every edge addition in one call, the nonedges u < v in sorted order."""
    us, vs = np.nonzero(np.triu(cache.laplacian == 0, 1))
    if not us.size:
        return True, "no nonedges to add"
    try:
        before, after = metrics.check_edge_monotonicity(cache, (us, vs))
    except ArithmeticError as exc:
        return False, str(exc)
    margin = _worst(before - after, reduce=min, start=np.inf)
    detail = f"{us.size} additions, min index drop {fmt(margin)}"
    # The first addition rebuilt from a Cholesky factor of L(G+e) + J/n: an
    # independent check of the closed form that gave every B(G+e) above.
    rebuilt = metrics.rebuilt_index(cache, (us[0], vs[0]))
    matched = _worst((abs(rebuilt - after[0]),)) <= INDEX_MATCH * max(1.0, abs(before))
    if not matched:
        detail += f", rebuilt {fmt(rebuilt)} against {fmt(after[0])}"
    return margin > MONOTONICITY_MARGIN and matched, detail


def _check_matrix_tree(cache: metrics.SpectralCache):
    """Every minor det((L^2)_-v) against n tau^2, compared in logs so that
    neither side overflows; the printed tau must still be finite to pass.
    Each minor has its own Cholesky factor, which the determinant route
    (grounded at vertex 0 only) does not share."""
    n = cache.graph.n
    tau = metrics.spanning_tree_count(cache)
    expected = np.log(n) + 2.0 * cache.log_tree_count
    squared = cache.laplacian_squared
    keeps = (np.arange(n) != v for v in range(n))
    log_minors = (linalg.cholesky_log_det(linalg.cholesky(squared[np.ix_(k, k)])) for k in keeps)
    worst = _worst(abs(np.exp(m - expected) - 1.0) for m in log_minors)
    ok = worst <= MATRIX_TREE_RELATIVE and math.isfinite(tau)
    detail = f"tau {fmt(tau)} worst relative defect {fmt(worst)}"
    if n <= 7:
        exhaustive = count_spanning_trees_exhaustive(cache.graph)
        ok = ok and exhaustive == tau
        detail += f" exhaustive {exhaustive}"
    return ok, detail


def _check_pinv_identities(cache: metrics.SpectralCache):
    lap = cache.laplacian
    p = cache.pinv
    p2 = cache.pinv2
    reproduce = float(np.max(np.abs(lap @ p @ lap - lap)))
    square = float(np.max(np.abs(p @ p - p2)))
    rows = _worst(np.max(np.abs(m.sum(axis=1))) for m in (p, p2))
    worst = _worst((reproduce, square, rows))
    return (
        worst <= PINV_IDENTITY,
        f"LpL defect {fmt(reproduce)} square defect {fmt(square)} row sums {fmt(rows)}",
    )


def _recognize_family(g: graphs.Graph):
    """(name, row) for a graph of a family with a closed form, where row(u, vs)
    gives the closed-form distances from u to the vertices vs; else None."""
    n = g.n
    if n >= 2 and graphs.is_complete(g):
        return "complete", lambda u, vs: closed_forms.complete_graph_distance(n)
    d = n.bit_length() - 1
    if d >= 1 and (1 << d) == n and g.edges == graphs.hypercube_graph(d).edges:
        return "hypercube", partial(closed_forms.hypercube_distance, d)
    return None


def _check_closed_form(family: str, closed, cache: metrics.SpectralCache):
    """The spectral route against the family's closed form on all pairs, one
    row u at a time."""
    worst = _worst(
        np.max(np.abs(metrics.biharmonic_spectral(cache, u, vs) - closed(u, vs)))
        for u, vs in _rows(cache.graph.n)
    )
    return worst <= CLOSED_FORM_TOLERANCE, f"{family} family, max deviation {fmt(worst)}"


# Every check of verify_graph, in report order: its name and a function of
# the state that returns (passed, detail).
_CHECKS = (
    ("connectivity-certificate", _check_connectivity),
    ("four-method-agreement", _check_methods),
    ("metric-axioms", _check_metric_axioms),
    ("spectral-bounds", _check_bounds),
    ("index-consistency", _check_index_consistency),
    ("index-inequality", _check_brk),
    ("index-floor", _check_floor),
    ("edge-monotonicity", _check_monotonicity),
    ("matrix-tree", _check_matrix_tree),
    ("pseudoinverse-identities", _check_pinv_identities),
)


def verify_graph(g: graphs.Graph) -> list[CheckResult]:
    """Run the full check suite, plus the closed-form check when g is of a
    known family; raises DisconnectedGraphError on disconnected input."""
    cache = metrics.build_cache(g)
    checks = list(_CHECKS)
    family = _recognize_family(g)
    if family is not None:
        checks.append(("closed-form-vs-spectral", partial(_check_closed_form, *family)))
    return [CheckResult(name, *check(cache)) for name, check in checks]


def all_passed(results) -> bool:
    return all(r.passed for r in results)
