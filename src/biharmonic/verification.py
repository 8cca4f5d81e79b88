"""Whole-graph verification: every cross-check the library knows, one report per check.

Given a connected graph, this module recomputes its biharmonic structure along
every available route and confirms that the routes agree and that all the
proved inequalities hold. Each check yields a named CheckResult; the CLI turns
them into PASS/FAIL lines and exits nonzero if any fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import closed_forms, graphs, metrics

SPREAD_TOLERANCE = 1e-8
TRIANGLE_TOLERANCE = 1e-10
BOUND_SLACK = 1e-12
INDEX_MATCH = 1e-8
MONOTONICITY_MARGIN = 1e-12
MATRIX_TREE_RELATIVE = 1e-6
PINV_IDENTITY = 1e-8
CLOSED_FORM_TOLERANCE = 1e-9
MONOTONICITY_SAMPLE_CAP = 25


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def fmt(x) -> str:
    """The one number format of every report and CLI line: 12 significant digits."""
    return f"{float(x):.12g}"


def _worst(values, reduce=max, start: float = 0.0) -> float:
    """Reduce (max or min) over start and values, failing closed: nan as soon
    as any value is nan or inf. A plain max(worst, nan) keeps worst, which
    would let a nan defect read as a pass."""
    values = [start, *values]
    return reduce(values) if np.all(np.isfinite(values[1:])) else float("nan")


def count_spanning_trees_exhaustive(g: graphs.Graph) -> int:
    """Count spanning trees by testing every (n-1)-edge subset for connectivity."""
    if g.n == 1:
        return 1
    count = 0
    for subset in itertools.combinations(g.sorted_edges(), g.n - 1):
        if graphs.is_connected(graphs.make_graph(g.n, subset)):
            count += 1
    return count


def _check_connectivity(cache: metrics.SpectralCache) -> CheckResult:
    """A state exists only for a graph that passed the traversal test, and its
    eigendecomposition only with a spectral gap: a graph failing either
    certificate raises before any check runs."""
    _ = cache.eig
    return CheckResult("connectivity-certificate", True, "traversal=true spectral=true")


def _rows(n: int):
    """Every pair u < v once, as (u, the array of v > u), one row u at a time."""
    return ((u, np.arange(u + 1, n)) for u in range(n - 1))


def _check_methods(cache: metrics.SpectralCache) -> CheckResult:
    """The four routes on all pairs, one row u at a time (memory O(n^2))."""
    routes = (
        metrics.biharmonic_spectral,
        metrics.biharmonic_pinv_entries,
        metrics.biharmonic_determinant,
        metrics.biharmonic_minnorm,
    )
    spreads = (
        np.max(metrics.relative_spread([route(cache, u, vs) for route in routes]), initial=0.0)
        for u, vs in _rows(cache.graph.n)
    )
    worst = _worst(spreads)
    return CheckResult(
        name="four-method-agreement",
        passed=worst <= SPREAD_TOLERANCE,
        detail=f"max relative spread {fmt(worst)}",
    )


def _triangle_defect(dm: np.ndarray) -> float:
    """Worst triple defect max over i, k of d(i,k) - min_j (d(i,j) + d(j,k)).

    The inner minimum is taken one row i at a time, so memory stays O(n^2)
    where the n^3 array of all sums would not; min and max are exact, so the
    result does not depend on the blocking.
    """
    closest = np.empty_like(dm)
    for i, row in enumerate(dm):
        closest[i] = np.min(row[:, None] + dm, axis=0)
    return float(np.max(dm - closest))


def _check_metric_axioms(cache: metrics.SpectralCache) -> CheckResult:
    dm = metrics.distance_matrix(cache)
    n = cache.graph.n
    nonnegative = bool(np.all(dm >= 0.0))
    null_diagonal = bool(np.all(np.diag(dm) == 0.0))
    positive_off = n < 2 or bool(np.min(dm[~np.eye(n, dtype=bool)]) > 0.0)
    symmetric = bool(np.array_equal(dm, dm.T))
    violation = _triangle_defect(dm)
    triangle = violation <= TRIANGLE_TOLERANCE
    passed = nonnegative and null_diagonal and positive_off and symmetric and triangle
    return CheckResult(
        name="metric-axioms",
        passed=passed,
        detail=(
            f"nonnegative={str(nonnegative).lower()} nullity={str(null_diagonal and positive_off).lower()} "
            f"symmetric={str(symmetric).lower()} triangle defect {fmt(violation)}"
        ),
    )


def _check_bounds(cache: metrics.SpectralCache) -> CheckResult:
    reports = [metrics.bounds_report(cache, u, vs) for u, vs in _rows(cache.graph.n)]
    worst = _worst(
        np.max(x, initial=0.0) for r in reports for x in (r.lower - r.value, r.value - r.upper)
    )
    consistent = all(np.all(r.consistent) for r in reports)
    return CheckResult(
        name="spectral-bounds",
        passed=worst <= BOUND_SLACK and consistent,
        detail=f"worst bound defect {fmt(worst)} attainment consistent {str(consistent).lower()}",
    )


def _check_index_consistency(cache: metrics.SpectralCache) -> CheckResult:
    spectral = metrics.biharmonic_index_spectral(cache)
    pairwise = metrics.biharmonic_index_pairwise(cache)
    gap = abs(spectral - pairwise)
    ok = gap <= INDEX_MATCH * max(1.0, abs(spectral))
    return CheckResult(
        name="index-consistency",
        passed=ok,
        detail=f"spectral {fmt(spectral)} pairwise {fmt(pairwise)}",
    )


def _check_brk(cache: metrics.SpectralCache) -> CheckResult:
    g = cache.graph
    if g.n < 2:
        return CheckResult("index-inequality", True, "single vertex, vacuous")
    try:
        r = metrics.check_brk(cache)
    except ArithmeticError as exc:
        return CheckResult("index-inequality", False, str(exc))
    flag_ok = r.equality == graphs.is_complete(g)
    return CheckResult(
        name="index-inequality",
        passed=flag_ok,
        detail=f"B {fmt(r.b)} >= {fmt(r.rhs)} equality={str(r.equality).lower()}",
    )


def _check_floor(cache: metrics.SpectralCache) -> CheckResult:
    g = cache.graph
    try:
        r = metrics.check_index_floor(cache)
    except ArithmeticError as exc:
        return CheckResult("index-floor", False, str(exc))
    flag_ok = g.n < 2 or r.equality == graphs.is_complete(g)
    return CheckResult(
        name="index-floor",
        passed=flag_ok,
        detail=f"B {fmt(r.b)} >= {fmt(r.floor)} equality={str(r.equality).lower()}",
    )


def _check_monotonicity(cache: metrics.SpectralCache) -> CheckResult:
    nonedges = cache.graph.nonedges()[:MONOTONICITY_SAMPLE_CAP]
    if not nonedges:
        return CheckResult("edge-monotonicity", True, "no nonedges to add")
    try:
        indices = [metrics.check_edge_monotonicity(cache, e) for e in nonedges]
    except ArithmeticError as exc:
        return CheckResult("edge-monotonicity", False, str(exc))
    margin = _worst((before - after for before, after in indices), reduce=min, start=np.inf)
    detail = f"{len(nonedges)} additions, min index drop {fmt(margin)}"
    # The first addition rebuilt from a Cholesky factor of L(G+e) + J/n: an
    # independent check of the closed form that gave every B(G+e) above.
    before, after = indices[0]
    rebuilt = metrics.rebuilt_index(cache, nonedges[0])
    matched = abs(rebuilt - after) <= INDEX_MATCH * max(1.0, abs(before))
    if not matched:
        detail += f", rebuilt {fmt(rebuilt)} against {fmt(after)}"
    return CheckResult("edge-monotonicity", margin > MONOTONICITY_MARGIN and matched, detail)


def _check_matrix_tree(g: graphs.Graph, cache: metrics.SpectralCache) -> CheckResult:
    """Every minor det((L^2)_-v) against n tau^2, compared in logs so that
    neither side overflows; the printed tau must still be finite to pass.
    The minors are the ones the determinant route factored."""
    tau = metrics.spanning_tree_count(cache)
    expected = np.log(g.n) + 2.0 * cache.log_tree_count
    worst = _worst(abs(np.exp(cache.grounded(v)[0] - expected) - 1.0) for v in range(g.n))
    ok = worst <= MATRIX_TREE_RELATIVE and np.isfinite(tau)
    detail = f"tau {fmt(tau)} worst relative defect {fmt(worst)}"
    if g.n <= 7:
        exhaustive = count_spanning_trees_exhaustive(g)
        ok = ok and exhaustive == tau
        detail += f" exhaustive {exhaustive}"
    return CheckResult(name="matrix-tree", passed=ok, detail=detail)


def _check_pinv_identities(cache: metrics.SpectralCache) -> CheckResult:
    lap = cache.laplacian
    p = cache.pinv
    p2 = cache.pinv2
    reproduce = float(np.max(np.abs(lap @ p @ lap - lap)))
    square = float(np.max(np.abs(p @ p - p2)))
    rows = float(max(np.max(np.abs(p.sum(axis=1))), np.max(np.abs(p2.sum(axis=1)))))
    worst = _worst((reproduce, square, rows))
    return CheckResult(
        name="pseudoinverse-identities",
        passed=worst <= PINV_IDENTITY,
        detail=f"LpL defect {fmt(reproduce)} square defect {fmt(square)} row sums {fmt(rows)}",
    )


def _recognize_family(g: graphs.Graph):
    if g.n >= 2 and graphs.is_complete(g):
        return ("complete", g.n)
    d = g.n.bit_length() - 1
    if d >= 1 and (1 << d) == g.n and g.edges == graphs.hypercube_graph(d).edges:
        return ("hypercube", d)
    return None


def _check_closed_form(cache: metrics.SpectralCache, family) -> CheckResult:
    """The spectral route against the family's closed form on all pairs, the
    spectral side read one row u at a time."""
    kind, param = family
    deviations = []
    for u, vs in _rows(cache.graph.n):
        spectral = metrics.biharmonic_spectral(cache, u, vs)
        if kind == "complete":
            closed = closed_forms.complete_graph_distance(param)
        else:
            closed = np.array([closed_forms.hypercube_distance(param, u, v) for v in vs.tolist()])
        deviations.append(np.max(np.abs(spectral - closed)))
    worst = _worst(deviations)
    return CheckResult(
        name="closed-form-vs-spectral",
        passed=worst <= CLOSED_FORM_TOLERANCE,
        detail=f"{kind} family, max deviation {fmt(worst)}",
    )


def verify_graph(g: graphs.Graph) -> list[CheckResult]:
    """Run the full check suite; raises DisconnectedGraphError on disconnected input."""
    cache = metrics.build_cache(g)
    results = [
        _check_connectivity(cache),
        _check_methods(cache),
        _check_metric_axioms(cache),
        _check_bounds(cache),
        _check_index_consistency(cache),
        _check_brk(cache),
        _check_floor(cache),
        _check_monotonicity(cache),
        _check_matrix_tree(g, cache),
        _check_pinv_identities(cache),
    ]
    family = _recognize_family(g)
    if family is not None:
        results.append(_check_closed_form(cache, family))
    return results


def all_passed(results) -> bool:
    return all(r.passed for r in results)
