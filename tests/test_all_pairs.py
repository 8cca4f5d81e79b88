"""All-pairs rows of the four routes against the per-pair formulas they replace
(the det route's rows, read from one grounded inverse of L^2, against a
determinant per pair, and the min-norm route's rows against a solve per pair,
up to n = 200), the closed-form index drop against a
Cholesky rebuild of G + e, and a Cholesky breakdown on one minor of L^2 in
the matrix-tree check."""

from pathlib import Path

import numpy as np
import pytest

import biharmonic.linalg
from biharmonic import (
    SpectralCache,
    all_methods,
    biharmonic_determinant,
    biharmonic_minnorm,
    biharmonic_spectral,
    bounds_report,
    build_cache,
    check_edge_monotonicity,
    complete_graph,
    cycle_graph,
    path_graph,
    read_edge_list,
    wheel_graph,
    write_edge_list,
)
from biharmonic.cli import main
from biharmonic.metrics import rebuilt_index

GOLDEN = Path(__file__).resolve().parent / "golden"
ROW_AGREEMENT = 1e-10
# At n = 200 the reference is itself an elimination of an ill-conditioned
# minor of L^2 (condition number 8e8 on P200, 5e7 on C200), as is the route's
# one factor, so on long paths and cycles the two agree to about 3e-9
# relative, not 1e-10.
LONG_ROW_AGREEMENT = 1e-8
DROP_AGREEMENT = 1e-9
REBUILD_ACCURACY = 1e-12
REBUILD_GRAPHS = {path.stem: read_edge_list(path) for path in sorted(GOLDEN.glob("*.g"))}
REBUILD_GRAPHS["path200"] = path_graph(200)


def all_nonedges(g):
    """The endpoint arrays (u, v) of every nonedge of g, in sorted order."""
    us, vs = np.array(g.nonedges(), dtype=int).reshape(-1, 2).T
    return us, vs


def pair_determinants(cache, u, vs):
    """The determinant route one pair at a time: the log determinant of L^2
    without rows and columns u and v against that of L without row and
    column 0."""
    n = cache.graph.n
    _, log_tau = np.linalg.slogdet(cache.laplacian[1:, 1:])
    out = []
    for v in vs:
        keep = [w for w in range(n) if w not in (u, v)]
        _, log_minor = np.linalg.slogdet(cache.laplacian_squared[np.ix_(keep, keep)])
        out.append(np.exp(0.5 * (log_minor - np.log(n)) - log_tau))
    return np.array(out)


def pair_minnorms(cache, u, vs):
    """The min-norm route one pair at a time: the norm of the solution x of
    (L + J/n) x = e_u - e_v, for all v at once as the columns of one solve."""
    n = cache.graph.n
    b = np.zeros((n, len(vs)))
    b[u] = 1.0
    b[vs, np.arange(len(vs))] = -1.0
    x = np.linalg.solve(cache.laplacian + 1.0 / n, b)
    return np.sqrt(np.sum(x * x, axis=0))


def pair_spectral(cache, u, vs):
    w = cache.eig.eigenvalues[1:]
    z = cache.eig.eigenvectors
    out = []
    for v in vs:
        diff = (z[u, 1:] - z[v, 1:]) / w
        out.append(np.sqrt(np.sum(diff * diff)))
    return np.array(out)


# Each route against its per-pair formula. numpy.linalg does the reference
# eliminations: as accurate as the package's per-pair kernels, and fast
# enough to cover every pair of the seeded suite.
ROUTES = [
    (biharmonic_determinant, pair_determinants),
    (biharmonic_minnorm, pair_minnorms),
    (biharmonic_spectral, pair_spectral),
]


def assert_rows_match_pairs(cache):
    n = cache.graph.n
    for u in range(n - 1):
        vs = np.arange(u + 1, n)
        for row_route, pair_route in ROUTES:
            row = row_route(cache, u, vs)
            expected = pair_route(cache, u, vs)
            assert np.all(np.abs(row - expected) <= ROW_AGREEMENT * expected), (row_route, u)


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.g")))
def test_rows_match_pair_routes_on_goldens(name):
    assert_rows_match_pairs(build_cache(read_edge_list(GOLDEN / f"{name}.g")))


def test_rows_match_pair_routes_on_suite(random_suite_caches):
    for cache in random_suite_caches:
        assert_rows_match_pairs(cache)


def test_row_and_pair_reads_agree_exactly():
    cache = build_cache(wheel_graph(7))
    # A row of vertices, and the same vertices as a 2-D array: results take v's shape.
    for vs in (np.array([0, 1, 3, 6]), np.array([[0, 1], [3, 6]])):
        singles = vs.ravel().tolist()
        for route, _ in ROUTES:
            row = route(cache, 2, vs)
            assert row.shape == vs.shape
            assert row.ravel().tolist() == [route(cache, 2, v) for v in singles]
            assert route(cache, 2, 5) == route(cache, 5, 2)
        row = all_methods(cache, 2, vs)
        pairs = [all_methods(cache, 2, v) for v in singles]
        for field in ("spectral", "pinv_entries", "determinant", "min_norm", "max_relative_spread"):
            assert getattr(row, field).ravel().tolist() == [getattr(p, field) for p in pairs], field
        # The bounds report sums the spectral row itself, to the same bits.
        bounds = bounds_report(cache, 2, vs)
        assert bounds.value.tolist() == biharmonic_spectral(cache, 2, vs).tolist()
        assert [bounds_report(cache, 2, v).value for v in singles] == bounds.value.ravel().tolist()


@pytest.mark.parametrize("g", [path_graph(200), cycle_graph(200)], ids=["P200", "C200"])
def test_determinant_rows_match_numpy_at_200(g):
    cache = SpectralCache(g)
    n = g.n
    for u in (0, n // 2, n - 2):
        vs = np.delete(np.arange(n), u)
        expected = pair_determinants(cache, u, vs)
        row = biharmonic_determinant(cache, u, vs)
        assert np.all(np.abs(row - expected) <= LONG_ROW_AGREEMENT * expected), u


@pytest.mark.parametrize(
    "g", [path_graph(200), cycle_graph(200), complete_graph(150)], ids=["P200", "C200", "K150"]
)
def test_minnorm_rows_match_numpy_at_large_n(g):
    cache = SpectralCache(g)
    n = g.n
    for u in (0, n // 2, n - 2):
        vs = np.delete(np.arange(n), u)
        expected = pair_minnorms(cache, u, vs)
        row = biharmonic_minnorm(cache, u, vs)
        assert np.all(np.abs(row - expected) <= ROW_AGREEMENT * expected), u


def test_determinant_row_reads_zero_at_its_own_vertex():
    cache = SpectralCache(wheel_graph(7))
    vs = np.arange(7)
    others = np.delete(vs, 3)
    row = biharmonic_determinant(cache, 3, vs)
    assert row[3] == 0.0
    assert np.delete(row, 3).tolist() == biharmonic_determinant(cache, 3, others).tolist()
    report = all_methods(cache, 3, vs)
    distinct = all_methods(cache, 3, others)
    for field in ("spectral", "pinv_entries", "determinant", "min_norm", "max_relative_spread"):
        assert getattr(report, field)[3] == 0.0, field
        assert np.delete(getattr(report, field), 3).tolist() == getattr(distinct, field).tolist(), field
    with pytest.raises(ValueError, match="needs distinct vertices"):
        bounds_report(cache, 3, vs)


def test_closed_form_drop_matches_rebuild(random_suite):
    checked = 0
    for g in random_suite[:10]:
        us, vs = all_nonedges(g)
        before, after = check_edge_monotonicity(build_cache(g), (us, vs))
        for u, v, after_uv in zip(us, vs, after):
            rebuilt = rebuilt_index(g, (u, v))
            drop = before - after_uv
            assert abs((before - rebuilt) - drop) <= DROP_AGREEMENT * drop
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("name", [k for k, g in REBUILD_GRAPHS.items() if g.nonedges()])
def test_rebuilt_index_matches_numpy(name):
    # B(G+e) of the first addition against n * sum 1/lambda^2 from
    # numpy.linalg eigenvalues of L + b b'; path200 has lambda_2 near 2.5e-4.
    g = REBUILD_GRAPHS[name]
    u, v = g.nonedges()[0]
    b = np.zeros(g.n)
    b[u], b[v] = 1.0, -1.0
    w = np.linalg.eigvalsh(g.laplacian() + np.outer(b, b))
    expected = g.n * np.sum(1.0 / w[1:] ** 2)
    assert abs(rebuilt_index(g, (u, v)) - expected) <= REBUILD_ACCURACY * expected


def test_closed_form_drop_matches_numpy_on_suite(random_suite_caches):
    # Every seeded graph, every addition verify checks (all nonedges, in one
    # call per graph), against numpy.linalg eigenvalues of L + b b'.
    checked = 0
    for cache in random_suite_caches:
        n = cache.graph.n
        b_index = n * np.sum(1.0 / np.linalg.eigvalsh(cache.laplacian)[1:] ** 2)
        us, vs = all_nonedges(cache.graph)
        before, after = check_edge_monotonicity(cache, (us, vs))
        for u, v, after_uv in zip(us, vs, after):
            b = np.zeros(n)
            b[u], b[v] = 1.0, -1.0
            w = np.linalg.eigvalsh(cache.laplacian + np.outer(b, b))
            drop = b_index - n * np.sum(1.0 / w[1:] ** 2)
            assert abs(drop - (before - after_uv)) <= DROP_AGREEMENT * drop
            checked += 1
    assert checked > 1000


def test_cholesky_breakdown_on_one_minor_exits_one(tmp_path, capsys, monkeypatch):
    g = wheel_graph(7)
    path = tmp_path / "w7.g"
    write_edge_list(g, path)
    minor = np.delete(np.delete(build_cache(g).laplacian_squared, 2, axis=0), 2, axis=1)
    original = biharmonic.linalg.cholesky

    def breaks_on_minor(a):
        if np.array_equal(a, minor):
            raise np.linalg.LinAlgError("matrix is not positive definite")
        return original(a)

    # The matrix-tree check factors each minor of L^2 through linalg.
    monkeypatch.setattr(biharmonic.linalg, "cholesky", breaks_on_minor)
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: matrix is not positive definite\n"
