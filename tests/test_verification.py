import math
import tracemalloc

import numpy as np
import pytest

import biharmonic.metrics
from biharmonic import (
    DisconnectedGraphError,
    all_passed,
    build_cache,
    check_edge_monotonicity,
    is_connected,
    complete_graph,
    count_spanning_trees_exhaustive,
    cycle_graph,
    distance_matrix,
    hypercube_graph,
    k4_minus,
    make_graph,
    path_graph,
    verify_graph,
    wheel_graph,
)
from biharmonic.metrics import SpectralCache, _worst
from biharmonic.verification import _check_matrix_tree, _triangle_defect

# The checks that read B(G): its two evaluations, both lower bounds, and
# the edge additions that must lower it.
INDEX_CHECKS = ["index-consistency", "index-inequality", "index-floor", "edge-monotonicity"]

BASE_CHECKS = [
    "connectivity-certificate",
    "four-method-agreement",
    "metric-axioms",
    "spectral-bounds",
    "index-consistency",
    "index-inequality",
    "index-floor",
    "edge-monotonicity",
    "matrix-tree",
    "pseudoinverse-identities",
]


class TestExhaustiveTreeCount:
    def test_examples(self):
        assert count_spanning_trees_exhaustive(complete_graph(4)) == 16
        assert count_spanning_trees_exhaustive(cycle_graph(5)) == 5
        assert count_spanning_trees_exhaustive(path_graph(4)) == 1
        assert count_spanning_trees_exhaustive(k4_minus()) == 8
        assert count_spanning_trees_exhaustive(complete_graph(1)) == 1


class TestVerifyGraph:
    def test_complete_graph_all_pass_with_closed_form(self):
        results = verify_graph(complete_graph(4))
        assert [r.name for r in results] == BASE_CHECKS + ["closed-form-vs-spectral"]
        assert all_passed(results)
        assert all(r.passed is True for r in results)

    def test_hypercube_recognized(self):
        results = verify_graph(hypercube_graph(3))
        assert results[-1].name == "closed-form-vs-spectral"
        assert "hypercube" in results[-1].detail
        assert all_passed(results)

    def test_generic_graph_has_no_closed_form_line(self):
        results = verify_graph(wheel_graph(6))
        assert [r.name for r in results] == BASE_CHECKS
        assert all_passed(results)

    def test_k4_minus_passes(self):
        results = verify_graph(k4_minus())
        assert all_passed(results)
        matrix_tree = next(r for r in results if r.name == "matrix-tree")
        assert "exhaustive 8" in matrix_tree.detail

    def test_single_vertex(self):
        results = verify_graph(complete_graph(1))
        assert all_passed(results)

    def test_random_suite_passes(self, random_suite):
        for g in random_suite[:10]:
            results = verify_graph(g)
            assert all_passed(results), [r for r in results if not r.passed]
            assert all(type(r.passed) is bool for r in results)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            verify_graph(make_graph(4, [(0, 1), (2, 3)]))

    def test_defect_is_reported(self, monkeypatch):
        monkeypatch.setattr(
            biharmonic.metrics, "biharmonic_index_pairwise", lambda cache: 999.0
        )
        results = verify_graph(path_graph(4))
        failing = [r for r in results if not r.passed]
        assert [r.name for r in failing] == ["index-consistency"]
        assert "999" in failing[0].detail
        assert not all_passed(results)

    @pytest.mark.parametrize(
        "name, bad, failing",
        [
            ("biharmonic_index_spectral", float("inf"), INDEX_CHECKS),
            ("biharmonic_index_spectral", float("nan"), INDEX_CHECKS),
            ("kirchhoff_index", float("nan"), ["index-inequality"]),
        ],
        ids=["B-inf", "B-nan", "Kf-nan"],
    )
    def test_non_finite_index_fails_every_check_it_reaches(self, monkeypatch, name, bad, failing):
        monkeypatch.setattr(biharmonic.metrics, name, lambda cache: bad)
        results = verify_graph(path_graph(6))
        assert [r.name for r in results if not r.passed] == failing

    def test_non_finite_row_sum_is_reported(self, monkeypatch):
        pinv2 = SpectralCache.pinv2.func

        def with_nan(cache):
            p2 = pinv2(cache).copy()
            p2[-1, -1] = float("nan")
            return p2

        monkeypatch.setattr(SpectralCache, "pinv2", property(with_nan))
        results = {r.name: r for r in verify_graph(path_graph(4))}
        assert not results["pseudoinverse-identities"].passed
        assert results["pseudoinverse-identities"].detail.endswith(" row sums nan")

    def test_infinite_route_fails_closed(self, monkeypatch):
        monkeypatch.setitem(biharmonic.metrics.ROUTES, "det", lambda cache, u, v: float("inf"))
        results = verify_graph(complete_graph(4))
        failing = [r for r in results if not r.passed]
        assert [r.name for r in failing] == ["four-method-agreement"]
        assert failing[0].detail == "max relative spread nan"

    @pytest.mark.parametrize(
        "checker, name",
        [
            ("check_brk", "index-inequality"),
            ("check_index_floor", "index-floor"),
            ("check_edge_monotonicity", "edge-monotonicity"),
        ],
    )
    def test_arithmetic_error_fails_only_its_check(self, monkeypatch, checker, name):
        def defect(*args):
            raise ArithmeticError(f"{checker} defect")

        monkeypatch.setattr(biharmonic.metrics, checker, defect)
        results = verify_graph(wheel_graph(6))
        assert [r.name for r in results] == BASE_CHECKS
        failing = [r for r in results if not r.passed]
        assert [(r.name, r.detail) for r in failing] == [(name, f"{checker} defect")]

    def test_forced_non_decrease_fails_naming_the_edge(self, monkeypatch):
        # With P^3 read as zero every drop is -n (b'P^2 b / c)^2 < 0.
        monkeypatch.setattr(
            SpectralCache, "pinv3", property(lambda cache: np.zeros_like(cache.pinv))
        )
        results = verify_graph(path_graph(4))
        failing = [r for r in results if not r.passed]
        assert [r.name for r in failing] == ["edge-monotonicity"]
        assert failing[0].detail.startswith(
            "adding edge (0, 2) failed to decrease the index: "
        )

    def test_rebuild_mismatch_fails_with_both_values(self, monkeypatch):
        monkeypatch.setattr(biharmonic.metrics, "rebuilt_index", lambda cache, e: 999.0)
        results = verify_graph(path_graph(4))
        failing = [r for r in results if not r.passed]
        assert [r.name for r in failing] == ["edge-monotonicity"]
        assert failing[0].detail.endswith(", rebuilt 999 against 4.69444444444")

    def test_all_passed_empty(self):
        assert all_passed([])


class TestWorst:
    def test_finite_values_reduce_from_start(self):
        assert _worst([]) == 0.0
        assert _worst([-1.0, -2.0]) == 0.0
        assert _worst([1e-3, 2e-3]) == 2e-3
        assert _worst([0.5, 0.25], reduce=min, start=float("inf")) == 0.25

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_any_non_finite_value_gives_nan(self, bad):
        assert math.isnan(_worst([1e-3, bad, 2e-3]))
        assert math.isnan(_worst([bad, 0.5], reduce=min, start=float("inf")))


def cubic_triangle_defect(dm):
    """The reference: every sum d(i,j) + d(j,k) held at once in an n^3 array."""
    return float(np.max(dm - np.min(dm[:, :, None] + dm[None, :, :], axis=1)))


class TestTriangleDefect:
    def test_matches_cubic_formula(self, random_suite_caches):
        rng = np.random.default_rng(41)
        matrices = [distance_matrix(cache) for cache in random_suite_caches[:30]]
        for n in (1, 2, 5, 17):
            # symmetric with a zero diagonal, but no metric: defects above 0
            a = rng.random((n, n))
            matrices.append(np.triu(a, 1) + np.triu(a, 1).T)
        for dm in matrices:
            assert _triangle_defect(dm) == cubic_triangle_defect(dm)

    def test_memory_is_quadratic(self):
        n = 200
        points = np.random.default_rng(43).random((n, 2))
        dm = np.sqrt(np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2))
        tracemalloc.start()
        try:
            _triangle_defect(dm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a few n x n arrays, where the n^3 array of sums alone is 64 MB
        assert peak < 8 * n * n * 8


class TestMatrixTreeInLogs:
    """The minors of L^2 of K100 (about n tau^2 = 1e394) and K150 overflow a
    double; the check compares their logs with log n + 2 log tau instead."""

    def test_k100_passes(self):
        cache = SpectralCache(complete_graph(100))
        passed, detail = _check_matrix_tree(cache)
        assert passed, detail
        assert detail.startswith("tau 1e+196 worst relative defect ")

    def test_k150_fails_closed_on_infinite_tau(self):
        # tau(K150) = 150^148, about e^741, is past the largest double as a count.
        cache = SpectralCache(complete_graph(150))
        with pytest.warns(RuntimeWarning):
            passed, detail = _check_matrix_tree(cache)
        assert not passed
        assert detail.startswith("tau inf ")


def connected_gnp(n, p, seed):
    """G(n, p) conditioned on being connected: the first connected draw of a
    generator seeded with seed."""
    rng = np.random.default_rng(seed)
    while True:
        coins = rng.random((n, n)) < p
        g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if coins[u, v]])
        if is_connected(g):
            return g


def per_edge_drop(cache, u, vs):
    """The drop of adding (u, v) for each v in vs, one edge at a time as
    n (2 y'P y / c - (y'y)^2 / c^2) with y = P b, b = e_u - e_v, c = 1 + b'y."""
    p = cache.pinv
    drops = []
    for v in vs:
        y = p[:, u] - p[:, v]
        c = 1.0 + y[u] - y[v]
        drops.append(cache.graph.n * (2.0 * (y @ p @ y) / c - (y @ y) ** 2 / c**2))
    return np.array(drops)


@pytest.mark.parametrize(
    "g", [path_graph(200), connected_gnp(200, 0.03, 200)], ids=["P200", "G(200,0.03)"]
)
def test_drop_matches_per_edge_reference(g):
    # Every nonedge at once through the forms b'P^k b, against y'P y and y'y
    # per edge; on P200 the P^3 form cancels to about 1e-9 relative.
    cache = build_cache(g)
    us, vs = np.nonzero(np.triu(cache.laplacian == 0, 1))
    before, after = check_edge_monotonicity(cache, (us, vs))
    drop = before - after
    for u in range(g.n):
        row = us == u
        expected = per_edge_drop(cache, u, vs[row])
        assert np.all(np.abs(drop[row] - expected) <= 1e-8 * expected), u


class TestSupportedSizes:
    """verify at sizes it reaches in tier-1 time since it reads all pairs one
    row at a time and gets every edge addition in closed form."""

    @pytest.mark.parametrize(
        "g",
        [
            connected_gnp(160, 0.04, 160),
            connected_gnp(200, 0.03, 200),
            complete_graph(100),
            hypercube_graph(7),
            path_graph(100),
            cycle_graph(200),
            # The hub of W200 has degree 199, the largest in this list.
            wheel_graph(200),
            # P200 PASSes too, but with little margin: its pseudoinverse row
            # sums (about 5.6e-9 against the absolute 1e-8) are rounding in
            # entries of pinv2 up to 1.8e5, so they move with the order of
            # summation.
        ],
        ids=["G(160,0.04)", "G(200,0.03)", "K100", "Q7", "P100", "C200", "W200"],
    )
    def test_every_check_passes(self, g):
        results = verify_graph(g)
        assert [r for r in results if not r.passed] == []
