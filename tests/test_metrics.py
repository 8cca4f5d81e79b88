import math
import warnings

import numpy as np
import pytest

import biharmonic.metrics
from biharmonic import (
    DisconnectedGraphError,
    SpectralCache,
    all_methods,
    biharmonic_determinant,
    biharmonic_index_pairwise,
    biharmonic_index_spectral,
    biharmonic_minnorm,
    biharmonic_pinv_entries,
    biharmonic_spectral,
    bounds_report,
    build_cache,
    check_brk,
    check_edge_monotonicity,
    check_index_floor,
    complete_graph,
    cycle_graph,
    distance_matrix,
    k4_minus,
    kirchhoff_index,
    make_graph,
    path_graph,
    resistance_distance,
    spanning_tree_count,
    wheel_graph,
)
from biharmonic.metrics import rebuilt_index

SQRT2 = math.sqrt(2.0)


def pinv_oracle_distance(g, u, v):
    """Independent route: numpy pseudoinverse of the squared Laplacian."""
    lap = g.laplacian()
    p2 = np.linalg.pinv(lap @ lap)
    return math.sqrt(p2[u, u] + p2[v, v] - 2.0 * p2[u, v])


class TestCache:
    def test_p3_spectrum(self):
        cache = build_cache(path_graph(3))
        assert np.allclose(cache.eig.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    def test_k2_pinv_exact(self):
        cache = build_cache(complete_graph(2))
        assert np.allclose(cache.pinv, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_pinv_identities(self):
        cache = build_cache(wheel_graph(6))
        lap = cache.laplacian
        p = cache.pinv
        n = cache.graph.n
        centering = np.eye(n) - np.full((n, n), 1.0 / n)
        assert np.max(np.abs(lap @ p - centering)) <= 1e-10
        assert np.max(np.abs(p @ p - cache.pinv2)) <= 1e-10
        assert np.max(np.abs(p.sum(axis=1))) <= 1e-10
        assert np.max(np.abs(cache.pinv2.sum(axis=1))) <= 1e-10

    def test_disconnected_raises(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            build_cache(g)

    def test_cache_reused_by_distance_functions(self):
        cache = build_cache(path_graph(4))
        a = biharmonic_spectral(cache, 0, 3)
        b = biharmonic_spectral(path_graph(4), 0, 3)
        assert a == b


class TestFourMethods:
    def test_p3_adjacent(self):
        g = path_graph(3)
        expected = math.sqrt(2.0 / 3.0)
        for fn in (
            biharmonic_spectral,
            biharmonic_pinv_entries,
            biharmonic_determinant,
            biharmonic_minnorm,
        ):
            assert abs(fn(g, 0, 1) - expected) <= 1e-10

    def test_p3_endpoints(self):
        report = all_methods(path_graph(3), 0, 2)
        for value in report.values():
            assert abs(value - SQRT2) <= 1e-10

    def test_k4_minus_missing_pair(self):
        report = all_methods(k4_minus(), 1, 3)
        assert report.max_relative_spread <= 1e-12
        assert abs(report.spectral - pinv_oracle_distance(k4_minus(), 1, 3)) <= 1e-10

    def test_k4_minus_worked_value(self):
        report = all_methods(k4_minus(), 0, 2)
        for value in report.values():
            assert abs(value - SQRT2 / 4.0) <= 1e-10

    def test_w5_opposite_rim(self):
        report = all_methods(wheel_graph(5), 1, 3)
        for value in report.values():
            assert abs(value - SQRT2 / 3.0) <= 1e-10

    def test_symmetry_is_exact(self):
        g = wheel_graph(7)
        cache = build_cache(g)
        for fn in (
            biharmonic_spectral,
            biharmonic_pinv_entries,
            biharmonic_determinant,
            biharmonic_minnorm,
        ):
            assert fn(cache, 2, 5) == fn(cache, 5, 2)

    def test_same_vertex(self):
        # Every route reads a vertex's distance to itself as exactly 0, the
        # det route too: its pair form at u == v is m + m - 2m.
        for g in (path_graph(4), complete_graph(1)):
            for u in range(g.n):
                for fn in biharmonic.metrics.ROUTES.values():
                    assert fn(g, u, u) == 0.0
                report = all_methods(g, u, u)
                assert report.values() == (0.0, 0.0, 0.0, 0.0)
                assert report.max_relative_spread == 0.0

    def test_vertex_out_of_range(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="out of range"):
            biharmonic_spectral(g, 0, 3)
        with pytest.raises(ValueError, match="out of range"):
            biharmonic_determinant(g, -1, 1)

    def test_non_integer_vertex_rejected(self):
        cache = build_cache(path_graph(5))
        with pytest.raises(ValueError, match="vertex must be an integer"):
            biharmonic_pinv_entries(cache, 0.9, 3)
        with pytest.raises(ValueError, match="vertex must be an integer"):
            resistance_distance(cache, 0, 4.99)
        with pytest.raises(ValueError, match="integers"):
            all_methods(cache, 0, np.array([1.5, 3.7]))
        with pytest.raises(ValueError, match="integers"):
            biharmonic_spectral(cache, 0, [1, 2.5])
        for flag, message in ((np.array([True, False]), "integers"), (True, "vertex must be an integer")):
            with pytest.raises(ValueError, match=message):
                biharmonic_minnorm(cache, 0, flag)
            with pytest.raises(ValueError, match=message):
                biharmonic_spectral(cache, flag, 3)
        assert biharmonic_spectral(cache, 0, np.array([])).shape == (0,)
        assert biharmonic_spectral(cache, np.int32(0), np.array(3)) == biharmonic_spectral(cache, 0, 3)

    def test_u_must_be_one_vertex(self):
        cache = build_cache(path_graph(5))
        routes = (biharmonic_spectral, biharmonic_pinv_entries, resistance_distance, all_methods)
        for route in routes:
            with pytest.raises(ValueError, match="one vertex"):
                route(cache, np.array([0, 1]), 3)

    def test_standalone_graph_paths(self):
        g = cycle_graph(5)
        cache = build_cache(g)
        assert abs(biharmonic_determinant(g, 0, 2) - biharmonic_determinant(cache, 0, 2)) <= 1e-12
        assert abs(biharmonic_minnorm(g, 0, 2) - biharmonic_minnorm(cache, 0, 2)) <= 1e-12

    def test_standalone_disconnected_raises(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            biharmonic_determinant(g, 0, 2)
        with pytest.raises(DisconnectedGraphError):
            biharmonic_minnorm(g, 0, 2)

    def test_agreement_on_random_suite(self, random_suite_caches):
        worst = 0.0
        for cache in random_suite_caches:
            n = cache.graph.n
            rng = np.random.default_rng(n)
            for _ in range(3):
                u, v = rng.choice(n, size=2, replace=False)
                report = all_methods(cache, int(u), int(v))
                worst = max(worst, report.max_relative_spread)
        assert worst <= 1e-8


class TestSpectralGap:
    def test_any_order(self):
        gap = biharmonic.metrics.has_spectral_gap
        assert gap(np.array([4.0, 1.0, 2.0])) and gap(np.array([])) and gap(np.array([1e-7]))
        for bad in ([4.0, 0.0, 2.0], [4.0, 1e-9, 2.0], [1.0, -3.0], [1.0, math.nan], [math.inf, 1.0], [-math.inf]):
            assert not gap(np.array(bad)), bad
        # The floor scales with the largest eigenvalue once it passes 1.
        assert gap(np.array([1e3, 2e-5])) and not gap(np.array([1e3, 5e-6]))


class TestDistanceMatrix:
    def test_matches_pairwise(self):
        cache = build_cache(wheel_graph(6))
        mat = distance_matrix(cache)
        for u in range(6):
            for v in range(6):
                if u != v:
                    assert abs(mat[u, v] - biharmonic_spectral(cache, u, v)) <= 1e-12

    def test_exactly_symmetric_zero_diagonal(self):
        mat = distance_matrix(cycle_graph(9))
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(np.diag(mat), np.zeros(9))

    def test_triangle_inequality(self, random_suite_caches):
        for cache in random_suite_caches[:20]:
            mat = distance_matrix(cache)
            assert np.min(mat[:, :, None] + mat[None, :, :] - mat[:, None, :]) >= -1e-10


class TestSpanningTrees:
    def test_examples(self):
        assert spanning_tree_count(path_graph(3)) == 1.0
        assert spanning_tree_count(complete_graph(4)) == 16.0
        assert spanning_tree_count(k4_minus()) == 8.0
        assert spanning_tree_count(cycle_graph(7)) == 7.0

    def test_cayley_formula(self):
        for n in range(2, 9):
            assert spanning_tree_count(complete_graph(n)) == float(n ** (n - 2))

    def test_disconnected_zero(self):
        assert spanning_tree_count(make_graph(3, [(0, 1)])) == 0.0

    def test_overflow_is_inf_with_numpy_warning_only(self):
        # tau(K150) = 150^148, about e^741, is past the largest double.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tau = spanning_tree_count(complete_graph(150))
        assert tau == math.inf
        assert [str(w.message) for w in caught] == ["overflow encountered in exp"]

    def test_non_integer_count_warns_and_returns_raw(self, monkeypatch):
        monkeypatch.setattr(SpectralCache, "log_tree_count", math.log(2.5))
        with pytest.warns(RuntimeWarning, match="not close to an integer"):
            tau = spanning_tree_count(path_graph(3))
        assert tau == math.exp(math.log(2.5))


class TestIndices:
    def test_p3(self):
        cache = build_cache(path_graph(3))
        assert abs(biharmonic_index_spectral(cache) - 10.0 / 3.0) <= 1e-12
        assert abs(biharmonic_index_pairwise(cache) - 10.0 / 3.0) <= 1e-10
        assert abs(kirchhoff_index(cache) - 4.0) <= 1e-12

    def test_complete(self):
        for n in (2, 3, 4, 7, 11):
            cache = build_cache(complete_graph(n))
            assert abs(biharmonic_index_spectral(cache) - (n - 1) / n) <= 1e-10
            assert abs(kirchhoff_index(cache) - (n - 1)) <= 1e-10

    def test_pairwise_matches_double_loop(self, random_suite_caches):
        for cache in random_suite_caches:
            n, p2 = cache.graph.n, cache.pinv2
            loop = 0.0
            for u in range(n):
                for v in range(n):
                    loop += p2[u, u] + p2[v, v] - 2.0 * p2[u, v]
            # The two sums add n^2 nonnegative terms in different orders.
            tol = n * n * np.finfo(float).eps
            assert math.isclose(biharmonic_index_pairwise(cache), 0.5 * loop, rel_tol=tol)

    def test_two_routes_agree(self, random_suite_caches):
        for cache in random_suite_caches:
            a = biharmonic_index_spectral(cache)
            b = biharmonic_index_pairwise(cache)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    def test_resistance(self):
        assert abs(resistance_distance(path_graph(3), 0, 2) - 2.0) <= 1e-12
        assert abs(resistance_distance(complete_graph(4), 1, 2) - 0.5) <= 1e-12
        assert resistance_distance(path_graph(3), 1, 1) == 0.0
        row = resistance_distance(path_graph(3), 0, np.array([1, 2, 0]))
        assert row.tolist() == [resistance_distance(path_graph(3), 0, v) for v in (1, 2, 0)]

    def test_kirchhoff_matches_pairwise_resistance(self):
        g = wheel_graph(6)
        cache = build_cache(g)
        total = sum(
            resistance_distance(cache, u, v) for u in range(6) for v in range(u + 1, 6)
        )
        assert abs(total - kirchhoff_index(cache)) <= 1e-10


class TestBounds:
    def test_k4_minus_lower_attained(self):
        rep = bounds_report(k4_minus(), 0, 2)
        assert abs(rep.lower - SQRT2 / 4.0) <= 1e-14
        assert abs(rep.upper - SQRT2 / 2.0) <= 1e-14
        assert rep.lower_attained and not rep.upper_attained
        assert rep.sigma_n == (2,) and rep.sigma2 == (3, 4)
        assert rep.sigma_n_orthogonal and not rep.sigma2_orthogonal
        assert rep.consistent

    def test_w5_upper_attained(self):
        rep = bounds_report(wheel_graph(5), 1, 3)
        assert abs(rep.upper - SQRT2 / 3.0) <= 1e-14
        assert rep.upper_attained
        assert rep.sigma2 == (4, 5) and rep.sigma_n == (2, 3)
        assert rep.sigma2_orthogonal
        assert rep.consistent

    def test_complete_both_attained(self):
        rep = bounds_report(complete_graph(5), 0, 4)
        assert rep.lower_attained and rep.upper_attained
        assert rep.sigma2 == () and rep.sigma_n == ()
        assert rep.consistent

    def test_ordering_on_suite(self, random_suite_caches):
        for cache in random_suite_caches:
            n = cache.graph.n
            rng = np.random.default_rng(1000 + n)
            for _ in range(3):
                u, v = rng.choice(n, size=2, replace=False)
                rep = bounds_report(cache, int(u), int(v))
                assert rep.lower - 1e-12 <= rep.value <= rep.upper + 1e-12
                assert rep.consistent

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError, match="a bounds report needs distinct vertices"):
            bounds_report(path_graph(3), 1, 1)


class TestInequalities:
    def test_brk_complete_equality(self):
        for n in (2, 3, 4, 8):
            rep = check_brk(complete_graph(n))
            assert rep.equality
            assert abs(rep.b - rep.rhs) <= 1e-10

    def test_brk_p3_strict(self):
        rep = check_brk(path_graph(3))
        assert abs(rep.b - 10.0 / 3.0) <= 1e-10
        assert abs(rep.kf - 4.0) <= 1e-10
        assert abs(rep.rhs - 8.0 / 3.0) <= 1e-10
        assert not rep.equality

    def test_brk_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="two vertices"):
            check_brk(complete_graph(1))

    def test_floor(self):
        rep = check_index_floor(complete_graph(6))
        assert rep.equality and abs(rep.b - 5.0 / 6.0) <= 1e-10
        rep = check_index_floor(path_graph(3))
        assert not rep.equality and rep.b > rep.floor

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
    @pytest.mark.parametrize(
        "name, checker",
        [
            ("biharmonic_index_spectral", check_brk),
            ("biharmonic_index_spectral", check_index_floor),
            ("kirchhoff_index", check_brk),  # the bound Kf^2 / (n(n-1))
        ],
        ids=["brk-B", "floor-B", "brk-Kf"],
    )
    def test_non_finite_index_or_bound_raises(self, monkeypatch, name, checker, bad):
        monkeypatch.setattr(biharmonic.metrics, name, lambda cache: bad)
        with pytest.raises(ArithmeticError, match="non-finite"):
            checker(path_graph(5))

    def test_suite_obeys_both(self, random_suite_caches):
        for cache in random_suite_caches:
            brk = check_brk(cache)
            assert brk.equality == (cache.graph.m == cache.graph.n * (cache.graph.n - 1) // 2)
            floor = check_index_floor(cache)
            assert floor.b >= floor.floor - 1e-10


class TestEdgeMonotonicity:
    def test_p3_closure(self):
        before, after = check_edge_monotonicity(path_graph(3), (0, 2))
        assert abs(before - 10.0 / 3.0) <= 1e-10
        assert abs(after - 2.0 / 3.0) <= 1e-10

    def test_k4_minus_completion(self):
        before, after = check_edge_monotonicity(k4_minus(), (1, 3))
        assert abs(after - 0.75) <= 1e-10
        assert after < before

    def test_existing_edge_rejected(self):
        with pytest.raises(ValueError, match="already an edge"):
            check_edge_monotonicity(path_graph(3), (0, 1))

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            check_edge_monotonicity(path_graph(3), (1, 1))

    def test_state_and_graph_agree(self):
        # One edge at a time on the state and on the graph, every nonedge in
        # one array call, and the row from vertex 0 give the same floats.
        for g in (path_graph(5), k4_minus(), wheel_graph(6)):
            state = build_cache(g)
            us, vs = np.array(g.nonedges()).T
            before, after = check_edge_monotonicity(state, (us, vs))
            _, row = check_edge_monotonicity(state, (0, vs[us == 0]))
            assert row.tolist() == after[us == 0].tolist()
            for e, after_e in zip(g.nonedges(), after.tolist()):
                assert check_edge_monotonicity(state, e) == check_edge_monotonicity(g, e)
                assert check_edge_monotonicity(state, e) == (before, after_e)

    def test_bad_edge_arrays_rejected(self):
        g = path_graph(5)
        with pytest.raises(ValueError, match=r"distinct vertices, got \(3, 3\)"):
            check_edge_monotonicity(g, (np.array([0, 3]), np.array([2, 3])))
        with pytest.raises(ValueError, match=r"\(1, 2\) is already an edge"):
            check_edge_monotonicity(g, (np.array([0, 1, 2]), np.array([3, 2, 3])))
        with pytest.raises(ValueError, match=r"lengths 2 and 3"):
            check_edge_monotonicity(g, (np.array([0, 1]), np.array([2, 3, 4])))
        with pytest.raises(ValueError, match=r"\(0, 1\) is already an edge"):
            check_edge_monotonicity(g, (0, np.array([2, 1])))

    def test_rebuilt_index_rejects_edge_arrays(self):
        g = path_graph(5)
        for e in ((0, np.array([2, 3])), (np.array([0, 1]), np.array([2, 3]))):
            with pytest.raises(ValueError, match="takes one edge"):
                rebuilt_index(g, e)

    def test_random_nonedges_strictly_decrease(self, random_suite):
        checked = 0
        for g in random_suite:
            nonedges = g.nonedges()
            if not nonedges:
                continue
            before, after = check_edge_monotonicity(g, nonedges[0])
            assert after < before
            checked += 1
            if checked >= 15:
                break
        assert checked == 15


class TestDeterminantRouteBeyondDoubleRange:
    @pytest.mark.parametrize("n", [100, 150])
    def test_complete_graph_routes_agree(self, n):
        # The minor of L^2 is about n * tau^2 = n^(2n-3), far beyond the largest double.
        cache = SpectralCache(complete_graph(n))
        exact = SQRT2 / n
        det = biharmonic_determinant(cache, 0, n - 1)
        assert math.isfinite(det) and abs(det - exact) <= 1e-8 * exact
        report = all_methods(cache, 0, n - 1)
        assert all(math.isfinite(x) for x in report.values())
        assert report.max_relative_spread <= 1e-8
