"""Acceptance gate: twelve numbered criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
printed per criterion alongside pytest's own report. Every tolerance used
here is stated inline; the random suite is the seeded session fixture from
conftest.py.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

import biharmonic.metrics
from biharmonic import (
    CayleySpec,
    all_methods,
    biharmonic_index_pairwise,
    biharmonic_index_spectral,
    biharmonic_spectral,
    bounds_report,
    build_cache,
    cartesian_distance,
    cartesian_product,
    cayley_distance,
    cayley_graph,
    check_brk,
    check_edge_monotonicity,
    complement,
    complement_distance,
    complete_graph,
    complete_graph_distance,
    count_spanning_trees_exhaustive,
    cycle_graph,
    distance_matrix,
    eigendecompose,
    hypercube_distance,
    hypercube_graph,
    is_complete,
    k4_minus,
    kirchhoff_index,
    path_graph,
    principal_minor_det,
    spanning_tree_count,
    wheel_graph,
    write_edge_list,
)
from biharmonic.cli import main
from biharmonic.metrics import _worst

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_01_worked_constants():
    with criterion(1, "worked constants sqrt2/4 and sqrt2/3 by all four methods"):
        for value in all_methods(k4_minus(), 0, 2).values():
            assert abs(value - SQRT2 / 4.0) <= 1e-10
        for value in all_methods(wheel_graph(5), 1, 3).values():
            assert abs(value - SQRT2 / 3.0) <= 1e-10


def test_criterion_02_complete_graph_law():
    with criterion(2, "complete-graph law sqrt2/n and index (n-1)/n for n=2..12"):
        for n in range(2, 13):
            cache = build_cache(complete_graph(n))
            for u, v in itertools.combinations(range(n), 2):
                for value in all_methods(cache, u, v).values():
                    assert abs(value - SQRT2 / n) <= 1e-10
            assert abs(biharmonic_index_spectral(cache) - (n - 1) / n) <= 1e-10


def test_criterion_03_four_method_agreement(random_suite_caches):
    with criterion(3, "four-method relative spread <= 1e-8 on the 100-graph suite"):
        worst = _worst(
            all_methods(cache, u, v).max_relative_spread
            for cache in random_suite_caches
            for u, v in itertools.combinations(range(cache.graph.n), 2)
        )
        assert worst <= 1e-8


def test_criterion_04_path_oracle():
    with criterion(4, "hand-computed path-graph oracle (eigenvalues 0, 1, 3)"):
        g = path_graph(3)
        cache = build_cache(g)
        assert abs(biharmonic_spectral(cache, 0, 1) - math.sqrt(2.0 / 3.0)) <= 1e-10
        assert abs(biharmonic_spectral(cache, 0, 2) - SQRT2) <= 1e-10
        assert abs(biharmonic_index_spectral(cache) - 10.0 / 3.0) <= 1e-10
        assert abs(kirchhoff_index(cache) - 4.0) <= 1e-10
        assert abs(spanning_tree_count(g) - 1.0) <= 1e-10


def test_criterion_05_spectral_bounds(random_suite_caches):
    with criterion(5, "two-sided eigenvalue bounds and attainment agreement"):
        for cache in random_suite_caches:
            for u, v in itertools.combinations(range(cache.graph.n), 2):
                r = bounds_report(cache, u, v)
                assert r.lower - 1e-12 <= r.value <= r.upper + 1e-12
                assert r.consistent
        r = bounds_report(k4_minus(), 0, 2)
        assert r.lower_attained and r.sigma_n_orthogonal and r.consistent
        r = bounds_report(wheel_graph(5), 1, 3)
        assert r.upper_attained and r.sigma2_orthogonal and r.consistent
        for n in range(2, 13):
            cache = build_cache(complete_graph(n))
            for u, v in itertools.combinations(range(n), 2):
                r = bounds_report(cache, u, v)
                assert r.lower_attained and r.upper_attained and r.consistent


def test_criterion_06_index_inequality(random_suite_caches):
    with criterion(6, "index inequality B >= Kf^2/(n(n-1)), equality iff complete"):
        for cache in random_suite_caches:
            r = check_brk(cache)
            assert r.b >= r.rhs - 1e-10
            assert r.equality == is_complete(cache.graph)
        for n in range(2, 13):
            assert check_brk(complete_graph(n)).equality


def test_criterion_07_edge_monotonicity(random_suite):
    with criterion(7, "strict index decrease for 50 seeded edge additions"):
        rng = np.random.default_rng(777)
        checked = 0
        for g in random_suite:
            nonedges = g.nonedges()
            if not nonedges:
                continue
            e = nonedges[int(rng.integers(0, len(nonedges)))]
            before, after = check_edge_monotonicity(g, e)
            assert before - after > 1e-12
            checked += 1
            if checked == 50:
                break
        assert checked == 50


def test_criterion_08_matrix_tree(random_suite_caches):
    with criterion(8, "spanning-tree count vs exhaustive and n*tau^2 minors"):
        for cache in random_suite_caches:
            g = cache.graph
            tau = spanning_tree_count(g)
            if g.n <= 7:
                assert tau == count_spanning_trees_exhaustive(g)
            expected = g.n * tau * tau
            lap2 = cache.laplacian_squared
            for v in range(g.n):
                minor = principal_minor_det(lap2, (v,))
                assert abs(minor - expected) <= 1e-6 * expected


def test_criterion_09_closed_forms(random_suite, random_suite_caches):
    with criterion(9, "closed forms within 1e-9 of spectral, plus the Q1 discrepancy"):
        for d in range(1, 7):
            dm = distance_matrix(build_cache(hypercube_graph(d)))
            for u, v in itertools.combinations(range(1 << d), 2):
                assert abs(hypercube_distance(d, u, v) - dm[u, v]) <= 1e-9

        checked = 0
        for g, cache in zip(random_suite, random_suite_caches):
            if cache.eig.eigenvalues[-1] >= g.n - 1e-9:
                continue
            dm = distance_matrix(build_cache(complement(g)))
            for u, v in itertools.combinations(range(g.n), 2):
                assert abs(complement_distance(cache.eig, u, v) - dm[u, v]) <= 1e-9
            checked += 1
            if checked == 50:
                break
        assert checked == 50

        factor_pairs = [
            (path_graph(2), path_graph(3)),
            (complete_graph(3), cycle_graph(4)),
            (wheel_graph(5), complete_graph(4)),
            (cycle_graph(5), path_graph(7)),
            (path_graph(6), path_graph(6)),
        ]
        for g1, g2 in factor_pairs:
            assert g1.n * g2.n <= 36
            eig1 = eigendecompose(g1.laplacian())
            eig2 = eigendecompose(g2.laplacian())
            dm = distance_matrix(build_cache(cartesian_product(g1, g2)))
            for u1, u2, v1, v2 in itertools.product(
                range(g1.n), range(g2.n), range(g1.n), range(g2.n)
            ):
                closed = cartesian_distance(eig1, eig2, (u1, u2), (v1, v2))
                assert abs(closed - dm[u1 * g2.n + u2, v1 * g2.n + v2]) <= 1e-9

        specs = []
        for m in range(2, 13):
            members = {(1,), (m - 1,)}
            specs.append(CayleySpec(cyclic_orders=(m,), connection_set=tuple(sorted(members))))
            if m >= 5:
                specs.append(
                    CayleySpec(
                        cyclic_orders=(m,),
                        connection_set=tuple(sorted({(1,), (m - 1,), (2,), (m - 2,)})),
                    )
                )
        specs.append(CayleySpec(cyclic_orders=(2, 4), connection_set=((1, 0), (0, 1), (0, 3))))
        specs.append(
            CayleySpec(
                cyclic_orders=(2, 4),
                connection_set=((1, 0), (0, 2), (1, 1), (1, 3)),
            )
        )
        for spec in specs:
            dm = distance_matrix(build_cache(cayley_graph(spec)))
            n = spec.group_order
            for u, v in itertools.combinations(range(n), 2):
                assert abs(cayley_distance(spec, u, v) - dm[u, v]) <= 1e-9

        one_cube = hypercube_distance(1, 0, 1)
        assert abs(one_cube - SQRT2 / 2.0) <= 1e-12
        assert abs(one_cube - complete_graph_distance(2)) <= 1e-12


def test_criterion_10_metric_axioms(random_suite_caches):
    with criterion(10, "metric axioms: triangle 1e-10, exact symmetry, zero diagonal"):
        for cache in random_suite_caches:
            dm = distance_matrix(cache)
            assert np.array_equal(dm, dm.T)
            assert np.array_equal(np.diag(dm), np.zeros(cache.graph.n))
            sums = dm[:, :, None] + dm[None, :, :]
            assert float(np.max(dm - np.min(sums, axis=1))) <= 1e-10


def test_criterion_11_index_consistency(random_suite_caches):
    with criterion(11, "spectral and pairwise index within 1e-8 relative"):
        for cache in random_suite_caches:
            a = biharmonic_index_spectral(cache)
            b = biharmonic_index_pairwise(cache)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_criterion_12_cli_contract(tmp_path, capsys, monkeypatch):
    with criterion(12, "CLI determinism and 0/1/2 exit codes"):
        graph_path = tmp_path / "w6.g"
        write_edge_list(wheel_graph(6), graph_path)
        gen_path = tmp_path / "gen.g"
        command_sets = [
            ["gen", "cycle", "9", "-o", str(gen_path)],
            ["dist", str(graph_path), "1", "4", "--method", "all"],
            ["matrix", str(graph_path)],
            ["index", str(graph_path)],
            ["verify", str(graph_path)],
            ["bounds", str(graph_path), "1", "4"],
        ]
        transcripts = []
        for _ in range(2):
            chunks = []
            for argv in command_sets:
                assert main(argv) == 0
                out, _ = capsys.readouterr()
                chunks.append(out)
            transcripts.append("".join(chunks))
        assert transcripts[0] == transcripts[1]

        with monkeypatch.context() as patch:
            patch.setattr(
                biharmonic.metrics, "biharmonic_index_pairwise", lambda cache: 999.0
            )
            assert main(["verify", str(graph_path)]) == 1
            out, _ = capsys.readouterr()
            assert "FAIL index-consistency:" in out

        broken = tmp_path / "disconnected.g"
        broken.write_text("4 2\n0 1\n2 3\n")
        assert main(["verify", str(broken)]) == 2
        assert main(["dist", str(broken), "0", "1"]) == 2
        _, err = capsys.readouterr()
        assert "disconnected" in err
