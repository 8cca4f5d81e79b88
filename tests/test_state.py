"""The lazy per-graph state: which operations run the eigensolver and the
Cholesky factorization, and how often."""

import dataclasses

import numpy as np
import pytest

import biharmonic.linalg
import biharmonic.metrics
from biharmonic import (
    DisconnectedGraphError,
    SpectralCache,
    biharmonic_determinant,
    biharmonic_minnorm,
    biharmonic_spectral,
    build_cache,
    complete_graph,
    cycle_graph,
    distance_matrix,
    eigendecompose,
    k4_minus,
    make_graph,
    path_graph,
    verify_graph,
    wheel_graph,
    write_edge_list,
)
from biharmonic.cli import main
from biharmonic.metrics import has_spectral_gap, rebuilt_index


@pytest.fixture
def jacobi_calls(monkeypatch):
    """Record the shape of each call of the eigensolver that every
    eigendecomposition goes through."""
    calls = []
    original = biharmonic.linalg.jacobi_eigh

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(biharmonic.linalg, "jacobi_eigh", counted)
    return calls


def record_shapes(monkeypatch, name):
    """Record the shape of each call of linalg.<name>, under every module
    name that binds it."""
    calls = []
    original = getattr(biharmonic.linalg, name)

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    for module in (biharmonic.linalg, biharmonic.metrics):
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def cholesky_calls(monkeypatch):
    return record_shapes(monkeypatch, "cholesky")


@pytest.mark.parametrize("method", ["det", "minnorm"])
def test_cli_dist_without_eigensolver(tmp_path, capsys, jacobi_calls, method):
    path = tmp_path / "w6.g"
    write_edge_list(wheel_graph(6), path)
    assert main(["dist", str(path), "1", "3", "--method", method]) == 0
    assert capsys.readouterr().out == "0.530086535895\n"
    assert jacobi_calls == []


def test_det_and_minnorm_without_eigensolver(jacobi_calls):
    g = wheel_graph(6)
    state = SpectralCache(g)
    for graph_or_state in (g, state):
        biharmonic_determinant(graph_or_state, 1, 3)
        biharmonic_minnorm(graph_or_state, 1, 3)
    assert "eig" not in vars(state)
    assert jacobi_calls == []


def test_build_cache_solves_once(jacobi_calls):
    cache = build_cache(wheel_graph(6))
    assert {"eig", "pinv", "pinv2"} <= set(vars(cache))
    for _ in range(3):
        biharmonic_spectral(cache, 0, 3)
        distance_matrix(cache)
    assert len(jacobi_calls) == 1


@pytest.mark.parametrize(
    "g", [path_graph(200), cycle_graph(200), complete_graph(100)], ids=["P200", "C200", "K100"]
)
def test_eigenvectors_carry_no_kernel_component(g):
    # The kernel is projected out after the solve: z_1 = 1/sqrt(n) exactly,
    # every other eigenvector is orthogonal to 1 to rounding, and the state's
    # eigenpairs are still eigenpairs of L and orthonormal.
    state = build_cache(g)
    w, z = state.eig.eigenvalues, state.eig.eigenvectors
    assert w[0] == 0.0
    assert np.all(z[:, 0] == 1.0 / np.sqrt(g.n))
    assert np.max(np.abs(z[:, 1:].sum(axis=0))) <= 1e-13
    assert np.max(np.abs(state.laplacian @ z - z * w)) <= 1e-13 * max(1.0, w[-1])
    assert np.max(np.abs(z.T @ z - np.eye(g.n))) <= 1e-13


def test_distance_matrix_on_graph_solves_once(jacobi_calls):
    distance_matrix(wheel_graph(6))
    assert len(jacobi_calls) == 1


VERIFY_GRAPHS = [complete_graph(5), k4_minus(), path_graph(9)]
VERIFY_IDS = ["K5", "K4-", "P9"]


@pytest.mark.parametrize("g", VERIFY_GRAPHS, ids=VERIFY_IDS)
def test_verify_solve_count(jacobi_calls, g):
    # One solve of L(G); the rebuild of the first addition factors G + e.
    verify_graph(g)
    assert jacobi_calls == [(g.n, g.n)]


@pytest.mark.parametrize("g", VERIFY_GRAPHS[1:], ids=VERIFY_IDS[1:])
def test_rebuilt_index_without_eigensolver(jacobi_calls, monkeypatch, g):
    state = SpectralCache(g)
    traversals = []
    traverse = biharmonic.metrics.is_connected
    monkeypatch.setattr(
        biharmonic.metrics, "is_connected", lambda graph: traversals.append(graph) or traverse(graph)
    )
    for e in g.nonedges():
        rebuilt_index(g, e)
        rebuilt_index(state, e)
    assert jacobi_calls == []
    # A graph is traversed once, for its own state; G + e never is.
    assert traversals == [g] * len(g.nonedges())


@pytest.mark.parametrize("g", VERIFY_GRAPHS, ids=VERIFY_IDS)
def test_verify_factorization_count(cholesky_calls, g):
    # The n minors of L^2 for the matrix-tree check and the tree-count minor
    # of L stop at their log determinants. The inverses are factored stacked
    # over I: M_0 = L^2 without row and column 0 for the det route, L + J/n
    # for the min-norm route and, with a nonedge, L(G+e) + J/n for the
    # rebuild of the first addition.
    verify_graph(g)
    n = g.n
    rebuilt = 1 if g.nonedges() else 0
    assert len(cholesky_calls) == n + 3 + rebuilt
    assert cholesky_calls.count((n - 1, n - 1)) == n + 1
    assert cholesky_calls.count((2 * n - 2, n - 1)) == 1
    assert cholesky_calls.count((2 * n, n)) == 1 + rebuilt


def test_pair_reads_factor_once_per_row(cholesky_calls):
    state = SpectralCache(wheel_graph(6))
    for _ in range(2):
        biharmonic_determinant(state, 1, 3)
        biharmonic_determinant(state, 2, 4)
        biharmonic_determinant(state, 4, 5)
        biharmonic_determinant(state, 5, np.array([1, 2, 4]))
        biharmonic_minnorm(state, 1, 3)
        biharmonic_minnorm(state, 2, 4)
    # One factor serves every det row: M_0, the tree-count minor, and L + J/n.
    assert len(cholesky_calls) == 3


def test_state_holds_only_the_graph():
    assert [f.name for f in dataclasses.fields(SpectralCache)] == ["graph"]


def test_state_rejects_disconnected_graph(jacobi_calls):
    with pytest.raises(DisconnectedGraphError):
        SpectralCache(make_graph(4, [(0, 1), (2, 3)]))
    assert jacobi_calls == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_largest_eigenvalue_is_a_solver_defect(monkeypatch, bad):
    def broken(a):
        # The solve of the state, with its largest eigenvalue replaced.
        eig = eigendecompose(a)
        w = eig.eigenvalues.copy()
        w[-1] = bad
        assert not has_spectral_gap(w)
        return dataclasses.replace(eig, eigenvalues=w)

    monkeypatch.setattr(biharmonic.metrics, "eigendecompose", broken)
    with pytest.raises(np.linalg.LinAlgError, match=f"non-finite eigenvalue {bad!r}"):
        SpectralCache(path_graph(5)).eig
    with pytest.raises(np.linalg.LinAlgError, match="non-finite eigenvalue"):
        verify_graph(path_graph(5))


def test_missing_spectral_gap_is_a_solver_defect(monkeypatch):
    monkeypatch.setattr(
        biharmonic.metrics, "eigendecompose", lambda a: eigendecompose(np.zeros_like(a))
    )
    state = SpectralCache(path_graph(4))
    with pytest.raises(np.linalg.LinAlgError, match="spectral gap"):
        state.eig
