"""The lazy per-graph state: which operations run the eigensolver, and how often."""

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
from biharmonic.verification import MONOTONICITY_SAMPLE_CAP


@pytest.fixture
def jacobi_calls(monkeypatch):
    """Record (shape, eigenvectors wanted) for each call of the eigensolver
    that every eigendecomposition and eigenvalues-only solve goes through."""
    calls = []
    original = biharmonic.linalg.jacobi_eigh

    def counted(*args, **kwargs):
        calls.append((args[0].shape, kwargs.get("vectors", True)))
        return original(*args, **kwargs)

    monkeypatch.setattr(biharmonic.linalg, "jacobi_eigh", counted)
    return calls


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


def test_distance_matrix_on_graph_solves_once(jacobi_calls):
    distance_matrix(wheel_graph(6))
    assert len(jacobi_calls) == 1


@pytest.mark.parametrize(
    "g", [complete_graph(5), k4_minus(), path_graph(9)], ids=["K5", "K4-", "P9"]
)
def test_verify_solve_count(jacobi_calls, g):
    verify_graph(g)
    additions = min(MONOTONICITY_SAMPLE_CAP, len(g.nonedges()))
    assert len(jacobi_calls) == 1 + additions
    assert [vectors for _, vectors in jacobi_calls].count(True) == 1


def test_state_rejects_disconnected_graph(jacobi_calls):
    with pytest.raises(DisconnectedGraphError):
        SpectralCache(make_graph(4, [(0, 1), (2, 3)]))
    assert jacobi_calls == []


def test_missing_spectral_gap_is_a_solver_defect(monkeypatch):
    zero = eigendecompose(np.zeros((4, 4)))
    monkeypatch.setattr(biharmonic.metrics, "eigendecompose", lambda a: zero)
    state = SpectralCache(path_graph(4))
    with pytest.raises(np.linalg.LinAlgError, match="spectral gap"):
        state.eig
