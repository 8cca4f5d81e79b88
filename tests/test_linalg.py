from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from biharmonic import (
    complete_graph,
    eigendecompose,
    jacobi_eigh,
    path_graph,
    principal_minor_det,
    read_edge_list,
    spd_solve,
    symmetrize,
    wheel_graph,
)
from biharmonic.linalg import cholesky, cholesky_solve


def random_symmetric(rng, n, scale=1.0):
    return symmetrize(rng.normal(size=(n, n)) * scale)


class TestJacobi:
    def test_k2_laplacian(self):
        w, _ = jacobi_eigh([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(w, [0.0, 2.0], atol=1e-14)

    def test_p3_laplacian(self):
        w, _ = jacobi_eigh(path_graph(3).laplacian())
        assert np.allclose(w, [0.0, 1.0, 3.0], atol=1e-12)

    def test_w5_laplacian(self):
        w, _ = jacobi_eigh(wheel_graph(5).laplacian())
        assert np.allclose(w, [0.0, 3.0, 3.0, 5.0, 5.0], atol=1e-9)

    def test_against_numpy_random(self):
        rng = np.random.default_rng(23)
        for n in (2, 5, 10, 25, 50):
            a = random_symmetric(rng, n, scale=3.0)
            w, v = jacobi_eigh(a)
            expected = np.linalg.eigvalsh(a)
            scale = max(1.0, abs(expected[-1]), abs(expected[0]))
            assert np.max(np.abs(w - expected)) <= 1e-10 * scale
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10
            assert np.max(np.abs(a @ v - v * w)) <= 1e-9 * max(1.0, w[-1])

    def test_reconstruction_and_trace(self):
        rng = np.random.default_rng(29)
        for n in (3, 20, 50):
            a = random_symmetric(rng, n)
            w, v = jacobi_eigh(a)
            rebuilt = (v * w) @ v.T
            assert np.max(np.abs(rebuilt - a)) <= 1e-8 * max(1.0, w[-1])
            assert abs(np.trace(a) - w.sum()) <= 1e-9 * max(1.0, abs(np.trace(a)))

    def test_ascending(self):
        rng = np.random.default_rng(31)
        w, _ = jacobi_eigh(random_symmetric(rng, 12))
        assert np.all(np.diff(w) >= 0)

    def test_zero_matrix(self):
        w, v = jacobi_eigh(np.zeros((3, 3)))
        assert np.array_equal(w, np.zeros(3))
        assert np.array_equal(v, np.eye(3))

    def test_single_entry(self):
        w, v = jacobi_eigh([[4.0]])
        assert w[0] == 4.0 and v[0, 0] == 1.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            jacobi_eigh(np.ones((2, 3)))

    def test_eigenvalues_only_bit_identical(self, random_suite_caches):
        golden = sorted((Path(__file__).parent / "golden").glob("*.g"))
        laplacians = [read_edge_list(path).laplacian() for path in golden]
        cases = [(lap, jacobi_eigh(lap)[0]) for lap in laplacians]
        cases += [(c.laplacian, c.eig.eigenvalues) for c in random_suite_caches]
        for lap, full in cases:
            w, v = jacobi_eigh(lap, vectors=False)
            assert v is None
            assert np.array_equal(w, full)

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            (4, 4),
            elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        )
    )
    def test_matches_numpy_eigvalsh(self, a):
        a = symmetrize(a)
        w, _ = jacobi_eigh(a)
        expected = np.linalg.eigvalsh(a)
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(w - expected)) <= 1e-9 * scale


class TestEigendecompose:
    def test_groups_w5(self):
        eig = eigendecompose(wheel_graph(5).laplacian())
        assert eig.eigenspace_groups == ((0,), (1, 2), (3, 4))

    def test_kernel_group_singleton_for_connected(self):
        eig = eigendecompose(path_graph(6).laplacian())
        assert eig.eigenspace_groups[0] == (0,)
        assert abs(eig.eigenvalues[0]) <= 1e-9

    def test_complete_graph_groups(self):
        eig = eigendecompose(complete_graph(5).laplacian())
        assert eig.eigenspace_groups == ((0,), (1, 2, 3, 4))


class TestSpdSolve:
    def test_identity(self):
        assert np.allclose(spd_solve(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        assert np.allclose(spd_solve([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0]), [1.0, 2.0])

    def test_shifted_laplacian(self):
        x = spd_solve([[1.5, -0.5], [-0.5, 1.5]], [1.0, -1.0])
        assert np.allclose(x, [0.5, -0.5], atol=1e-14)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            b_mat = rng.normal(size=(n, n))
            a = b_mat.T @ b_mat + np.eye(n)
            b = rng.normal(size=n)
            x = spd_solve(a, b)
            bound = 1e-9 * (
                np.linalg.norm(a, np.inf) * np.linalg.norm(x, np.inf)
                + np.linalg.norm(b, np.inf)
            )
            assert np.linalg.norm(a @ x - b, np.inf) <= bound

    def test_not_positive_definite(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            cholesky(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_factor_reuse(self):
        rng = np.random.default_rng(41)
        b_mat = rng.normal(size=(6, 6))
        a = b_mat.T @ b_mat + np.eye(6)
        low = cholesky(a)
        assert np.allclose(low @ low.T, a, atol=1e-12)
        b = rng.normal(size=6)
        assert np.allclose(a @ cholesky_solve(low, b), b, atol=1e-10)


class TestPrincipalMinorDet:
    def test_empty_minor_convention(self):
        lap2 = symmetrize(np.array([[1.0, -1.0], [-1.0, 1.0]]) @ np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert principal_minor_det(lap2, {0, 1}) == 1.0

    def test_p3_squared_minors(self):
        lap = path_graph(3).laplacian()
        lap2 = symmetrize(lap @ lap)
        assert np.allclose(lap2, [[2, -3, 1], [-3, 6, -3], [1, -3, 2]])
        assert abs(principal_minor_det(lap2, {0, 2}) - 6.0) <= 1e-12
        assert abs(principal_minor_det(lap2, {0, 1}) - 2.0) <= 1e-12

    def test_full_determinant_matches_numpy(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3, 6, 12):
            a = symmetrize(rng.normal(size=(n, n)))
            expected = np.linalg.det(a)
            got = principal_minor_det(a)
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_spd_positive(self):
        rng = np.random.default_rng(47)
        b_mat = rng.normal(size=(5, 5))
        a = b_mat.T @ b_mat + np.eye(5)
        assert principal_minor_det(a) > 0
        assert principal_minor_det(a, {2}) > 0

    def test_zero_diagonal_fallback(self):
        assert abs(principal_minor_det([[0.0, 1.0], [1.0, 0.0]]) + 1.0) <= 1e-14
        a = np.array(
            [
                [0.0, 2.0, 0.0],
                [2.0, 0.0, 1.0],
                [0.0, 1.0, 0.0],
            ]
        )
        assert abs(principal_minor_det(a) - np.linalg.det(a)) <= 1e-12

    def test_singular(self):
        ones = np.ones((3, 3))
        assert abs(principal_minor_det(ones)) <= 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            principal_minor_det(np.eye(3), {3})


class TestSymmetrize:
    def test_exactly_symmetric(self):
        rng = np.random.default_rng(53)
        a = rng.normal(size=(40, 40))
        s = symmetrize(a)
        assert np.array_equal(s, s.T)

    def test_fixes_product_asymmetry(self):
        rng = np.random.default_rng(59)
        a = random_symmetric(rng, 15, scale=2.0)
        product = a @ a
        s = symmetrize(product)
        assert np.array_equal(s, s.T)
        assert np.max(np.abs(s - product)) <= 1e-12 * np.max(np.abs(product))
