from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from biharmonic import (
    complete_graph,
    eigendecompose,
    hypercube_graph,
    jacobi_eigh,
    make_graph,
    path_graph,
    principal_minor_det,
    read_edge_list,
    symmetrize,
    wheel_graph,
)
from biharmonic import linalg
from biharmonic.linalg import (
    MAX_QL_ITERATIONS,
    _tridiagonalize,
    cholesky,
    cholesky_log_det,
    cholesky_solve,
    triangular_inverse,
)

GOLDEN = Path(__file__).parent / "golden"
EPS = np.finfo(float).eps


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
        assert np.allclose(cholesky_solve(cholesky(np.eye(3)), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        x = cholesky_solve(cholesky([[2.0, 0.0], [0.0, 4.0]]), [2.0, 8.0])
        assert np.allclose(x, [1.0, 2.0])

    def test_shifted_laplacian(self):
        x = cholesky_solve(cholesky([[1.5, -0.5], [-0.5, 1.5]]), [1.0, -1.0])
        assert np.allclose(x, [0.5, -0.5], atol=1e-14)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            b_mat = rng.normal(size=(n, n))
            a = b_mat.T @ b_mat + np.eye(n)
            b = rng.normal(size=n)
            x = cholesky_solve(cholesky(a), b)
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

    def test_nan_pivot_fails_closed(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            cholesky(np.array([[4.0, 2.0], [2.0, np.nan]]))

    def test_factor_reuse(self):
        rng = np.random.default_rng(41)
        b_mat = rng.normal(size=(6, 6))
        a = b_mat.T @ b_mat + np.eye(6)
        low = cholesky(a)
        assert np.allclose(low @ low.T, a, atol=1e-12)
        b = rng.normal(size=6)
        assert np.allclose(a @ cholesky_solve(low, b), b, atol=1e-10)


class TestTriangularInverse:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 60])
    def test_inverse_of_cholesky_factor(self, n):
        b_mat = np.random.default_rng(n).normal(size=(n, n))
        low = cholesky(b_mat.T @ b_mat + np.eye(n))
        inv = triangular_inverse(low)
        assert np.array_equal(inv, np.tril(inv))
        assert np.allclose(inv @ low, np.eye(n), atol=1e-12)


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
            b_mat = rng.normal(size=(n, n))
            a = b_mat.T @ b_mat + np.eye(n)
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
        # There is no pivoting fallback: a zero pivot means the minor is not
        # positive definite, and the Cholesky factor refuses it.
        a = np.array(
            [
                [0.0, 2.0, 0.0],
                [2.0, 0.0, 1.0],
                [0.0, 1.0, 0.0],
            ]
        )
        for m in ([[0.0, 1.0], [1.0, 0.0]], a):
            with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
                principal_minor_det(m)
        # Removing the zero-diagonal block leaves a positive definite minor.
        assert abs(principal_minor_det(a + np.diag([0.0, 5.0, 0.0]), {0, 2}) - 5.0) <= 1e-14

    def test_singular(self):
        ones = np.ones((3, 3))
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            principal_minor_det(ones)
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            principal_minor_det(ones, {0})
        assert principal_minor_det(ones, {0, 1}) == 1.0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            principal_minor_det(np.eye(3), {3})
        # A float or a string is not truncated to the index it resembles.
        for bad in (1.7, "1"):
            with pytest.raises(ValueError, match="not an integer"):
                principal_minor_det(np.eye(3), (bad,))


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


REFERENCE_TOLERANCE = 1e-12  # the reference's off-diagonal stop, relative to ||a||_F
REFERENCE_MAX_SWEEPS = 100


def _off_norm(a):
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(off * off)))


def cyclic_jacobi_reference(a, tol=REFERENCE_TOLERANCE, max_sweeps=REFERENCE_MAX_SWEEPS):
    """A row-major cyclic Jacobi loop, one Python-level rotation per pair,
    kept as an independent yardstick for accuracy."""
    n = np.asarray(a, dtype=float).shape[0]
    a = symmetrize(a)
    v = np.eye(n)
    norm = float(np.sqrt(np.sum(a * a)))
    stop = tol * norm
    if n > 1 and norm > 0.0:
        skip = stop / n
        for _ in range(max_sweeps):
            if _off_norm(a) <= stop:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    if abs(apq) <= skip:
                        continue
                    app = a[p, p]
                    aqq = a[q, q]
                    theta = (aqq - app) / (2.0 * apq)
                    t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    row_p = a[p, :].copy()
                    row_q = a[q, :].copy()
                    a[p, :] = c * row_p - s * row_q
                    a[q, :] = s * row_p + c * row_q
                    a[:, p] = a[p, :]
                    a[:, q] = a[q, :]
                    a[p, p] = app - t * apq
                    a[q, q] = aqq + t * apq
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    col_p = v[:, p].copy()
                    col_q = v[:, q].copy()
                    v[:, p] = c * col_p - s * col_q
                    v[:, q] = s * col_p + c * col_q
        else:
            if _off_norm(a) > stop:
                raise np.linalg.LinAlgError(
                    f"Jacobi iteration did not converge in {max_sweeps} sweeps"
                )
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def spectral_defects(lap, w, z):
    """Residual, orthogonality, pseudoinverse row-sum and LpL defects of an
    eigendecomposition of a connected graph's Laplacian; the first two are
    scaled by the rounding level n * eps."""
    n = len(w)
    residual = np.linalg.norm(lap @ z - z * w, np.inf) / (n * EPS * max(1.0, w[-1]))
    orthogonality = np.linalg.norm(z.T @ z - np.eye(n), np.inf) / (n * EPS)
    inv = np.zeros(n)
    inv[1:] = 1.0 / w[1:]
    p = symmetrize((z * inv) @ z.T)
    p2 = symmetrize((z * inv**2) @ z.T)
    rows = max(np.max(np.abs(p.sum(axis=1))), np.max(np.abs(p2.sum(axis=1))))
    lpl = np.max(np.abs(lap @ p @ lap - lap))
    return np.array([residual, orthogonality, rows, lpl])


@pytest.fixture(scope="module")
def reference_cases(random_suite):
    """(Laplacian, package solve, cyclic reference solve) on the golden
    graphs, the seeded suite, K_n for n in {1, 2, 5, 30, 99}, Q_4 and Q_6;
    odd n among them include the wheel W_7, K_5 and K_99."""
    graphs = [read_edge_list(path) for path in sorted(GOLDEN.glob("*.g"))]
    graphs += list(random_suite)
    graphs += [complete_graph(n) for n in (1, 2, 5, 30, 99)]
    graphs += [hypercube_graph(4), hypercube_graph(6)]
    laplacians = [g.laplacian() for g in graphs]
    return [(lap, jacobi_eigh(lap), cyclic_jacobi_reference(lap)) for lap in laplacians]


class TestRoundRobin:
    """The eigensolver's Householder stage, and the whole solve against the
    cyclic Jacobi reference (the class keeps the name of the round-robin
    Jacobi solver these tests were first written for)."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 10, 17])
    def test_reduction_is_tridiagonal_and_orthogonal(self, n):
        a = random_symmetric(np.random.default_rng(n), n)
        d, e, qt = _tridiagonalize(a)
        assert len(d) == len(e) == n and (n == 0 or e[-1] == 0.0)
        tridiagonal = np.diag(d)
        i = np.arange(n - 1)
        tridiagonal[i + 1, i] = tridiagonal[i, i + 1] = e[: n - 1]
        # Q^T a Q with Q = qt^T, against T to rounding, and Q orthogonal.
        rounding = max(n, 1) * EPS
        assert np.max(np.abs(qt @ a @ qt.T - tridiagonal), initial=0.0) <= (
            10 * rounding * max(1.0, np.sqrt(np.sum(a * a)))
        )
        assert np.max(np.abs(qt @ qt.T - np.eye(n)), initial=0.0) <= 10 * rounding

    def test_eigenvalues_match_cyclic_reference(self, reference_cases):
        for lap, (w, _), (w_ref, _) in reference_cases:
            assert np.max(np.abs(w - w_ref)) <= 1e-12 * max(1.0, w_ref[-1])

    def test_deterministic(self, reference_cases):
        for lap, (w, v), _ in reference_cases:
            again_w, again_v = jacobi_eigh(lap)
            assert np.array_equal(again_w, w) and np.array_equal(again_v, v)

    def test_defects_no_worse_than_cyclic(self, reference_cases):
        new = np.array([spectral_defects(lap, *solved) for lap, solved, _ in reference_cases])
        ref = np.array([spectral_defects(lap, *solved) for lap, _, solved in reference_cases])
        # Per graph the defects move both ways, so the gate is on suite statistics.
        assert np.all(np.median(new, axis=0) <= 2.0 * np.median(ref, axis=0))
        assert np.all(np.max(new[:, :3], axis=0) <= 2.0 * np.max(ref[:, :3], axis=0))
        # The reference's LpL defect is the off-diagonal mass its last sweep
        # leaves below its stopping threshold tol * ||L||_F, so where that sweep
        # lands sets its maximum; both solves must stay within the threshold.
        for (lap, _, _), lpl_new, lpl_ref in zip(reference_cases, new[:, 3], ref[:, 3]):
            threshold = REFERENCE_TOLERANCE * np.sqrt(np.sum(lap * lap))
            assert lpl_new <= threshold and lpl_ref <= threshold


class TestSolverCounters:
    """``iterations`` counts implicit QL iterations (one bulge-chasing sweep
    each), and ``off_diagonal`` is the largest subdiagonal entry neglected at
    a deflation."""

    def test_diagonal_input_needs_no_sweep(self):
        for a in (np.diag([3.0, -1.0, 2.0]), np.zeros((4, 4)), [[5.0]]):
            solved = jacobi_eigh(a)
            assert (solved.iterations, solved.off_diagonal) == (0, 0.0)

    def test_counters_on_reference_set(self, reference_cases):
        for lap, solved, _ in reference_cases:
            n = len(lap)
            assert 0 <= solved.iterations <= MAX_QL_ITERATIONS * n
            if np.any(lap - np.diag(np.diag(lap))):
                assert solved.iterations >= 1
            # Deflation neglects |e_l| <= eps * max(|d_i| + |e_i|), and the
            # shifted diagonal stays within twice the matrix norm.
            assert solved.off_diagonal <= 4.0 * EPS * max(1.0, np.sqrt(np.sum(lap * lap)))

    def test_eigendecompose_carries_counters(self):
        lap = wheel_graph(7).laplacian()
        eig = eigendecompose(lap)
        solved = jacobi_eigh(lap)
        assert solved.iterations >= 1
        assert (eig.iterations, eig.off_diagonal) == (solved.iterations, solved.off_diagonal)

    def test_sweep_cap_raises(self, monkeypatch):
        a = random_symmetric(np.random.default_rng(61), 12)
        monkeypatch.setattr(linalg, "MAX_QL_ITERATIONS", 1)
        with pytest.raises(np.linalg.LinAlgError, match="QL iteration did not converge in 1 "):
            jacobi_eigh(a)


def dense_random_graph(n, seed):
    """A spanning path plus each other pair with probability 1/2."""
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1) for i in range(n - 1)}
    edges |= {(p, q) for p in range(n) for q in range(p + 2, n) if rng.random() < 0.5}
    return make_graph(n, edges)


class TestSupportedSize:
    @pytest.mark.parametrize(
        "g",
        [complete_graph(200), dense_random_graph(200, 67), dense_random_graph(199, 71)],
        ids=["K200", "dense200", "dense199"],
    )
    def test_dense_n200_matches_numpy(self, g):
        lap = g.laplacian()
        w, v = jacobi_eigh(lap)
        expected = np.linalg.eigvalsh(lap)
        assert np.max(np.abs(w - expected)) <= 1e-12 * expected[-1]
        assert np.max(np.abs(v.T @ v - np.eye(g.n))) <= 1e-12


class TestLogDeterminant:
    def test_beyond_double_range(self):
        # det(1e10 I_40) = 1e400 overflows a double; its log does not.
        logdet = cholesky_log_det(cholesky(1e10 * np.eye(40)))
        assert abs(logdet - 400 * np.log(10.0)) <= 1e-12 * logdet
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert principal_minor_det(1e10 * np.eye(41), (0,)) == np.inf

    def test_sign_and_singular(self):
        # The log-det is taken of positive definite matrices only, so its sign
        # is always +1: a negative or zero determinant fails in the factor.
        for a in ([[0.0, 1.0], [1.0, 0.0]], np.ones((3, 3))):
            with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
                cholesky_log_det(cholesky(a))
        assert cholesky_log_det(cholesky(np.eye(2))) == 0.0
        assert cholesky_log_det(cholesky(np.eye(2)[:0, :0])) == 0.0


class TestSlogdetAgainstNumpy:
    """The Cholesky log determinant against numpy.linalg.slogdet on principal
    minors of L^2 (one and two vertices removed) at the supported size."""

    REMOVED = [(0,), (7,), (0, 1), (3, 150)]

    @pytest.mark.parametrize(
        "g, rel",
        [
            (complete_graph(200), 1e-12),
            (dense_random_graph(200, 67), 1e-12),
            (dense_random_graph(199, 71), 1e-12),
            (path_graph(200), 1e-9),  # the worst-conditioned L^2 of the set
        ],
        ids=["K200", "dense200", "dense199", "path200"],
    )
    def test_squared_laplacian_minors(self, g, rel):
        lap = g.laplacian()
        lap2 = symmetrize(lap @ lap)
        for removed in self.REMOVED:
            keep = [i for i in range(g.n) if i not in removed]
            minor = lap2[np.ix_(keep, keep)]
            expected_sign, expected_log = np.linalg.slogdet(minor)
            assert expected_sign == 1.0
            logdet = cholesky_log_det(cholesky(minor))
            assert abs(logdet - expected_log) <= rel * max(1.0, abs(expected_log))
