"""Dense symmetric matrix kernels.

The eigensolver is a Jacobi iteration: simple, deterministic, and it produces
orthonormal eigenvectors as a byproduct, which the spectral formulas
downstream depend on. Each sweep follows a round-robin (tournament)
ordering, the parallel scheme of Brent and Luk (SIAM J. Sci. Stat. Comput.
6(1), 1985): the n(n-1)/2 index pairs are split into n - 1 rounds (n
rounded up to even) of disjoint pairs. Rotations on disjoint pairs commute,
so a whole round is applied at once as a handful of array operations; a
sweep thus costs O(n) numpy steps instead of O(n^2) Python-level rotations,
and the fixed schedule keeps the output deterministic.

Linear systems go through an explicit Cholesky factorization, and the
inverse of a triangular factor comes from forward substitution. Every
determinant is of a positive definite matrix (a grounded minor of L or of
L^2), and its one code path is the Cholesky factor: the log determinant is
twice the sum of the logs of the factor's diagonal, so a determinant far
beyond the range of a double (the squared-Laplacian minors of dense graphs
with a hundred vertices) still has a finite logarithm. At the matrix sizes
this package targets (up to a few hundred vertices) these small dense
routines are fast enough and their rounding behavior is easy to reason about.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

SWEEP_TOLERANCE = 1e-12
MAX_SWEEPS = 100
GROUPING_FACTOR = 1e-8  # equal eigenvalues: groups here, metrics.has_spectral_gap


def symmetrize(a) -> np.ndarray:
    """Average a with its transpose; the result is exactly symmetric."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def _check_square(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(off * off)))


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The tournament schedule of one sweep: m - 1 rounds of disjoint pairs
    (p, q) with p < q, where m is n rounded up to even, covering every pair
    of 0..n-1 exactly once.

    Index m - 1 sits still while the others turn around a circle: in round r
    it meets r, and r + i meets r - i (mod m - 1). For odd n, m - 1 = n is a
    dummy index, and the pair that would hold it is dropped.
    """
    m = n + n % 2
    i = np.arange(1, m // 2)
    rounds = []
    for r in range(m - 1):
        a = (r + i) % (m - 1)
        b = (r - i) % (m - 1)
        if m == n:
            a = np.append(a, r)
            b = np.append(b, m - 1)
        rounds.append((np.minimum(a, b), np.maximum(a, b)))
    return rounds


class JacobiResult(tuple):
    """``(w, v)`` as returned by :func:`jacobi_eigh`, so that ``w, v = ...``
    unpacks it, with the solver's counters as attributes: ``sweeps`` run,
    ``rotations`` applied (pairs that passed the skip test) and
    ``off_norm``, the off-diagonal Frobenius norm the iteration stopped at."""

    def __new__(cls, w, v, sweeps: int, rotations: int, off_norm: float):
        result = super().__new__(cls, (w, v))
        result.sweeps, result.rotations, result.off_norm = sweeps, rotations, off_norm
        return result


def _rotate_rows(m: np.ndarray, p: np.ndarray, q: np.ndarray, c, s) -> None:
    """Rotate each row pair (p_i, q_i) of m in place by (c_i, s_i)."""
    row_p, row_q = m[p], m[q]
    m[p] = c * row_p - s * row_q
    m[q] = s * row_p + c * row_q


def jacobi_eigh(a) -> JacobiResult:
    """Eigendecomposition of a symmetric matrix by round-robin Jacobi sweeps.

    Each sweep runs the rounds of :func:`_round_robin`; a round rotates away
    the off-diagonal entries of all of its pairs at once. Sweeps repeat
    until the off-diagonal Frobenius norm falls below ``SWEEP_TOLERANCE``
    times the Frobenius norm of the input. Returns ``(w, v)`` with
    eigenvalues ``w`` ascending and the matching orthonormal eigenvectors as
    the columns of ``v``. Ties keep index order, so output is deterministic.
    The result also carries the solver's counters (see :class:`JacobiResult`).

    Raises ``numpy.linalg.LinAlgError`` once ``MAX_SWEEPS`` sweeps have not
    converged, which signals a defect rather than a property of the input.
    """
    n = _check_square(np.asarray(a, dtype=float))
    a = symmetrize(a)
    # The eigenvectors are accumulated as the rows of vt = v^T, so that every
    # rotation, of a and of the eigenvectors alike, is a rotation of rows.
    vt = np.eye(n)
    stop = SWEEP_TOLERANCE * float(np.sqrt(np.sum(a * a)))
    # Entries at or below `skip` cannot lift the off-diagonal norm above
    # `stop` even if a whole sweep consists of them, so skipping keeps the
    # termination test sound while avoiding degenerate rotations.
    skip = stop / max(n, 1)
    rounds = _round_robin(n)
    sweeps = rotations = 0
    off = _off_norm(a)
    while off > stop:
        if sweeps == MAX_SWEEPS:
            raise np.linalg.LinAlgError(
                f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps"
            )
        for p, q in rounds:
            apq = a[p, q]
            active = np.abs(apq) > skip
            if not active.all():
                p, q, apq = p[active], q[active], apq[active]
                if not len(p):
                    continue
            rotations += len(p)
            app = a[p, p]
            aqq = a[q, q]
            theta = (aqq - app) / (2.0 * apq)
            t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t = np.where(theta < 0.0, -t, t)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            c, s = c[:, None], s[:, None]
            # R a R^T: rotate the rows of a, then the rows of (R a)^T = a R^T.
            _rotate_rows(a, p, q, c, s)
            a = a.T.copy()
            _rotate_rows(a, p, q, c, s)
            a[p, p] = app - t * apq
            a[q, q] = aqq + t * apq
            a[p, q] = 0.0
            a[q, p] = 0.0
            _rotate_rows(vt, p, q, c, s)
        sweeps += 1
        off = _off_norm(a)
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return JacobiResult(w[order], np.ascontiguousarray(vt[order].T), sweeps, rotations, off)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues, orthonormal eigenvector columns, and the
    partition of indices into maximal runs of eigenvalues that agree within
    tolerance (see eigendecompose; needed to reason about eigenspaces, not
    just eigenvalues, in floating point). ``sweeps``, ``rotations`` and
    ``off_norm`` are the counters of the Jacobi solve (see JacobiResult)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eigenspace_groups: tuple[tuple[int, ...], ...]
    sweeps: int
    rotations: int
    off_norm: float

    @property
    def n(self) -> int:
        return int(self.eigenvalues.shape[0])


def _partition_close(values: np.ndarray, tolerance: float) -> tuple[tuple[int, ...], ...]:
    groups = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= tolerance:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def eigendecompose(a) -> EigenDecomposition:
    """Full eigendecomposition with eigenspace grouping.

    Two adjacent eigenvalues land in the same group iff they differ by at
    most ``GROUPING_FACTOR * max(1, largest eigenvalue)``.
    """
    solved = jacobi_eigh(a)
    w, v = solved
    return EigenDecomposition(
        eigenvalues=w,
        eigenvectors=v,
        eigenspace_groups=_partition_close(w, GROUPING_FACTOR * max(1.0, float(w[-1]))),
        sweeps=solved.sweeps,
        rotations=solved.rotations,
        off_norm=solved.off_norm,
    )


def cholesky(a) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix."""
    a = np.asarray(a, dtype=float)
    n = _check_square(a)
    low = np.zeros((n, n))
    for j in range(n):
        # Column j from the diagonal down; its first entry is the squared pivot.
        col = a[j:, j] - low[j:, :j] @ low[j, :j]
        if not col[0] > 0.0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        low[j:, j] = col / math.sqrt(col[0])
    return low


def cholesky_solve(low: np.ndarray, b) -> np.ndarray:
    """Solve (low @ low.T) x = b given the lower Cholesky factor."""
    b = np.asarray(b, dtype=float)
    n = low.shape[0]
    y = np.zeros(n)
    for i in range(n):
        y[i] = (b[i] - low[i, :i] @ y[:i]) / low[i, i]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - low[i + 1 :, i] @ x[i + 1 :]) / low[i, i]
    return x


def triangular_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix with a nonzero diagonal, by forward
    substitution: row i of the inverse follows from rows 0..i-1."""
    n = _check_square(low)
    inv = np.zeros((n, n))
    for i in range(n):
        inv[i, i] = d = 1.0 / low[i, i]
        inv[i, :i] = (low[i, :i] @ inv[:i, :i]) * -d
    return inv


def cholesky_log_det(low: np.ndarray) -> float:
    """log det(R R^T) from the Cholesky factor R: twice the sum of the logs
    of its diagonal, finite far beyond the range of a double."""
    return 2.0 * float(np.sum(np.log(np.diag(low))))


def principal_minor_det(a, removed=()) -> float:
    """Determinant of ``a`` with the listed rows and columns deleted, as exp
    of the :func:`cholesky_log_det` of the kept block; it is inf once the
    determinant exceeds the largest double.

    ``removed`` is any iterable of 0-based integer indices; a float or any
    other value raises ``ValueError``. The kept block must be symmetric
    positive definite, or :func:`cholesky` raises
    ``numpy.linalg.LinAlgError``. The empty minor has determinant 1.
    """
    a = np.asarray(a, dtype=float)
    n = _check_square(a)
    drop = set()
    for i in removed:
        try:
            i = operator.index(i)
        except TypeError:
            raise ValueError(f"index {i!r} is not an integer") from None
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for a {n}x{n} matrix")
        drop.add(i)
    keep = [i for i in range(n) if i not in drop]
    return float(np.exp(cholesky_log_det(cholesky(a[np.ix_(keep, keep)]))))
