"""Dense symmetric matrix kernels.

The eigensolver is a cyclic Jacobi iteration: simple, deterministic, and it
produces orthonormal eigenvectors as a byproduct, which the spectral formulas
downstream depend on. A caller that needs only the eigenvalues can have the
same sweep skip the eigenvector rotations (``vectors=False``): the eigenvalues
never read them, so they come out bit-identical for less work. Linear
systems go through an explicit Cholesky factorization and determinants through
diagonally pivoted elimination. At the matrix sizes this package targets (tens
of vertices) these small dense routines are fast and their rounding behavior
is easy to reason about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SWEEP_TOLERANCE = 1e-12
MAX_SWEEPS = 100
GROUPING_FACTOR = 1e-8
DIAGONAL_STALL = 1e-14


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


def jacobi_eigh(
    a, tol: float = SWEEP_TOLERANCE, max_sweeps: int = MAX_SWEEPS, vectors: bool = True
):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Row-major sweeps rotate away each off-diagonal entry in turn until the
    off-diagonal Frobenius norm falls below ``tol`` times the Frobenius norm
    of the input. Returns ``(w, v)`` with eigenvalues ``w`` ascending and the
    matching orthonormal eigenvectors as the columns of ``v``. Ties keep the
    order in which the diagonal settled, so output is deterministic. With
    ``vectors=False`` the rotations are not accumulated and ``v`` is None;
    ``w`` is bit-identical to the one the full solve returns.

    Raises ``numpy.linalg.LinAlgError`` if the sweep cap is exhausted, which
    signals a defect rather than a property of the input.
    """
    n = _check_square(np.asarray(a, dtype=float))
    a = symmetrize(a)
    v = np.eye(n) if vectors else None
    norm = float(np.sqrt(np.sum(a * a)))
    stop = tol * norm
    if n > 1 and norm > 0.0:
        # Entries at or below `skip` cannot lift the off-diagonal norm above
        # `stop` even if a whole sweep consists of them, so skipping keeps
        # the termination test sound while avoiding degenerate rotations.
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
                    if v is not None:
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
    return w[order], None if v is None else v[:, order]


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues, orthonormal eigenvector columns, and the
    partition of indices into maximal runs of eigenvalues that agree within
    ``grouping_tolerance`` (needed to reason about eigenspaces, not just
    eigenvalues, in floating point)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eigenspace_groups: tuple[tuple[int, ...], ...]
    grouping_tolerance: float

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


def eigendecompose(a, grouping_factor: float = GROUPING_FACTOR) -> EigenDecomposition:
    """Full eigendecomposition with eigenspace grouping.

    Two adjacent eigenvalues land in the same group iff they differ by at
    most ``grouping_factor * max(1, largest eigenvalue)``.
    """
    w, v = jacobi_eigh(a)
    tolerance = grouping_factor * max(1.0, float(w[-1]))
    return EigenDecomposition(
        eigenvalues=w,
        eigenvectors=v,
        eigenspace_groups=_partition_close(w, tolerance),
        grouping_tolerance=tolerance,
    )


def cholesky(a) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix."""
    a = np.asarray(a, dtype=float)
    n = _check_square(a)
    low = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if d <= 0.0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        low[j, j] = np.sqrt(d)
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
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


def spd_solve(a, b) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a via Cholesky."""
    return cholesky_solve(cholesky(a), b)


def _row_pivot_det(block: np.ndarray) -> float:
    b = np.array(block, dtype=float)
    n = b.shape[0]
    det = 1.0
    for k in range(n):
        p = int(np.argmax(np.abs(b[k:, k]))) + k
        pivot = b[p, k]
        if pivot == 0.0:
            return 0.0
        if p != k:
            b[[k, p], :] = b[[p, k], :]
            det = -det
        det *= pivot
        if k + 1 < n:
            b[k + 1 :, k:] -= np.outer(b[k + 1 :, k] / pivot, b[k, k:])
    return det


def determinant(a) -> float:
    """Determinant of a symmetric matrix by diagonally pivoted elimination.

    Pivots are taken on the diagonal with a paired row and column swap (two
    sign flips, so the determinant is unchanged) and the trailing block is
    updated with the symmetric rank-one Schur complement, which keeps it
    exactly symmetric. If no usable diagonal pivot remains, the remaining
    block is finished with ordinary row-pivoted elimination.
    """
    a = symmetrize(a)
    n = _check_square(a)
    det = 1.0
    for k in range(n):
        block = a[k:, k:]
        scale = float(np.max(np.abs(block)))
        if scale == 0.0:
            return 0.0
        diag = np.abs(np.diag(block))
        best = int(np.argmax(diag))
        if diag[best] <= DIAGONAL_STALL * scale:
            return det * _row_pivot_det(block)
        p = k + best
        if p != k:
            a[[k, p], :] = a[[p, k], :]
            a[:, [k, p]] = a[:, [p, k]]
        pivot = a[k, k]
        det *= pivot
        if k + 1 < n:
            col = a[k + 1 :, k].copy()
            a[k + 1 :, k + 1 :] -= np.outer(col, col) / pivot
    return det


def principal_minor_det(a, removed=()) -> float:
    """Determinant of ``a`` with the listed rows and columns deleted.

    ``removed`` is any iterable of 0-based indices; the determinant of the
    empty matrix is 1 by convention.
    """
    a = np.asarray(a, dtype=float)
    n = _check_square(a)
    drop = set()
    for i in removed:
        i = int(i)
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for a {n}x{n} matrix")
        drop.add(i)
    keep = [i for i in range(n) if i not in drop]
    if not keep:
        return 1.0
    return determinant(a[np.ix_(keep, keep)])
