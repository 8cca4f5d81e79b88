"""Dense symmetric matrix kernels.

The eigensolver is the textbook pair of Wilkinson and Reinsch (Handbook for
Automatic Computation II, 1971: tred2 and tql2; Golub and Van Loan, Matrix
Computations, section 8.3). Householder reflectors reduce the symmetric
matrix to tridiagonal form T = Q^T A Q, one numpy rank-2 update of the
trailing block per column, and Q is accumulated backwards so that each
reflector touches only its own trailing block. Implicitly shifted QL
iterations then diagonalize T: a scalar recurrence on its diagonal and
subdiagonal whose plane rotations of adjacent rows of Z^T are logged and
applied in waves (van Zee, van de Geijn and Quintana-Orti, ACM TOMS 40(3),
2014): the rotations of one wave touch disjoint row pairs and go through one
stacked matmul, and every row meets its rotations in their original order,
so Z^T is bit for bit what rotating one pair at a time gives. The
eigenvectors come out orthonormal to rounding, which the spectral formulas
downstream depend on. Everything is plain numpy in a fixed order, so the
output is deterministic.

Linear systems go through an explicit Cholesky factorization, and an inverse
carries its column loop down the identity stacked under the matrix. Every
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
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .graphs import _as_integer

MAX_QL_ITERATIONS = 30  # per eigenvalue, as in EISPACK tql2
GROUPING_FACTOR = 1e-8  # equal eigenvalues: groups here, metrics.has_spectral_gap
_EPS = 2.0**-52


def symmetrize(a) -> np.ndarray:
    """Average a with its transpose; the result is exactly symmetric."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def _check_square(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def _tridiagonalize(a: np.ndarray) -> tuple[list[float], list[float], np.ndarray]:
    """Householder reduction (tred2) of the symmetric a to T = Q^T a Q.

    Returns the diagonal d and the subdiagonal e of T as lists, with e[i]
    coupling i and i + 1 and e[n - 1] = 0, and Q^T. Reflector k maps column
    k below the diagonal onto a multiple of e_(k+1); a column that is already
    zero there is skipped, so a diagonal input comes back unchanged.
    """
    n = len(a)
    a = a.copy()
    e = [0.0] * n
    reflectors = []
    for k in range(n - 2):
        x = a[k + 1 :, k]
        norm = math.sqrt(float(x @ x))
        if norm == 0.0:
            continue
        alpha = -math.copysign(norm, x[0])
        v = x.copy()
        v[0] -= alpha
        beta = -1.0 / (alpha * v[0])  # 2 / v'v
        # H B H = B - v w' - w v' for the trailing block B, H = I - beta v v'.
        block = a[k + 1 :, k + 1 :]
        p = beta * (block @ v)
        w = p - (0.5 * beta * float(p @ v)) * v
        block -= np.outer(v, w) + np.outer(w, v)
        e[k] = alpha
        reflectors.append((k, v, beta))
    if n > 1:
        e[n - 2] = float(a[n - 1, n - 2])
    # Q = H_0 H_1 ... H_(n-3); built from the right end, H_k acts on rows and
    # columns k + 1.. only.
    q = np.eye(n)
    for k, v, beta in reversed(reflectors):
        tail = q[k + 1 :, k + 1 :]
        tail -= np.outer(beta * v, v @ tail)
    return np.diag(a).tolist(), e, q.T.copy()


def jacobi_eigh(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix: Householder tridiagonalization
    then implicitly shifted QL iterations (tred2 and tql2).

    The name predates the algorithm (the solver used to be a Jacobi
    iteration) and stays, because the benchmark's tracer and its per-layer
    metrics key on ``linalg.jacobi_eigh``.

    Each QL iteration on the unreduced block l..m of T chooses Wilkinson's
    shift from the leading 2x2 block and chases the bulge up from m with
    plane rotations of adjacent rows. An eigenvalue deflates once its
    subdiagonal entry is at most machine epsilon times the largest
    |d_i| + |e_i| seen. Each rotation of rows i, i + 1 is logged under its
    wave, one past the last wave that touched either row. When eigenvalue l
    deflates, every wave that no later rotation can join (later rotations
    touch rows l + 1.. only) is complete, and :func:`_apply_waves` rotates
    the same rows of Z^T, one stacked matmul per wave; so the log holds
    only the waves still open, not every rotation of the solve. Returns an
    :class:`EigenDecomposition`: the eigenvalues ascending, the matching
    orthonormal eigenvectors as columns, and the solver's counters. Ties keep
    index order, so output is deterministic.

    Raises ``ValueError`` on a nan or inf entry (the deflation test would
    read a nan subdiagonal as negligible), and ``numpy.linalg.LinAlgError``
    when an eigenvalue has not deflated after ``MAX_QL_ITERATIONS``
    iterations, which signals a defect rather than a property of the input.
    """
    n = _check_square(np.asarray(a, dtype=float))
    a = symmetrize(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix has a nan or inf entry")
    # Solve a / 2^exponent, whose largest entry lies in [1/2, 1), so no
    # squared norm under- or overflows; ldexp scales exactly, subnormals too.
    exponent = int(np.frexp(np.max(np.abs(a), initial=0.0))[1])
    d, e, zt = _tridiagonalize(np.ldexp(a, -exponent))
    shift = tst1 = off = 0.0
    iterations = rotations = 0
    last = [0] * n  # the last wave that rotated each row
    pending = defaultdict(partial(array, "d"))  # wave -> its (i, c, s), flat
    applied = 0  # waves 1..applied have rotated Z^T
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        its = 0
        while True:
            m = l
            while abs(e[m]) > _EPS * tst1:  # e[n - 1] = 0 ends the search
                m += 1
            if m == l:
                break
            if its == MAX_QL_ITERATIONS:
                raise np.linalg.LinAlgError(
                    f"QL iteration did not converge in {MAX_QL_ITERATIONS} "
                    f"iterations for eigenvalue {l}"
                )
            its += 1
            # Wilkinson's shift from the 2x2 block at l, subtracted from all
            # of d[l:] and accumulated in `shift`.
            g = d[l]
            p = (d[l + 1] - g) / (2.0 * e[l])
            r = math.copysign(math.hypot(p, 1.0), p)
            d[l] = e[l] / (p + r)
            d[l + 1] = e[l] * (p + r)
            dl1 = d[l + 1]
            h = g - d[l]
            for i in range(l + 2, n):
                d[i] -= h
            shift += h
            # The implicit QL sweep from m - 1 up to l.
            p = d[m]
            c = c2 = c3 = 1.0
            el1 = e[l + 1]
            s = s2 = 0.0
            for i in range(m - 1, l - 1, -1):
                c3, c2, s2 = c2, c, s
                g = c * e[i]
                h = c * p
                r = math.hypot(p, e[i])
                e[i + 1] = s * r
                s = e[i] / r
                c = p / r
                p = c * d[i] - s * g
                d[i + 1] = h + s * (c * g + s * d[i])
                wave = 1 + max(last[i], last[i + 1])
                last[i] = last[i + 1] = wave
                pending[wave].extend((i, c, s))
            p = -s * s2 * c3 * el1 * e[l] / dl1
            e[l] = s * p
            d[l] = c * p
        iterations += its
        off = max(off, abs(e[l]))
        d[l] += shift
        e[l] = 0.0
        # Later rotations touch rows l + 1.. only, so the waves up to the
        # oldest last wave among those rows are complete (all of them once
        # the last eigenvalue is in).
        complete = min(last[l + 1 :] or [max(last)])
        if complete > applied:
            waves = [pending.pop(wave) for wave in range(applied + 1, complete + 1)]
            rotations += _apply_waves(zt, waves)
            applied = complete
    w, off = np.ldexp(d, exponent), math.ldexp(off, exponent)
    order = np.argsort(w, kind="stable")
    return EigenDecomposition(
        w[order], np.ascontiguousarray(zt[order].T), iterations, rotations, off
    )


def _apply_waves(zt: np.ndarray, waves: list[array]) -> int:
    """Apply consecutive waves of logged rotations, each a flat run of
    (i, c, s), to the rows of zt in place, and return how many there were.
    The rotations of one wave touch disjoint row pairs, so one stacked
    matmul per wave gives every pair the same 2x2 product, to the last bit,
    as rotating it on its own."""
    log = np.frombuffer(b"".join(waves)).reshape(-1, 3)
    rows = log[:, :1].astype(np.intp) + (0, 1)
    # ((c, -s), (s, c)) per rotation; a product with 1.0 or -1.0 is exact.
    rot = (log[:, [1, 2, 2, 1]] * (1.0, -1.0, 1.0, 1.0)).reshape(-1, 2, 2)
    lo = 0
    for wave in waves:
        hi = lo + len(wave) // 3
        pairs = rows[lo:hi]
        zt[pairs] = rot[lo:hi] @ zt[pairs]
        lo = hi
    return len(log)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues, orthonormal eigenvector columns, and the
    counters of the solve: ``iterations``, the number of implicit QL
    iterations, ``rotations``, the number of plane rotations they applied,
    and ``off_diagonal``, the largest subdiagonal magnitude neglected when an
    eigenvalue was deflated. ``eigenspace_groups``
    partitions the indices into maximal runs of eigenvalues that agree within
    tolerance (needed to reason about eigenspaces, not just eigenvalues, in
    floating point)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    iterations: int
    rotations: int
    off_diagonal: float

    @property
    def n(self) -> int:
        return int(self.eigenvalues.shape[0])

    @cached_property
    def eigenspace_groups(self) -> tuple[tuple[int, ...], ...]:
        """Two adjacent eigenvalues land in the same group iff they differ by
        at most ``GROUPING_FACTOR * max(1, largest eigenvalue)``."""
        w = self.eigenvalues
        if not len(w):
            return ()
        tolerance = GROUPING_FACTOR * max(1.0, float(w[-1]))
        groups = [[0]]
        for i in range(1, len(w)):
            if w[i] - w[i - 1] <= tolerance:
                groups[-1].append(i)
            else:
                groups.append([i])
        return tuple(tuple(g) for g in groups)


def eigendecompose(a) -> EigenDecomposition:
    """:func:`jacobi_eigh` under the name that the benchmark's tracer
    (``spans.LAYERS``, ``REPEAT_KEYS``) and the tests' monkeypatches key on."""
    return jacobi_eigh(a)


def cholesky(a) -> np.ndarray:
    """Lower-triangular Cholesky factor R of the positive definite leading
    block A of a square or tall a, by one column loop down all of its rows:
    rows B under A come back as B R^-T (the panel step of block Cholesky,
    Golub and Van Loan, section 4.2), so B = I gives R^-T and A^-1 = R^-T R^-1.
    A wide a raises ValueError; an A that is not positive definite, LinAlgError."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ValueError(f"expected a square or tall matrix, got shape {a.shape}")
    low = np.zeros(a.shape)
    for j in range(a.shape[1]):
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


def cholesky_log_det(low: np.ndarray) -> float:
    """log det(R R^T) from the Cholesky factor R: twice the sum of the logs
    of its diagonal, finite far beyond the range of a double."""
    return 2.0 * float(np.sum(np.log(np.diag(low))))


def principal_minor_det(a, removed=()) -> float:
    """Determinant of ``a`` with the listed rows and columns deleted, as exp
    of the :func:`cholesky_log_det` of the kept block; it is inf once the
    determinant exceeds the largest double.

    ``removed`` is any iterable of 0-based integer indices; a bool, a float
    or any other value raises ``ValueError`` (see graphs._as_integer). The
    kept block must be symmetric positive definite, or :func:`cholesky`
    raises ``numpy.linalg.LinAlgError``. The empty minor has determinant 1.
    """
    a = np.asarray(a, dtype=float)
    n = _check_square(a)
    drop = {_as_integer(i, "index", n) for i in removed}
    keep = [i for i in range(n) if i not in drop]
    return float(np.exp(cholesky_log_det(cholesky(a[np.ix_(keep, keep)]))))
