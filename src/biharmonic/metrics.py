"""Biharmonic distance by four independent routes, plus spectral indices.

The biharmonic distance between vertices u and v is

    d_B(u, v) = sqrt((e_u - e_v)' M (e_u - e_v))

where M is the squared pseudoinverse of the graph Laplacian. Four
computational characterizations are implemented side by side so they can
cross-validate each other:

  * a spectral sum over eigenvalue/eigenvector pairs,
  * direct lookup in the explicitly assembled pseudoinverse square,
  * a ratio of determinants (a submatrix of L^2 against the tree count),
  * the Euclidean norm of the minimum-norm solution f of L f = e_u - e_v.

Every route takes one vertex u against one vertex v or an array of vertices,
so that `verify` reads all pairs one row u at a time. The state caches what
the rows share: the eigendecomposition and both pseudoinverses for the
spectral and pinv routes, the inverse S^-1 of S = L + J/n for the min-norm
route, and for the determinant route the inverse of M_0 = L^2 without row and
column 0, padded and scaled so that every pair is one quadratic form in it,
as in the pinv route. A verify thus costs one eigensolve and n + 3 Cholesky
factorizations (M_0, the tree-count minor of L, S, and the n minors of L^2
that the matrix-tree check compares with n tau^2), plus one of
S' = L + bb' + J/n that rebuilds the index of the first edge addition uv,
b = e_u - e_v, as a spot check of its closed form.

The module also provides the biharmonic index (half the sum of all squared
pairwise distances, equal to n times the sum of inverse squared nonzero
eigenvalues), the Kirchhoff index, resistance distance, spanning-tree
counts, and checkers for the sharp bounds and inequalities these quantities
satisfy.

All routes treat the smallest Laplacian eigenvalue as exactly zero. A second
near-zero eigenvalue means the graph is disconnected, which every operation
here rejects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graphs import DisconnectedGraphError, Graph, _as_integer, is_connected
from .linalg import (
    GROUPING_FACTOR,
    EigenDecomposition,
    cholesky,
    cholesky_log_det,
    eigendecompose,
    symmetrize,
    triangular_inverse,
)

ATTAINMENT_TOLERANCE = 1e-9
ORTHOGONALITY_TOLERANCE = 1e-8
RADICAND_FLOOR = -1e-12
EQUALITY_TOLERANCE = 1e-10
TREE_COUNT_ROUNDING = 1e-6


@dataclass
class SpectralCache:
    """Lazy per-graph state of a connected graph, shared by every route and query.

    The graph is the only field; everything derived from it is a cached
    property, computed on first use. pinv, pinv2 and pinv3 come from the
    spectral sum with the kernel direction dropped. The determinant and
    minimum-norm routes read only the grounded inverse of L^2 and the inverse
    of L + J/n, so they never run the eigensolver.
    """

    graph: Graph

    def __post_init__(self):
        if not is_connected(self.graph):
            raise DisconnectedGraphError("graph is disconnected")

    @cached_property
    def laplacian(self) -> np.ndarray:
        return self.graph.laplacian()

    @cached_property
    def eig(self) -> EigenDecomposition:
        """The eigendecomposition of L with its known kernel projected out:
        lambda_1 = 0 and z_1 = 1/sqrt(n) are set exactly, and every other
        eigenvector loses its mean, so it is orthogonal to 1 to rounding. As
        L 1 = 0, L z_k is unchanged; only the rounding-level kernel component,
        which 1/lambda_2^2 would amplify in the pseudoinverses, goes."""
        solved = eigendecompose(self.laplacian)
        w, z = solved.eigenvalues, solved.eigenvectors
        w[0] = 0.0
        z[:, 0] = 1.0 / math.sqrt(self.graph.n)
        z[:, 1:] -= z[:, 1:].mean(axis=0)
        if not has_spectral_gap(w[1:]):
            # The graph passed the traversal test, so this is a solver defect.
            bad = w[~np.isfinite(w)]
            raise np.linalg.LinAlgError(
                f"solver returned the non-finite eigenvalue {float(bad[0])!r}"
                if bad.size
                else f"connected graph without a spectral gap (lambda_2 = {float(w[1])!r})"
            )
        return solved

    def _pinv_power(self, power: int) -> np.ndarray:
        w = self.eig.eigenvalues
        z = self.eig.eigenvectors
        inv = np.zeros_like(w)
        inv[1:] = 1.0 / w[1:]
        return symmetrize((z * inv**power) @ z.T)

    @cached_property
    def pinv(self) -> np.ndarray:
        return self._pinv_power(1)

    @cached_property
    def pinv2(self) -> np.ndarray:
        return self._pinv_power(2)

    @cached_property
    def pinv3(self) -> np.ndarray:
        return self._pinv_power(3)

    @cached_property
    def laplacian_squared(self) -> np.ndarray:
        return symmetrize(self.laplacian @ self.laplacian)

    @cached_property
    def sigma_sets(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Index sets (1-based, matching the ordering lambda_1 <= ... <= lambda_n)
        of eigenvalues strictly above lambda_2 and strictly below lambda_n, where
        "strictly" is decided by eigenspace grouping rather than raw comparison
        so that repeated eigenvalues read off floating point output stay together.
        The kernel index 1 is never a member of either set."""
        groups = self.eig.eigenspace_groups
        n = len(self.eig.eigenvalues)
        # The groups partition 0..n-1 in order, so each set is one range.
        end_of_second = next(g[-1] for g in groups if 1 in g)
        return tuple(range(end_of_second + 2, n + 1)), tuple(range(2, groups[-1][0] + 1))

    @cached_property
    def log_tree_count(self) -> float:
        """log tau: the log determinant of L without row and column 0, which
        is positive definite on a connected graph."""
        return cholesky_log_det(cholesky(self.laplacian[1:, 1:]))

    @cached_property
    def shifted_inverse(self) -> np.ndarray:
        """S^-1 for S = L + J/n, from its Cholesky factor; it equals L^+ + J/n."""
        return _spd_inverse(cholesky(self.laplacian + 1.0 / self.graph.n))

    @cached_property
    def grounded_inverse(self) -> np.ndarray:
        """G = M_0^-1 padded with a zero row and column 0, times
        det(M_0) / (n tau^2), where M_0 is L^2 without row and column 0.

        M_0 is positive definite on a connected graph, since L^2 is positive
        semidefinite with kernel span(1). So (e_u - e_v)' G (e_u - e_v) is the
        same for any grounding vertex, and by Jacobi's complementary-minor
        identity it equals det((L^2)_-u,-v) / (n tau^2): every squared
        determinant-route distance from one Cholesky factor. The scale is
        taken in logs, as the minors overflow a double on dense graphs.
        """
        n = self.graph.n
        low = cholesky(self.laplacian_squared[1:, 1:])
        grounded = np.zeros((n, n))
        grounded[1:, 1:] = _spd_inverse(low) * np.exp(
            cholesky_log_det(low) - np.log(n) - 2.0 * self.log_tree_count
        )
        return grounded


def _spd_inverse(low: np.ndarray) -> np.ndarray:
    """The inverse of the positive definite low low', from its Cholesky factor."""
    x = triangular_inverse(low)
    return symmetrize(x.T @ x)


def has_spectral_gap(nonzero: np.ndarray) -> bool:
    """True when the Laplacian eigenvalues other than the kernel's, in any
    order, are all finite and the smallest exceeds GROUPING_FACTOR times the
    largest of them and 1 (so eigendecompose would not group it with the
    kernel), which certifies a connected graph. One vertex has none: True."""
    top = float(nonzero.max(initial=1.0))
    return math.isfinite(top) and bool(nonzero.min(initial=np.inf) > GROUPING_FACTOR * top)


def build_cache(g: Graph) -> SpectralCache:
    """The one-time O(n^3) step: the state of g with its eigendecomposition
    and both pseudoinverses already computed, so that later reads are cheap.

    Raises DisconnectedGraphError on a disconnected graph.
    """
    cache = SpectralCache(g)
    _ = cache.pinv, cache.pinv2
    return cache


def _as_cache(graph_or_cache) -> SpectralCache:
    """The given state, or a new lazy state of the given graph."""
    if isinstance(graph_or_cache, SpectralCache):
        return graph_or_cache
    return SpectralCache(graph_or_cache)


def _cache_and_pair(graph_or_cache, u: int, v) -> tuple[SpectralCache, int, object]:
    """The prologue of every pair query: the state, the checked vertex u and
    the checked v, a vertex or an integer array of vertices."""
    cache = _as_cache(graph_or_cache)
    u, v = _check_pair(cache.graph.n, u, v)
    return cache, u, v


def _check_pair(n: int, u, v) -> tuple[int, object]:
    """The vertex check of every pair query: u checked as one vertex of
    0..n-1, and v as one vertex or an integer array of vertices (see
    _check_vertices); ValueError otherwise."""
    u = _check_vertices(n, u)
    if not isinstance(u, int):
        raise ValueError(f"u must be one vertex, got {u!r}")
    return u, _check_vertices(n, v)


def _check_vertices(n: int, v):
    """v checked as one vertex (graphs._as_integer; an int comes back) or an
    integer array of vertices (any empty array is one) of 0..n-1; ValueError
    otherwise. A bool is not a vertex, as a scalar no more than in an array."""
    if isinstance(v, int) or not np.ndim(v):
        return _as_integer(v, "vertex", n)
    vs = np.asarray(v)
    if vs.size and not (vs.dtype.kind in "iu" and 0 <= vs.min() and vs.max() < n):
        raise ValueError(f"vertices {v!r} are not all integers in [0, {n})")
    return vs.astype(int, copy=False)


def _require_distinct(u: int, v, what: str) -> None:
    """ValueError naming what needs distinct vertices when the checked v, a
    vertex or an integer array of vertices, is or holds u."""
    if v == u if isinstance(v, int) else u in v:
        raise ValueError(f"{what} needs distinct vertices")


def _per_vertex(values):
    """A route's result: the array of values for an array of vertices v, a
    Python scalar for a single vertex v (whose indexing gave a numpy scalar)."""
    if isinstance(values, np.ndarray):
        return values
    return float(values) if isinstance(values, np.floating) else values.item()


def _sqrt_clamped(radicand):
    """Square roots of squared distances; rounding below zero reads as zero,
    anything below RADICAND_FLOOR is a defect."""
    if (radicand < RADICAND_FLOOR).any():
        raise ArithmeticError(f"negative squared distance {float(np.min(radicand))!r}")
    return np.sqrt(np.maximum(radicand, 0.0))


def _pair_form(m: np.ndarray, u, v):
    """(e_u - e_v)' m (e_u - e_v) for a symmetric m, elementwise over
    vertices or arrays of vertices u and v."""
    return m[u, u] + m[v, v] - 2.0 * m[u, v]


def spectral_sum(at_u, at_v, w):
    """sqrt(sum |a - b|^2 / w^2) over the last axis: the distance from the
    eigenvector entries a at u and b at v and the nonzero eigenvalues w. The
    modulus lets complex eigenvectors (characters) in."""
    diff = np.abs(at_u - at_v) / w
    return np.sqrt((diff * diff).sum(axis=-1))


def biharmonic_spectral(graph_or_cache, u: int, v):
    """Distance as the spectral sum over nonzero eigenvalues:
    sqrt(sum_k (z_k(u) - z_k(v))^2 / lambda_k^2).

    v is a vertex (the result is a float) or an array of vertices (an array of
    the distances from u), as for every route below.
    """
    cache, u, v = _cache_and_pair(graph_or_cache, u, v)
    z = cache.eig.eigenvectors
    return _per_vertex(spectral_sum(z[u, 1:], z[v, 1:], cache.eig.eigenvalues[1:]))


def biharmonic_pinv_entries(graph_or_cache, u: int, v):
    """Distance read off the entries of the squared pseudoinverse."""
    cache, u, v = _cache_and_pair(graph_or_cache, u, v)
    return _per_vertex(_sqrt_clamped(_pair_form(cache.pinv2, u, v)))


def biharmonic_determinant(graph_or_cache, u: int, v):
    """Distance as sqrt(det of L^2 with rows/columns u,v deleted) divided by
    sqrt(n) times the spanning-tree count.

    This route never touches the eigendecomposition, so it is an independent
    check on the spectral ones. It requires distinct vertices. Every pair is
    the quadratic form of e_u - e_v in SpectralCache.grounded_inverse, so
    all pairs come from one Cholesky factorization and the result is exactly
    symmetric.
    """
    cache, u, v = _cache_and_pair(graph_or_cache, u, v)
    _require_distinct(u, v, "the determinant formula")
    return _per_vertex(_sqrt_clamped(_pair_form(cache.grounded_inverse, u, v)))


def biharmonic_minnorm(graph_or_cache, u: int, v):
    """Distance as the norm of the minimum-norm solution f of L f = e_u - e_v.

    The inverse of the positive definite S = L + J/n differs from the
    pseudoinverse by J/n, which annihilates e_u - e_v, so f is exactly
    column u minus column v of S^-1, built from an ordinary Cholesky
    factorization instead of any pseudoinverse machinery.
    """
    cache, u, v = _cache_and_pair(graph_or_cache, u, v)
    s = cache.shifted_inverse
    diff = s[u] - s[v]
    return _per_vertex(np.sqrt(np.sum(diff * diff, axis=-1)))


# The four routes by their command-line names, in MethodReport order.
ROUTES = {
    "spectral": biharmonic_spectral,
    "pinv": biharmonic_pinv_entries,
    "det": biharmonic_determinant,
    "minnorm": biharmonic_minnorm,
}


def relative_spread(values):
    """(max - min) / max over the routes' values, elementwise when they are
    arrays; nan as soon as any value is nan or inf."""
    values = np.array(np.broadcast_arrays(*values))
    top = np.max(values, axis=0)
    with np.errstate(invalid="ignore"):
        return (top - np.min(values, axis=0)) / np.maximum(1e-300, top)


@dataclass(frozen=True)
class MethodReport:
    """Vertex u against v computed by all four routes, with their relative
    spread. For an array of vertices v, the five values are arrays over it."""

    pair: tuple[int, int]
    spectral: float
    pinv_entries: float
    determinant: float
    min_norm: float
    max_relative_spread: float

    def values(self) -> tuple[float, float, float, float]:
        return (self.spectral, self.pinv_entries, self.determinant, self.min_norm)


def all_methods(graph_or_cache, u: int, v) -> MethodReport:
    """Run the four routes of ROUTES on u against a vertex v or an array of
    vertices v, none of them u."""
    cache, u, v = _cache_and_pair(graph_or_cache, u, v)
    _require_distinct(u, v, "cross-method comparison")
    values = [route(cache, u, v) for route in ROUTES.values()]
    return MethodReport((u, v), *values, _per_vertex(relative_spread(values)))


def distance_matrix(graph_or_cache) -> np.ndarray:
    """Full symmetric matrix of biharmonic distances (pseudoinverse route),
    failing closed on a negative squared distance as the pair route does."""
    cache = _as_cache(graph_or_cache)
    p2 = cache.pinv2
    d = np.diag(p2)
    return _sqrt_clamped(d[:, None] + d[None, :] - 2.0 * p2)


def spanning_tree_count(graph_or_cache) -> float:
    """Number of spanning trees, exp of the state's log tree count (the
    Laplacian minor at vertex 0).

    Returns a rounded integer value when the determinant is within 1e-6
    relative of one (always the case at desk scale), and inf when the count
    overflows a double (numpy warns of the overflow); otherwise warns and
    returns the raw determinant. Disconnected graphs give 0.
    """
    try:
        cache = _as_cache(graph_or_cache)
    except DisconnectedGraphError:
        return 0.0
    raw = float(np.exp(cache.log_tree_count))
    nearest = float(np.round(raw))
    if np.isinf(raw) or abs(raw - nearest) <= TREE_COUNT_ROUNDING * max(1.0, abs(raw)):
        return nearest
    warnings.warn(
        f"spanning tree determinant {raw!r} is not close to an integer; returning it raw",
        RuntimeWarning,
        stacklevel=2,
    )
    return raw


def biharmonic_index_spectral(graph_or_cache) -> float:
    """Biharmonic index as n times the sum of inverse squared nonzero eigenvalues."""
    w = _as_cache(graph_or_cache).eig.eigenvalues
    return len(w) * float(np.sum(1.0 / w[1:] ** 2))


def biharmonic_index_pairwise(graph_or_cache) -> float:
    """Biharmonic index as half the double sum of squared pairwise distances."""
    p2 = _as_cache(graph_or_cache).pinv2
    d = np.diag(p2)
    return 0.5 * float(np.sum(d[:, None] + d[None, :] - 2.0 * p2))


def kirchhoff_index(graph_or_cache) -> float:
    """Kirchhoff index as n times the sum of inverse nonzero eigenvalues."""
    cache = _as_cache(graph_or_cache)
    w = cache.eig.eigenvalues[1:]
    return cache.graph.n * float(np.sum(1.0 / w))


def resistance_distance(graph_or_cache, u: int, v):
    """Effective resistance from u to a vertex or an array v, from entries of L^+."""
    cache, u, v = _cache_and_pair(graph_or_cache, u, v)
    return _per_vertex(_pair_form(cache.pinv, u, v))


@dataclass(frozen=True)
class BoundsReport:
    """Sharp two-sided bounds sqrt(2)/lambda_n <= d_B(u,v) <= sqrt(2)/lambda_2.

    Attainment of either bound is decided twice: numerically (value within
    tolerance of the bound) and structurally (e_u - e_v orthogonal to every
    eigenspace indexed by sigma_n resp. sigma2). The two verdicts agree
    exactly when the attainment characterization holds, which `consistent`
    exposes for checking. For an array of vertices v, value and the four
    verdicts are arrays over it.
    """

    pair: tuple[int, int]
    lower: float
    upper: float
    value: float
    lower_attained: bool
    upper_attained: bool
    sigma2: tuple[int, ...]
    sigma_n: tuple[int, ...]
    sigma2_orthogonal: bool
    sigma_n_orthogonal: bool

    @property
    def consistent(self) -> bool:
        return (self.lower_attained == self.sigma_n_orthogonal) & (
            self.upper_attained == self.sigma2_orthogonal
        )


def bounds_report(graph_or_cache, u: int, v) -> BoundsReport:
    cache, u, v = _cache_and_pair(graph_or_cache, u, v)
    _require_distinct(u, v, "a bounds report")
    w = cache.eig.eigenvalues
    z = cache.eig.eigenvectors
    lower = float(np.sqrt(2.0) / w[-1])
    upper = float(np.sqrt(2.0) / w[1])
    diff = z[u] - z[v]
    value = _per_vertex(spectral_sum(diff[..., 1:], 0.0, w[1:]))
    sigma2, sigma_n = cache.sigma_sets
    # Eigenvector k - 1 separates u from each v for k in a sigma set, or not.
    orthogonal = np.abs(diff) <= ORTHOGONALITY_TOLERANCE
    return BoundsReport(
        pair=(u, v),
        lower=lower,
        upper=upper,
        value=value,
        lower_attained=abs(value - lower) <= ATTAINMENT_TOLERANCE,
        upper_attained=abs(value - upper) <= ATTAINMENT_TOLERANCE,
        sigma2=sigma2,
        sigma_n=sigma_n,
        sigma2_orthogonal=_per_vertex(orthogonal[..., [k - 1 for k in sigma2]].all(axis=-1)),
        sigma_n_orthogonal=_per_vertex(orthogonal[..., [k - 1 for k in sigma_n]].all(axis=-1)),
    )


class BrkReport(NamedTuple):
    b: float
    kf: float
    rhs: float
    equality: bool


def check_brk(graph_or_cache) -> BrkReport:
    """Check B(G) >= Kf(G)^2 / (n(n-1)), with the equality flag.

    Equality holds exactly on complete graphs. A violation beyond tolerance
    raises, since it would mean a computational defect, not a property of
    the input.
    """
    cache = _as_cache(graph_or_cache)
    n = cache.graph.n
    if n < 2:
        raise ValueError("the index inequality needs at least two vertices")
    b = biharmonic_index_spectral(cache)
    kf = kirchhoff_index(cache)
    rhs = kf * kf / (n * (n - 1))
    return BrkReport(b=b, kf=kf, rhs=rhs, equality=_attains(b, rhs, "index inequality"))


class IndexFloorReport(NamedTuple):
    b: float
    floor: float
    equality: bool


def check_index_floor(graph_or_cache) -> IndexFloorReport:
    """Check B(G) >= (n-1)/n, with equality exactly on complete graphs."""
    cache = _as_cache(graph_or_cache)
    n = cache.graph.n
    b = biharmonic_index_spectral(cache)
    floor = (n - 1) / n
    return IndexFloorReport(b=b, floor=floor, equality=_attains(b, floor, "index floor"))


def _worst(values, reduce=max, start: float = 0.0) -> float:
    """Reduce (max or min) over start and values, failing closed: nan as soon
    as any value is nan or inf. A plain max(worst, nan) keeps worst, which
    would let a nan defect read as a pass. values are scalars, such as
    per-row maxima, since they become a Python list."""
    values = [start, *values]
    return float(reduce(values)) if np.all(np.isfinite(values[1:])) else float("nan")


def _attains(b: float, bound: float, name: str) -> bool:
    """Whether the index b attains its lower bound; ArithmeticError, named
    after the bound, when b falls below it beyond tolerance or when either
    side is nan or inf."""
    shortfall = _worst((bound - b,))
    if math.isnan(shortfall):
        raise ArithmeticError(f"{name} on a non-finite value: B {b!r}, bound {bound!r}")
    if shortfall > EQUALITY_TOLERANCE:
        raise ArithmeticError(f"{name} violated: {b!r} < {bound!r}")
    return abs(b - bound) <= EQUALITY_TOLERANCE


def _first_edge(flags, u, v) -> str:
    """The first edge (u[i], v[i]) whose flag is set, as text."""
    i = np.argmax(flags)
    us, vs = np.broadcast_arrays(u, v)
    return f"({us.flat[i]}, {vs.flat[i]})"


def _nonedge(graph_or_cache, e) -> tuple[SpectralCache, object, object]:
    """The state and the checked endpoints of one nonedge (u, v) or of the
    nonedges (u[i], v[i]); ValueError, naming the first offending edge, on a
    loop or an existing edge, and on endpoint arrays of different lengths."""
    cache = _as_cache(graph_or_cache)
    u, v = (_check_vertices(cache.graph.n, x) for x in e)
    if np.ndim(u) and np.ndim(v) and np.shape(u) != np.shape(v):
        raise ValueError(f"edge endpoint arrays of lengths {len(u)} and {len(v)}")
    loops = np.equal(u, v)
    if loops.any():
        raise ValueError(f"an edge needs distinct vertices, got {_first_edge(loops, u, v)}")
    edges = cache.laplacian[u, v] != 0
    if edges.any():
        raise ValueError(f"{_first_edge(edges, u, v)} is already an edge")
    return cache, u, v


def check_edge_monotonicity(graph_or_cache, e) -> tuple[float, object]:
    """Return (B(g), B(g+e)) for a nonedge e and check the drop is strict.

    e is one edge (u, v), or endpoint arrays (u, v) for which B(g+e) is the
    array over the edges (u[i], v[i]); a vertex u with an array v is the row
    from u. B(g) comes from the state's eigendecomposition, and the drop in
    closed form from P = L^+: with b = e_u - e_v, y = P b and c = 1 + b'y,
    adding e gives (L + b b')^+ = P - y y'/c (Meyer, SIAM J. Appl. Math. 24,
    1973), and since B = n tr(P^2) the drop is
    n (2 b'P^3 b / c - (b'P^2 b / c)^2), three entries of P, P^2, P^3 each.
    """
    cache, u, v = _nonedge(graph_or_cache, e)
    before = biharmonic_index_spectral(cache)
    c = 1.0 + _pair_form(cache.pinv, u, v)
    q = _pair_form(cache.pinv2, u, v) / c
    after = before - cache.graph.n * (2.0 * _pair_form(cache.pinv3, u, v) / c - q * q)
    failed = ~(after < before)
    if failed.any():
        raise ArithmeticError(
            f"adding edge {_first_edge(failed, u, v)} failed to decrease the index: "
            f"{before!r} -> {float(np.ravel(after)[np.argmax(failed)])!r}"
        )
    return before, _per_vertex(after)


def rebuilt_index(graph_or_cache, e: tuple[int, int]) -> float:
    """B(g+e) for a nonedge e = uv, rebuilt from a Cholesky factor: the
    independent check of the closed form in check_edge_monotonicity, which
    reads g's eigen-based pinv. g+e has the Laplacian L + bb', b = e_u - e_v,
    so S' = L + bb' + J/n has S'^-1 = (L + bb')^+ + J/n, and B(g+e) =
    n ||S'^-1 - J/n||_F^2. Subtracting 1/n before squaring keeps the small
    entries of a dense graph, where ||S'^-1||_F^2 - 1 would cancel.
    Endpoint arrays raise ValueError: this takes one edge."""
    cache, u, v = _nonedge(graph_or_cache, e)
    if not (isinstance(u, int) and isinstance(v, int)):
        raise ValueError(f"rebuilt_index takes one edge (u, v), got {e!r}")
    n = cache.graph.n
    b = np.eye(n)[u] - np.eye(n)[v]
    pinv = _spd_inverse(cholesky(cache.laplacian + np.outer(b, b) + 1.0 / n)) - 1.0 / n
    return n * float(np.sum(pinv * pinv))
