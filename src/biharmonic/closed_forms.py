"""Closed-form biharmonic distances for special graph families.

Complete graphs, hypercubes, complements, Cartesian products, and Cayley
graphs of finite abelian groups all have explicitly known Laplacian spectra,
so their distances can be evaluated without running an eigensolver on the
assembled graph. Each formula only states its eigenpairs (the eigenvector
entries at u and at v, and the nonzero eigenvalues) and reduces them through
metrics.spectral_sum, as the spectral route does, and takes v as one vertex
or an integer array of vertices as the routes do. Every formula is validated
against the spectral route in the test suite; agreement is the ground truth
for the normalization choices documented on the individual functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import CayleySpec, DisconnectedGraphError, _as_integer
from .linalg import EigenDecomposition
from .metrics import _check_vertices, _one_vertex, _per_vertex, has_spectral_gap, spectral_sum


def complete_graph_distance(n: int) -> float:
    """Biharmonic distance between any two distinct vertices of the complete
    graph on n vertices: sqrt(2)/n."""
    n = _as_integer(n, "complete graph order")
    if n < 2:
        raise ValueError(f"a complete graph needs n >= 2 for a vertex pair, got {n}")
    return float(np.sqrt(2.0) / n)


@functools.cache
def _cube(d: int) -> CayleySpec:
    """Z_2^d with the unit vectors as connection set: the d-cube."""
    return CayleySpec((2,) * d, tuple(tuple(int(i == j) for i in range(d)) for j in range(d)))


def hypercube_distance(d: int, u, v):
    """Distance on the d-cube between vertices given as an index, a bit
    sequence or a bit string (character i is coordinate i), or to a row v.

    The d-cube is the Cayley graph of Z_2^d on the unit vectors, so this is
    cayley_distance on that group: the parity characters (-1)^(I . x) of
    the nonempty coordinate subsets I, with eigenvalue 2|I|. On the 1-cube
    the result is sqrt(2)/2, the K_2 value. The character table of a
    dimension is built once and kept, 2^d x 2^d complex numbers.
    """
    d = _as_integer(d, "hypercube dimension")
    if d < 1:
        raise ValueError(f"hypercube dimension must be positive, got {d}")
    return cayley_distance(_cube(d), _bits(d, u), _bits(d, v))


def _bits(d: int, x):
    """x, with a bit string read as its vertex index (character i is bit i)."""
    if not isinstance(x, str):
        return x
    if len(x) != d or any(ch not in "01" for ch in x):
        raise ValueError(f"expected a {d}-character bit string, got {x!r}")
    return int(x[::-1], 2)


def complement_distance(eig: EigenDecomposition, u: int, v):
    """Distance on the complement of G, computed from G's eigendecomposition.

    On 1^perp, the vectors orthogonal to the constant vector, the
    complement's Laplacian is n I - L. Since e_u - e_v lies in 1^perp, the
    distance is ||(n I - L)^-1 (e_u - e_v)||: the spectral sum over all of
    G's eigenpairs with lambda replaced by n - lambda, without constructing
    the complement. The constant direction contributes nothing, so this holds
    in whatever basis the solver chose for a kernel of dimension above one.
    Requires the complement to be connected, i.e. the largest eigenvalue of G
    to stay below n.
    """
    n = eig.n
    u, v = _one_vertex(_check_vertices(n, u)), _check_vertices(n, v)
    gaps = n - eig.eigenvalues
    if not has_spectral_gap(np.concatenate(([0.0], np.sort(gaps[1:])))):
        raise DisconnectedGraphError(
            "complement is disconnected (largest Laplacian eigenvalue reaches n)"
        )
    z = eig.eigenvectors
    return _per_vertex(spectral_sum(z[u], z[v], gaps))


def cartesian_distance(
    eig1: EigenDecomposition,
    eig2: EigenDecomposition,
    u_pair: tuple[int, int],
    v_pair: tuple,
):
    """Distance on the Cartesian product of two connected graphs, computed
    from the factor eigendecompositions. Each coordinate of v_pair may be
    an integer array of factor vertices, for a row of distances.

    Product eigenpairs are (lambda_i + mu_j, z_i tensor y_j); the pair
    (i, j) = (1, 1), flat index 0 of the outer products, is the product
    kernel and is excluded from the sum.
    """
    w1 = eig1.eigenvalues.copy()
    w2 = eig2.eigenvalues.copy()
    if not (has_spectral_gap(w1) and has_spectral_gap(w2)):
        raise DisconnectedGraphError("Cartesian factor is disconnected")
    w1[0] = w2[0] = 0.0
    z1, z2 = eig1.eigenvectors, eig2.eigenvectors
    orders = (eig1.n, eig2.n)
    u1, u2 = (_one_vertex(_check_vertices(n, x)) for n, x in zip(orders, u_pair))
    v1, v2 = (_check_vertices(n, x) for n, x in zip(orders, v_pair))

    def at(x1, x2):  # the product eigenvectors at factor vertices x1, x2, one row per pair
        outer = z1[x1][..., :, None] * z2[x2][..., None, :]
        return outer.reshape(*outer.shape[:-2], -1)[..., 1:]

    return _per_vertex(spectral_sum(at(u1, u2), at(v1, v2), np.add.outer(w1, w2).ravel()[1:]))


def _unit_root(numerator: int, m: int) -> complex:
    """exp(2*pi*i*numerator/m), exact on quarter turns so that characters of
    2- and 4-element cyclic factors come out as exact ±1, ±i."""
    q = numerator % m
    quarters, rem = divmod(4 * q, m)
    if rem == 0:
        return (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[quarters % 4]
    return complex(np.exp(2.0j * np.pi * q / m))


@dataclass(frozen=True)
class CharacterTable:
    """All characters of a finite abelian group, one per row, indexed the
    same mixed-radix way as the group elements, plus the adjacency
    eigenvalues alpha(chi) = sum of chi over the connection set."""

    group_order: int
    characters: np.ndarray
    adjacency_eigenvalues: np.ndarray


@functools.cache
def character_table(spec: CayleySpec) -> CharacterTable:
    """The character table of spec's group, built once per spec and shared,
    so its arrays are read-only."""
    # The first coordinate is least significant: the last factor is outermost.
    factors = [
        np.array([[_unit_root(j * g, m) for g in range(m)] for j in range(m)])
        for m in reversed(spec.cyclic_orders)
    ]
    chars = functools.reduce(np.kron, factors)
    s_idx = [spec.element_index(s) for s in spec.connection_set]
    alpha = chars[:, s_idx].sum(axis=1).real.copy()
    chars.flags.writeable = alpha.flags.writeable = False
    return CharacterTable(spec.group_order, chars, alpha)


def _to_element(spec: CayleySpec, x):
    """x checked as element indices; a residue tuple or list is one element."""
    if isinstance(x, (tuple, list)):
        x = spec.element_index(x)
    return _check_vertices(spec.group_order, x)


@functools.cache
def _cayley_spectrum(spec: CayleySpec) -> tuple[np.ndarray, np.ndarray]:
    """The nontrivial characters, one contiguous row per element, and their
    Laplacian eigenvalues |S| - alpha(chi), kept per spec. Raises
    DisconnectedGraphError when the connection set S does not generate the group."""
    table = character_table(spec)
    gaps = len(spec.connection_set) - table.adjacency_eigenvalues
    if not has_spectral_gap(np.sort(gaps)):
        raise DisconnectedGraphError(
            "connection set does not generate the group (zero spectral gap)"
        )
    rows = np.ascontiguousarray(table.characters[1:].T)
    rows.flags.writeable = False
    return rows, gaps[1:]


def cayley_distance(spec: CayleySpec, u, v):
    """Distance on the Cayley graph of a finite abelian group, from characters.

    Nontrivial characters chi are the Laplacian eigenvectors, with eigenvalue
    |S| - alpha(chi); the distance is the spectral sum over them of
    |chi(u) - chi(v)|^2 / (|S| - alpha(chi))^2, divided by sqrt of the group
    order. The division accounts for characters having squared norm N
    rather than 1.

    Elements are residue tuples or indices; v may also be an integer array
    of indices, for the distances from u to each.
    """
    rows, gaps = _cayley_spectrum(spec)
    u, v = _one_vertex(_to_element(spec, u)), _to_element(spec, v)
    return _per_vertex(spectral_sum(rows[u], rows[v], gaps) / math.sqrt(spec.group_order))
