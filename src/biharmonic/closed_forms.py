"""Closed-form biharmonic distances for special graph families.

Complete graphs, hypercubes, complements, Cartesian products, and Cayley
graphs of finite abelian groups all have explicitly known Laplacian spectra,
so their distances can be evaluated without running an eigensolver on the
assembled graph. Every formula here is validated against the spectral route
in the test suite; agreement is the ground truth for the normalization
choices documented on the individual functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CayleySpec, DisconnectedGraphError
from .linalg import EigenDecomposition
from .metrics import _check_vertex, has_spectral_gap


def complete_graph_distance(n: int) -> float:
    """Biharmonic distance between any two distinct vertices of the complete
    graph on n vertices: sqrt(2)/n."""
    n = int(n)
    if n < 2:
        raise ValueError(f"a complete graph needs n >= 2 for a vertex pair, got {n}")
    return float(np.sqrt(2.0) / n)


def _to_bits(d: int, x) -> tuple[int, ...]:
    if isinstance(x, str):
        if len(x) != d or any(ch not in "01" for ch in x):
            raise ValueError(f"expected a {d}-character bit string, got {x!r}")
        return tuple(int(ch) for ch in x)
    if isinstance(x, (int, np.integer)):
        if not 0 <= x < (1 << d):
            raise ValueError(f"vertex index {x} out of range for a {d}-cube")
        return tuple((int(x) >> i) & 1 for i in range(d))
    bits = tuple(int(b) for b in x)
    if len(bits) != d or any(b not in (0, 1) for b in bits):
        raise ValueError(f"expected {d} bits, got {x!r}")
    return bits


def hypercube_distance(d: int, u, v) -> float:
    """Distance on the d-cube between vertices given as bit strings (str,
    index, or bit sequence).

    The squared distance is a sum over nonempty coordinate subsets I of
    |I|^(-2) * (1 - (-1)^(number of positions of I where u and v differ)),
    divided by 2^(d+1). The division normalizes the underlying parity
    vectors to unit length; on the 1-cube the result is sqrt(2)/2, the K_2
    value.
    """
    d = int(d)
    if d < 1:
        raise ValueError(f"hypercube dimension must be positive, got {d}")
    ub = _to_bits(d, u)
    vb = _to_bits(d, v)
    differ = sum((ub[i] ^ vb[i]) << i for i in range(d))
    total = 0.0
    for mask in range(1, 1 << d):
        if (mask & differ).bit_count() & 1:
            size = mask.bit_count()
            total += 2.0 / (size * size)
    return float(np.sqrt(total / 2.0 ** (d + 1)))


def _kernel_aligned_vectors(eig: EigenDecomposition) -> np.ndarray:
    """Eigenvector columns with the zero-eigenspace basis rotated so that its
    first column is the constant unit vector.

    Any orthonormal basis of an eigenspace is equally valid to the
    eigensolver, but formulas that exclude the constant direction need it to
    be literally one of the basis columns; when the kernel has dimension
    greater than one there is no reason it would be. A single Householder
    reflection inside the kernel block fixes that without touching the rest.
    """
    z = eig.eigenvectors
    group = eig.eigenspace_groups[0]
    if len(group) == 1:
        return z
    n = z.shape[0]
    cols = np.array(group)
    block = z[:, cols]
    coeff = block.T @ np.full(n, 1.0 / np.sqrt(n))
    mirror = coeff.copy()
    mirror[0] -= 1.0
    weight = mirror @ mirror
    if weight > 1e-30:
        reflect = np.eye(len(group)) - 2.0 * np.outer(mirror, mirror) / weight
        block = block @ reflect
    z = z.copy()
    z[:, cols] = block
    return z


def complement_distance(eig: EigenDecomposition, u: int, v: int) -> float:
    """Distance on the complement of G, computed from G's eigendecomposition.

    The complement's Laplacian shares G's eigenvectors orthogonal to the
    constant vector, with eigenvalue lambda replaced by n - lambda, so the
    spectral sum can be re-weighted without constructing the complement.
    Requires the complement to be connected, i.e. the largest eigenvalue of
    G to stay below n.
    """
    n = eig.n
    u, v = _check_vertex(n, u), _check_vertex(n, v)
    gaps = n - eig.eigenvalues[1:]
    if not has_spectral_gap(np.concatenate(([0.0], np.sort(gaps)))):
        raise DisconnectedGraphError(
            "complement is disconnected (largest Laplacian eigenvalue reaches n)"
        )
    if u == v:
        return 0.0
    z = _kernel_aligned_vectors(eig)
    diff = (z[u, 1:] - z[v, 1:]) / gaps
    return float(np.sqrt(np.sum(diff * diff)))


def cartesian_distance(
    eig1: EigenDecomposition,
    eig2: EigenDecomposition,
    u_pair: tuple[int, int],
    v_pair: tuple[int, int],
) -> float:
    """Distance on the Cartesian product of two connected graphs, computed
    from the factor eigendecompositions.

    Product eigenpairs are (lambda_i + mu_j, z_i tensor y_j); the pair
    (i, j) = (1, 1) is the product kernel and is excluded from the sum.
    """
    w1 = eig1.eigenvalues.copy()
    w2 = eig2.eigenvalues.copy()
    n1, n2 = eig1.n, eig2.n
    if not (has_spectral_gap(w1) and has_spectral_gap(w2)):
        raise DisconnectedGraphError("Cartesian factor is disconnected")
    w1[0] = w2[0] = 0.0
    u1, u2 = _check_vertex(n1, u_pair[0]), _check_vertex(n2, u_pair[1])
    v1, v2 = _check_vertex(n1, v_pair[0]), _check_vertex(n2, v_pair[1])
    z1 = eig1.eigenvectors
    z2 = eig2.eigenvectors
    total = 0.0
    for i in range(n1):
        for j in range(n2):
            if i == 0 and j == 0:
                continue
            lam = w1[i] + w2[j]
            diff = z1[u1, i] * z2[u2, j] - z1[v1, i] * z2[v2, j]
            total += (diff * diff) / (lam * lam)
    return float(np.sqrt(total))


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


def character_table(spec: CayleySpec) -> CharacterTable:
    tables = []
    for m in spec.cyclic_orders:
        t = np.empty((m, m), dtype=complex)
        for j in range(m):
            for g in range(m):
                t[j, g] = _unit_root(j * g, m)
        tables.append(t)
    chars = tables[-1]
    for t in reversed(tables[:-1]):
        chars = np.kron(chars, t)
    s_idx = [spec.element_index(s) for s in spec.connection_set]
    alpha = chars[:, s_idx].sum(axis=1) if s_idx else np.zeros(spec.group_order, dtype=complex)
    return CharacterTable(
        group_order=spec.group_order,
        characters=chars,
        adjacency_eigenvalues=alpha.real.copy(),
    )


def _to_element(spec: CayleySpec, x) -> int:
    if isinstance(x, (int, np.integer)):
        if not 0 <= x < spec.group_order:
            raise ValueError(f"element index {x} out of range [0, {spec.group_order})")
        return int(x)
    return spec.element_index(tuple(int(c) for c in x))


def cayley_distance(spec: CayleySpec, u, v) -> float:
    """Distance on the Cayley graph of a finite abelian group, from characters.

    Nontrivial characters chi are the Laplacian eigenvectors, with eigenvalue
    |S| - alpha(chi); the squared distance is the sum over them of
    |chi(u) - chi(v)|^2 / (|S| - alpha(chi))^2, divided by the group order.
    The division accounts for characters having squared norm N rather than 1.

    Vertices may be given as residue tuples or as element indices.
    """
    table = character_table(spec)
    n = table.group_order
    degree = len(spec.connection_set)
    gaps = degree - table.adjacency_eigenvalues
    if not has_spectral_gap(np.sort(gaps)):
        raise DisconnectedGraphError(
            "connection set does not generate the group (zero spectral gap)"
        )
    ui = _to_element(spec, u)
    vi = _to_element(spec, v)
    if ui == vi:
        return 0.0
    chars = table.characters
    total = 0.0
    for j in range(1, n):
        diff = abs(chars[j, ui] - chars[j, vi]) ** 2
        total += diff / (gaps[j] * gaps[j])
    return float(np.sqrt(total / n))
