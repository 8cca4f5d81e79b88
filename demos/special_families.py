"""Closed-form distances for structured graph families.

Complete graphs, hypercubes, complements, Cartesian products, and Cayley
graphs of finite abelian groups all have Laplacian spectra known in closed
form, so their biharmonic distances come out of a formula instead of an
eigensolver. Each formula is checked here against the spectral route on the
assembled graph.
"""

import itertools

from biharmonic import (
    CayleySpec,
    biharmonic_spectral,
    build_cache,
    cartesian_distance,
    cartesian_product,
    cayley_distance,
    cayley_graph,
    complement,
    complement_distance,
    complete_graph,
    complete_graph_distance,
    cycle_graph,
    eigendecompose,
    hypercube_distance,
    hypercube_graph,
    make_graph,
    path_graph,
)

# --- complete graphs: every pair sits at sqrt(2)/n ------------------------
print("complete graphs, d = sqrt(2)/n:")
for n in (2, 4, 8):
    closed = complete_graph_distance(n)
    spectral = biharmonic_spectral(complete_graph(n), 0, 1)
    print(f"  K_{n}: closed {closed:.12f}  spectral {spectral:.12f}")

# --- hypercubes ------------------------------------------------------------
print("\n3-cube, closed form vs spectral:")
cache = build_cache(hypercube_graph(3))
for u, v in [(0, 1), (0, 3), (0, 7)]:
    closed = hypercube_distance(3, u, v)
    spectral = biharmonic_spectral(cache, u, v)
    print(f"  {u:03b} -> {v:03b}: closed {closed:.12f}  spectral {spectral:.12f}")

# --- complements -----------------------------------------------------------
# The complement's spectrum is n - lambda on the same eigenvectors, so G's
# eigendecomposition is enough -- even when G itself is disconnected.
g = path_graph(6)
eig = eigendecompose(g.laplacian())
cg = build_cache(complement(g))
worst = max(
    abs(complement_distance(eig, u, v) - biharmonic_spectral(cg, u, v))
    for u, v in itertools.combinations(range(6), 2)
)
print(f"\ncomplement of P_6, worst deviation from spectral: {worst:.2e}")

matching = make_graph(4, [(0, 1), (2, 3)])
two_k2 = eigendecompose(matching.laplacian())
print(
    "complement of a disconnected 2xK_2 (which is C_4): d(0, 2) =",
    f"{complement_distance(two_k2, 0, 2):.12f}",
)

# --- Cartesian products ----------------------------------------------------
g1, g2 = cycle_graph(5), path_graph(3)
eig1, eig2 = eigendecompose(g1.laplacian()), eigendecompose(g2.laplacian())
pc = build_cache(cartesian_product(g1, g2))
closed = cartesian_distance(eig1, eig2, (0, 0), (2, 2))
spectral = biharmonic_spectral(pc, 0 * 3 + 0, 2 * 3 + 2)
print(f"\nC_5 x P_3 pair ((0,0),(2,2)): closed {closed:.12f}  spectral {spectral:.12f}")

# --- Cayley graphs of abelian groups ---------------------------------------
# Characters are the eigenvectors; connection-set sums give the eigenvalues.
spec = CayleySpec(cyclic_orders=(2, 4), connection_set=((1, 0), (0, 1), (0, 3)))
cc = build_cache(cayley_graph(spec))
print("\nCayley graph on Z_2 x Z_4 with S = {(1,0), (0,1), (0,3)}:")
for u, v in [((0, 0), (1, 0)), ((0, 0), (0, 2)), ((0, 0), (1, 3))]:
    closed = cayley_distance(spec, u, v)
    spectral = biharmonic_spectral(cc, spec.element_index(u), spec.element_index(v))
    print(f"  {u} -> {v}: closed {closed:.12f}  spectral {spectral:.12f}")

# On (Z_2)^d the character formula reproduces the hypercube formula exactly,
# not just to rounding: same terms, same order, scaled by a power of two.
d = 3
cube_spec = CayleySpec(
    cyclic_orders=(2,) * d,
    connection_set=tuple(tuple(1 if i == j else 0 for i in range(d)) for j in range(d)),
)
identical = all(
    cayley_distance(cube_spec, u, v) == hypercube_distance(d, u, v)
    for u, v in itertools.combinations(range(1 << d), 2)
)
print(f"\n(Z_2)^{d} character route == {d}-cube subset route, bit for bit: {identical}")
