"""Four ways to compute the same biharmonic distance.

The distance between vertices u and v is sqrt(delta' (L^2)^+ delta) with
delta = e_u - e_v. That single number can be reached through four routes. Two
of them, det and minnorm, never touch the eigensolver; spectral and pinv read
the same eigenpairs:

  1. spectral   -- sum over nonzero Laplacian eigenpairs
  2. pinv       -- entries of the squared pseudoinverse
  3. det        -- ratio of a principal minor of L^2 to the tree count
  4. minnorm    -- norm of the minimum-norm solution of L f = delta

Agreement across all four is the library's workhorse self-check; this script
walks through it on a small wheel graph.
"""

import numpy as np

from biharmonic import (
    all_methods,
    bounds_report,
    build_cache,
    distance_matrix,
    wheel_graph,
)

g = wheel_graph(6)
print(f"wheel graph: n={g.n}, m={g.m}, hub vertex 0")

# The cache holds the eigendecomposition and both pseudoinverses so that
# repeated queries do not redo the O(n^3) work.
cache = build_cache(g)
lam = cache.eig.eigenvalues
print("Laplacian spectrum:", np.array2string(lam, precision=6))

print("\npair       spectral        pinv            det             minnorm         spread")
for u, v in [(0, 1), (1, 2), (1, 3), (2, 5)]:
    r = all_methods(cache, u, v)
    print(
        f"({u}, {v})    {r.spectral:.12f}  {r.pinv_entries:.12f}  "
        f"{r.determinant:.12f}  {r.min_norm:.12f}  {r.max_relative_spread:.2e}"
    )

# The whole matrix at once (pseudoinverse route, exactly symmetric).
dm = distance_matrix(cache)
print("\ndistance matrix is exactly symmetric:", bool(np.array_equal(dm, dm.T)))
triples = dm[:, :, None] + dm[None, :, :]
worst = float(np.max(dm - np.min(triples, axis=1)))
print(f"worst triangle-inequality defect over all triples: {worst:.2e}")

# Every distance is pinched between sqrt(2)/lambda_n and sqrt(2)/lambda_2,
# and attainment of either end is readable off the eigenvectors.
r = bounds_report(cache, 1, 4)
print(f"\nbounds for pair (1, 4): {r.lower:.9f} <= {r.value:.9f} <= {r.upper:.9f}")
print(f"lower attained: {r.lower_attained}, upper attained: {r.upper_attained}")
print(f"eigenvalue indices that must be orthogonal for the upper end: {r.sigma2}")
print(f"orthogonality verdicts agree with the value tests: {r.consistent}")
