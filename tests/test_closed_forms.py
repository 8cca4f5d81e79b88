import itertools
import math
from functools import partial

import numpy as np
import pytest

from biharmonic import (
    CayleySpec,
    DisconnectedGraphError,
    biharmonic_spectral,
    build_cache,
    cartesian_distance,
    cartesian_product,
    cayley_distance,
    cayley_graph,
    character_table,
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
    wheel_graph,
)

SQRT2 = math.sqrt(2.0)
REFERENCE_RELATIVE = 1e-12
QUERIES_SPEC = CayleySpec((6, 8), ((1, 0), (5, 0), (0, 1), (0, 7), (2, 3), (4, 5)))


def hypercube_reference(d, u, v):
    """The subset loop hypercube_distance ran before it became a Cayley
    distance: the sum over nonempty coordinate subsets I of
    |I|^-2 (1 - (-1)^(positions of I where u and v differ)), over 2^(d+1)."""
    total = 0.0
    for mask in range(1, 1 << d):
        if (mask & (u ^ v)).bit_count() & 1:
            size = mask.bit_count()
            total += 2.0 / (size * size)
    return math.sqrt(total / 2.0 ** (d + 1))


def cayley_reference(spec, u, v):
    """The loop over characters cayley_distance ran before spectral_sum,
    u and v element indices."""
    table = character_table(spec)
    chars = table.characters
    gaps = len(spec.connection_set) - table.adjacency_eigenvalues
    total = 0.0
    for j in range(1, table.group_order):
        total += abs(chars[j, u] - chars[j, v]) ** 2 / (gaps[j] * gaps[j])
    return math.sqrt(total / table.group_order)


def cartesian_reference(eig1, eig2, u_pair, v_pair):
    """The n1 n2 double loop over product eigenpairs cartesian_distance ran
    before spectral_sum."""
    w1, w2 = eig1.eigenvalues.copy(), eig2.eigenvalues.copy()
    w1[0] = w2[0] = 0.0
    z1, z2 = eig1.eigenvectors, eig2.eigenvectors
    (u1, u2), (v1, v2) = u_pair, v_pair
    total = 0.0
    for i in range(eig1.n):
        for j in range(eig2.n):
            if i == 0 and j == 0:
                continue
            lam = w1[i] + w2[j]
            diff = z1[u1, i] * z2[u2, j] - z1[v1, i] * z2[v2, j]
            total += (diff * diff) / (lam * lam)
    return math.sqrt(total)


def complement_reference(eig, u, v):
    """The spectral sum complement_distance typed itself before spectral_sum,
    over the eigenpairs after the first, once the kernel basis is rotated so
    that its first column is the constant unit vector (the Householder
    reflection below, which complement_distance used to apply)."""
    z = eig.eigenvectors
    group = eig.eigenspace_groups[0]
    if len(group) > 1:
        cols = np.array(group)
        block = z[:, cols]
        mirror = block.T @ np.full(eig.n, 1.0 / np.sqrt(eig.n))
        mirror[0] -= 1.0
        weight = mirror @ mirror
        if weight > 1e-30:
            block = block @ (np.eye(len(group)) - 2.0 * np.outer(mirror, mirror) / weight)
        z = z.copy()
        z[:, cols] = block
    diff = (z[u, 1:] - z[v, 1:]) / (eig.n - eig.eigenvalues[1:])
    return math.sqrt(np.sum(diff * diff))


def assert_matches_reference(closed, reference, pairs):
    for u, v in pairs:
        expected = reference(u, v)
        assert abs(closed(u, v) - expected) <= REFERENCE_RELATIVE * expected, (u, v)


def assert_rows_equal_pairs(closed, n):
    """One row call from each u equals, exactly, its per-pair calls."""
    for u in range(n - 1):
        vs = np.arange(u + 1, n)
        row = closed(u, vs)
        assert np.array_equal(row, [closed(u, v) for v in vs.tolist()]), u


def z2_power_spec(d):
    basis = tuple(
        tuple(1 if i == j else 0 for i in range(d)) for j in range(d)
    )
    return CayleySpec(cyclic_orders=(2,) * d, connection_set=basis)


class TestCompleteGraph:
    def test_value(self):
        for n in (2, 3, 4, 10, 100):
            assert complete_graph_distance(n) == SQRT2 / n

    def test_matches_spectral(self):
        for n in (2, 3, 5, 9):
            cache = build_cache(complete_graph(n))
            closed = complete_graph_distance(n)
            for u, v in itertools.combinations(range(n), 2):
                assert abs(biharmonic_spectral(cache, u, v) - closed) <= 1e-12

    def test_too_small(self):
        with pytest.raises(ValueError):
            complete_graph_distance(1)


class TestHypercube:
    def test_one_cube(self):
        assert abs(hypercube_distance(1, 0, 1) - SQRT2 / 2.0) <= 1e-15

    def test_two_cube(self):
        assert abs(hypercube_distance(2, 0, 3) - SQRT2 / 2.0) <= 1e-15
        assert abs(hypercube_distance(2, 0, 1) - math.sqrt(5.0) / 4.0) <= 1e-15

    def test_matches_spectral(self):
        for d in (1, 2, 3, 4):
            cache = build_cache(hypercube_graph(d))
            for u, v in itertools.combinations(range(1 << d), 2):
                spectral = biharmonic_spectral(cache, u, v)
                assert abs(hypercube_distance(d, u, v) - spectral) <= 1e-9

    def test_vertex_encodings_agree(self):
        as_int = hypercube_distance(3, 1, 6)
        as_str = hypercube_distance(3, "100", "011")
        as_bits = hypercube_distance(3, (1, 0, 0), (0, 1, 1))
        assert as_int == as_str == as_bits

    def test_translation_invariance_exact(self):
        for w in range(8):
            for u, v in itertools.combinations(range(8), 2):
                assert hypercube_distance(3, u, v) == hypercube_distance(3, u ^ w, v ^ w)

    def test_same_vertex(self):
        assert hypercube_distance(4, 5, 5) == 0.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="dimension"):
            hypercube_distance(0, 0, 0)
        with pytest.raises(ValueError, match="dimension must be an integer"):
            hypercube_distance(2.5, 0, 1)
        with pytest.raises(ValueError, match="order must be an integer"):
            complete_graph_distance(4.9)
        assert hypercube_distance(np.int64(2), 0, 1) == hypercube_distance(2, 0, 1)
        assert complete_graph_distance(np.int64(4)) == complete_graph_distance(4)
        with pytest.raises(ValueError, match="bit string"):
            hypercube_distance(2, "012", "00")
        with pytest.raises(ValueError, match="out of range"):
            hypercube_distance(2, 4, 0)
        with pytest.raises(ValueError, match="arity"):
            hypercube_distance(3, (1, 0, 0, 1), 0)
        with pytest.raises(ValueError, match="arity"):
            hypercube_distance(3, 0, (1, 0))
        with pytest.raises(ValueError, match="out of range"):
            hypercube_distance(2, (0, 2), 0)


class TestComplement:
    def test_two_k2_gives_cycle(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        eig = eigendecompose(g.laplacian())
        cache = build_cache(complement(g))
        for u, v in itertools.combinations(range(4), 2):
            closed = complement_distance(eig, u, v)
            assert abs(closed - biharmonic_spectral(cache, u, v)) <= 1e-9

    def test_empty_graph_gives_complete(self):
        for n in (2, 3, 6):
            eig = eigendecompose(np.zeros((n, n)))
            for u in range(1, n):
                assert abs(complement_distance(eig, 0, u) - SQRT2 / n) <= 1e-12

    def test_path_complements(self):
        for n in (4, 5, 7):
            g = path_graph(n)
            eig = eigendecompose(g.laplacian())
            cache = build_cache(complement(g))
            for u, v in itertools.combinations(range(n), 2):
                closed = complement_distance(eig, u, v)
                assert abs(closed - biharmonic_spectral(cache, u, v)) <= 1e-9

    def test_random_graphs(self, random_suite):
        checked = 0
        for g in random_suite:
            eig = eigendecompose(g.laplacian())
            if eig.eigenvalues[-1] >= g.n - 1e-9:
                continue
            cache = build_cache(complement(g))
            rng = np.random.default_rng(g.n + g.m)
            for _ in range(3):
                u, v = rng.choice(g.n, size=2, replace=False)
                closed = complement_distance(eig, int(u), int(v))
                spectral = biharmonic_spectral(cache, int(u), int(v))
                assert abs(closed - spectral) <= 1e-9
            checked += 1
            if checked >= 25:
                break
        assert checked >= 10

    def test_same_vertex(self):
        eig = eigendecompose(path_graph(4).laplacian())
        assert complement_distance(eig, 2, 2) == 0.0

    def test_disconnected_complement_rejected(self):
        eig = eigendecompose(cycle_graph(4).laplacian())
        with pytest.raises(DisconnectedGraphError):
            complement_distance(eig, 0, 1)
        eig = eigendecompose(complete_graph(4).laplacian())
        with pytest.raises(DisconnectedGraphError):
            complement_distance(eig, 0, 1)


class TestCartesianProduct:
    def test_k2_square_is_two_cube(self):
        eig = eigendecompose(complete_graph(2).laplacian())
        assert abs(cartesian_distance(eig, eig, (0, 0), (1, 1)) - SQRT2 / 2.0) <= 1e-9
        assert (
            abs(cartesian_distance(eig, eig, (0, 0), (0, 1)) - math.sqrt(5.0) / 4.0)
            <= 1e-9
        )

    def test_grid_matches_spectral(self):
        g1, g2 = path_graph(2), path_graph(3)
        eig1 = eigendecompose(g1.laplacian())
        eig2 = eigendecompose(g2.laplacian())
        cache = build_cache(cartesian_product(g1, g2))
        for u1, u2, v1, v2 in itertools.product(range(2), range(3), range(2), range(3)):
            closed = cartesian_distance(eig1, eig2, (u1, u2), (v1, v2))
            spectral = biharmonic_spectral(cache, u1 * 3 + u2, v1 * 3 + v2)
            assert abs(closed - spectral) <= 1e-9

    def test_cycle_times_complete(self):
        g1, g2 = cycle_graph(5), complete_graph(3)
        eig1 = eigendecompose(g1.laplacian())
        eig2 = eigendecompose(g2.laplacian())
        cache = build_cache(cartesian_product(g1, g2))
        for u1, u2, v1, v2 in ((0, 0, 2, 1), (1, 2, 4, 0), (3, 1, 3, 2)):
            closed = cartesian_distance(eig1, eig2, (u1, u2), (v1, v2))
            spectral = biharmonic_spectral(cache, u1 * 3 + u2, v1 * 3 + v2)
            assert abs(closed - spectral) <= 1e-9

    def test_disconnected_factor_rejected(self):
        good = eigendecompose(path_graph(3).laplacian())
        bad = eigendecompose(make_graph(4, [(0, 1), (2, 3)]).laplacian())
        with pytest.raises(DisconnectedGraphError):
            cartesian_distance(good, bad, (0, 0), (1, 1))

    def test_bad_vertex_rejected(self):
        eig = eigendecompose(path_graph(3).laplacian())
        with pytest.raises(ValueError, match="out of range"):
            cartesian_distance(eig, eig, (0, 0), (3, 1))


class TestCharacterTable:
    def test_unit_modulus_and_orthogonality(self):
        for orders in ((4,), (2, 2), (3,), (2, 4), (2, 3, 2)):
            first = tuple(1 if i == 0 else 0 for i in range(len(orders)))
            members = {first, tuple((-x) % m for x, m in zip(first, orders))}
            spec = CayleySpec(cyclic_orders=orders, connection_set=tuple(sorted(members)))
            table = character_table(spec)
            n = table.group_order
            chars = table.characters
            assert np.max(np.abs(np.abs(chars) - 1.0)) <= 1e-12
            gram = chars @ chars.conj().T
            assert np.max(np.abs(gram - n * np.eye(n))) <= 1e-9

    def test_quarter_turns_exact(self):
        spec = CayleySpec(cyclic_orders=(4,), connection_set=((1,), (3,)))
        table = character_table(spec)
        assert table.characters[1, 1] == 1j
        assert table.characters[2, 1] == -1.0
        assert table.characters[1, 3] == -1j

    def test_cycle_adjacency_eigenvalues(self):
        spec = CayleySpec(cyclic_orders=(4,), connection_set=((1,), (3,)))
        table = character_table(spec)
        assert np.allclose(table.adjacency_eigenvalues, [2.0, 0.0, -2.0, 0.0], atol=1e-12)

    def test_built_once_per_spec_and_read_only(self):
        table = character_table(QUERIES_SPEC)
        assert character_table(QUERIES_SPEC) is table
        assert character_table(CayleySpec((6, 8), QUERIES_SPEC.connection_set)) is table
        with pytest.raises(ValueError, match="read-only"):
            table.characters[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            table.adjacency_eigenvalues[0] = 0.0

    def test_trivial_character_row(self):
        spec = z2_power_spec(3)
        table = character_table(spec)
        assert np.array_equal(table.characters[0], np.ones(8, dtype=complex))
        assert table.adjacency_eigenvalues[0] == 3.0


class TestCayleyDistance:
    def test_cycles_match_spectral(self):
        for m in range(3, 9):
            spec = CayleySpec(cyclic_orders=(m,), connection_set=((1,), (m - 1,)))
            cache = build_cache(cycle_graph(m))
            for v in range(1, m):
                closed = cayley_distance(spec, 0, v)
                assert abs(closed - biharmonic_spectral(cache, 0, v)) <= 1e-9

    def test_binary_groups_equal_hypercube_exactly(self):
        for d in (1, 2, 3, 4):
            spec = z2_power_spec(d)
            for u, v in itertools.combinations(range(1 << d), 2):
                assert cayley_distance(spec, u, v) == hypercube_distance(d, u, v)

    def test_full_connection_set_is_complete(self):
        spec = CayleySpec(
            cyclic_orders=(5,), connection_set=((1,), (2,), (3,), (4,))
        )
        for v in range(1, 5):
            assert abs(cayley_distance(spec, 0, v) - complete_graph_distance(5)) <= 1e-12

    def test_mixed_group_matches_spectral(self):
        spec = CayleySpec(
            cyclic_orders=(2, 4),
            connection_set=((1, 0), (0, 1), (0, 3)),
        )
        cache = build_cache(cayley_graph(spec))
        for u, v in itertools.combinations(range(8), 2):
            closed = cayley_distance(spec, u, v)
            assert abs(closed - biharmonic_spectral(cache, u, v)) <= 1e-9

    def test_translation_invariance(self):
        spec = CayleySpec(
            cyclic_orders=(3, 3),
            connection_set=((1, 0), (2, 0), (0, 1), (0, 2)),
        )
        base = cayley_distance(spec, (0, 0), (1, 2))
        for w in itertools.product(range(3), range(3)):
            u = tuple((a + b) % 3 for a, b in zip((0, 0), w))
            v = tuple((a + b) % 3 for a, b in zip((1, 2), w))
            assert abs(cayley_distance(spec, u, v) - base) <= 1e-12

    def test_element_tuples_and_indices_agree(self):
        spec = CayleySpec(
            cyclic_orders=(2, 4),
            connection_set=((1, 0), (0, 1), (0, 3)),
        )
        assert cayley_distance(spec, (1, 2), (0, 3)) == cayley_distance(
            spec, spec.element_index((1, 2)), spec.element_index((0, 3))
        )

    def test_same_vertex(self):
        spec = z2_power_spec(2)
        assert cayley_distance(spec, 3, 3) == 0.0

    def test_bad_elements(self):
        spec = CayleySpec(cyclic_orders=(2, 4), connection_set=((1, 0), (0, 1), (0, 3)))
        with pytest.raises(ValueError, match="arity"):
            cayley_distance(spec, (0, 0), (1, 3, 99))
        with pytest.raises(ValueError, match="arity"):
            cayley_distance(spec, (1,), (0, 0))
        with pytest.raises(ValueError, match="out of range"):
            cayley_distance(spec, (0, 0), (1, 4))
        with pytest.raises(ValueError, match="out of range"):
            cayley_distance(spec, 0, 8)
        with pytest.raises(ValueError, match="integers"):
            cayley_distance(spec, 0, 2.5)
        with pytest.raises(ValueError, match="integers"):
            cayley_distance(spec, 0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="out of range"):
            cayley_distance(spec, (0, 0.5), 1)
        with pytest.raises(ValueError, match="residue 1.7"):
            CayleySpec((4,), ((1.7,), (3,)))
        with pytest.raises(ValueError, match="cyclic order must be an integer"):
            CayleySpec((4.5,), ((1,), (3,)))
        assert CayleySpec((np.int64(4),), ((np.int64(1),), (3,))) == CayleySpec((4,), ((1,), (3,)))

    def test_nongenerating_rejected(self):
        spec = CayleySpec(cyclic_orders=(6,), connection_set=((2,), (4,)))
        with pytest.raises(DisconnectedGraphError, match="generate"):
            cayley_distance(spec, 0, 1)


class TestLoopReferences:
    """Each closed form states its eigenpairs and reduces them through
    spectral_sum; the per-family loops it replaced are kept above as
    references."""

    @pytest.mark.parametrize("d", range(1, 8))
    def test_hypercube(self, d):
        assert_matches_reference(
            partial(hypercube_distance, d),
            partial(hypercube_reference, d),
            itertools.combinations(range(1 << d), 2),
        )
        assert_rows_equal_pairs(partial(hypercube_distance, d), 1 << d)

    def test_cayley_on_z6_z8(self):
        assert_matches_reference(
            partial(cayley_distance, QUERIES_SPEC),
            partial(cayley_reference, QUERIES_SPEC),
            itertools.combinations(range(48), 2),
        )
        assert_rows_equal_pairs(partial(cayley_distance, QUERIES_SPEC), 48)

    def test_cartesian_cycle_times_wheel(self):
        eigs = (eigendecompose(cycle_graph(6).laplacian()), eigendecompose(wheel_graph(8).laplacian()))
        assert_matches_reference(
            partial(cartesian_distance, *eigs),
            partial(cartesian_reference, *eigs),
            itertools.combinations(itertools.product(range(6), range(8)), 2),
        )
        v1, v2 = np.divmod(np.arange(48), 8)
        for u in itertools.product(range(6), range(8)):
            row = cartesian_distance(*eigs, u, (v1, v2))
            pairs = [cartesian_distance(*eigs, u, v) for v in zip(v1.tolist(), v2.tolist())]
            assert np.array_equal(row, pairs), u

    def test_complement_of_path(self):
        eig = eigendecompose(path_graph(30).laplacian())
        assert_matches_reference(
            partial(complement_distance, eig),
            partial(complement_reference, eig),
            itertools.combinations(range(30), 2),
        )
        assert_rows_equal_pairs(partial(complement_distance, eig), 30)


def test_u_must_be_one_vertex():
    eig = eigendecompose(path_graph(4).laplacian())
    closed = (
        partial(cayley_distance, CayleySpec((2, 4), ((1, 0), (0, 1), (0, 3)))),
        partial(hypercube_distance, 3),
        partial(complement_distance, eig),
        lambda u, v: cartesian_distance(eig, eig, (u, 0), (v, 1)),
        lambda u, v: cartesian_distance(eig, eig, (0, u), (1, v)),
    )
    for distance in closed:
        with pytest.raises(ValueError, match="one vertex"):
            distance(np.array([0, 1]), 3)


class TestFourFamilyAgreement:
    def test_complete_graph_four_ways(self):
        n = 5
        spectral_cache = build_cache(complete_graph(n))
        empty_eig = eigendecompose(np.zeros((n, n)))
        full_spec = CayleySpec(
            cyclic_orders=(n,),
            connection_set=tuple((k,) for k in range(1, n)),
        )
        closed = complete_graph_distance(n)
        for u, v in itertools.combinations(range(n), 2):
            values = (
                biharmonic_spectral(spectral_cache, u, v),
                complement_distance(empty_eig, u, v),
                cayley_distance(full_spec, u, v),
                closed,
            )
            assert max(values) - min(values) <= 1e-12
