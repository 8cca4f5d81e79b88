import itertools

import numpy as np
import pytest

from biharmonic import (
    CayleySpec,
    EdgeListFormatError,
    Graph,
    cartesian_product,
    cayley_graph,
    complement,
    complete_graph,
    cycle_graph,
    format_edge_list,
    generate,
    hypercube_graph,
    is_connected,
    k4_minus,
    make_graph,
    parse_edge_list,
    path_graph,
    wheel_graph,
)

from conftest import random_connected_graph


class TestParseEdgeList:
    def test_single_edge(self):
        g = parse_edge_list("2 1\n0 1\n")
        assert g.n == 2
        assert g.edges == frozenset({(0, 1)})

    def test_path(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g.edges == path_graph(3).edges

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a path\n\n3 2\n0 1\n# middle\n1 2\n\n")
        assert g.edges == path_graph(3).edges

    def test_accepts_bytes(self):
        assert parse_edge_list(b"2 1\n0 1\n").n == 2

    def test_reversed_edge_normalized(self):
        g = parse_edge_list("3 1\n2 0\n")
        assert g.edges == frozenset({(0, 2)})

    def test_vertex_out_of_range(self):
        with pytest.raises(EdgeListFormatError, match="out of range"):
            parse_edge_list("3 2\n0 1\n1 3\n")

    def test_malformed_line(self):
        with pytest.raises(EdgeListFormatError, match="expected 'u v'"):
            parse_edge_list("2 1\n0 1 2\n")

    def test_non_integer(self):
        with pytest.raises(EdgeListFormatError, match="integers"):
            parse_edge_list("2 1\n0 x\n")

    def test_duplicate_edge(self):
        with pytest.raises(EdgeListFormatError, match="duplicate"):
            parse_edge_list("3 3\n0 1\n1 2\n1 0\n")

    def test_self_loop(self):
        with pytest.raises(EdgeListFormatError, match="self-loop"):
            parse_edge_list("2 1\n1 1\n")

    def test_count_mismatch(self):
        with pytest.raises(EdgeListFormatError, match="mismatch"):
            parse_edge_list("3 2\n0 1\n")

    def test_missing_header(self):
        with pytest.raises(EdgeListFormatError, match="header"):
            parse_edge_list("# nothing\n")

    def test_bad_header(self):
        with pytest.raises(EdgeListFormatError, match="header"):
            parse_edge_list("3\n")
        with pytest.raises(EdgeListFormatError, match="header must be two integers"):
            parse_edge_list("3 x\n")
        with pytest.raises(EdgeListFormatError, match="line 1: vertex count must be positive"):
            parse_edge_list("0 0\n")
        with pytest.raises(EdgeListFormatError, match="edge count must be nonnegative"):
            parse_edge_list("3 -1\n")


class TestRoundTrip:
    def test_format_sorted(self):
        g = make_graph(4, [(3, 2), (1, 0), (0, 3)])
        assert format_edge_list(g) == "4 3\n0 1\n0 3\n2 3\n"

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_connected_graph(rng)
            assert parse_edge_list(format_edge_list(g)) == g


class TestGenerators:
    def test_complete(self):
        g = generate("complete", 4)
        assert g.n == 4 and g.m == 6

    def test_hypercube_2_is_cycle(self):
        g = generate("hypercube", 2)
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})

    def test_k4minus_degrees(self):
        g = generate("k4minus")
        assert tuple(g.degrees()) == (3, 2, 3, 2)
        assert not g.has_edge(1, 3)

    def test_wheel_shape(self):
        g = wheel_graph(5)
        deg = g.degrees()
        assert deg[0] == 4
        assert all(deg[i] == 3 for i in range(1, 5))

    def test_cycle_path(self):
        assert cycle_graph(5).m == 5
        assert path_graph(5).m == 4

    def test_handshake(self):
        for g in (complete_graph(6), path_graph(5), cycle_graph(7), wheel_graph(6), hypercube_graph(3), k4_minus()):
            assert int(g.degrees().sum()) == 2 * g.m

    def test_param_validation(self):
        with pytest.raises(ValueError):
            generate("cycle", 2)
        with pytest.raises(ValueError):
            generate("wheel", 3)
        with pytest.raises(ValueError):
            generate("hypercube", 0)
        with pytest.raises(ValueError, match="unknown family"):
            generate("torus", 3)
        with pytest.raises(ValueError, match="parameter"):
            generate("complete")
        with pytest.raises(ValueError, match="parameter"):
            generate("k4minus", 4)

    def test_graph_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            make_graph(3, [(1, 1)])
        with pytest.raises(ValueError, match="out of range"):
            Graph(n=2, edges=frozenset({(0, 2)}))
        with pytest.raises(ValueError, match="positive"):
            Graph(n=0, edges=frozenset())
        # Non-integer endpoints and sizes raise instead of being truncated.
        for bad in (1.7, "1"):
            with pytest.raises(ValueError, match="edge endpoint must be an integer"):
                make_graph(3, [(0, bad), (1, 2)])
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            Graph(n=2.5, edges=frozenset())
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            make_graph(2.5, [(0, 1)])
        # The constructor checks endpoints itself, whatever iterable it gets.
        for bad in (
            lambda: Graph(n=3, edges=frozenset({(0, 1.5), (1, 2)})),
            lambda: Graph(3, [(0, "1")]),
            lambda: make_graph(3, [(0, 1.7)]),
        ):
            with pytest.raises(ValueError, match="edge endpoint must be an integer"):
                bad()

    def test_graph_takes_any_pairs(self):
        g = Graph(3, iter([(2, 0), (np.int64(1), np.int64(2))]))
        assert g.edges == frozenset({(0, 2), (1, 2)})
        assert all(type(x) is int for e in g.edges for x in e)
        assert g == make_graph(3, [(0, 2), (2, 1)])

    def test_laplacian_matches_edge_loop(self):
        rng = np.random.default_rng(11)
        graphs = [Graph(n=1, edges=frozenset()), make_graph(4, [(0, 1), (2, 3)])]
        graphs += [random_connected_graph(rng) for _ in range(10)]
        for g in graphs:
            reference = np.zeros((g.n, g.n))
            for u, v in g.edges:
                reference[u, v] = reference[v, u] = -1.0
                reference[u, u] += 1.0
                reference[v, v] += 1.0
            lap = g.laplacian()
            assert lap.dtype == float and np.array_equal(lap, reference)
            assert not np.signbit(np.diag(lap)).any()
            assert np.array_equal(g.degrees(), np.diag(reference).astype(int))


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(complete_graph(4)).m == 0

    def test_two_edges_to_cycle(self):
        g = complement(make_graph(4, [(0, 1), (2, 3)]))
        assert g.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})

    def test_p4_self_complementary(self):
        p4 = path_graph(4)
        c = complement(p4)
        assert sorted(c.degrees()) == sorted(p4.degrees())
        ev_p = np.linalg.eigvalsh(p4.laplacian())
        ev_c = np.linalg.eigvalsh(c.laplacian())
        assert np.allclose(ev_p, ev_c, atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_connected_graph(rng)
            assert complement(complement(g)) == g


class TestCartesianProduct:
    def test_square(self):
        k2 = complete_graph(2)
        assert cartesian_product(k2, k2).edges == hypercube_graph(2).edges

    def test_iterated_cube(self):
        k2 = complete_graph(2)
        q3 = cartesian_product(cartesian_product(k2, k2), k2)
        assert q3.edges == hypercube_graph(3).edges

    def test_grid_counts(self):
        g = cartesian_product(path_graph(2), path_graph(3))
        assert g.n == 6 and g.m == 7

    def test_counts_random(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            g1 = random_connected_graph(rng, n=int(rng.integers(2, 6)))
            g2 = random_connected_graph(rng, n=int(rng.integers(2, 6)))
            p = cartesian_product(g1, g2)
            assert p.n == g1.n * g2.n
            assert p.m == g1.n * g2.m + g2.n * g1.m


class TestCayley:
    def test_cycle(self):
        spec = CayleySpec((4,), ((1,), (3,)))
        assert cayley_graph(spec).edges == cycle_graph(4).edges

    def test_cube(self):
        spec = CayleySpec((2, 2, 2), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert cayley_graph(spec).edges == hypercube_graph(3).edges

    def test_complete(self):
        spec = CayleySpec((5,), tuple((r,) for r in range(1, 5)))
        assert cayley_graph(spec).edges == complete_graph(5).edges

    def test_regularity(self):
        spec = CayleySpec((2, 4), ((1, 0), (0, 1), (0, 3), (1, 2)))
        g = cayley_graph(spec)
        assert all(d == 4 for d in g.degrees())

    def test_element_index_roundtrip(self):
        spec = CayleySpec((2, 3, 4), ((1, 0, 0),))
        for idx in range(spec.group_order):
            assert spec.element_index(spec.element(idx)) == idx
        assert spec.element_index((1, 0, 0)) == 1
        assert spec.element_index((0, 1, 0)) == 2
        assert spec.element_index((0, 0, 1)) == 6

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="identity"):
            CayleySpec((4,), ((0,),))
        with pytest.raises(ValueError, match="inverses"):
            CayleySpec((4,), ((1,),))
        with pytest.raises(ValueError, match="out of range"):
            CayleySpec((4,), ((5,), (3,)))
        with pytest.raises(ValueError, match="duplicate"):
            CayleySpec((2,), ((1,), (1,)))
        with pytest.raises(ValueError, match="arity"):
            CayleySpec((2, 2), ((1,),))
        with pytest.raises(ValueError, match="cyclic orders must be positive"):
            CayleySpec((3, 0), ((1, 0), (2, 0)))


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path_graph(3))

    def test_two_components(self):
        assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(Graph(n=1, edges=frozenset()))

    def test_agrees_with_zero_multiplicity(self):
        rng = np.random.default_rng(17)
        graphs = [random_connected_graph(rng) for _ in range(10)]
        graphs.append(make_graph(4, [(0, 1), (2, 3)]))
        graphs.append(make_graph(5, [(0, 1), (1, 2), (3, 4)]))
        for g in graphs:
            ev = np.linalg.eigvalsh(g.laplacian())
            multiplicity = int(np.sum(np.abs(ev) <= 1e-8 * max(1.0, ev[-1])))
            assert is_connected(g) == (multiplicity == 1)

    def test_nonedges(self):
        assert k4_minus().nonedges() == [(1, 3)]
        assert complete_graph(4).nonedges() == []
        assert path_graph(3).nonedges() == [(0, 2)]
