"""One integer contract for every public entry that takes a size, a vertex,
an edge endpoint, a residue or an index: graphs._as_integer. A bool is not an
integer there, whether a Python bool or a numpy one, and a numpy integer
comes back as a Python int."""

import numpy as np
import pytest

from biharmonic import (
    CayleySpec,
    Graph,
    all_methods,
    bounds_report,
    build_cache,
    cartesian_distance,
    cayley_distance,
    check_edge_monotonicity,
    complement_distance,
    complete_graph,
    complete_graph_distance,
    cycle_graph,
    hypercube_distance,
    hypercube_graph,
    make_graph,
    path_graph,
    principal_minor_det,
    resistance_distance,
    verify_graph,
    wheel_graph,
)
from biharmonic.metrics import ROUTES, rebuilt_index

STATE = build_cache(path_graph(5))
SPEC = CayleySpec((4,), ((1,), (3,)))

# Each entry takes a would-be integer x and passes it where an integer goes.
ENTRIES = {
    "Graph n": lambda x: Graph(x, []),
    "Graph endpoint": lambda x: Graph(3, [(0, x), (1, 2)]),
    "make_graph endpoint": lambda x: make_graph(3, [(x, 2)]),
    "has_edge": lambda x: path_graph(3).has_edge(0, x),
    "complete_graph": complete_graph,
    "path_graph": path_graph,
    "cycle_graph": cycle_graph,
    "wheel_graph": wheel_graph,
    "hypercube_graph": hypercube_graph,
    "complete_graph_distance": complete_graph_distance,
    "hypercube_distance d": lambda x: hypercube_distance(x, 0, 1),
    "hypercube_distance residue": lambda x: hypercube_distance(2, (x, 0), 0),
    "CayleySpec order": lambda x: CayleySpec((x,), ()),
    "CayleySpec residue": lambda x: CayleySpec((4,), ((x,), (3,))),
    "element_index": lambda x: SPEC.element_index((x,)),
    "cayley_distance u residue": lambda x: cayley_distance(SPEC, (x,), (2,)),
    "cayley_distance v residue": lambda x: cayley_distance(SPEC, (0,), (x,)),
    "cayley_distance v index": lambda x: cayley_distance(SPEC, 0, x),
    **{f"{name} u": (lambda route: lambda x: route(STATE, x, 3))(route) for name, route in ROUTES.items()},
    **{f"{name} v": (lambda route: lambda x: route(STATE, 3, x))(route) for name, route in ROUTES.items()},
    "all_methods v": lambda x: all_methods(STATE, 3, x),
    "resistance_distance v": lambda x: resistance_distance(STATE, 3, x),
    "bounds_report v": lambda x: bounds_report(STATE, 3, x),
    "check_edge_monotonicity": lambda x: check_edge_monotonicity(STATE, (x, 3)),
    "rebuilt_index": lambda x: rebuilt_index(STATE, (x, 3)),
    "SpectralCache.grounded": lambda x: STATE.grounded(x),
    "complement_distance": lambda x: complement_distance(STATE.eig, 3, x),
    "cartesian_distance": lambda x: cartesian_distance(STATE.eig, STATE.eig, (0, x), (2, 3)),
    "principal_minor_det": lambda x: principal_minor_det(2.0 * np.eye(3), [x]),
}


@pytest.mark.parametrize("flag", [True, np.True_], ids=["True", "np.True_"])
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_bool_is_not_an_integer(entry, flag):
    with pytest.raises(ValueError, match=r"must be an integer, got (np\.)?True"):
        entry(flag)


def test_numpy_integers_come_back_as_int():
    g = Graph(np.int64(3), [(0, 1), (1, 2)])
    assert type(g.n) is int
    assert all(type(x) is int for e in g.edges for x in e)
    assert type(complete_graph(np.int32(4)).n) is int
    # verify reads n.bit_length(), which a numpy integer does not have.
    assert all(r.passed for r in verify_graph(Graph(np.int64(4), [(0, 1), (1, 2), (2, 3), (0, 3)])))


def test_grounded_row_is_checked():
    # The determinant route's row of a vertex outside 0..n-1 used to factor
    # the whole singular L^2 and return a number.
    for u in (-1, 5):
        with pytest.raises(ValueError, match=f"vertex {u} out of range"):
            STATE.grounded(u)


def test_family_sizes_raise_value_error():
    for builder in (complete_graph, path_graph, cycle_graph, wheel_graph, hypercube_graph):
        with pytest.raises(ValueError, match="must be an integer, got 2.5"):
            builder(2.5)
