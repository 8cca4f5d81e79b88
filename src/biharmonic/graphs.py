"""Simple undirected graphs: families, operations, and edge-list I/O.

Vertices are the contiguous integers 0..n-1. Edges are unordered pairs
stored as (u, v) tuples with u < v, so adjacency is symmetric by
construction and there is exactly one representation per edge.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np


class EdgeListFormatError(ValueError):
    """Raised when an edge-list document violates the expected format."""


class DisconnectedGraphError(ValueError):
    """Raised when an operation requires a connected graph."""


def _as_integer(x, what: str, n: int | None = None) -> int:
    """x as a Python int, in [0, n) when n is given: the one check of every
    size, vertex, endpoint, residue and index. ValueError for a bool, a
    float, a string or anything else that operator.index refuses."""
    if x.__class__ is not int:  # an int needs no conversion, on every edge endpoint
        try:
            if x.__class__ is bool:
                raise TypeError
            x = operator.index(x)
        except TypeError:
            raise ValueError(f"{what} must be an integer, got {x!r}") from None
    if n is not None and not 0 <= x < n:
        raise ValueError(f"{what} {x} out of range [0, {n})")
    return x


def _parse_int(text: str, what: str) -> int:
    """The integer text spells as an optional sign and ASCII digits, else
    ValueError; int() alone also reads "1_0" as 10 and a fullwidth "3" as 3."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} must be an integer, got {text!r}")
    return int(text)


def _edge(n: int, u, v) -> tuple[int, int]:
    """The pair as integers (u, v), u < v, of a simple graph on 0..n-1."""
    u, v = _as_integer(u, "edge endpoint"), _as_integer(v, "edge endpoint")
    if u > v:
        u, v = v, u
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    return u, v


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1, from any iterable
    of integer vertex pairs, which the constructor checks and orders."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = _as_integer(self.n, "vertex count")
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(_edge(n, u, v) for u, v in self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = _as_integer(u, "vertex", self.n), _as_integer(v, "vertex", self.n)
        return u != v and (min(u, v), max(u, v)) in self.edges

    def _endpoints(self) -> np.ndarray:
        """The edges as a (2, m) integer array: row 0 the smaller endpoints."""
        ends = np.fromiter(itertools.chain.from_iterable(self.edges), np.int64, 2 * self.m)
        return ends.reshape(-1, 2).T

    def degrees(self) -> np.ndarray:
        return np.bincount(self._endpoints().ravel(), minlength=self.n)

    def laplacian(self) -> np.ndarray:
        """Degree matrix minus adjacency matrix, as a dense float array."""
        ends = self._endpoints()
        lap = np.zeros((self.n, self.n))
        lap[ends, ends[::-1]] = -1.0
        np.fill_diagonal(lap, self.degrees())
        return lap

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def nonedges(self) -> list[tuple[int, int]]:
        """All vertex pairs (u, v), u < v, that are not edges, sorted."""
        return [
            (u, v)
            for u, v in itertools.combinations(range(self.n), 2)
            if (u, v) not in self.edges
        ]


def make_graph(n: int, edges) -> Graph:
    """Build a Graph from any iterable of vertex pairs (see Graph)."""
    return Graph(n=n, edges=edges)


def complete_graph(n: int) -> Graph:
    n = _as_integer(n, "vertex count")
    return make_graph(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    n = _as_integer(n, "vertex count")
    return make_graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    n = _as_integer(n, "vertex count")
    if n < 3:
        raise ValueError(f"cycle graph needs n >= 3, got {n}")
    return make_graph(n, ((i, (i + 1) % n) for i in range(n)))


def wheel_graph(n: int) -> Graph:
    """Wheel on n vertices: hub 0 joined to the rim cycle 1..n-1."""
    n = _as_integer(n, "vertex count")
    if n < 4:
        raise ValueError(f"wheel graph needs n >= 4, got {n}")
    rim = n - 1
    spokes = ((0, i) for i in range(1, n))
    rim_edges = ((1 + i, 1 + (i + 1) % rim) for i in range(rim))
    return make_graph(n, itertools.chain(spokes, rim_edges))


def hypercube_graph(d: int) -> Graph:
    """d-cube on 2**d vertices; bit i of the vertex index is coordinate i."""
    d = _as_integer(d, "hypercube dimension")
    if d < 1:
        raise ValueError(f"hypercube needs dimension >= 1, got {d}")
    n = 1 << d
    edges = ((x, x ^ (1 << i)) for x in range(n) for i in range(d) if x < x ^ (1 << i))
    return make_graph(n, edges)


def k4_minus() -> Graph:
    """K4 with the edge {1, 3} removed; degrees (3, 2, 3, 2)."""
    return make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])


_FAMILIES = {
    "complete": (1, complete_graph),
    "path": (1, path_graph),
    "cycle": (1, cycle_graph),
    "wheel": (1, wheel_graph),
    "hypercube": (1, hypercube_graph),
    "k4minus": (0, k4_minus),
}


def generate(family: str, *params: int) -> Graph:
    """Build a named graph family: complete, path, cycle, wheel, hypercube, k4minus."""
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family {family!r} (known: {known})")
    arity, builder = _FAMILIES[family]
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


def complement(g: Graph) -> Graph:
    return make_graph(g.n, g.nonedges())


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product; vertex (a, b) of the product gets index a*g2.n + b."""
    n2 = g2.n
    edges = []
    for a in range(g1.n):
        for u, v in g2.edges:
            edges.append((a * n2 + u, a * n2 + v))
    for b in range(n2):
        for u, v in g1.edges:
            edges.append((u * n2 + b, v * n2 + b))
    return make_graph(g1.n * n2, edges)


@dataclass(frozen=True)
class CayleySpec:
    """A finite abelian group Z_{m1} x ... x Z_{mr} with a connection set.

    The connection set must be closed under negation and must not contain
    the identity, so the resulting Cayley graph is simple and undirected.
    """

    cyclic_orders: tuple[int, ...]
    connection_set: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        orders = tuple(_as_integer(m, "cyclic order") for m in self.cyclic_orders)
        object.__setattr__(self, "cyclic_orders", orders)
        object.__setattr__(self, "connection_set", tuple(tuple(s) for s in self.connection_set))
        if not orders or any(m < 1 for m in orders):
            raise ValueError(f"cyclic orders must be positive, got {orders}")
        members = set()
        for s in self.connection_set:
            if self.element_index(s) == 0:  # raises on a wrong arity or residue
                raise ValueError("connection set must not contain the identity")
            if s in members:
                raise ValueError(f"duplicate connection-set element {s}")
            members.add(s)
        for s in members:
            if self.negate(s) not in members:
                raise ValueError(f"connection set is not closed under inverses: missing {self.negate(s)}")

    @property
    def group_order(self) -> int:
        return math.prod(self.cyclic_orders)

    def negate(self, element: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-x) % m for x, m in zip(element, self.cyclic_orders))

    def element_index(self, element: tuple[int, ...]) -> int:
        """Mixed-radix index; the first coordinate is least significant."""
        if len(element) != len(self.cyclic_orders):
            raise ValueError(f"element {element} has wrong arity for orders {self.cyclic_orders}")
        return int(self._index([_as_integer(x, "residue", m) for x, m in zip(element, self.cyclic_orders)]))

    def elements(self) -> np.ndarray:
        """The (N, r) residue table: row i is the element whose index is i."""
        return np.stack(np.unravel_index(np.arange(self.group_order), self.cyclic_orders, order="F"), axis=1)

    def _index(self, coords):
        """The index of the element whose coordinate i is coords[i] mod m_i;
        the coordinates may be arrays. The inverse of elements()."""
        return np.ravel_multi_index(coords, self.cyclic_orders, mode="wrap", order="F")


def cayley_graph(spec: CayleySpec) -> Graph:
    """Cayley graph of the abelian group in `spec`: u ~ v iff v - u is connected."""
    n = spec.group_order
    steps = np.array(spec.connection_set, dtype=np.intp).reshape(-1, len(spec.cyclic_orders))
    sums = (spec.elements()[:, None, :] + steps).reshape(-1, steps.shape[1])  # u + s for each u, s
    targets = spec._index(sums.T)
    sources = np.arange(n).repeat(len(steps))
    keep = sources < targets
    return make_graph(n, zip(sources[keep].tolist(), targets[keep].tolist()))


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from vertex 0; a single vertex is connected."""
    if g.n == 1:
        return True
    neighbors: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in neighbors[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def parse_edge_list(text) -> Graph:
    """Parse the edge-list format: '#' comments, a header "n m", then m lines "u v".

    Raises EdgeListFormatError with a distinct message for each defect:
    malformed lines, out-of-range vertices, self-loops, duplicate edges,
    and a mismatch between the declared and actual edge counts.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise EdgeListFormatError("empty document: missing 'n m' header")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise EdgeListFormatError(f"line {header_no}: header must be 'n m', got {header!r}")
    try:
        n, m = (_parse_int(p, "header") for p in parts)
    except ValueError:
        raise EdgeListFormatError(f"line {header_no}: header must be two integers, got {header!r}") from None
    if n < 1:
        raise EdgeListFormatError(f"line {header_no}: vertex count must be positive, got {n}")
    if m < 0:
        raise EdgeListFormatError(f"line {header_no}: edge count must be nonnegative, got {m}")

    edges = set()
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            edge = _edge(n, _parse_int(parts[0], "vertex"), _parse_int(parts[1], "vertex"))
        except ValueError as exc:
            raise EdgeListFormatError(f"line {lineno}: {exc}") from None
        if edge in edges:
            raise EdgeListFormatError(f"line {lineno}: duplicate edge ({edge[0]}, {edge[1]})")
        edges.add(edge)
    if len(edges) != m:
        raise EdgeListFormatError(f"edge count mismatch: header declares {m}, found {len(edges)}")
    return Graph(n=n, edges=edges)


def format_edge_list(g: Graph) -> str:
    """Serialize in the parse_edge_list format, edges sorted with u < v."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(out) + "\n"


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
