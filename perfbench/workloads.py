"""The benchmark's workloads: inputs made from a seed, and one pass over them.

Each workload is a closed loop with one client in one process: an operation
starts only after the previous one returned. A pass runs the workload's fixed
input set once; the run repeats passes until its time is up. Graphs come from
the benchmark's own generators, never from the package's, so the oracle sees
an edge set built independently of the code under test.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import os
import random
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, NamedTuple

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_TIMEOUT_S = 120


# --- graph generators ------------------------------------------------------


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def random_tree(n: int, rng: random.Random) -> set:
    """Uniform random labelled tree on n vertices, decoded from a Pruefer sequence."""
    if n < 2:
        return set()
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = set()
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.add(_edge(leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.add(_edge(heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def sparse_edges(n: int, rng: random.Random) -> frozenset:
    """A uniform random tree plus up to n extra edges (repeats are dropped)."""
    edges = random_tree(n, rng)
    for _ in range(n):
        edges.add(_edge(*rng.sample(range(n), 2)))
    return frozenset(edges)


def complete_edges(n: int) -> frozenset:
    return frozenset((u, v) for u in range(n) for v in range(u + 1, n))


def hypercube_edges(d: int) -> frozenset:
    return frozenset(_edge(x, x ^ (1 << i)) for x in range(1 << d) for i in range(d))


def cayley_edges(orders, connection) -> frozenset:
    """Cayley graph of Z_m1 x ... x Z_mr; element index is mixed radix, first coordinate least significant."""

    def index(element):
        idx, stride = 0, 1
        for x, m in zip(element, orders):
            idx += (x % m) * stride
            stride *= m
        return idx

    def element(idx):
        out = []
        for m in orders:
            out.append(idx % m)
            idx //= m
        return out

    size = 1
    for m in orders:
        size *= m
    return frozenset(
        _edge(i, index([a + b for a, b in zip(element(i), s)])) for i in range(size) for s in connection
    )


def cartesian_edges(n1: int, e1, n2: int, e2) -> frozenset:
    """Cartesian product; vertex (a, b) has index a * n2 + b."""
    edges = {(a * n2 + u, a * n2 + v) for a in range(n1) for u, v in e2}
    edges |= {(u * n2 + b, v * n2 + b) for b in range(n2) for u, v in e1}
    return frozenset(edges)


def complement_edges(n: int, edges) -> frozenset:
    return complete_edges(n) - frozenset(edges)


def sample_pairs(n: int, count: int, rng: random.Random) -> list:
    return [tuple(rng.sample(range(n), 2)) for _ in range(count)]


def write_edge_list(path: str, n: int, edges) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in sorted(edges))


# --- operations ------------------------------------------------------------


class Op(NamedTuple):
    kind: str
    label: str
    seconds: float
    output: object
    error: str | None
    check: tuple  # (checker, n, edges, *params); checker(oracle, *params, output)
    failure: oracle.Failure | None = None


class Recorder:
    """Runs and times operations one after another, keeping their outputs for the oracle."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[Op] = []

    def op(self, kind: str, label: str, fn: Callable, args: tuple, check: tuple):
        if self.tracer is not None:
            self.tracer.begin_op()
        start = perf_counter()
        try:
            output, error = fn(*args), None
        except Exception as exc:  # an operation that raises is a failed operation, not a crash
            output, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if self.tracer is not None:
            self.tracer.end_op()
        self.ops.append(Op(kind, label, seconds, output, error, check))
        return output


def settle(op: Op, oracles: oracle.OracleCache) -> Op:
    """Record the oracle's verdict on an operation and drop its output, so outputs do not pile up in memory."""
    checker, n, edges, *params = op.check
    if op.error is not None:
        failure = oracle.Failure(f"raised {op.error}")
    else:
        try:
            failure = checker(oracles(n, edges), *params, op.output)
        except (AttributeError, TypeError, ValueError, IndexError) as exc:  # output of an unexpected shape
            failure = oracle.Failure(f"output could not be checked: {type(exc).__name__}: {exc}")
    return op._replace(output=None, failure=failure)


@dataclass
class Graph:
    """One input graph: its edge set, the package's Graph, and its edge-list file."""

    label: str
    n: int
    edges: frozenset
    graph: object = None
    path: str = ""
    pairs: list = field(default_factory=list)
    additions: list = field(default_factory=list)


def make_inputs(bh, workdir: str, specs) -> list[Graph]:
    """Build the package Graph for each (label, n, edges, pairs) and write its edge list."""
    out = []
    for i, (label, n, edges, pairs) in enumerate(specs):
        path = os.path.join(workdir, f"g{i}.txt")
        write_edge_list(path, n, edges)
        out.append(Graph(label, n, edges, bh.make_graph(n, edges), path, pairs))
    return out


def verify_op(bh, rec: Recorder, g: Graph) -> None:
    rec.op("verify_graph", g.label, bh.verify_graph, (g.graph,), (oracle.verify, g.n, g.edges))


# --- verify-sparse ---------------------------------------------------------

# Three sizes keep a pass near 3 s, so that a run holds ten or more passes
# and the median pass and median verify are taken over the whole run: on a
# shared host the speed of the same work drifts by up to 2x over tens of
# seconds. The median verify is the n=20 graph's.
VERIFY_SPARSE_SIZES = (18, 20, 22)


def verify_sparse_setup(bh, seed: int, workdir: str, sizes=VERIFY_SPARSE_SIZES) -> list[Graph]:
    rng = random.Random(seed)
    specs = [(f"sparse n={n} #{i}", n, sparse_edges(n, rng), []) for i, n in enumerate(sizes)]
    return make_inputs(bh, workdir, specs)


def verify_sparse_pass(bh, inputs: list[Graph], rec: Recorder, inproc: bool = False) -> None:
    for g in inputs:
        verify_op(bh, rec, g)


# --- verify-complete -------------------------------------------------------

# Not in BENCHMARK.json: a pass holds three verify calls, too few for a steady
# median at the run length the benchmark can afford. Run it by hand to check
# that a Jacobi change leaves the det/Cholesky-bound verify unchanged.
VERIFY_COMPLETE_SIZES = (30, 45, 60)


def verify_complete_setup(bh, seed: int, workdir: str, sizes=VERIFY_COMPLETE_SIZES) -> list[Graph]:
    # K_n is unique up to labelling, so the seed cannot change the work here.
    specs = [(f"K{n}", n, complete_edges(n), []) for n in sizes]
    return make_inputs(bh, workdir, specs)


def verify_complete_pass(bh, inputs: list[Graph], rec: Recorder, inproc: bool = False) -> None:
    for g in inputs:
        verify_op(bh, rec, g)


# --- queries ---------------------------------------------------------------

QUERY_SPARSE_SIZES = (20, 40, 80, 160)
QUERY_COMPLETE_SIZES = (100, 150)
QUERY_PAIRS = 3
EDGE_ADDITIONS = 1
HYPERCUBE_DIM = 6
CAYLEY_ORDERS = (6, 8)
CAYLEY_CONNECTION = ((1, 0), (5, 0), (0, 1), (0, 7), (2, 3), (4, 5))
CARTESIAN_SIZES = (6, 8)
COMPLEMENT_SIZE = 30
CLOSED_FORM_PAIRS = 4


@dataclass
class QueryInputs:
    graphs: list  # sparse graphs (with edge additions) then complete graphs
    hypercube: Graph
    cayley: Graph
    cayley_spec: object
    factors: list
    product: Graph
    base: Graph
    complement: Graph


def queries_setup(bh, seed: int, workdir: str, sparse_sizes=QUERY_SPARSE_SIZES, complete_sizes=QUERY_COMPLETE_SIZES):
    rng = random.Random(seed)
    specs = []
    for n in sparse_sizes:
        specs.append((f"sparse n={n}", n, sparse_edges(n, rng), sample_pairs(n, QUERY_PAIRS, rng)))
    for n in complete_sizes:
        specs.append((f"K{n}", n, complete_edges(n), sample_pairs(n, QUERY_PAIRS, rng)))
    d = HYPERCUBE_DIM
    specs.append((f"Q{d}", 1 << d, hypercube_edges(d), sample_pairs(1 << d, CLOSED_FORM_PAIRS, rng)))
    orders = CAYLEY_ORDERS
    size = orders[0] * orders[1]
    specs.append((f"Cay(Z{orders[0]}xZ{orders[1]})", size, cayley_edges(orders, CAYLEY_CONNECTION),
                  sample_pairs(size, CLOSED_FORM_PAIRS, rng)))
    n1, n2 = CARTESIAN_SIZES
    e1, e2 = sparse_edges(n1, rng), sparse_edges(n2, rng)
    specs.append((f"factor n={n1}", n1, e1, []))
    specs.append((f"factor n={n2}", n2, e2, []))
    specs.append((f"product {n1}x{n2}", n1 * n2, cartesian_edges(n1, e1, n2, e2),
                  sample_pairs(n1 * n2, CLOSED_FORM_PAIRS, rng)))
    nc = COMPLEMENT_SIZE
    base = sparse_edges(nc, rng)
    specs.append((f"base n={nc}", nc, base, []))
    specs.append((f"complement n={nc}", nc, complement_edges(nc, base), sample_pairs(nc, CLOSED_FORM_PAIRS, rng)))
    graphs = make_inputs(bh, workdir, specs)
    count = len(sparse_sizes) + len(complete_sizes)
    for g in graphs[: len(sparse_sizes)]:
        edges = set(g.edges)
        for _ in range(EDGE_ADDITIONS):
            e = _edge(*rng.sample(range(g.n), 2))
            while e in edges:
                e = _edge(*rng.sample(range(g.n), 2))
            edges.add(e)
            g.additions.append(e)
    hyper, cay, f1, f2, product, base_g, comp = graphs[count:]
    return QueryInputs(graphs[:count], hyper, cay, bh.CayleySpec(orders, CAYLEY_CONNECTION), [f1, f2], product, base_g, comp)


ROUTES = ("biharmonic_spectral", "biharmonic_pinv_entries", "biharmonic_determinant", "biharmonic_minnorm")


def _state(bh, rec: Recorder, label: str, n: int, edges, graph):
    return rec.op("build_cache", label, bh.build_cache, (graph,), (oracle.state, n, edges))


def _reads(bh, rec: Recorder, label: str, n: int, edges, state, pairs) -> None:
    """The read mix on one cached state: four routes per pair, then whole-graph quantities."""
    check = (n, edges)
    for u, v in pairs:
        for route in ROUTES:
            rec.op(route, f"{label} ({u},{v})", getattr(bh, route), (state, u, v),
                   (oracle.distance, *check, u, v, route == "biharmonic_determinant"))
    u, v = pairs[0]
    where = f"{label} ({u},{v})"
    rec.op("all_methods", where, bh.all_methods, (state, u, v), (oracle.all_methods, *check, u, v))
    rec.op("resistance_distance", where, bh.resistance_distance, (state, u, v), (oracle.resistance, *check, u, v))
    rec.op("bounds_report", where, bh.bounds_report, (state, u, v), (oracle.bounds, *check, u, v))
    rec.op("distance_matrix", label, bh.distance_matrix, (state,), (oracle.matrix, *check))
    rec.op("biharmonic_index_spectral", label, bh.biharmonic_index_spectral, (state,), (oracle.b_index, *check))
    rec.op("biharmonic_index_pairwise", label, bh.biharmonic_index_pairwise, (state,), (oracle.b_index, *check))
    rec.op("kirchhoff_index", label, bh.kirchhoff_index, (state,), (oracle.kf_index, *check))


def queries_pass(bh, inp: QueryInputs, rec: Recorder, inproc: bool = False) -> None:
    with warnings.catch_warnings():
        # The det route's overflow warns on every call; the oracle reports it instead.
        warnings.simplefilter("ignore", RuntimeWarning)
        _queries_pass(bh, inp, rec)


def _queries_pass(bh, inp: QueryInputs, rec: Recorder) -> None:
    for g in inp.graphs:
        edges, graph, label = g.edges, g.graph, g.label
        for step in range(len(g.additions) + 1):
            if step:
                edges = edges | {g.additions[step - 1]}
                label = f"{g.label} +{step} edge"
                graph = rec.op("make_graph", label, bh.make_graph, (g.n, edges), (oracle.edge_set, g.n, edges))
                if graph is None:
                    break
            state = _state(bh, rec, label, g.n, edges, graph)
            if state is not None:
                _reads(bh, rec, label, g.n, edges, state, g.pairs)
            rec.op("spanning_tree_count", label, bh.spanning_tree_count, (graph,), (oracle.tree_count, g.n, edges))
            if len(edges) == g.n * (g.n - 1) // 2:  # complete graph
                rec.op("complete_graph_distance", label, bh.complete_graph_distance, (g.n,),
                       (oracle.distance, g.n, edges, 0, 1, False))

    h = inp.hypercube
    for u, v in h.pairs:
        rec.op("hypercube_distance", f"{h.label} ({u},{v})", bh.hypercube_distance, (HYPERCUBE_DIM, u, v),
               (oracle.distance, h.n, h.edges, u, v, False))

    c = inp.cayley
    rec.op("character_table", c.label, bh.character_table, (inp.cayley_spec,), (oracle.character_table, c.n, c.edges))
    for u, v in c.pairs:
        rec.op("cayley_distance", f"{c.label} ({u},{v})", bh.cayley_distance, (inp.cayley_spec, u, v),
               (oracle.distance, c.n, c.edges, u, v, False))

    states = [_state(bh, rec, f.label, f.n, f.edges, f.graph) for f in inp.factors]
    p, n2 = inp.product, inp.factors[1].n
    if all(s is not None for s in states):
        for u, v in p.pairs:
            rec.op("cartesian_distance", f"{p.label} ({u},{v})", bh.cartesian_distance,
                   (states[0].eig, states[1].eig, divmod(u, n2), divmod(v, n2)),
                   (oracle.distance, p.n, p.edges, u, v, False))

    b, comp = inp.base, inp.complement
    base_state = _state(bh, rec, b.label, b.n, b.edges, b.graph)
    if base_state is not None:
        for u, v in comp.pairs:
            rec.op("complement_distance", f"{comp.label} ({u},{v})", bh.complement_distance, (base_state.eig, u, v),
                   (oracle.distance, comp.n, comp.edges, u, v, False))


# --- cli -------------------------------------------------------------------

CLI_VERIFY_SIZES = (16,)
CLI_VERIFY_COMPLETE = (20,)
CLI_SPARSE_SIZE = 40
CLI_COMPLETE_SIZE = 100
CLI_METHODS = ("pinv", "det", "minnorm", "all")


def package_env() -> dict:
    """Environment for a child interpreter that imports the package from this checkout."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_setup(bh, seed: int, workdir: str, sparse_size=CLI_SPARSE_SIZE, complete_size=CLI_COMPLETE_SIZE,
              verify_sizes=CLI_VERIFY_SIZES, verify_complete=CLI_VERIFY_COMPLETE):
    rng = random.Random(seed)
    specs = [(f"sparse n={n}", n, sparse_edges(n, rng), []) for n in verify_sizes]
    specs += [(f"K{n}", n, complete_edges(n), []) for n in verify_complete]
    specs.append((f"sparse n={sparse_size}", sparse_size, sparse_edges(sparse_size, rng),
                  sample_pairs(sparse_size, 1, rng)))
    specs.append((f"K{complete_size}", complete_size, complete_edges(complete_size),
                  sample_pairs(complete_size, 1, rng)))
    graphs = make_inputs(bh, workdir, specs)
    *verify_graphs, sparse, complete = graphs
    commands = [(["verify", g.path], g) for g in verify_graphs]
    for g in (sparse, complete):
        u, v = g.pairs[0]
        commands.append((["matrix", g.path], g))
        commands += [(["dist", g.path, str(u), str(v), "--method", m], g) for m in CLI_METHODS]
        commands.append((["index", g.path], g))
        commands.append((["bounds", g.path, str(u), str(v)], g))
    return commands  # (argv, Graph)


def run_cli_subprocess(env: dict, argv) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "biharmonic", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def run_cli_inproc(main, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(list(argv))
    return code, out.getvalue()


def cli_pass(bh, commands, rec: Recorder, inproc: bool = False) -> None:
    """Each command as a `python -m biharmonic` subprocess, or in process through cli.main."""
    from biharmonic import cli

    env = package_env()
    for argv, g in commands:
        label = " ".join([argv[0], g.label, *argv[2:]])
        check = (oracle.cli_output, g.n, g.edges, argv)
        if inproc:
            rec.op(f"cli.{argv[0]}", label, run_cli_inproc, (cli.main, argv), check)
        else:
            rec.op(f"cli.{argv[0]}", label, run_cli_subprocess, (env, argv), check)


def time_python(code: str) -> float:
    """Wall seconds of one `python -c <code>` with the package importable."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=package_env(), cwd=ROOT, check=True,
                   capture_output=True, timeout=CLI_TIMEOUT_S)
    return perf_counter() - start


class Workload(NamedTuple):
    setup: Callable  # (bh, seed, workdir) -> inputs
    run_pass: Callable  # (bh, inputs, recorder, inproc) -> None
    graphs: Callable  # inputs -> every input Graph, for the yardstick


def _query_graphs(inp: QueryInputs) -> list[Graph]:
    return inp.graphs + [inp.hypercube, inp.cayley, *inp.factors, inp.product, inp.base]


def _command_graphs(commands) -> list[Graph]:
    return list({id(g): g for _, g in commands}.values())


WORKLOADS = {
    "verify-sparse": Workload(verify_sparse_setup, verify_sparse_pass, list),
    "verify-complete": Workload(verify_complete_setup, verify_complete_pass, list),
    "queries": Workload(queries_setup, queries_pass, _query_graphs),
    "cli": Workload(cli_setup, cli_pass, _command_graphs),
}
