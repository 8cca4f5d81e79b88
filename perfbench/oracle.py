"""Independent numpy.linalg oracle for every value the benchmark checks.

The oracle rebuilds each graph's Laplacian from its edge set and uses only
``numpy.linalg`` (``eigh``, ``pinv``, ``slogdet``, ``eigvalsh``), which the
package itself never ships as its computing path. Every check takes the
graph's oracle, then its own parameters, then the output last; it returns
``None`` when the output matches, or a ``Failure`` naming what was wrong.

A failure is marked ``known`` when it is the documented determinant-route
overflow: once n * tau^2 (the minor of L^2) or tau itself exceeds the largest
double, the det route and the spanning-tree count return inf or nan. Known
failures are still counted as failed operations; they only keep ``correct``
true until the defect is fixed, so that any other wrong output stands out.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np

TOLERANCE = 1e-8  # relative; printed CLI values carry 12 significant digits
ABS_FLOOR = 1e-12  # absolute slack for values that are zero or nearly so
LOG_MAX_FLOAT = math.log(np.finfo(float).max)
NONFINITE = re.compile(r"\b(nan|inf|-inf)\b", re.IGNORECASE)


class Failure(NamedTuple):
    reason: str
    known: bool = False


def laplacian(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    return lap


class GraphOracle:
    """Reference values for one connected graph, computed with numpy.linalg."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = frozenset((min(u, v), max(u, v)) for u, v in edges)
        lap = laplacian(n, self.edges)
        w, _ = np.linalg.eigh(lap)
        self.eigenvalues = w
        # The default cut-off (1e-15 of the largest eigenvalue) can keep the
        # rounded zero eigenvalue of a dense Laplacian and blow up its inverse;
        # a connected graph's smallest nonzero eigenvalue is far above 1e-10 of it.
        pinv = np.linalg.pinv(lap, rcond=1e-10, hermitian=True)
        self.pinv2 = pinv @ pinv
        diag2 = np.diag(self.pinv2)
        self.distances = np.sqrt(np.maximum(diag2[:, None] + diag2[None, :] - 2.0 * self.pinv2, 0.0))
        diag1 = np.diag(pinv)
        self.resistance = diag1[:, None] + diag1[None, :] - 2.0 * pinv
        self.connected = n < 2 or w[1] > 1e-8 * max(1.0, w[-1])
        self.b_index = n * float(np.sum(1.0 / w[1:] ** 2))
        self.kf_index = n * float(np.sum(1.0 / w[1:]))
        self.log_tau = float(np.linalg.slogdet(lap[1:, 1:])[1]) if n > 1 else 0.0
        self.det_overflows = bool(math.log(n) + 2.0 * self.log_tau > LOG_MAX_FLOAT)
        self.tau_overflows = bool(self.log_tau > LOG_MAX_FLOAT)
        self.lower = math.sqrt(2.0) / w[-1]
        self.upper = math.sqrt(2.0) / w[1]
        # verify adds its closed-form check on the families it recognises.
        d = n.bit_length() - 1
        cube = frozenset((x, x ^ (1 << i)) for x in range(n) for i in range(d) if x < x ^ (1 << i))
        complete = n >= 2 and len(self.edges) == n * (n - 1) // 2
        self.closed_form = complete or (d >= 1 and (1 << d) == n and self.edges == cube)

    def adjacency_eigenvalues(self) -> np.ndarray:
        adj = -laplacian(self.n, self.edges)
        np.fill_diagonal(adj, 0.0)
        return np.linalg.eigvalsh(adj)


class OracleCache:
    """GraphOracle per edge set, computed once on first use."""

    def __init__(self):
        self._cache = {}

    def __call__(self, n: int, edges) -> GraphOracle:
        key = (n, frozenset(edges))
        if key not in self._cache:
            self._cache[key] = GraphOracle(n, edges)
        return self._cache[key]


def value(x, ref: float, what: str = "value") -> str | None:
    """None if x is a finite number within TOLERANCE of ref, else the reason."""
    try:
        x = float(x)
    except (TypeError, ValueError):
        return f"{what} is not a number: {x!r}"
    if not math.isfinite(x):
        return f"{what} is non-finite ({x!r}), oracle {ref:.12g}"
    if abs(x - ref) > TOLERANCE * abs(ref) + ABS_FLOOR:
        return f"{what} {x:.12g} vs oracle {ref:.12g}"
    return None


def array(x, ref: np.ndarray, what: str) -> str | None:
    x = np.asarray(x, dtype=float)
    if x.shape != ref.shape:
        return f"{what} has shape {x.shape}, oracle {ref.shape}"
    if not np.all(np.isfinite(x)):
        return f"{what} holds non-finite entries"
    scale = TOLERANCE * max(1.0, float(np.max(np.abs(ref))))
    worst = float(np.max(np.abs(x - ref)))
    if worst > scale + ABS_FLOOR:
        return f"{what} deviates by {worst:.3g} from the oracle"
    return None


def first(*reasons) -> str | None:
    return next((r for r in reasons if r is not None), None)


def fail(reason: str | None, known: bool = False) -> Failure | None:
    return None if reason is None else Failure(reason, known)


# --- library outputs -------------------------------------------------------


def distance(o: GraphOracle, u: int, v: int, det_route: bool, out) -> Failure | None:
    return fail(value(out, o.distances[u, v], "distance"), det_route and o.det_overflows)


def _four_routes(o: GraphOracle, u: int, v: int, values: dict, spread) -> Failure | None:
    """Check the four route values and their spread; only det and spread may be the known defect."""
    ref = o.distances[u, v]
    other = first(*(value(values.get(m), ref, m) for m in ("spectral", "pinv", "minnorm")))
    if other:
        return Failure(other)
    try:
        spread_ok = math.isfinite(float(spread)) and float(spread) <= TOLERANCE
    except (TypeError, ValueError):
        spread_ok = False
    reason = first(value(values.get("det"), ref, "det"), None if spread_ok else f"spread {spread!r}")
    return fail(reason, o.det_overflows)


def resistance(o: GraphOracle, u: int, v: int, out) -> Failure | None:
    return fail(value(out, o.resistance[u, v], "resistance"))


def matrix(o: GraphOracle, out) -> Failure | None:
    return fail(array(out, o.distances, "distance matrix"))


def b_index(o: GraphOracle, out) -> Failure | None:
    return fail(value(out, o.b_index, "biharmonic index"))


def kf_index(o: GraphOracle, out) -> Failure | None:
    return fail(value(out, o.kf_index, "Kirchhoff index"))


def all_methods(o: GraphOracle, u: int, v: int, out) -> Failure | None:
    values = {"spectral": out.spectral, "pinv": out.pinv_entries, "det": out.determinant, "minnorm": out.min_norm}
    return _four_routes(o, u, v, values, out.max_relative_spread)


def state(o: GraphOracle, out) -> Failure | None:
    scale = max(1.0, float(o.eigenvalues[-1]))
    reason = first(
        array(out.eig.eigenvalues / scale, o.eigenvalues / scale, "eigenvalues"),
        array(out.pinv2, o.pinv2, "squared pseudoinverse"),
    )
    return fail(reason)


def bounds(o: GraphOracle, u: int, v: int, out) -> Failure | None:
    reason = first(
        value(out.lower, o.lower, "lower bound"),
        value(out.upper, o.upper, "upper bound"),
        value(out.value, o.distances[u, v], "distance"),
        None if out.consistent else "attainment verdicts disagree with eigenspace orthogonality",
    )
    return fail(reason)


def tree_count(o: GraphOracle, out) -> Failure | None:
    try:
        x = float(out)
    except (TypeError, ValueError):
        return Failure(f"tree count is not a number: {out!r}")
    if not math.isfinite(x) or x <= 0.0:
        return Failure(f"tree count {x!r}, oracle exp({o.log_tau:.12g})", o.tau_overflows)
    return fail(value(math.log(x), o.log_tau, "log tree count"))


def edge_set(o: GraphOracle, out) -> Failure | None:
    ok = out.n == o.n and set(out.edges) == o.edges
    return None if ok else Failure("graph differs from the requested edge set")


def character_table(o: GraphOracle, out) -> Failure | None:
    got = np.sort(np.asarray(out.adjacency_eigenvalues, dtype=float))
    return fail(array(got, o.adjacency_eigenvalues(), "adjacency eigenvalues"))


VERIFY_CHECKS = {
    "connectivity-certificate",
    "four-method-agreement",
    "metric-axioms",
    "spectral-bounds",
    "index-consistency",
    "index-inequality",
    "index-floor",
    "edge-monotonicity",
    "matrix-tree",
    "pseudoinverse-identities",
}


def verify_lines(o: GraphOracle, lines) -> str | None:
    """Check (passed, name, detail) triples against the oracle's verdict.

    Every check must pass on a connected graph, since each one tests a theorem.
    A PASS whose detail shows nan or inf is wrong, and the tree count and the
    biharmonic index quoted in the details must match the oracle.
    """
    names = {name for _, name, _ in lines}
    expected = VERIFY_CHECKS | ({"closed-form-vs-spectral"} if o.closed_form else set())
    if names != expected:
        return f"checks {sorted(names ^ expected)} missing or unexpected"
    for passed, name, detail in lines:
        if not passed:
            return f"FAIL {name} where the oracle certifies PASS: {detail}"
        if NONFINITE.search(detail):
            return f"PASS {name} with a non-finite value: {detail}"
        tau = re.search(r"\btau (\S+)", detail) if name == "matrix-tree" else None
        if tau:
            reason = tree_count(o, tau.group(1))
            if reason:
                return f"{name}: {reason.reason}"
        spectral = re.search(r"\bspectral (\S+)", detail) if name == "index-consistency" else None
        if spectral:
            reason = value(spectral.group(1), o.b_index, "biharmonic index")
            if reason:
                return f"{name}: {reason}"
    return None


def verify(o: GraphOracle, out) -> Failure | None:
    return fail(verify_lines(o, [(r.passed, r.name, r.detail) for r in out]))


# --- CLI outputs -----------------------------------------------------------


def _fields(stdout: str) -> dict:
    return {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in stdout.splitlines() if " " in line}


def cli_output(o: GraphOracle, argv, out) -> Failure | None:
    """Check one CLI run, out = (exit code, stdout): the 0/1/2 exit-code contract, then stdout."""
    code, stdout = out
    if code not in (0, 1, 2):
        return Failure(f"exit code {code} breaks the 0/1/2 contract")
    if code != 0:
        return Failure(f"exit code {code} on a valid connected graph")
    command = argv[0]
    try:
        if command == "verify":
            lines = []
            for line in stdout.splitlines():
                verdict, rest = line.split(" ", 1)
                name, detail = rest.split(": ", 1)
                lines.append((verdict == "PASS", name, detail))
            return fail(verify_lines(o, lines))
        if command == "matrix":
            rows = stdout.splitlines()[1:]
            got = np.array([[float(x) for x in row.split(",")] for row in rows])
            return matrix(o, got)
        if command == "dist":
            u, v = int(argv[2]), int(argv[3])
            method = argv[argv.index("--method") + 1] if "--method" in argv else "pinv"
            if method != "all":
                return distance(o, u, v, method == "det", stdout.strip())
            f = _fields(stdout)
            return _four_routes(o, u, v, f, f.get("spread"))
        if command == "index":
            f = _fields(stdout)
            return fail(first(value(f.get("B"), o.b_index, "B"), value(f.get("Kf"), o.kf_index, "Kf")))
        if command == "bounds":
            f = _fields(stdout)
            u, v = int(argv[2]), int(argv[3])
            return fail(
                first(
                    value(f.get("lower"), o.lower, "lower"),
                    value(f.get("value"), o.distances[u, v], "value"),
                    value(f.get("upper"), o.upper, "upper"),
                )
            )
    except (ValueError, IndexError) as exc:
        return Failure(f"unparseable output ({exc}): {stdout[:200]!r}")
    return Failure(f"no oracle for command {command!r}")
