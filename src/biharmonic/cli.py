"""Command line front end.

Six subcommands: gen, dist, matrix, index, verify, bounds. All numeric output
uses 12 significant digits so identical inputs give byte-identical stdout.
Exit codes: 0 on success, 1 when a verification check fails or a numerical
defect stops the computation (an arithmetic error, a solver that does not
converge, a matrix that should be positive definite and is not), 2 on usage
or input errors (unreadable or malformed files, disconnected graphs, bad
vertices or parameters). dist, matrix, index and bounds exit 1, printing
nothing, when a number they would print is nan or inf. A command that exits 0
writes nothing to stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import graphs, metrics, verification
from .verification import flag, fmt


def _index_set(indices) -> str:
    return "{" + ",".join(str(i) for i in indices) + "}"


def cmd_gen(args) -> int:
    g = graphs.generate(args.family, *(graphs._parse_int(p, "family parameter") for p in args.params))
    graphs.write_edge_list(g, args.output)
    print(f"wrote {args.output}: n={g.n} m={g.m}")
    return 0


def _require_finite(values: dict) -> None:
    """The non-finite gate of dist, matrix, index and bounds, called before
    they print: ArithmeticError naming each nan or inf among the named scalars."""
    bad = [f"{name} {fmt(x)}" for name, x in values.items() if not np.isfinite(x)]
    if bad:
        raise ArithmeticError(f"non-finite result: {', '.join(bad)}")


def cmd_dist(args) -> int:
    g = graphs.read_edge_list(args.path)
    u, v = metrics._check_pair(g.n, *(graphs._parse_int(x, "vertex") for x in (args.u, args.v)))
    cache = metrics.SpectralCache(g)
    if args.method != "all":
        rows = {args.method: metrics.ROUTES[args.method](cache, u, v)}
    else:
        report = metrics.all_methods(cache, u, v)
        rows = dict(zip([*metrics.ROUTES, "spread"], [*report.values(), report.max_relative_spread]))
    _require_finite(rows)
    for name, x in rows.items():
        print(f"{name} {fmt(x)}" if args.method == "all" else fmt(x))
    return 0


def cmd_matrix(args) -> int:
    g = graphs.read_edge_list(args.path)
    dm = metrics.distance_matrix(g)
    # The first nan or inf entry, else entry (0, 0).
    i, j = np.unravel_index(np.argmin(np.isfinite(dm)), dm.shape)
    _require_finite({f"d({i}, {j})": dm[i, j]})
    print(",".join(f"v{i}" for i in range(g.n)))
    for row in dm:
        print(",".join(fmt(x) for x in row))
    return 0


def cmd_index(args) -> int:
    g = graphs.read_edge_list(args.path)
    cache = metrics.SpectralCache(g)
    rows = {"B": metrics.biharmonic_index_spectral(cache), "Kf": metrics.kirchhoff_index(cache)}
    _require_finite(rows)
    brk = metrics.check_brk(cache) if g.n >= 2 else None
    floor = metrics.check_index_floor(cache)
    for name, x in rows.items():
        print(f"{name} {fmt(x)}")
    if brk is not None:
        print(f"BRK {fmt(brk.rhs)}{' equality' if brk.equality else ''}")
    print(f"floor {fmt(floor.floor)}{' equality' if floor.equality else ''}")
    return 0


def cmd_verify(args) -> int:
    g = graphs.read_edge_list(args.path)
    results = verification.verify_graph(g)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 0 if verification.all_passed(results) else 1


def cmd_bounds(args) -> int:
    g = graphs.read_edge_list(args.path)
    r = metrics.bounds_report(g, *(graphs._parse_int(x, "vertex") for x in (args.u, args.v)))
    _require_finite({"lower": r.lower, "value": r.value, "upper": r.upper})
    print(f"lower {fmt(r.lower)}")
    print(f"value {fmt(r.value)}")
    print(f"upper {fmt(r.upper)}")
    print(f"lower-attained {flag(r.lower_attained)}")
    print(f"upper-attained {flag(r.upper_attained)}")
    print(f"sigmaN {_index_set(r.sigma_n)} orthogonal {flag(r.sigma_n_orthogonal)}")
    print(f"sigma2 {_index_set(r.sigma2)} orthogonal {flag(r.sigma2_orthogonal)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biharmonic",
        description="Biharmonic distances, spectral indices, and consistency checks for graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a family graph and write it as an edge list")
    gen.add_argument("family", help="complete, path, cycle, wheel, hypercube, or k4minus")
    gen.add_argument("params", nargs="*", help="family size parameters")
    gen.add_argument("-o", "--output", required=True, help="output file path")
    gen.set_defaults(func=cmd_gen)

    dist = sub.add_parser("dist", help="biharmonic distance between two vertices")
    dist.add_argument("path")
    dist.add_argument("u")
    dist.add_argument("v")
    dist.add_argument(
        "--method",
        choices=[*metrics.ROUTES, "all"],
        default="pinv",
        help="computational route (default pinv); 'all' cross-checks every route",
    )
    dist.set_defaults(func=cmd_dist)

    matrix = sub.add_parser("matrix", help="full distance matrix as CSV")
    matrix.add_argument("path")
    matrix.set_defaults(func=cmd_matrix)

    index = sub.add_parser("index", help="biharmonic and Kirchhoff indices with their lower bounds")
    index.add_argument("path")
    index.set_defaults(func=cmd_index)

    verify = sub.add_parser("verify", help="run every consistency check against the graph")
    verify.add_argument("path")
    verify.set_defaults(func=cmd_verify)

    bounds = sub.add_parser("bounds", help="two-sided spectral bounds and attainment analysis")
    bounds.add_argument("path")
    bounds.add_argument("u")
    bounds.add_argument("v")
    bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # EdgeListFormatError and DisconnectedGraphError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
