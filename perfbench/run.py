"""Benchmark of biharmonic: time to certified results, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-sparse --seed 1 --seconds 20 --trace 0

Workloads: verify-sparse, queries, cli (see BENCHMARK.json for why each was
chosen), and verify-complete, which is run by hand only (see
perfbench/layer_map.json). ``--trace 0`` measures the end-to-end metrics with
no tracing; ``--trace 1`` makes a separate traced run that wraps the package's
public functions from the outside and reports per-layer metrics. Every output
is checked against a numpy.linalg oracle after the timed phase. The report is
printed line by line and written to perfbench/results/; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
"""

import os

# One BLAS thread, set before numpy loads: on a 2-core machine two threads
# made repeated identical runs spread wider. The machine block records it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

SETUP_REPEATS = 9
YARDSTICK_REPEATS = 9
CLI_START_REPEATS = 5
P90_MIN_OPS = 100  # at least ten samples lie beyond the 90th percentile
PRINTED_FAILURES = 40
CLI_SUBCOMMANDS = ("verify", "matrix", "dist", "index", "bounds")
CLI_E2E_SUBCOMMANDS = ("verify", "matrix", "dist")


class Pass(NamedTuple):
    wall: float
    ops: list


def run_passes(run_pass, bh, inputs, seconds: float, oracles, inproc: bool = False, tracer=None) -> list[Pass]:
    """Repeat whole passes over the inputs; start another only if it should end in time.

    Outputs are checked against the oracle after each pass, outside the pass time.
    """
    from workloads import Recorder, settle

    passes = []
    deadline = perf_counter() + seconds
    while True:
        rec = Recorder(tracer)
        start = perf_counter()
        run_pass(bh, inputs, rec, inproc)
        wall = perf_counter() - start
        passes.append(Pass(wall, [settle(op, oracles) for op in rec.ops]))
        if perf_counter() + statistics.median(p.wall for p in passes) > deadline:
            return passes


def timed_setup(workload, bh, seed: int, workdir: Path):
    """Median over repeats of: import biharmonic in a fresh interpreter, then make and write the inputs."""
    from workloads import time_python

    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        time_python("import biharmonic")
        inputs = workload.setup(bh, seed, str(workdir))
        times.append(perf_counter() - start)
    return statistics.median(times), inputs


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of any child it waited for (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def yardstick(np, graphs) -> dict:
    """Single-threaded numpy.linalg eigh and slogdet over the workload's input sizes."""
    from oracle import laplacian

    mats = [laplacian(g.n, g.edges) for g in graphs]
    eigh, slogdet = [], []
    for _ in range(YARDSTICK_REPEATS):
        start = perf_counter()
        for a in mats:
            np.linalg.eigh(a)
        mid = perf_counter()
        for a in mats:
            np.linalg.slogdet(a[1:, 1:])
        eigh.append(mid - start)
        slogdet.append(perf_counter() - mid)
    return {
        "yardstick.numpy_eigh_s": (statistics.median(eigh), "s", YARDSTICK_REPEATS),
        "yardstick.numpy_slogdet_s": (statistics.median(slogdet), "s", YARDSTICK_REPEATS),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout if it is a git repository; git may not look above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "biharmonic").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_block(np, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _median_ms(ops, kind: str) -> tuple:
    times = [op.seconds * 1e3 for op in ops if op.kind == kind]
    return (statistics.median(times) if times else 0.0, "ms", len(times))


def end_to_end(passes: list[Pass], setup_s: float, workload: str) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the workload-specific ones that only some workloads have."""
    ops = [op for p in passes for op in p.ops]
    latency = [op.seconds * 1e3 for op in ops]
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "wall_s": (statistics.median(p.wall for p in passes), "s", len(passes)),
        "op_p50_ms": (statistics.median(latency), "ms", len(latency)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    extra = {}
    if len(latency) >= P90_MIN_OPS:
        extra["op_p90_ms"] = (statistics.quantiles(latency, n=10)[-1], "ms", len(latency))
    if workload == "cli":
        for sub in CLI_E2E_SUBCOMMANDS:
            extra[f"cli_{sub}_p50_ms"] = _median_ms(ops, f"cli.{sub}")
    return metrics, extra


def traced_run(workloads, spans, wl, bh, inputs, args, oracles) -> tuple[list, dict, dict]:
    """Untraced passes, then the same passes traced; returns (all ops, layer metrics, accounting)."""
    is_cli = args.workload == "cli"
    budget = args.seconds / (3 if is_cli else 2)
    sub_ops = []
    if is_cli:
        sub_ops = [op for p in run_passes(wl.run_pass, bh, inputs, budget, oracles) for op in p.ops]
    plain = run_passes(wl.run_pass, bh, inputs, budget, oracles, inproc=True)
    plain_ops = [op for p in plain for op in p.ops]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_passes(wl.run_pass, bh, inputs, budget, oracles, inproc=True, tracer=tracer)
    finally:
        tracer.uninstall()
    traced_ops = [op for p in traced for op in p.ops]
    ops = sub_ops + plain_ops + traced_ops

    # The cli figures read 0 on workloads that run no cli command.
    layer = tracer.layer_metrics()
    for name in CLI_E2E_SUBCOMMANDS:
        layer[f"cli_{name}_p50_ms"] = _median_ms(sub_ops, f"cli.{name}")
    for name in CLI_SUBCOMMANDS:
        layer[f"cli.{name}.inproc_ms"] = _median_ms(plain_ops, f"cli.{name}")
    for name, code in (("cli.python_ms", "pass"), ("cli.import_ms", "import biharmonic")):
        runs = [workloads.time_python(code) * 1e3 for _ in range(CLI_START_REPEATS)] if is_cli else [0.0]
        layer[name] = (statistics.median(runs), "ms", len(runs) if is_cli else 0)
    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    layer["trace.overhead_s"] = (traced_wall - plain_wall, "s", len(traced))

    # Self times partition the operations' root spans; what lies between
    # operations is the benchmark's own loop. Together they should make up
    # the traced wall time.
    wall = sum(p.wall for p in traced)
    glue = wall - sum(op.seconds for op in traced_ops)
    accounting = {
        "traced_wall_s": wall,
        "self_s_sum": tracer.self_seconds_total(),
        "benchmark_overhead_s": glue,
        "root_self_s": tracer.self_time[spans.ROOT],
        "accounted_share": (tracer.self_seconds_total() + glue) / wall if wall > 0 else 0.0,
        "top_self_s": tracer.top_self(),
        "untraced_pass_wall_s": plain_wall,
        "traced_pass_wall_s": traced_wall,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    written = tracer.write_spans(RESULTS / f"{args.workload}-seed{args.seed}-spans.csv")
    accounting["spans_recorded"] = len(tracer.spans)
    accounting["spans_written"] = written
    return ops, layer, accounting


def failures_of(ops) -> tuple[int, list]:
    """Failed operation count, and the failures grouped by input and operation."""
    grouped = Counter((op.kind, op.label, op.failure.reason, op.failure.known) for op in ops if op.failure)
    failures = [
        {"operation": kind, "input": label, "reason": reason, "known_defect": known, "count": count}
        for (kind, label, reason, known), count in sorted(grouped.items())
    ]
    return sum(grouped.values()), failures


def load_package():
    """Import numpy and the biharmonic package of this checkout, or return None."""
    if not (SRC / "biharmonic" / "__init__.py").is_file():
        print(f"error: the biharmonic package is missing: {SRC / 'biharmonic'}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import numpy as np

    import biharmonic as bh

    if Path(bh.__file__).resolve().parent != (SRC / "biharmonic").resolve():
        print(f"error: imported biharmonic from {bh.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return bh, np


def execute(args, wl, bh, np) -> dict:
    """Set up, measure and check one run; returns the full report (its "result" is the last line)."""
    import oracle
    import spans
    import workloads

    oracles = oracle.OracleCache()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, inputs = timed_setup(wl, bh, args.seed, workdir)
        if args.trace:
            ops, metrics, accounting = traced_run(workloads, spans, wl, bh, inputs, args, oracles)
            extra = {}
        else:
            passes = run_passes(wl.run_pass, bh, inputs, args.seconds, oracles)
            ops = [op for p in passes for op in p.ops]
            metrics, extra = end_to_end(passes, setup_s, args.workload)
            accounting = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, failures = failures_of(ops)
    unexpected = sum(f["count"] for f in failures if not f["known_defect"])
    stick = yardstick(np, wl.graphs(inputs))
    (metrics if args.trace else extra).update(stick)
    extra["fail_share"] = (failed / len(ops), "ratio", len(ops))
    return {
        "result": {
            "correct": unexpected == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": float(v), "unit": u} for name, (v, u, _) in metrics.items()},
        },
        "machine": machine_block(np, args),
        "metrics": {name: {"value": float(v), "unit": u, "samples": n} for name, (v, u, n) in {**metrics, **extra}.items()},
        "accounting": accounting,
        "failures": failures,
        "unexpected_failures": unexpected,
    }


def report_lines(report: dict) -> list[str]:
    """The human-readable report: machine block, every metric with its unit, failures."""
    workload = report["machine"]["workload"]
    lines = ["machine " + json.dumps(report["machine"], sort_keys=True)]
    for name, m in report["metrics"].items():
        lines.append(f"metric {name} {m['value']!r} {m['unit']} samples={m['samples']}")
    if report["accounting"]:
        lines.append("accounting " + json.dumps(report["accounting"], sort_keys=True))
    failures = report["failures"]
    for f in failures[:PRINTED_FAILURES]:
        lines.append(
            f"failure workload={workload} input={f['input']!r} operation={f['operation']} count={f['count']} "
            f"known_defect={str(f['known_defect']).lower()} reason={f['reason']!r}"
        )
    if len(failures) > PRINTED_FAILURES:
        lines.append(f"failure ... {len(failures) - PRINTED_FAILURES} more in the results file")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="biharmonic benchmark")
    parser.add_argument("--workload", required=True, choices=("verify-sparse", "verify-complete", "queries", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    loaded = load_package()
    if loaded is None:
        return 2
    bh, np = loaded
    import workloads

    report = execute(args, workloads.WORKLOADS[args.workload], bh, np)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(report_lines(report)))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
