"""Self-test of the benchmark itself, on tiny inputs (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that:
  * a tiny run of each workload reports every metric BENCHMARK.json names,
    with BENCHMARK.json's unit, and prints each one;
  * an injected wrong value and an injected non-finite value are counted as
    failed operations and raise fail_share;
  * traced self times plus the benchmark's own overhead account for the
    traced wall time;
  * layer_map.json cites only metrics and workloads that exist, and states
    the oracle tolerance the oracle uses;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
"""

import argparse
import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread pins before numpy loads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))

FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def tiny_workloads(workloads):
    """Each workload's own pass on a few small graphs (K100 kept: it holds the known det overflow)."""
    w = workloads.WORKLOADS
    return {
        "verify-sparse": w["verify-sparse"]._replace(setup=functools.partial(w["verify-sparse"].setup, sizes=(8, 10))),
        "verify-complete": w["verify-complete"]._replace(setup=functools.partial(w["verify-complete"].setup, sizes=(6, 9))),
        "queries": w["queries"]._replace(
            setup=functools.partial(w["queries"].setup, sparse_sizes=(8, 12), complete_sizes=(100,))
        ),
        "cli": w["cli"]._replace(
            setup=functools.partial(w["cli"].setup, sparse_size=10, complete_size=100, verify_sizes=(8,), verify_complete=(5,))
        ),
    }


def tiny_run(bh, np, wl, name: str, trace: int) -> dict:
    args = argparse.Namespace(workload=name, seed=7, seconds=0.01, trace=trace)
    return run.execute(args, wl, bh, np)


def check_metrics(bh, np, tiny) -> None:
    wanted = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}
    for name, wl in tiny.items():
        for trace in (0, 1):
            report = tiny_run(bh, np, wl, name, trace)
            result = report["result"]
            metrics = result["metrics"]
            names = [m["name"] for m in wanted[trace]]
            expect(sorted(metrics) == sorted(names), f"{name} trace={trace}: result holds exactly the BENCHMARK.json metrics")
            units_ok = all(metrics.get(m["name"], {}).get("unit") == m["unit"] for m in wanted[trace])
            expect(units_ok, f"{name} trace={trace}: every metric carries its BENCHMARK.json unit")
            lines = run.report_lines(report)
            printed = all(any(line.startswith(f"metric {m['name']} ") and line.split()[3] == m["unit"] for line in lines)
                          for m in wanted[trace])
            expect(printed, f"{name} trace={trace}: every metric is printed with its unit")
            expect(result["correct"], f"{name} trace={trace}: no unexpected failure")
            finite = all(math.isfinite(m["value"]) for m in metrics.values())
            expect(finite and result["attempted"] >= 1, f"{name} trace={trace}: finite values, attempted >= 1")
            if name == "queries" and trace == 0:
                check_known_defects(report)
            if name == "verify-sparse" and trace == 1:
                check_accounting(report)


def check_known_defects(report) -> None:
    """At K100 the det route overflows; each listed failure must be that known defect."""
    det_ops = {"biharmonic_determinant", "all_methods", "spanning_tree_count"}
    failures = report["failures"]
    ok = all(f["known_defect"] and f["operation"] in det_ops and f["input"].startswith("K") for f in failures)
    expect(ok, f"queries: {len(failures)} listed failures are all the known det-route overflow on K_n")


def check_accounting(report) -> None:
    acc = report["accounting"]
    share = acc["accounted_share"]
    expect(0.98 <= share <= 1.02, f"verify-sparse traced: self times + overhead = {share:.4f} of traced wall")
    expect(acc["self_s_sum"] <= acc["traced_wall_s"], "verify-sparse traced: self times do not exceed the wall time")
    layer = report["metrics"]
    jacobi = layer["linalg.jacobi_eigh.self_s"]["value"]
    expect(jacobi > 0.0 and layer["linalg.eigendecompose.repeat_share"]["value"] > 0.0,
           "verify-sparse traced: Jacobi time and repeated eigendecompositions are seen")


def check_injection(bh, np, tiny) -> None:
    """A wrong route value and a non-finite index must both show up as failures."""
    baseline = tiny_run(bh, np, tiny["queries"], "queries", 0)
    originals = bh.biharmonic_pinv_entries, bh.kirchhoff_index
    bh.biharmonic_pinv_entries = lambda *a: originals[0](*a) * (1.0 + 1e-6)
    bh.kirchhoff_index = lambda *a: float("nan")
    try:
        injected = tiny_run(bh, np, tiny["queries"], "queries", 0)
    finally:
        bh.biharmonic_pinv_entries, bh.kirchhoff_index = originals
    base, bad = baseline["result"], injected["result"]
    expect(bad["failed"] > base["failed"], f"injection: failed {base['failed']} -> {bad['failed']}")
    share = injected["metrics"]["fail_share"]["value"]
    expect(share > baseline["metrics"]["fail_share"]["value"], f"injection: fail_share rises to {share:.3f}")
    expect(not bad["correct"], "injection: correct is false")
    kinds = {f["operation"] for f in injected["failures"] if not f["known_defect"]}
    expect({"biharmonic_pinv_entries", "kirchhoff_index"} <= kinds, f"injection: listed operations {sorted(kinds)}")


def check_layer_map(oracle, runnable) -> None:
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]} | set(LAYER_MAP["workload_metrics"])
    gated = {w["name"] for w in BENCHMARK["workloads"]}
    workloads = gated | set(LAYER_MAP["extra_workloads"])
    expect(workloads == set(runnable), f"layer map: BENCHMARK.json and extra workloads are the runnable ones {sorted(runnable)}")
    for entry in LAYER_MAP["layer_map"]:
        missing = [m for m in entry["layer_metrics"] if m not in per_layer]
        expect(not missing, f"layer map: {entry['layer_metrics'][0]}... names per-layer metrics that exist {missing}")
        cited = entry["moves"] + entry["unchanged"]
        bad = [c for c in cited if c["metric"] not in e2e or c["workload"] not in workloads]
        expect(not bad, f"layer map: {entry['layer_metrics'][0]}... cites existing end-to-end metrics {bad}")
    tol = LAYER_MAP["oracle"]
    expect(tol["relative_tolerance"] == oracle.TOLERANCE and tol["absolute_floor"] == oracle.ABS_FLOOR,
           "layer map: oracle tolerance matches oracle.py")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: the run must fail without a result line."""
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
        shutil.copy2(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"bare directory: exit code {proc.returncode}, no result printed")


def main() -> int:
    loaded = run.load_package()
    if loaded is None:
        return 2
    bh, np = loaded
    import oracle
    import workloads

    tiny = tiny_workloads(workloads)
    check_metrics(bh, np, tiny)
    check_injection(bh, np, tiny)
    check_layer_map(oracle, workloads.WORKLOADS)
    check_bare_directory()
    print(f"{len(FAILURES)} self-test failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
