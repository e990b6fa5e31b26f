"""Smoke test of the certification benchmark on tiny variants (n <= 3).

Run from the root of a checkout:

    python3 certbench/smoke.py

It checks that every workload prints exactly the metrics BENCHMARK.json names,
with their units, traced and untraced; that a deliberately wrong expected
value is reported as a failure (so the output gate cannot pass vacuously);
and that without the program's sources the benchmark exits nonzero and prints
no result.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run

TINY_SPECS = {
    "grid_q": {"m": (2, 3), "n": (2, 3)},
    "span_n5_zp": {"n": 3, "m": 2, "dims": [3, 3, 1]},
    "structure_n6": {"n": 3, "basis": 6, "samples": 100},
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload, trace=0, specs=TINY_SPECS):
    """Run one tiny workload in-process; returns (exit code, result dict)."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        rc = run.main(argv, specs=specs)
    return rc, json.loads(out.getvalue().splitlines()[-1])


def expect(cond, message, problems):
    if not cond:
        problems.append(message)


def check_metrics(problems):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    names = [w["name"] for w in declared["workloads"]]
    expect(sorted(names) == sorted(run.WORKLOADS), f"workloads {names} != run.py's", problems)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[key]}
        for workload in names:
            rc, result = bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(rc == 0 and result["correct"], f"{tag}: tiny run failed", problems)
            expect(set(result) == RESULT_KEYS, f"{tag}: result keys {sorted(result)}", problems)
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{tag}: attempted {result['attempted']}, failed {result['failed']}", problems)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{tag}: metrics {got} != declared {units}", problems)


def check_gate(problems):
    wrong = json.loads(json.dumps(TINY_SPECS))
    wrong["span_n5_zp"]["dims"] = [3, 3, 2]
    wrong["structure_n6"]["basis"] = 7
    for workload in ("span_n5_zp", "structure_n6"):
        rc, result = bench(workload, specs=wrong)
        expect(rc != 0 and not result["correct"] and result["failed"] >= 1,
               f"{workload}: a wrong expected value passed the gate", problems)
    closed_form = run.closed_form_tc
    run.closed_form_tc = lambda m, n: closed_form(m, n) + 1
    try:
        rc, result = bench("grid_q")
    finally:
        run.closed_form_tc = closed_form
    expect(rc != 0 and not result["correct"] and result["failed"] >= 4,
           "grid_q: a wrong closed form passed the gate", problems)


def check_without_sources(problems):
    run.WORK_DIR.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK_DIR)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, f"{bare}/{run.BENCH_DIR.name}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "grid_q",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           f"without src/: exit {done.returncode}, stdout {done.stdout!r}", problems)


def main() -> int:
    problems = []
    check_metrics(problems)
    check_gate(problems)
    check_without_sources(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
