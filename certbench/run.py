"""Certification benchmark for tcbounds: exact-output checks, timings, traces.

Usage, from the root of a checkout:

    python3 certbench/run.py --workload grid_q --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout, never from an installed
copy.  Each run is one closed-loop client: a single process, no threads, one
request (a whole workload) at a time.  The workload is repeated until
``--seconds`` have passed (at least once) and ``wall_s`` is the median.  With
``--trace 1`` the run adds one traced repetition and prints the per-layer
metrics instead.  The last line of stdout is the JSON result; the exit code is
0 only when every output check passed.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".certbench"

# 31-bit primes within 2^16 of 2^31, far above the n = 5 coefficient bound
# (about 2.3e7), so every one gives the rational span dimensions.  The narrow
# band keeps the size of the residues, and so the int arithmetic, alike
# for every seed.
PRIMES = (2147419721, 2147424359, 2147433583, 2147435929,
          2147444609, 2147445103, 2147460019, 2147475787)
# even m; `stability_check` guarantees the same product table for each
EVEN_M = (2, 4, 6, 8)

SETUP_SAMPLES = 11

FULL_SPECS = {
    "grid_q": {"m": (2, 7), "n": (2, 4)},
    "span_n5_zp": {"n": 5, "m": 2, "dims": [10, 45, 120, 210, 246, 180, 60]},
    "structure_n6": {"n": 6, "basis": 720, "samples": 100},
}


def closed_form_tc(m: int, n: int) -> int:
    """The known TC(F(R^m, n)), restated here so the check owes nothing to the program."""
    return 2 * n - 1 if m % 2 else 2 * n - 2


def call_cli(tc, argv):
    """Run `tcbounds.cli.main` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = tc.cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# workloads: `args` for the CLI, run() -> (checks attempted, checks failed)
# ---------------------------------------------------------------------------

class GridQ:
    """`grid --m 2..7 --n 2..4 --field q`: every cell pinched at the closed form."""

    def __init__(self, spec, seed, tmp):
        (m_lo, m_hi), (n_lo, n_hi) = spec["m"], spec["n"]
        self.expected = {(m, n): closed_form_tc(m, n)
                         for m in range(m_lo, m_hi + 1) for n in range(n_lo, n_hi + 1)}
        self.args = ["grid", "--m", f"{m_lo}..{m_hi}", "--n", f"{n_lo}..{n_hi}",
                     "--field", "q", "--jobs", "1", "--output", "json"]
        self.describe = f"{len(self.expected)} cells over Q (the seed has no effect)"

    def run(self, tc, info):
        rc, out = call_cli(tc, self.args)
        doc = json.loads(out)
        got = {(c["m"], c["n"]): c for c in doc["cells"]}
        failed = 0
        for cell, tc_value in self.expected.items():
            c = got.get(cell)
            if not (c and c["pinched"] and c["lower"] == c["upper"] == tc_value):
                failed += 1
        # one more check: exit code 0, no contradiction, no unexpected cell
        if rc != 0 or doc["contradictions"] or set(got) != set(self.expected):
            failed += 1
        return len(self.expected) + 1, failed


class SpanN5Zp:
    """`barspan --n 5 --m 2 --field zp:P`: the span dimensions of V_1 .. V_7."""

    def __init__(self, spec, seed, tmp):
        self.prime = PRIMES[seed % len(PRIMES)]
        self.expected = spec["dims"]
        self.args = ["barspan", "--n", str(spec["n"]), "--m", str(spec["m"]),
                     "--field", f"zp:{self.prime}", "--output", "json"]
        self.describe = f"n={spec['n']} m={spec['m']} over Z_{self.prime}"

    def run(self, tc, info):
        rc, out = call_cli(tc, self.args)
        dims = json.loads(out)["span_dims"]
        failed = sum(1 for i, d in enumerate(self.expected)
                     if i >= len(dims) or dims[i] != d)
        if rc != 0 or len(dims) != len(self.expected):
            failed += 1
        return len(self.expected) + 1, failed


class StructureN6:
    """`export-algebra --n 6 --m E`, then `load_structure_document` with sampled re-derivation."""

    def __init__(self, spec, seed, tmp):
        self.n = spec["n"]
        self.m = EVEN_M[seed % len(EVEN_M)]
        self.basis = spec["basis"]
        self.samples = spec["samples"]
        self.path = os.path.join(tmp, f"structure_n{self.n}_m{self.m}.json")
        self.args = ["export-algebra", "--n", str(self.n), "--m", str(self.m),
                     "--out", self.path, "--output", "json"]
        self.describe = f"n={self.n} m={self.m}, {self.samples} sampled products"

    def run(self, tc, info):
        rc, out = call_cli(tc, self.args)
        exported = rc == 0 and json.loads(out)["basis_size"] == self.basis
        info["document_bytes"] = os.path.getsize(self.path)
        pres = tc.algebra.Presentation(self.n, self.m)
        start = time.perf_counter()
        try:
            tc.algebra.load_structure_document(self.path, pres, samples=self.samples)
            checksum_ok = products_ok = True
        except tc.algebra.CacheError as exc:
            checksum_ok = "checksum" not in str(exc)
            products_ok = False
        info.setdefault("load_s", []).append(time.perf_counter() - start)
        os.remove(self.path)
        failed = (not exported) + (not checksum_ok) + (0 if products_ok else self.samples)
        return 2 + self.samples, failed


WORKLOADS = {"grid_q": GridQ, "span_n5_zp": SpanN5Zp, "structure_n6": StructureN6}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def import_program():
    """Import tcbounds from this checkout's src/ (and only from there)."""
    init = SRC / "tcbounds" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"certbench: {init} not found; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tcbounds
    import tcbounds.cli

    if Path(tcbounds.__file__).resolve() != init.resolve():
        raise SystemExit(f"certbench: imported {tcbounds.__file__}, not {init}")
    return tcbounds


SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tcbounds.cli
tcbounds.cli.build_parser().parse_args(sys.argv[2:])
print(time.perf_counter() - start)
"""


def measure_setup(args):
    """Median over fresh processes of importing the package and parsing the argv."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *args],
                              capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_benchmark(name, seed, seconds, trace, specs=None):
    """Set up, repeat, check and (optionally) trace one workload; returns the result dict."""
    spec = (specs or FULL_SPECS)[name]
    WORK_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        tc = import_program()
        workload = WORKLOADS[name](spec, seed, tmp)
        setup_s = measure_setup(workload.args)
        print(f"certbench: {name} seed={seed}: {workload.describe}", file=sys.stderr)

        walls, info = [], {}
        attempted = failed = 0
        begin = time.perf_counter()
        while not walls or time.perf_counter() - begin < seconds:
            start = time.perf_counter()
            a, f = workload.run(tc, info)
            walls.append(time.perf_counter() - start)
            attempted += a
            failed += f
        wall_s = statistics.median(walls)
        rss = peak_rss_mb()

        lines = [
            f"wall_s      {wall_s:.4f} s  (median of {len(walls)}: "
            + ", ".join(f"{w:.3f}" for w in walls) + ")",
            f"setup_s     {setup_s:.4f} s  (median of {SETUP_SAMPLES} fresh imports)",
            f"peak_rss_mb {rss:.1f} MB",
            f"error_rate  {failed / attempted:.4f}  ({failed} failed of {attempted} checks)",
        ]
        if "load_s" in info:
            lines.append(f"load_s      {statistics.median(info['load_s']):.4f} s  (median)")
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }

        if trace:
            tracer = Tracer()
            tracer.install(tc)
            try:
                start = time.perf_counter()
                a, f = workload.run(tc, info)
                traced_wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
            attempted += a
            failed += f
            layers = tracer.layer_metrics()
            layers["algebra.document_bytes"] = (info.get("document_bytes", 0), "bytes")
            layers["trace.overhead_ratio"] = (traced_wall / wall_s - 1.0, "ratio")
            trace_path = WORK_DIR / f"trace-{name}-seed{seed}.json"
            tracer.write(trace_path)
            lines.append(f"trace written to {trace_path}")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}

        for line in lines:
            print(line)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None, specs=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace, specs)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
