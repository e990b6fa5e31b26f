"""Command-line interface for batch certification runs.

Exit codes: 0 pinched certificate matching the closed form, 1 unpinched
bounds (or failed selftest), 2 usage or input-file error (a document that
cannot be read or written), 3 not computed: n past --max-n or out of memory
(`error: not computed: out of memory`, no traceback), 4 contradiction with
the closed form (engine bug), 141 (128 + SIGPIPE) the reader closed stdout
early, as `| head` does; the run stops quietly, without a traceback.

The TC_CACHE_DIR environment variable sets the default directory for
structure-constant documents written by `export-algebra`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional, Tuple

from .algebra import (
    AlgebraElement,
    Presentation,
    check_configuration,
    monomial_str,
    write_structure_document,
)
from .bounds import (
    BoundsReport,
    ClosedFormContradiction,
    assemble_report,
    certify_ring,
    closed_form_tc,
    report_from_ring,
)
from .coeffs import parse_field
from .tensor import TensorSquare

EXIT_PINCHED = 0
EXIT_UNPINCHED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_CONTRADICTION = 4
EXIT_PIPE = 141

_EDGE_TOKEN = re.compile(r"^e_?(\d+)[_,](\d+)$|^e(\d)(\d)$")


def parse_generator_word(text: str) -> List[Tuple[int, int]]:
    """Parse a generator word like 'e12*e13' or 'e_1_2 e_2_3' ('1' is the unit)."""
    edges = []
    for tok in re.split(r"[\s*]+", text.strip()):
        if not tok or tok == "1":
            continue
        m = _EDGE_TOKEN.match(tok)
        if not m:
            raise ValueError(
                f"cannot parse generator {tok!r}; write e_1_2 (or e12 for single digits)"
            )
        groups = [g for g in m.groups() if g is not None]
        edges.append((int(groups[0]), int(groups[1])))
    return edges


def _parse_range(text: str) -> List[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _over_cap(m: int, n: int, max_n: int) -> Optional[str]:
    """Why (m, n) is not computed, or None; a bad (n, m) raises ValueError first.

    Every computation reads m only through its parity, so n alone is capped.
    """
    check_configuration(n, m)
    if n > max_n:
        return f"(m={m}, n={n}) exceeds caps (max_n={max_n})"
    return None


def _not_computed(m: int, n: int, field, over: str) -> BoundsReport:
    """The report with no bounds for a cell past --max-n."""
    return BoundsReport(m=m, n=n, closed_form=closed_form_tc(m, n),
                        field_used=field.describe(), warnings=[f"not computed: {over}"])


def _report(m: int, n: int, field, max_n: int) -> BoundsReport:
    """The report for (m, n), with no bounds when n is past max_n."""
    over = _over_cap(m, n, max_n)
    if over is None:
        return assemble_report(m, n, field=field)
    return _not_computed(m, n, field, over)


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    field = parse_field(args.field)
    try:
        report = _report(args.m, args.n, field, args.max_n)
    except ClosedFormContradiction as exc:
        print(f"CONTRADICTION: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION
    _emit(args, report.to_json_dict(), report.text_lines())
    if not report.computed:
        print(f"error: {report.warnings[-1]}", file=sys.stderr)  # "not computed: ..."
        return EXIT_CAP
    return EXIT_PINCHED if report.pinched else EXIT_UNPINCHED


def _grid_ring(task):
    """The `certify_ring` pair of one ring task (m, n, field text), in-process or in a worker."""
    m, n, field_text = task
    return certify_ring(m, n, parse_field(field_text))


def cmd_grid(args) -> int:
    """Certify every (m, n) cell of a rectangle, each distinct ring once.

    Every cell is checked, in sorted order, before any ring work, so a bad
    cell fails first with the message `report` would print.  The ring reads
    m only through its parity, so the cells with the same n and parity of m
    share one `certify_ring` call, in-process or as one pool task, with at
    most one worker per ring.  The memo of those pairs lives for this call
    only.  Each cell's report is then assembled here, and a contradiction
    with the closed form is reported per cell.
    """
    try:
        m_values = _parse_range(args.m)
        n_values = _parse_range(args.n)
    except ValueError:
        print(f"error: bad range {args.m!r} / {args.n!r}", file=sys.stderr)
        return EXIT_USAGE
    cells = sorted((m, n) for m in m_values for n in n_values)
    if not cells:
        print(f"error: empty grid: --m {args.m} --n {args.n} has no cells", file=sys.stderr)
        return EXIT_USAGE
    field = parse_field(args.field)
    over = {(m, n): _over_cap(m, n, args.max_n) for m, n in cells}
    # ring (n, m mod 2) -> the first m that needs it
    rings = {}
    for (m, n), why in over.items():
        if why is None:
            rings.setdefault((n, m % 2), m)
    tasks = [(m, n, args.field) for (n, _), m in rings.items()]
    # the pool starts all its workers at once: never more than there are rings
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_grid_ring, tasks))
        except BrokenProcessPool as exc:
            # a worker killed (out of memory, a signal) takes its rings with it
            print(f"error: grid worker died: {exc}", file=sys.stderr)
            return EXIT_CAP
    else:
        results = [_grid_ring(t) for t in tasks]
    memo = dict(zip(rings, results))

    reports, contradictions = [], []
    for (m, n), why in over.items():
        if why is not None:
            reports.append(_not_computed(m, n, field, why))
            continue
        try:
            reports.append(report_from_ring(m, n, field, *memo[n, m % 2]))
        except ClosedFormContradiction as exc:
            contradictions.append((m, n, str(exc)))

    pinched = sum(1 for r in reports if r.pinched)
    uncomputed = sum(1 for r in reports if not r.computed)
    lines = []
    for r in reports:
        val = f"TC={r.lower}" if r.pinched else (
            f"{r.lower}..{r.upper}" if r.computed else "unknown")
        lines.append(
            f"m={r.m} n={r.n} closed={r.closed_form} {val} "
            f"pinched={'yes' if r.pinched else 'no'}"
        )
    for m, n, msg in contradictions:
        lines.append(f"m={m} n={n} CONTRADICTION: {msg}")
    lines.append(f"pinched {pinched}/{len(cells)}")
    payload = {
        "cells": [r.to_json_dict() for r in reports],
        "contradictions": [
            {"m": m, "n": n, "message": msg} for m, n, msg in contradictions
        ],
        "pinched": pinched,
        "total": len(cells),
    }
    _emit(args, payload, lines)
    if contradictions:
        return EXIT_CONTRADICTION
    if uncomputed:
        return EXIT_CAP
    if pinched < len(cells):
        return EXIT_UNPINCHED
    return EXIT_PINCHED


def cmd_basis(args) -> int:
    pres = Presentation(args.n, args.m)
    words = pres.basis(args.k)
    payload = {
        "n": args.n,
        "m": args.m,
        "k": args.k,
        "degree": args.k * pres.degree,
        "monomials": [[list(e) for e in w] for w in words],
    }
    _emit(args, payload, [monomial_str(w) for w in words])
    return 0


def cmd_multiply(args) -> int:
    pres = Presentation(args.n, args.m)
    field = parse_field(args.field)
    out = AlgebraElement.one(pres, field)
    for text in args.words:
        word = parse_generator_word(text)
        out = out * AlgebraElement.from_word(pres, field, word)
    payload = {
        "n": args.n,
        "m": args.m,
        "field": field.describe(),
        "terms": [
            [[list(e) for e in w], str(c)]
            for w, c in sorted(out.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ],
    }
    _emit(args, payload, [repr(out)])
    return 0


def _tensor_square(args) -> Optional[TensorSquare]:
    """The tensor square for --n/--m/--field, or None (reported) past --max-n."""
    field = parse_field(args.field)
    over = _over_cap(args.m, args.n, args.max_n)
    if over is not None:
        print(f"error: not computed: {over}", file=sys.stderr)
        return None
    return TensorSquare(Presentation(args.n, args.m), field)


def cmd_zcl(args) -> int:
    square = _tensor_square(args)
    if square is None:
        return EXIT_CAP
    # the zero-divisor lemma: the cup-length is the bar-span length
    zcl = square.bar_span_length_certified()
    payload = {
        "n": args.n,
        "m": args.m,
        "field": square.field.describe(),
        "zero_divisor_cuplength": zcl,
        "tc_lower_bound": zcl + 1,
    }
    _emit(args, payload, [
        f"zero_divisor_cuplength = {zcl}",
        f"TC >= {zcl + 1}",
    ])
    return 0


def cmd_barspan(args) -> int:
    square = _tensor_square(args)
    if square is None:
        return EXIT_CAP
    dims = square.bar_span_profile()
    witness = square.bar_span_witness()
    payload = {
        "n": args.n,
        "m": args.m,
        "field": square.field.describe(),
        "bar_span_length": len(dims),
        "span_dims": dims,
        "witness": [list(e) for e in witness],
    }
    _emit(args, payload, [
        f"bar_span_length = {len(dims)}",
        f"span dimensions by power: {dims}",
        "witness = " + ("*".join(f"bar(e_{i}_{j})" for i, j in witness) or "1"),
    ])
    return 0


def cmd_selftest(args) -> int:
    # loaded here, so no other command compiles the fuzz suites
    from . import selftest

    if args.cache is not None:
        # an unreadable file is an input error, found before any suite runs
        try:
            with open(args.cache) as fh:
                document = json.load(fh)
        except (OSError, ValueError) as exc:  # a JSON or UTF-8 decode error is a ValueError
            print(f"error: cannot read document {args.cache}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    results = selftest.run_all(seed=args.seed, samples=args.samples, shuffles=args.shuffles)
    if args.cache is not None:
        results.append(selftest.suite_cache(document))
    ok = all(r.passed for r in results)
    if args.output == "json":
        print(json.dumps({
            "passed": ok,
            "suites": [
                {"name": r.name, "passed": r.passed, "cases": r.cases,
                 "failures": r.failures}
                for r in results
            ],
        }, sort_keys=True))
    else:
        for r in results:
            print(r.line())
        print("all suites passed" if ok else "SELFTEST FAILED")
    return 0 if ok else EXIT_UNPINCHED


def cmd_export_algebra(args) -> int:
    pres = Presentation(args.n, args.m)
    path = args.out
    # a path that cannot be written is an input error, like an unreadable --cache
    try:
        if path is None:
            base = os.environ.get("TC_CACHE_DIR", ".")
            path = os.path.join(base, f"structure_n{args.n}_m{args.m}.json")
            os.makedirs(base, exist_ok=True)
        checksum = write_structure_document(pres, path)
    except OSError as exc:
        print(f"error: cannot write document {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    basis_size = len(pres.full_basis())
    if args.output == "json":
        print(json.dumps({"path": path, "basis_size": basis_size,
                          "checksum": checksum}, sort_keys=True))
    else:
        print(f"wrote {path} ({basis_size} basis monomials, "
              f"checksum {checksum[:12]}...)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcbounds",
        description="Certified TC bounds for configuration spaces of points in R^m.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, field=True, caps=True):
        p.add_argument("--output", choices=("text", "json"), default="text")
        if field:
            p.add_argument("--field", default="q",
                           help="coefficients: q (default) or zp:P for a prime P")
        if caps:
            p.add_argument("--max-n", type=int, default=5)

    p = sub.add_parser("report", help="certify TC(F(R^m, n))")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("grid", help="certify a rectangle of (m, n) values")
    p.add_argument("--m", required=True, help="value or range (e.g. 2..5)")
    p.add_argument("--n", required=True, help="value or range (e.g. 2..3)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes, at most one per ring (default 1)")
    add_common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("basis", help="list admissible monomials with k factors")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p, field=False, caps=False)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("multiply", help="multiply generator words into normal form")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("words", nargs="+", metavar="WORD",
                   help="e.g. 'e12*e13' or 'e_1_2'")
    add_common(p, caps=False)
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("zcl", help="zero-divisor cup-length")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_zcl)

    p = sub.add_parser("barspan", help="longest nonzero product of barred generators")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_barspan)

    p = sub.add_parser("selftest", help="run the invariant fuzz suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--shuffles", type=_positive_int, default=100)
    p.add_argument("--cache", default=None,
                   help="also fully re-verify this structure-constant document")
    add_common(p, field=False, caps=False)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("export-algebra", help="write the structure-constant document")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None,
                   help="output path (default: $TC_CACHE_DIR/structure_n{n}_m{m}.json)")
    add_common(p, field=False, caps=False)
    p.set_defaults(func=cmd_export_algebra)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        # a reader that closed stdout shows here, not in the interpreter's final flush
        sys.stdout.flush()
        return code
    except MemoryError:
        # reported below: inside this clause the traceback still holds the
        # failed frames and the memory they filled, so printing could run
        # out of memory a second time
        pass
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the interpreter flushes stdout on exit: point it at devnull so the
        # output still buffered cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    print("error: not computed: out of memory", file=sys.stderr)
    return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
