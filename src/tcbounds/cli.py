"""Command-line interface for batch certification runs.

Exit codes: 0 pinched certificate matching the closed form, 1 unpinched
bounds (or failed selftest), 2 usage or input-file error, 3 resource cap
exceeded, 4 contradiction with the closed form (engine bug).

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
    load_structure_document,
    monomial_str,
    write_structure_document,
)
from .bounds import (
    BoundsReport,
    CapExceeded,
    Caps,
    ClosedFormContradiction,
    assemble_report,
    capped_report,
)
from .coeffs import QQ, parse_field
from .selftest import run_all
from .tensor import TensorSquare

EXIT_PINCHED = 0
EXIT_UNPINCHED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_CONTRADICTION = 4

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


def _caps(args) -> Caps:
    return Caps(max_n=args.max_n, max_m=args.max_m)


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_cache(args, pres: Presentation) -> Optional[int]:
    if getattr(args, "cache", None) is None:
        return None
    try:
        load_structure_document(args.cache, pres)
    except (OSError, ValueError) as exc:  # CacheError is a ValueError
        print(f"error: cannot use cache {args.cache}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    field = parse_field(args.field)
    try:
        _caps(args).check(args.m, args.n)
    except CapExceeded as exc:
        report = capped_report(args.m, args.n, field=field, caps=_caps(args))
        _emit(args, report.to_json_dict(), report.text_lines())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    pres = Presentation(args.n, args.m)
    rc = _load_cache(args, pres)
    if rc is not None:
        return rc
    try:
        report = assemble_report(args.m, args.n, field=field, caps=_caps(args),
                                 pres=pres)
    except ClosedFormContradiction as exc:
        print(f"CONTRADICTION: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION
    _emit(args, report.to_json_dict(), report.text_lines())
    return EXIT_PINCHED if report.pinched else EXIT_UNPINCHED


def _grid_cell(task):
    m, n, field_text, max_n, max_m = task
    field = parse_field(field_text)
    caps = Caps(max_n=max_n, max_m=max_m)
    try:
        return ("ok", assemble_report(m, n, field=field, caps=caps))
    except CapExceeded:
        return ("cap", capped_report(m, n, field=field, caps=caps))
    except ClosedFormContradiction as exc:
        return ("contradiction", str(exc))


def cmd_grid(args) -> int:
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
    tasks = [(m, n, args.field, args.max_n, args.max_m) for m, n in cells]
    # the pool starts all its workers at once: never more than there are cells
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_grid_cell, tasks))
        except BrokenProcessPool as exc:
            # a worker killed (out of memory, a signal) takes its cells with it
            print(f"error: grid worker died: {exc}", file=sys.stderr)
            return EXIT_CAP
    else:
        results = [_grid_cell(t) for t in tasks]

    reports, contradictions = [], []
    for (m, n), (status, payload) in zip(cells, results):
        if status == "contradiction":
            contradictions.append((m, n, payload))
        else:
            reports.append(payload)

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
    rc = _load_cache(args, pres)
    if rc is not None:
        return rc
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


def _tensor_square(args) -> Tuple[Optional[TensorSquare], Optional[int]]:
    """The tensor square for --n/--m/--field after the caps and --cache checks.

    Returns (square, None), or (None, exit code) when a check fails.
    """
    field = parse_field(args.field)
    try:
        _caps(args).check(args.m, args.n)
    except CapExceeded as exc:
        print(f"error: not computed: {exc}", file=sys.stderr)
        return None, EXIT_CAP
    pres = Presentation(args.n, args.m)
    rc = _load_cache(args, pres)
    if rc is not None:
        return None, rc
    return TensorSquare(pres, field), None


def cmd_zcl(args) -> int:
    square, rc = _tensor_square(args)
    if square is None:
        return rc
    # the zero-divisor lemma: the cup-length is the bar-span length
    zcl = square.bar_span_length()
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
    square, rc = _tensor_square(args)
    if square is None:
        return rc
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
    results = run_all(
        seed=args.seed,
        samples=args.samples,
        shuffles=args.shuffles,
        cache_path=args.cache,
    )
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
    if path is None:
        base = os.environ.get("TC_CACHE_DIR", ".")
        os.makedirs(base, exist_ok=True)
        path = os.path.join(base, f"structure_n{args.n}_m{args.m}.json")
    doc = write_structure_document(pres, path)
    if args.output == "json":
        print(json.dumps({"path": path, "basis_size": len(doc["basis"]),
                          "checksum": doc["checksum"]}, sort_keys=True))
    else:
        print(f"wrote {path} ({len(doc['basis'])} basis monomials, "
              f"checksum {doc['checksum'][:12]}...)")
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

    def add_common(p, field=True, caps=True, cache=False):
        p.add_argument("--output", choices=("text", "json"), default="text")
        if field:
            p.add_argument("--field", default="q",
                           help="coefficients: q (default) or zp:P for a prime P")
        if caps:
            p.add_argument("--max-n", type=int, default=Caps.max_n)
            p.add_argument("--max-m", type=int, default=Caps.max_m)
        if cache:
            p.add_argument("--cache", default=None,
                           help="structure-constant document to load (verified)")

    p = sub.add_parser("report", help="certify TC(F(R^m, n))")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p, cache=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("grid", help="certify a rectangle of (m, n) values")
    p.add_argument("--m", required=True, help="value or range (e.g. 2..5)")
    p.add_argument("--n", required=True, help="value or range (e.g. 2..3)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes, at most one per cell (default 1)")
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
    add_common(p, caps=False, cache=True)
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("zcl", help="zero-divisor cup-length")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p, cache=True)
    p.set_defaults(func=cmd_zcl)

    p = sub.add_parser("barspan", help="longest nonzero product of barred generators")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p, cache=True)
    p.set_defaults(func=cmd_barspan)

    p = sub.add_parser("selftest", help="run the invariant fuzz suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--shuffles", type=int, default=100)
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
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
