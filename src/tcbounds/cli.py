"""Command-line interface for batch certification runs.

Exit codes: 0 pinched certificate matching the closed form, 1 unpinched
bounds, 2 usage or input-file error (a document that cannot be written, or an
answer past Python's limit on the digits of a printed integer),
3 not computed: a grid past its cell limit (`WORK_LIMIT`), a barspan whose
route echelons in a square past `SPAN_LIMIT`, a dead grid worker or out of
memory (one `error: ...` line, no traceback),
4 contradiction (engine bug: a fact of the certificate failed or a report
left the closed form; one `CONTRADICTION: ...` line, or grid's cell lines),
141 (128 + SIGPIPE) the reader closed stdout early, as `| head` does; the
run stops quietly, without a traceback.

The TC_CACHE_DIR environment variable sets the default directory for
structure-constant documents written by `export-algebra`.
"""

from __future__ import annotations

import argparse
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
    ClosedFormContradiction,
    assemble_report,
    certify_ring,
    report_from_ring,
    zero_divisor_cuplength,
)
from .coeffs import parse_field

EXIT_PINCHED = 0
EXIT_UNPINCHED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_CONTRADICTION = 4
EXIT_PIPE = 141

# cells of a grid whose m and n have under 50 digits in all: a process
# straightens the 13 two-letter patterns once per parity and min(n, 4), so a
# grid's time and output grow with its cells
WORK_LIMIT = 10_000

# the dimension of the square that barspan's route echelons in, (n!)^2 or,
# where the ring splits at the decone, (n!/2)^2: the full route up to n = 5,
# the split one up to n = 6
SPAN_LIMIT = 360 ** 2

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


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    value = int(text)
    return range(value, value + 1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.output == "json":
        import json  # a text run never loads it
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    field = parse_field(args.field)
    report = assemble_report(args.m, args.n, field=field)
    _emit(args, report.to_json_dict(), report.text_lines())
    return EXIT_PINCHED if report.pinched else EXIT_UNPINCHED


def _grid_ring(task):
    """The `certify_ring` pair of one ring task (m, n, field text), in-process or in a worker."""
    m, n, field_text = task
    return certify_ring(m, n, parse_field(field_text))


def cmd_grid(args) -> int:
    """Certify every (m, n) cell of a rectangle, each distinct ring once.

    The first cell, which is bad whenever any cell is, and then the cell
    count, against `WORK_LIMIT`, are read off the two ranges before any cell
    is listed, so a bad cell fails first with the message `report` would
    print.  The ring reads m only through its parity, so the
    cells with the same n and parity of m share one `certify_ring` call,
    in-process or as one pool task, with at most one worker per ring.  The
    memo of those pairs lives for this call only.  Each cell's report is
    then assembled here, and a contradiction with the closed form is
    reported per cell.  Only the output asked for is built: text prints
    each cell's line as its report is made, JSON collects the cells.
    """
    try:
        m_values = _parse_range(args.m)
        n_values = _parse_range(args.n)
    except ValueError:
        print(f"error: bad range {args.m!r} / {args.n!r}", file=sys.stderr)
        return EXIT_USAGE
    if not (m_values and n_values):
        print(f"error: empty grid: --m {args.m} --n {args.n} has no cells", file=sys.stderr)
        return EXIT_USAGE
    field = parse_field(args.field)
    check_configuration(n_values[0], m_values[0])
    # arithmetic on the bounds, since len() of a range past sys.maxsize raises;
    # a cell's numbers have about as many digits as its m and n together, so
    # the limit shrinks by one share per 50 of those digits
    count = (m_values.stop - m_values.start) * (n_values.stop - n_values.start)
    limit = WORK_LIMIT // (1 + len(f"{m_values[-1]}{n_values[-1]}") // 50)
    if count > limit:
        print(f"error: not computed: the grid holds {count} cells, "
              f"past the limit of {limit}", file=sys.stderr)
        return EXIT_CAP
    cells = [(m, n) for m in m_values for n in n_values]  # in sorted order
    # ring (n, m mod 2) -> the first m that needs it
    rings = {}
    for m, n in cells:
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

    # no cell prints a number longer than 2n - 1 at the largest n: one past the
    # limit on printed digits fails here, before any cell's line is printed
    str(2 * n_values[-1] - 1)
    text = args.output == "text"
    json_cells, contradictions, pinched = [], [], 0
    for m, n in cells:
        try:
            r = report_from_ring(m, n, field, *memo[n, m % 2])
        except ClosedFormContradiction as exc:
            contradictions.append((m, n, str(exc)))
            continue
        pinched += r.pinched
        if text:
            val = f"TC={r.lower}" if r.pinched else f"{r.lower}..{r.upper}"
            print(f"m={m} n={n} closed={r.closed_form} {val} "
                  f"pinched={'yes' if r.pinched else 'no'}")
        else:
            json_cells.append(r.to_json_dict())
    if text:
        for m, n, msg in contradictions:
            print(f"m={m} n={n} CONTRADICTION: {msg}")
        print(f"pinched {pinched}/{len(cells)}")
    else:
        _emit(args, {
            "cells": json_cells,
            "contradictions": [
                {"m": m, "n": n, "message": msg} for m, n, msg in contradictions
            ],
            "pinched": pinched,
            "total": len(cells),
        }, [])
    if contradictions:
        return EXIT_CONTRADICTION
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


def cmd_zcl(args) -> int:
    field = parse_field(args.field)
    # the zero-divisor lemma: the cup-length is the bar-span length
    zcl = zero_divisor_cuplength(Presentation(args.n, args.m), field)
    payload = {"n": args.n, "m": args.m, "field": field.describe(),
               "zero_divisor_cuplength": zcl, "tc_lower_bound": zcl + 1}
    _emit(args, payload, [f"zero_divisor_cuplength = {zcl}", f"TC >= {zcl + 1}"])
    return 0


def cmd_barspan(args) -> int:
    from .tensor import TensorSquare  # the one command that builds a tensor square
    field = parse_field(args.field)
    square = TensorSquare(Presentation(args.n, args.m), field)
    # the route echelons in a square of dimension N^2: N = n!, or n!/2 where
    # the ring splits at the decone; the product stops once past the limit
    split = square._decone_splits()
    side, route = 1, "(n!/2)^2" if split else "(n!)^2"
    for k in range(3 if split else 2, args.n + 1):
        side *= k
        if side * side > SPAN_LIMIT:
            print(f"error: not computed: (m={args.m}, n={args.n}) over {field.describe()} "
                  f"echelons in a square of dimension {route}, past the limit of {SPAN_LIMIT}",
                  file=sys.stderr)
            return EXIT_CAP
    dims = square.bar_span_profile()
    witness = square.bar_span_witness()
    payload = {"n": args.n, "m": args.m, "field": square.field.describe(),
               "bar_span_length": len(dims), "span_dims": dims,
               "witness": [list(e) for e in witness]}
    _emit(args, payload, [
        f"bar_span_length = {len(dims)}",
        f"span dimensions by power: {dims}",
        "witness = " + ("*".join(f"bar(e_{i}_{j})" for i, j in witness) or "1"),
    ])
    return 0


def cmd_export_algebra(args) -> int:
    pres = Presentation(args.n, args.m)
    path = args.out
    # a path that cannot be written is an input error
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
        import json
        print(json.dumps({"path": path, "basis_size": basis_size,
                          "checksum": checksum}, sort_keys=True))
    else:
        print(f"wrote {path} ({basis_size} basis monomials, "
              f"checksum {checksum[:12]}...)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# name -> (help, func, options): each option is (flag, add_argument keywords)
_M_N = (("--m", {"type": int, "required": True}), ("--n", {"type": int, "required": True}))
_OUTPUT = (("--output", {"choices": ("text", "json"), "default": "text"}),)
_FIELD = (("--field", {"default": "q", "help": "coefficients: q (default) or zp:P for a prime P"}),)
_RING = _M_N + _OUTPUT + _FIELD
COMMANDS = {
    "report": ("certify TC(F(R^m, n))", cmd_report, _RING),
    "grid": ("certify a rectangle of (m, n) values", cmd_grid, (
        ("--m", {"required": True, "help": "value or range (e.g. 2..5)"}),
        ("--n", {"required": True, "help": "value or range (e.g. 2..3)"}),
        ("--jobs", {"type": _positive_int, "default": 1,
                    "help": "worker processes, at most one per ring (default 1)"}),
    ) + _RING[2:]),
    "basis": ("list admissible monomials with k factors", cmd_basis,
              _M_N + (("--k", {"type": int, "required": True}),) + _OUTPUT),
    "multiply": ("multiply generator words into normal form", cmd_multiply, _M_N + (
        ("words", {"nargs": "+", "metavar": "WORD", "help": "e.g. 'e12*e13' or 'e_1_2'"}),
    ) + _OUTPUT + _FIELD),
    "zcl": ("zero-divisor cup-length", cmd_zcl, _RING),
    "barspan": ("longest nonzero product of barred generators", cmd_barspan,
                _RING),
    "export-algebra": ("write the structure-constant document", cmd_export_algebra, _M_N + (
        ("--out", {"default": None,
                   "help": "output path (default: $TC_CACHE_DIR/structure_n{n}_m{m}.json)"}),
    ) + _OUTPUT),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command in `COMMANDS`, or of `command` alone, with one usage line.

    The one-command tree names every command in its metavar; the full tree
    leaves it unset, so its errors name the argument `command`.
    """
    parser = argparse.ArgumentParser(
        prog="tcbounds",
        description="Certified TC bounds for configuration spaces of points in R^m.",
    )
    every = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in COMMANDS if command is None else [command]:
        help_text, func, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a run parses one command: build only its parser, unless argv names none
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
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
    except ClosedFormContradiction as exc:
        # raised before any output, in this process or in a grid worker
        print(f"CONTRADICTION: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except BrokenPipeError:
        # the interpreter flushes stdout on exit: point it at devnull so the
        # output still buffered cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    print("error: not computed: out of memory", file=sys.stderr)
    return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
