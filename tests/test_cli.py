"""Command-line surface: options, output formats, exit codes, document checks."""

import argparse
import ast
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tcbounds.algebra
import tcbounds.bounds
import tcbounds.cli
from tcbounds.algebra import Presentation, _two_letter_patterns
from tcbounds.cli import (
    EXIT_CAP,
    EXIT_CONTRADICTION,
    EXIT_PINCHED,
    EXIT_PIPE,
    EXIT_UNPINCHED,
    EXIT_USAGE,
    SPAN_LIMIT,
    WORK_LIMIT,
    main,
    parse_generator_word,
)
from tcbounds.tensor import TensorElement, TensorSquare


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- word parsing -----------------------------------------------------------------

def test_parse_words():
    assert parse_generator_word("e12*e13") == [(1, 2), (1, 3)]
    assert parse_generator_word("e_1_2 e_2_3") == [(1, 2), (2, 3)]
    assert parse_generator_word("e_10_12") == [(10, 12)]
    assert parse_generator_word("1") == []
    with pytest.raises(ValueError):
        parse_generator_word("x12")


# -- report ------------------------------------------------------------------------

def test_report_json_pinched(capsys):
    code, out, _ = run(capsys, "report", "--m", "4", "--n", "3",
                       "--field", "q", "--output", "json")
    assert code == EXIT_PINCHED
    data = json.loads(out)
    assert data["m"] == 4 and data["n"] == 3
    assert data["lower"] == 4 and data["upper"] == 4
    assert data["closed_form"] == 4 and data["pinched"] is True


def test_report_json_matches_readme_schema(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Report schema", 1)[1]
    documented = section.split("```json\n", 1)[1].split("```", 1)[0]
    code, out, _ = run(capsys, "report", "--m", "4", "--n", "3", "--output", "json")
    assert code == EXIT_PINCHED
    assert json.loads(out) == json.loads(documented)


def test_report_text_sphere(capsys):
    code, out, _ = run(capsys, "report", "--m", "3", "--n", "2")
    assert code == EXIT_PINCHED
    assert "pinched     : yes" in out
    assert "TC = 3" in out


def test_report_mod2_unpinched(capsys):
    code, out, _ = run(capsys, "report", "--m", "3", "--n", "2", "--field", "zp:2")
    assert code == EXIT_UNPINCHED
    assert "lower bound : 2" in out
    assert "warning" in out


def test_report_mod2_even_m_pinches_with_warning(capsys):
    code, out, _ = run(capsys, "report", "--m", "4", "--n", "3",
                       "--field", "zp:2", "--output", "json")
    assert code == EXIT_PINCHED
    data = json.loads(out)
    assert data["pinched"] is True and data["warnings"]


def test_report_bad_field_is_usage_error(capsys):
    code, _, err = run(capsys, "report", "--m", "3", "--n", "2", "--field", "zp:4")
    assert code == EXIT_USAGE
    assert "not prime" in err


def test_report_bad_parameters_usage_error(capsys):
    code, _, err = run(capsys, "report", "--m", "1", "--n", "2")
    assert code == EXIT_USAGE


BAD_M = "error: ambient dimension m=1 must be >= 2 (points on a line cannot be permuted)\n"
BAD_N = "error: point count n=0 must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["report"],
    ["zcl"],
    ["barspan"],
    ["grid"],
    ["basis", "--k", "1"],
    ["multiply", "e12"],
    ["export-algebra", "--out", "unwritten.json"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("m,n,message", [("1", "2", BAD_M), ("2", "0", BAD_N)], ids=["m", "n"])
def test_bad_configuration_has_one_message(capsys, tmp_path, monkeypatch, argv, m, n, message):
    # one check for every subcommand, before any cap and any output
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv[0], "--m", m, "--n", n, *argv[1:])
    assert (code, out, err) == (EXIT_USAGE, "", message)
    assert not (tmp_path / "unwritten.json").exists()


@pytest.mark.parametrize("argv,message", [
    (["--m", "1", "--n", "1000000000000"], BAD_M),  # past every limit
    (["--m", "2", "--n", "0"], BAD_N),
], ids=["m", "n"])
@pytest.mark.parametrize("command", ["report", "zcl", "barspan", "grid"])
def test_bad_configuration_is_checked_before_the_caps(capsys, command, argv, message):
    # barspan reads its span limit off the ring, which checks (n, m) first; a
    # grid reads its cell limit after its first cell
    code, out, err = run(capsys, command, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", message)


def past_the_limit(cells, limit=WORK_LIMIT):
    return f"error: not computed: the grid holds {cells} cells, past the limit of {limit}\n"


def refuse_rings(monkeypatch):
    """Fail the test if anything from here on builds a `Presentation`."""
    def refuse(self, *args):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(Presentation, "__init__", refuse)


def refuse_span_work(monkeypatch):
    """Fail the test if anything from here on lists the basis words or builds a span."""
    def refuse(self, *args):
        raise AssertionError("span work was started")

    monkeypatch.setattr(Presentation, "_coordinates", refuse)
    monkeypatch.setattr(TensorSquare, "_span_levels", refuse)


def past_the_span_limit(m, n, field, route):
    return (f"error: not computed: (m={m}, n={n}) over {field} echelons in a square of "
            f"dimension {route}, past the limit of {SPAN_LIMIT}\n")


@pytest.mark.parametrize("command", ["report", "zcl", "barspan"])
def test_cap_message_is_shared(capsys, monkeypatch, command):
    # the limits left share one form, exit 3 and one "error: not computed"
    # line: barspan's span limit, before any basis word is listed, and grid's
    # cell limit, before any ring is built; report and zcl have none, and
    # answer at any n as a one-cell grid does
    if command != "barspan":
        got = run(capsys, command, "--m", "3", "--n", "1000000000000")
        assert got[0] == EXIT_PINCHED and "1999999999999" in got[1]
        assert run(capsys, "grid", "--m", "3", "--n", "1000000000000") == (
            EXIT_PINCHED, "m=3 n=1000000000000 closed=1999999999999 TC=1999999999999 "
            "pinched=yes\npinched 1/1\n", "")
    refuse_span_work(monkeypatch)
    message = past_the_span_limit(3, 6, "Q", "(n!)^2")
    assert run(capsys, "barspan", "--m", "3", "--n", "6") == (EXIT_CAP, "", message)
    refuse_rings(monkeypatch)
    assert run(capsys, "grid", "--m", "3", "--n", "1..10001") == (
        EXIT_CAP, "", past_the_limit(10001))


@pytest.mark.parametrize("m,n,field,route", [
    (3, 6, "q", "(n!)^2"),               # 720^2: the unsplit n = 6 cells
    (3, 6, "zp:3", "(n!)^2"),
    (3, 7, "zp:2", "(n!/2)^2"),          # 2520^2: the split route past n = 6
    (2, 1000000000000, "q", "(n!/2)^2"),
    (3, 1000000000000, "q", "(n!)^2"),
], ids=["6-Q", "6-Z3", "7-Z2", "huge-split", "huge-full"])
def test_barspan_refuses_by_the_size_of_its_square(capsys, monkeypatch, m, n, field, route):
    # the route's square, (n!)^2 or (n!/2)^2 where the decone splits, is
    # sized before any basis word is listed, and without forming n!
    refuse_span_work(monkeypatch)
    start = time.perf_counter()
    got = run(capsys, "barspan", "--m", str(m), "--n", str(n), "--field", field,
              "--output", "json")
    assert time.perf_counter() - start < 1
    name = "Q" if field == "q" else "Z_" + field[3:]
    assert got == (EXIT_CAP, "", past_the_span_limit(m, n, name, route))


class SpanReached(Exception):
    pass


@pytest.mark.parametrize("m,field", [(2, "q"), (3, "zp:2")])
def test_barspan_admits_the_split_n6_cells(capsys, monkeypatch, m, field):
    # (6!/2)^2 is the limit itself: the split n = 6 cells pass it and reach
    # the span, on the split route (stopped there, since the span takes seconds)
    def reached(self, split):
        raise SpanReached(split)

    monkeypatch.setattr(TensorSquare, "_span_levels", reached)
    with pytest.raises(SpanReached) as exc:
        main(["barspan", "--m", str(m), "--n", "6", "--field", field])
    assert exc.value.args == (True,)
    assert capsys.readouterr() == ("", "")


def test_report_cap_exceeded(capsys, unlisted_basis):
    # no cap is left on the report path: at n = 10^12 every command answers
    # with a pinched certificate (even m pinches over every field), from the
    # two-letter patterns, never the n! basis words
    for command in ("report", "zcl", "grid"):
        for output in ("text", "json"):
            for field in ("q", "zp:2", "zp:3"):
                code, out, err = run(capsys, command, "--m", "4", "--n", "1000000000000",
                                     "--output", output, "--field", field)
                assert (code, err) == (EXIT_PINCHED, "")
                assert "1999999999998" in out


def test_report_n1000_pinches(capsys):
    code, out, _ = run(capsys, "report", "--n", "1000", "--m", "3", "--output", "json")
    doc = json.loads(out)
    assert code == EXIT_PINCHED
    assert doc["pinched"] and doc["lower"] == doc["upper"] == doc["closed_form"] == 1999


def test_large_m_is_computed(capsys):
    # every computation reads m only through its parity: m is never capped
    code, out, _ = run(capsys, "report", "--m", "10", "--n", "3", "--output", "json")
    data = json.loads(out)
    assert code == EXIT_PINCHED
    assert data["pinched"] and data["lower"] == data["upper"] == 4
    code, out, _ = run(capsys, "grid", "--m", "2..11", "--n", "2..3")
    assert code == EXIT_PINCHED
    assert "pinched 20/20" in out


def test_reports_call_assemble_report_once_per_cell(capsys, monkeypatch):
    # the benchmark tracer counts reports by wrapping `tcbounds.cli.assemble_report`;
    # `report` calls it once per cell, `grid` never (it certifies rings and
    # assembles each cell with `report_from_ring`)
    calls = []
    assemble = tcbounds.cli.assemble_report

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(tcbounds.cli, "assemble_report", counting)
    assert run(capsys, "report", "--m", "3", "--n", "3")[0] == EXIT_PINCHED
    assert len(calls) == 1
    assert run(capsys, "grid", "--m", "2..3", "--n", "2", "--jobs", "1")[0] == EXIT_PINCHED
    assert len(calls) == 1
    assert run(capsys, "report", "--m", "3", "--n", "1000000000000")[0] == EXIT_PINCHED
    assert len(calls) == 2


# -- grid ---------------------------------------------------------------------------

def test_grid_small(capsys):
    code, out, _ = run(capsys, "grid", "--m", "2..5", "--n", "2..3")
    assert code == EXIT_PINCHED
    assert "pinched 8/8" in out


def test_grid_plane_row_values(capsys):
    code, out, _ = run(capsys, "grid", "--m", "2..2", "--n", "2..4",
                       "--output", "json")
    assert code == EXIT_PINCHED
    data = json.loads(out)
    assert [c["lower"] for c in data["cells"]] == [2, 4, 6]


def test_grid_empty_range(capsys):
    code, out, err = run(capsys, "grid", "--m", "5..4", "--n", "2..3")
    assert code == EXIT_USAGE
    assert out == ""
    assert "empty grid" in err


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_grid_rejects_bad_jobs(capsys, jobs):
    code, out, err = run(capsys, "grid", "--m", "2", "--n", "2", "--jobs", jobs)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--jobs" in err


@pytest.fixture
def pool_workers(monkeypatch):
    """The max_workers of every process pool `grid` starts, in order."""
    import concurrent.futures

    workers = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return workers


def test_grid_jobs_clamped_to_cells(capsys, pool_workers):
    code, out, _ = run(capsys, "grid", "--m", "2..3", "--n", "2", "--jobs", "8")
    assert (code, pool_workers) == (EXIT_PINCHED, [2])
    assert "pinched 2/2" in out
    code, _, _ = run(capsys, "grid", "--m", "2", "--n", "2", "--jobs", "8")
    assert (code, pool_workers) == (EXIT_PINCHED, [2])  # one cell runs in-process
    # four cells, two rings: at most one worker per ring
    code, out, _ = run(capsys, "grid", "--m", "2..5", "--n", "2", "--jobs", "8")
    assert (code, pool_workers) == (EXIT_PINCHED, [2, 2])
    assert "pinched 4/4" in out


def test_grid_bad_cells_fail_before_any_work(capsys, monkeypatch, pool_workers):
    rings = []
    monkeypatch.setattr(tcbounds.cli, "certify_ring", lambda *args: rings.append(args))
    code, out, err = run(capsys, "grid", "--m", "1..7", "--n", "2..5", "--jobs", "2")
    assert (code, out, err) == (EXIT_USAGE, "", BAD_M)
    assert (pool_workers, rings) == ([], [])


@pytest.mark.parametrize("m,n,field,cells,certified", [
    ("2..3", "2", "q", 2, 2),  # 2 rings
    ("2..7", "2..4", "q", 18, 6),  # 6 rings (n, m mod 2)
    ("2..7", "2..4", "zp:3", 18, 12),  # a modular field also certifies the Q square
])
def test_grid_certifies_each_ring_once(capsys, monkeypatch, m, n, field, cells, certified):
    calls = []
    cuplength = tcbounds.bounds.zero_divisor_cuplength

    def counting(pres, field):
        calls.append((pres.n, pres.parity, field.describe()))
        return cuplength(pres, field)

    monkeypatch.setattr(tcbounds.bounds, "zero_divisor_cuplength", counting)
    code, out, _ = run(capsys, "grid", "--m", m, "--n", n, "--field", field)
    assert code == EXIT_PINCHED
    assert out.splitlines()[-1] == f"pinched {cells}/{cells}"
    assert len(calls) == len(set(calls)) == certified


def test_grid_with_cap_cells(capsys, monkeypatch):
    # the limit counts cells, whatever their n and however many rings they
    # share; it shrinks by one share per 50 digits of the largest m and n
    # together, which the numbers of every cell have at most
    code, out, _ = run(capsys, "grid", "--m", "2..12", "--n", "20000")
    assert (code, out.splitlines()[-1]) == (EXIT_PINCHED, "pinched 11/11")
    monkeypatch.setattr(tcbounds.cli, "WORK_LIMIT", 6)
    big = 10 ** 48  # 49 digits; 50 with its m
    for m, n, limit in (("2..3", "2..4", 6), ("2..4", str(big), 3)):
        code, out, _ = run(capsys, "grid", "--m", m, "--n", n)
        assert (code, out.splitlines()[-1]) == (EXIT_PINCHED, f"pinched {limit}/{limit}")
    refuse_rings(monkeypatch)
    for m, n, cells, limit in (("2..3", "2..5", 8, 6), ("2..5", str(big), 4, 3),
                               ("2..10", "10..11", 18, 6), ("2..4", "9" * 99, 3, 2)):
        code, out, err = run(capsys, "grid", "--m", m, "--n", n, "--jobs", "2")
        assert (code, out, err) == (EXIT_CAP, "", past_the_limit(cells, limit))


def test_grid_parallel_matches_serial(capsys):
    for argv in (["--m", "2..3", "--n", "2..3"],
                 ["--m", "2..7", "--n", "2..4", "--field", "zp:3"]):
        serial = run(capsys, "grid", *argv)
        assert serial == run(capsys, "grid", *argv, "--jobs", "2")


def _worker_dies(task):
    # only a pool worker may die: in the test process the exit would end pytest
    if multiprocessing.parent_process() is None:
        raise AssertionError("the grid worker ran in the test process")
    os._exit(1)


def test_grid_worker_crash_is_reported(capsys, monkeypatch):
    # two rings on two workers, each of which dies: an error line, not a traceback
    monkeypatch.setattr(tcbounds.cli, "_grid_ring", _worker_dies)
    code, out, err = run(capsys, "grid", "--m", "2..3", "--n", "2", "--jobs", "2")
    assert code == EXIT_CAP
    assert out == ""
    assert err.startswith("error: grid worker died: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_grid_reports_each_contradicting_cell(capsys, monkeypatch, jobs):
    # the cells of one ring, (n = 3, odd m), contradict the closed form 5: first
    # with a cup-length past the upper bound, then with a ring pair (zcl =
    # bar_len = 3) that pinches at 4; reports are assembled in the parent, so
    # the patch holds under any start method of the pool
    report_from_ring = tcbounds.cli.report_from_ring
    contradictions = [
        (lambda zcl, bar_len: (zcl + 1, bar_len),
         "lower bound 6 exceeds upper bound 5 for (m={m}, n=3) over Q"),
        (lambda zcl, bar_len: (3, 3), "pinched at 4 but the closed form is 5 for (m={m}, n=3)"),
    ]
    for perturb, message in contradictions:
        def contradicting(m, n, field, zcl, bar_len):
            if (n, m % 2) == (3, 1):
                zcl, bar_len = perturb(zcl, bar_len)
            return report_from_ring(m, n, field, zcl, bar_len)

        monkeypatch.setattr(tcbounds.cli, "report_from_ring", contradicting)
        code, out, err = run(capsys, "grid", "--m", "2..5", "--n", "2..3", "--jobs", jobs)
        assert (code, err) == (EXIT_CONTRADICTION, "")
        lines = out.splitlines()
        assert [line for line in lines if "CONTRADICTION" in line] == [
            f"m={m} n=3 CONTRADICTION: " + message.format(m=m) for m in (3, 5)
        ]
        assert [line.split()[:2] for line in lines[:6]] == [
            ["m=2", "n=2"], ["m=2", "n=3"], ["m=3", "n=2"],
            ["m=4", "n=2"], ["m=4", "n=3"], ["m=5", "n=2"],
        ]
        assert all(line.endswith("pinched=yes") for line in lines[:6])
        assert lines[-1] == "pinched 6/8"


def test_report_pinched_off_the_closed_form_is_contradiction(capsys, monkeypatch):
    # a ring pair that pinches at 4 against the closed form 5 of (m=3, n=3)
    monkeypatch.setattr(tcbounds.bounds, "certify_ring", lambda m, n, field: (3, 3))
    code, out, err = run(capsys, "report", "--m", "3", "--n", "3")
    assert (code, out) == (EXIT_CONTRADICTION, "")
    assert err == "CONTRADICTION: pinched at 4 but the closed form is 5 for (m=3, n=3)\n"


# -- small utilities -----------------------------------------------------------------

def test_basis_command(capsys):
    code, out, _ = run(capsys, "basis", "--n", "3", "--m", "2", "--k", "2")
    assert code == 0
    assert out.splitlines() == ["e_1_2*e_1_3", "e_1_2*e_2_3"]


def test_basis_command_json(capsys):
    code, out, _ = run(capsys, "basis", "--n", "3", "--m", "4", "--k", "1",
                       "--output", "json")
    data = json.loads(out)
    assert data["degree"] == 3
    assert data["monomials"] == [[[1, 2]], [[1, 3]], [[2, 3]]]


def test_multiply_command(capsys):
    code, out, _ = run(capsys, "multiply", "--n", "3", "--m", "2", "e13*e23")
    assert code == 0
    assert "e_1_2*e_2_3" in out and "e_1_2*e_1_3" in out


def test_multiply_square_is_zero(capsys):
    code, out, _ = run(capsys, "multiply", "--n", "2", "--m", "3", "e12", "e12")
    assert code == 0
    assert out.strip() == "0"


def test_zcl_command(capsys):
    code, out, _ = run(capsys, "zcl", "--n", "3", "--m", "2", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"n", "m", "field", "zero_divisor_cuplength", "tc_lower_bound"}
    assert data["zero_divisor_cuplength"] == 3
    assert data["tc_lower_bound"] == 4


def test_barspan_command(capsys):
    code, out, _ = run(capsys, "barspan", "--n", "3", "--m", "4", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["bar_span_length"] == 3
    assert data["span_dims"] == [3, 3, 1]
    assert data["witness"] == [[1, 2], [1, 3], [2, 3]]


def test_barspan_n5_mod_p(capsys):
    code, out, _ = run(capsys, "barspan", "--n", "5", "--m", "2", "--field", "zp:2147419721")
    assert code == 0
    assert out.splitlines() == [
        "bar_span_length = 7",
        "span dimensions by power: [10, 45, 120, 210, 246, 180, 60]",
        "witness = bar(e_1_2)*bar(e_1_3)*bar(e_2_3)*bar(e_1_4)*bar(e_2_4)*bar(e_1_5)*bar(e_2_5)",
    ]


def test_barspan_witness_line(capsys):
    code, out, _ = run(capsys, "barspan", "--n", "3", "--m", "3")
    assert code == 0
    assert out.splitlines() == [
        "bar_span_length = 4",
        "span dimensions by power: [3, 6, 6, 3]",
        "witness = bar(e_1_2)*bar(e_1_2)*bar(e_1_3)*bar(e_1_3)",
    ]


# -- cache round trips ----------------------------------------------------------------

def test_export_and_reload_byte_identical(tmp_path, capsys):
    path = tmp_path / "doc.json"
    code, _, _ = run(capsys, "export-algebra", "--n", "3", "--m", "2",
                     "--out", str(path))
    assert code == 0
    first = path.read_bytes()
    code, _, _ = run(capsys, "export-algebra", "--n", "3", "--m", "2",
                     "--out", str(path))
    assert code == 0
    assert path.read_bytes() == first


def test_export_n4_has_24_monomials(tmp_path, capsys):
    path = tmp_path / "doc.json"
    code, out, _ = run(capsys, "export-algebra", "--n", "4", "--m", "2",
                       "--out", str(path), "--output", "json")
    assert json.loads(out)["basis_size"] == 24


def test_export_respects_cache_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TC_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "export-algebra", "--n", "2", "--m", "3")
    assert code == 0
    assert (tmp_path / "structure_n2_m3.json").exists()


@pytest.mark.parametrize("where", ["missing-directory", "directory", "cache-dir-under-a-file"])
def test_export_unwritable_document_is_input_error(tmp_path, capsys, monkeypatch, where):
    # a document that cannot be written exits 2 with one line, never a traceback
    # (exit 1 means unpinched)
    argv = ["export-algebra", "--n", "3", "--m", "2"]
    if where == "missing-directory":
        path = tmp_path / "missing" / "doc.json"
        argv += ["--out", str(path)]
    elif where == "directory":
        path = tmp_path
        argv += ["--out", str(path)]
    else:
        (tmp_path / "file").write_text("")
        base = tmp_path / "file" / "cache"
        monkeypatch.setenv("TC_CACHE_DIR", str(base))
        path = base / "structure_n3_m2.json"
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot write document {path}: ")
    assert err.count("\n") == 1


# -- option surface ------------------------------------------------------------------

# every option of every subcommand: a new or retired option shows here as a
# reviewed change
OPTIONS = {
    "report": ["-h", "--help", "--m", "--n", "--output", "--field"],
    "grid": ["-h", "--help", "--m", "--n", "--jobs", "--output", "--field"],
    "basis": ["-h", "--help", "--m", "--n", "--k", "--output"],
    "multiply": ["-h", "--help", "--m", "--n", "--output", "--field"],
    "zcl": ["-h", "--help", "--m", "--n", "--output", "--field"],
    "barspan": ["-h", "--help", "--m", "--n", "--output", "--field"],
    "export-algebra": ["-h", "--help", "--m", "--n", "--out", "--output"],
}


def test_option_surface_is_pinned():
    parser = tcbounds.cli.build_parser()
    assert [s for a in parser._actions for s in a.option_strings] == ["-h", "--help"]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: [s for a in p._actions for s in a.option_strings]
           for name, p in sub.choices.items()}
    assert got == OPTIONS


@pytest.mark.parametrize("argv", [
    ["report", "--m", "3", "--n", "3"],
    ["zcl", "--m", "3", "--n", "3"],
    ["barspan", "--m", "3", "--n", "3"],
    ["multiply", "--m", "3", "--n", "3", "e12"],
], ids=lambda argv: argv[0])
def test_retired_cache_option_is_rejected(capsys, tmp_path, argv):
    path = tmp_path / "doc.json"
    run(capsys, "export-algebra", "--n", "3", "--m", "3", "--out", str(path))
    code, out, err = run(capsys, *argv, "--cache", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert f"unrecognized arguments: --cache {path}" in err


def test_retired_max_n_option_is_rejected(capsys):
    code, out, err = run(capsys, "barspan", "--m", "2", "--n", "6", "--max-n", "6")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith("error: unrecognized arguments: --max-n 6\n")


def test_closed_stdout_exits_quietly(tmp_path):
    # a reader that stops after one line, as `| head -1` does, closes the pipe
    # while the basis (about 240 kB, more than a pipe buffers) is still being
    # written: no traceback, and not the "unpinched" exit code 1
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "tcbounds.cli", "basis", "--m", "2", "--n", "8", "--k", "5"]
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_PIPE == 141
        err.seek(0)
        assert err.read() == ""
    assert first == b"e_1_2*e_1_3*e_1_4*e_1_5*e_1_6\n"


def fresh_child(script, *args):
    """The last line a fresh interpreter prints running `script` (argv: src/, then args), as a literal.

    -I -S keep the environment and site-packages out of the child; -B keeps
    it from writing bytecode into src/, which -I alone would not.  The child
    prints with repr, read back here with `ast.literal_eval`, so it loads no
    module to report what it loaded (json would hide itself).
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script, src, *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


# what a process loads is part of what it costs: the document checksum loads
# only on the commands that run it, no report needs dataclasses (nor inspect,
# which it imports), and only barspan loads the tensor layer; the names after
# each command's exit code are those of argv loaded so far
_LOADED_BY_COMMANDS = """
import sys
sys.path.insert(0, sys.argv[1])
names = sys.argv[2:]
import tcbounds.cli
def loaded():
    return [name for name in names if name in sys.modules]
seen = {"import": loaded()}
for argv in (["report", "--m", "4", "--n", "3"], ["zcl", "--m", "3", "--n", "4"],
             ["grid", "--m", "2..3", "--n", "2..3"], ["barspan", "--m", "2", "--n", "3"],
             ["multiply", "--m", "2", "--n", "3", "e12"],
             ["report", "--m", "4", "--n", "3", "--output", "json"]):
    seen[" ".join(argv)] = [tcbounds.cli.main(argv)] + loaded()
print(repr(seen))
"""


def test_reports_load_no_dataclasses_or_hashlib():
    seen = fresh_child(_LOADED_BY_COMMANDS, "dataclasses", "inspect", "hashlib")
    # all six commands exit 0, and none loads any of them
    assert seen.pop("import") == [] and len(seen) == 6
    assert all(after == [EXIT_PINCHED] for after in seen.values())


def test_reports_load_no_tensor_layer_json_or_fractions():
    # a text report, zcl or grid loads none of them; after them, barspan loads
    # the tensor layer, a product over Q fractions and a JSON report json, so
    # the probe sees each
    seen = fresh_child(_LOADED_BY_COMMANDS, "tcbounds.tensor", "tcbounds.linalg", "json",
                       "fractions")
    assert seen == {
        "import": [],
        "report --m 4 --n 3": [EXIT_PINCHED],
        "zcl --m 3 --n 4": [0],
        "grid --m 2..3 --n 2..3": [EXIT_PINCHED],
        "barspan --m 2 --n 3": [0, "tcbounds.tensor", "tcbounds.linalg"],
        "multiply --m 2 --n 3 e12": [0, "tcbounds.tensor", "tcbounds.linalg", "fractions"],
        "report --m 4 --n 3 --output json": [
            EXIT_PINCHED, "tcbounds.tensor", "tcbounds.linalg", "json", "fractions"],
    }


# the package loads its tensor layer on first use (a module __getattr__);
# linalg is read first, before anything has loaded tensor, and the tensor
# names are imported before the module itself is read
_LAZY_SURFACE = """
import sys
sys.path.insert(0, sys.argv[1])
import tcbounds
seen = {"linalg": tcbounds.linalg.EchelonBasis.__module__,
        "tensor loaded by linalg": "tcbounds.tensor" in sys.modules}
from tcbounds import TensorSquare, bar, koszul_swap, diagonal_restriction, TensorElement
tensor = sys.modules["tcbounds.tensor"]
seen["own objects"] = [TensorSquare is tensor.TensorSquare, bar is tensor.bar,
                       koszul_swap is tensor.koszul_swap, TensorElement is tensor.TensorElement,
                       diagonal_restriction is tensor.diagonal_restriction]
seen["tensor"] = tcbounds.tensor is tensor
seen["unresolved"] = [name for name in tcbounds.__all__ if not hasattr(tcbounds, name)]
seen["not listed"] = sorted(set(tcbounds.__all__ + ["tensor", "linalg"]) - set(dir(tcbounds)))
try:
    tcbounds.nope
    seen["nope"] = "resolved"
except Exception as exc:
    seen["nope"] = type(exc).__name__
print(repr(seen))
"""


def test_the_lazy_package_surface_resolves():
    assert fresh_child(_LAZY_SURFACE) == {
        "linalg": "tcbounds.linalg",
        "tensor loaded by linalg": False,
        "own objects": [True] * 5,
        "tensor": True,
        "unresolved": [],
        "not listed": [],
        "nope": "AttributeError",
    }


def run_in_128_mb(tmp_path, argv):
    """The finished child process `tcbounds argv`, which alone runs under a 128 MB address-space limit."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "tcbounds.cli", *argv], cwd=tmp_path,
                          env=env, preexec_fn=limit, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("argv", [
    ["export-algebra", "--n", "11", "--m", "2", "--out", "doc.json"],
    ["basis", "--n", "40", "--m", "2", "--k", "20"],
], ids=["export-algebra", "basis"])
def test_out_of_memory_is_not_computed(tmp_path, argv):
    # running out of memory is a resource cap (exit 3, one line), not a
    # traceback and exit 1
    proc = run_in_128_mb(tmp_path, argv)
    assert proc.returncode == EXIT_CAP == 3
    assert proc.stderr == "error: not computed: out of memory\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("m,n,code,message", [
    ("2..3", "2..1000000000000", EXIT_CAP, past_the_limit(1999999999998)),
    ("1..3", "2..1000000000000", EXIT_USAGE, BAD_M),
    ("2..3", "0..1000000000000", EXIT_USAGE, BAD_N),
    ("2..1000000000000000000000000000000", "2", EXIT_CAP,
     past_the_limit(999999999999999999999999999999)),
], ids=["past-the-limit", "bad-m", "bad-n", "m-past-a-list"])
def test_grid_refuses_without_listing_its_cells(tmp_path, m, n, code, message):
    # the first cell, then the cell count, are read off the two ranges: two
    # trillion cells are refused in 128 MB, with the line of their first bad
    # cell or of the limit, never the out-of-memory line; so is an m range
    # longer than a list can index, by its count, not a traceback
    proc = run_in_128_mb(tmp_path, ["grid", "--m", m, "--n", n])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message)


TRILLION = "1000000000000"


def test_a_trillion_points_are_certified_in_128_mb(tmp_path):
    # nothing on the report path grows with n: at n = 10^12, report, zcl and
    # a three-cell grid answer in 128 MB, which (-2)^(n-1), at 10^12 bits, or
    # a word of n - 1 letters could never fit
    def answer(*argv):
        proc = run_in_128_mb(tmp_path, [*argv, "--n", TRILLION, "--output", "json"])
        assert proc.stderr == "", argv
        return proc.returncode, json.loads(proc.stdout)

    for m, field, code, lower, upper in (("3", "q", EXIT_PINCHED, 1999999999999, 1999999999999),
                                         ("4", "q", EXIT_PINCHED, 1999999999998, 1999999999998),
                                         ("3", "zp:2", EXIT_UNPINCHED, 1999999999998,
                                          1999999999999)):
        got, doc = answer("report", "--m", m, "--field", field)
        assert (got, doc["lower"], doc["upper"]) == (code, lower, upper)
        assert answer("zcl", "--m", m, "--field", field)[1]["tc_lower_bound"] == lower
    got, doc = answer("grid", "--m", "2..4")
    assert got == EXIT_PINCHED
    assert [(c["m"], c["lower"], c["upper"]) for c in doc["cells"]] == [
        (2, 1999999999998, 1999999999998), (3, 1999999999999, 1999999999999),
        (4, 1999999999998, 1999999999998)]


@pytest.mark.parametrize("field", ["q", "zp:2", "zp:3"])
def test_a_trillion_point_report_straightens_two_letter_words(capsys, unlisted_basis,
                                                              straightened_words, field):
    code, _, _ = run(capsys, "report", "--n", TRILLION, "--m", "3", "--field", field)
    assert code == (EXIT_UNPINCHED if field == "zp:2" else EXIT_PINCHED)
    assert straightened_words == _two_letter_patterns(int(TRILLION))
    assert max(map(len, straightened_words)) == 2 and len(straightened_words) == 13


@pytest.mark.parametrize("argv", [
    ["report"], ["report", "--output", "json"], ["zcl"], ["grid"], ["grid", "--output", "json"],
], ids=lambda argv: "-".join(argv).replace("--output-", ""))
def test_an_answer_too_long_to_print_is_an_input_error(capsys, argv):
    # n of 4,300 digits is read, but 2n - 1 has 4,301, past CPython's limit on
    # int-to-str conversion: one error line and exit 2, before any output
    code, out, err = run(capsys, argv[0], "--m", "3", "--n", "9" + "0" * 4299, *argv[1:])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("output", ["text", "json"])
def test_a_grid_with_one_answer_too_long_prints_no_cell(capsys, output):
    # 2n - 1 has 4,300 digits in the first cell and 4,301 in the second: the
    # grid fails before it prints the first, although text prints each cell
    # as it is made
    half = 5 * 10 ** 4299
    code, out, err = run(capsys, "grid", "--m", "3", "--n", f"{half}..{half + 1}",
                         "--output", output)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field", ["q", "zp:3"])
@pytest.mark.parametrize("n", [7, 8])
def test_odd_m_report_past_the_cap_straightens_only_its_witness(capsys, unlisted_basis,
                                                                straightened_words,
                                                                witness_fact_words, n, field):
    # the odd-m witness, each bar(e_1j) squared, survives where its
    # coefficient (-2)^(n-1) is a unit: the ring checks the facts of
    # `witness_terms` once for Z_3 and Q alike, 13 two-letter straightenings
    # at any n, never of the n! basis words: a report costs what its witness
    # facts need
    code, out, _ = run(capsys, "report", "--n", str(n), "--m", "3",
                       "--field", field, "--output", "json")
    doc = json.loads(out)
    assert code == EXIT_PINCHED
    assert doc["pinched"] and doc["lower"] == doc["upper"] == 2 * n - 1
    assert straightened_words == witness_fact_words(n)
    assert len(set(straightened_words)) == 13


@pytest.mark.parametrize("field,squares", [("q", 1), ("zp:3", 2)])
@pytest.mark.parametrize("n", [7, 8])
def test_even_m_report_past_the_cap_straightens_only_two_letter_words(capsys, monkeypatch,
                                                                     unlisted_basis,
                                                                     straightened_words,
                                                                     witness_fact_words,
                                                                     n, field, squares):
    # the even-m witness has length 2n - 3, and the decone check closes the top
    # weight by straightening the 13 two-letter patterns once per parity and
    # min(n, 4), however many fields ask for it (over Z_3 the field's and the
    # rational one); the witness facts share those words, and its basis pair
    # E (x) F is admissible, so no tensor is multiplied out
    asking, scanned = [], []
    splits, straighten = Presentation.decone_splits, Presentation.straighten

    def spy(self):
        asking.append(self)
        return splits(self)

    def scan(self, word):
        scanned.append(tuple(word))
        return straighten(self, word)

    monkeypatch.setattr(Presentation, "decone_splits", spy)
    monkeypatch.setattr(Presentation, "straighten", scan)
    code, out, _ = run(capsys, "report", "--n", str(n), "--m", "4",
                       "--field", field, "--output", "json")
    doc = json.loads(out)
    assert code == EXIT_PINCHED
    assert doc["pinched"] and doc["lower"] == doc["upper"] == 2 * n - 2
    assert len(asking) == squares and len({id(pres) for pres in asking}) == 1
    assert scanned == straightened_words == witness_fact_words(n)
    assert sorted(scanned) == sorted(_two_letter_patterns(n))


def test_ring_facts_are_straightened_once_per_parity_and_min_n_4(capsys, straightened_words):
    # the pattern forms and both facts read from them depend on the parity of
    # m and on min(n, 4) alone: the first report straightens its patterns,
    # a later report of the same key none, whatever its m, n >= 4 and field,
    # and a ring of the other parity, or with n < 4, straightens its own
    assert run(capsys, "report", "--m", "3", "--n", "4")[0] == EXIT_PINCHED
    assert straightened_words == _two_letter_patterns(4)
    straightened_words.clear()
    for m, n, field in [(5, 4, "zp:3"), (3, 9, "q"), (7, TRILLION, "zp:2"), (3, 5, "zp:5")]:
        assert run(capsys, "report", "--m", str(m), "--n", str(n), "--field", field)[0] in (
            EXIT_PINCHED, EXIT_UNPINCHED)
    assert straightened_words == []
    for m, n in [(4, 6), (3, 3), (6, 3)]:
        assert run(capsys, "report", "--m", str(m), "--n", str(n))[0] == EXIT_PINCHED
        assert straightened_words == _two_letter_patterns(n), (m, n)
        straightened_words.clear()


SOUND_STRAIGHTEN = tcbounds.algebra.straighten_word


def disjoint_swap_signed(word, parity):
    """`straighten_word` with the sign flipped where two disjoint letters swap.

    Only a two-letter word on four indices has disjoint letters, so every ring
    with n <= 3 keeps its facts, and every ring with n >= 4 fails fact (1) of
    `witness_terms`.
    """
    word = tuple(word)
    form = SOUND_STRAIGHTEN(word, parity)
    if len(word) == 2 and not {*word[0]} & {*word[1]} and word[0][1] > word[1][1]:
        return {w: -c for w, c in form.items()}
    return form


@pytest.mark.parametrize("m", [2, 3])
def test_facts_broken_at_four_indices_are_not_read_off_n_3(capsys, monkeypatch, m):
    # the memo keys the facts by min(n, 4) as well as parity: with n = 3
    # certified first, by a report and by the grid's own first ring, the
    # n = 4 ring still straightens its patterns and fails, and n = 3 still
    # pinches after it
    monkeypatch.setattr(tcbounds.algebra, "straighten_word", disjoint_swap_signed)
    tcbounds.algebra._RING_FACTS.clear()
    assert run(capsys, "report", "--m", str(m), "--n", "3")[0] == EXIT_PINCHED
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "grid", "--m", str(m), "--n", "3..4", "--jobs", jobs)
        assert (code, out) == (EXIT_CONTRADICTION, ""), jobs
        assert err == f"CONTRADICTION: a witness fact failed for (m={m}, n=4) over Q\n", jobs
    assert run(capsys, "report", "--m", str(m), "--n", "3")[0] == EXIT_PINCHED


@pytest.mark.parametrize("field", ["q", "zp:2", "zp:3"])
def test_reports_never_list_the_basis_or_read_r_g(capsys, monkeypatch, unlisted_basis, field):
    # report, zcl and grid read the witness off its closed-form coefficient and
    # close the top weight by the decone scan, so at n = 9 none lists the 9!
    # basis words, reads an R_g row or multiplies a tensor out; odd m over Z_2
    # stays unpinched, as documented
    def multiplied(self, other):
        raise AssertionError("a tensor product was multiplied out")

    monkeypatch.setattr(TensorElement, "_product", multiplied)
    for m in (2, 3, 4, 5):
        code, out, _ = run(capsys, "report", "--n", "9", "--m", str(m),
                           "--field", field, "--output", "json")
        doc = json.loads(out)
        if m % 2 and field == "zp:2":
            assert code == EXIT_UNPINCHED and (doc["lower"], doc["upper"]) == (16, 17)
        else:
            assert code == EXIT_PINCHED and doc["lower"] == doc["upper"] == doc["closed_form"]
    if field == "q":
        code, out, _ = run(capsys, "zcl", "--n", "9", "--m", "2")
        assert code == EXIT_PINCHED and out.splitlines() == ["zero_divisor_cuplength = 15",
                                                             "TC >= 16"]
        code, out, _ = run(capsys, "grid", "--m", "2..5", "--n", "9")
        assert code == EXIT_PINCHED and out.splitlines()[-1] == "pinched 4/4"
