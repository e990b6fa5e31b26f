"""Command-line surface: options, output formats, exit codes, document checks."""

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcbounds.bounds
import tcbounds.cli
import tcbounds.selftest
from tcbounds.algebra import Presentation, _two_letter_patterns
from tcbounds.cli import (
    EXIT_CAP,
    EXIT_CONTRADICTION,
    EXIT_PINCHED,
    EXIT_PIPE,
    EXIT_UNPINCHED,
    EXIT_USAGE,
    main,
    parse_generator_word,
)
from tcbounds.tensor import TensorSquare


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
    (["--m", "1", "--n", "9"], BAD_M),                   # past --max-n
    (["--m", "2", "--n", "0", "--max-n", "-1"], BAD_N),  # past a negative --max-n
], ids=["m", "n"])
@pytest.mark.parametrize("command", ["report", "zcl", "barspan", "grid"])
def test_bad_configuration_is_checked_before_the_caps(capsys, command, argv, message):
    code, out, err = run(capsys, command, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", message)


@pytest.mark.parametrize("command", ["report", "zcl", "barspan"])
def test_cap_message_is_shared(capsys, command):
    code, _, err = run(capsys, command, "--m", "3", "--n", "6")
    assert code == EXIT_CAP
    assert err == "error: not computed: (m=3, n=6) exceeds caps (max_n=5)\n"


def test_report_cap_exceeded(capsys):
    code, out, err = run(capsys, "report", "--m", "3", "--n", "6")
    assert code == EXIT_CAP
    assert "not computed" in out
    code, _, _ = run(capsys, "report", "--m", "3", "--n", "3", "--max-n", "3")
    assert code == EXIT_PINCHED
    code, _, _ = run(capsys, "report", "--m", "3", "--n", "3", "--max-n", "2")
    assert code == EXIT_CAP


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
    assert run(capsys, "report", "--m", "3", "--n", "6")[0] == EXIT_CAP
    assert len(calls) == 1


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
    certify = TensorSquare.bar_span_length_certified

    def counting(self):
        calls.append((self.pres.n, self.pres.parity, self.field.describe()))
        return certify(self)

    monkeypatch.setattr(TensorSquare, "bar_span_length_certified", counting)
    code, out, _ = run(capsys, "grid", "--m", m, "--n", n, "--field", field)
    assert code == EXIT_PINCHED
    assert out.splitlines()[-1] == f"pinched {cells}/{cells}"
    assert len(calls) == len(set(calls)) == certified


def test_grid_with_cap_cells(capsys):
    code, out, _ = run(capsys, "grid", "--m", "3..3", "--n", "2..4", "--max-n", "3")
    assert code == EXIT_CAP
    assert "unknown" in out
    assert "pinched 2/3" in out


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


def test_corrupted_cache_detected_by_selftest(tmp_path, capsys):
    from tcbounds.algebra import _document_checksum

    path = tmp_path / "doc.json"
    run(capsys, "export-algebra", "--n", "3", "--m", "2", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["products"][0][2][0][1] = "41"  # corrupt one structure constant
    doc["checksum"] = _document_checksum(
        {k: doc[k] for k in ("schema_version", "n", "m", "basis", "products")}
    )
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "selftest", "--samples", "5", "--shuffles", "5",
                       "--cache", str(path))
    assert code == EXIT_UNPINCHED
    assert "stale product" in out


def test_broken_checksum_rejected_on_load(tmp_path, capsys):
    path = tmp_path / "doc.json"
    run(capsys, "export-algebra", "--n", "3", "--m", "2", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["products"][0][2][0][1] = "41"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "selftest", "--samples", "5", "--shuffles", "5",
                         "--cache", str(path))
    assert code == EXIT_UNPINCHED
    # the whole message, spaces and colon included, which no test path contains
    assert "    failing case: checksum mismatch: document corrupted or stale\n" in out
    assert err == ""


def _not_json(path):
    path.write_text("{not json")


def _not_utf8(path):
    path.write_bytes(b"\xff\xfe{}")


def _a_directory(path):
    path.mkdir()


@pytest.mark.parametrize("make", [None, _not_json, _not_utf8, _a_directory],
                         ids=["missing", "not-json", "not-utf8", "directory"])
def test_selftest_unreadable_document_is_input_error(tmp_path, capsys, monkeypatch, make):
    # the file is read before any suite runs; an unreadable one exits 2 quietly
    def no_suites(**sizes):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(tcbounds.selftest, "run_all", no_suites)
    path = tmp_path / "doc.json"
    if make:
        make(path)
    code, out, err = run(capsys, "selftest", "--cache", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot read document {path}: ")
    assert err.count("\n") == 1


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
    "report": ["-h", "--help", "--m", "--n", "--output", "--field", "--max-n"],
    "grid": ["-h", "--help", "--m", "--n", "--jobs", "--output", "--field", "--max-n"],
    "basis": ["-h", "--help", "--m", "--n", "--k", "--output"],
    "multiply": ["-h", "--help", "--m", "--n", "--output", "--field"],
    "zcl": ["-h", "--help", "--m", "--n", "--output", "--field", "--max-n"],
    "barspan": ["-h", "--help", "--m", "--n", "--output", "--field", "--max-n"],
    "selftest": ["-h", "--help", "--seed", "--samples", "--shuffles", "--cache", "--output"],
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


# -- selftest ------------------------------------------------------------------------

def test_selftest_passes(capsys):
    # each suite's case count pins how many cases it draws: --samples sizes the
    # first two, --shuffles the confluence suite, and the rest are fixed
    code, out, _ = run(capsys, "selftest", "--samples", "20", "--shuffles", "10",
                       "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert [(s["name"], s["cases"], s["passed"]) for s in data["suites"]] == [
        ("associativity", 120, True),
        ("graded commutativity", 120, True),
        ("straightening confluence", 800, True),
        ("rank consistency", 5, True),
        ("top-degree nilpotence", 56, True),
        ("diagonal restriction", 400, True),
        ("bar classes", 360, True),
        ("Koszul involution", 400, True),
        ("even-m stability", 6, True),
        ("span consistency", 16, True),
    ]


def test_selftest_reports_a_rank_mismatch(capsys, monkeypatch):
    # a mismatch of the two rank counts is a failed suite, not a traceback
    poincare_table = tcbounds.selftest.poincare_table
    message = "rank mismatch for n=4: polynomial [1, 6, 11, 7] vs enumeration [1, 6, 11, 6]"

    def mismatch(n):
        if n == 4:
            raise AssertionError(message)
        return poincare_table(n)

    monkeypatch.setattr(tcbounds.selftest, "poincare_table", mismatch)
    code, out, err = run(capsys, "selftest", "--samples", "1", "--shuffles", "1")
    assert (code, err) == (EXIT_UNPINCHED, "")
    assert f"rank consistency             FAIL  (5 cases)\n    failing case: {message}\n" in out
    assert out.endswith("SELFTEST FAILED\n")


@pytest.mark.parametrize("option", ["--samples", "--shuffles"])
@pytest.mark.parametrize("value", ["0", "-1", "many"])
def test_selftest_rejects_vacuous_runs(capsys, option, value):
    code, out, err = run(capsys, "selftest", option, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert option in err


def test_selftest_deterministic(capsys):
    _, out1, _ = run(capsys, "selftest", "--samples", "10", "--shuffles", "5",
                     "--seed", "42", "--output", "json")
    _, out2, _ = run(capsys, "selftest", "--samples", "10", "--shuffles", "5",
                     "--seed", "42", "--output", "json")
    assert out1 == out2


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


# what a process loads is part of what it costs: `selftest` and the document
# checksum load only on the commands that run them, and no report needs
# dataclasses (nor inspect, which it imports)
_LOADED_BY_COMMANDS = """
import json, sys
src, names = sys.argv[1], sys.argv[2:]
sys.path.insert(0, src)
import tcbounds.cli
def loaded():
    return [name for name in names if name in sys.modules]
seen = {"import": loaded()}
seen["report"] = [tcbounds.cli.main(["report", "--m", "4", "--n", "3"])] + loaded()
seen["grid"] = [tcbounds.cli.main(["grid", "--m", "2..3", "--n", "2..3"])] + loaded()
print(json.dumps(seen))
"""


def test_reports_load_no_selftest_dataclasses_or_hashlib():
    # -I -S keep the environment and site-packages out of the child; -B keeps
    # it from writing bytecode into src/, which -I alone would not
    src = str(Path(__file__).resolve().parents[1] / "src")
    names = ["tcbounds.selftest", "dataclasses", "inspect", "hashlib"]
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", _LOADED_BY_COMMANDS,
                           src, *names], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [], "report": [EXIT_PINCHED], "grid": [EXIT_PINCHED]}


@pytest.mark.parametrize("argv", [
    ["export-algebra", "--n", "11", "--m", "2", "--out", "doc.json"],
    ["basis", "--n", "40", "--m", "2", "--k", "20"],
], ids=["export-algebra", "basis"])
def test_out_of_memory_is_not_computed(tmp_path, argv):
    # the child alone runs under a 128 MB address-space limit; running out is
    # a resource cap (exit 3, one line), not a traceback and exit 1
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "tcbounds.cli", *argv], cwd=tmp_path,
                          env=env, preexec_fn=limit, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == EXIT_CAP == 3
    assert proc.stderr == "error: not computed: out of memory\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("field", ["q", "zp:3"])
@pytest.mark.parametrize("n", [7, 8])
def test_odd_m_report_past_the_cap_straightens_only_its_witness(capsys, unlisted_basis,
                                                                straightened_words, n, field):
    # the odd-m witness, each bar(e_1j) squared, is multiplied out in words:
    # 2(n - 2) straightenings of as many words, shared by both squares over
    # Z_3, none of them a product by the unit, and never the n! basis words:
    # a report costs what its witness needs
    code, out, _ = run(capsys, "report", "--n", str(n), "--m", "3", "--max-n", "8",
                       "--field", field, "--output", "json")
    doc = json.loads(out)
    assert code == EXIT_PINCHED
    assert doc["pinched"] and doc["lower"] == doc["upper"] == 2 * n - 1
    assert len(straightened_words) == {7: 10, 8: 12}[n]
    assert len(set(straightened_words)) == {7: 10, 8: 12}[n]


@pytest.mark.parametrize("field,squares", [("q", 1), ("zp:3", 2)])
@pytest.mark.parametrize("n", [7, 8])
def test_even_m_report_past_the_cap_straightens_only_two_letter_words(capsys, monkeypatch,
                                                                     unlisted_basis,
                                                                     straightened_words,
                                                                     n, field, squares):
    # the even-m witness has length 2n - 3, and the decone check closes the top
    # weight by straightening the 13 two-letter patterns once per ring, however
    # many squares ask for it (over Z_3 the field's and the rational one); the
    # witness is multiplied out in words, its products shared by both squares
    asking, scanned = [], []
    splits, straighten = TensorSquare._decone_splits, Presentation.straighten

    def spy(self):
        asking.append(self)
        return splits(self)

    def scan(self, word):
        scanned.append(tuple(word))
        return straighten(self, word)

    monkeypatch.setattr(TensorSquare, "_decone_splits", spy)
    monkeypatch.setattr(Presentation, "straighten", scan)
    code, out, _ = run(capsys, "report", "--n", str(n), "--m", "4", "--max-n", "8",
                       "--field", field, "--output", "json")
    doc = json.loads(out)
    assert code == EXIT_PINCHED
    assert doc["pinched"] and doc["lower"] == doc["upper"] == 2 * n - 2
    assert len({id(sq) for sq in asking}) == squares
    assert len(scanned) == 13 and sorted(scanned) == sorted(_two_letter_patterns(n))
    # with the witness's products, read off this code at n = 7 and 8; no
    # product by the unit is straightened
    assert len(straightened_words) == {7: 328, 8: 744}[n]


@pytest.mark.parametrize("field", ["q", "zp:2", "zp:3"])
def test_reports_never_list_the_basis_or_read_r_g(capsys, unlisted_basis, field):
    # report, zcl and grid multiply the witness in words and close the top
    # weight by the decone scan, so at n = 9 none lists the 9! basis words or
    # reads an R_g row; odd m over Z_2 stays unpinched, as documented
    for m in (2, 3, 4, 5):
        code, out, _ = run(capsys, "report", "--n", "9", "--m", str(m), "--max-n", "9",
                           "--field", field, "--output", "json")
        doc = json.loads(out)
        if m % 2 and field == "zp:2":
            assert code == EXIT_UNPINCHED and (doc["lower"], doc["upper"]) == (16, 17)
        else:
            assert code == EXIT_PINCHED and doc["lower"] == doc["upper"] == doc["closed_form"]
    if field == "q":
        code, out, _ = run(capsys, "zcl", "--n", "9", "--m", "2", "--max-n", "9")
        assert code == EXIT_PINCHED and out.splitlines() == ["zero_divisor_cuplength = 15",
                                                             "TC >= 16"]
        code, out, _ = run(capsys, "grid", "--m", "2..5", "--n", "9", "--max-n", "9")
        assert code == EXIT_PINCHED and out.splitlines()[-1] == "pinched 4/4"
