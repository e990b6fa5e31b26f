"""Command-line surface: output formats, exit codes, cache handling."""

import json
import os
from pathlib import Path

import pytest

import tcbounds.cli
from tcbounds.cli import (
    EXIT_CAP,
    EXIT_PINCHED,
    EXIT_UNPINCHED,
    EXIT_USAGE,
    main,
    parse_generator_word,
)


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


def test_report_cap_exceeded(capsys):
    code, out, err = run(capsys, "report", "--m", "3", "--n", "6")
    assert code == EXIT_CAP
    assert "not computed" in out
    code, _, _ = run(capsys, "report", "--m", "3", "--n", "3", "--max-n", "3")
    assert code == EXIT_PINCHED
    code, _, _ = run(capsys, "report", "--m", "3", "--n", "3", "--max-n", "2")
    assert code == EXIT_CAP


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


def test_grid_jobs_clamped_to_cells(capsys, monkeypatch):
    import concurrent.futures

    workers = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    code, out, _ = run(capsys, "grid", "--m", "2..3", "--n", "2", "--jobs", "8")
    assert (code, workers) == (EXIT_PINCHED, [2])
    assert "pinched 2/2" in out
    code, _, _ = run(capsys, "grid", "--m", "2", "--n", "2", "--jobs", "8")
    assert (code, workers) == (EXIT_PINCHED, [2])  # one cell runs in-process


def test_grid_with_cap_cells(capsys):
    code, out, _ = run(capsys, "grid", "--m", "3..3", "--n", "2..4", "--max-n", "3")
    assert code == EXIT_CAP
    assert "unknown" in out
    assert "pinched 2/3" in out


def test_grid_parallel_matches_serial(capsys):
    code1, out1, _ = run(capsys, "grid", "--m", "2..3", "--n", "2..3")
    code2, out2, _ = run(capsys, "grid", "--m", "2..3", "--n", "2..3",
                         "--jobs", "2")
    assert (code1, out1) == (code2, out2)


def _worker_dies(task):
    os._exit(1)


def test_grid_worker_crash_is_reported(capsys, monkeypatch):
    # two cells on two workers, each of which dies: an error line, not a traceback
    monkeypatch.setattr(tcbounds.cli, "_grid_cell", _worker_dies)
    code, out, err = run(capsys, "grid", "--m", "2..3", "--n", "2", "--jobs", "2")
    assert code == EXIT_CAP
    assert out == ""
    assert err.startswith("error: grid worker died: ")
    assert "Traceback" not in err


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


def test_report_with_cache(tmp_path, capsys):
    path = tmp_path / "doc.json"
    run(capsys, "export-algebra", "--n", "3", "--m", "2", "--out", str(path))
    code, out, _ = run(capsys, "report", "--m", "2", "--n", "3",
                       "--cache", str(path))
    assert code == EXIT_PINCHED


def test_cache_shape_mismatch_rejected(tmp_path, capsys):
    path = tmp_path / "doc.json"
    run(capsys, "export-algebra", "--n", "3", "--m", "2", "--out", str(path))
    code, _, err = run(capsys, "report", "--m", "4", "--n", "3",
                       "--cache", str(path))
    assert code == EXIT_USAGE
    assert "n=3, m=2" in err


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
    code, _, err = run(capsys, "report", "--m", "2", "--n", "3",
                       "--cache", str(path))
    assert code == EXIT_USAGE
    assert "checksum" in err


# -- selftest ------------------------------------------------------------------------

def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--samples", "20", "--shuffles", "10")
    assert code == 0
    assert "all suites passed" in out


def test_selftest_deterministic(capsys):
    _, out1, _ = run(capsys, "selftest", "--samples", "10", "--shuffles", "5",
                     "--seed", "42", "--output", "json")
    _, out2, _ = run(capsys, "selftest", "--samples", "10", "--shuffles", "5",
                     "--seed", "42", "--output", "json")
    assert out1 == out2
