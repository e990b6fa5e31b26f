"""Structure-constant documents: export, checksum, reload, staleness."""

import json

import pytest

from tcbounds.algebra import (
    CacheError,
    Presentation,
    document_to_json,
    load_structure_document,
    structure_document,
    verify_structure_document,
    write_structure_document,
)


def test_roundtrip_is_byte_identical(tmp_path):
    path = tmp_path / "s.json"
    write_structure_document(Presentation(3, 2), path)
    first = path.read_bytes()
    doc = json.loads(first)
    # reload, verify, re-export
    pres = Presentation(3, 2)
    load_structure_document(path, pres)
    write_structure_document(pres, path)
    assert path.read_bytes() == first
    assert doc["schema_version"] == 1


def test_basis_count_is_factorial(tmp_path):
    doc = structure_document(Presentation(4, 2))
    assert len(doc["basis"]) == 24


def test_mismatched_shape_rejected(tmp_path):
    path = tmp_path / "s.json"
    write_structure_document(Presentation(3, 2), path)
    # same structure constants (same parity), but m is part of the key
    with pytest.raises(CacheError, match="n=3, m=2"):
        load_structure_document(path, Presentation(3, 4))


def test_wrong_schema_version_rejected(tmp_path):
    doc = structure_document(Presentation(2, 3))
    doc["schema_version"] = 99
    with pytest.raises(CacheError, match="schema version"):
        verify_structure_document(doc, Presentation(2, 3))


def test_checksum_failure_rejected(tmp_path):
    doc = structure_document(Presentation(3, 2))
    doc["products"][0][2][0][1] = "41"
    with pytest.raises(CacheError, match="checksum"):
        verify_structure_document(doc, Presentation(3, 2))


def test_stale_content_with_fixed_checksum_detected():
    # corrupt a coefficient *and* recompute the checksum: only recomputation
    # of the products can catch this
    from tcbounds.algebra import _document_checksum

    doc = structure_document(Presentation(3, 2))
    doc["products"][0][2][0][1] = "41"
    doc["checksum"] = _document_checksum(
        {k: doc[k] for k in ("schema_version", "n", "m", "basis", "products")}
    )
    with pytest.raises(CacheError, match="stale product"):
        verify_structure_document(doc, Presentation(3, 2), samples=None)


def test_loaded_table_is_used(tmp_path):
    path = tmp_path / "s.json"
    write_structure_document(Presentation(3, 3), path)
    pres = Presentation(3, 3)
    load_structure_document(path, pres)
    # cache is fully populated after adoption
    mons = pres.full_basis()
    assert ((mons[1], mons[1]) in pres._products)


def test_document_serialization_is_canonical():
    a = document_to_json(structure_document(Presentation(3, 2)))
    b = document_to_json(structure_document(Presentation(3, 2)))
    assert a == b


def _list_document(doc):
    return []


def _out_of_range_index(doc):
    doc["products"][0][2][0][0] = len(doc["basis"])
    return doc


def _scalar_basis(doc):
    doc["basis"] = 5
    return doc


def _no_products(doc):
    del doc["products"]
    return doc


@pytest.mark.parametrize(
    "malform", [_list_document, _out_of_range_index, _scalar_basis, _no_products],
    ids=["list", "index-out-of-range", "scalar-basis", "no-products"],
)
def test_malformed_document_is_cache_error(malform, tmp_path, capsys):
    # every malformed shape is a CacheError, never a traceback; the checksum
    # is recomputed so the malformation itself has to be caught
    from tcbounds.algebra import _CHECKED_KEYS, _document_checksum
    from tcbounds.cli import EXIT_USAGE, main

    doc = malform(structure_document(Presentation(3, 2)))
    if isinstance(doc, dict):
        doc["checksum"] = _document_checksum({k: doc[k] for k in _CHECKED_KEYS if k in doc})
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheError):
        load_structure_document(path, Presentation(3, 2))
    code = main(["report", "--m", "2", "--n", "3", "--cache", str(path)])
    assert code == EXIT_USAGE
    assert "cannot use cache" in capsys.readouterr().err


def test_load_parses_the_document_once(tmp_path, monkeypatch):
    import tcbounds.algebra as algebra

    path = tmp_path / "s.json"
    write_structure_document(Presentation(3, 2), path)
    calls = []
    parse = algebra._parse_document

    def counting_parse(doc, pres):
        calls.append(pres)
        return parse(doc, pres)

    monkeypatch.setattr(algebra, "_parse_document", counting_parse)
    pres = Presentation(3, 2)
    load_structure_document(path, pres)
    assert calls == [pres]
