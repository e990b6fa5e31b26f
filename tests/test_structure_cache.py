"""Structure-constant documents: export, checksum, reload, staleness."""

import hashlib
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


def test_loaded_table_holds_exactly_the_pairs_within_the_top_weight():
    # the full parse keeps the terms of every pair within the top weight: the
    # nonzero ones as `row` gives them, and none above the top weight
    from tcbounds.algebra import _parse_products

    pres = Presentation(4, 2)
    products = _parse_products(structure_document(Presentation(4, 2)), pres, None)
    mons = pres.full_basis()
    within = {(i, j) for i, u in enumerate(mons) for j, v in enumerate(mons)
              if len(u) + len(v) <= pres.top_weight}
    # `row` is built on each call, so it is read once per i
    rows = [pres.row(i) for i in range(len(mons))]
    assert {(i, j) for i, row in enumerate(rows) for j in range(len(row))} == within
    assert products == {i: {j: p for j, p in enumerate(row) if p}
                        for i, row in enumerate(rows) if any(row)}


def test_sampled_parse_keeps_exactly_the_sampled_products():
    # every entry is checked, but only the listed pairs are kept; a listed
    # pair the document leaves out is a zero product and stays absent
    from tcbounds.algebra import _parse_products

    pres = Presentation(4, 2)
    doc = structure_document(pres)
    mons = pres.full_basis()
    rows = [pres.row(i) for i in range(len(mons))]
    pairs = [(0, 0), (1, 1), (3, 2), (3, 2), (5, 4), (len(mons) - 1, 0)]
    assert not rows[1][1] and all(rows[i][j] for i, j in pairs if (i, j) != (1, 1))
    assert _parse_products(doc, pres, pairs) == {
        0: {0: rows[0][0]}, 3: {2: rows[3][2]}, 5: {4: rows[5][4]},
        len(mons) - 1: {0: rows[-1][0]}}
    assert _parse_products(doc, pres, []) == {}
    doc["products"].append(json.loads(json.dumps(doc["products"][-1])))
    with pytest.raises(CacheError, match="second entry"):
        _parse_products(doc, pres, [])


def test_short_document_never_lists_the_basis(tmp_path, monkeypatch, capsys):
    # a 12-point document with an empty basis is rejected on its length
    # before the ring lists its 12! basis words
    import tcbounds.cli as cli
    import tcbounds.selftest as selftest
    from tcbounds.algebra import _CHECKED_KEYS, _document_checksum

    def unlisted(self):
        raise AssertionError("the full basis was listed")

    monkeypatch.setattr(Presentation, "_coordinates", unlisted)
    monkeypatch.setattr(selftest, "run_all", lambda **sizes: [])  # the fuzz suites list bases
    doc = {"schema_version": 1, "n": 12, "m": 2, "basis": [], "products": []}
    doc["checksum"] = _document_checksum({k: doc[k] for k in _CHECKED_KEYS})
    with pytest.raises(CacheError, match="basis"):
        verify_structure_document(doc, Presentation(12, 2))
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["selftest", "--cache", str(path)]) == cli.EXIT_UNPINCHED
    out, err = capsys.readouterr()
    assert "failing case: basis is not a list of 12! words" in out
    assert err == ""


# sha256 of the document file of Presentation(n, m), which is
# document_to_json(structure_document(Presentation(n, m))), recorded
# from the whole-word straightening that `product` used before the fold; the
# n = 6 pair from the word-keyed fold that came before the index rows
GOLDEN_SHA256 = {
    (1, 2): "8c4d3e0999c6dde5cfe07d96d4b3284bdd750474a664fe52c226672b095a37f9",
    (2, 2): "6d2f7fe88d6ecfc150398eac9cafaf23b40e2341359444354c0357afb4e339d8",
    (3, 2): "0e1ca591913d9de9a970b2e8bdf1cc5ad5ef750d968bb0b0a63c3e5fd43a47e4",
    (4, 2): "42edf42b8f908d8db4a1d36eac36cd1bdc0ac1d1f51ca3832fa270ffda2fa96c",
    (5, 2): "44cf8bd55fd07af8bc443c499801c97332fa8fba92539df00ead00c61199fd43",
    (1, 3): "c02dd8b0adc17d47f7d575addabdf3970ca53d4ca57615a223a8a7b2274377f6",
    (2, 3): "605981a915e29194c1c9a5c81bd884442223b85f8d11708d50d6458422805628",
    (3, 3): "dcacd603d8e5635c408537f2858c78c7ba21eb4f57350cb7c5d40cfea9829e50",
    (4, 3): "3d2d8adf5ced45303561cf18c8904b55ff6c780ada8b265242ba324b2f79fb22",
    (5, 3): "2c8c758a35b0cdc664062d4815bf10a20bd3de2601be60635be59d967c21cbfb",
    (6, 2): "c0ba0c50b1f87706a6d5e88909bdca5cdb16bac48e4d2ccda8fcccfb5eb4fc79",
    (6, 3): "ca6f3fa06e127f2e10148863e01eed9e4bcbdf4727aa3a3d75e818cd699a240b",
}


@pytest.fixture(scope="module")
def recorded_text(n, m):
    """document_to_json(structure_document(Presentation(n, m))), built once per (n, m)."""
    return document_to_json(structure_document(Presentation(n, m)))


@pytest.mark.parametrize("n,m", sorted(GOLDEN_SHA256), scope="module")
def test_export_matches_recorded_document(n, m, recorded_text):
    assert hashlib.sha256(recorded_text.encode()).hexdigest() == GOLDEN_SHA256[(n, m)]


@pytest.mark.parametrize("n,m", sorted(GOLDEN_SHA256), scope="module")
def test_written_file_matches_recorded_document(tmp_path, n, m, recorded_text):
    # the file text is the document, written row by row: the dict is parsed
    # from it, re-encoding that dict gives the text back byte for byte, and
    # the checksum returned is the file's
    path = tmp_path / "s.json"
    checksum = write_structure_document(Presentation(n, m), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[(n, m)]
    text = path.read_text()
    assert text == recorded_text
    assert checksum == json.loads(text)["checksum"]


def test_export_straightens_no_word(tmp_path, capsys, straightened_words):
    # the export fills every R_g row from the Arnold relation and folds the
    # product rows from them: `straighten_word` stays for the checks alone
    from tcbounds.cli import main

    path = tmp_path / "s.json"
    assert main(["export-algebra", "--n", "6", "--m", "3", "--out", str(path)]) == 0
    assert straightened_words == []
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[(6, 3)]


def test_export_holds_no_entry_graph():
    # each row's entries become text before the next row is read, so the
    # export peaks at a few copies of its text (about 5), far below what an
    # object graph of all its entries and terms would take
    import tracemalloc

    from tcbounds.algebra import _document_text

    pres = Presentation(5, 2)
    for i in range(len(pres.full_basis())):
        pres.row(i)  # fill the R_g rows the export reads, outside the trace
    tracemalloc.start()
    try:
        text, _ = _document_text(pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(text)


def test_full_check_does_not_trust_the_product_fold(monkeypatch):
    # a fault in the row fold of `Presentation.row` is exported with a valid
    # checksum; the full check re-derives from the definition, so it still
    # sees the fault.  e_1_2 * (e_1_3 * e_2_4) is a product the fold builds.
    mons = Presentation(4, 2).full_basis()
    iu, iv = mons.index(((1, 2),)), mons.index(((1, 3), (2, 4)))
    row = Presentation.row

    def corrupted(self, i):
        got = row(self, i)
        if i == iu:
            assert got[iv]
            got = got[:iv] + [{k: 2 * c for k, c in got[iv].items()}] + got[iv + 1:]
        return got

    monkeypatch.setattr(Presentation, "row", corrupted)
    doc = structure_document(Presentation(4, 2))
    with pytest.raises(CacheError, match="stale product for e_1_2 \\* e_1_3\\*e_2_4"):
        verify_structure_document(doc, Presentation(4, 2), samples=None)


def test_document_serialization_is_canonical():
    a = document_to_json(structure_document(Presentation(3, 2)))
    b = document_to_json(structure_document(Presentation(3, 2)))
    assert a == b


def _list_document(doc):
    return []


def _out_of_range_index(doc):
    doc["products"][0][2][0][0] = len(doc["basis"])
    return doc


def _negative_index(doc):
    # 1 * (last word) filed under -1: a bare list index would read it as the
    # last slot of the unit's row, where it belongs
    last = len(doc["basis"]) - 1
    next(e for e in doc["products"] if e[:2] == [0, last])[1] = -1
    return doc


def _float_coefficient(doc):
    # int(1.7) is 1, the right value
    doc["products"][0][2][0][1] = 1.7
    return doc


def _zero_coefficient(doc):
    doc["products"][0][2][0][1] = "0"
    return doc


def _coefficient(text):
    # the last entry follows the unit's square, whose coefficient is "1", so
    # the parse meets the bad string after it has accepted a valid "1"
    def malform(doc):
        assert doc["products"][0][2] == [[0, "1"]]
        doc["products"][-1][2][0][1] = text
        return doc
    return malform


def _duplicate_pair(doc):
    doc["products"].append(json.loads(json.dumps(doc["products"][-1])))
    return doc


def _empty_terms(doc):
    # an empty entry is a zero product, the same as a missing one, but
    # export never writes it
    doc["products"][0][2] = []
    return doc


def _scalar_basis(doc):
    doc["basis"] = 5
    return doc


def _no_products(doc):
    del doc["products"]
    return doc


def _mis_graded_term(doc):
    # 1 * e_2_4 gains the term 7 * 1, of weight 0 where the product has weight 1
    j = doc["basis"].index([[2, 4]])
    entry = next(e for e in doc["products"] if e[:2] == [0, j])
    entry[2] = sorted(entry[2] + [[0, "7"]])
    return doc


def _above_top_weight(doc):
    # the last basis word has top weight, so its square is above it
    last = len(doc["basis"]) - 1
    doc["products"].append([last, last, []])
    return doc


# n = 4 for the last two: at n = 3 the 100 sampled products cover nearly every
# pair, so sampling alone would catch a wrong entry.  The entry-check cases
# load with one sample, and every case is rejected before any product is
# re-derived, so the entry checks alone must reject them.
@pytest.mark.parametrize("malform,n,samples", [
    pytest.param(_list_document, 3, 100, id="list"),
    pytest.param(_out_of_range_index, 3, 100, id="index-out-of-range"),
    pytest.param(_negative_index, 3, 1, id="negative-index"),
    pytest.param(_float_coefficient, 3, 1, id="float-coefficient"),
    pytest.param(_zero_coefficient, 3, 1, id="zero-coefficient"),
    *(pytest.param(_coefficient(text), 3, 1, id=f"coefficient-{name}")
      for text, name in [("+1", "plus-sign"), ("01", "leading-zero"), ("-0", "minus-zero"),
                         (" 1", "leading-space"), ("1 ", "trailing-space")]),
    pytest.param(_duplicate_pair, 3, 1, id="duplicate-pair"),
    pytest.param(_empty_terms, 3, 1, id="empty-terms"),
    pytest.param(_scalar_basis, 3, 100, id="scalar-basis"),
    pytest.param(_no_products, 3, 100, id="no-products"),
    pytest.param(_mis_graded_term, 4, 100, id="mis-graded-term"),
    pytest.param(_above_top_weight, 4, 100, id="above-top-weight"),
])
def test_malformed_document_is_cache_error(malform, n, samples, tmp_path, monkeypatch, capsys,
                                           straightened_words):
    # every malformed shape is a CacheError, never a traceback; the checksum
    # is recomputed so the malformation itself has to be caught.  `selftest
    # --cache` fails its document suite with the same message (the fuzz
    # suites, which do not read the document, are left out to keep this fast)
    import tcbounds.cli as cli
    import tcbounds.selftest as selftest
    from tcbounds.algebra import _CHECKED_KEYS, _document_checksum

    doc = malform(structure_document(Presentation(n, 2)))
    if isinstance(doc, dict):
        doc["checksum"] = _document_checksum({k: doc[k] for k in _CHECKED_KEYS if k in doc})
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheError) as rejected:
        load_structure_document(path, Presentation(n, 2), samples=samples)
    assert straightened_words == []
    monkeypatch.setattr(selftest, "run_all", lambda **sizes: [])
    assert cli.main(["selftest", "--cache", str(path)]) == cli.EXIT_UNPINCHED
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == [f"    failing case: {rejected.value}", "SELFTEST FAILED"]
    assert err == ""


def test_load_parses_the_document_once(tmp_path, monkeypatch):
    import tcbounds.algebra as algebra

    path = tmp_path / "s.json"
    write_structure_document(Presentation(3, 2), path)
    calls = []
    parse = algebra._parse_products

    def counting_parse(doc, pres, pairs):
        calls.append(pres)
        return parse(doc, pres, pairs)

    monkeypatch.setattr(algebra, "_parse_products", counting_parse)
    pres = Presentation(3, 2)
    load_structure_document(path, pres)
    assert calls == [pres]


def test_load_checks_the_bytes_without_re_encoding(tmp_path, monkeypatch):
    # a written file hashes to its own checksum, so the load never re-encodes
    import tcbounds.algebra as algebra

    path = tmp_path / "s.json"
    write_structure_document(Presentation(4, 2), path)
    encodings = []
    encode = algebra._canonical_json
    monkeypatch.setattr(algebra, "_canonical_json",
                        lambda value: encodings.append(value) or encode(value))
    load_structure_document(path, Presentation(4, 2))
    load_structure_document(path, Presentation(4, 2), samples=None)
    assert encodings == []


def test_a_changed_coefficient_byte_is_a_checksum_mismatch(tmp_path):
    # the bytes are hashed as they are: one coefficient byte changed, with the
    # checksum left alone, fails the byte check and its canonical fallback
    path = tmp_path / "s.json"
    write_structure_document(Presentation(4, 2), path)
    data = path.read_bytes()
    at = data.index(b',"-1"]') + 3
    path.write_bytes(data[:at] + b"2" + data[at + 1:])
    with pytest.raises(CacheError, match="^checksum mismatch: document corrupted or stale$"):
        load_structure_document(path, Presentation(4, 2))


def test_re_encoded_bytes_load_through_the_canonical_fallback(tmp_path, monkeypatch):
    # bytes that do not hash to their checksum, but whose document re-encodes
    # to it, still load: here the document written with spaces and indents
    import tcbounds.algebra as algebra

    pres = Presentation(4, 2)
    doc = structure_document(pres)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc, indent=1))
    encodings = []
    encode = algebra._canonical_json
    monkeypatch.setattr(algebra, "_canonical_json",
                        lambda value: encodings.append(value) or encode(value))
    assert load_structure_document(path, pres) == doc
    assert len(encodings) == 1


def test_bytes_that_hash_to_their_own_checksum_load(tmp_path):
    # the byte check accepts a file that is not the canonical text when its
    # bytes, without the checksum member, hash to the checksum it carries
    from tcbounds.algebra import _text_checksum

    pres = Presentation(3, 2)
    text = document_to_json(structure_document(pres))
    head, rest = text.split('"checksum":"', 1)
    tail = rest[66:].rstrip("\n").replace(',"n":', ', "n": ')
    checksum = _text_checksum(head.encode(), tail.encode())
    path = tmp_path / "s.json"
    path.write_text(f'{head}"checksum":"{checksum}",{tail}\n')
    assert load_structure_document(path, pres)["checksum"] == checksum
    path.write_text(f'{head}"checksum":"{checksum}",{tail.replace(", ", ",  ")}\n')
    with pytest.raises(CacheError, match="checksum mismatch"):
        load_structure_document(path, pres)


@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"{not json", b""],
                         ids=["not-utf8", "not-json", "empty"])
def test_undecodable_file_is_cache_error(tmp_path, data):
    path = tmp_path / "s.json"
    path.write_bytes(data)
    with pytest.raises(CacheError, match="^document is not UTF-8 JSON: ") as rejected:
        load_structure_document(path, Presentation(3, 2))
    assert isinstance(rejected.value, ValueError)


def test_sampled_load_re_derives_only_pairs_within_the_top_weight(tmp_path, straightened_words):
    # every sample is a product that can be nonzero, not one zero by grading
    path = tmp_path / "s.json"
    write_structure_document(Presentation(5, 2), path)
    straightened_words.clear()
    load_structure_document(path, Presentation(5, 2), samples=100)
    assert len(straightened_words) == 100
    assert all(len(w) <= 4 for w in straightened_words)


# the pairs (i, j) that a load of Presentation(5, 2)'s document re-derives,
# in order, recorded when the pairs were drawn after the parse, from the
# widths of a full product table
SAMPLED_N5_PAIRS = [
    (25, 21), (88, 7), (3, 64), (9, 68), (5, 46), (18, 6), (39, 39), (17, 45), (78, 10),
    (83, 10), (0, 43), (59, 2), (83, 1), (31, 23), (30, 11), (30, 12), (87, 0), (24, 17),
    (46, 3), (25, 42), (6, 39), (25, 37), (22, 19), (4, 82), (35, 13), (6, 29), (4, 19),
    (65, 1), (10, 2), (44, 34), (7, 67), (22, 39), (0, 38), (5, 4), (90, 2), (15, 42),
    (32, 20), (5, 79), (31, 18), (0, 94), (20, 39), (0, 97), (19, 31), (1, 88), (2, 11),
    (38, 39), (7, 17), (73, 8), (7, 39), (10, 66), (9, 87), (26, 44), (4, 59), (10, 59),
    (0, 39), (3, 11), (84, 8), (45, 13), (43, 33), (116, 0), (28, 25), (25, 36), (65, 10),
    (49, 8), (31, 22), (28, 26), (84, 7), (17, 13), (80, 9), (13, 42), (21, 23), (66, 8),
    (11, 17), (9, 62), (88, 6), (6, 82), (12, 30), (2, 17), (25, 44), (1, 70), (5, 48),
    (10, 40), (10, 44), (23, 17), (88, 8), (67, 6), (17, 42), (73, 0), (2, 61), (30, 41),
    (21, 39), (95, 2), (14, 32), (0, 69), (84, 7), (9, 95), (24, 18), (75, 1), (15, 37),
    (1, 19),
]


def test_sampled_load_re_derives_the_recorded_pairs(tmp_path, monkeypatch, straightened_words):
    # the draws depend on the checksum and the widths alone, so drawing them
    # before the parse gives the same pairs, re-derived in the same order
    import tcbounds.algebra as algebra

    pres = Presentation(5, 2)
    path = tmp_path / "s.json"
    write_structure_document(pres, path)
    listed = []
    parse = algebra._parse_products

    def listing_parse(doc, pres, pairs):
        listed.append(pairs)
        return parse(doc, pres, pairs)

    monkeypatch.setattr(algebra, "_parse_products", listing_parse)
    straightened_words.clear()
    load_structure_document(path, Presentation(5, 2), samples=100)
    mons = pres.full_basis()
    assert listed == [SAMPLED_N5_PAIRS]
    assert straightened_words == [mons[i] + mons[j] for i, j in SAMPLED_N5_PAIRS]


def test_full_check_counts_every_pair_and_re_derives_those_within_the_top_weight(
        straightened_words):
    pres = Presentation(4, 2)
    doc = structure_document(pres)
    mons = pres.full_basis()
    within = sum(1 for u in mons for v in mons if len(u) + len(v) <= pres.top_weight)
    straightened_words.clear()
    assert verify_structure_document(doc, Presentation(4, 2), samples=None) == len(mons) ** 2
    assert len(straightened_words) == within


def test_report_from_a_cache_straightens_only_the_samples(tmp_path, capsys, request,
                                                         straightened_words):
    # loading a document straightens only its 100 samples, and a report
    # multiplies its witness in words, 2(n - 2) straightenings of as many
    # words and never the n! basis words: no report reads a document, so
    # loading one saves a report nothing
    from tcbounds.cli import main

    path = tmp_path / "s.json"
    write_structure_document(Presentation(5, 3), path)
    straightened_words.clear()
    load_structure_document(path, Presentation(5, 3))
    assert len(straightened_words) == 100
    straightened_words.clear()
    request.getfixturevalue("unlisted_basis")
    assert main(["report", "--n", "5", "--m", "3"]) == 0
    assert len(straightened_words) == 6
    assert len(set(straightened_words)) == 6


@pytest.mark.parametrize("samples", [0, -3, True, False, 2.0, "100"])
def test_a_check_of_no_products_is_refused(tmp_path, samples):
    # samples is None (every product) or an int >= 1: a count of 0, a negative
    # count or a bool would check nothing, or one product, and still pass
    path = tmp_path / "s.json"
    pres = Presentation(4, 2)
    write_structure_document(pres, path)
    doc = json.loads(path.read_text())
    for check in (lambda: verify_structure_document(doc, pres, samples),
                  lambda: load_structure_document(path, pres, samples)):
        with pytest.raises(ValueError, match="samples") as refused:
            check()
        assert type(refused.value) is ValueError
    assert verify_structure_document(doc, pres, 1) == 1
