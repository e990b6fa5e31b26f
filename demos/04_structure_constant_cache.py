"""Exporting and re-verifying structure-constant documents.

A document is an export of a ring's multiplication table and an independent
check of it; no certificate reads one.  It is versioned, checksummed, and
re-verified against fresh computation when loaded, so a stale or hand-edited
file is always caught.

Run:  python demos/04_structure_constant_cache.py
"""

import json
import tempfile
from pathlib import Path

from tcbounds import (
    CacheError,
    Presentation,
    load_structure_document,
    write_structure_document,
)
from tcbounds.algebra import _document_checksum, verify_structure_document

with tempfile.TemporaryDirectory(prefix="tcbounds-demo-") as tmp:
    workdir = Path(tmp)
    path = workdir / "structure_n3_m2.json"

    # -----------------------------------------------------------------------
    # export and reload
    # -----------------------------------------------------------------------

    # The writer returns the checksum; the loader returns the checked document.
    write_structure_document(Presentation(3, 2), path)
    print(f"wrote {path}")
    pres = Presentation(3, 2)
    doc = load_structure_document(path, pres)
    print(f"  schema v{doc['schema_version']}, {len(doc['basis'])} basis monomials, "
          f"{len(doc['products'])} nonzero products")
    print(f"  checksum {doc['checksum'][:16]}...")
    print("reloaded and spot-verified against fresh straightening")

    # Re-exporting from the same ring reproduces the file byte for byte.
    write_structure_document(pres, workdir / "again.json")
    assert (workdir / "again.json").read_bytes() == path.read_bytes()
    print("re-export is byte-identical")

    # -----------------------------------------------------------------------
    # what the guards catch
    # -----------------------------------------------------------------------

    # 1. a flipped bit breaks the checksum
    broken = json.loads(path.read_text())
    broken["products"][0][2][0][1] = "41"
    try:
        verify_structure_document(broken, pres)
    except CacheError as exc:
        print(f"\ncorrupted coefficient -> {exc}")

    # 2. even with a recomputed checksum, recomputation catches the lie
    broken["checksum"] = _document_checksum(
        {k: broken[k] for k in ("schema_version", "n", "m", "basis", "products")}
    )
    try:
        verify_structure_document(broken, pres, samples=None)
    except CacheError as exc:
        print(f"stale-but-consistent file  -> {exc}")

    # 3. a document never loads into the wrong ring, even when the constants
    #    happen to agree (m enters the schema key, not just the table)
    try:
        load_structure_document(path, Presentation(3, 4))
    except CacheError as exc:
        print(f"wrong (n, m) context       -> {exc}")
