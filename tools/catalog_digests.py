"""Record the sha256 of every shipped finite catalog, over Q, F2 and F3.

A catalog's digest is the sha256 of the `rep_file_text` of its entries, in
catalog order, joined.  The digests go to tests/golden/catalog_sha256.json,
keyed by quiver file name and then by field token; the test suite compares
each catalog it builds against them, so any change to the emitted bytes of
an indecomposable shows.  Run from the repository root:

    PYTHONPATH=src python tools/catalog_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from quiverrep.formats import parse_field, parse_quiver_file, rep_file_text
from quiverrep.indec import IndecCatalog, all_indecomposables
from quiverrep.quiver import classify

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "catalog_sha256.json"
FIELDS = ("Q", "F2", "F3")


def catalog_digest(catalog: IndecCatalog) -> str:
    """Hex sha256 of the catalog's entries written as `.rep` files, in order."""
    text = "".join(rep_file_text(m) for _, m in catalog.entries)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def catalog_digests() -> dict[str, dict[str, str]]:
    """Digest of each shipped finite-type quiver's catalog over each of FIELDS."""
    out = {}
    for path in sorted((ROOT / "quivers").glob("*.quiver")):
        q = parse_quiver_file(path.read_text(encoding="utf-8"))
        if classify(q).finite:
            out[path.name] = {t: catalog_digest(all_indecomposables(q, parse_field(t))) for t in FIELDS}
    return out


def main() -> None:
    digests = catalog_digests()
    GOLDEN.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, digests.values()))} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
