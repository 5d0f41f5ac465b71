"""Regenerate ``data/``: the zoo edge lists and their reference answers.

Run from the root of the checkout::

    python3 perfbench/make_data.py

Writes ``data/<name>.txt.gz`` for every zoo graph a workload uses and
``data/refs.json`` with each graph's edge-text sha256 and the count and
digest of its maximal bicliques from the ``imbea`` engine.  The files are
committed; rerun only when the benchmark should measure new graphs, since
that changes every workload built on them.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys

from common import SRC
from inputs import DATA_DIR, REFS_PATH, edge_text, reference

ZOO = ["mti", "wa", "tm", "am", "so", "pa", "gh"]


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro import datasets

    DATA_DIR.mkdir(exist_ok=True)
    refs = {}
    for name in ZOO:
        edges = sorted(datasets.load(name).edges())
        text = edge_text(edges).encode()
        (DATA_DIR / f"{name}.txt.gz").write_bytes(
            gzip.compress(text, compresslevel=9, mtime=0))
        refs[name] = {"sha256": hashlib.sha256(text).hexdigest(),
                      **reference(edges)}
        print(name, refs[name]["count"], flush=True)
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
