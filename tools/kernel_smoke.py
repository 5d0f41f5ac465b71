#!/usr/bin/env python
"""Smoke-test the packed uint64 kernel layer against the sorted-list ops.

The batched kernels in :mod:`repro.setops.kernels` are a library no
enumeration engine calls; the sorted-list ops in
:mod:`repro.setops.sorted_ops` are the slow, obviously-correct
reference.  This smoke sweeps the two against each other at the uint64
word boundaries plus a cache-blocked width:

1. pack/unpack round-trips and row popcounts at widths 1..65, 128/129,
   and past ``BLOCK_WORDS`` words;
2. ``filter_batch`` / ``subset_reduce`` / ``disjoint_reduce`` versus
   ``sorted_ops.intersect`` / ``is_subset`` on seeded random row batches;
3. ``partitioned_union_rows`` versus ``sorted_ops.union_many`` at several
   lane counts, including lanes > |union|.

Exits non-zero on the first divergence.  Usage::

    PYTHONPATH=src python tools/kernel_smoke.py [--seed 0]
"""

from __future__ import annotations

import argparse
import random
import sys

import numpy as np

from repro.setops import kernels, sorted_ops

#: widths hitting both sides of every uint64 word edge, plus one past the
#: cache-blocking threshold
WIDTHS = (1, 7, 63, 64, 65, 128, 129, 64 * kernels.BLOCK_WORDS + 17)


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def random_rows(rng: random.Random, n_bits: int, n_rows: int) -> list[list[int]]:
    universe = list(range(n_bits))
    rows = [
        sorted(rng.sample(universe, rng.randint(0, n_bits)))
        for _ in range(n_rows)
    ]
    # adversarial rows: empty, full, the word-edge singletons
    rows += [[], universe, [0], [n_bits - 1]]
    return rows


def check_roundtrip(rng: random.Random, n_bits: int) -> None:
    rows = random_rows(rng, n_bits, 12)
    matrix = kernels.pack_indices(rows, n_bits)
    pcs = kernels.popcount_rows(matrix)
    for i, row in enumerate(rows):
        got = list(kernels.unpack_indices(matrix[i]))
        if got != row:
            fail(f"width {n_bits}: pack/unpack row {i}: {got} != {row}")
        if int(pcs[i]) != len(row):
            fail(f"width {n_bits}: popcount row {i}: {pcs[i]} != {len(row)}")


def check_filters(rng: random.Random, n_bits: int) -> None:
    rows = random_rows(rng, n_bits, 12)
    matrix = kernels.pack_indices(rows, n_bits)
    pivots = [r for r in rows if r][:4] or [rows[0]]
    for pivot in pivots:
        prow = kernels.pack_indices([pivot], n_bits)[0]
        inter, pc, full, nonzero = kernels.filter_batch(matrix, prow)
        subset = kernels.subset_reduce(matrix, prow)
        disjoint = kernels.disjoint_reduce(matrix, prow)
        for i, row in enumerate(rows):
            want = sorted_ops.intersect(row, pivot)
            got = list(kernels.unpack_indices(inter[i]))
            if got != want:
                fail(f"width {n_bits}: filter_batch intersect row {i}: "
                     f"{got} != {want}")
            if int(pc[i]) != len(want):
                fail(f"width {n_bits}: filter_batch popcount row {i}")
            # full means the pivot is fully absorbed by this row
            if bool(full[i]) != sorted_ops.is_subset(pivot, row):
                fail(f"width {n_bits}: filter_batch full flag row {i}")
            if bool(nonzero[i]) != bool(want):
                fail(f"width {n_bits}: filter_batch nonzero flag row {i}")
            if bool(subset[i]) != sorted_ops.is_subset(row, pivot):
                fail(f"width {n_bits}: subset_reduce row {i}")
            if bool(disjoint[i]) != (not want):
                fail(f"width {n_bits}: disjoint_reduce row {i}")


def check_partitioned_union(rng: random.Random, n_bits: int) -> None:
    rows = random_rows(rng, n_bits, 12)
    matrix = kernels.pack_indices(rows, n_bits)
    want = sorted_ops.union_many(rows)
    for lanes in (1, 3, 4, 2 * kernels.words_for(n_bits) + 5, len(want) + 8):
        got = list(
            kernels.partitioned_union_rows(matrix, lanes=max(1, lanes))
        )
        if got != want:
            fail(f"width {n_bits}: partitioned_union lanes={lanes}: "
                 f"{len(got)} elements != {len(want)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    meta = kernels.kernel_meta()
    print(f"kernel smoke: numpy {np.__version__}, "
          f"popcount={meta['popcount_backend']}, numba={meta['numba']}")
    rng = random.Random(args.seed)
    for n_bits in WIDTHS:
        check_roundtrip(rng, n_bits)
        check_filters(rng, n_bits)
        check_partitioned_union(rng, n_bits)
        print(f"  width {n_bits}: pack/filter/union vs sorted_ops OK")
    print("kernel smoke: OK")


if __name__ == "__main__":
    main()
