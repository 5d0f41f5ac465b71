"""Set-operation substrate for maximal biclique enumeration.

Every MBE algorithm in this repository is, at its core, a long sequence of
set intersections, unions, and subset tests over vertex neighbourhoods.
This package provides the three representations those algorithms use:

``sorted_ops``
    Operations on *sorted* sequences of vertex ids (the CSR adjacency rows).
    Merge-based and galloping variants are provided; all results are sorted.

``bitmap``
    Arbitrary-width bitsets backed by Python integers, plus
    :class:`~repro.setops.bitmap.SignatureSpace`, which maps a small vertex
    universe to bit positions so that neighbourhood intersections become a
    single ``&`` and a ``bit_count()``.

``intersect_path``
    A deterministic CPU realization of the merge-path ("intersect path")
    partitioned set union used by warp-cooperative GPU implementations in
    this literature.  Partitioning the merge grid into independent lanes is
    a pure algorithm and is tested as such.

``kernels``
    Batched uint64-word bitmap kernels: whole candidate batches are
    packed into ``(n, words)`` matrices and intersected/classified in a
    handful of numpy dispatches, with a word-level realization of the
    merge-path partitioned union.  A library, not an enumeration path:
    no engine calls it.  It backs the packed side of
    :meth:`SignatureSpace.encode_rows` and is imported from
    :mod:`repro.setops.kernels` directly, so importing this package
    does not import numpy.
"""

from repro.setops.bitmap import Bitmap, SignatureSpace
from repro.setops.intersect_path import merge_path_partitions, partitioned_union
from repro.setops.sorted_ops import (
    galloping_intersect,
    intersect,
    intersect_size,
    is_strict_subset,
    is_subset,
    multi_intersect,
    set_difference,
    union,
    union_many,
)

__all__ = [
    "Bitmap",
    "SignatureSpace",
    "galloping_intersect",
    "intersect",
    "intersect_size",
    "is_strict_subset",
    "is_subset",
    "merge_path_partitions",
    "multi_intersect",
    "partitioned_union",
    "set_difference",
    "union",
    "union_many",
]
