"""Batched uint64-word bitmap kernels: a library, not an enumeration path.

No engine calls these kernels (a kernel-backed MBET ran within noise of
the Python-int search on every zoo graph and was removed; see
``docs/performance.md``).  Importing this module imports numpy, which
is why :mod:`repro.setops` does not re-export it.

The GPU line this paper spawned (GMBE and its successors) wins by doing
set operations on *packed bitmap words* — one 64-element chunk of the
universe per machine word — with warp-cooperative partitioned unions.
This module is the CPU analogue: every kernel takes a **row batch**, a
``(n, words)`` uint64 matrix whose row ``i`` is the signature of set
``i``, and performs the whole batch in a handful of numpy dispatches
instead of one Python-level operation per set.

Layout contract
---------------
Bit ``b`` of a signature lives in word ``b // 64`` at in-word position
``b % 64`` (little-endian words, little-endian bits within each word),
which makes a packed row bit-for-bit identical to the little-endian
byte serialization of the equivalent Python-int mask — ``pack_masks``
and ``mask_from_row`` are exact inverses of each other and of
``int.to_bytes(..., "little")``.

Kernels
-------
* ``pack_masks`` / ``unpack_masks`` / ``mask_from_row`` — Python-int
  mask ↔ row-batch conversion.
* ``pack_indices`` / ``unpack_indices`` — index-list ↔ row conversion
  (a vectorized scatter-OR; the backend of
  :meth:`repro.setops.bitmap.SignatureSpace.encode_rows`).
* ``and_rows`` / ``or_rows`` / ``andnot_rows`` — row-batched set
  algebra against a single row or a second batch.
* ``subset_reduce`` / ``disjoint_reduce`` — row-batched predicates.
* ``popcount_rows`` — per-row cardinality; backend picked at import by
  *runtime* capability detection (``np.bitwise_count`` where the
  installed numpy has it, a portable byte-table fallback otherwise —
  see :func:`popcount_backend`).
* ``filter_batch`` — the enumeration inner loop fused into one call:
  intersect a candidate batch with a branch signature and classify
  every row as absorbed / partial / disjoint, returning the
  intersection popcounts for free (child ordering reuses them).
* ``group_rows`` — equal-row grouping (signature merging).
* ``or_reduce`` / ``popcount_partitions`` / ``partitioned_union_rows``
  — the word-level realization of the merge-path partitioned union of
  :mod:`repro.setops.intersect_path`: lanes own popcount-balanced word
  ranges (found by binary search over the cumulative popcount, exactly
  as GPU lanes binary-search merge-grid diagonals) and decode their
  slice of the union independently.

Wide universes are processed in cache-sized column blocks
(``BLOCK_WORDS``) so a row batch streams through L1/L2 once per kernel
instead of materializing multi-megabyte temporaries.

An optional `numba <https://numba.pydata.org>`_ ``@njit`` fast path for
the two hottest kernels (``filter_batch``, ``popcount_rows``) is
auto-detected at import and silently degrades to the pure-numpy
implementation on any compilation failure; ``REPRO_KERNELS_NUMBA=0``
disables the probe.  :func:`kernel_meta` reports exactly which backends
a process ended up with — benchmark snapshots record it per row so
numbers are attributable to a configuration.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BLOCK_WORDS",
    "WORD",
    "and_rows",
    "andnot_rows",
    "disjoint_reduce",
    "filter_batch",
    "group_rows",
    "kernel_meta",
    "mask_from_row",
    "or_reduce",
    "or_rows",
    "pack_indices",
    "pack_masks",
    "partitioned_union_rows",
    "popcount_backend",
    "popcount_partitions",
    "popcount_rows",
    "subset_reduce",
    "unpack_indices",
    "unpack_masks",
    "words_for",
]

#: Bits per packed word.
WORD = 64

#: Column-block width (words) past which kernels process a row batch in
#: cache-sized blocks: 64 words = 512 B per row per block, so a block of
#: a few hundred rows stays inside L2 while streaming.
BLOCK_WORDS = 64


def words_for(n_bits: int) -> int:
    """Words needed for an ``n_bits``-wide universe (at least one)."""
    if n_bits < 0:
        raise ValueError("universe width must be non-negative")
    return max(1, -(-n_bits // WORD))


# -- packing ----------------------------------------------------------------


def pack_masks(masks: Sequence[int], words: int) -> np.ndarray:
    """Pack Python-int masks into one ``(len(masks), words)`` uint64 batch.

    One numpy construction for the whole batch (the bytes of every mask
    are concatenated and reinterpreted as little-endian words), not one
    array fill per mask.
    """
    n = len(masks)
    if n == 0:
        return np.zeros((0, words), dtype=np.uint64)
    size = words * 8
    buf = bytearray()
    for mask in masks:
        buf += mask.to_bytes(size, "little")
    return (
        np.frombuffer(buf, dtype="<u8")
        .reshape(n, words)
        .astype(np.uint64, copy=False)
    )


def mask_from_row(row: np.ndarray) -> int:
    """Unpack one uint64 row back into a Python-int mask."""
    if row.shape[-1] == 1:
        return int(row[0])
    return int.from_bytes(
        np.ascontiguousarray(row, dtype="<u8").tobytes(), "little"
    )


def unpack_masks(matrix: np.ndarray) -> list[int]:
    """Unpack a whole row batch back into Python-int masks."""
    if matrix.shape[1] == 1:
        return matrix[:, 0].tolist()
    data = np.ascontiguousarray(matrix, dtype="<u8").tobytes()
    size = matrix.shape[1] * 8
    return [
        int.from_bytes(data[i: i + size], "little")
        for i in range(0, len(data), size)
    ]


def pack_indices(rows: Sequence[Iterable[int]], n_bits: int) -> np.ndarray:
    """Pack index lists into a row batch via one vectorized scatter-OR.

    Row ``i`` of the result has bit ``b`` set for every ``b`` in
    ``rows[i]``.  Indices must lie in ``[0, n_bits)``.
    """
    words = words_for(n_bits)
    out = np.zeros((len(rows), words), dtype=np.uint64)
    flat: list[int] = []
    row_ids: list[int] = []
    for i, row in enumerate(rows):
        before = len(flat)
        flat.extend(row)
        row_ids.extend([i] * (len(flat) - before))
    if not flat:
        return out
    pos = np.asarray(flat, dtype=np.int64)
    if pos.size and (pos.min() < 0 or pos.max() >= max(n_bits, 1)):
        raise ValueError("bit index outside the universe")
    bits = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
    np.bitwise_or.at(out, (np.asarray(row_ids, dtype=np.int64), pos >> 6), bits)
    return out


def unpack_indices(row: np.ndarray) -> np.ndarray:
    """Set bit positions of one packed row, ascending (int64 array)."""
    as_bytes = np.ascontiguousarray(row, dtype="<u8").view(np.uint8)
    return np.flatnonzero(np.unpackbits(as_bytes, bitorder="little"))


# -- popcount (dual backend, runtime-detected) ------------------------------

#: bits set in each byte value, for the portable table fallback
_POPCOUNT8 = np.unpackbits(
    np.arange(256, dtype=np.uint8).reshape(256, 1), axis=1
).sum(axis=1, dtype=np.int64)


def popcount_rows_native(matrix: np.ndarray) -> np.ndarray:
    """Per-row popcount via ``np.bitwise_count`` (numpy >= 2.0)."""
    if matrix.ndim == 1:
        return np.bitwise_count(matrix).astype(np.int64)
    if matrix.shape[1] == 1:
        return np.bitwise_count(matrix[:, 0]).astype(np.int64)
    return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)


def popcount_rows_table(matrix: np.ndarray) -> np.ndarray:
    """Per-row popcount via a byte lookup table (any numpy).

    A ``(n, words)`` uint64 batch viewed as uint8 is ``(n, 8 * words)``;
    summing the per-byte table over axis 1 is the row popcount.
    """
    flat = matrix.ndim == 1
    if flat:
        matrix = matrix.reshape(-1, 1)
    bytes_view = np.ascontiguousarray(matrix).view(np.uint8)
    out = _POPCOUNT8[bytes_view].sum(axis=1, dtype=np.int64)
    return out


# ``np.bitwise_count`` only exists from numpy 2.0.  The backend is picked
# by *runtime* capability detection — never by what pyproject's floor
# (numpy>=1.22) would allow — so an installed numpy >= 2.0 always gets
# the native kernel and older installs get the portable table.
if hasattr(np, "bitwise_count"):
    _POPCOUNT_BACKEND = "bitwise_count"
    _popcount_rows_numpy = popcount_rows_native
else:  # pragma: no cover - exercised by the oldest-numpy CI leg
    _POPCOUNT_BACKEND = "byte-table"
    _popcount_rows_numpy = popcount_rows_table


def popcount_backend() -> str:
    """The popcount backend this process selected at import.

    ``"bitwise_count"`` when the installed numpy has the native kernel,
    ``"byte-table"`` otherwise.
    """
    return _POPCOUNT_BACKEND


# -- optional numba fast path ------------------------------------------------

_NUMBA_STATE = "disabled"
_numba_filter = None
_numba_popcount = None

if os.environ.get("REPRO_KERNELS_NUMBA", "1") != "0":  # pragma: no branch
    try:  # pragma: no cover - numba absent in the reference environment
        import numba as _nb

        _M1 = np.uint64(0x5555555555555555)
        _M2 = np.uint64(0x3333333333333333)
        _M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
        _H01 = np.uint64(0x0101010101010101)
        _S1 = np.uint64(1)
        _S2 = np.uint64(2)
        _S4 = np.uint64(4)
        _S56 = np.uint64(56)

        @_nb.njit(cache=True, nogil=True)
        def _popcount64(x):  # SWAR popcount on one uint64
            x = x - ((x >> _S1) & _M1)
            x = (x & _M2) + ((x >> _S2) & _M2)
            x = (x + (x >> _S4)) & _M4
            return np.int64((x * _H01) >> _S56)

        @_nb.njit(cache=True, nogil=True)
        def _numba_popcount_impl(matrix):
            n, words = matrix.shape
            out = np.empty(n, np.int64)
            for i in range(n):
                acc = np.int64(0)
                for c in range(words):
                    acc += _popcount64(matrix[i, c])
                out[i] = acc
            return out

        @_nb.njit(cache=True, nogil=True)
        def _numba_filter_impl(tail, row):
            n, words = tail.shape
            inter = np.empty_like(tail)
            pc = np.empty(n, np.int64)
            for i in range(n):
                acc = np.int64(0)
                for c in range(words):
                    v = tail[i, c] & row[c]
                    inter[i, c] = v
                    acc += _popcount64(v)
                pc[i] = acc
            return inter, pc

        _numba_filter = _numba_filter_impl
        _numba_popcount = _numba_popcount_impl
        _NUMBA_STATE = "available"
    except Exception:  # pragma: no cover - any import/compile failure
        _numba_filter = None
        _numba_popcount = None
        _NUMBA_STATE = "unavailable"


def _disable_numba() -> None:  # pragma: no cover - numba-only path
    """Permanently fall back to numpy after a lazy-compile failure."""
    global _numba_filter, _numba_popcount, _NUMBA_STATE
    _numba_filter = None
    _numba_popcount = None
    _NUMBA_STATE = "compile-failed"


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row popcount of a row batch (or of a 1-D word vector)."""
    if _numba_popcount is not None and matrix.ndim == 2:  # pragma: no cover
        try:
            return _numba_popcount(np.ascontiguousarray(matrix))
        except Exception:
            _disable_numba()
    return _popcount_rows_numpy(matrix)


# -- row-batched algebra -----------------------------------------------------


def and_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-batched intersection ``a & b`` (``b``: one row or a batch)."""
    return a & b


def or_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-batched union ``a | b`` (``b``: one row or a batch)."""
    return a | b


def andnot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-batched difference ``a \\ b`` (``b``: one row or a batch)."""
    return a & ~b


def subset_reduce(matrix: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Per-row predicate ``matrix[i] ⊆ row`` (bool array).

    Cache-blocked over word columns for wide universes.
    """
    n, words = matrix.shape
    if words == 1:
        return (matrix[:, 0] & ~row[0]) == 0
    if words <= BLOCK_WORDS:
        return ~np.any(matrix & ~row, axis=1)
    ok = np.ones(n, dtype=bool)
    for c0 in range(0, words, BLOCK_WORDS):
        c1 = min(words, c0 + BLOCK_WORDS)
        ok &= ~np.any(matrix[:, c0:c1] & ~row[c0:c1], axis=1)
    return ok


def disjoint_reduce(matrix: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Per-row predicate ``matrix[i] ∩ row == ∅`` (bool array)."""
    n, words = matrix.shape
    if words == 1:
        return (matrix[:, 0] & row[0]) == 0
    if words <= BLOCK_WORDS:
        return ~np.any(matrix & row, axis=1)
    ok = np.ones(n, dtype=bool)
    for c0 in range(0, words, BLOCK_WORDS):
        c1 = min(words, c0 + BLOCK_WORDS)
        ok &= ~np.any(matrix[:, c0:c1] & row[c0:c1], axis=1)
    return ok


def filter_batch(
    tail: np.ndarray, row: np.ndarray, row_pc: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Intersect a candidate batch with one signature and classify it.

    The fused inner loop of the prefix-tree search: for every row ``i``
    of ``tail`` compute ``inter[i] = tail[i] & row`` and report

    * ``pc[i]``      — ``|inter[i]|`` (row popcount, int64),
    * ``full[i]``    — ``inter[i] == row`` (the candidate group absorbs
      the whole branch signature; since ``inter[i] ⊆ row`` always, this
      is exactly ``pc[i] == |row|`` — one popcount serves the equality
      test, the emptiness test, *and* the child's sort keys),
    * ``nonzero[i]`` — ``inter[i] != ∅``.

    Returns ``(inter, pc, full, nonzero)``.  ``row_pc`` may pass ``|row|``
    when the caller already knows it.  Wide universes are processed in
    cache-sized column blocks.
    """
    n, words = tail.shape
    if row_pc is None:
        row_pc = int(popcount_rows(row.reshape(1, words))[0])
    if words == 1:
        inter1 = tail[:, 0] & row[0]
        pc = _popcount_rows_numpy(inter1)
        return inter1.reshape(n, 1), pc, pc == row_pc, inter1 != 0
    if _numba_filter is not None:  # pragma: no cover - numba-only path
        try:
            inter, pc = _numba_filter(
                np.ascontiguousarray(tail), np.ascontiguousarray(row)
            )
            return inter, pc, pc == row_pc, pc != 0
        except Exception:
            _disable_numba()
    if words <= BLOCK_WORDS:
        inter = tail & row
        pc = _popcount_rows_numpy(inter)
        return inter, pc, pc == row_pc, pc != 0
    inter = np.empty_like(tail)
    pc = np.zeros(n, dtype=np.int64)
    for c0 in range(0, words, BLOCK_WORDS):
        c1 = min(words, c0 + BLOCK_WORDS)
        block = tail[:, c0:c1] & row[c0:c1]
        inter[:, c0:c1] = block
        pc += _popcount_rows_numpy(block)
    return inter, pc, pc == row_pc, pc != 0


def group_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows: ``(unique_rows, inverse)`` like ``np.unique``.

    Single-word batches take a 1-D unique (much cheaper than numpy's
    void-view row unique); multi-word batches fall back to
    ``np.unique(axis=0)``.  ``inverse[i]`` is the index of row ``i``'s
    group in ``unique_rows``.
    """
    if matrix.shape[1] == 1:
        unique, inverse = np.unique(matrix[:, 0], return_inverse=True)
        return unique.reshape(-1, 1), inverse.ravel()
    unique, inverse = np.unique(matrix, axis=0, return_inverse=True)
    return unique, np.asarray(inverse).ravel()


# -- word-level partitioned union -------------------------------------------


def or_reduce(matrix: np.ndarray) -> np.ndarray:
    """OR-reduce a row batch into one row (the packed union of all rows)."""
    n, words = matrix.shape
    if n == 0:
        return np.zeros(words, dtype=np.uint64)
    if words <= BLOCK_WORDS:
        return np.bitwise_or.reduce(matrix, axis=0)
    out = np.empty(words, dtype=np.uint64)
    for c0 in range(0, words, BLOCK_WORDS):
        c1 = min(words, c0 + BLOCK_WORDS)
        out[c0:c1] = np.bitwise_or.reduce(matrix[:, c0:c1], axis=0)
    return out


def popcount_partitions(row: np.ndarray, lanes: int) -> list[int]:
    """Cut one packed row into ``lanes`` popcount-balanced word ranges.

    The word-level realization of merge-path partitioning: where
    :func:`repro.setops.intersect_path.merge_path_partitions` binary-
    searches merge-grid diagonals so every lane owns an equal share of
    the *output*, this binary-searches the cumulative per-word popcount
    so every lane owns an (up to word granularity) equal share of the
    union's elements.  Returns ``lanes + 1`` word indices; lane ``k``
    owns words ``[points[k], points[k+1])``.  Duplicate points denote
    empty lanes, mirroring the merge-path contract.
    """
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    words = row.shape[0]
    per_word = _popcount_rows_numpy(row)
    cum = np.cumsum(per_word)
    total = int(cum[-1]) if words else 0
    points: list[int] = [0]
    for k in range(1, lanes):
        target = (k * total + lanes - 1) // lanes
        points.append(int(np.searchsorted(cum, target, side="left")))
        if points[-1] < points[-2]:  # pragma: no cover - monotone by cumsum
            points[-1] = points[-2]
    points.append(words)
    return points


def partitioned_union_rows(matrix: np.ndarray, lanes: int = 4) -> np.ndarray:
    """Sorted union of all rows of a packed batch, computed lane-wise.

    ``or_reduce`` packs the union; each lane then independently decodes
    its popcount-balanced word range (:func:`popcount_partitions`) and
    the concatenation of the lane outputs is the sorted union — the
    packed-row counterpart of
    :func:`repro.setops.intersect_path.partitioned_union`, which walks
    the same decomposition with per-element Python loops.  Lane outputs
    depend only on (packed union, own word range), which is what makes
    the GPU version race-free.
    """
    union = or_reduce(matrix)
    points = popcount_partitions(union, lanes)
    parts = []
    for k in range(lanes):
        lo, hi = points[k], points[k + 1]
        if lo >= hi:
            continue
        part = unpack_indices(union[lo:hi])
        if part.size:
            parts.append(part + lo * WORD)
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts)


# -- metadata ----------------------------------------------------------------


def kernel_meta() -> dict:
    """The kernel configuration of this process, for benchmark snapshots.

    Records everything needed to attribute a measured number to a
    backend: numpy version, popcount backend, numba state, and the
    block/word geometry.
    """
    meta = {
        "numpy": np.__version__,
        "popcount_backend": _POPCOUNT_BACKEND,
        "numba": _NUMBA_STATE,
        "word_bits": WORD,
        "block_words": BLOCK_WORDS,
    }
    if _NUMBA_STATE == "available":  # pragma: no cover - numba absent here
        import numba

        meta["numba_version"] = numba.__version__
    return meta
