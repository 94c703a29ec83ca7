"""Distributed Bloom filter + bloom-prefiltered semi-join.

The 100 TB pattern this enables: a semi-join where the left side is huge
(the corpus) and the right side's KEY SET is modest but too large to
broadcast as raw keys.  A Bloom filter compresses the key set to a fixed
``m_bits``-bit bitmap (1 MiB at the default 2^23) with a tunable false-
positive rate; the left side is prefiltered IN ITS SCAN STAGE, so only
true matches plus the fp-rate's worth of stragglers ever enter the
exchange.  Exactness is restored by a normal semi-join over the
survivors — the bloom only reduces shuffle volume, never changes the
result.

Build is one pass over the right keys: per-block partial bitmaps
(vectorized double hashing, Kirsch-Mitzenmacher: position_i = h1 + i*h2),
OR-merged in a tree (4 KiB–1 MiB per block moved, independent of row
count), then ``ray.put`` once — the same mergeable-sketch skeleton as the
HLL module (sketches.py).

No reference counterpart (the reference has no joins at all); this is
part of the engine's large-scale curation surface.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..cluster import arrow_block_refs
from ..hashing import hash64_array, mix64

DEFAULT_M_BITS = 1 << 23  # 1 MiB bitmap
DEFAULT_K = 7  # optimal near n/m ≈ 0.1; fp ≈ 0.8% at 1M keys / 2^23 bits


def _probe_positions(keys: pa.Array | pa.ChunkedArray, m_bits: int, k: int) -> np.ndarray:
    """(k, n) int64 bit positions via double hashing of a key column."""
    h1 = hash64_array(keys)
    h2 = mix64(h1 ^ np.uint64(0xA5A5A5A55A5A5A5A)) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)[:, None]
    return ((h1[None, :] + i * h2[None, :]) % np.uint64(m_bits)).astype(
        np.int64
    )


def bloom_partial(
    keys: pa.Array | pa.ChunkedArray, m_bits: int = DEFAULT_M_BITS, k: int = DEFAULT_K
) -> np.ndarray:
    """Block of keys → packed uint64 bitmap (``m_bits // 64`` words)."""
    words = np.zeros(m_bits // 64, dtype=np.uint64)
    if len(keys) == 0:
        return words
    pos = _probe_positions(keys, m_bits, k).ravel()
    np.bitwise_or.at(
        words, pos >> 6, np.uint64(1) << (pos.astype(np.uint64) & np.uint64(63))
    )
    return words


def bloom_contains(
    words: np.ndarray, keys: pa.Array | pa.ChunkedArray, m_bits: int, k: int
) -> np.ndarray:
    """Vectorized membership test → bool[n] (true = POSSIBLY present)."""
    if len(keys) == 0:
        return np.zeros(0, dtype=bool)
    pos = _probe_positions(keys, m_bits, k)
    bits = (
        words[pos >> 6] >> (pos.astype(np.uint64) & np.uint64(63))
    ) & np.uint64(1)
    return bits.all(axis=0)


def bloom_build(
    ds: ray.data.Dataset,
    col: str,
    *,
    m_bits: int = DEFAULT_M_BITS,
    k: int = DEFAULT_K,
) -> "ray.ObjectRef":
    """One pass over ``ds[col]`` → ``ray.put`` ObjectRef of the merged
    bitmap.  Exchange volume: one ``m_bits/8``-byte blob per block into an
    8-way tree combine, then one driver OR of 8 blobs — independent of row
    count."""

    def partial(batch: pa.Table) -> pa.Table:
        words = bloom_partial(batch[col], m_bits, k)
        return pa.table({"bf": pa.array([words.tobytes()], pa.binary())})

    def _or_blobs(batch: pa.Table) -> np.ndarray:
        merged = np.zeros(m_bits // 64, dtype=np.uint64)
        for blob in batch["bf"].to_pylist():
            merged |= np.frombuffer(blob, dtype=np.uint64)
        return merged

    def combine(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"bf": pa.array([_or_blobs(batch).tobytes()], pa.binary())}
        )

    partials = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .repartition(8)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )
    merged = np.zeros(m_bits // 64, dtype=np.uint64)
    for t in ray.get(arrow_block_refs(partials)):
        if t.num_rows:
            merged |= _or_blobs(t)
    return ray.put(merged)


def bloom_semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_on: str,
    right_on: str,
    left_cols: list[str] | None = None,
    m_bits: int = DEFAULT_M_BITS,
    k: int = DEFAULT_K,
    exact: bool = True,
) -> ray.data.Dataset:
    """EXACT semi-join with a Bloom prefilter on the left scan.

    Plan: build the bloom over the right keys (one pass, tree-merged
    bitmap, broadcast once) → filter left batches in place (only possible
    members survive; at the default parameters that's matches + ~0.8%
    false positives) → exact ``left_semi`` join of the SURVIVORS through
    the planner.  With ``exact=False`` the verify join is skipped and the
    result may contain bloom false positives (useful when a downstream
    stage re-verifies anyway).

    The right side is scanned twice (bloom build + verify join); both
    passes reduce map-side, so at scale the savings on the left exchange
    dominate.  Output columns: ``left_cols`` (default: all left columns).
    """
    bref = bloom_build(right, right_on, m_bits=m_bits, k=k)

    def prefilter(batch: pa.Table) -> pa.Table:
        words = ray.get(bref)
        return batch.filter(
            pa.array(bloom_contains(words, batch[left_on], m_bits, k))
        )

    survivors = left.map_batches(prefilter, batch_format="pyarrow")
    if not exact:
        if left_cols is not None:
            survivors = survivors.select_columns(left_cols)
        return survivors

    def local_distinct(batch: pa.Table) -> pa.Table:
        return batch.select([right_on]).group_by(right_on).aggregate([])

    distinct = right.map_batches(local_distinct, batch_format="pyarrow")
    from ..cluster import equi_join

    return equi_join(
        survivors,
        distinct,
        on=left_on,
        right_on=right_on,
        join_type="left_semi",
        left_cols=left_cols,
        right_types={right_on: _col_type(right, right_on)},
    )


def _col_type(ds: ray.data.Dataset, col: str) -> pa.DataType:
    sch = ds.schema()
    if sch is None:
        raise ValueError(f"bloom_semi_join: right side has no schema")
    return sch.base_schema.field(col).type
