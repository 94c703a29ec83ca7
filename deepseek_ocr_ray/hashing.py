"""Shared stable-hash helpers — ONE implementation of the bucket mixes.

Every keyed exchange in the engine buckets rows by a process-stable hash
(Python's ``hash()`` is salted per process and must never partition data).
Integer keys use a splitmix64-style mix (vectorized, allocation-free);
string keys use ``string_hash64`` (a vectorized hash over the raw Arrow
buffers).  Centralized here so dedup, joins,
windows and assembly cannot drift apart.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def splitmix_bucket(vals: np.ndarray, n_buckets: int) -> np.ndarray:
    """Vectorized stable bucket of an int64/uint64 array."""
    x = vals.astype(np.uint64)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    return (x % np.uint64(n_buckets)).astype(np.int64)


def mix64(x: np.ndarray) -> np.ndarray:
    """Murmur3 fmix64 finalizer, vectorized (full avalanche; stable)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(33)
    return x


_POLY_P = np.uint64(0x100000001B3)  # FNV-1a 64-bit prime
_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)  # fixed sentinel for null rows


def string_hash64(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Vectorized 64-bit hash of a string/binary column.

    Polynomial rolling hash mod 2^64 over the raw Arrow value buffer
    (``sum((byte+1) * P^(len-1-pos))``, segment-summed with a wraparound
    cumsum over the offsets buffer), length-folded and finished with the
    murmur3 avalanche — no per-row Python, no copies of the byte data.
    Null rows hash to a fixed sentinel.  Process/machine/parallelism-stable
    (pure integer arithmetic).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    nulls = None
    if arr.null_count:
        nulls = ~np.asarray(arr.is_valid())
        arr = arr.fill_null("" if pa.types.is_string(arr.type)
                            or pa.types.is_large_string(arr.type) else b"")
    arr = arr.cast(pa.large_binary())
    n = len(arr)
    if n == 0:
        return np.empty(0, np.uint64)
    off = np.frombuffer(arr.buffers()[1], np.int64)[
        arr.offset : arr.offset + n + 1
    ]
    o = (off - off[0]).astype(np.int64)
    total = int(o[-1])
    lengths = np.diff(o).astype(np.uint64)
    if total:
        data = np.frombuffer(arr.buffers()[2], np.uint8)[
            off[0] : off[-1]
        ].astype(np.uint64)
        data += np.uint64(1)
        # exponent of P for byte at global pos g in segment i:
        # (segment_end - 1 - g); powers precomputed to the max length
        ends = np.repeat(o[1:], np.diff(o))
        exp = (ends - 1 - np.arange(total)).astype(np.int64)
        maxlen = int(lengths.max())
        powers = np.full(maxlen, _POLY_P, np.uint64)
        powers[0] = np.uint64(1)
        powers = np.cumprod(powers)  # uint64 wraps mod 2^64
        contrib = data * powers[exp]
        cs = np.zeros(total + 1, np.uint64)
        np.cumsum(contrib, out=cs[1:])
        h = cs[o[1:]] - cs[o[:-1]]  # wraparound segment sums
    else:
        h = np.zeros(n, np.uint64)
    h ^= lengths * np.uint64(0x9E3779B97F4A7C15)
    h = mix64(h)
    if nulls is not None:
        h[nulls] = _NULL_HASH
    return h


def binary_parts(arr: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(offsets[int64, n+1], data[uint8]) of a large_binary array — the
    canonical raw-buffer extraction (offsets index into the FULL data
    buffer; ``arr.offset`` slicing is already applied to the offsets).
    Null slots have zero length — callers that must distinguish null
    from empty check ``arr.is_valid()`` themselves."""
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    n = len(arr)
    off = np.frombuffer(arr.buffers()[1], np.int64)[
        arr.offset : arr.offset + n + 1
    ]
    data = (
        np.frombuffer(arr.buffers()[2], np.uint8)
        if arr.buffers()[2] is not None
        else np.empty(0, np.uint8)
    )
    return off, data


def hash64_array(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Stable vectorized uint64 hash of an integer OR string/binary column."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_integer(arr.type):
        nulls = None
        if arr.null_count:
            nulls = ~np.asarray(arr.is_valid())
            arr = arr.fill_null(0)
        h = mix64(arr.to_numpy(zero_copy_only=False).astype(np.uint64))
        if nulls is not None:
            h[nulls] = _NULL_HASH
        return h
    return string_hash64(arr)


def id_bucket_array(ids: pa.Array | pa.ChunkedArray, n_buckets: int) -> pa.Array:
    """Stable bucket column for an id column of integer OR string type."""
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    if pa.types.is_integer(ids.type):
        x = ids.to_numpy(zero_copy_only=False)
        return pa.array(splitmix_bucket(x, n_buckets), pa.int64())
    return pa.array(
        (string_hash64(ids) % np.uint64(n_buckets)).astype(np.int64),
        pa.int64(),
    )


def hash64_columns(batch: pa.Table, keys: list[str]) -> np.ndarray:
    """Combined stable uint64 hash of several key columns: per-column
    ``hash64_array`` mixed with per-position bit rotations, then a final
    avalanche — the shared combined-key primitive of ``equi_join_multi``
    and the coarse-bucket aggregations."""
    h = np.zeros(batch.num_rows, np.uint64)
    for i, k in enumerate(keys):
        hk = hash64_array(batch[k])
        rot = np.uint64((17 * (i + 1)) % 64)
        h ^= (hk << rot) | (hk >> (np.uint64(64) - rot))
    return mix64(h)
