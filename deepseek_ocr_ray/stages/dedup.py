"""Distributed deduplication operators (exact + near-dup families).

The reference has no corpus dedup at all (SURVEY.md §2.8) — these are the
training-data-curation operators a 100 TB pipeline needs, built Ray-Data-first:

- **exact_dedup** — md5(text) → ``groupby(hash).aggregate(Min(id), Count())``.
  Ray's hash aggregate does map-side partial aggregation per block before the
  shuffle, so the exchange carries one row per *distinct* hash per block, not
  one per input row.
- **minhash_dedup** — char-shingle MinHash signatures (vectorized numpy) →
  banded LSH bucket keys → bucket groupby → per-bucket keep-min decisions
  verified by signature-estimated Jaccard → per-doc ``Max(dropped)`` reduce.
- **simhash_dedup** — 64-bit SimHash over token hashes, 16-bit bands for
  candidates, Hamming-distance verify.
- **ngram_jaccard_dedup** — MinHash LSH for candidates, then EXACT word
  n-gram Jaccard verification (texts carried into the bucket rows; at true
  10^12 scale you would verify with signatures or a join — documented).
- **embedding_dedup** — cosine near-dup over an embedding column: random-
  hyperplane (SRP) bit-band LSH for candidates, exact cosine verify.
  Plus a brute-force all-pairs variant (broadcast matrix) for oracles.

Shared scale design (``_lsh_dedup``): all near-dup flavors reduce to

    ds → map_batches(signature+bands)            # embarrassingly parallel
       → groupby(stable bucket of band key)      # shuffle #1, bounded groups
       → map_groups(walk buckets, emit (id, dropped) decisions)
       → groupby(id).aggregate(Max(dropped))     # shuffle #2, map-combined
       → filter kept

A document is dropped iff some LSH bucket contains a smaller-id document
whose verified similarity clears the threshold — deterministic at any
parallelism level (no union-find; standard keep-first LSH semantics).
Bucket groupby groups are *coarsened* (band-key hashed into ``n_buckets``
groups, boundaries walked vectorized inside) so 10^12 docs never mean 10^12
Python group calls — same trick as ``stages/assemble.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Min

from ..arrays import ints_to_numpy, list_to_matrix
from ..cluster import equi_join
from ..functions.text_stats import md5_fingerprints
from ..hashing import id_bucket_array, mix64, splitmix_bucket

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def add_text_hash(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    return batch.append_column("text_hash", md5_fingerprints(batch[text_col]))


def exact_dedup(
    ds: ray.data.Dataset, *, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """One row per distinct text: (text_hash, doc_id=min id, dup_count).

    The canonical exact-dedup shape: hash-partition by content hash, keep the
    smallest id per group.  SQL oracle:
    ``SELECT md5(text) AS text_hash, min(doc_id) AS doc_id, count(*) AS
    dup_count FROM documents GROUP BY 1``.
    """
    hashed = ds.map_batches(
        add_text_hash, fn_kwargs={"text_col": text_col}, batch_format="pyarrow"
    ).select_columns(["text_hash", id_col])
    out = hashed.groupby("text_hash").aggregate(Count(), Min(id_col))
    return out.rename_columns(
        {f"min({id_col})": id_col, "count()": "dup_count"}
    ).select_columns(["text_hash", id_col, "dup_count"])


def incremental_exact_dedup(
    new_ds: ray.data.Dataset,
    existing_ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Incremental corpus growth: keep only NEW documents whose exact text
    does not already exist in the existing corpus — the filter every
    recurring crawl/ingest runs before appending to a training corpus.

    Both sides reduce to md5 text hashes first (map-side), so only 16-byte
    hashes move; the existing side's distinct-hash set is the right input
    of one ``left_anti`` :func:`cluster.equi_join`, which broadcasts it
    when it fits the object-store cap and exchanges both sides by key
    otherwise.
    """
    new_hashed = new_ds.map_batches(
        add_text_hash, fn_kwargs={"text_col": text_col}, batch_format="pyarrow"
    )
    existing_hashes = (
        existing_ds.map_batches(
            add_text_hash, fn_kwargs={"text_col": text_col},
            batch_format="pyarrow",
        )
        .select_columns(["text_hash"])
        .groupby("text_hash")
        .count()
    )
    return equi_join(
        new_hashed.select_columns([id_col, "text_hash"]),
        existing_hashes.rename_columns({"count()": "n"}),
        on="text_hash",
        join_type="left_anti",
        left_cols=[id_col],
    )


# ---------------------------------------------------------------------------
# vectorized MinHash
# ---------------------------------------------------------------------------

_MERSENNE61 = np.uint64((1 << 61) - 1)


class MinHasher:
    """Seeded (a*x+b) mod p MinHash over char k-shingles, exact in uint64.

    Shingle hashes are folded to 32 bits so a (32-bit) * x (32-bit) + b
    (32-bit) stays below 2^64 — no silent overflow, unlike naive 64-bit
    implementations.  Signature values are uint32.
    """

    def __init__(self, num_perm: int = 128, shingle_k: int = 5, seed: int = 42):
        self.num_perm = num_perm
        self.shingle_k = shingle_k
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, 1 << 32, size=num_perm).astype(np.uint64)
        self.b = rng.randint(0, 1 << 32, size=num_perm).astype(np.uint64)
        # odd byte-position coefficients for the shingle polynomial hash
        self.coeff = (
            rng.randint(0, 1 << 62, size=shingle_k).astype(np.uint64) | np.uint64(1)
        )
        self.empty_sig = ((self.a + self.b) % _MERSENNE61).astype(np.uint64)

    def shingle_hashes(self, text: str) -> np.ndarray:
        data = np.frombuffer(
            text.encode("utf-8", "surrogatepass"), dtype=np.uint8
        )
        k = self.shingle_k
        if len(data) < k:
            data = np.pad(data, (0, k - len(data)))
        win = np.lib.stride_tricks.sliding_window_view(data, k)
        h = (win.astype(np.uint64) * self.coeff).sum(axis=1, dtype=np.uint64)
        return np.unique(h & np.uint64(0xFFFFFFFF))  # fold to 32 bits

    def signature(self, text: str) -> np.ndarray:
        """(num_perm,) uint32 signature."""
        x = self.shingle_hashes(text)
        if len(x) == 0:
            return (self.empty_sig & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        # (P, S): exact — see class docstring for the overflow argument
        hx = (self.a[:, None] * x[None, :] + self.b[:, None]) % _MERSENNE61
        return (hx.min(axis=1) & np.uint64(0xFFFFFFFF)).astype(np.uint32)

    def signatures_batch(self, texts) -> np.ndarray:
        """(n_docs, num_perm) uint32 signatures for a whole Arrow string
        array in one pass — bit-identical to per-doc :meth:`signature`
        (the per-doc ``np.unique`` fold is skipped because a min over
        duplicates equals the min over uniques).

        One sliding-window polynomial hash over the array's CONCATENATED
        byte buffer, windows crossing document boundaries masked via the
        string offsets, then per-permutation ``np.minimum.reduceat`` at
        document starts — no per-document Python on the main path (only
        docs shorter than one shingle fall back to the padded scalar
        path).  Processes SEGMENTS of ~32 docs so the flat window array
        stays L2-resident across the ``num_perm`` sweep — measured 1.4×
        the per-doc loop, while an unsegmented whole-batch pass is 2×
        SLOWER (each permutation re-streams a multi-MB array through
        cache)."""
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        arr = texts.cast(pa.large_string())
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        n = len(arr)
        P = self.num_perm
        out = np.empty((n, P), np.uint32)
        if n == 0:
            return out
        SEG = 32
        if n > SEG:
            for s in range(0, n, SEG):
                out[s : s + SEG] = self.signatures_batch(arr.slice(s, SEG))
            return out
        k = self.shingle_k
        off = np.frombuffer(arr.buffers()[1], np.int64)[
            arr.offset : arr.offset + n + 1
        ]
        lens = off[1:] - off[:-1]
        short = np.flatnonzero(lens < k)
        for i in short:  # rare: shorter than one shingle (incl. empty)
            out[i] = self.signature(arr[int(i)].as_py())
        long_idx = np.flatnonzero(lens >= k)
        if len(long_idx) == 0:
            return out
        data = np.frombuffer(arr.buffers()[2], np.uint8)
        wlen = (lens[long_idx] - k + 1).astype(np.int64)
        # global window positions per qualifying doc: start + intra-run
        starts = np.concatenate(([0], np.cumsum(wlen)))[:-1]
        total = int(wlen.sum())
        intra = np.arange(total, dtype=np.int64) - np.repeat(starts, wlen)
        pos = np.repeat(off[:-1][long_idx], wlen) + intra
        win = np.lib.stride_tricks.sliding_window_view(data, k)
        h = (
            (win[pos].astype(np.uint64) * self.coeff).sum(
                axis=1, dtype=np.uint64
            )
            & np.uint64(0xFFFFFFFF)
        )
        sig_long = np.empty((len(long_idx), P), np.uint32)
        for p in range(P):
            y = (self.a[p] * h + self.b[p]) % _MERSENNE61
            sig_long[:, p] = (
                np.minimum.reduceat(y, starts) & np.uint64(0xFFFFFFFF)
            ).astype(np.uint32)
        out[long_idx] = sig_long
        return out


def est_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float(np.mean(sig_a == sig_b))


def word_ngram_set(t: str, n: int = 3) -> set:
    """Word n-gram shingle set of one text (rows shorter than n contribute
    their whole word tuple; empty text → empty set)."""
    w = t.split()
    if len(w) < n:
        return {tuple(w)} if w else set()
    return {tuple(w[i : i + n]) for i in range(len(w) - n + 1)}


def exact_word_ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Exact Jaccard over word n-gram shingle sets (n=1 → bag of words)."""
    ga, gb = word_ngram_set(text_a, n), word_ngram_set(text_b, n)
    if not ga and not gb:
        return 1.0
    u = len(ga | gb)
    return len(ga & gb) / u if u else 0.0


def band_key(payload_bytes: bytes) -> np.uint64:
    """Stable 64-bit band-bucket key from raw band bytes (scalar reference
    of the vectorized fold in :func:`band_keys_matrix`)."""
    vals = np.frombuffer(payload_bytes, np.uint32).astype(np.uint64)
    h = np.uint64(0)
    p = np.uint64(0x100000001B3)
    for v in vals:
        h = h * p + v + np.uint64(1)
    from ..hashing import mix64

    return mix64(h.reshape(1))[0]


def band_keys_matrix(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(D, num_perm) uint32 signatures → (D, bands) uint64 band keys.

    Polynomial fold of each band's lanes + avalanche — vectorized over the
    whole block (the per-(doc, band) md5 this replaces was the measured hot
    spot of minhash_dedup)."""
    from ..hashing import mix64

    d, num_perm = sigs.shape
    r = num_perm // bands
    v = sigs.reshape(d, bands, r).astype(np.uint64)
    h = np.zeros((d, bands), np.uint64)
    p = np.uint64(0x100000001B3)
    for t in range(r):  # r is tiny (num_perm/bands, typically 4)
        h = h * p + v[:, :, t] + np.uint64(1)
    return mix64(h)


# ---------------------------------------------------------------------------
# generic LSH dedup plumbing
# ---------------------------------------------------------------------------

_DEC_SCHEMA_DROPPED = "dropped"


def _stable_group(band: np.ndarray, key: np.ndarray, n_buckets: int) -> np.ndarray:
    """Coarse shuffle group for (band, band_key): mix band into the key,
    then the shared splitmix bucket (stable across processes)."""
    x = key.astype(np.uint64) ^ (band.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    return splitmix_bucket(x, n_buckets)


def _band_rows(
    id_col: str,
    ids: pa.Array | pa.ChunkedArray,
    keys: np.ndarray,
    payload: pa.Array | pa.ChunkedArray,
    n_buckets: int,
    extras: dict[str, pa.Array | pa.ChunkedArray] | None = None,
) -> pa.Table:
    """Assemble the (doc × band) LSH rows without per-row Python.

    ``ids``/``payload`` are per-DOC arrays (D rows); ``keys`` is the
    (D, bands) uint64 band-key matrix.  The fan-out to D×bands rows happens
    in C++ (``Array.take`` on a repeat-index vector) and numpy
    (``np.tile``/``reshape``) — this assembly loop was the measured hot spot
    of the LSH family when it appended Python lists per (doc, band)."""
    D, bands = keys.shape
    rep = pa.array(np.repeat(np.arange(D, dtype=np.int64), bands), pa.int64())
    band_arr = np.tile(np.arange(bands, dtype=np.uint64), D)
    key_arr = np.ascontiguousarray(keys).reshape(-1)  # doc-major, matches rep
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    if isinstance(payload, pa.ChunkedArray):
        payload = payload.combine_chunks()
    cols = {
        id_col: ids.take(rep),
        "band": pa.array(band_arr, pa.uint64()),
        "band_key": pa.array(key_arr, pa.uint64()),
        "payload": payload.take(rep),
        "lsh_group": pa.array(
            _stable_group(band_arr, key_arr, n_buckets), pa.int64()
        ),
    }
    for name, col in (extras or {}).items():
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        cols[name] = col.take(rep)
    return pa.table(cols)


def _matrix_from_binary(
    arr: pa.Array | pa.ChunkedArray, dtype=np.uint32
) -> np.ndarray:
    """Inverse of ``_binary_from_matrix`` for EQUAL-WIDTH binary values
    that may sit non-contiguously in the buffer (post-join/take): gathers
    each row's bytes by offset without per-row Python."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty((0, 0), dtype)
    offs = np.frombuffer(arr.buffers()[1], np.int32)[
        arr.offset : arr.offset + n + 1
    ]
    data = np.frombuffer(arr.buffers()[2], np.uint8)
    width = int(offs[1] - offs[0])
    idx = offs[:-1, None].astype(np.int64) + np.arange(width, dtype=np.int64)
    return np.ascontiguousarray(data[idx]).view(dtype)


def _binary_from_matrix(rows: np.ndarray) -> pa.Array:
    """Zero-copy-ish binary column: row i of a 2-D numpy matrix becomes the
    bytes value of row i (fixed stride offsets over one contiguous buffer)."""
    d = len(rows)
    width = rows.dtype.itemsize * (rows.shape[1] if rows.ndim > 1 else 1)
    offsets = np.arange(d + 1, dtype=np.int32) * width
    return pa.Array.from_buffers(
        pa.binary(),
        d,
        [None, pa.py_buffer(offsets.tobytes()),
         pa.py_buffer(np.ascontiguousarray(rows).tobytes())],
    )


def _lsh_dedup(
    ds: ray.data.Dataset,
    sig_stage,
    verify_groups_fn,
    *,
    id_col: str,
    n_buckets: int,
    stage_kwargs: dict | None = None,
    concurrency=(2, 8),
) -> ray.data.Dataset:
    """Shared LSH dedup skeleton — see module docstring for the dataflow."""
    band_rows = ds.map_batches(
        sig_stage,
        fn_constructor_kwargs=stage_kwargs or {},
        batch_format="pyarrow",
        concurrency=concurrency,
    )
    decisions = band_rows.groupby("lsh_group").map_groups(
        verify_groups_fn, batch_format="pyarrow"
    )

    # Per-doc Max(dropped) reduce, fully vectorized: pyarrow C++ group_by as
    # the map-side combine (bands rows/doc → 1 row/doc per block), then one
    # small shuffle over coarse id-buckets with another C++ group_by inside.
    # (ray.data's built-in aggregate runs a Python accumulator per key —
    # measured 7× slower on this shape.)
    def local_max(batch: pa.Table) -> pa.Table:
        g = batch.group_by(id_col).aggregate([(_DEC_SCHEMA_DROPPED, "max")])
        g = g.rename_columns(
            [
                id_col if c == id_col else _DEC_SCHEMA_DROPPED
                for c in g.column_names
            ]
        )
        ids = g[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return g.append_column("id_bucket", id_bucket_array(ids, n_buckets))

    def final_keep(group: pa.Table) -> pa.Table:
        g = group.group_by(id_col).aggregate([(_DEC_SCHEMA_DROPPED, "max")])
        drop_col = next(c for c in g.column_names if c != id_col)
        kept = g.filter(pc.equal(g[drop_col], 0))
        return kept.select([id_col])

    combined = decisions.map_batches(local_max, batch_format="pyarrow")
    return combined.groupby("id_bucket").map_groups(
        final_keep, batch_format="pyarrow"
    )


def _walk_buckets_vec(group: pa.Table, id_col: str, batch_verify) -> pa.Table:
    """Bucket walk for fixed-width BINARY payloads: sort a coarse group by
    (band, band_key, id); within each true bucket the min-id doc keeps and
    every other doc is dropped iff it verifies against that keeper.  The
    verify runs ONCE over a gathered byte matrix —
    ``batch_verify(payload_sorted, keeper_idx, cand_idx) -> bool[n]`` over
    the sorted payload column — instead of one Python call per candidate."""
    g = group.sort_by(
        [("band", "ascending"), ("band_key", "ascending"), (id_col, "ascending")]
    )
    n = g.num_rows
    if n == 0:
        return pa.table(
            {
                id_col: g[id_col],
                _DEC_SCHEMA_DROPPED: pa.array([], pa.int64()),
            }
        )
    bands = g["band"].to_numpy(zero_copy_only=False)
    keys = g["band_key"].to_numpy(zero_copy_only=False)
    new_run = np.r_[True, (bands[1:] != bands[:-1]) | (keys[1:] != keys[:-1])]
    idx = np.arange(n, dtype=np.int64)
    run_start = np.maximum.accumulate(np.where(new_run, idx, 0))
    dropped = np.zeros(n, np.int64)
    nk = ~new_run
    if nk.any():
        dropped[nk] = batch_verify(
            g["payload"], run_start[nk], idx[nk]
        ).astype(np.int64)
    return pa.table(
        {
            id_col: g[id_col],
            _DEC_SCHEMA_DROPPED: pa.array(dropped, pa.int64()),
        }
    )


def _bucket_pairs(group: pa.Table, id_col: str) -> pa.Table:
    """Same bucket walk as ``_walk_buckets_vec`` but emits UNVERIFIED candidate
    pairs ``(a_id=keeper, b_id=candidate)`` instead of decisions — the
    verify-by-join plans fetch payloads for exactly these pairs later."""
    g = group.sort_by(
        [("band", "ascending"), ("band_key", "ascending"), (id_col, "ascending")]
    )
    bands = g["band"].to_numpy(zero_copy_only=False)
    keys = g["band_key"].to_numpy(zero_copy_only=False)
    ids = g[id_col].to_numpy(zero_copy_only=False)
    a_out: list = []
    b_out: list = []
    i, n = 0, len(ids)
    while i < n:
        j = i
        while j < n and bands[j] == bands[i] and keys[j] == keys[i]:
            j += 1
        if j - i > 1:
            a_out.extend([ids[i]] * (j - i - 1))
            b_out.extend(ids[i + 1 : j])
        i = j
    return pa.table(
        {
            "a_id": pa.array(np.asarray(a_out, dtype=np.int64), pa.int64()),
            "b_id": pa.array(np.asarray(b_out, dtype=np.int64), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# MinHash LSH dedup
# ---------------------------------------------------------------------------


class MinHashBandStage:
    """Actor stage: text → one row per LSH band with the signature payload.

    Setup (permutation tables) happens once per actor in ``__init__``.
    """

    def __init__(
        self,
        *,
        text_col: str = "text",
        id_col: str = "doc_id",
        num_perm: int = 128,
        bands: int = 32,
        shingle_k: int = 5,
        seed: int = 42,
        n_buckets: int = 64,
        carry_payload: bool = True,
        carry_cols: list[str] | None = None,
    ):
        assert num_perm % bands == 0
        self.hasher = MinHasher(num_perm, shingle_k, seed)
        self.text_col = text_col
        self.id_col = id_col
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.n_buckets = n_buckets
        # the verify-by-join plan needs only bucket keys, no payload —
        # skip the per-band signature bytes to shrink shuffle #1
        self.carry_payload = carry_payload
        # extra per-doc columns fanned out to the band rows (C++ take on
        # the same repeat vector as the id) — e.g. a side tag for the
        # incremental new-vs-existing plan
        self.carry_cols = list(carry_cols or [])

    def __call__(self, batch: pa.Table) -> pa.Table:
        # whole-batch signatures: one sliding-window hash over the Arrow
        # byte buffer + per-permutation segment-min (bit-identical to the
        # per-doc path; tested in test_dedup)
        sigs = self.hasher.signatures_batch(batch[self.text_col])
        keys = band_keys_matrix(sigs, self.bands)
        if self.carry_payload:
            # payload rides as raw signature bytes (fixed width), not a
            # list<uint32> — Arrow-encoding 10^5 Python int lists per block
            # dominated runtime before this change
            payload = _binary_from_matrix(sigs)
        else:
            payload = _binary_from_matrix(
                np.empty((sigs.shape[0], 0), np.uint8)
            )
        return _band_rows(
            self.id_col,
            batch[self.id_col],
            keys,
            payload,
            self.n_buckets,
            extras={c: batch[c] for c in self.carry_cols},
        )


def minhash_dedup(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 5,
    threshold: float = 0.8,
    seed: int = 42,
    n_buckets: int = 64,
    concurrency=(2, 8),
) -> ray.data.Dataset:
    """Kept doc ids after MinHash+LSH near-dedup (signature-verified).

    ``concurrency``: the signature actor pool.  Use min=1 when composing
    with another actor-pool stage on a small cluster — two pools whose
    minimums exceed available CPUs deadlock the streaming executor.
    """

    def verify(group: pa.Table) -> pa.Table:
        def batch_est_jaccard(payload, ki, ci) -> np.ndarray:
            sigs = _matrix_from_binary(payload, np.uint32)
            return (sigs[ki] == sigs[ci]).mean(axis=1) >= threshold

        return _walk_buckets_vec(group, id_col, batch_est_jaccard)

    return _lsh_dedup(
        ds,
        MinHashBandStage,
        verify,
        id_col=id_col,
        n_buckets=n_buckets,
        concurrency=concurrency,
        stage_kwargs=dict(
            text_col=text_col,
            id_col=id_col,
            num_perm=num_perm,
            bands=bands,
            shingle_k=shingle_k,
            seed=seed,
            n_buckets=n_buckets,
        ),
    )


def incremental_minhash_dedup(
    new_ds: ray.data.Dataset,
    existing_ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 5,
    threshold: float = 0.8,
    seed: int = 42,
    n_buckets: int = 64,
    concurrency=(1, 4),
) -> ray.data.Dataset:
    """Continuous-crawl NEAR-dup ingestion filter: keep only new documents
    whose estimated Jaccard (shared seeded MinHash signatures — comparable
    across runs by construction) against EVERY existing document is below
    ``threshold``.  The near-dup companion of ``incremental_exact_dedup``.

    Dataflow: tag each side with a 0/1 ``__side`` column and union — ONE
    ``MinHashBandStage`` pool computes every signature (two pools halved
    the stage's share of the cluster and could deadlock small sessions);
    ONE keyed exchange on the stable (band, band_key) bucket co-locates
    colliding bands of both sides; the per-bucket finalize builds the
    (new × existing) pair INDEX per equal-key run with segmented-arange
    arithmetic (no pair tables — signatures are gathered once into two
    numpy matrices and compared whole-bucket), emitting only contaminated
    new ids.  Those leave via the planner's ``left_anti`` join (broadcast
    below the plasma cap, distributed above).  Nothing corpus-sized is
    ever broadcast or driver-materialized.

    Duplicates WITHIN the new batch are not removed here — compose with
    ``minhash_dedup(new_ds)`` for that; the existing corpus stays the
    authority for cross-run decisions.
    """
    kw = dict(
        text_col=text_col, id_col=id_col, num_perm=num_perm, bands=bands,
        shingle_k=shingle_k, seed=seed, n_buckets=n_buckets,
        carry_cols=["__side"],
    )
    id_type = new_ds.schema().base_schema.field(id_col).type

    def _tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "__side", pa.array(np.full(batch.num_rows, side, np.int8))
            )

        return fn

    both = new_ds.map_batches(_tag(0), batch_format="pyarrow").union(
        existing_ds.map_batches(_tag(1), batch_format="pyarrow")
    )
    rows = both.map_batches(
        MinHashBandStage, fn_constructor_kwargs=kw,
        batch_format="pyarrow", concurrency=concurrency,
    )

    def verify(group: pa.Table) -> pa.Table:
        empty = pa.table({"nid": pa.array([], id_type)})
        if group.num_rows == 0 or "band_key" not in group.column_names:
            return empty
        band = group["band"].to_numpy(zero_copy_only=False)
        key = group["band_key"].to_numpy(zero_copy_only=False)
        side = group["__side"].to_numpy(zero_copy_only=False)
        ck = mix64(
            key.astype(np.uint64)
            ^ (band.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
        )
        # sort by (combined key, side): each equal-key run holds its new
        # rows (side 0) first, then its existing rows
        order = np.lexsort((side, ck))
        ck_s, side_s = ck[order], side[order]
        n = len(ck_s)
        new_run = np.r_[True, ck_s[1:] != ck_s[:-1]]
        run_id = np.cumsum(new_run) - 1
        n_runs = run_id[-1] + 1
        n_new = np.bincount(run_id, weights=(side_s == 0), minlength=n_runs).astype(np.int64)
        n_ex = np.bincount(run_id, weights=(side_s == 1), minlength=n_runs).astype(np.int64)
        run_start = np.flatnonzero(new_run)
        # per NEW row: its run's existing-rows segment
        new_rows = np.flatnonzero(side_s == 0)
        if new_rows.size == 0:
            return empty
        r_of_new = run_id[new_rows]
        seg_len = n_ex[r_of_new]
        have = seg_len > 0
        if not have.any():
            return empty
        new_rows, seg_len, r_of_new = new_rows[have], seg_len[have], r_of_new[have]
        ex_start = run_start[r_of_new] + n_new[r_of_new]
        P = int(seg_len.sum())
        a_idx = np.repeat(new_rows, seg_len)
        cum0 = np.r_[0, np.cumsum(seg_len)[:-1]]
        b_idx = np.repeat(ex_start, seg_len) + (
            np.arange(P, dtype=np.int64) - np.repeat(cum0, seg_len)
        )
        sigs = _matrix_from_binary(
            group["payload"].take(pa.array(order)), np.uint32
        )
        dup = (sigs[a_idx] == sigs[b_idx]).mean(axis=1) >= threshold
        if not dup.any():
            return empty
        ids_sorted = group[id_col].take(pa.array(order))
        hit = ids_sorted.take(pa.array(a_idx[dup]))
        # block-local distinct: a near-dup pair collides in MANY bands
        return pa.table({"nid": hit}).group_by("nid").aggregate([])

    # anti join keeps exactly the new ids with NO verified near-dup;
    # duplicate right keys are harmless to anti semantics.  right_types
    # covers the no-duplicates case (empty computed dataset → no schema).
    # The contaminated set is near-dup ids only — usually a small fraction
    # of the crawl — so the planner normally broadcasts it and the anti
    # join is a zero-exchange streaming filter over the new side.
    contaminated = rows.groupby("lsh_group").map_groups(
        verify, batch_format="pyarrow"
    )
    return equi_join(
        new_ds.select_columns([id_col]),
        contaminated,
        on=id_col,
        right_on="nid",
        join_type="left_anti",
        left_cols=[id_col],
        right_types={"nid": id_type},
    )


NGRAM_LOCAL_MAX_PAIRS = 200_000
NGRAM_LOCAL_MAX_TEXT_BYTES = 256 * 1024 * 1024
_MISSING = object()  # gram-cache sentinel (None is a valid cached value)


def _ngram_local_verify(
    ds: ray.data.Dataset,
    texts: ray.data.Dataset,
    pairs_mat: ray.data.Dataset,
    *,
    id_col: str,
    text_col: str,
    ngram: int,
    threshold: float,
    max_text_bytes: int,
) -> ray.data.Dataset | None:
    """Driver verify for a BOUNDED candidate-pair set — the local twin of
    the two text joins (the dedup analogue of ``pagerank_int``'s /
    ``connected_components``' auto local plan).

    The pair ids collect (candidate-bounded), the needed texts come back
    through ONE broadcast-filtered corpus scan streamed with a byte
    budget — returns ``None`` if the stream exceeds ``max_text_bytes``
    so the caller falls back to the distributed join plan — and the
    exact n-gram Jaccard runs once on the driver.  Semantics identical
    to the join plan: a pair whose id is missing from the corpus never
    verifies (inner-join parity), null texts never verify, and a
    DUPLICATED id verifies if ANY of its rows does (the inner join
    replicates the pair per matching row).  Output ids are int64 on
    every path, matching the distributed plans."""
    from ..cluster import collect_table

    def as_i64(batch: pa.Table) -> pa.Table:
        return pa.table({id_col: batch[id_col].cast(pa.int64())})

    kept_all = ds.select_columns([id_col]).map_batches(
        as_i64, batch_format="pyarrow"
    )
    pt = collect_table(pairs_mat)
    if pt is None or pt.num_rows == 0:
        return kept_all
    a = pt["a_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    b = pt["b_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    needed = np.unique(np.concatenate([a, b]))  # sorted
    nref = ray.put(needed)

    def pick(batch: pa.Table) -> pa.Table:
        need = ray.get(nref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(need, ids), len(need) - 1)
        return batch.filter(pa.array(need[pos] == ids))

    parts: list[pa.Table] = []
    total = 0
    for bt in texts.map_batches(pick, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        if bt.num_rows == 0:
            continue
        parts.append(bt)
        total += bt.nbytes
        if total > max_text_bytes:
            return None  # texts blow the driver budget — go distributed
    if not parts:
        return kept_all
    tt = pa.concat_tables(parts)
    ids_t = tt[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids_t, kind="stable")
    ids_s = ids_t[order]

    # each id's run of corpus rows (duplicated ids keep EVERY row, like
    # the inner join's replication)
    sa = np.searchsorted(ids_s, a, "left")
    ea = np.searchsorted(ids_s, a, "right")
    sb = np.searchsorted(ids_s, b, "left")
    eb = np.searchsorted(ids_s, b, "right")
    ok = (ea > sa) & (eb > sb)
    if not ok.any():
        return kept_all
    # scalar set kernel on purpose — a vectorized lexsort variant
    # measured ~4× slower on short documents — with each doc row's gram
    # set built ONCE and cached (keepers pair with many candidates; the
    # pairwise walk then only intersects)
    texts_list = tt[text_col].to_pylist()
    gram_of: dict[int, set | None] = {}

    def grams_at(row: int) -> set | None:
        g = gram_of.get(row, _MISSING)
        if g is _MISSING:
            txt = texts_list[row]
            g = None if txt is None else word_ngram_set(txt, ngram)
            gram_of[row] = g
        return g

    def pair_hit(i: int) -> bool:
        for r in order[sa[i] : ea[i]]:
            ga = grams_at(int(r))
            if ga is None:
                continue
            for s in order[sb[i] : eb[i]]:
                gb = grams_at(int(s))
                if gb is None:
                    continue
                if not ga and not gb:
                    j = 1.0
                else:
                    inter = len(ga & gb)
                    u = len(ga) + len(gb) - inter
                    j = inter / u if u else 0.0
                if j >= threshold:
                    return True
        return False

    idx_ok = np.flatnonzero(ok)
    hits = np.fromiter(
        (pair_hit(int(i)) for i in idx_ok), dtype=bool, count=len(idx_ok)
    )
    drop = np.unique(b[idx_ok][hits])
    if drop.size == 0:
        return kept_all
    dref = ray.put(drop)

    def anti(batch: pa.Table) -> pa.Table:
        d = ray.get(dref)
        ids_arr = batch[id_col].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(d, ids_arr), len(d) - 1)
        m = d[pos] == ids_arr
        return pa.table({id_col: pa.array(ids_arr[~m], pa.int64())})

    return kept_all.map_batches(anti, batch_format="pyarrow")


def ngram_jaccard_dedup(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    ngram: int = 3,
    threshold: float = 0.8,
    seed: int = 42,
    n_buckets: int = 64,
    concurrency=(2, 8),
    **minhash_kwargs,
) -> ray.data.Dataset:
    """MinHash-LSH candidates + EXACT word n-gram Jaccard verification:
    candidate pairs → text join → verify → anti-join.

    Dataflow (integer ids assumed, as in the documents table):

        ds → map_batches(MinHash bands, NO payload)        # map-only
           → groupby(lsh_group) → pairs (a=keeper, b=cand) # shuffle 1
           → distinct pairs (block combine + coarse bucket)# shuffle 2
           → join texts for b, then a (equi_join)          # shuffles 3-4
           → verify exact n-gram Jaccard per pair          # map-only
           → distinct dropped b ids                        # small agg
        kept = ids anti-join dropped (equi_join)           # shuffle 5

    Every exchange moves ids or candidate pairs — document text moves
    exactly once per (pair, side) instead of ×bands per document.  Pairs
    verify on the DRIVER instead when the materialized candidate-pair
    count is at most ``NGRAM_LOCAL_MAX_PAIRS`` and the needed texts stream
    in under ``NGRAM_LOCAL_MAX_TEXT_BYTES`` (both text joins and their
    exchanges disappear).

    All three joins ride ``cluster.equi_join``: each materializes its right
    side once and either broadcasts it or exchanges both sides by key, so
    no join depends on Ray's hash-shuffle schema broadcast.  The only
    normalization left in this plan is typing the schema-less zero-row
    blocks that empty groupby partitions emit (the joins take explicit
    ``left_types``), plus fail-closed guards on malformed non-empty
    blocks.
    """
    # the signature pool runs alongside two text joins — drop its minimum
    # to 1 so small clusters (4 CPUs) keep a free slot for task stages (a
    # min-2 pool plus two joins deadlocked the streaming executor there)
    _, hi = concurrency if isinstance(concurrency, tuple) else (1, concurrency)
    band_rows = ds.map_batches(
        MinHashBandStage,
        fn_constructor_kwargs=dict(
            text_col=text_col,
            id_col=id_col,
            seed=seed,
            n_buckets=n_buckets,
            carry_payload=False,
            **minhash_kwargs,
        ),
        batch_format="pyarrow",
        concurrency=(1, hi),
    )
    pairs = band_rows.groupby("lsh_group").map_groups(
        lambda g: _bucket_pairs(g, id_col), batch_format="pyarrow"
    )

    _EMPTY_PAIRS = pa.table(
        {"a_id": pa.array([], pa.int64()), "b_id": pa.array([], pa.int64())}
    )

    # distinct pairs: C++ group_by per block (bands→1 per pair per block),
    # then one coarse-bucket exchange with another group_by inside.  Empty
    # groupby partitions reach these maps as schema-less zero-row blocks —
    # normalize them to the typed empty table so every block downstream of
    # this point carries schema.
    def local_distinct(batch: pa.Table) -> pa.Table:
        if "a_id" not in batch.column_names:
            if batch.num_rows:
                raise RuntimeError(
                    "ngram dedup pair stream produced a non-empty block "
                    f"without a_id (columns: {batch.column_names}); "
                    "refusing to discard candidate pairs"
                )
            return _EMPTY_PAIRS.append_column(
                "pair_bucket", pa.array([], pa.int64())
            )
        g = batch.group_by(["a_id", "b_id"]).aggregate([])
        a = g["a_id"]
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        return g.append_column("pair_bucket", id_bucket_array(a, n_buckets))

    def final_distinct(group: pa.Table) -> pa.Table:
        if "a_id" not in group.column_names:
            return _EMPTY_PAIRS
        return group.group_by(["a_id", "b_id"]).aggregate([]).select(
            ["a_id", "b_id"]
        )

    distinct_pairs = (
        pairs.map_batches(local_distinct, batch_format="pyarrow")
        .groupby("pair_bucket")
        .map_groups(final_distinct, batch_format="pyarrow")
    )

    texts = ds.select_columns([id_col, text_col])

    # ---- plan selection: below the pair budget the two text joins (and
    # their exchanges) are pure overhead — collect the bounded
    # pair set, fetch ONLY the needed texts through one broadcast-filter
    # scan (byte-budgeted, falls back if a pathological corpus blows it)
    # and verify on the driver.  The choice reads the materialized pair
    # count; shuffles 1-2 are needed by both plans, so the materialize
    # is never wasted work.
    distinct_pairs = distinct_pairs.materialize()
    if distinct_pairs.count() <= NGRAM_LOCAL_MAX_PAIRS:
        kept = _ngram_local_verify(
            ds,
            texts,
            distinct_pairs,
            id_col=id_col,
            text_col=text_col,
            ngram=ngram,
            threshold=threshold,
            max_text_bytes=NGRAM_LOCAL_MAX_TEXT_BYTES,
        )
        if kept is not None:
            return kept

    # joins 3-4 ride the engine planner (broadcast or keyed exchange);
    # the candidate stream can be legitimately EMPTY (no-collision
    # corpus) — Dataset.schema() is None then, so the pair-side types are
    # declared explicitly
    _pair_types = {"a_id": pa.int64(), "b_id": pa.int64()}
    _text_t = texts.schema().base_schema.field(text_col).type
    with_b = equi_join(
        distinct_pairs,
        texts,
        on="b_id",
        right_on=id_col,
        join_type="inner",
        left_cols=["a_id", "b_id"],
        right_cols=[text_col],
        left_types=_pair_types,
    ).rename_columns({text_col: "b_text"})

    with_both = equi_join(
        with_b,
        texts,
        on="a_id",
        right_on=id_col,
        join_type="inner",
        left_cols=["a_id", "b_id", "b_text"],
        right_cols=[text_col],
        left_types={**_pair_types, "b_text": _text_t},
    )

    def verify_pairs(batch: pa.Table) -> pa.Table:
        if "b_id" not in batch.column_names:
            if batch.num_rows:
                raise RuntimeError(
                    "ngram dedup verify input block is non-empty but lacks "
                    f"b_id (columns: {batch.column_names})"
                )
            return pa.table({id_col: pa.array([], pa.int64())})
        # scalar set kernel on purpose: a fully vectorized
        # dictionary-encode + lexsort variant was built and measured ~4×
        # SLOWER on short documents (tuple sets are O(grams) C-speed
        # hashing; the numpy path pays two lexsorts over every gram)
        a_texts = batch[text_col].to_pylist()
        b_texts = batch["b_text"].to_pylist()
        mask = pa.array(
            [
                a is not None
                and b is not None
                and exact_word_ngram_jaccard(a, b, ngram) >= threshold
                for a, b in zip(a_texts, b_texts)
            ],
            pa.bool_(),
        )
        return pa.table({id_col: pc.filter(batch["b_id"], mask)})

    def norm_dropped(batch: pa.Table) -> pa.Table:
        if id_col not in batch.column_names:
            if batch.num_rows:
                raise RuntimeError(
                    "ngram dedup dropped-id aggregate emitted a non-empty "
                    f"block without {id_col!r} (columns: "
                    f"{batch.column_names})"
                )
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "__drop_n": pa.array([], pa.int64()),
                }
            )
        return pa.table({id_col: batch[id_col], "__drop_n": batch["count()"]})

    dropped = (
        with_both.map_batches(verify_pairs, batch_format="pyarrow")
        .groupby(id_col)
        .count()
        .map_batches(norm_dropped, batch_format="pyarrow")
    )

    # the dropped set is O(duplicates) — typically far smaller than the
    # corpus, so the planner normally broadcasts it.  Ids are int64 on both
    # sides of the anti join (the pair stream is int64 throughout).
    ids = ds.select_columns([id_col]).map_batches(
        lambda b: pa.table({id_col: b[id_col].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    return equi_join(
        ids,
        dropped,
        on=id_col,
        join_type="left_anti",
        left_cols=[id_col],
        right_types={id_col: pa.int64(), "__drop_n": pa.int64()},
    )


# ---------------------------------------------------------------------------
# SimHash dedup
# ---------------------------------------------------------------------------


def _token_hash64(token: str) -> int:
    return int.from_bytes(hashlib.md5(token.encode()).digest()[:8], "little")


class SimHashBandStage:
    """64-bit SimHash per doc; 4 bands × 16 bits for candidate buckets.

    Token-hash cache in actor state — the vocabulary is far smaller than the
    corpus, so hashing amortizes to a dict lookup per token.
    """

    BITS = 64

    def __init__(
        self,
        *,
        text_col: str = "text",
        id_col: str = "doc_id",
        bands: int = 4,
        n_buckets: int = 64,
    ):
        assert self.BITS % bands == 0
        self.text_col = text_col
        self.id_col = id_col
        self.bands = bands
        self.band_bits = self.BITS // bands
        self.n_buckets = n_buckets
        self._cache: dict[str, int] = {}

    def _th(self, tok: str) -> int:
        h = self._cache.get(tok)
        if h is None:
            h = _token_hash64(tok)
            self._cache[tok] = h
        return h

    def simhash(self, text: str) -> int:
        acc = np.zeros(self.BITS, dtype=np.int64)
        toks = text.lower().split()
        if not toks:
            return 0
        hashes = np.fromiter(
            (self._th(t) for t in toks), dtype=np.uint64, count=len(toks)
        )
        bits = (hashes[:, None] >> np.arange(self.BITS, dtype=np.uint64)) & np.uint64(1)
        acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
        return int(
            ((acc > 0).astype(np.uint64) << np.arange(self.BITS, dtype=np.uint64)).sum()
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        d = len(texts)
        shs = np.fromiter(
            (self.simhash(t) for t in texts), dtype=np.uint64, count=d
        )
        mask = np.uint64((1 << self.band_bits) - 1)
        shifts = (
            np.arange(self.bands, dtype=np.uint64) * np.uint64(self.band_bits)
        )
        keys = (shs[:, None] >> shifts[None, :]) & mask  # (d, bands)
        return _band_rows(
            self.id_col,
            batch[self.id_col],
            keys,
            pa.array(shs, pa.uint64()),
            self.n_buckets,
        )


def hamming64(a: int, b: int) -> int:
    return int(bin(int(a) ^ int(b)).count("1"))


def simhash_dedup(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    bands: int = 4,
    max_hamming: int = 3,
    n_buckets: int = 64,
    concurrency=(2, 8),
) -> ray.data.Dataset:
    """Kept doc ids after SimHash near-dedup (Hamming ≤ max_hamming)."""

    def verify(group: pa.Table) -> pa.Table:
        def batch_hamming(payload, ki, ci) -> np.ndarray:
            sh = payload.to_numpy(zero_copy_only=False).astype(np.uint64)
            x = (sh[ki] ^ sh[ci]).view(np.uint8).reshape(len(ki), 8)
            return np.unpackbits(x, axis=1).sum(axis=1) <= max_hamming

        return _walk_buckets_vec(group, id_col, batch_hamming)

    return _lsh_dedup(
        ds,
        SimHashBandStage,
        verify,
        id_col=id_col,
        n_buckets=n_buckets,
        concurrency=concurrency,
        stage_kwargs=dict(
            text_col=text_col, id_col=id_col, bands=bands, n_buckets=n_buckets
        ),
    )


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------


class SRPBandStage:
    """Signed-random-projection LSH over an embedding column.

    ``__init__`` draws the seeded hyperplane matrix once per actor; each band
    is ``band_bits`` sign bits of the projected vector.  Payload is the
    L2-normalized embedding (for exact cosine verification in the bucket).
    """

    def __init__(
        self,
        *,
        vec_col: str = "embedding",
        id_col: str = "vec_id",
        dim: int = 64,
        bands: int = 8,
        band_bits: int = 16,
        seed: int = 42,
        n_buckets: int = 64,
    ):
        self.vec_col = vec_col
        self.id_col = id_col
        self.bands = bands
        self.band_bits = band_bits
        self.n_buckets = n_buckets
        rng = np.random.RandomState(seed)
        self.planes = rng.randn(dim, bands * band_bits).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = list_to_matrix(batch[self.vec_col], np.float32)
        n = len(vecs)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        normed = np.ascontiguousarray(vecs / np.maximum(norms, 1e-12))
        bits = (normed @ self.planes) > 0  # (n, bands*band_bits)
        weights = 1 << np.arange(self.band_bits, dtype=np.uint64)
        keys = (
            bits.reshape(n, self.bands, self.band_bits).astype(np.uint64)
            * weights
        ).sum(axis=2)  # (n, bands)
        return _band_rows(
            self.id_col,
            batch[self.id_col],
            keys,
            _binary_from_matrix(normed),  # raw float32 rows
            self.n_buckets,
        )


def embedding_dedup(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    dim: int = 64,
    threshold: float = 0.95,
    bands: int = 8,
    band_bits: int = 16,
    seed: int = 42,
    n_buckets: int = 64,
    concurrency=(2, 8),
) -> ray.data.Dataset:
    """Kept vec ids after cosine near-dedup via SRP-LSH + exact verify."""

    def verify(group: pa.Table) -> pa.Table:
        def batch_cosine(payload, ki, ci) -> np.ndarray:
            # float64 accumulation over the float32 normalized vectors —
            # deterministic and at least as precise as the old per-pair
            # np.dot; the pinned fixture gates any boundary movement
            vecs = _matrix_from_binary(payload, np.float32).astype(np.float64)
            return np.einsum("ij,ij->i", vecs[ki], vecs[ci]) >= threshold

        return _walk_buckets_vec(group, id_col, batch_cosine)

    return _lsh_dedup(
        ds,
        SRPBandStage,
        verify,
        id_col=id_col,
        n_buckets=n_buckets,
        concurrency=concurrency,
        stage_kwargs=dict(
            vec_col=vec_col,
            id_col=id_col,
            dim=dim,
            bands=bands,
            band_bits=band_bits,
            seed=seed,
            n_buckets=n_buckets,
        ),
    )


def embedding_dup_pairs_brute(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.9,
    dtype=np.float64,
) -> ray.data.Dataset:
    """All (id_a < id_b) pairs with cosine ≥ threshold — brute force.

    The small-corpus oracle path: the full normalized matrix is broadcast
    once via ``ray.put`` and every block matmuls against it (O(n²) flops,
    vectorized; the LSH path above is the 10^12-scale route).
    SQL oracle: self-join with ``list_cosine_similarity``.
    """
    import ray

    from ..cluster import collect_table

    full = collect_table(ds.select_columns([id_col, vec_col]))
    if full is None:
        full = pa.table({id_col: pa.array([], pa.int64()),
                         vec_col: pa.array([], pa.list_(pa.float32()))})
    ids_all = ints_to_numpy(full[id_col], np.int64)
    vecs_all = list_to_matrix(full[vec_col], dtype)
    # out-of-place: list_to_matrix may hand back a read-only Arrow view
    vecs_all = vecs_all / np.maximum(
        np.linalg.norm(vecs_all, axis=1, keepdims=True), 1e-12
    )
    order = np.argsort(ids_all, kind="stable")
    ids_all, vecs_all = ids_all[order], vecs_all[order]
    ref = ray.put((ids_all, vecs_all))

    def pairs(batch: pa.Table) -> pa.Table:
        r_ids, r_vecs = ray.get(ref)
        ids = ints_to_numpy(batch[id_col], np.int64)
        vecs = list_to_matrix(batch[vec_col], dtype)
        vecs = vecs / np.maximum(
            np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12
        )
        sims = vecs @ r_vecs.T  # (b, N)
        out_a, out_b, out_s = [], [], []
        for i in range(len(ids)):
            mask = (sims[i] >= threshold) & (r_ids > ids[i])
            js = np.nonzero(mask)[0]
            out_a.extend([ids[i]] * len(js))
            out_b.extend(r_ids[js].tolist())
            out_s.extend(sims[i, js].tolist())
        return pa.table(
            {
                "id_a": pa.array(out_a, pa.int64()),
                "id_b": pa.array(out_b, pa.int64()),
                "cosine": pa.array(
                    np.round(np.asarray(out_s, np.float64), 6), pa.float64()
                ),
            }
        )

    return ds.map_batches(pairs, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SemDeDup (k-means clusters + within-cluster exact-cosine keeper walk)
# ---------------------------------------------------------------------------


def semantic_dedup(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_cells: int = 16,
    threshold: float = 0.95,
    seed: int = 42,
    sample_size: int = 2048,
) -> ray.data.Dataset:
    """SemDeDup (Abbas et al. 2023): k-means the embedding space, then
    near-dedup WITHIN each cluster by exact cosine — kept ids out.

    Where SRP-LSH dedup (:func:`embedding_dedup`) buckets by random
    projections, SemDeDup buckets by learned cluster structure, which is
    the published recipe for semantic-level training-data pruning (near-dup
    pairs land in the same k-means cell with far higher recall than a
    random hyperplane band at the same bucket count).

    Plan: centroids come from the same deterministic sample + Lloyd's
    k-means the IVF ANN index uses (``similarity.IVFIndex.build`` — seeded
    init, fixed iterations, id-sorted sample, so centroids are identical at
    any parallelism); assignment is one streamed ``map_batches``; ONE
    cell-keyed exchange co-locates each cluster; the in-cell walk sorts by
    id and greedily keeps a vector iff its max cosine against the already
    kept set clears ``threshold`` — one vectorized matvec per member, no
    pair table.  Exchange rows carry (id, vector): ~4·dim bytes/row, once.

    Scale contract: per-cell work is O(|cell|²·dim) flops and O(|cell|·dim)
    memory, so ``n_cells`` must grow ∝ corpus size (exactly the IVF sizing
    rule) — with that, cell width is bounded and the walk stays in-task.
    Determinism: the fixture pin gates any float-boundary movement, same as
    the SRP path.
    """
    from .similarity import IVFIndex, _normalize

    idx = IVFIndex(
        n_cells,
        vec_col=vec_col,
        id_col=id_col,
        seed=seed,
        sample_size=sample_size,
    ).build(ds.select_columns([id_col, vec_col]))
    assert idx.assigned is not None

    def walk(group: pa.Table) -> pa.Table:
        g = group.sort_by([(id_col, "ascending")])
        n = g.num_rows
        if n == 0:
            return pa.table({id_col: pa.array([], pa.int64())})
        vecs = np.ascontiguousarray(
            _normalize(list_to_matrix(g[vec_col], np.float32)).astype(
                np.float64
            )
        )
        kept: list[int] = []
        keep = np.zeros(n, bool)
        for i in range(n):
            if kept and (vecs[kept] @ vecs[i]).max() >= threshold:
                continue
            keep[i] = True
            kept.append(i)
        return pa.table({id_col: g[id_col].filter(pa.array(keep))})

    return (
        idx.assigned.select_columns([id_col, vec_col, "cell"])
        .groupby("cell")
        .map_groups(walk, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# normalized exact dedup (canonicalize-then-hash, C4-style)
# ---------------------------------------------------------------------------


def normalize_text(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray:
    """Canonical form for trivial-edit dedup: lowercase, strip everything
    but [a-z0-9 ], collapse runs of spaces, trim.  All four steps are Arrow
    C++ kernels (RE2), and the SQL oracle uses DuckDB's RE2 with the same
    patterns, so the two normalizations agree byte-for-byte."""
    t = pc.utf8_lower(col)
    t = pc.replace_substring_regex(t, pattern="[^a-z0-9 ]+", replacement=" ")
    t = pc.replace_substring_regex(t, pattern=" +", replacement=" ")
    return pc.utf8_trim(t, characters=" ")


def normalized_dedup(
    ds: ray.data.Dataset, *, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Exact dedup AFTER canonicalization — catches the trivially-edited
    duplicates (case, punctuation, whitespace) that byte-exact dedup
    misses, at identical cost: the normalize is a per-block vectorized map,
    and the exchange still carries one (16-byte hash, id) pair per distinct
    NORMALIZED text per block."""

    def norm_hash(batch: pa.Table) -> pa.Table:
        normed = normalize_text(batch[text_col])
        return pa.table(
            {
                "norm_hash": md5_fingerprints(normed),
                id_col: batch[id_col],
            }
        )

    out = (
        ds.map_batches(norm_hash, batch_format="pyarrow")
        .groupby("norm_hash")
        .aggregate(Count(), Min(id_col))
    )
    return out.rename_columns(
        {f"min({id_col})": id_col, "count()": "dup_count"}
    ).select_columns(["norm_hash", id_col, "dup_count"])


def keep_best_dedup(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    quality_col: str = "n_chars",
) -> ray.data.Dataset:
    """Normalized exact dedup that keeps the BEST duplicate — the member
    with the highest ``quality_col`` (longest raw text by default; trivial
    edits change raw length but not the normalized key), ties broken by
    smallest id — instead of ``normalized_dedup``'s first-by-id policy.
    The production policy when duplicates differ in completeness (a
    truncated re-crawl vs the full page).

    The argmax rides a single int64 ``max`` aggregate: each row encodes
    ``quality·2³² + (2³²−1 − id)`` so ``max`` selects max-quality then
    min-id, and the winner is decoded after the exchange — the shuffle
    carries one (16-byte hash, int64) pair per distinct normalized text
    per block, same cost as plain dedup.  Requires ``0 ≤ id,quality < 2³¹``
    (asserted); wider domains would split the encode into two aggregates.
    """
    from ray.data.aggregate import Max

    def prep(batch: pa.Table) -> pa.Table:
        normed = normalize_text(batch[text_col])
        q = batch[quality_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        i = batch[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        if len(q) and (
            q.min() < 0 or q.max() >= 1 << 31 or i.min() < 0 or i.max() >= 1 << 31
        ):
            raise ValueError("keep_best_dedup needs 0 <= id, quality < 2^31")
        key = q * (1 << 32) + ((1 << 32) - 1 - i)
        return pa.table(
            {
                "norm_hash": md5_fingerprints(normed),
                "k": pa.array(key, pa.int64()),
            }
        )

    agg = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("norm_hash")
        .aggregate(Count(), Max("k"))
    )

    def decode(batch: pa.Table) -> pa.Table:
        k = batch["max(k)"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "norm_hash": batch["norm_hash"],
                id_col: pa.array(((1 << 32) - 1) - (k % (1 << 32)), pa.int64()),
                quality_col: pa.array(k >> 32, pa.int64()),
                "dup_count": batch["count()"].cast(pa.int64()),
            }
        )

    return agg.map_batches(decode, batch_format="pyarrow")


class Hash64BandStage:
    """Band rows from a PRECOMPUTED 64-bit hash column (SimHash banding
    minus the text hashing) — the LSH front end for any 64-bit
    fingerprint: perceptual image hashes, SimHashes computed upstream,
    document fingerprints."""

    BITS = 64

    def __init__(
        self,
        *,
        hash_col: str,
        id_col: str,
        bands: int = 4,
        n_buckets: int = 64,
    ):
        assert self.BITS % bands == 0
        self.hash_col = hash_col
        self.id_col = id_col
        self.bands = bands
        self.band_bits = self.BITS // bands
        self.n_buckets = n_buckets

    def __call__(self, batch: pa.Table) -> pa.Table:
        shs = (
            batch[self.hash_col]
            .to_numpy(zero_copy_only=False)
            .astype(np.uint64)
        )
        mask = np.uint64((1 << self.band_bits) - 1)
        shifts = (
            np.arange(self.bands, dtype=np.uint64) * np.uint64(self.band_bits)
        )
        keys = (shs[:, None] >> shifts[None, :]) & mask
        return _band_rows(
            self.id_col,
            batch[self.id_col],
            keys,
            pa.array(shs, pa.uint64()),
            self.n_buckets,
        )


def hash64_hamming_dedup(
    ds: ray.data.Dataset,
    *,
    hash_col: str,
    id_col: str,
    bands: int = 4,
    max_hamming: int = 3,
    n_buckets: int = 64,
    concurrency=(2, 8),
) -> ray.data.Dataset:
    """Kept ids after Hamming-distance near-dedup over a precomputed
    64-bit fingerprint column — the same banded-LSH + batched
    xor-popcount verify as :func:`simhash_dedup`, reusable for image
    pHashes and any other 64-bit signature.

    Recall semantics (same as simhash_dedup): candidate GENERATION is
    lossless for ``max_hamming ≤ bands − 1`` (pigeonhole — a pair with ≤3
    differing bits cannot differ in all 4 bands, so it always shares a
    bucket), but the verify follows keep-first keeper semantics: a row is
    dropped iff it verifies against its bucket's MIN-ID row.  A bucket
    whose smallest id is a band-key-colliding foreign row can therefore
    mask a true near-dup pair — rare at 16-bit band keys but nonzero at
    extreme scale; exhaustive recall needs the pair-join plan
    (:func:`ngram_jaccard_dedup`-style), not keeper walks."""

    def verify(group: pa.Table) -> pa.Table:
        def batch_hamming(payload, ki, ci) -> np.ndarray:
            sh = payload.to_numpy(zero_copy_only=False).astype(np.uint64)
            x = (sh[ki] ^ sh[ci]).view(np.uint8).reshape(len(ki), 8)
            return np.unpackbits(x, axis=1).sum(axis=1) <= max_hamming

        return _walk_buckets_vec(group, id_col, batch_hamming)

    return _lsh_dedup(
        ds,
        Hash64BandStage,
        verify,
        id_col=id_col,
        n_buckets=n_buckets,
        concurrency=concurrency,
        stage_kwargs=dict(
            hash_col=hash_col, id_col=id_col, bands=bands, n_buckets=n_buckets
        ),
    )
