"""Corpus analytics / relational pipelines over the benchmark tables.

These exercise the engine's wide operators (groupby/aggregate, joins, sort,
limit) plus the text-analysis kernels, with semantics chosen to be EXACTLY
replicable in ANSI SQL so the driver's DuckDB oracle verifies them
bit-for-bit:

- money/measure sums are carried as integer cents / basis points
  (``CAST(FLOOR(x*100 + 0.5) AS BIGINT)`` on both sides) — no float
  summation-order noise;
- per-row float products are computed with the same IEEE double ops in both
  engines before integerizing;
- dates are emitted as ``YYYY-MM-DD`` strings.

Scale notes: every groupby here is a Ray hash aggregate with map-side
combine (the shuffle carries one partial row per key per block).  Small
dimension sides (customer keys, order→date maps after a selective filter)
are broadcast once via ``ray.put`` and read inside ``map_batches`` — a
broadcast-hash join.  Every other equi-join goes through the
``cluster.equi_join`` planner, which broadcasts a right side that fits the
object-store cap and exchanges both sides by key otherwise.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from ..cluster import (
    arrow_block_refs,
    assembly_buckets_for_bytes,
    dataset_size_estimate,
    equi_join,
    table_file_bytes,
)
from ..functions import text_stats


def read_table(
    sf_dir: str, name: str, columns: list[str] | None = None
) -> ray.data.Dataset:
    """Column-pruned parquet scan of one benchmark table."""
    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{name}.parquet"), columns=columns
    )


def _cents(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """ROUND-HALF-UP integer cents — identical to SQL FLOOR(x*100 + 0.5)."""
    x = col.to_numpy(zero_copy_only=False).astype(np.float64)
    return pa.array(np.floor(x * 100.0 + 0.5).astype(np.int64), pa.int64())


# ---------------------------------------------------------------------------
# document text analytics
# ---------------------------------------------------------------------------


def doc_token_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-document token/quality stats (integer columns, SQL-replicable)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        text_stats.doc_stats_batch, batch_format="pyarrow"
    )


def doc_fingerprints(sf_dir: str) -> ray.data.Dataset:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        text_stats.fingerprint_batch, batch_format="pyarrow"
    ).select_columns(["doc_id", "fingerprint_md5"])


def doc_lang_quality(sf_dir: str) -> ray.data.Dataset:
    """Language ID + quality flags — the lang/fingerprint parts have no SQL
    equivalent (rows-only oracle)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def fn(batch: pa.Table) -> pa.Table:
        out = text_stats.lang_id_batch(batch)
        q = text_stats.quality_columns(batch["text"])
        return out.append_column("quality_passes", q["quality_passes"]).append_column(
            "lang_declared", batch["lang"]
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def chunk_documents(
    sf_dir: str, *, window: int = 200, stride: int = 150
) -> ray.data.Dataset:
    """Training-data chunking: split each document into overlapping
    character windows (start = 0, stride, 2·stride, … while start < len;
    chunk = text[start : start+window]).

    A flat-map: each input row fans out to ceil(len/stride) chunk rows with
    stable (doc_id, chunk_no) identity, so downstream tokenize/embed stages
    shard evenly regardless of document length skew.  Fully SQL-replicable
    (generate_series + substr)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "chunk_no": pa.array([], pa.int64()),
            "chunk_text": pa.array([], pa.string()),
            "chunk_chars": pa.array([], pa.int64()),
        }
    )

    def chunks(batch: pa.Table) -> pa.Table:
        # loop over CHUNK INDEX (bounded by ceil(max_len/stride), ~7 for
        # 1k-char docs), each iteration one vectorized Arrow slice over
        # every still-alive document — no per-doc Python, and a document's
        # text is never replicated ×chunks before slicing
        # (pc.utf8_slice_codeunits slices by code points = Python slicing)
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        lens = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        if len(lens) == 0 or lens.max() == 0:
            return empty
        max_chunks = int((int(lens.max()) + stride - 1) // stride)
        outs = []
        for i in range(max_chunks):
            start = i * stride
            idx = np.flatnonzero(lens > start)
            sl = pc.utf8_slice_codeunits(
                texts.take(pa.array(idx)), start=start, stop=start + window
            )
            outs.append(
                pa.table(
                    {
                        "doc_id": pa.array(ids[idx], pa.int64()),
                        "chunk_no": pa.array(
                            np.full(len(idx), i, np.int64), pa.int64()
                        ),
                        "chunk_text": sl,
                        "chunk_chars": pc.utf8_length(sl).cast(pa.int64()),
                    }
                )
            )
        return pa.concat_tables(outs)

    return ds.map_batches(chunks, batch_format="pyarrow")


CHUNK_DOCUMENTS_SQL = """
WITH e AS (
  SELECT doc_id, text,
         unnest(range(0, CAST(floor((length(text)-1)/150.0) AS BIGINT) + 1)) AS s
  FROM documents WHERE length(text) > 0
)
SELECT doc_id,
       CAST(s AS BIGINT) AS chunk_no,
       substr(text, CAST(s*150 + 1 AS BIGINT), 200) AS chunk_text,
       CAST(length(substr(text, CAST(s*150 + 1 AS BIGINT), 200)) AS BIGINT)
         AS chunk_chars
FROM e
ORDER BY doc_id, chunk_no
"""


def pack_documents(sf_dir: str, budget: int = 2048) -> ray.data.Dataset:
    """Sequence packing: assign each document (in doc_id order) a pack id
    by cumulative size — ``pack_id = floor(prefix_sum_before_doc / budget)``
    — the standard "pack by cumulative token budget" used to build training
    sequences.

    Distributed prefix-sum, two passes over a PRE-PROJECTED two-int-column
    dataset (doc_id, n_chars):

    1. global sort by doc_id → range-partitioned blocks (materialized once:
       the sort output is consumed by both passes, and only the two int
       columns ride through it — the corpus text never moves);
    2. per-block summaries (min id, total) → the driver sees ONE ROW PER
       BLOCK (bounded by block count, not corpus size) and computes each
       block's exclusive offset;
    3. per-block pass: look up the block offset by its min doc_id,
       ``np.cumsum`` inside the block.

    SQL-replicable with a window function (sum OVER rows unbounded
    preceding)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return pack_dataset(ds, budget=budget)


def pack_dataset(
    ds: ray.data.Dataset,
    *,
    budget: int = 2048,
    id_col: str = "doc_id",
    size_col: str = "n_chars",
) -> ray.data.Dataset:
    """Core of :func:`pack_documents` over an arbitrary (id, size) Dataset —
    see that docstring for the distributed prefix-sum plan."""
    sorted_ds = ds.sort(id_col).materialize()

    def block_summary(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"blk_min": pa.array([], pa.int64()), "blk_sum": pa.array([], pa.int64())}
            )
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if len(np.unique(ids)) != len(ids):
            # duplicates WITHIN a block make pack order tie-ambiguous (sort
            # order among equal keys is unspecified) — reject here so the
            # cross-boundary guard below isn't the only line of defense
            raise ValueError(
                "pack_dataset requires unique ids; duplicates found within "
                "a sorted block"
            )
        nc = batch[size_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "blk_min": pa.array([int(ids.min())], pa.int64()),
                "blk_sum": pa.array([int(nc.sum())], pa.int64()),
            }
        )

    summaries = sorted(
        (r["blk_min"], r["blk_sum"])
        for r in sorted_ds.map_batches(
            block_summary, batch_format="pyarrow", batch_size=None
        ).take_all()
    )
    offsets: dict[int, int] = {}
    running = 0
    for blk_min, blk_sum in summaries:
        if blk_min in offsets:
            # two sorted blocks sharing a min id ⇒ duplicate ids span a
            # block boundary — the offset lookup would silently assign both
            # blocks the later offset.  (Duplicate ids also make the pack
            # order itself tie-ambiguous, so they are rejected outright.)
            raise ValueError(
                f"pack_dataset requires unique ids; duplicate id {blk_min} "
                "spans a block boundary"
            )
        offsets[blk_min] = running
        running += blk_sum
    oref = ray.put(offsets)

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "pack_id": pa.array([], pa.int64()),
                    size_col: pa.array([], pa.int64()),
                }
            )
        offs = ray.get(oref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        nc = batch[size_col].to_numpy(zero_copy_only=False).astype(np.int64)
        base = offs[int(ids.min())]
        before = base + np.concatenate([[0], np.cumsum(nc)[:-1]])
        return pa.table(
            {
                id_col: pa.array(ids.astype(np.int64), pa.int64()),
                "pack_id": pa.array(before // budget, pa.int64()),
                size_col: pa.array(nc, pa.int64()),
            }
        )

    return sorted_ds.map_batches(assign, batch_format="pyarrow", batch_size=None)


PACK_DOCUMENTS_SQL = """
SELECT doc_id,
       CAST(floor(
         (sum(CAST(n_chars AS BIGINT)) OVER (ORDER BY doc_id
              ROWS UNBOUNDED PRECEDING) - n_chars) / 2048.0
       ) AS BIGINT) AS pack_id,
       CAST(n_chars AS BIGINT) AS n_chars
FROM documents ORDER BY doc_id
"""


def token_vocab(sf_dir: str, k: int = 100) -> ray.data.Dataset:
    """Corpus vocabulary: global top-k most frequent whitespace tokens.

    Map-side combine (``pa.Table.group_by`` per block — the shuffle carries
    one row per distinct token per block, not one per token occurrence),
    then a hash aggregate over tokens and a global sort+limit.  The classic
    wide-aggregation shape for corpus statistics at scale.

    The tokenize itself never leaves Arrow C++: ``utf8_lower`` →
    ``split_pattern_regex`` → ``list_flatten`` → empty-token filter — no
    per-document Python loop on this full-corpus scan."""
    ds = read_table(sf_dir, "documents", columns=["text"])

    def local_counts(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern_regex(pc.utf8_lower(batch["text"]), r"\s+")
        )
        toks = toks.filter(pc.not_equal(toks, ""))
        part = pa.table({"token": toks})
        g = part.group_by("token").aggregate([([], "count_all")])
        return pa.table(
            {"token": g["token"], "n": g["count_all"].cast(pa.int64())}
        )

    agg = (
        ds.map_batches(local_counts, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n"))
        .rename_columns({"sum(n)": "n"})
    )
    return agg.sort(["n", "token"], descending=[True, False]).limit(k)


TOKEN_VOCAB_SQL = """
SELECT t.tok AS token, CAST(count(*) AS BIGINT) AS n
FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(tok)
WHERE t.tok <> ''
GROUP BY 1 ORDER BY n DESC, token LIMIT 100
"""


def vocab_growth(sf_dir: str, n_points: int = 10) -> pa.Table:
    """Vocabulary growth curve (the Heaps'-law audit): distinct-token
    vocabulary size at ``n_points`` evenly spaced doc-id checkpoints —
    "is this corpus still contributing new vocabulary, or is marginal
    data redundant".

    One-pass plan: the curve needs no per-checkpoint rescans because
    ``vocab(t) = #{tokens whose MIN doc_id ≤ t}`` — per-block
    ``group_by(token).min(doc_id)`` partials combine through ONE keyed
    exchange (rows = distinct tokens), then each block of the token
    table reduces to ``n_points`` partial counts via one
    ``searchsorted`` (nothing token-sized reaches the driver).  Same
    Arrow-C++ tokenize as :func:`token_vocab` (lower → regex split —
    SQL parity by construction).  Returns ``(k, t_doc, vocab)`` rows —
    the checkpoint index ``k`` (1-based) stays in the output so a tiny
    corpus (``max_doc < n_points``) where several checkpoints collapse
    onto one ``t_doc`` still yields exactly ``n_points`` distinct rows
    on both sides.  NOTE: ``VOCAB_GROWTH_SQL`` hardcodes the default
    ``n_points=10`` (``range(1, 11)``); other values have no oracle.
    """
    from ..stages.agg import bucket_groupby_agg

    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def max_partial(batch: pa.Table) -> pa.Table:
        m = pc.max(batch["doc_id"]).as_py()
        return pa.table({"m": pa.array([m if m is not None else -1], pa.int64())})

    max_rows = ds.map_batches(max_partial, batch_format="pyarrow").take_all()
    max_doc = max((int(r["m"]) for r in max_rows), default=-1)
    cps = [((k + 1) * max_doc) // n_points for k in range(n_points)]

    def local_first(batch: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), r"\s+")
        toks = pc.list_flatten(lists)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        doc = np.repeat(
            batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            lens,
        )
        keep = pc.not_equal(toks, "")
        part = pa.table(
            {
                "token": toks.filter(keep),
                "doc": pa.array(doc[keep.to_numpy(zero_copy_only=False)]),
            }
        )
        g = part.group_by("token").aggregate([("doc", "min")])
        return pa.table({"token": g["token"], "doc": g["doc_min"]})

    firsts = bucket_groupby_agg(
        ds.map_batches(local_first, batch_format="pyarrow"),
        ["token"],
        [("doc", "min", "first_doc")],
    )

    def cp_counts(batch: pa.Table) -> pa.Table:
        fd = np.sort(
            batch["first_doc"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        counts = np.searchsorted(fd, np.array(cps, np.int64), side="right")
        return pa.table(
            {
                "k": pa.array(list(range(n_points)), pa.int64()),
                "c": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    parts = firsts.map_batches(cp_counts, batch_format="pyarrow").take_all()
    vocab = [0] * n_points
    for r in parts:
        vocab[int(r["k"])] += int(r["c"])
    return pa.table(
        {
            "k": pa.array(list(range(1, n_points + 1)), pa.int64()),
            "t_doc": pa.array(cps, pa.int64()),
            "vocab": pa.array(vocab, pa.int64()),
        }
    )


VOCAB_GROWTH_SQL = """
WITH mx AS (SELECT MAX(doc_id) AS m FROM documents),
tok AS (
  SELECT t.tok AS token, MIN(doc_id) AS first_doc
  FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(tok)
  WHERE t.tok <> '' GROUP BY 1
),
cps AS (SELECT UNNEST(range(1, 11)) AS k)
SELECT CAST(k AS BIGINT) AS k,
       CAST((k * m) // 10 AS BIGINT) AS t_doc,
       CAST(SUM(CASE WHEN first_doc <= (k * m) // 10 THEN 1 ELSE 0 END)
            AS BIGINT) AS vocab
FROM cps, mx, tok GROUP BY 1, 2
"""


def bigram_counts(sf_dir: str, k: int = 50) -> ray.data.Dataset:
    """Corpus collocations: global top-k most frequent adjacent token
    pairs — the co-occurrence statistic behind phrase mining and PMI.

    Same wide-aggregation shape as :func:`token_vocab` (per-block C++
    combine → token-hash aggregate → sort+limit), with the bigram
    construction fully vectorized: tokens stay flat Arrow arrays, a doc-id
    repeat vector marks document boundaries, and the pair join is one
    ``binary_join_element_wise`` over shifted takes — pairs never cross a
    document (empties from boundary whitespace are dropped BEFORE pairing,
    matching the oracle's filtered-list indexing)."""
    ds = read_table(sf_dir, "documents", columns=["text"])

    def local_counts(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), r"\s+")
        if isinstance(split, pa.ChunkedArray):
            split = split.combine_chunks()
        # flatten() + list_value_length are offset-aware (slice-safe),
        # unlike .values / raw offsets
        flat = split.flatten()
        lens = pc.list_value_length(split).to_numpy(zero_copy_only=False)
        doc = np.repeat(np.arange(len(split), dtype=np.int64), lens)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        kt = flat.filter(pa.array(keep))
        kd = doc[keep]
        if len(kd) < 2:
            return pa.table(
                {"bigram": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        adj = np.flatnonzero(kd[1:] == kd[:-1])  # i and i+1 in same doc
        left = kt.take(pa.array(adj))
        right = kt.take(pa.array(adj + 1))
        bg = pc.binary_join_element_wise(left, right, " ")
        g = pa.table({"bigram": bg}).group_by("bigram").aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {"bigram": g["bigram"], "n": g["count_all"].cast(pa.int64())}
        )

    agg = (
        ds.map_batches(local_counts, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("n"))
        .rename_columns({"sum(n)": "n"})
    )
    return agg.sort(["n", "bigram"], descending=[True, False]).limit(k)


BIGRAM_COUNTS_SQL = """
WITH l AS (
  SELECT list_filter(string_split_regex(lower(text), '\\s+'),
                     x -> x <> '') AS toks
  FROM documents
), b AS (
  SELECT unnest(list_transform(generate_series(1, len(toks)-1),
                               i -> toks[i] || ' ' || toks[i+1])) AS bigram
  FROM l
)
SELECT bigram, CAST(count(*) AS BIGINT) AS n
FROM b GROUP BY 1 ORDER BY n DESC, bigram LIMIT 50
"""


def lang_source_stats(sf_dir: str) -> ray.data.Dataset:
    """documents grouped by (lang, source): doc count + total chars."""
    ds = read_table(sf_dir, "documents", columns=["lang", "source", "n_chars"])
    out = ds.groupby(["lang", "source"]).aggregate(Count(), Sum("n_chars"))
    return (
        out.rename_columns({"count()": "n_docs", "sum(n_chars)": "total_chars"})
    )


# ---------------------------------------------------------------------------
# relational (TPC-H-style) pipelines
# ---------------------------------------------------------------------------


def q1_pricing(sf_dir: str) -> ray.data.Dataset:
    """Pricing summary per (returnflag, linestatus) — all-integer measures."""
    ds = read_table(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount",
        ],
    )

    def prep(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        disc_price = price * (1.0 - disc)
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": batch["l_quantity"].cast(pa.int64()),
                "price_cents": _cents(batch["l_extendedprice"]),
                "disc_price_cents": pa.array(
                    np.floor(disc_price * 100.0 + 0.5).astype(np.int64), pa.int64()
                ),
                "disc_bp": pa.array(
                    np.floor(disc * 10000.0 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    agg = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty"), Sum("price_cents"), Sum("disc_price_cents"),
            Sum("disc_bp"), Count(),
        )
    )
    return agg.rename_columns(
        {
            "sum(qty)": "sum_qty",
            "sum(price_cents)": "sum_price_cents",
            "sum(disc_price_cents)": "sum_disc_price_cents",
            "sum(disc_bp)": "sum_disc_bp",
            "count()": "n_rows",
        }
    )


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(FLOOR(l_extendedprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_price_cents,
       CAST(sum(CAST(FLOOR(l_extendedprice*(1.0-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_price_cents,
       CAST(sum(CAST(FLOOR(l_discount*10000 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_bp,
       count(*) AS n_rows
FROM lineitem GROUP BY 1, 2 ORDER BY 1, 2
"""


def top_orders(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Global sort + limit: top-k orders by totalprice (raw doubles pass
    through unchanged, so values match SQL exactly)."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return ds.sort(
        ["o_totalprice", "o_orderkey"], descending=[True, False]
    ).limit(k)


TOP_ORDERS_SQL = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


def events_daily(sf_dir: str) -> ray.data.Dataset:
    """Events per (event_type, day): count + integer-cent value sum."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        day = pc.strftime(batch["ts"], format="%Y-%m-%d")
        return pa.table(
            {
                "event_type": batch["event_type"],
                "day": day,
                "value_cents": _cents(batch["value"]),
            }
        )

    agg = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Count(), Sum("value_cents"))
    )
    return agg.rename_columns(
        {"count()": "n_events", "sum(value_cents)": "sum_value_cents"}
    )


EVENTS_DAILY_SQL = """
SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
       count(*) AS n_events,
       CAST(sum(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_cents
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""


def cust_nation_counts(sf_dir: str) -> ray.data.Dataset:
    """customer ⋈ nation ⋈ region rollup via broadcast lookup (small dims).

    nation/region together are tiny (25 + 5 rows at any SF) — ``ray.put``
    once, map each customer batch through the lookup, then hash-aggregate.
    """
    nat = {
        r["n_nationkey"]: r["n_name"]
        for r in read_table(sf_dir, "nation").take_all()
    }
    reg = {
        r["r_regionkey"]: r["r_name"]
        for r in read_table(sf_dir, "region").take_all()
    }
    n2r = {
        r["n_nationkey"]: reg[r["n_regionkey"]]
        for r in read_table(sf_dir, "nation").take_all()
    }
    # nation keys are dense small ints (0..24 at any SF): build dense numpy
    # lookup arrays ONCE on the driver and broadcast those, so each batch
    # does a single vectorized fancy-index gather instead of per-row dict
    # probes.
    if not nat:
        raise ValueError("nation table is empty — cannot build the lookup")
    size = max(nat) + 1
    nat_arr = np.empty(size, dtype=object)
    reg_arr = np.empty(size, dtype=object)
    for k, v in nat.items():
        nat_arr[k] = v
    for k, v in n2r.items():
        reg_arr[k] = v
    lookup_ref = ray.put((nat_arr, reg_arr))

    ds = read_table(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])

    def join(batch: pa.Table) -> pa.Table:
        nat_l, reg_l = ray.get(lookup_ref)
        keys = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        # a dangling FK must fail loudly, not flow through as null names
        if keys.size and (keys.min() < 0 or keys.max() >= len(nat_l)):
            bad = keys[(keys < 0) | (keys >= len(nat_l))][0]
            raise KeyError(f"c_nationkey {bad} not present in nation")
        names = nat_l[keys]
        if any(v is None for v in names):
            bad = keys[np.asarray([v is None for v in names])][0]
            raise KeyError(f"c_nationkey {bad} not present in nation")
        return pa.table(
            {
                "r_name": pa.array(reg_l[keys], pa.string()),
                "n_name": pa.array(names, pa.string()),
                "acctbal_cents": _cents(batch["c_acctbal"]),
            }
        )

    agg = (
        ds.map_batches(join, batch_format="pyarrow")
        .groupby(["r_name", "n_name"])
        .aggregate(Count(), Sum("acctbal_cents"))
    )
    return agg.rename_columns(
        {"count()": "n_customers", "sum(acctbal_cents)": "sum_acctbal_cents"}
    )


CUST_NATION_SQL = """
SELECT r_name, n_name, count(*) AS n_customers,
       CAST(sum(CAST(FLOOR(c_acctbal*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_acctbal_cents
FROM customer
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY 1, 2 ORDER BY 1, 2
"""


def orders_by_segment(sf_dir: str) -> ray.data.Dataset:
    """orders ⋈ customer through the join planner — both sides scale with
    SF, so above the broadcast cap this is the large-large keyed-exchange
    path."""
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def prep_orders(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "price_cents": _cents(batch["o_totalprice"]),
            }
        )

    joined = equi_join(
        orders.map_batches(prep_orders, batch_format="pyarrow"),
        read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        on="o_custkey",
        right_on="c_custkey",
        join_type="inner",
        right_cols=["c_mktsegment"],
    )
    agg = joined.groupby("c_mktsegment").aggregate(Count(), Sum("price_cents"))
    return agg.rename_columns(
        {"count()": "n_orders", "sum(price_cents)": "sum_price_cents"}
    )


ORDERS_BY_SEGMENT_SQL = """
SELECT c_mktsegment, count(*) AS n_orders,
       CAST(sum(CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_price_cents
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY 1 ORDER BY 1
"""


def q3_shipping(sf_dir: str, segment: str = "BUILDING",
                cutoff: str = "1995-03-15", k: int = 10) -> ray.data.Dataset:
    """TPC-H Q3 shape: selective vectorized filters at the scan → planner
    joins (broadcast or keyed exchange) → map-side partial revenue
    combine → final aggregate → top-k.

    Scale notes: nothing is materialized on the driver — customer and
    orders are filtered as Datasets and joined distributedly (both sides
    scale with SF); lineitem's date filter and revenue kernel are pure
    pyarrow/numpy, and revenue is pre-combined per order inside each batch
    (``pa.Table.group_by``) so the join and final groupby move one row per
    (order, block) instead of one per lineitem."""
    cust = (
        read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
        .filter(expr=f"c_mktsegment == '{segment}'")
        .select_columns(["c_custkey"])
    )

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def sel_orders(batch: pa.Table) -> pa.Table:
        date = pc.strftime(batch["o_orderdate"], format="%Y-%m-%d")
        mask = pc.less(date, pa.scalar(cutoff))
        return pa.table(
            {
                "o_orderkey": pc.filter(batch["o_orderkey"], mask),
                "o_custkey": pc.filter(batch["o_custkey"], mask),
                "o_orderdate": pc.filter(date, mask),
            }
        )

    sel = equi_join(
        orders.map_batches(sel_orders, batch_format="pyarrow"),
        cust,
        on="o_custkey",
        right_on="c_custkey",
        join_type="inner",
        left_cols=["o_orderkey", "o_orderdate"],
        right_cols=[],
    )

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def revenue(batch: pa.Table) -> pa.Table:
        ship = pc.strftime(batch["l_shipdate"], format="%Y-%m-%d")
        mask = pc.greater(ship, pa.scalar(cutoff)).to_numpy(zero_copy_only=False)
        okeys = batch["l_orderkey"].to_numpy(zero_copy_only=False)[mask]
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)[mask]
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)[mask]
        rev = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        part = pa.table(
            {
                "l_orderkey": pa.array(okeys.astype(np.int64), pa.int64()),
                "rev_cents": pa.array(rev, pa.int64()),
            }
        )
        combined = part.group_by("l_orderkey").aggregate([("rev_cents", "sum")])
        return pa.table(
            {
                "l_orderkey": combined["l_orderkey"],
                "rev_cents": combined["rev_cents_sum"],
            }
        )

    joined = equi_join(
        li.map_batches(revenue, batch_format="pyarrow"),
        sel,
        on="l_orderkey",
        right_on="o_orderkey",
        join_type="inner",
        right_cols=["o_orderdate"],
    )
    agg = (
        joined.groupby(["l_orderkey", "o_orderdate"])
        .aggregate(Sum("rev_cents"))
        .rename_columns(
            {"l_orderkey": "o_orderkey", "sum(rev_cents)": "revenue_cents"}
        )
    )
    return agg.sort(
        ["revenue_cents", "o_orderkey"], descending=[True, False]
    ).limit(k)


Q3_SQL = """
SELECT l_orderkey AS o_orderkey,
       strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
       CAST(sum(CAST(FLOOR(l_extendedprice*(1.0-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND strftime(o_orderdate, '%Y-%m-%d') < '1995-03-15'
  AND strftime(l_shipdate, '%Y-%m-%d') > '1995-03-15'
GROUP BY 1, 2
ORDER BY revenue_cents DESC, o_orderkey LIMIT 10
"""


def part_type_stats(sf_dir: str) -> ray.data.Dataset:
    """part grouped by brand: count, min/max retail cents — Min/Max aggs."""
    ds = read_table(sf_dir, "part", columns=["p_brand", "p_retailprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": batch["p_brand"],
                "price_cents": _cents(batch["p_retailprice"]),
            }
        )

    agg = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("p_brand")
        .aggregate(Count(), Min("price_cents"), Max("price_cents"))
    )
    return agg.rename_columns(
        {
            "count()": "n_parts",
            "min(price_cents)": "min_price_cents",
            "max(price_cents)": "max_price_cents",
        }
    )


PART_TYPE_SQL = """
SELECT p_brand, count(*) AS n_parts,
       min(CAST(FLOOR(p_retailprice*100 + 0.5) AS BIGINT)) AS min_price_cents,
       max(CAST(FLOOR(p_retailprice*100 + 0.5) AS BIGINT)) AS max_price_cents
FROM part GROUP BY 1 ORDER BY 1
"""


def customers_without_orders(sf_dir: str) -> ray.data.Dataset:
    """ANTI-join: customers with no order placed in 1995 (NOT EXISTS over a
    filtered subquery — the unfiltered variant is empty on this corpus).

    The distinct matching custkey set (map-side combined groupby) is the
    right input of one ``left_anti`` :func:`cluster.equi_join`: broadcast
    while it fits the object-store cap, a keyed exchange of both sides
    past it (15 M customers at SF100).
    """
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def in_1995(batch: pa.Table) -> pa.Table:
        yr = pc.strftime(batch["o_orderdate"], format="%Y")
        mask = pc.equal(yr, pa.scalar("1995"))
        return pa.table({"o_custkey": pc.filter(batch["o_custkey"], mask)})

    distinct = (
        orders.map_batches(in_1995, batch_format="pyarrow")
        .groupby("o_custkey")
        .count()
    )
    return equi_join(
        read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        distinct.rename_columns({"count()": "match_n"}),
        on="c_custkey",
        right_on="o_custkey",
        join_type="left_anti",
        left_cols=["c_custkey", "c_mktsegment"],
    )


CUSTOMERS_WITHOUT_ORDERS_SQL = """
SELECT c_custkey, c_mktsegment FROM customer
WHERE NOT EXISTS (
  SELECT 1 FROM orders
  WHERE o_custkey = c_custkey AND strftime(o_orderdate, '%Y') = '1995'
)
ORDER BY c_custkey
"""


def suppliers_with_lineitems(sf_dir: str) -> ray.data.Dataset:
    """SEMI-join: suppliers that appear in lineitem (EXISTS).

    The distinct suppkey set is pre-aggregated (map-side combined groupby —
    the shuffle carries one row per distinct key per block, never one per
    lineitem) and is the right input of one ``left_semi``
    :func:`cluster.equi_join`: each supplier batch semi-joins a broadcast
    copy while the set fits the object-store cap, else both sides
    exchange by key.
    """
    distinct = (
        read_table(sf_dir, "lineitem", columns=["l_suppkey"])
        .groupby("l_suppkey")
        .count()
    )
    return equi_join(
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"]),
        distinct.rename_columns({"count()": "n"}),
        on="s_suppkey",
        right_on="l_suppkey",
        join_type="left_semi",
        left_cols=["s_suppkey", "s_name"],
    )


SUPPLIERS_WITH_LINEITEMS_SQL = """
SELECT s_suppkey, s_name FROM supplier
WHERE EXISTS (SELECT 1 FROM lineitem WHERE l_suppkey = s_suppkey)
ORDER BY s_suppkey
"""


def priority_price_quantiles(sf_dir: str) -> ray.data.Dataset:
    """Per-group discrete quantiles: p25/p50/p95 of order price cents per
    order priority (DuckDB ``quantile_disc`` semantics: the element at
    ``ceil(q*n) - 1`` of the sorted values — verified empirically, both
    engines doing the index arithmetic in the same IEEE doubles).

    ONE histogram pass (:func:`stages.agg.group_quantiles_disc`): all
    three probabilities are ranks into the same sorted (group, cents,
    count) histogram, so one exchange whose volume is groups × distinct
    cents — independent of row count — serves p25/p50/p95 and the group
    count together.  The raw-value all-to-all the naive ``map_groups``
    formulation pays never happens.
    """
    from ..stages.agg import group_quantiles_disc

    ds = read_table(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "cents": _cents(batch["o_totalprice"]),
            }
        )

    q = group_quantiles_disc(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["o_orderpriority"],
        "cents",
        [0.25, 0.50, 0.95],
        ["p25_cents", "p50_cents", "p95_cents"],
        count_col="n_orders",
    )

    def order_cols(batch: pa.Table) -> pa.Table:
        return batch.select(
            [
                "o_orderpriority",
                "n_orders",
                "p25_cents",
                "p50_cents",
                "p95_cents",
            ]
        )

    return q.map_batches(order_cols, batch_format="pyarrow")


PRIORITY_QUANTILES_SQL = """
SELECT o_orderpriority,
       count(*) AS n_orders,
       quantile_disc(CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT), 0.25) AS p25_cents,
       quantile_disc(CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT), 0.50) AS p50_cents,
       quantile_disc(CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT), 0.95) AS p95_cents
FROM orders GROUP BY 1 ORDER BY 1
"""


def _salt_hash(salt: str) -> np.uint64:
    from ..hashing import string_hash64

    return string_hash64(pa.array([salt], pa.string()))[0]


def deterministic_sample(
    ds: ray.data.Dataset,
    *,
    id_col: str,
    fraction: float,
    salt: str = "s42",
    keep_cols: list[str] | None = None,
    method: str = "fast",
) -> ray.data.Dataset:
    """Deterministic hash-based sampling: a row survives iff
    ``hash(salt, id) % 10000 < fraction*10000``.

    Unlike ``Dataset.random_sample`` this is reproducible at any parallelism
    level, resumable (same rows on rerun), and composable (disjoint salts ⇒
    independent samples; same salt ⇒ nested samples for growing fractions) —
    the properties corpus-curation sampling actually needs.

    ``method="fast"`` (default): the engine's vectorized 64-bit hash
    (``hashing.hash64_array`` — integer mix / polynomial string hash,
    no per-row Python on this full-corpus scan).  ``method="md5"``: the
    SQL-parity rule ``md5(salt:id)`` whose survivors DuckDB can replicate
    exactly (one C-speed hash per row — keep it for oracle-checked runs,
    not for 10^12-row corpora).
    """
    import hashlib as _h

    from ..hashing import hash64_array, mix64

    if method not in ("fast", "md5"):
        raise ValueError(f"unknown sample method {method!r}")
    # round, not truncate: int(0.29*10000) == 2899 from float error, which
    # silently shifts the boundary off the SQL oracle's round literal.
    threshold = int(round(fraction * 10000))
    salt_h = _salt_hash(salt)

    def keep(batch: pa.Table) -> pa.Table:
        if method == "fast":
            h = mix64(hash64_array(batch[id_col]) ^ salt_h)
            mask = pa.array(h % np.uint64(10000) < np.uint64(threshold))
        else:
            ids = batch[id_col].to_pylist()
            sp = f"{salt}:".encode()
            md5 = _h.md5
            mask = pa.array(
                [
                    int.from_bytes(
                        md5(sp + str(v).encode()).digest()[:4], "big"
                    )
                    % 10000 < threshold
                    for v in ids
                ]
            )
        out = batch.filter(mask)
        return out.select(keep_cols) if keep_cols else out

    return ds.map_batches(keep, batch_format="pyarrow")


def weighted_sample(
    ds: ray.data.Dataset,
    *,
    id_col: str,
    weight_col: str,
    cap: int,
    scale_bp: int = 10000,
    salt: str = "w42",
    method: str = "fast",
) -> ray.data.Dataset:
    """Deterministic probability-proportional-to-size sampling: a row
    survives iff ``hash(salt, id) % scale_bp < min(weight, cap) · scale_bp
    / cap`` (integer arithmetic, so the per-row inclusion threshold is
    exactly ``min(weight, cap) * scale_bp // cap`` on both sides) — the
    size-biased sample corpus curation uses to weight long documents
    without a second pass, with all of ``deterministic_sample``'s
    properties (parallelism-invariant, resumable, salt-composable).

    One streaming map.  ``method="fast"`` (default) is the vectorized
    engine hash (no per-row Python on this full-corpus scan);
    ``method="md5"`` is the SQL-parity rule DuckDB replicates exactly —
    keep it for oracle-checked runs, not for 10^12-row corpora."""
    import hashlib as _h

    from ..hashing import hash64_array, mix64

    if method not in ("fast", "md5"):
        raise ValueError(f"unknown sample method {method!r}")
    salt_h = _salt_hash(salt)

    def keep(batch: pa.Table) -> pa.Table:
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        thr = np.minimum(w, cap) * scale_bp // cap
        if method == "fast":
            hv = (
                mix64(hash64_array(batch[id_col]) ^ salt_h)
                % np.uint64(scale_bp)
            ).astype(np.int64)
        else:
            sp = f"{salt}:".encode()
            md5 = _h.md5
            hv = np.fromiter(
                (
                    int.from_bytes(md5(sp + str(v).encode()).digest()[:4], "big")
                    for v in batch[id_col].to_pylist()
                ),
                np.int64,
                count=batch.num_rows,
            ) % scale_bp
        return batch.filter(pa.array(hv < thr))

    return ds.map_batches(keep, batch_format="pyarrow")


def shuffle_shards(
    ds: ray.data.Dataset,
    *,
    id_col: str,
    n_shards: int,
    salt: str = "sh42",
    keep_cols: list[str] | None = None,
    method: str = "fast",
    _sink=None,
) -> ray.data.Dataset:
    """Deterministic global shuffle + sharding for training export: every
    row gets ``shard = hash(salt, id) % n_shards`` and ``pos`` = its rank
    within the shard by ``(hash, id)`` — a pseudo-random global order that
    is a pure function of ids, so re-runs, resumes, and any parallelism
    produce the SAME shard files (unlike ``Dataset.random_shuffle``, whose
    output depends on execution order).  Disjoint salts give independent
    epoch orders; the pos column lets a loader seek mid-shard.

    Plan: one streaming map computes (shard, priority), ONE keyed exchange
    co-locates each shard, and the per-shard finalize is a C++ sort +
    arange.  At scale, ``n_shards`` is chosen so a shard is one training
    file (~256 MB–1 GB) — 10^5–10^6 shards at 100 TB — so the per-group
    sort is bounded by design, and each finalized shard streams straight
    to its own output file (resumable per shard).

    ``method="fast"`` (default): vectorized engine hash.  ``method="md5"``:
    the SQL-parity rule (``md5(salt:id)`` high 32 bits) so DuckDB's
    ``row_number() OVER (PARTITION BY shard ORDER BY h, id)`` replicates
    shard AND pos exactly."""
    import hashlib as _h

    from ..hashing import hash64_array, mix64

    if method not in ("fast", "md5"):
        raise ValueError(f"unknown shuffle method {method!r}")
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    salt_h = _salt_hash(salt)

    def assign(batch: pa.Table) -> pa.Table:
        if method == "fast":
            h = mix64(hash64_array(batch[id_col]) ^ salt_h)
            shard = (h % np.uint64(n_shards)).astype(np.int64)
            prio = h.view(np.int64)  # deterministic (not uint-order) rank
        else:
            sp = f"{salt}:".encode()
            md5 = _h.md5
            h = np.fromiter(
                (
                    int.from_bytes(
                        md5(sp + str(v).encode()).digest()[:4], "big"
                    )
                    for v in batch[id_col].to_pylist()
                ),
                np.int64,
                count=batch.num_rows,
            )
            shard = h % n_shards
            prio = h
        out = batch.select(keep_cols) if keep_cols else batch
        return out.append_column(
            "shard", pa.array(shard, pa.int64())
        ).append_column("__prio", pa.array(prio, pa.int64()))

    def finalize(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "__prio" not in group.column_names:
            # a computed empty group can be schema-less — pass it through
            # untouched (consumers drop zero-row blocks) instead of
            # crashing the sort on the missing priority column
            return group
        idx = pa.compute.sort_indices(
            group,
            sort_keys=[("__prio", "ascending"), (id_col, "ascending")],
        )
        g = group.take(idx).drop_columns(["__prio"])
        g = g.append_column(
            "pos", pa.array(np.arange(g.num_rows, dtype=np.int64))
        )
        # _sink (export_shards): write the finalized shard INSIDE the
        # distributed task and emit a manifest row instead of the rows
        return _sink(g) if _sink is not None else g

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(finalize, batch_format="pyarrow")
    )


def export_shards(
    ds: ray.data.Dataset,
    out_root: str,
    *,
    id_col: str,
    n_shards: int,
    salt: str = "sh42",
    keep_cols: list[str] | None = None,
    method: str = "fast",
) -> "pa.Table":
    """Resumable training-shard export: :func:`shuffle_shards` where each
    per-shard finalize WRITES its shard to ``out_root/shard=K/data.parquet``
    atomically (tmp + rename, inside the distributed task — nothing
    corpus-sized touches the driver) and emits a one-row manifest.

    Because a shard's content is a pure function of (corpus, salt), a
    re-run may safely SKIP any shard whose final file already exists —
    crash recovery recomputes only missing shards.  Returns the manifest
    table (shard, n_rows, path, skipped), ≤ ``n_shards`` rows."""
    import os
    import uuid

    import pyarrow.parquet as pq

    os.makedirs(out_root, exist_ok=True)

    def write_shard(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "shard": pa.array([], pa.int64()),
                "n_rows": pa.array([], pa.int64()),
                "path": pa.array([], pa.string()),
                "skipped": pa.array([], pa.bool_()),
            }
        )
        if group.num_rows == 0 or "shard" not in group.column_names:
            return empty
        shard = int(group["shard"][0].as_py())
        sdir = os.path.join(out_root, f"shard={shard}")
        final = os.path.join(sdir, "data.parquet")
        skipped = os.path.exists(final)
        if not skipped:
            os.makedirs(sdir, exist_ok=True)
            tmp = os.path.join(sdir, f".tmp-{uuid.uuid4().hex}")
            pq.write_table(group, tmp)
            os.replace(tmp, final)  # atomic publish
        return pa.table(
            {
                "shard": pa.array([shard], pa.int64()),
                "n_rows": pa.array([group.num_rows], pa.int64()),
                "path": pa.array([final], pa.string()),
                "skipped": pa.array([skipped], pa.bool_()),
            }
        )

    shuffled = shuffle_shards(
        ds, id_col=id_col, n_shards=n_shards, salt=salt,
        keep_cols=keep_cols, method=method, _sink=write_shard,
    )
    # the manifest is bounded (one row per shard) — collecting it is the
    # one legitimate driver materialization here
    from ..cluster import collect_table

    manifest = collect_table(shuffled)
    if manifest is None:
        return pa.table(
            {
                "shard": pa.array([], pa.int64()),
                "n_rows": pa.array([], pa.int64()),
                "path": pa.array([], pa.string()),
                "skipped": pa.array([], pa.bool_()),
            }
        )
    return manifest.sort_by("shard")


def documents_shuffle_shards(sf_dir: str) -> ray.data.Dataset:
    """Training-export shuffle: documents → 8 deterministic shards with
    an in-shard pseudo-random position (md5 method for the SQL oracle)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])
    return shuffle_shards(ds, id_col="doc_id", n_shards=8, method="md5")


DOCUMENTS_SHUFFLE_SHARDS_SQL = """
WITH h AS (
  SELECT doc_id, lang,
         CAST(('0x' || substr(md5('sh42:' || CAST(doc_id AS VARCHAR)), 1, 8))
              AS UBIGINT) AS hv
  FROM documents
)
SELECT doc_id, lang, CAST(hv % 8 AS BIGINT) AS shard,
       CAST(row_number() OVER (PARTITION BY hv % 8 ORDER BY hv, doc_id) - 1
            AS BIGINT) AS pos
FROM h ORDER BY shard, pos
"""


def documents_sample_weighted(sf_dir: str) -> ray.data.Dataset:
    """PPS sample of documents: inclusion probability n_chars/2000 capped
    at 1 — long docs (≥2000 chars) always survive, short ones
    proportionally."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return weighted_sample(
        ds, id_col="doc_id", weight_col="n_chars", cap=2000, method="md5"
    )


def documents_sample_weighted_fast(sf_dir: str) -> ray.data.Dataset:
    """The production PPS sampling path (vectorized engine hash);
    fixture-oracled because the hash is not SQL-expressible."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return weighted_sample(ds, id_col="doc_id", weight_col="n_chars", cap=2000)


DOCUMENTS_SAMPLE_WEIGHTED_SQL = """
SELECT doc_id, n_chars FROM documents
WHERE CAST(('0x' || substr(md5('w42:' || CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
      % 10000 < (LEAST(n_chars, 2000) * 10000) // 2000
ORDER BY doc_id
"""


def documents_sample(sf_dir: str) -> ray.data.Dataset:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return deterministic_sample(ds, id_col="doc_id", fraction=0.2, method="md5")


def documents_sample_fast(sf_dir: str) -> ray.data.Dataset:
    """The production sampling path (vectorized engine hash); fixture-oracled
    because the hash is not SQL-expressible."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return deterministic_sample(ds, id_col="doc_id", fraction=0.2)


DOCUMENTS_SAMPLE_SQL = """
SELECT doc_id, n_chars FROM documents
WHERE CAST(('0x' || substr(md5('s42:' || CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
      % 10000 < 2000
ORDER BY doc_id
"""


def stratified_sample(
    ds: ray.data.Dataset,
    *,
    id_col: str,
    group_col: str,
    fractions: dict[str, float],
    default_fraction: float = 0.0,
    salt: str = "s42",
    method: str = "fast",
) -> ray.data.Dataset:
    """Per-stratum deterministic sampling: each group keeps its own
    fraction (the standard corpus rebalancing move — e.g. downsample the
    head language, keep the tail whole).  Survival rule per row:
    ``hash(salt, group, id) % 10000 < round(fraction(group)*10000)`` — same
    reproducibility / resumability / nesting properties as
    :func:`deterministic_sample`, independent streams per stratum (the
    group value is folded into the hash).  ``method="fast"`` is the
    vectorized engine hash; ``method="md5"`` is the SQL-replicable
    ``md5(salt:group:id)`` parity rule."""
    import hashlib as _h

    from ..hashing import hash64_array, mix64

    if method not in ("fast", "md5"):
        raise ValueError(f"unknown sample method {method!r}")
    thresholds = {
        g: int(round(f * 10000)) for g, f in fractions.items()
    }
    default_thr = int(round(default_fraction * 10000))
    tref = ray.put((thresholds, default_thr))
    salt_h = _salt_hash(salt)

    def keep(batch: pa.Table) -> pa.Table:
        thr, dthr = ray.get(tref)
        groups_arr = batch[group_col]
        if isinstance(groups_arr, pa.ChunkedArray):
            groups_arr = groups_arr.combine_chunks()
        # null group values are EXCLUDED, matching SQL semantics (the
        # oracle's 'salt' || lang || ':' || id concatenation is NULL for a
        # null lang, so the predicate never passes)
        if method == "fast":
            h = mix64(
                hash64_array(batch[id_col]) ^ hash64_array(groups_arr) ^ salt_h
            )
            # per-row threshold via dictionary-encode: one Python lookup
            # per DISTINCT group value, not per row
            d = groups_arr.dictionary_encode()
            codes = (
                d.indices.fill_null(0)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            thr_by_code = np.array(
                [thr.get(g, dthr) for g in d.dictionary.to_pylist()]
                or [0],
                np.uint64,
            )
            valid = np.asarray(groups_arr.is_valid())
            surv = np.zeros(len(h), bool)
            surv[valid] = (h % np.uint64(10000))[valid] < thr_by_code[
                codes[valid]
            ]
            mask = pa.array(surv)
        else:
            ids = batch[id_col].to_pylist()
            groups = groups_arr.to_pylist()
            sp = f"{salt}:".encode()
            md5 = _h.md5
            mask = pa.array(
                [
                    g is not None
                    and int.from_bytes(
                        md5(sp + f"{g}:{v}".encode()).digest()[:4], "big"
                    )
                    % 10000
                    < thr.get(g, dthr)
                    for g, v in zip(groups, ids)
                ]
            )
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


def documents_sample_by_lang(sf_dir: str) -> ray.data.Dataset:
    """Rebalance: keep 10% of English docs, 50% of everything else."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    return stratified_sample(
        ds, id_col="doc_id", group_col="lang",
        fractions={"en": 0.1}, default_fraction=0.5, method="md5",
    )


def documents_sample_by_lang_fast(sf_dir: str) -> ray.data.Dataset:
    """Production stratified sampling (vectorized engine hash);
    fixture-oracled — the hash is not SQL-expressible."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    return stratified_sample(
        ds, id_col="doc_id", group_col="lang",
        fractions={"en": 0.1}, default_fraction=0.5,
    )


DOCUMENTS_SAMPLE_BY_LANG_SQL = """
SELECT doc_id, lang, n_chars FROM documents
WHERE CAST(('0x' || substr(md5('s42:' || lang || ':' || CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
      % 10000 < CASE WHEN lang = 'en' THEN 1000 ELSE 5000 END
ORDER BY doc_id
"""


USER_DAY_VALUE_THRESHOLD = 150.0


def user_day_activity(sf_dir: str) -> ray.data.Dataset:
    """Per-(user, day) TOTAL event activity ⋈ per-(user, day) HIGH-VALUE
    activity (``value >= 150``) — "how active was the user on the days
    they produced a high-value event".  The self-join of the two
    aggregations is really one aggregation with a conditional sum —
    ``n_high = SUM(value_cents >= threshold)`` — and the inner-join
    semantics are the post-filter ``n_high > 0``: one coarse-bucket
    exchange (``stages.agg.bucket_groupby_agg``) instead of two
    aggregations and a composite-key join (``USER_DAY_ACTIVITY_SQL``
    spells out the join form).  This is the plan an optimizer should pick
    whenever both join inputs are aggregations of the same relation on
    the same keys."""
    from ..stages.agg import bucket_groupby_agg

    events = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])
    hi_cents = int(round(USER_DAY_VALUE_THRESHOLD * 100))

    def eprep(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["value"])
        return pa.table(
            {
                "user_id": batch["user_id"],
                "day": pc.strftime(batch["ts"], format="%Y-%m-%d"),
                "value_cents": cents,
                "is_high": pc.cast(
                    pc.greater_equal(cents, hi_cents), pa.int64()
                ),
            }
        )

    out = bucket_groupby_agg(
        events.map_batches(eprep, batch_format="pyarrow"),
        ["user_id", "day"],
        [
            (None, "count", "n_events"),
            ("value_cents", "sum", "value_cents"),
            ("is_high", "sum", "n_high"),
        ],
    )
    return out.filter(expr="n_high > 0")


USER_DAY_ACTIVITY_SQL = """
WITH e AS (
  SELECT user_id, strftime(ts, '%Y-%m-%d') AS day,
         CAST(count(*) AS BIGINT) AS n_events,
         CAST(sum(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) AS BIGINT)
           AS value_cents
  FROM events GROUP BY 1, 2
),
h AS (
  SELECT user_id, strftime(ts, '%Y-%m-%d') AS day,
         CAST(count(*) AS BIGINT) AS n_high
  FROM events
  WHERE CAST(FLOOR(value*100 + 0.5) AS BIGINT) >= 15000
  GROUP BY 1, 2
)
SELECT e.user_id, e.day, e.n_events, e.value_cents, h.n_high
FROM e JOIN h ON h.user_id = e.user_id AND h.day = e.day
ORDER BY 1, 2
"""


def quality_filter_by_lang(sf_dir: str) -> ray.data.Dataset:
    """Per-language median-length filter — the canonical two-pass
    threshold pattern of corpus curation ("keep documents at or above
    their language's P50"): (1) EXACT per-group quantile via the
    histogram plan (``stages.agg.group_quantile_disc`` — one exchange of
    per-(lang, length) counts, volume independent of row count); (2) the
    per-language threshold table (one row per language, bounded) becomes
    a closure constant and the corpus streams through one vectorized
    filter map.  No full-table sort, no per-row Python."""
    from ..stages.agg import group_quantile_disc

    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    th_rows = group_quantile_disc(
        ds.select_columns(["lang", "n_chars"]),
        ["lang"],
        "n_chars",
        0.5,
        out_col="th",
    ).take_all()  # bounded: one row per language
    langs = pa.array([r["lang"] for r in th_rows], pa.string())
    ths = np.array([r["th"] for r in th_rows], np.int64)

    def filt(batch: pa.Table) -> pa.Table:
        pos = pc.index_in(batch["lang"], value_set=langs).to_numpy(
            zero_copy_only=False
        )
        keep = batch["n_chars"].to_numpy(zero_copy_only=False) >= ths[pos]
        return batch.filter(pa.array(keep))

    return ds.map_batches(filt, batch_format="pyarrow")


QUALITY_FILTER_BY_LANG_SQL = """
WITH th AS (
  SELECT lang, quantile_disc(n_chars, 0.5) AS t FROM documents GROUP BY 1
)
SELECT d.doc_id, d.lang, d.n_chars
FROM documents d JOIN th USING (lang)
WHERE d.n_chars >= th.t
ORDER BY 1
"""


def user_event_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-user event profile exercising every kernel of the coarse-bucket
    aggregate (``stages.agg.bucket_groupby_agg``): count, integer sum,
    min/max (int AND string), and exact mean (int64 sum ÷ int64 count, one
    deterministic float64 division per group — bit-identical to DuckDB's
    ``avg`` over BIGINT at these magnitudes, where double addition of
    integers is exact).  One C++ partial pass, one 64-bucket exchange of
    partial rows, C++ finalize — no per-key Python anywhere."""
    from ..stages.agg import bucket_groupby_agg

    ds = read_table(sf_dir, "events", columns=["user_id", "value", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "value_cents": _cents(batch["value"]),
                "event_type": batch["event_type"],
            }
        )

    out = bucket_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        [
            (None, "count", "n_events"),
            ("value_cents", "sum", "sum_cents"),
            ("value_cents", "min", "min_cents"),
            ("value_cents", "max", "max_cents"),
            ("value_cents", "mean", "avg_cents"),
            ("event_type", "min", "first_type"),
            ("event_type", "max", "last_type"),
        ],
    )
    return out.sort("user_id")


USER_EVENT_STATS_SQL = """
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(cents) AS BIGINT) AS sum_cents,
       CAST(min(cents) AS BIGINT) AS min_cents,
       CAST(max(cents) AS BIGINT) AS max_cents,
       avg(cents) AS avg_cents,
       min(event_type) AS first_type,
       max(event_type) AS last_type
FROM (
  SELECT user_id, event_type,
         CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS cents
  FROM events
)
GROUP BY 1 ORDER BY 1
"""


def lineitems_urgent_bloom(sf_dir: str) -> ray.data.Dataset:
    """Bloom-prefiltered EXACT semi-join: lineitems of 1-URGENT orders.

    The scale story: the urgent-order key set is built into a fixed 1 MiB
    Bloom bitmap in one pass (tree-merged per-block partials), broadcast
    once, and the lineitem scan filters itself — only true matches plus
    <1% false positives enter the verify exchange, instead of the whole
    lineitem table.  The verify ``left_semi`` join restores exactness, so
    the SQL oracle is a plain IN-subquery."""
    from ..stages.bloom import bloom_semi_join

    def urgent(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(batch["o_orderpriority"], "1-URGENT")
        ).select(["o_orderkey"])

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(urgent, batch_format="pyarrow")
    items = read_table(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_linenumber": batch["l_linenumber"],
                "price_cents": _cents(batch["l_extendedprice"]),
            }
        )

    return bloom_semi_join(
        items.map_batches(prep, batch_format="pyarrow"),
        orders,
        left_on="l_orderkey",
        right_on="o_orderkey",
    )


LINEITEMS_URGENT_BLOOM_SQL = """
SELECT l_orderkey, l_linenumber,
       CAST(FLOOR(l_extendedprice*100 + 0.5) AS BIGINT) AS price_cents
FROM lineitem
WHERE l_orderkey IN (
  SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT'
)
ORDER BY 1, 2
"""


def parquet_column_max(sf_dir: str, table: str, col: str) -> int:
    """Column max straight from the parquet footer's row-group statistics —
    zero data read, no Ray execution.  The metadata-only replacement for
    ``ds.max(col)`` when the input is a parquet table (falls back with a
    loud error if any row group lacks stats)."""
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, f"{table}.parquet")
    md = pq.read_metadata(path)
    idx = md.schema.names.index(col)
    best = None
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            raise ValueError(
                f"{path} row group {rg} has no statistics for {col!r}"
            )
        best = st.max if best is None else max(best, st.max)
    if best is None:
        raise ValueError(f"{path} has no row groups")
    return int(best)


def sample_k_per_group(
    ds: ray.data.Dataset,
    *,
    group_col: str,
    id_col: str,
    k: int,
    salt: str = "k42",
    method: str = "md5",
) -> ray.data.Dataset:
    """EXACTLY k rows per group, deterministically — the balanced-eval-set
    primitive ("3 held-out docs per language").  Each row's hash priority
    makes the winners a pure function of ids: re-runs, resumes, and any
    parallelism pick the same rows.  Reuses ``windows.grouped_topk`` —
    per-block local top-k, so the exchange carries ≤ k rows per group per
    block.

    ``method="md5"`` (default, SQL-replicable like the samplers) keeps
    the oracle expressible; ``method="fast"`` is the vectorized engine
    hash for 10^12-row production runs (no per-row Python)."""
    import hashlib as _h

    from ..hashing import hash64_array, mix64
    from ..stages.windows import grouped_topk

    if method not in ("fast", "md5"):
        raise ValueError(f"unknown sample method {method!r}")
    sp = f"{salt}:".encode()
    salt_h = _salt_hash(salt)

    def prio(batch: pa.Table) -> pa.Table:
        if method == "fast":
            h = (mix64(hash64_array(batch[id_col]) ^ salt_h)
                 >> np.uint64(1)).astype(np.int64)
        else:
            md5 = _h.md5
            h = np.fromiter(
                (
                    int.from_bytes(md5(sp + str(v).encode()).digest()[:4], "big")
                    for v in batch[id_col].to_pylist()
                ),
                np.int64,
                count=batch.num_rows,
            )
        return batch.append_column("__prio", pa.array(h, pa.int64()))

    return grouped_topk(
        ds.map_batches(prio, batch_format="pyarrow"),
        group_col=group_col,
        value_col="__prio",
        id_col=id_col,
        k=k,
    )


def documents_k_per_lang(sf_dir: str, k: int = 3) -> ray.data.Dataset:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])
    out = sample_k_per_group(ds, group_col="lang", id_col="doc_id", k=k)
    return out.select_columns(["lang", "doc_id", "rank"])


DOCUMENTS_K_PER_LANG_SQL = """
SELECT lang, doc_id, rnk AS "rank"
FROM (
  SELECT lang, doc_id,
         CAST(row_number() OVER (
           PARTITION BY lang
           ORDER BY CAST(('0x' || substr(md5('k42:' || CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) DESC,
                    doc_id
         ) AS INT) AS rnk
  FROM documents
)
WHERE rnk <= 3
ORDER BY lang, rnk
"""


def events_props_stats(sf_dir: str) -> ray.data.Dataset:
    """Semi-structured payload extraction: pull the integer ``k`` field
    out of the JSON ``props`` column with ONE vectorized RE2 kernel
    (``pc.extract_regex`` — no per-row json.loads on the hot path; the
    regex approach is exact for flat non-escaped fields and mirrors the
    SQL oracle's ``regexp_extract`` byte-for-byte), then aggregate per
    event type through the C++ bucket plan."""
    from ..stages.agg import bucket_groupby_agg

    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        props = batch["props"]
        if isinstance(props, pa.ChunkedArray):
            props = props.combine_chunks()
        m = pc.extract_regex(props, pattern=r'"k":\s*(?P<v>-?\d+)')
        k = pc.cast(pc.struct_field(m, "v"), pa.int64())
        return pa.table({"event_type": batch["event_type"], "k": k})

    return bucket_groupby_agg(
        ds.map_batches(extract, batch_format="pyarrow"),
        ["event_type"],
        [
            (None, "count", "n"),
            ("k", "sum", "sum_k"),
            ("k", "min", "min_k"),
            ("k", "max", "max_k"),
        ],
    )


EVENTS_PROPS_STATS_SQL = """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(k) AS BIGINT) AS sum_k,
       CAST(min(k) AS BIGINT) AS min_k,
       CAST(max(k) AS BIGINT) AS max_k
FROM (
  SELECT event_type,
         CAST(regexp_extract(props, '"k":\\s*(-?\\d+)', 1) AS BIGINT) AS k
  FROM events
)
GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# round 4: RFM, market-basket co-occurrence, anomaly flags, char-distribution
# quality stats, PMI collocations — all integer-exact (see module docstring)
# ---------------------------------------------------------------------------


def user_rfm(sf_dir: str) -> ray.data.Dataset:
    """RFM segmentation: per-user Recency (days since the user's last event
    relative to the corpus max timestamp), Frequency (event count), Monetary
    (integer-cent value sum).

    Scale: one map-combined per-user aggregate (the exchange carries one
    partial row per user per block); the global anchor is a scalar
    map-combined ``max`` over a single pruned column — no corpus
    materialization, no sort."""
    from ..stages.agg import bucket_groupby_agg

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts": batch["ts"],
                "cents": _cents(batch["value"]),
            }
        )

    # the anchor max(ts) is derivable from the reduced per-user aggregate
    # (global max == max of per-user maxima) — materialize the user-bounded
    # result once instead of re-scanning the corpus for one scalar
    per_user = bucket_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        [
            ("ts", "max", "last_ts"),
            (None, "count", "frequency"),
            ("cents", "sum", "monetary_cents"),
        ],
    ).materialize()
    anchor = per_user.max("last_ts")
    anchor_us = int(pa.scalar(anchor).cast(pa.timestamp("us")).value)

    def finish(batch: pa.Table) -> pa.Table:
        last_us = (
            batch["last_ts"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        rec = (anchor_us - last_us) // 86_400_000_000
        return pa.table(
            {
                "user_id": batch["user_id"].cast(pa.int64()),
                "recency_days": pa.array(rec, pa.int64()),
                "frequency": batch["frequency"],
                "monetary_cents": batch["monetary_cents"],
            }
        )

    return per_user.map_batches(finish, batch_format="pyarrow")


USER_RFM_SQL = """
WITH u AS (
  SELECT user_id, max(ts) AS last_ts, count(*) AS frequency,
         sum(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) AS monetary_cents
  FROM events GROUP BY 1
), g AS (SELECT max(ts) AS gmax FROM events)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(date_diff('microsecond', last_ts, gmax) // 86400000000 AS BIGINT)
         AS recency_days,
       CAST(frequency AS BIGINT) AS frequency,
       CAST(monetary_cents AS BIGINT) AS monetary_cents
FROM u CROSS JOIN g ORDER BY user_id
"""


def basket_pair_counts(sf_dir: str, n_buckets: int = 64) -> ray.data.Dataset:
    """Distinct-per-order part pair counts ``(p1 < p2, n_orders)`` — the
    co-occurrence EDGE LIST shared by :func:`basket_pairs` (top-k mining)
    and :func:`part_cooccur_triangles` (graph density).

    Scale: pair expansion within an order is bounded by basket size m
    (m(m-1)/2, TPC-H m ≤ 7), so work is linear in lineitems.  ONE keyed
    exchange co-locates each order's items (hash bucket of orderkey, bounded
    group count); the per-bucket walk is fully vectorized (lexsort →
    adjacent-compare distinct → segmented-arange pair indices → C++ group
    count), and the second exchange carries partial (p1, p2, n) counts —
    never raw pairs."""
    from ..hashing import splitmix_bucket

    ds = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(splitmix_bucket(ok, n_buckets), pa.int64())
        )

    empty = pa.table(
        {
            "p1": pa.array([], pa.int64()),
            "p2": pa.array([], pa.int64()),
            "n_orders": pa.array([], pa.int64()),
        }
    )

    def expand(group: pa.Table) -> pa.Table:
        ok = group["l_orderkey"].to_numpy(zero_copy_only=False)
        pk = group["l_partkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pk, ok))
        ok, pk = ok[order], pk[order]
        # distinct (order, part): a part counted once per order
        keep = np.r_[True, (ok[1:] != ok[:-1]) | (pk[1:] != pk[:-1])]
        ok, pk = ok[keep], pk[keep]
        if len(ok) < 2:
            return empty
        starts = np.flatnonzero(np.r_[True, ok[1:] != ok[:-1]])
        lens = np.diff(np.append(starts, len(ok)))
        local = np.arange(len(ok)) - np.repeat(starts, lens)
        reps = np.repeat(lens, lens) - 1 - local  # right-partners per item
        total = int(reps.sum())
        if total == 0:
            return empty
        left = np.repeat(np.arange(len(ok)), reps)
        seg_off = np.repeat(np.cumsum(reps) - reps, reps)
        right = left + 1 + (np.arange(total) - seg_off)
        t = (
            pa.table(
                {
                    "p1": pa.array(pk[left], pa.int64()),
                    "p2": pa.array(pk[right], pa.int64()),
                }
            )
            .group_by(["p1", "p2"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"p1": t["p1"], "p2": t["p2"], "n_orders": t["count_all"].cast(pa.int64())}
        )

    from ..stages.agg import bucket_groupby_agg

    return bucket_groupby_agg(
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(expand, batch_format="pyarrow"),
        ["p1", "p2"],
        [("n_orders", "sum", "n_orders")],
        n_buckets=n_buckets,
    )


def basket_pairs(sf_dir: str, k: int = 20, n_buckets: int = 64) -> ray.data.Dataset:
    """Market-basket co-occurrence: top-k part pairs that appear together in
    the most orders (count desc, then (p1, p2) asc) — the top-k finish over
    :func:`basket_pair_counts`."""
    counts = basket_pair_counts(sf_dir, n_buckets=n_buckets)

    def local_topk(batch: pa.Table) -> pa.Table:
        # pair counts are global after the bucket aggregate (a pair lives in
        # exactly one bucket), so the global top-k is a subset of per-block
        # top-ks under the (n desc, p1, p2) total order — the final sort
        # sees blocks×k rows, never the ~unique-pair-count row universe
        if batch.num_rows <= k:
            return batch
        order = np.lexsort(
            (
                batch["p2"].to_numpy(zero_copy_only=False),
                batch["p1"].to_numpy(zero_copy_only=False),
                -batch["n_orders"].to_numpy(zero_copy_only=False),
            )
        )[:k]
        return batch.take(pa.array(order))

    return (
        counts.map_batches(local_topk, batch_format="pyarrow")
        .sort(["n_orders", "p1", "p2"], descending=[True, False, False])
        .limit(k)
    )


def basket_rules(sf_dir: str, k: int = 10, n_buckets: int = 64):
    """Association rules over the top-k co-occurring part pairs — the
    support / confidence / lift finish on :func:`basket_pair_counts`
    (market-basket mining's reporting layer).  Each top pair (a, b)
    emits BOTH directed rules a→b and b→a:

        support_ppm    = ⌊n_pair / n_baskets · 1e6 + ½⌋
        confidence_ppm = ⌊n_pair / n_antecedent · 1e6 + ½⌋
        lift_ppm       = ⌊n_pair·n_baskets / (n_ant·n_cons) · 1e6 + ½⌋

    — each ONE pinned float chain over exact integers (lift > 1 means
    genuinely associated; ppm keeps it int64).  Per-item basket counts
    are collected ONLY for the ≤2k parts appearing in the winning
    pairs (an ``is_in`` filter ahead of the count exchange), so the
    driver state is O(k) by construction — a 10⁹-item catalog costs
    nothing here.  The basket total is a distributed distinct count;
    only the k winning pairs reach the driver.  Returns a pa.Table of
    2·k rule rows sorted by (n_pair desc, antecedent, consequent)."""
    from ..stages.agg import bucket_groupby_sum

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    # distinct (order, part) — shared base for pair AND item counts
    lp = bucket_groupby_sum(
        li,
        keys=["l_orderkey", "l_partkey"],
        sum_cols=[],
        count_col="_c",
        n_buckets=n_buckets,
    )
    n_baskets = bucket_groupby_sum(
        li.select_columns(["l_orderkey"]),
        keys=["l_orderkey"],
        sum_cols=[],
        count_col="_c",
        n_buckets=n_buckets,
    ).count()
    top = basket_pairs(sf_dir, k=k, n_buckets=n_buckets).take_all()
    need = pa.array(
        sorted(
            {int(r["p1"]) for r in top} | {int(r["p2"]) for r in top}
        ),
        pa.int64(),
    )

    def keep_needed(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch["l_partkey"], value_set=need))

    item_rows = bucket_groupby_sum(
        lp.select_columns(["l_partkey"]).map_batches(
            keep_needed, batch_format="pyarrow"
        ),
        keys=["l_partkey"],
        sum_cols=[],
        count_col="ni",
        n_buckets=n_buckets,
    ).take_all()  # ≤ 2·k rows by construction
    ni = {int(r["l_partkey"]): int(r["ni"]) for r in item_rows}

    def ppm(num: int, den: int) -> int:
        return int(np.floor(float(num) / float(den) * 10**6 + 0.5))

    rows = []
    for r in top:
        p1, p2, np_ = int(r["p1"]), int(r["p2"]), int(r["n_orders"])
        for ant, cons in ((p1, p2), (p2, p1)):
            rows.append(
                {
                    "antecedent": ant,
                    "consequent": cons,
                    "n_pair": np_,
                    "n_ant": ni[ant],
                    "support_ppm": ppm(np_, n_baskets),
                    "confidence_ppm": ppm(np_, ni[ant]),
                    "lift_ppm": ppm(np_ * n_baskets, ni[ant] * ni[cons]),
                }
            )
    rows.sort(key=lambda r: (-r["n_pair"], r["antecedent"], r["consequent"]))
    return pa.table(
        {
            c: pa.array([r[c] for r in rows], pa.int64())
            for c in (
                "antecedent", "consequent", "n_pair", "n_ant",
                "support_ppm", "confidence_ppm", "lift_ppm",
            )
        }
    )


BASKET_RULES_SQL = """
WITH lp AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
n AS (SELECT CAST(COUNT(DISTINCT l_orderkey) AS HUGEINT) AS nb FROM lineitem),
item AS (SELECT l_partkey, CAST(COUNT(*) AS HUGEINT) AS ni FROM lp GROUP BY 1),
pairs AS (
  SELECT a.l_partkey AS p1, b.l_partkey AS p2, CAST(COUNT(*) AS HUGEINT) AS np
  FROM lp a JOIN lp b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
),
topk AS (SELECT * FROM pairs ORDER BY np DESC, p1, p2 LIMIT 10),
rules AS (
  SELECT p1 AS antecedent, p2 AS consequent, np, i1.ni AS n_ant,
         i2.ni AS n_cons, nb
  FROM topk JOIN item i1 ON i1.l_partkey = topk.p1
            JOIN item i2 ON i2.l_partkey = topk.p2 CROSS JOIN n
  UNION ALL
  SELECT p2, p1, np, i2.ni, i1.ni, nb
  FROM topk JOIN item i1 ON i1.l_partkey = topk.p1
            JOIN item i2 ON i2.l_partkey = topk.p2 CROSS JOIN n
)
SELECT CAST(antecedent AS BIGINT) AS antecedent,
       CAST(consequent AS BIGINT) AS consequent,
       CAST(np AS BIGINT) AS n_pair,
       CAST(n_ant AS BIGINT) AS n_ant,
       CAST(FLOOR(CAST(np AS DOUBLE) / CAST(nb AS DOUBLE)
                  * 1000000 + 0.5) AS BIGINT) AS support_ppm,
       CAST(FLOOR(CAST(np AS DOUBLE) / CAST(n_ant AS DOUBLE)
                  * 1000000 + 0.5) AS BIGINT) AS confidence_ppm,
       CAST(FLOOR(CAST(np * nb AS DOUBLE) / CAST(n_ant * n_cons AS DOUBLE)
                  * 1000000 + 0.5) AS BIGINT) AS lift_ppm
FROM rules
"""


BASKET_PAIRS_SQL = """
WITH lp AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
SELECT CAST(a.l_partkey AS BIGINT) AS p1, CAST(b.l_partkey AS BIGINT) AS p2,
       CAST(count(*) AS BIGINT) AS n_orders
FROM lp a JOIN lp b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
GROUP BY 1, 2 ORDER BY n_orders DESC, p1, p2 LIMIT 20
"""


def events_anomaly(sf_dir: str) -> ray.data.Dataset:
    """Daily-volume anomaly flags per event type: days whose count deviates
    from the type's mean by more than 2 population standard deviations.

    Integer-exact z-test: with D days, S = Σn, Q = Σn² per type,
    ``z² > 4  ⟺  (n·D − S)² > 4·(Q·D − S²)`` — pure int64 arithmetic, no
    float sqrt/div under the driver's hash gate.  The emitted
    ``zsq_num``/``zsq_den`` columns carry the exact test statistics.

    Scale: the corpus reduces map-side to one row per (type, day); the
    per-type flag walk then runs over that tiny table."""
    from ..stages.agg import bucket_groupby_agg

    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "day": pc.strftime(batch["ts"], format="%Y-%m-%d"),
            }
        )

    daily = bucket_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "day"],
        [(None, "count", "n")],
    )

    def flag(group: pa.Table) -> pa.Table:
        n = group["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = np.int64(len(n))
        s = n.sum()
        q = (n * n).sum()
        num = (n * d - s) ** 2
        den = np.full(len(n), q * d - s * s, np.int64)
        keep = num > 4 * den
        mask = pa.array(keep)
        return pa.table(
            {
                "event_type": group["event_type"].filter(mask),
                "day": group["day"].filter(mask),
                "n": pa.array(n[keep], pa.int64()),
                "zsq_num": pa.array(num[keep], pa.int64()),
                "zsq_den": pa.array(den[keep], pa.int64()),
            }
        )

    return daily.groupby("event_type").map_groups(flag, batch_format="pyarrow")


EVENTS_ANOMALY_SQL = """
WITH daily AS (
  SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), stats AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS d,
         CAST(sum(n) AS BIGINT) AS s, CAST(sum(n*n) AS BIGINT) AS q
  FROM daily GROUP BY 1
)
SELECT daily.event_type, daily.day, daily.n,
       CAST((daily.n*stats.d - stats.s)*(daily.n*stats.d - stats.s) AS BIGINT)
         AS zsq_num,
       CAST(stats.q*stats.d - stats.s*stats.s AS BIGINT) AS zsq_den
FROM daily JOIN stats USING (event_type)
WHERE (daily.n*stats.d - stats.s)*(daily.n*stats.d - stats.s)
      > 4*(stats.q*stats.d - stats.s*stats.s)
ORDER BY 1, 2
"""


def doc_char_stats(sf_dir: str) -> ray.data.Dataset:
    """Character-distribution quality stats per document: length, distinct
    character count, and the Herfindahl concentration index of the char
    distribution in ppm (``Σc² · 10⁶ // L²`` — high = few characters
    dominate, a gibberish/boilerplate signal).  Integer-exact.

    Zero-shuffle: one vectorized map over the corpus.  The kernel is a
    single ``np.bincount`` over (row_index·256 + byte) on the raw Arrow
    value buffer — no per-row Python, no string materialization.  Byte ==
    character for the ASCII benchmark corpus (the SQL oracle splits
    characters); non-ASCII corpora would swap in the codepoint kernel."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        txt = batch["text"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        arr = txt.cast(pa.large_binary())
        n = len(arr)
        off = np.frombuffer(arr.buffers()[1], np.int64)[
            arr.offset : arr.offset + n + 1
        ]
        lens = np.diff(off).astype(np.int64)
        if int(off[-1] - off[0]):
            data = np.frombuffer(arr.buffers()[2], np.uint8)[off[0] : off[-1]]
            doc_of_byte = np.repeat(np.arange(n, dtype=np.int64), lens)
            cnt = np.bincount(
                doc_of_byte * 256 + data, minlength=n * 256
            ).reshape(n, 256)
        else:
            cnt = np.zeros((n, 256), np.int64)
        distinct = (cnt > 0).sum(axis=1).astype(np.int64)
        sumsq = (cnt * cnt).sum(axis=1)
        hhi = np.where(lens > 0, (sumsq * 1_000_000) // np.maximum(lens * lens, 1), 0)
        # int64 headroom: sumsq·10⁶ wraps silently past ~3.04M chars (where
        # the BIGINT oracle would error instead) — recompute the rare long
        # documents with exact Python ints (result ≤ 10⁶ always fits)
        big = np.flatnonzero(lens > 3_000_000)
        for i in big:
            hhi[i] = int(sumsq[i]) * 1_000_000 // (int(lens[i]) * int(lens[i]))
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "n_chars_ascii": pa.array(lens, pa.int64()),
                "distinct_chars": pa.array(distinct, pa.int64()),
                "hhi_ppm": pa.array(hhi.astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


DOC_CHAR_STATS_SQL = """
WITH f AS (
  SELECT d.doc_id, substring(d.text, t.i, 1) AS c, count(*) AS cnt
  FROM documents d, unnest(generate_series(1, length(d.text))) AS t(i)
  GROUP BY 1, 2
), agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS distinct_chars,
         CAST(sum(cnt*cnt) AS BIGINT) AS sumsq
  FROM f GROUP BY 1
)
SELECT d.doc_id,
       CAST(length(d.text) AS BIGINT) AS n_chars_ascii,
       CAST(coalesce(agg.distinct_chars, 0) AS BIGINT) AS distinct_chars,
       CAST(CASE WHEN length(d.text) > 0
                 THEN (CAST(coalesce(agg.sumsq, 0) AS HUGEINT) * 1000000)
                      // (CAST(length(d.text) AS HUGEINT)*length(d.text))
                 ELSE 0 END AS BIGINT) AS hhi_ppm
FROM documents d LEFT JOIN agg USING (doc_id)
ORDER BY d.doc_id
"""


def pmi_bigrams(
    sf_dir: str, k: int = 50, min_count: int = 5, scale: int = 1000
) -> ray.data.Dataset:
    """Collocation mining: top-k bigrams by PMI *lift* — the scaled ratio
    ``p(xy) / (p(x)·p(y))`` (monotone in PMI; the log is omitted so the
    score stays integer-exact under the driver hash gate).  The staged
    floor divisions ``((c12·T1)//c1 · T1)//c2 · scale//T2`` are replicated
    verbatim in the SQL oracle, so both sides lose precision identically.
    Exact up to ~2·10⁸ corpus tokens in int64 (guarded loudly — beyond
    that the staging needs 128-bit intermediates on both sides).

    Scale: unigram and bigram counts reduce map-side (vocab-bounded
    aggregates, the same shape as token_vocab/bigram_counts); candidates
    are filtered to ``c12 ≥ min_count`` BEFORE the two planner equi-joins,
    so the join input is the collocation shortlist, not the corpus.  The
    two totals are map-combined sums over the materialized (vocab-sized)
    aggregates."""
    from ..cluster import equi_join

    ds = read_table(sf_dir, "documents", columns=["text"])

    def gram_partial(batch: pa.Table) -> pa.Table:
        """ONE tokenize per batch feeding BOTH count families: unigrams ride
        as kind=0 rows (key = token), bigrams as kind=1 (key = "l r")."""
        from .curation import tokens_flat

        flat, parent = tokens_flat(batch["text"])
        keys = [flat]
        kinds = [np.zeros(len(flat), np.int8)]
        if len(parent) >= 2:
            adj = np.flatnonzero(parent[1:] == parent[:-1])
            if len(adj):
                lt = flat.take(pa.array(adj))
                rt = flat.take(pa.array(adj + 1))
                keys.append(pc.binary_join_element_wise(lt, rt, " "))
                kinds.append(np.ones(len(adj), np.int8))
        g = (
            pa.table(
                {
                    "kind": pa.array(np.concatenate(kinds), pa.int8()),
                    "key": pa.concat_arrays(
                        [k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k for k in keys]
                    ),
                }
            )
            .group_by(["kind", "key"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "kind": g["kind"],
                "key": g["key"],
                "c": g["count_all"].cast(pa.int64()),
            }
        )

    counts = (
        ds.map_batches(gram_partial, batch_format="pyarrow")
        .groupby(["kind", "key"])
        .aggregate(Sum("c"))
        .rename_columns({"sum(c)": "c"})
        .materialize()  # (vocab + bigram-vocab)-bounded
    )
    uni = (
        counts.filter(expr="kind == 0")
        .rename_columns({"key": "token", "c": "c1"})
        .select_columns(["token", "c1"])
        .materialize()  # the actual (vocab-bounded) broadcast side
    )
    big_all = counts.filter(expr="kind == 1")
    t1 = int(uni.sum("c1"))
    t2 = int(big_all.sum("c"))
    # int64 headroom for the staged arithmetic below: the worst
    # intermediate is s2·scale ≤ (T1²/min_count)·scale, which wraps
    # silently past T1 ≈ 2.1e8 (the BIGINT oracle would error instead) —
    # fail loudly; corpora beyond this need the 128-bit staging (HUGEINT
    # in SQL, object-int batches here), not silent wraparound.
    if t1 > 200_000_000:
        raise ValueError(
            f"pmi_bigrams int64 staging is exact only to 2e8 corpus tokens "
            f"(got {t1}); use a 128-bit staging for larger corpora"
        )

    def split_bigram(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch["key"], " ", max_splits=1)
        flat = pc.list_flatten(parts)
        return pa.table(
            {
                "bigram": batch["key"],
                "left": flat.take(
                    pa.array(np.arange(0, 2 * batch.num_rows, 2), pa.int64())
                ),
                "right": flat.take(
                    pa.array(np.arange(1, 2 * batch.num_rows, 2), pa.int64())
                ),
                "c12": batch["c"],
            }
        )

    cand = big_all.filter(expr=f"c >= {int(min_count)}").map_batches(
        split_bigram, batch_format="pyarrow"
    )
    # the unigram side is vocab-bounded: the planner broadcasts it when it
    # fits the plasma cap and exchanges it by key otherwise
    j1 = equi_join(
        cand,
        uni.rename_columns({"token": "left", "c1": "c1_left"}),
        on="left",
    )
    j2 = equi_join(
        j1,
        uni.rename_columns({"token": "right", "c1": "c1_right"}),
        on="right",
    )

    def score(batch: pa.Table) -> pa.Table:
        c12 = batch["c12"].to_numpy(zero_copy_only=False).astype(np.int64)
        c1 = batch["c1_left"].to_numpy(zero_copy_only=False).astype(np.int64)
        c2 = batch["c1_right"].to_numpy(zero_copy_only=False).astype(np.int64)
        s1 = (c12 * t1) // c1
        s2 = (s1 * t1) // c2
        lift = (s2 * scale) // t2
        return pa.table(
            {
                "bigram": batch["bigram"],
                "c12": pa.array(c12, pa.int64()),
                "lift_milli": pa.array(lift, pa.int64()),
            }
        )

    return (
        j2.map_batches(score, batch_format="pyarrow")
        .sort(["lift_milli", "bigram"], descending=[True, False])
        .limit(k)
    )


PMI_BIGRAMS_SQL = """
WITH l AS (
  SELECT list_filter(string_split_regex(lower(text), '\\s+'),
                     x -> x <> '') AS toks
  FROM documents
), u AS (SELECT unnest(toks) AS token FROM l),
uc AS (SELECT token, CAST(count(*) AS BIGINT) AS c1 FROM u GROUP BY 1),
t1 AS (SELECT CAST(sum(c1) AS BIGINT) AS t1 FROM uc),
b AS (
  SELECT unnest(list_transform(generate_series(1, len(toks)-1),
                               i -> toks[i] || ' ' || toks[i+1])) AS bigram
  FROM l
), bc AS (SELECT bigram, CAST(count(*) AS BIGINT) AS c12 FROM b GROUP BY 1),
t2 AS (SELECT CAST(sum(c12) AS BIGINT) AS t2 FROM bc),
f AS (SELECT * FROM bc WHERE c12 >= 5)
SELECT f.bigram, f.c12,
       CAST(((((f.c12 * t1.t1) // u1.c1) * t1.t1 // u2.c1) * 1000) // t2.t2
            AS BIGINT) AS lift_milli
FROM f
JOIN uc u1 ON u1.token = split_part(f.bigram, ' ', 1)
JOIN uc u2 ON u2.token = split_part(f.bigram, ' ', 2)
CROSS JOIN t1 CROSS JOIN t2
ORDER BY lift_milli DESC, bigram LIMIT 50
"""


def train_val_test_split(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    salt: str = "split42",
    train_pct: int = 80,
    val_pct: int = 10,
    method: str = "fast",
) -> ray.data.Dataset:
    """Deterministic train/val/test assignment — the split every training
    corpus needs, with the properties random splits lack: reproducible at
    any parallelism, resumable, and stable under corpus growth (a document's
    split never changes when other documents are added, because it depends
    only on (salt, id)).

    ``bucket = hash(salt:id) % 100``; ``< train_pct`` → train,
    ``< train_pct+val_pct`` → val, else test.  ``method="fast"`` uses the
    engine's vectorized 64-bit hash (production, zero per-row Python);
    ``method="md5"`` is the SQL-parity rule DuckDB replicates exactly.
    Zero-shuffle: one map over the corpus."""
    import hashlib as _h

    from ..hashing import hash64_array, mix64

    if method not in ("fast", "md5"):
        raise ValueError(f"unknown split method {method!r}")
    cut1, cut2 = int(train_pct), int(train_pct) + int(val_pct)
    salt_h = _salt_hash(salt)

    def assign(batch: pa.Table) -> pa.Table:
        if method == "fast":
            b = (mix64(hash64_array(batch[id_col]) ^ salt_h) % np.uint64(100)).astype(
                np.int64
            )
        else:
            sp = f"{salt}:".encode()
            md5 = _h.md5
            b = np.array(
                [
                    int.from_bytes(md5(sp + str(v).encode()).digest()[:4], "big")
                    % 100
                    for v in batch[id_col].to_pylist()
                ],
                np.int64,
            )
        split = np.where(b < cut1, "train", np.where(b < cut2, "val", "test"))
        return pa.table(
            {
                id_col: batch[id_col].cast(pa.int64()),
                "split": pa.array(split, pa.string()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def documents_split(sf_dir: str) -> ray.data.Dataset:
    """Driver query: the md5 SQL-parity split over the documents table."""
    ds = read_table(sf_dir, "documents", columns=["doc_id"])
    return train_val_test_split(ds, method="md5")


DOCUMENTS_SPLIT_SQL = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
  CASE WHEN CAST(('0x' || substr(md5('split42:' || CAST(doc_id AS VARCHAR)),
                  1, 8)) AS UBIGINT) % 100 < 80 THEN 'train'
       WHEN CAST(('0x' || substr(md5('split42:' || CAST(doc_id AS VARCHAR)),
                  1, 8)) AS UBIGINT) % 100 < 90 THEN 'val'
       ELSE 'test' END AS split
FROM documents ORDER BY doc_id
"""


def documents_split_safe(
    sf_dir: str,
    *,
    salt: str = "split42",
    train_pct: int = 80,
    val_pct: int = 10,
    method: str = "md5",
) -> ray.data.Dataset:
    """LEAKAGE-SAFE train/val/test split: exact-duplicate documents (same
    text bytes) always land in the SAME split, because the assignment
    hashes the dup GROUP's min doc_id rather than each document's own id —
    the eval-integrity property a plain id split lacks (a test document
    whose duplicate sits in train is memorized, not generalized).
    One row per document: ``(doc_id, split)``.

    Shape: ONE text_hash-keyed coarse exchange (the corpus_filter winner
    machinery) — each group resolves its min-id winner in C++, the split
    rule runs once per DISTINCT text (never per row), and rows map back
    through one ``index_in`` probe.  ``method="md5"`` is the SQL-parity
    rule; ``"fast"`` is the vectorized production hash."""
    import hashlib as _h

    from ..functions.text_stats import md5_fingerprints
    from ..hashing import hash64_array, mix64, string_hash64

    if method not in ("fast", "md5"):
        raise ValueError(f"unknown split method {method!r}")
    cut1, cut2 = int(train_pct), int(train_pct) + int(val_pct)
    salt_h = _salt_hash(salt)
    n_buckets = 64

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def prep(batch: pa.Table) -> pa.Table:
        h = md5_fingerprints(batch["text"])
        bucket = string_hash64(h) % np.uint64(n_buckets)
        return pa.table(
            {
                "text_hash": h,
                "doc_id": batch["doc_id"],
                "bucket": pa.array(bucket.astype(np.int64), pa.int64()),
            }
        )

    _LABELS = np.array(["train", "val", "test"])

    def finalize(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "split": pa.array([], pa.string()),
                }
            )
        gm = (
            group.select(["text_hash", "doc_id"])
            .group_by("text_hash")
            .aggregate([("doc_id", "min")])
        )
        hs = gm["text_hash"]
        if isinstance(hs, pa.ChunkedArray):
            hs = hs.combine_chunks()
        if method == "fast":
            b = (
                mix64(hash64_array(gm["doc_id_min"]) ^ salt_h)
                % np.uint64(100)
            ).astype(np.int64)
        else:
            sp = f"{salt}:".encode()
            md5 = _h.md5
            b = np.array(
                [
                    int.from_bytes(
                        md5(sp + str(v).encode()).digest()[:4], "big"
                    )
                    % 100
                    for v in gm["doc_id_min"].to_pylist()
                ],
                np.int64,
            )
        lab = np.where(b < cut1, 0, np.where(b < cut2, 1, 2))
        idx = pc.index_in(group["text_hash"], value_set=hs).to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "doc_id": group["doc_id"],
                "split": pa.array(_LABELS[lab[idx]].tolist(), pa.string()),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


DOCUMENTS_SPLIT_SAFE_SQL = """
WITH h AS (SELECT doc_id, md5(text) AS th FROM documents),
w AS (SELECT th, min(doc_id) AS win FROM h GROUP BY 1),
s AS (
  SELECT th,
    CASE WHEN hv < 80 THEN 'train' WHEN hv < 90 THEN 'val'
         ELSE 'test' END AS split
  FROM (
    SELECT th,
      CAST(('0x' || substr(md5('split42:' || CAST(win AS VARCHAR)), 1, 8))
           AS UBIGINT) % 100 AS hv
    FROM w
  )
)
SELECT CAST(h.doc_id AS BIGINT) AS doc_id, s.split
FROM h JOIN s USING (th) ORDER BY 1
"""


def source_top_terms(
    sf_dir: str, k: int = 5, min_count: int = 10, scale: int = 1_000_000
) -> ray.data.Dataset:
    """Characteristic terms per corpus source (c-TF-IDF-style): for each
    (source, token) with at least ``min_count`` occurrences, the SHARE of
    the token's corpus occurrences captured by that source
    (``share_ppm = tf_source · 10⁶ // tf_total``), ranked per source — the
    "what makes this source different" report.  Integer-exact.

    Scale: one tokenize pass → map-side (source, token) partials → one
    coarse-bucket exchange (the per-source token distributions, vocab ×
    sources bounded); token totals derive from the SAME aggregate (no
    second corpus pass); the per-source top-k runs on the shortlist."""
    from ..stages.agg import bucket_groupby_agg
    from ..stages.windows import grouped_topk

    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def st_partial(batch: pa.Table) -> pa.Table:
        from .curation import tokens_flat

        flat, parent = tokens_flat(batch["text"])
        src = batch["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        g = (
            pa.table({"source": src.take(pa.array(parent)), "token": flat})
            .group_by(["source", "token"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "source": g["source"],
                "token": g["token"],
                "tf": g["count_all"].cast(pa.int64()),
            }
        )

    st = bucket_groupby_agg(
        ds.map_batches(st_partial, batch_format="pyarrow"),
        ["source", "token"],
        [("tf", "sum", "tf")],
    ).materialize()  # (sources × vocab)-bounded
    totals = bucket_groupby_agg(
        st, ["token"], [("tf", "sum", "tf_total")]
    ).materialize()  # vocab-bounded — the actual broadcast side

    from ..cluster import equi_join

    joined = equi_join(
        st.filter(expr=f"tf >= {int(min_count)}"),
        totals,
        on="token",
    )

    def score(batch: pa.Table) -> pa.Table:
        tf = batch["tf"].to_numpy(zero_copy_only=False)
        tot = batch["tf_total"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "source": batch["source"],
                "token": batch["token"],
                "tf": batch["tf"],
                "share_ppm": pa.array((tf * scale) // tot, pa.int64()),
            }
        )

    scored = joined.map_batches(score, batch_format="pyarrow")

    # per-source top-k by (share desc, token asc): encode share with the
    # grouped_topk value/tiebreak contract (value desc, id asc)
    return grouped_topk(
        scored, group_col="source", value_col="share_ppm", id_col="token", k=k
    )


SOURCE_TOP_TERMS_SQL = """
WITH toks AS (
  SELECT source, t.tok AS token
  FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(tok)
  WHERE t.tok <> ''
), st AS (
  SELECT source, token, CAST(count(*) AS BIGINT) AS tf
  FROM toks GROUP BY 1, 2
), tot AS (
  SELECT token, CAST(sum(tf) AS BIGINT) AS tf_total FROM st GROUP BY 1
), scored AS (
  SELECT st.source, st.token, st.tf,
         CAST((st.tf * 1000000) // tot.tf_total AS BIGINT) AS share_ppm
  FROM st JOIN tot USING (token)
  WHERE st.tf >= 10
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY source
                               ORDER BY share_ppm DESC, token) AS rank
  FROM scored
)
SELECT source, token, share_ppm, CAST(rank AS INTEGER) AS rank
FROM ranked WHERE rank <= 5
ORDER BY source, rank
"""


def event_transitions(sf_dir: str, n_buckets: int = 64) -> ray.data.Dataset:
    """Markov transition counts over per-user event streams: for every
    consecutive (by ts, tie-broken by event_id) pair of events of one user,
    count (from_type → to_type) — the navigation-flow / next-action matrix.

    ONE keyed exchange co-locates each user's events (hash bucket of
    user_id); the per-bucket walk is a lexsort + adjacent-compare + one C++
    group count; the second exchange carries partial (from, to, n) rows —
    |event_types|² bounded."""
    from ..hashing import splitmix_bucket
    from ..stages.agg import bucket_groupby_agg

    ds = read_table(
        sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"]
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(splitmix_bucket(u, n_buckets), pa.int64())
        )

    empty = pa.table(
        {
            "from_type": pa.array([], pa.string()),
            "to_type": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        }
    )

    def walk(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n < 2:
            return empty
        u = group["user_id"].to_numpy(zero_copy_only=False)
        ts = (
            group["ts"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        et = group["event_type"]
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        et = et.take(pa.array(order))
        us = u[order]
        adj = np.flatnonzero(us[1:] == us[:-1])
        if not len(adj):
            return empty
        g = (
            pa.table(
                {
                    "from_type": et.take(pa.array(adj)),
                    "to_type": et.take(pa.array(adj + 1)),
                }
            )
            .group_by(["from_type", "to_type"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "from_type": g["from_type"],
                "to_type": g["to_type"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    return bucket_groupby_agg(
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(walk, batch_format="pyarrow"),
        ["from_type", "to_type"],
        [("n", "sum", "n")],
    )


EVENT_TRANSITIONS_SQL = """
WITH s AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS next_type
  FROM events
)
SELECT event_type AS from_type, next_type AS to_type,
       CAST(count(*) AS BIGINT) AS n
FROM s WHERE next_type IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# grouped sufficient statistics / correlation
# ---------------------------------------------------------------------------


def lineitem_corr_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-return-flag Pearson correlation of (quantity, discount) via
    SINGLE-PASS mergeable sufficient statistics — the canonical
    distributed-statistics shape: each block contributes exact integer
    moments (n, Σx, Σy, Σx², Σy², Σxy), one coarse-bucket aggregate merges
    them, and the correlation is derived ONLY at the end from the reduced
    per-group table.

    Exactness contract (the driver hash gate): x = round-half-up quantity,
    y = round-half-up discount basis points, so every moment is an exact
    int64 through the exchange (Σy² headroom ≈ 9e12 rows per group; the
    horizon guard below trips loudly long before).  The final products
    (n·Σxy − Σx·Σy etc.) need 128 bits at scale — they run in exact Python
    ints on the reduced table (one row per group, so per-row Python is
    O(groups), not O(corpus)), mirroring the oracle's HUGEINT arithmetic;
    the one float step is the pinned
    ``float(cov) / sqrt(float(varx) * float(vary))`` both sides share
    (zero-variance groups → NaN/NULL, compared equal_nan by the gate)."""
    import math

    from ..stages.agg import bucket_groupby_agg

    ds = read_table(
        sf_dir, "lineitem", columns=["l_returnflag", "l_quantity", "l_discount"]
    )

    def derive(batch: pa.Table) -> pa.Table:
        q = np.floor(
            batch["l_quantity"].to_numpy(zero_copy_only=False) + 0.5
        ).astype(np.int64)
        d = np.floor(
            batch["l_discount"].to_numpy(zero_copy_only=False) * 10000.0 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "x": pa.array(q),
                "y": pa.array(d),
                "xx": pa.array(q * q),
                "yy": pa.array(d * d),
                "xy": pa.array(q * d),
            }
        )

    agg = bucket_groupby_agg(
        ds.map_batches(derive, batch_format="pyarrow"),
        ["l_returnflag"],
        [
            ("x", "sum", "sum_x"),
            ("y", "sum", "sum_y"),
            ("xx", "sum", "sum_xx"),
            ("yy", "sum", "sum_yy"),
            ("xy", "sum", "sum_xy"),
            (None, "count", "n"),
        ],
    )

    def corr(batch: pa.Table) -> pa.Table:
        # reduced table: one row per group — exact big-int products here.
        # Loud int64-moment horizon (the pmi_bigrams pattern): y² ≤ 1e8 per
        # row, so sum_yy stays exact below ~9e10 rows/group; past it the
        # C++ sum would have wrapped silently upstream.
        if batch.num_rows and max(batch["n"].to_pylist()) > 90_000_000_000:
            raise ValueError(
                "lineitem_corr_stats: a group exceeds the int64 moment "
                "horizon (~9e10 rows at y≤10000); stage the Σy² moment "
                "through decimal128 before trusting these sums"
            )
        n = batch["n"].to_pylist()
        sx, sy = batch["sum_x"].to_pylist(), batch["sum_y"].to_pylist()
        sxx, syy = batch["sum_xx"].to_pylist(), batch["sum_yy"].to_pylist()
        sxy = batch["sum_xy"].to_pylist()
        out = []
        for i in range(batch.num_rows):
            cov = n[i] * sxy[i] - sx[i] * sy[i]
            varx = n[i] * sxx[i] - sx[i] * sx[i]
            vary = n[i] * syy[i] - sy[i] * sy[i]
            if varx == 0 or vary == 0:
                out.append(float("nan"))
            else:
                out.append(float(cov) / math.sqrt(float(varx) * float(vary)))
        return batch.append_column("corr_xy", pa.array(out, pa.float64()))

    return agg.map_batches(corr, batch_format="pyarrow").sort("l_returnflag")


LINEITEM_CORR_STATS_SQL = """
WITH d AS (
  SELECT l_returnflag,
         CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS x,
         CAST(FLOOR(l_discount * 10000 + 0.5) AS BIGINT) AS y
  FROM lineitem
),
m AS (
  SELECT l_returnflag,
         CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(x) AS HUGEINT) AS sx, CAST(sum(y) AS HUGEINT) AS sy,
         CAST(sum(x * x) AS HUGEINT) AS sxx,
         CAST(sum(y * y) AS HUGEINT) AS syy,
         CAST(sum(x * y) AS HUGEINT) AS sxy
  FROM d GROUP BY 1
)
SELECT l_returnflag,
       CAST(sx AS BIGINT) AS sum_x, CAST(sy AS BIGINT) AS sum_y,
       CAST(sxx AS BIGINT) AS sum_xx, CAST(syy AS BIGINT) AS sum_yy,
       CAST(sxy AS BIGINT) AS sum_xy, CAST(n AS BIGINT) AS n,
       CASE WHEN n * sxx - sx * sx = 0 OR n * syy - sy * sy = 0 THEN NULL
            ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                 / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                        * CAST(n * syy - sy * sy AS DOUBLE))
       END AS corr_xy
FROM m ORDER BY l_returnflag
"""


def lineitem_price_ols(sf_dir: str) -> ray.data.Dataset:
    """Per-(return flag, line status) OLS fit of discounted revenue on
    [1, quantity, discount basis points] — distributed MODEL FITTING via
    normal equations: the classic one-pass big-data regression.

    Plan (see :func:`stages.linalg.groupwise_ols`): one derive pass
    integerizes the features with the engine's pinned kernels (round-half-up
    quantity, basis-point discount, q3's revenue-cents product), per-block
    C++ ``group_by`` partials + ONE coarse-bucket exchange carry the nine
    int64 sufficient statistics, and the 3×3 normal equations are solved on
    the reduced one-row-per-group table with exact integer Cramer
    determinants (fraction-free Bareiss).  The DuckDB oracle replicates the
    SAME determinants in HUGEINT and the SAME pinned
    ``CAST(det_i AS DOUBLE)/CAST(det AS DOUBLE)`` divisions, so the float
    coefficients hash-match bit-for-bit (singular group ⇒ NaN/NULL,
    compared equal_nan by the gate)."""
    from ..stages.linalg import groupwise_ols

    ds = read_table(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )

    def derive(batch: pa.Table) -> pa.Table:
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        x0 = np.floor(qty.astype(np.float64) + 0.5).astype(np.int64)
        x1 = np.floor(disc * 10000.0 + 0.5).astype(np.int64)
        y = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "x0": pa.array(x0, pa.int64()),
                "x1": pa.array(x1, pa.int64()),
                "y": pa.array(y, pa.int64()),
            }
        )

    # largest per-row moment product is x1·y: discount ≤ 0.1 ⇒ x1 ≤ 10³ bp,
    # extendedprice ≤ ~1.05e5 $ ⇒ y ≤ ~1.05e7 cents, so |x1·y| ≤ ~1.05e10;
    # declared bound 1.6e10 gives an int64 horizon of ~5e8 rows/group and
    # the guard in the finish trips loudly past it
    return groupwise_ols(
        ds.map_batches(derive, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        ["x0", "x1"],
        "y",
        max_abs_row_product=16_000_000_000,
    )


LINEITEM_PRICE_OLS_SQL = """
WITH d AS (
  SELECT l_returnflag, l_linestatus,
         CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS x0,
         CAST(FLOOR(l_discount * 10000 + 0.5) AS BIGINT) AS x1,
         CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT) AS y
  FROM lineitem
),
m AS (
  SELECT l_returnflag, l_linestatus,
         CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(x0) AS HUGEINT) AS s0, CAST(sum(x1) AS HUGEINT) AS s1,
         CAST(sum(x0 * x0) AS HUGEINT) AS s00,
         CAST(sum(x0 * x1) AS HUGEINT) AS s01,
         CAST(sum(x1 * x1) AS HUGEINT) AS s11,
         CAST(sum(y) AS HUGEINT) AS sy,
         CAST(sum(x0 * y) AS HUGEINT) AS s0y,
         CAST(sum(x1 * y) AS HUGEINT) AS s1y
  FROM d GROUP BY 1, 2
),
dets AS (
  SELECT *,
    n  * (s00 * s11 - s01 * s01)
      - s0 * (s0  * s11 - s01 * s1)
      + s1 * (s0  * s01 - s00 * s1) AS det,
    sy * (s00 * s11 - s01 * s01)
      - s0 * (s0y * s11 - s01 * s1y)
      + s1 * (s0y * s01 - s00 * s1y) AS det0,
    n  * (s0y * s11 - s01 * s1y)
      - sy * (s0  * s11 - s01 * s1)
      + s1 * (s0  * s1y - s0y * s1) AS det1,
    n  * (s00 * s1y - s0y * s01)
      - s0 * (s0  * s1y - s0y * s1)
      + sy * (s0  * s01 - s00 * s1) AS det2
  FROM m
)
SELECT l_returnflag, l_linestatus,
       CAST(n AS BIGINT) AS n,
       CAST(s0 AS BIGINT) AS sum_x0, CAST(s1 AS BIGINT) AS sum_x1,
       CAST(s00 AS BIGINT) AS sum_x0x0, CAST(s01 AS BIGINT) AS sum_x0x1,
       CAST(s11 AS BIGINT) AS sum_x1x1,
       CAST(sy AS BIGINT) AS sum_y,
       CAST(s0y AS BIGINT) AS sum_x0y, CAST(s1y AS BIGINT) AS sum_x1y,
       CASE WHEN det = 0 THEN NULL
            ELSE CAST(det0 AS DOUBLE) / CAST(det AS DOUBLE) END AS b0,
       CASE WHEN det = 0 THEN NULL
            ELSE CAST(det1 AS DOUBLE) / CAST(det AS DOUBLE) END AS b1,
       CASE WHEN det = 0 THEN NULL
            ELSE CAST(det2 AS DOUBLE) / CAST(det AS DOUBLE) END AS b2
FROM dets ORDER BY l_returnflag, l_linestatus
"""


def embedding_covariance(sf_dir: str) -> pa.Table:
    """Sample covariance matrix of the embedding column (upper triangle,
    one row per i ≤ j) — distributed DENSE LINEAR ALGEBRA reduction: each
    block contributes its quantized Gram matrix ``QᵀQ`` and column sums as
    ONE row (d²+d+1 int64s), the driver merges the bounded-domain partials
    in exact Python ints, and the pinned float division both sides share
    derives the covariance.  What crosses the wire is O(blocks·d²),
    independent of corpus size — the canonical one-pass covariance at
    100 TB.  Oracle: UNNEST-with-ordinality self-join in DuckDB over the
    SAME round-half-up 10⁶ quantization."""
    from ..stages.linalg import covariance_table, vector_moments

    ds = read_table(sf_dir, "embeddings", columns=["embedding"])
    n, s, g = vector_moments(ds, vec_col="embedding", scale=1_000_000)
    return covariance_table(n, s, g, scale=1_000_000)


EMBEDDING_COVARIANCE_SQL = """
WITH q AS (
  SELECT vec_id,
         CAST(generate_subscripts(embedding, 1) AS BIGINT) - 1 AS i,
         CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 1000000 + 0.5)
              AS BIGINT) AS qx
  FROM embeddings
),
nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM embeddings),
s AS (SELECT i, CAST(sum(qx) AS BIGINT) AS s FROM q GROUP BY 1),
g AS (SELECT a.i AS i, b.i AS j,
             CAST(sum(CAST(a.qx AS HUGEINT) * b.qx) AS BIGINT) AS s_ij
      FROM q a JOIN q b USING (vec_id) WHERE a.i <= b.i GROUP BY 1, 2)
SELECT g.i, g.j, nn.n, sa.s AS s_i, sb.s AS s_j, g.s_ij,
       CAST(nn.n * CAST(g.s_ij AS HUGEINT)
            - CAST(sa.s AS HUGEINT) * sb.s AS DOUBLE)
       / (CAST(nn.n AS DOUBLE) * CAST(nn.n - 1 AS DOUBLE)) / 1e12 AS cov_ij
FROM g, nn
JOIN s sa ON sa.i = g.i
JOIN s sb ON sb.i = g.j
ORDER BY g.i, g.j
"""


def embedding_class_stats(sf_dir: str) -> pa.Table:
    """Per-(label, dimension) Gaussian feature statistics of the embedding
    column — the sufficient statistics of a Gaussian Naive Bayes /
    nearest-centroid CLASSIFIER fit (the classification twin of
    :func:`lineitem_price_ols`): one row per (label, dim) with exact int64
    moments (n, Σq, Σq²) and the pinned float mean/variance both sides
    share.  Each block emits one (2d+2)-int64 row per LOCAL label via a
    lexsort + ``add.reduceat`` segment pass (labels × dims is a bounded
    domain), the driver merges in exact Python ints — no exchange, one
    streaming scan at any corpus size."""
    from ..stages.linalg import grouped_vector_moments

    ds = read_table(sf_dir, "embeddings", columns=["label", "embedding"])
    return grouped_vector_moments(
        ds, group_col="label", vec_col="embedding", scale=1_000_000
    )


EMBEDDING_CLASS_STATS_SQL = """
WITH q AS (
  SELECT CAST(label AS BIGINT) AS label,
         CAST(generate_subscripts(embedding, 1) AS BIGINT) - 1 AS dim,
         CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 1000000 + 0.5)
              AS BIGINT) AS qx
  FROM embeddings
),
m AS (
  SELECT label, dim,
         CAST(count(*) AS BIGINT) AS n,
         CAST(sum(qx) AS BIGINT) AS s,
         CAST(sum(CAST(qx AS HUGEINT) * qx) AS BIGINT) AS s2
  FROM q GROUP BY 1, 2
)
SELECT label, dim, n, s, s2,
       CAST(s AS DOUBLE) / CAST(n AS DOUBLE) / 1e6 AS mean,
       CASE WHEN n < 2 THEN NULL
            ELSE CAST(n * CAST(s2 AS HUGEINT)
                      - CAST(s AS HUGEINT) * s AS DOUBLE)
                 / (CAST(n AS DOUBLE) * CAST(n - 1 AS DOUBLE)) / 1e12
       END AS var
FROM m ORDER BY label, dim
"""


def embedding_pca_project(sf_dir: str, k: int = 2) -> ray.data.Dataset:
    """Top-k PCA projection of the embedding column — fit from the SAME
    merged exact moments :func:`embedding_covariance` uses (so the fit is
    parallelism-invariant by construction), eigendecomposition of the d×d
    covariance on the driver, components broadcast once, projection a
    streaming per-block matmul.  Output: (vec_id, pc0..pc{k−1}).

    No SQL oracle — eigendecomposition is not expressible in ANSI SQL; the
    pytest gate pins the projection against a full-data numpy reference
    and the sign/ordering determinism."""
    from ..stages.linalg import pca_components, pca_project, vector_moments

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n, s, g = vector_moments(
        ds.select_columns(["embedding"]), vec_col="embedding", scale=1_000_000
    )
    mean, comps = pca_components(n, s, g, scale=1_000_000, k=k)
    return pca_project(ds, mean, comps).sort("vec_id")


def embedding_logreg(
    sf_dir: str, *, lr: float = 10.0, iters: int = 50
) -> pa.Table:
    """Train a logistic-regression classifier (label ≥ 5 vs < 5) on the
    embedding column — distributed ITERATIVE model fitting, the
    pagerank-style broadcast-refit loop applied to ML: each of the
    ``iters`` full-batch passes broadcasts the weight vector, every block
    returns ONE exact-int64 gradient row (quantized ppm residuals ×
    quantized features — see :func:`stages.linalg.logreg_fit`), and the
    driver merges + updates.  Bit-for-bit parallelism-invariant, which
    float gradient sums cannot be.  Output: one row per coefficient
    (dim = −1 is the intercept), deterministic at any layout.

    No SQL oracle — an iterative optimizer is not expressible in ANSI
    SQL; the pytest gate pins bit-equality against a driver-local
    replica of the same quantized recipe, parallelism invariance, and
    exact recovery on an engineered separable fixture."""
    from ..cluster import dataset_size_estimate
    from ..stages.linalg import LOGREG_CACHE_MAX_BYTES, logreg_fit

    ds = read_table(sf_dir, "embeddings", columns=["label", "embedding"])
    # size the cache decision on the PRE-map dataset — the binarize
    # map_batches erases the metadata estimate logreg_fit would consult
    est = dataset_size_estimate(ds)
    cache = est is not None and est <= LOGREG_CACHE_MAX_BYTES

    def binarize(batch: pa.Table) -> pa.Table:
        y = pc.cast(
            pc.greater_equal(batch["label"], 5), pa.int64()
        )
        return pa.table({"y": y, "embedding": batch["embedding"]})

    w, b, _n = logreg_fit(
        ds.map_batches(binarize, batch_format="pyarrow"),
        label_col="y",
        lr=lr,
        iters=iters,
        cache=cache,
    )
    return pa.table(
        {
            "dim": pa.array([-1] + list(range(len(w))), pa.int64()),
            "weight": pa.array([b] + w.tolist(), pa.float64()),
        }
    )


def first_k_prefix(
    batch: pa.Table, k: int
) -> tuple[pa.Table, np.ndarray]:
    """Sort by (user, ts, event_id), keep rank < k per user; returns the
    pruned sorted table and its user column as numpy.  A MERGEABLE
    partial: min-k by the sort key survives unioning, so block-local
    pruning before the keyed exchange is lossless."""
    u = batch["user_id"].to_numpy(zero_copy_only=False)
    ts = (
        batch["ts"]
        .cast(pa.timestamp("us"))
        .cast(pa.int64())
        .to_numpy(zero_copy_only=False)
    )
    eid = batch["event_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((eid, ts, u))
    us = u[order]
    newu = np.r_[True, us[1:] != us[:-1]] if len(us) else np.array([], bool)
    run_start = np.flatnonzero(newu)
    run_id = np.cumsum(newu) - 1
    rank = np.arange(len(us), dtype=np.int64) - run_start[run_id]
    keep = rank < k
    idx = order[keep]
    return batch.take(pa.array(idx, pa.int64())), us[keep]


def user_paths(
    sf_dir: str, *, k: int = 3, top: int = 50, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Top user journeys: each user's FIRST ``k`` events (by ts, tie-broken
    by event_id) joined into a ``a>b>c`` path string, counted across users
    — the early-journey mining behind onboarding/funnel exploration.

    Scale shape: the first-``k``-per-user prefix is a MERGEABLE partial
    (min-k by sort key survives unioning), so every block prunes to at
    most ``k`` rows per (user, block) BEFORE the keyed exchange; the
    per-bucket walk re-ranks, builds path strings with one per-user
    ``binary_join``, and emits block-local (path, n) partial counts; the
    second exchange is the coarse-bucket path aggregate over those
    partials.  Each path lives in exactly one final bucket, so the
    per-bucket top-``top`` before the global sort+limit is exact."""
    from ..hashing import splitmix_bucket
    from ..stages.agg import bucket_groupby_sum

    ds = read_table(
        sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"]
    )
    if n_buckets is None:
        # the exchange carries <= k rows per (user, block); size its group
        # count from the input estimate, never a fixed 64
        n_buckets = assembly_buckets_for_bytes(dataset_size_estimate(ds))

    def partial(batch: pa.Table) -> pa.Table:
        pruned, us = first_k_prefix(batch, k)
        return pruned.append_column(
            "bucket", pa.array(splitmix_bucket(us, n_buckets), pa.int64())
        )

    def paths(group: pa.Table) -> pa.Table:
        pruned, us = first_k_prefix(group, k)
        newu = np.r_[True, us[1:] != us[:-1]] if len(us) else np.array([], bool)
        lens = np.diff(np.r_[np.flatnonzero(newu), len(us)])
        offsets = pa.array(
            np.r_[np.int32(0), np.cumsum(lens).astype(np.int32)]
        )
        et = pruned["event_type"]
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        path = pc.binary_join(pa.ListArray.from_arrays(offsets, et), ">")
        g = (
            pa.table({"path": path})
            .group_by("path")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"path": g["path"], "n_users": g["count_all"].cast(pa.int64())}
        )

    agg = bucket_groupby_sum(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(paths, batch_format="pyarrow"),
        ["path"],
        ["n_users"],
    )

    def local_top(batch: pa.Table) -> pa.Table:
        n = batch["n_users"].to_numpy(zero_copy_only=False)
        p = batch["path"].to_numpy(zero_copy_only=False)
        order = np.lexsort((p, -n))[:top]
        return batch.take(pa.array(np.sort(order), pa.int64()))

    return (
        agg.map_batches(local_top, batch_format="pyarrow")
        .sort(["n_users", "path"], descending=[True, False])
        .limit(top)
    )


USER_PATHS_SQL = """
WITH r AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
),
p AS (
  SELECT user_id, string_agg(event_type, '>' ORDER BY rn) AS path
  FROM r WHERE rn <= 3 GROUP BY user_id
)
SELECT path, CAST(count(*) AS BIGINT) AS n_users
FROM p GROUP BY 1 ORDER BY n_users DESC, path LIMIT 50
"""


def corpus_report(sf_dir: str) -> ray.data.Dataset:
    """One-row corpus data card: document/token/char volume, exact distinct
    text count (the dup-rate numerator), language and source cardinality,
    and the doc-token extremes — the summary block a training-data release
    ships with.

    Scale shape: three column-pruned passes (each reads ONLY its columns
    — text is decoded twice, lang/source once), each reducing before
    anything moves — (1) per-block scalar partials (one row per block to
    the driver, the ``pack_documents`` pattern), (2) per-block DISTINCT
    md5 text hashes into a coarse-bucket exchange whose buckets emit one
    count row each (the ``exact_dedup`` shape — only hex hashes travel),
    (3) per-block distinct lang/source pairs (tiny by construction) into
    one re-distinct.  Nothing corpus-sized ever lands in one task."""
    from ..functions.text_stats import md5_fingerprints
    from ..hashing import id_bucket_array

    # per-pass pruned reads: the text column (the corpus' bulk) is decoded
    # by exactly the two passes that need it
    ds_scal = read_table(sf_dir, "documents", columns=["text", "n_chars"])
    ds_text = read_table(sf_dir, "documents", columns=["text"])
    ds_dims = read_table(sf_dir, "documents", columns=["lang", "source"])

    def scalars(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:  # a computed block can be empty
            return pa.table(
                {c: pa.array([], pa.int64())
                 for c in ("n_docs", "n_chars", "n_tokens",
                           "max_doc_tokens", "min_doc_tokens")}
            )
        ntok = pc.count_substring_regex(batch["text"], r"\S+").to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "n_docs": pa.array([batch.num_rows], pa.int64()),
                "n_chars": pa.array(
                    [int(pc.sum(batch["n_chars"]).as_py() or 0)], pa.int64()
                ),
                "n_tokens": pa.array([int(ntok.sum())], pa.int64()),
                "max_doc_tokens": pa.array([int(ntok.max())], pa.int64()),
                "min_doc_tokens": pa.array([int(ntok.min())], pa.int64()),
            }
        )

    def block_hashes(batch: pa.Table) -> pa.Table:
        h = pa.table({"h": md5_fingerprints(batch["text"])})
        g = h.group_by("h").aggregate([])
        return g.append_column("bucket", id_bucket_array(g["h"], 64))

    def bucket_count(group: pa.Table) -> pa.Table:
        g = group.group_by("h").aggregate([])
        return pa.table({"n": pa.array([g.num_rows], pa.int64())})

    def pairs(batch: pa.Table) -> pa.Table:
        return batch.select(["lang", "source"]).group_by(
            ["lang", "source"]
        ).aggregate([])

    from ..cluster import collect_table

    sc = collect_table(ds_scal.map_batches(scalars, batch_format="pyarrow"))
    uq = collect_table(
        ds_text.map_batches(block_hashes, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_count, batch_format="pyarrow")
    )
    pr = collect_table(ds_dims.map_batches(pairs, batch_format="pyarrow"))
    if sc is None:
        row = {
            "n_docs": 0, "n_unique_texts": 0, "n_langs": 0, "n_sources": 0,
            "n_chars": 0, "n_tokens": 0,
            "max_doc_tokens": None, "min_doc_tokens": None,
        }
    else:
        langs = set(pr["lang"].to_pylist())
        sources = set(pr["source"].to_pylist())
        row = {
            "n_docs": int(pc.sum(sc["n_docs"]).as_py()),
            "n_unique_texts": int(pc.sum(uq["n"]).as_py() or 0),
            "n_langs": len(langs),
            "n_sources": len(sources),
            "n_chars": int(pc.sum(sc["n_chars"]).as_py()),
            "n_tokens": int(pc.sum(sc["n_tokens"]).as_py()),
            "max_doc_tokens": int(pc.max(sc["max_doc_tokens"]).as_py()),
            "min_doc_tokens": int(pc.min(sc["min_doc_tokens"]).as_py()),
        }
    return ray.data.from_arrow(
        pa.table({k: pa.array([v], pa.int64()) for k, v in row.items()})
    )


CORPUS_REPORT_SQL = """
WITH t AS (
  SELECT text, lang, source, n_chars,
         len(regexp_extract_all(text, '\\S+')) AS n_tok
  FROM documents
)
SELECT CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(DISTINCT md5(text)) AS BIGINT) AS n_unique_texts,
       CAST(count(DISTINCT lang) AS BIGINT) AS n_langs,
       CAST(count(DISTINCT source) AS BIGINT) AS n_sources,
       CAST(sum(n_chars) AS BIGINT) AS n_chars,
       CAST(sum(n_tok) AS BIGINT) AS n_tokens,
       CAST(max(n_tok) AS BIGINT) AS max_doc_tokens,
       CAST(min(n_tok) AS BIGINT) AS min_doc_tokens
FROM t
"""


def q5_local_volume(
    sf_dir: str, region: str = "ASIA", year: str = "2000"
) -> ray.data.Dataset:
    """TPC-H Q5 shape — the six-table join: revenue by nation for orders a
    LOCAL supplier fulfilled (customer and supplier share a nation inside
    one region, one order-date year).

    Scale plan: region⋈nation collapses to a broadcast nationkey set
    (dims are tiny), customer and supplier prune AT THE SCAN with
    ``pc.is_in`` against it; orders prune to the year; the two big joins
    run through the planner (lineitem⋈supplier broadcasts the pruned
    supplier side; the orderkey join is volume-sized); the
    local-supplier predicate (c_nationkey == s_nationkey) filters
    BEFORE the per-block partial revenue combine, so the final exchange
    carries one row per (nation, block).  Revenue uses q3's pinned
    integer-cents kernel (``floor(price*(1-disc)*100+0.5)``)."""
    import pyarrow.parquet as _pq

    lo, hi = f"{year}-01-01", f"{int(year) + 1}-01-01"

    # tiny dims (25 nations / 5 regions) → driver read, broadcast
    # nationkey set + name lookup
    nat = _pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    reg = _pq.read_table(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"],
    )
    rkeys = reg.filter(pc.equal(reg["r_name"], region))["r_regionkey"]
    nat = nat.filter(pc.is_in(nat["n_regionkey"], value_set=rkeys.combine_chunks()))
    nkeys = nat["n_nationkey"].combine_chunks()
    nkeys_ref = ray.put(nkeys)
    name_of = dict(
        zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist())
    )

    cust = read_table(
        sf_dir, "customer", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: b.filter(
            pc.is_in(b["c_nationkey"], value_set=ray.get(nkeys_ref))
        ),
        batch_format="pyarrow",
    )
    supp = read_table(
        sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]
    ).map_batches(
        lambda b: b.filter(
            pc.is_in(b["s_nationkey"], value_set=ray.get(nkeys_ref))
        ),
        batch_format="pyarrow",
    )

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def sel_orders(batch: pa.Table) -> pa.Table:
        d = pc.strftime(batch["o_orderdate"], format="%Y-%m-%d")
        mask = pc.and_(pc.greater_equal(d, lo), pc.less(d, hi))
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"].filter(mask),
                "o_custkey": batch["o_custkey"].filter(mask),
            }
        )

    ord_cust = equi_join(
        orders.map_batches(sel_orders, batch_format="pyarrow"),
        cust,
        on="o_custkey",
        right_on="c_custkey",
        join_type="inner",
        left_cols=["o_orderkey"],
        right_cols=["c_nationkey"],
    )

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def rev(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_suppkey": batch["l_suppkey"],
                "rev_cents": pa.array(cents, pa.int64()),
            }
        )

    li_supp = equi_join(
        li.map_batches(rev, batch_format="pyarrow"),
        supp,
        on="l_suppkey",
        right_on="s_suppkey",
        join_type="inner",
        left_cols=["l_orderkey", "rev_cents"],
        right_cols=["s_nationkey"],
    )

    both = equi_join(
        li_supp,
        ord_cust,
        on="l_orderkey",
        right_on="o_orderkey",
        join_type="inner",
        left_cols=["rev_cents", "s_nationkey"],
        right_cols=["c_nationkey"],
    )

    def local_partial(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["s_nationkey"], batch["c_nationkey"])
        sub = batch.filter(keep)
        g = sub.select(["s_nationkey", "rev_cents"]).group_by(
            "s_nationkey"
        ).aggregate([("rev_cents", "sum")])
        return pa.table(
            {
                "nationkey": g["s_nationkey"],
                "rev": g["rev_cents_sum"].cast(pa.int64()),
            }
        )

    from ..stages.agg import bucket_groupby_sum

    agg = bucket_groupby_sum(
        both.map_batches(local_partial, batch_format="pyarrow"),
        ["nationkey"],
        ["rev"],
    )

    names = pa.array(
        [name_of[k] for k in sorted(name_of)], pa.string()
    )
    keys = pa.array(sorted(name_of), pa.int64())

    def to_name(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch["nationkey"], value_set=keys)
        return pa.table(
            {
                "n_name": names.take(idx),
                "revenue_cents": batch["rev"],
            }
        )

    return agg.map_batches(to_name, batch_format="pyarrow").sort(
        ["revenue_cents", "n_name"], descending=[True, False]
    )


def q18_big_orders(
    sf_dir: str,
    min_qty: int = 250,
    limit: int = 100,
) -> ray.data.Dataset:
    """TPC-H Q18 shape — large-quantity orders: (customer, order) rows
    whose order's total lineitem quantity exceeds ``min_qty``, largest
    orders first.

    Scale plan: the HAVING aggregate reduces lineitem per block (one row
    per (orderkey, block) after the in-block C++ group) into ONE
    volume-sized orderkey exchange; the survivor set is
    selectivity-bounded (TPC-H picks ``min_qty`` so ~0.2% of orders
    survive), so it ships ONCE as a broadcast lookup that both big scans
    probe — orders joins it locally, and the resulting one-row-per-
    surviving-order table broadcasts against the customer scan.  Neither
    big table is ever exchanged.  A ``min_qty`` low enough to outgrow the
    planner's broadcast cap routes both survivor joins through the
    keyed-exchange plan instead.  Quantities are integral by TPC-H
    construction → exact int64 sums; o_totalprice uses q3's pinned
    integer-cents kernel.
    """
    from ..stages.agg import bucket_groupby_sum

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def qty_partial(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        t = pa.table(
            {"l_orderkey": batch["l_orderkey"], "qty": pa.array(q, pa.int64())}
        )
        g = t.group_by("l_orderkey").aggregate([("qty", "sum")])
        return pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "sum_qty": g["qty_sum"].cast(pa.int64()),
            }
        )

    survivors = bucket_groupby_sum(
        li.map_batches(qty_partial, batch_format="pyarrow"),
        ["l_orderkey"],
        ["sum_qty"],
        n_buckets=assembly_buckets_for_bytes(table_file_bytes(sf_dir, "lineitem")),
    ).map_batches(
        lambda b: b.filter(pc.greater(b["sum_qty"], min_qty)),
        batch_format="pyarrow",
    )

    orders = read_table(
        sf_dir,
        "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def ord_prep(batch: pa.Table) -> pa.Table:
        cents = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "o_custkey": batch["o_custkey"],
                "o_orderdate": pc.strftime(
                    batch["o_orderdate"], format="%Y-%m-%d"
                ),
                "total_cents": pa.array(cents, pa.int64()),
            }
        )

    ord_big = equi_join(
        orders.map_batches(ord_prep, batch_format="pyarrow"),
        survivors,
        on="o_orderkey",
        right_on="l_orderkey",
        join_type="inner",
        left_cols=["o_orderkey", "o_custkey", "o_orderdate", "total_cents"],
        right_cols=["sum_qty"],
        # a fully-filtered survivor stream has no derivable schema
        right_types={"l_orderkey": pa.int64(), "sum_qty": pa.int64()},
    )

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
    out = equi_join(
        cust,
        ord_big,
        on="c_custkey",
        right_on="o_custkey",
        join_type="inner",
        left_cols=["c_custkey", "c_name"],
        right_cols=["o_orderkey", "o_orderdate", "total_cents", "sum_qty"],
        right_types={
            "o_orderkey": pa.int64(),
            "o_custkey": pa.int64(),
            "o_orderdate": pa.string(),
            "total_cents": pa.int64(),
            "sum_qty": pa.int64(),
        },
    )
    return out.sort(
        ["total_cents", "o_orderdate", "o_orderkey"],
        descending=[True, False, False],
    ).limit(limit)


Q18_BIG_ORDERS_SQL = """
SELECT c.c_custkey,
       c.c_name,
       o.o_orderkey,
       strftime(o.o_orderdate, '%Y-%m-%d') AS o_orderdate,
       CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT) AS total_cents,
       s.sum_qty
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN (
    SELECT l_orderkey, CAST(sum(l_quantity) AS BIGINT) AS sum_qty
    FROM lineitem
    GROUP BY l_orderkey
    HAVING sum(l_quantity) > 250
) s ON o.o_orderkey = s.l_orderkey
ORDER BY total_cents DESC, o_orderdate, o.o_orderkey
LIMIT 100
"""


def part_name_fuzzy_pairs(sf_dir: str, max_dist: int = 2) -> ray.data.Dataset:
    """Fuzzy self-join on part names: every DISTINCT ``p_name`` pair
    within byte-level Levenshtein distance ``max_dist``, with each
    side's corpus row count — the entity-resolution primitive (typo /
    variant detection over a key column) a naive plan needs an
    all-pairs cross join for.

    Plan in :mod:`..stages.fuzzy`: distinct reduction → SymSpell
    deletion-neighborhood banding (variant HASHES only, O(1) each via
    a prefix/suffix polynomial decomposition) → candidate pairing on
    the variant hash → exact vectorized cross-pair Levenshtein verify.
    Three bounded exchanges; the corpus is scanned once."""
    from ..stages.fuzzy import edit_distance_join

    ds = read_table(sf_dir, "part", columns=["p_name"])
    return edit_distance_join(ds, "p_name", max_dist=max_dist)


PART_NAME_FUZZY_PAIRS_SQL = """
WITH d AS (
  SELECT p_name, CAST(COUNT(*) AS BIGINT) AS cnt FROM part GROUP BY 1
)
SELECT a.p_name AS name_a, b.p_name AS name_b,
       CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist,
       a.cnt AS count_a, b.cnt AS count_b
FROM d a JOIN d b ON a.p_name < b.p_name
WHERE levenshtein(a.p_name, b.p_name) <= 2
"""


def part_name_jw(sf_dir: str, min_jw: float = 0.84) -> ray.data.Dataset:
    """Jaro-Winkler-scored fuzzy self-join (``fuzzy.jaro_winkler_join``):
    the Levenshtein-≤2 candidate pairs of :func:`part_name_fuzzy_pairs`
    scored with byte-level Jaro-Winkler and kept at ``jw >= min_jw`` —
    the prefix-weighted similarity entity resolution actually ranks by.
    The JW kernel is bit-identical to DuckDB's
    ``jaro_winkler_similarity`` (same greedy window matching, same op
    order — fuzz-pinned in tests), so the double column survives the
    driver's value-hash gate; the score/filter pass adds ZERO exchanges
    to the edit-distance join's three."""
    from ..stages.fuzzy import jaro_winkler_join

    ds = read_table(sf_dir, "part", columns=["p_name"])
    return jaro_winkler_join(ds, "p_name", min_jw=min_jw)


PART_NAME_JW_SQL = """
WITH d AS (
  SELECT p_name, CAST(COUNT(*) AS BIGINT) AS cnt FROM part GROUP BY 1
)
SELECT a.p_name AS name_a, b.p_name AS name_b,
       CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist,
       a.cnt AS count_a, b.cnt AS count_b,
       jaro_winkler_similarity(a.p_name, b.p_name) AS jw
FROM d a JOIN d b ON a.p_name < b.p_name
WHERE levenshtein(a.p_name, b.p_name) <= 2
  AND jaro_winkler_similarity(a.p_name, b.p_name) >= 0.84
"""


Q5_LOCAL_VOLUME_SQL = """
SELECT n_name,
       CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= DATE '2000-01-01'
  AND o_orderdate < DATE '2001-01-01'
GROUP BY n_name
ORDER BY revenue_cents DESC, n_name
"""




def lm_conditional_ppm(
    cnt: pa.Table | None,
) -> tuple[pa.Array, np.ndarray]:
    """Finish the corpus bigram-LM build from the REDUCED ``(bg, c)``
    count table: conditional probability of each bigram given its left
    token in integer ppm (``10^6·c(w1w2) // c(w1·)``).  Runs entirely on
    the bigram-vocabulary-bounded table (never corpus rows); returns the
    broadcastable ``(bigram keys, int64 ppm values)`` probe pair shared
    by :func:`doc_lm_score` and the fused corpus quality filter.  Exact
    to ~9e12 occurrences of a single bigram (10^6·c12 in int64) —
    guarded loudly."""
    if cnt is None or cnt.num_rows == 0:
        return pa.array([], pa.string()), np.array([], np.int64)
    c12 = cnt["c"].to_numpy(zero_copy_only=False).astype(np.int64)
    if c12.size and int(c12.max()) > 9_000_000_000_000:
        raise ValueError(
            "lm_conditional_ppm staging is exact only to 9e12 occurrences "
            f"per bigram (got {int(c12.max())}); use 128-bit staging"
        )
    # left token of each bigram → prefix counts → conditional ppm
    parts = pc.list_flatten(
        pc.split_pattern(cnt["bg"], " ", max_splits=1)
    )
    left = parts.take(pa.array(np.arange(0, 2 * cnt.num_rows, 2), pa.int64()))
    lt = pa.table({"left": left, "c": cnt["c"]})
    pre = lt.group_by("left").aggregate([("c", "sum")])
    pidx = pc.index_in(left, value_set=pre["left"].combine_chunks())
    prefix = (
        pre["c_sum"]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)[pidx.to_numpy(zero_copy_only=False)]
    )
    ppm_vals = (1_000_000 * c12) // np.maximum(prefix, 1)
    keys = cnt["bg"]
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return keys, ppm_vals


def doc_lm_score(
    sf_dir: str, *, carry_cols: tuple[str, ...] = ()
) -> ray.data.Dataset:
    """CCNet-style corpus-LM quality scoring in exact integers: train a
    bigram language model ON the corpus (conditional probability of each
    bigram given its left token, in ppm: ``10^6·c(w1w2) // c(w1·)``), then
    score every document by the sum/mean conditional ppm of its bigrams —
    low mean ⇒ token sequences the corpus considers improbable (gibberish,
    boilerplate soup); the integer floor-division replicates verbatim in
    SQL so the driver hash gate stays exact.

    Shape: pass 1 reduces blocks to bigram-count partials through the
    coarse-bucket C++ aggregate (bigram vocabulary plateaus, so the
    reduced table is bounded); prefix counts and conditional ppms derive
    from that REDUCED table on the driver and broadcast once via plasma.
    Pass 2 is a zero-shuffle map: rebuild each block's bigrams (same
    tokenize + adjacency as pass 1 ⇒ every lookup hits), one ``index_in``
    probe + two bincounts per batch, one output row per document (docs
    with <2 tokens ride through with zeros).  Exact to ~9e12 occurrences
    of a single bigram (10^6·c12 in int64) — guarded loudly.
    """
    from ..cluster import collect_table
    from ..stages.agg import bucket_groupby_sum
    from .curation import tokens_flat

    txt = read_table(sf_dir, "documents", columns=["text"])

    _EMPTY_CNT = pa.table(
        {"bg": pa.array([], pa.string()), "c": pa.array([], pa.int64())}
    )

    def _bigrams(batch_text):
        flat, parent = tokens_flat(batch_text)
        if len(parent) >= 2:
            adj = np.flatnonzero(parent[1:] == parent[:-1])
        else:
            adj = np.array([], np.int64)
        if not len(adj):
            return None, None
        bg = pc.binary_join_element_wise(
            flat.take(pa.array(adj)), flat.take(pa.array(adj + 1)), " "
        )
        return bg, parent[adj]

    def big_partial(batch: pa.Table) -> pa.Table:
        bg, _ = _bigrams(batch["text"])
        if bg is None:
            return _EMPTY_CNT
        g = pa.table({"bg": bg}).group_by("bg").aggregate([([], "count_all")])
        return pa.table(
            {"bg": g["bg"], "c": g["count_all"].cast(pa.int64())}
        )

    cnt = collect_table(
        bucket_groupby_sum(
            txt.map_batches(big_partial, batch_format="pyarrow"),
            ["bg"],
            ["c"],
        )
    )
    lm_ref = ray.put(lm_conditional_ppm(cnt))

    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text", *carry_cols]
    )

    def score(batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        bg, drow = _bigrams(batch["text"])
        n_big = np.zeros(n_rows, np.int64)
        s = np.zeros(n_rows, np.int64)
        if bg is not None:
            lm_keys, lm_ppm = ray.get(lm_ref)
            idx = pc.index_in(bg, value_set=lm_keys).to_numpy(
                zero_copy_only=False
            )
            vals = lm_ppm[idx]  # trained on this corpus ⇒ every probe hits
            n_big = np.bincount(drow, minlength=n_rows).astype(np.int64)
            s = np.bincount(
                drow, weights=vals.astype(np.float64), minlength=n_rows
            ).astype(np.int64)
        mean = np.zeros(n_rows, np.int64)
        nz = n_big > 0
        mean[nz] = s[nz] // n_big[nz]
        cols = {
            "doc_id": batch["doc_id"],
            "n_bigrams": pa.array(n_big, pa.int64()),
            "sum_cond_ppm": pa.array(s, pa.int64()),
            "mean_cond_ppm": pa.array(mean, pa.int64()),
        }
        # carry columns ride the same scan (``carry_cols``) so
        # compositions like ccnet_buckets need no doc-keyed join
        for c in carry_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    return docs.map_batches(score, batch_format="pyarrow").sort("doc_id")


DOC_LM_SCORE_SQL = """
WITH l AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\\s+'),
                     x -> x <> '') AS toks
  FROM documents
), big AS (
  SELECT doc_id,
         unnest(list_transform(generate_series(1, len(toks)-1),
                               i -> toks[i] || ' ' || toks[i+1])) AS bg
  FROM l
), bc AS (
  SELECT bg, CAST(count(*) AS BIGINT) AS c12 FROM big GROUP BY 1
), pre AS (
  SELECT split_part(bg, ' ', 1) AS w1, CAST(sum(c12) AS BIGINT) AS cp
  FROM bc GROUP BY 1
), ppm AS (
  SELECT bg, 1000000 * c12 // cp AS p
  FROM bc JOIN pre ON pre.w1 = split_part(bc.bg, ' ', 1)
), per_doc AS (
  SELECT doc_id,
         CAST(count(*) AS BIGINT) AS n_bigrams,
         CAST(sum(p) AS BIGINT) AS sum_cond_ppm
  FROM big JOIN ppm USING (bg) GROUP BY 1
)
SELECT d.doc_id,
       COALESCE(p.n_bigrams, 0) AS n_bigrams,
       COALESCE(p.sum_cond_ppm, 0) AS sum_cond_ppm,
       CASE WHEN COALESCE(p.n_bigrams, 0) = 0 THEN 0
            ELSE p.sum_cond_ppm // p.n_bigrams END AS mean_cond_ppm
FROM documents d
LEFT JOIN per_doc p USING (doc_id)
ORDER BY d.doc_id
"""


def daily_active_spans(sf_dir: str) -> ray.data.Dataset:
    """Interval stabbing: for every OBSERVED day, how many users' activity
    span (first event .. last event) covers it — the "accounts open",
    "subscriptions live", "contracts in force" shape, where naive per-day
    expansion is O(users × span length).

    Shape: ONE corpus scan and ONE exchange.  Each block reduces to
    kind-tagged partials — per-user (min day, max day) AND per-day event
    counts — through a single coarse-bucket aggregate (the observed-day
    side used to be a second full corpus scan; fused).  The reduced
    per-user spans map to boundary deltas (+1 at d0, −1 at d1+1) whose
    per-block tables are CALENDAR-BOUNDED (≤ 2·days rows), so both the
    boundary and observed-day merges are driver merges over tiny
    collected partials, not exchanges.  The finish (sort boundaries,
    cumsum, searchsorted at observed days) is the ``corpus_report``
    pattern — bounded tables only, never the corpus."""
    from ..cluster import collect_table
    from ..stages.agg import bucket_groupby_agg

    US_PER_DAY = 86_400_000_000

    events = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def fused_partial(batch: pa.Table) -> pa.Table:
        day = pc.divide(batch["ts"].cast(pa.int64()), US_PER_DAY)
        gu = (
            pa.table({"k": batch["user_id"].cast(pa.int64()), "day": day})
            .group_by("k")
            .aggregate([("day", "min"), ("day", "max")])
        )
        gd = pa.table({"k": day}).group_by("k").aggregate(
            [([], "count_all")]
        )
        zu = pa.array([0] * gu.num_rows, pa.int64())
        zd = pa.array([0] * gd.num_rows, pa.int64())
        ut = pa.table(
            {
                "kind": pa.array(["u"] * gu.num_rows, pa.string()),
                "k": gu["k"],
                "dmin": gu["day_min"].cast(pa.int64()),
                "dmax": gu["day_max"].cast(pa.int64()),
                "n": zu,
            }
        )
        dt = pa.table(
            {
                "kind": pa.array(["d"] * gd.num_rows, pa.string()),
                "k": gd["k"],
                "dmin": zd,
                "dmax": zd,
                "n": gd["count_all"].cast(pa.int64()),
            }
        )
        return pa.concat_tables([ut, dt]).combine_chunks()

    red = bucket_groupby_agg(
        events.map_batches(fused_partial, batch_format="pyarrow"),
        ["kind", "k"],
        [("dmin", "min", "d0"), ("dmax", "max", "d1"), ("n", "sum", "n")],
    )

    # per-block finishing partials: user rows → boundary deltas, day rows
    # ride through — BOTH calendar-bounded, so the merge is a driver
    # bincount over collected tiny tables, not another exchange
    def finish_partial(batch: pa.Table) -> pa.Table:
        ku = batch.filter(pc.equal(batch["kind"], "u"))
        kd = batch.filter(pc.equal(batch["kind"], "d"))
        d0 = ku["d0"].to_numpy(zero_copy_only=False).astype(np.int64)
        d1 = ku["d1"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = np.concatenate([d0, d1 + 1])
        delta = np.concatenate(
            [np.ones(len(d0), np.int64), -np.ones(len(d1), np.int64)]
        )
        g = (
            pa.table(
                {
                    "day": pa.array(day, pa.int64()),
                    "delta": pa.array(delta, pa.int64()),
                    "n": pa.array(np.zeros(len(day), np.int64), pa.int64()),
                }
            )
            .group_by("day")
            .aggregate([("delta", "sum"), ("n", "sum")])
            .rename_columns(["day", "delta", "n"])
        )
        od = pa.table(
            {
                "day": kd["k"],
                "delta": pa.array(
                    np.zeros(kd.num_rows, np.int64), pa.int64()
                ),
                "n": kd["n"],
            }
        )
        return pa.concat_tables([g, od]).combine_chunks()

    ft = collect_table(
        red.map_batches(finish_partial, batch_format="pyarrow")
    )
    if ft is None or ft.num_rows == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "day": pa.array([], pa.string()),
                    "n_active": pa.array([], pa.int64()),
                }
            )
        )
    days = ft["day"].to_numpy(zero_copy_only=False).astype(np.int64)
    delta = ft["delta"].to_numpy(zero_copy_only=False).astype(np.int64)
    nobs = ft["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    # merge partials per day
    from ..arrays import unique_inverse

    udays, inv = unique_inverse(days)
    mdelta = np.zeros(len(udays), np.int64)
    np.add.at(mdelta, inv, delta)
    mobs = np.zeros(len(udays), np.int64)
    np.add.at(mobs, inv, nobs)
    run = np.cumsum(mdelta)
    omask = mobs > 0
    odays = udays[omask]
    n_active = run[np.searchsorted(udays, odays, side="right") - 1]
    labels = np.datetime_as_string(odays.astype("datetime64[D]"), unit="D")
    return ray.data.from_arrow(
        pa.table(
            {
                "day": pa.array(labels.tolist(), pa.string()),
                "n_active": pa.array(n_active, pa.int64()),
            }
        )
    )


DAILY_ACTIVE_SPANS_SQL = """
WITH spans AS (
  SELECT user_id, min(CAST(ts AS DATE)) AS d0, max(CAST(ts AS DATE)) AS d1
  FROM events GROUP BY 1
), days AS (SELECT DISTINCT CAST(ts AS DATE) AS day FROM events)
SELECT strftime(d.day, '%Y-%m-%d') AS day,
       CAST(count(*) AS BIGINT) AS n_active
FROM days d JOIN spans s ON d.day BETWEEN s.d0 AND s.d1
GROUP BY d.day ORDER BY day
"""


def part_cooccur_triangles(
    sf_dir: str, min_orders: int = 1
) -> ray.data.Dataset:
    """Triangle count of the part co-purchase graph (edges = part pairs
    co-occurring in ≥ ``min_orders`` orders) — one row:
    ``(n_triangles, n_edges, n_nodes)``.  Edge build via
    :func:`basket_pair_counts`; counting via the degree-oriented wedge
    plan in :func:`stages.graph.triangle_count`."""
    from ..stages.graph import triangle_count

    edges = basket_pair_counts(sf_dir)
    if min_orders > 1:
        edges = edges.filter(expr=f"n_orders >= {int(min_orders)}")
    return triangle_count(
        edges.select_columns(["p1", "p2"]), src_col="p1", dst_col="p2"
    )


PART_COOCCUR_TRIANGLES_SQL = """
WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
p AS (
  SELECT a.l_partkey AS x, b.l_partkey AS y
  FROM li a JOIN li b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
),
e AS (SELECT x, y FROM p GROUP BY 1, 2 HAVING count(*) >= 1),
t AS (
  SELECT CAST(count(*) AS BIGINT) AS c
  FROM e e1 JOIN e e2 ON e2.x = e1.y
            JOIN e e3 ON e3.x = e1.x AND e3.y = e2.y
)
SELECT t.c AS n_triangles,
       CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
       CAST((SELECT count(DISTINCT n) FROM
             (SELECT x AS n FROM e UNION ALL SELECT y FROM e)) AS BIGINT)
           AS n_nodes
FROM t
"""


def q7_nation_volume(
    sf_dir: str,
    nation_a: str = "NATION_1",
    nation_b: str = "NATION_2",
) -> ray.data.Dataset:
    """TPC-H Q7 shape — cross-nation shipping volume by year with the
    DISJUNCTIVE nation-pair predicate (supplier in A shipping to a
    customer in B, or vice versa): one row per (supp_nation, cust_nation,
    ship year) with integer-cents revenue.

    Scale plan: nation is a tiny driver dim; supplier and customer prune
    AT THE SCAN to the two nations; lineitem joins the pruned supplier
    side via the broadcast plan and orders⋈customer / the orderkey join
    run volume-sized through the planner; the pair predicate
    (``s_nation ≠ c_nation``, both already restricted to {A, B}) filters
    BEFORE the per-block (supp, cust, year) revenue combine, so the final
    exchange carries a handful of rows per block.  Revenue uses q3's
    pinned integer-cents kernel."""
    import pyarrow.parquet as _pq

    nat = _pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    )
    pair = nat.filter(
        pc.is_in(
            nat["n_name"],
            value_set=pa.array([nation_a, nation_b], pa.string()),
        )
    )
    nkeys = pair["n_nationkey"].combine_chunks()
    nkeys_ref = ray.put(nkeys)
    name_of = dict(
        zip(pair["n_nationkey"].to_pylist(), pair["n_name"].to_pylist())
    )

    cust = read_table(
        sf_dir, "customer", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: b.filter(
            pc.is_in(b["c_nationkey"], value_set=ray.get(nkeys_ref))
        ),
        batch_format="pyarrow",
    )
    supp = read_table(
        sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]
    ).map_batches(
        lambda b: b.filter(
            pc.is_in(b["s_nationkey"], value_set=ray.get(nkeys_ref))
        ),
        batch_format="pyarrow",
    )

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    ord_cust = equi_join(
        orders,
        cust,
        on="o_custkey",
        right_on="c_custkey",
        join_type="inner",
        left_cols=["o_orderkey"],
        right_cols=["c_nationkey"],
    )

    li = read_table(
        sf_dir,
        "lineitem",
        columns=[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )

    def rev(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        year = pc.cast(
            pc.strftime(batch["l_shipdate"], format="%Y"), pa.int64()
        )
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_suppkey": batch["l_suppkey"],
                "l_year": year,
                "rev_cents": pa.array(cents, pa.int64()),
            }
        )

    li_supp = equi_join(
        li.map_batches(rev, batch_format="pyarrow"),
        supp,
        on="l_suppkey",
        right_on="s_suppkey",
        join_type="inner",
        left_cols=["l_orderkey", "l_year", "rev_cents"],
        right_cols=["s_nationkey"],
    )

    both = equi_join(
        li_supp,
        ord_cust,
        on="l_orderkey",
        right_on="o_orderkey",
        join_type="inner",
        left_cols=["l_year", "rev_cents", "s_nationkey"],
        right_cols=["c_nationkey"],
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        keep = pc.not_equal(batch["s_nationkey"], batch["c_nationkey"])
        sub = batch.filter(keep)
        g = (
            sub.select(["s_nationkey", "c_nationkey", "l_year", "rev_cents"])
            .group_by(["s_nationkey", "c_nationkey", "l_year"])
            .aggregate([("rev_cents", "sum")])
        )
        return pa.table(
            {
                "sk": g["s_nationkey"],
                "ck": g["c_nationkey"],
                "l_year": g["l_year"],
                "rev": g["rev_cents_sum"].cast(pa.int64()),
            }
        )

    from ..stages.agg import bucket_groupby_sum

    agg = bucket_groupby_sum(
        both.map_batches(pair_partial, batch_format="pyarrow"),
        ["sk", "ck", "l_year"],
        ["rev"],
    )

    keys = pa.array(sorted(name_of), pa.int64())
    names = pa.array([name_of[k] for k in sorted(name_of)], pa.string())

    def to_name(batch: pa.Table) -> pa.Table:
        si = pc.index_in(batch["sk"], value_set=keys)
        ci = pc.index_in(batch["ck"], value_set=keys)
        return pa.table(
            {
                "supp_nation": names.take(si),
                "cust_nation": names.take(ci),
                "l_year": batch["l_year"],
                "revenue_cents": batch["rev"],
            }
        )

    return agg.map_batches(to_name, batch_format="pyarrow").sort(
        ["supp_nation", "cust_nation", "l_year"]
    )


def q7_nation_volume_sql(
    nation_a: str = "NATION_1", nation_b: str = "NATION_2"
) -> str:
    return f"""
WITH v AS (
  SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
         CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
         CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT) AS cents
  FROM supplier, lineitem, orders, customer, nation n1, nation n2
  WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
    AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
    AND c_nationkey = n2.n_nationkey
    AND ((n1.n_name = '{nation_a}' AND n2.n_name = '{nation_b}')
      OR (n1.n_name = '{nation_b}' AND n2.n_name = '{nation_a}'))
)
SELECT supp_nation, cust_nation, l_year,
       CAST(sum(cents) AS BIGINT) AS revenue_cents
FROM v GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


def q8_market_share(
    sf_dir: str,
    region: str = "ASIA",
    nation: str = "NATION_3",
    p_type: str = "ECONOMY",
    year_lo: int = 1995,
    year_hi: int = 1996,
) -> pa.Table:
    """TPC-H Q8 shape — national market share: of one part type's revenue
    sold to customers in one REGION over an order-date window, the share
    (exact integer ppm) supplied by one NATION's suppliers, per order
    year.  One row per year with data:
    ``(o_year, nation_cents, total_cents, share_ppm = 10⁶·nation //
    total)`` — the ratio-of-conditional-sums shape (ref TPC-H Q8; the
    testdata has no partsupp so this is the closest expressible form).

    Scale plan: region/nation are driver dims — the region's nation keys
    and the target nation key broadcast as scalars; customer and part
    prune AT THE SCAN (region membership / part type); orders prunes to
    the date window at the scan and joins the pruned customer side
    volume-sized through the planner; lineitem joins the pruned part
    projection through the planner FIRST (cutting it to ~1/|types|),
    tags each row's supplier nation via the broadcast supplier dim, and
    the orderkey join runs volume-sized through the planner.  The
    conditional sums collapse per block over the bounded year domain and
    merge on the driver in exact Python ints — no aggregate exchange."""
    import pyarrow.parquet as _pq

    from ..cluster import collect_table

    nat = _pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    reg = _pq.read_table(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"],
    )
    rk_col = reg.filter(pc.equal(reg["r_name"], region))["r_regionkey"]
    if len(rk_col) == 0:
        raise ValueError(f"q8_market_share: unknown region {region!r}")
    rkey = rk_col[0].as_py()
    region_nations = nat.filter(pc.equal(nat["n_regionkey"], rkey))[
        "n_nationkey"
    ].combine_chunks()
    region_nations_ref = ray.put(region_nations)
    tgt_col = nat.filter(pc.equal(nat["n_name"], nation))["n_nationkey"]
    if len(tgt_col) == 0:
        raise ValueError(f"q8_market_share: unknown nation {nation!r}")
    target = tgt_col[0].as_py()

    cust = read_table(
        sf_dir, "customer", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: b.filter(
            pc.is_in(b["c_nationkey"], value_set=ray.get(region_nations_ref))
        ).select(["c_custkey"]),
        batch_format="pyarrow",
    )

    lo, hi = _ts(year_lo), _ts(year_hi + 1)

    def ord_prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch["o_orderdate"], lo),
            pc.less(batch["o_orderdate"], hi),
        )
        sub = batch.filter(keep)
        year = pc.cast(
            pc.strftime(sub["o_orderdate"], format="%Y"), pa.int64()
        )
        return pa.table(
            {
                "o_orderkey": sub["o_orderkey"],
                "o_custkey": sub["o_custkey"],
                "o_year": year,
            }
        )

    ord_cust = equi_join(
        read_table(
            sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
        ).map_batches(ord_prep, batch_format="pyarrow"),
        cust,
        on="o_custkey",
        right_on="c_custkey",
        join_type="inner",
        left_cols=["o_orderkey", "o_year"],
        right_cols=[],
        # the region prune can filter the customer dim to zero rows
        # (no derivable schema on a fully-filtered computed stream)
        right_types={"c_custkey": pa.int64()},
    )

    part = read_table(
        sf_dir, "part", columns=["p_partkey", "p_type"]
    ).map_batches(
        lambda b: b.filter(pc.equal(b["p_type"], p_type)).select(
            ["p_partkey"]
        ),
        batch_format="pyarrow",
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_partkey": batch["l_partkey"],
                "l_suppkey": batch["l_suppkey"],
                "cents": pa.array(cents, pa.int64()),
            }
        )

    li_part = equi_join(
        read_table(
            sf_dir,
            "lineitem",
            columns=[
                "l_orderkey",
                "l_partkey",
                "l_suppkey",
                "l_extendedprice",
                "l_discount",
            ],
        ).map_batches(li_prep, batch_format="pyarrow"),
        part,
        on="l_partkey",
        right_on="p_partkey",
        join_type="inner",
        left_cols=["l_orderkey", "l_suppkey", "cents"],
        right_cols=[],
        # the p_type prune can filter the part dim to zero rows
        right_types={"p_partkey": pa.int64()},
    )

    supp = read_table(
        sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]
    ).map_batches(
        lambda b: pa.table(
            {
                "s_suppkey": b["s_suppkey"],
                "is_target": pc.cast(
                    pc.equal(b["s_nationkey"], target), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
    li_tagged = equi_join(
        li_part,
        supp,
        on="l_suppkey",
        right_on="s_suppkey",
        join_type="inner",
        left_cols=["l_orderkey", "cents"],
        right_cols=["is_target"],
    )

    joined = equi_join(
        li_tagged,
        ord_cust,
        on="l_orderkey",
        right_on="o_orderkey",
        join_type="inner",
        left_cols=["cents", "is_target"],
        right_cols=["o_year"],
        # ord_cust is itself a join over the region-pruned customer dim
        # and can be empty-computed (no derivable schema)
        right_types={"o_orderkey": pa.int64(), "o_year": pa.int64()},
    )

    def year_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_year": batch["o_year"],
                "n": pc.multiply(batch["is_target"], batch["cents"]),
                "t": batch["cents"],
            }
        )
        g = t.group_by("o_year").aggregate([("n", "sum"), ("t", "sum")])
        return pa.table(
            {
                "o_year": g["o_year"],
                "n": g["n_sum"].cast(pa.int64()),
                "t": g["t_sum"].cast(pa.int64()),
            }
        )

    t = collect_table(
        joined.map_batches(year_partial, batch_format="pyarrow")
    )
    acc: dict[int, list[int]] = {}
    if t is not None and t.num_rows:
        for y, n, tot in zip(
            t["o_year"].to_pylist(), t["n"].to_pylist(), t["t"].to_pylist()
        ):
            a = acc.setdefault(int(y), [0, 0])
            a[0] += int(n)
            a[1] += int(tot)
    years = sorted(acc)
    return pa.table(
        {
            "o_year": pa.array(years, pa.int64()),
            "nation_cents": pa.array([acc[y][0] for y in years], pa.int64()),
            "total_cents": pa.array([acc[y][1] for y in years], pa.int64()),
            "share_ppm": pa.array(
                [
                    (1_000_000 * acc[y][0]) // acc[y][1] if acc[y][1] else 0
                    for y in years
                ],
                pa.int64(),
            ),
        }
    )


def q8_market_share_sql(
    region: str = "ASIA",
    nation: str = "NATION_3",
    p_type: str = "ECONOMY",
    year_lo: int = 1995,
    year_hi: int = 1996,
) -> str:
    return f"""
WITH v AS (
  SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
         CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT) AS cents,
         CASE WHEN n2.n_name = '{nation}' THEN 1 ELSE 0 END AS tgt
  FROM part, supplier, lineitem, orders, customer,
       nation n1, nation n2, region
  WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
    AND l_orderkey = o_orderkey AND o_custkey = c_custkey
    AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey
    AND r_name = '{region}' AND s_nationkey = n2.n_nationkey
    AND o_orderdate >= TIMESTAMP '{year_lo}-01-01'
    AND o_orderdate < TIMESTAMP '{year_hi + 1}-01-01'
    AND p_type = '{p_type}'
)
SELECT o_year,
       CAST(sum(tgt * cents) AS BIGINT) AS nation_cents,
       CAST(sum(cents) AS BIGINT) AS total_cents,
       CAST(1000000 * sum(tgt * cents) // sum(cents) AS BIGINT)
         AS share_ppm
FROM v GROUP BY 1 ORDER BY 1
"""


Q8_MARKET_SHARE_SQL = q8_market_share_sql()


def _ts(y: int, m: int = 1, d: int = 1) -> pa.Scalar:
    """Timestamp[us] literal matching DuckDB ``TIMESTAMP 'y-m-d'``."""
    import datetime as _dt

    return pa.scalar(_dt.datetime(y, m, d), pa.timestamp("us"))


def _one_row_sum(
    ds: ray.data.Dataset, cols: dict[str, str]
) -> pa.Table:
    """Collect per-block single-row partials and finish the global sums on
    the driver in exact Python ints — ``cols`` maps partial→output name."""
    from ..cluster import collect_table

    t = collect_table(ds)
    out = {}
    for src, dst in cols.items():
        vals = (
            t[src].to_numpy(zero_copy_only=False)
            if t is not None and t.num_rows
            else np.array([], np.int64)
        )
        out[dst] = pa.array([int(sum(int(v) for v in vals))], pa.int64())
    return pa.table(out)


def q6_revenue_delta(
    sf_dir: str,
    year: int = 1996,
    disc_lo: float = 0.05,
    disc_hi: float = 0.07,
    max_qty: int = 24,
) -> pa.Table:
    """TPC-H Q6 shape — the forecasting-revenue-change scan: discount
    revenue (``price·discount`` in integer cents) over one ship year,
    a discount band and a quantity cap.  One row:
    ``(revenue_cents, n_items)``.

    Scale plan: the whole query is ONE column-pruned scan with a per-block
    vectorized filter + one partial-sum row per block — no exchange of any
    kind; the driver finishes over one row per block.  Float comparisons
    use the same IEEE double literals on both sides so the predicate is
    bit-identical to the SQL oracle."""
    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )
    lo, hi = _ts(year), _ts(year + 1)

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(batch["l_shipdate"], lo),
                pc.less(batch["l_shipdate"], hi),
            ),
            pc.and_(
                pc.and_(
                    pc.greater_equal(batch["l_discount"], disc_lo),
                    pc.less_equal(batch["l_discount"], disc_hi),
                ),
                pc.less(batch["l_quantity"], float(max_qty)),
            ),
        )
        sub = batch.filter(keep)
        price = sub["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = sub["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(price * disc * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "s": pa.array([int(cents.sum())], pa.int64()),
                "n": pa.array([sub.num_rows], pa.int64()),
            }
        )

    return _one_row_sum(
        li.map_batches(partial, batch_format="pyarrow"),
        {"s": "revenue_cents", "n": "n_items"},
    )


Q6_REVENUE_DELTA_SQL = """
SELECT COALESCE(CAST(sum(CAST(FLOOR(l_extendedprice * l_discount * 100 + 0.5)
                              AS BIGINT)) AS BIGINT), 0) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1997-01-01'
  AND l_discount >= 0.05 AND l_discount <= 0.07
  AND l_quantity < 24
"""


def q13_custdist(
    sf_dir: str, excluded_priority: str = "1-URGENT"
) -> pa.Table:
    """TPC-H Q13 shape — customer order-count distribution INCLUDING the
    zero-order customers of the LEFT JOIN: one row per distinct per-customer
    qualifying-order count ``c_count`` with the number of customers at that
    count, ``(custdist DESC, c_count DESC)`` ordered.

    Scale plan: NO join at all.  Orders (filtered at the scan) reduce to
    per-customer counts through one volume-sized custkey exchange; each
    reduced block then collapses to (c_count → customers) partials whose
    domain is the tiny set of distinct counts, merged on the driver; the
    zero bucket is ``count(customer) − customers_with_orders`` — the left
    join's unmatched side computed from two scalars.

    Precondition: ``orders.o_custkey ⊆ customer.c_custkey`` (the star
    schema's FK integrity, which the benchmark tables guarantee).  An
    orphan custkey would enter the distribution here while the oracle's
    LEFT JOIN from customer ignores it — the scalar zero-bucket identity
    is only the join's unmatched side under RI."""
    from ..cluster import collect_table
    from ..stages.agg import bucket_groupby_sum

    n_cust = read_table(sf_dir, "customer", columns=["c_custkey"]).count()

    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderpriority"]
    )

    def per_cust_partial(batch: pa.Table) -> pa.Table:
        sub = batch.filter(
            pc.not_equal(batch["o_orderpriority"], excluded_priority)
        )
        g = (
            sub.select(["o_custkey"])
            .group_by("o_custkey")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "o_custkey": g["o_custkey"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    per_cust = bucket_groupby_sum(
        orders.map_batches(per_cust_partial, batch_format="pyarrow"),
        ["o_custkey"],
        ["n"],
        n_buckets=assembly_buckets_for_bytes(
            table_file_bytes(sf_dir, "orders")
        ),
    )

    def dist_partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.select(["n"]).group_by("n").aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "c_count": g["n"],
                "custdist": g["count_all"].cast(pa.int64()),
            }
        )

    t = collect_table(
        per_cust.map_batches(dist_partial, batch_format="pyarrow")
    )
    counts: dict[int, int] = {}
    with_orders = 0
    if t is not None and t.num_rows:
        cc = t["c_count"].to_numpy(zero_copy_only=False)
        cd = t["custdist"].to_numpy(zero_copy_only=False)
        for c, d in zip(cc, cd):
            counts[int(c)] = counts.get(int(c), 0) + int(d)
            with_orders += int(d)
    zero = n_cust - with_orders
    if zero > 0:
        counts[0] = counts.get(0, 0) + zero
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], -kv[0]))
    return pa.table(
        {
            "c_count": pa.array([r[0] for r in rows], pa.int64()),
            "custdist": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


Q13_CUSTDIST_SQL = """
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM (
  SELECT c_custkey, CAST(count(o_custkey) AS BIGINT) AS c_count
  FROM customer LEFT JOIN orders
    ON c_custkey = o_custkey AND o_orderpriority <> '1-URGENT'
  GROUP BY c_custkey
)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


def q14_promo_ratio(
    sf_dir: str, year: int = 1997, month: int = 9
) -> pa.Table:
    """TPC-H Q14 shape — promotion revenue share for one ship month, as
    exact integer ppm: one row
    ``(promo_cents, total_cents, promo_ppm = 10⁶·promo // total)``.

    Scale plan: lineitem prunes to the month AT THE SCAN (~1% of rows),
    joins the part dimension's (partkey, is_promo) projection through the
    planner (broadcast below the plasma cap, keyed exchange above), and
    the conditional sums collapse to one partial row per block — the only
    exchange is whatever the join planner picked."""
    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )
    lo = _ts(year, month)
    hi = _ts(year + (month == 12), month % 12 + 1)

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch["l_shipdate"], lo),
            pc.less(batch["l_shipdate"], hi),
        )
        sub = batch.filter(keep)
        price = sub["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = sub["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "l_partkey": sub["l_partkey"],
                "cents": pa.array(cents, pa.int64()),
            }
        )

    part = read_table(
        sf_dir, "part", columns=["p_partkey", "p_type"]
    ).map_batches(
        lambda b: pa.table(
            {
                "p_partkey": b["p_partkey"],
                "is_promo": pc.cast(
                    pc.equal(b["p_type"], "PROMO"), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )

    joined = equi_join(
        li.map_batches(prep, batch_format="pyarrow"),
        part,
        on="l_partkey",
        right_on="p_partkey",
        join_type="inner",
        left_cols=["cents"],
        right_cols=["is_promo"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        cents = batch["cents"].to_numpy(zero_copy_only=False)
        promo = batch["is_promo"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p": pa.array([int((cents * promo).sum())], pa.int64()),
                "t": pa.array([int(cents.sum())], pa.int64()),
            }
        )

    out = _one_row_sum(
        joined.map_batches(partial, batch_format="pyarrow"),
        {"p": "promo_cents", "t": "total_cents"},
    )
    p = out["promo_cents"][0].as_py()
    t = out["total_cents"][0].as_py()
    ppm = (1_000_000 * p) // t if t else 0
    return out.append_column("promo_ppm", pa.array([ppm], pa.int64()))


Q14_PROMO_RATIO_SQL = """
WITH j AS (
  SELECT CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT) AS cents,
         CASE WHEN p_type = 'PROMO' THEN 1 ELSE 0 END AS promo
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE l_shipdate >= TIMESTAMP '1997-09-01'
    AND l_shipdate <  TIMESTAMP '1997-10-01'
)
SELECT COALESCE(CAST(sum(promo * cents) AS BIGINT), 0) AS promo_cents,
       COALESCE(CAST(sum(cents) AS BIGINT), 0) AS total_cents,
       CASE WHEN COALESCE(sum(cents), 0) = 0 THEN 0
            ELSE CAST(1000000 * sum(promo * cents) // sum(cents) AS BIGINT)
       END AS promo_ppm
FROM j
"""


def q15_top_supplier(
    sf_dir: str, year: int = 1997, quarter: int = 1
) -> ray.data.Dataset:
    """TPC-H Q15 shape — the top supplier(s) by one quarter's shipped
    revenue, ALL ties returned (the view + max-subquery semantics):
    ``(s_suppkey, s_name, total_rev)`` ordered by supplier key.

    Scale plan: lineitem prunes to the quarter at the scan and reduces to
    per-supplier revenue through one volume-sized suppkey exchange; that
    supplier-bounded table materializes once, its max is one scalar
    consumption, and the winner set (≥1 row, ties only) broadcasts
    against the supplier dim scan — the fact table never re-exchanges."""
    m0 = 3 * (quarter - 1) + 1
    lo = _ts(year, m0)
    hi = _ts(year + (m0 + 3 > 12), (m0 + 2) % 12 + 1)
    from ..stages.agg import bucket_groupby_sum

    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch["l_shipdate"], lo),
            pc.less(batch["l_shipdate"], hi),
        )
        sub = batch.filter(keep)
        price = sub["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = sub["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        g = (
            pa.table(
                {
                    "l_suppkey": sub["l_suppkey"],
                    "rev": pa.array(cents, pa.int64()),
                }
            )
            .group_by("l_suppkey")
            .aggregate([("rev", "sum")])
        )
        return pa.table(
            {
                "l_suppkey": g["l_suppkey"],
                "total_rev": g["rev_sum"].cast(pa.int64()),
            }
        )

    rev = bucket_groupby_sum(
        li.map_batches(partial, batch_format="pyarrow"),
        ["l_suppkey"],
        ["total_rev"],
        n_buckets=assembly_buckets_for_bytes(
            table_file_bytes(sf_dir, "lineitem")
        ),
    ).materialize()
    best = rev.max("total_rev")
    if best is None:  # no lineitem in the quarter → empty result
        return ray.data.from_arrow(
            pa.table(
                {
                    "s_suppkey": pa.array([], pa.int64()),
                    "s_name": pa.array([], pa.string()),
                    "total_rev": pa.array([], pa.int64()),
                }
            )
        )
    winners = rev.map_batches(
        lambda b: b.filter(pc.equal(b["total_rev"], best)),
        batch_format="pyarrow",
    )
    supp = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    out = equi_join(
        supp,
        winners,
        on="s_suppkey",
        right_on="l_suppkey",
        join_type="inner",
        left_cols=["s_suppkey", "s_name"],
        right_cols=["total_rev"],
        right_types={"l_suppkey": pa.int64(), "total_rev": pa.int64()},
    )
    return out.sort("s_suppkey")


Q15_TOP_SUPPLIER_SQL = """
WITH r AS (
  SELECT l_suppkey,
         CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS total_rev
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1997-01-01'
    AND l_shipdate <  TIMESTAMP '1997-04-01'
  GROUP BY l_suppkey
)
SELECT s_suppkey, s_name, total_rev
FROM supplier JOIN r ON s_suppkey = l_suppkey
WHERE total_rev = (SELECT max(total_rev) FROM r)
ORDER BY s_suppkey
"""


def q17_small_qty_revenue(
    sf_dir: str, brand: str = "Brand#23"
) -> pa.Table:
    """TPC-H Q17 shape — small-quantity-order revenue for one brand: the
    summed price of lineitems whose quantity is below 20% of their part's
    average quantity, plus the ``// 7`` "avg yearly" finish.  One row:
    ``(sum_cents, avg_yearly_cents)``.

    The correlated-average predicate ``qty < 0.2·avg(qty per part)`` is
    exact-integerized by cross-multiplication: ``5·n·qty < sum_qty``
    (quantities are integral by construction), so the driver hash gate
    binds bit-for-bit.

    Scale plan: the brand's partkeys prune lineitem through a planner
    left-semi join; per-part (sum_qty, n) reduces through one
    brand-part-bounded exchange; the second lineitem pass joins that
    reduced table through the planner (broadcast below the cap) and the
    threshold filter + cents sum collapse per block — two fact scans, the
    TPC-H-mandated shape for a correlated aggregate."""
    bp = read_table(
        sf_dir, "part", columns=["p_partkey", "p_brand"]
    ).map_batches(
        lambda b: b.filter(pc.equal(b["p_brand"], brand)).select(
            ["p_partkey"]
        ),
        batch_format="pyarrow",
    )

    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )

    li_brand = equi_join(
        li,
        bp,
        on="l_partkey",
        right_on="p_partkey",
        join_type="left_semi",
        left_cols=["l_partkey", "l_quantity", "l_extendedprice"],
        right_types={"p_partkey": pa.int64()},
    )

    def qty_partial(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        g = (
            pa.table(
                {"l_partkey": batch["l_partkey"], "q": pa.array(q, pa.int64())}
            )
            .group_by("l_partkey")
            .aggregate([("q", "sum"), ([], "count_all")])
        )
        return pa.table(
            {
                "l_partkey": g["l_partkey"],
                "s": g["q_sum"].cast(pa.int64()),
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    from ..stages.agg import bucket_groupby_sum

    per_part = bucket_groupby_sum(
        li_brand.map_batches(qty_partial, batch_format="pyarrow"),
        ["l_partkey"],
        ["s", "n"],
    )

    joined = equi_join(
        li,
        per_part.map_batches(
            lambda b: b.rename_columns(["pk", "s", "n"]),
            batch_format="pyarrow",
        ),
        on="l_partkey",
        right_on="pk",
        join_type="inner",
        left_cols=["l_quantity", "l_extendedprice"],
        right_cols=["s", "n"],
        right_types={"pk": pa.int64(), "s": pa.int64(), "n": pa.int64()},
    )

    def fin_partial(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        s = batch["s"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        keep = 5 * n * q < s
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        cents = np.floor(price * 100.0 + 0.5).astype(np.int64)
        return pa.table({"c": pa.array([int(cents.sum())], pa.int64())})

    out = _one_row_sum(
        joined.map_batches(fin_partial, batch_format="pyarrow"),
        {"c": "sum_cents"},
    )
    sc = out["sum_cents"][0].as_py()
    return out.append_column(
        "avg_yearly_cents", pa.array([sc // 7], pa.int64())
    )


Q17_SMALL_QTY_REVENUE_SQL = """
WITH agg AS (
  SELECT l_partkey AS pk,
         CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS s,
         CAST(count(*) AS BIGINT) AS n
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_brand = 'Brand#23'
  GROUP BY 1
),
small AS (
  SELECT CAST(FLOOR(l.l_extendedprice * 100 + 0.5) AS BIGINT) AS cents
  FROM lineitem l JOIN agg ON agg.pk = l.l_partkey
  WHERE 5 * agg.n * CAST(l.l_quantity AS BIGINT) < agg.s
)
SELECT COALESCE(CAST(sum(cents) AS BIGINT), 0) AS sum_cents,
       COALESCE(CAST(sum(cents) AS BIGINT), 0) // 7 AS avg_yearly_cents
FROM small
"""


def q4_order_priority(
    sf_dir: str, year: int = 1996, quarter: int = 3
) -> pa.Table:
    """TPC-H Q4 shape — order-priority checking: orders placed in one
    quarter having AT LEAST ONE returned lineitem (the EXISTS semi-join),
    counted per priority.  One row per priority, priority-ordered.

    Scale plan: orders prune to the quarter at the scan; the lineitem
    side reduces to per-block DISTINCT returned orderkeys BEFORE the
    planner left-semi join (map-side distinct — the exchange carries
    keys, never lineitem rows); the priority counts collapse to
    per-block partials over the 5-value priority domain and merge on the
    driver — no aggregate exchange at all."""
    from ..cluster import collect_table

    m0 = 3 * (quarter - 1) + 1
    lo = _ts(year, m0)
    hi = _ts(year + (m0 + 3 > 12), (m0 + 2) % 12 + 1)

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(b["o_orderdate"], lo),
                pc.less(b["o_orderdate"], hi),
            )
        ).select(["o_orderkey", "o_orderpriority"]),
        batch_format="pyarrow",
    )

    returned = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"]
    ).map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": pc.unique(
                    b.filter(pc.equal(b["l_returnflag"], "R"))["l_orderkey"]
                )
            }
        ),
        batch_format="pyarrow",
    )

    matched = equi_join(
        orders,
        returned,
        on="o_orderkey",
        right_on="l_orderkey",
        join_type="left_semi",
        left_cols=["o_orderpriority"],
        right_types={"l_orderkey": pa.int64()},
    )

    def prio_partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.group_by("o_orderpriority").aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "o_orderpriority": g["o_orderpriority"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    t = collect_table(
        matched.map_batches(prio_partial, batch_format="pyarrow")
    )
    counts: dict[str, int] = {}
    if t is not None and t.num_rows:
        for p, n in zip(
            t["o_orderpriority"].to_pylist(), t["n"].to_pylist()
        ):
            counts[p] = counts.get(p, 0) + int(n)
    rows = sorted(counts.items())
    return pa.table(
        {
            "o_orderpriority": pa.array([r[0] for r in rows], pa.string()),
            "order_count": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


Q4_ORDER_PRIORITY_SQL = """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '1996-07-01'
  AND o_orderdate <  TIMESTAMP '1996-10-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def q10_returned_revenue(
    sf_dir: str, year: int = 1996, quarter: int = 4, limit: int = 20
) -> ray.data.Dataset:
    """TPC-H Q10 shape — returned-item reporting: the top customers by
    revenue lost to returned lineitems on one quarter's orders, with
    nation names.  Columns ``(c_custkey, c_name, n_name,
    revenue_cents)``, ordered (revenue desc, custkey asc), LIMIT k.

    Scale plan: both fact scans prune at the source (orders to the
    quarter, lineitem to returnflag='R' with per-block (orderkey, cents)
    partial sums); the orderkey join runs volume-sized through the
    planner; per-block (custkey, cents) partials reduce through ONE
    custkey exchange; the customer dim joins via the planner and the
    tiny nation dim broadcasts; top-k is the per-block-prune → tiny sort
    pattern (the global top-k is a subset of block top-ks over the
    reduced per-customer table)."""
    import pyarrow.parquet as _pq

    from ..stages.agg import bucket_groupby_sum

    m0 = 3 * (quarter - 1) + 1
    lo = _ts(year, m0)
    hi = _ts(year + (m0 + 3 > 12), (m0 + 2) % 12 + 1)

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(b["o_orderdate"], lo),
                pc.less(b["o_orderdate"], hi),
            )
        ).select(["o_orderkey", "o_custkey"]),
        batch_format="pyarrow",
    )

    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    )

    def rev_partial(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        price = sub["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = sub["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        g = (
            pa.table(
                {
                    "l_orderkey": sub["l_orderkey"],
                    "cents": pa.array(cents, pa.int64()),
                }
            )
            .group_by("l_orderkey")
            .aggregate([("cents", "sum")])
        )
        return pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "cents": g["cents_sum"].cast(pa.int64()),
            }
        )

    joined = equi_join(
        li.map_batches(rev_partial, batch_format="pyarrow"),
        orders,
        on="l_orderkey",
        right_on="o_orderkey",
        join_type="inner",
        left_cols=["cents"],
        right_cols=["o_custkey"],
    )

    def cust_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("o_custkey").aggregate([("cents", "sum")])
        return pa.table(
            {
                "o_custkey": g["o_custkey"],
                "revenue_cents": g["cents_sum"].cast(pa.int64()),
            }
        )

    per_cust = bucket_groupby_sum(
        joined.map_batches(cust_partial, batch_format="pyarrow"),
        ["o_custkey"],
        ["revenue_cents"],
    )

    cust = read_table(
        sf_dir, "customer", columns=["c_custkey", "c_name", "c_nationkey"]
    )
    named = equi_join(
        cust,
        per_cust,
        on="c_custkey",
        right_on="o_custkey",
        join_type="inner",
        left_cols=["c_custkey", "c_name", "c_nationkey"],
        right_cols=["revenue_cents"],
        right_types={"o_custkey": pa.int64(), "revenue_cents": pa.int64()},
    )

    nat = _pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    ).sort_by("n_nationkey")
    nkeys = nat["n_nationkey"].combine_chunks().cast(pa.int64())
    nnames = nat["n_name"].combine_chunks()

    def add_nation_topk(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(
            batch["c_nationkey"].cast(pa.int64()), value_set=nkeys
        )
        t = pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "c_name": batch["c_name"],
                "n_name": nnames.take(idx),
                "revenue_cents": batch["revenue_cents"],
            }
        )
        if t.num_rows <= limit:
            return t
        order = np.lexsort(
            (
                t["c_custkey"].to_numpy(zero_copy_only=False),
                -t["revenue_cents"].to_numpy(zero_copy_only=False),
            )
        )[:limit]
        return t.take(pa.array(order))

    return (
        named.map_batches(add_nation_topk, batch_format="pyarrow")
        .sort(["revenue_cents", "c_custkey"], descending=[True, False])
        .limit(limit)
    )


Q10_RETURNED_REVENUE_SQL = """
SELECT c_custkey, c_name, n_name,
       CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= TIMESTAMP '1996-10-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY 1, 2, 3
ORDER BY revenue_cents DESC, c_custkey
LIMIT 20
"""


_Q12_HIGH = ("1-URGENT", "2-HIGH")


def q12_priority_by_status(sf_dir: str, year: int = 1997) -> pa.Table:
    """TPC-H Q12 shape — conditional counts over a fact-fact join: per
    lineitem status, how many of one ship year's lineitems belong to
    high-priority orders vs not.  Columns ``(l_linestatus,
    high_line_count, low_line_count)``, status-ordered.

    Scale plan: lineitem prunes to the year at the scan; the orderkey
    join runs volume-sized through the planner with both sides projected
    to two columns; the conditional counts collapse per block over the
    2-value status domain and merge on the driver — no aggregate
    exchange."""
    from ..cluster import collect_table

    lo, hi = _ts(year), _ts(year + 1)
    li = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_linestatus", "l_shipdate"]
    ).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(b["l_shipdate"], lo),
                pc.less(b["l_shipdate"], hi),
            )
        ).select(["l_orderkey", "l_linestatus"]),
        batch_format="pyarrow",
    )
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"]
    )
    joined = equi_join(
        li,
        orders,
        on="l_orderkey",
        right_on="o_orderkey",
        join_type="inner",
        left_cols=["l_linestatus"],
        right_cols=["o_orderpriority"],
    )

    def cond_partial(batch: pa.Table) -> pa.Table:
        high = pc.cast(
            pc.is_in(
                batch["o_orderpriority"],
                value_set=pa.array(list(_Q12_HIGH), pa.string()),
            ),
            pa.int64(),
        )
        t = pa.table(
            {
                "l_linestatus": batch["l_linestatus"],
                "h": high,
                "l": pc.subtract(pa.scalar(1, pa.int64()), high),
            }
        )
        g = t.group_by("l_linestatus").aggregate([("h", "sum"), ("l", "sum")])
        return pa.table(
            {
                "l_linestatus": g["l_linestatus"],
                "h": g["h_sum"].cast(pa.int64()),
                "l": g["l_sum"].cast(pa.int64()),
            }
        )

    t = collect_table(
        joined.map_batches(cond_partial, batch_format="pyarrow")
    )
    acc: dict[str, list[int]] = {}
    if t is not None and t.num_rows:
        for s, h, lcnt in zip(
            t["l_linestatus"].to_pylist(),
            t["h"].to_pylist(),
            t["l"].to_pylist(),
        ):
            a = acc.setdefault(s, [0, 0])
            a[0] += int(h)
            a[1] += int(lcnt)
    rows = sorted(acc.items())
    return pa.table(
        {
            "l_linestatus": pa.array([r[0] for r in rows], pa.string()),
            "high_line_count": pa.array(
                [r[1][0] for r in rows], pa.int64()
            ),
            "low_line_count": pa.array(
                [r[1][1] for r in rows], pa.int64()
            ),
        }
    )


Q12_PRIORITY_BY_STATUS_SQL = """
SELECT l_linestatus,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
  AND l_shipdate <  TIMESTAMP '1998-01-01'
GROUP BY 1 ORDER BY 1
"""


def q22_idle_customers(sf_dir: str, cutoff_year: int = 2000) -> pa.Table:
    """TPC-H Q22 shape — the lost-customers query: customers with an
    above-average positive account balance and NO orders since
    ``cutoff_year`` (churned — every synthetic customer has SOME order,
    so the classic no-orders-ever variant is vacuous here; the recency
    cutoff keeps the NOT-EXISTS anti-join shape with a non-trivial
    answer), grouped by market segment.  One row per segment:
    ``(c_mktsegment, numcust, totacctbal_cents)``, segment-ordered.

    The above-average predicate is exact-integerized by
    cross-multiplication over cents (``cents·n > sum_cents`` with
    (sum, n) taken over positive balances), so no float average is ever
    compared on either side.

    Scale plan: pass 1 reduces customer to TWO scalars (positive-balance
    cents sum + count) via per-block partials merged on the driver;
    pass 2 filters customer by the integer threshold, anti-joins the
    per-block-DISTINCT order custkeys through the planner, and collapses
    to per-block (segment, n, sum) partials merged on the driver over
    the bounded segment domain — two dim scans, one fact scan reduced to
    distinct keys, no aggregate exchange."""
    from ..cluster import collect_table

    cust_cols = ["c_custkey", "c_acctbal", "c_mktsegment"]
    cust = read_table(sf_dir, "customer", columns=cust_cols)

    def bal_partial(batch: pa.Table) -> pa.Table:
        bal = batch["c_acctbal"].to_numpy(zero_copy_only=False)
        pos = bal > 0.0
        cents = np.floor(bal[pos] * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "s": pa.array([int(cents.sum())], pa.int64()),
                "n": pa.array([int(pos.sum())], pa.int64()),
            }
        )

    t = collect_table(cust.map_batches(bal_partial, batch_format="pyarrow"))
    sum_cents = int(sum(v.as_py() for v in t["s"])) if t is not None else 0
    n_pos = int(sum(v.as_py() for v in t["n"])) if t is not None else 0

    def rich(batch: pa.Table) -> pa.Table:
        bal = batch["c_acctbal"].to_numpy(zero_copy_only=False)
        cents = np.floor(bal * 100.0 + 0.5).astype(np.int64)
        keep = (bal > 0.0) & (cents * n_pos > sum_cents)
        return pa.table(
            {
                "c_custkey": pa.array(
                    batch["c_custkey"].to_numpy(zero_copy_only=False)[keep],
                    pa.int64(),
                ),
                "c_mktsegment": batch["c_mktsegment"].filter(
                    pa.array(keep)
                ),
                "cents": pa.array(cents[keep], pa.int64()),
            }
        )

    cut = _ts(cutoff_year)
    okeys = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderdate"]
    ).map_batches(
        lambda b: pa.table(
            {
                "o_custkey": pc.unique(
                    b.filter(
                        pc.greater_equal(b["o_orderdate"], cut)
                    )["o_custkey"]
                )
            }
        ),
        batch_format="pyarrow",
    )

    idle = equi_join(
        cust.map_batches(rich, batch_format="pyarrow"),
        okeys,
        on="c_custkey",
        right_on="o_custkey",
        join_type="left_anti",
        left_cols=["c_mktsegment", "cents"],
        right_types={"o_custkey": pa.int64()},
    )

    def seg_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("c_mktsegment").aggregate(
            [("cents", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "c_mktsegment": g["c_mktsegment"],
                "s": g["cents_sum"].cast(pa.int64()),
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    st = collect_table(idle.map_batches(seg_partial, batch_format="pyarrow"))
    acc: dict[str, list[int]] = {}
    if st is not None and st.num_rows:
        for seg, s, n in zip(
            st["c_mktsegment"].to_pylist(),
            st["s"].to_pylist(),
            st["n"].to_pylist(),
        ):
            a = acc.setdefault(seg, [0, 0])
            a[0] += int(n)
            a[1] += int(s)
    rows = sorted(acc.items())
    return pa.table(
        {
            "c_mktsegment": pa.array([r[0] for r in rows], pa.string()),
            "numcust": pa.array([r[1][0] for r in rows], pa.int64()),
            "totacctbal_cents": pa.array(
                [r[1][1] for r in rows], pa.int64()
            ),
        }
    )


Q22_IDLE_CUSTOMERS_SQL = """
WITH pos AS (
  SELECT CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS cents
  FROM customer WHERE c_acctbal > 0
),
thresh AS (
  SELECT CAST(sum(cents) AS BIGINT) AS s, CAST(count(*) AS BIGINT) AS n
  FROM pos
)
SELECT c_mktsegment,
       CAST(count(*) AS BIGINT) AS numcust,
       CAST(sum(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS totacctbal_cents
FROM customer, thresh
WHERE c_acctbal > 0
  AND CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) * thresh.n > thresh.s
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderdate >= TIMESTAMP '2000-01-01')
GROUP BY 1 ORDER BY 1
"""


_Q19_BRANCHES: tuple[tuple[str, int, int, int], ...] = (
    ("Brand#12", 5, 1, 11),
    ("Brand#23", 10, 10, 20),
    ("Brand#34", 15, 20, 30),
)


def q19_disjunctive_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q19 shape — revenue under a 3-branch DISJUNCTIVE
    (brand, size-range, quantity-range) predicate.  One row:
    ``(revenue_cents, n_items)``.

    Scale plan: the part scan evaluates the (brand, size) half of every
    branch into a per-part branch BITMASK and keeps only parts matching
    some branch (~3 brands of 25) — that pruned (partkey, mask) table
    joins lineitem through the planner, and the per-row quantity check
    resolves the surviving branch bits vectorized; sums collapse per
    block.  The disjunction never becomes three scans or a cross
    product."""
    part = read_table(
        sf_dir, "part", columns=["p_partkey", "p_brand", "p_size"]
    )

    def mask_batch(batch: pa.Table) -> pa.Table:
        brand = batch["p_brand"].to_numpy(zero_copy_only=False)
        size = batch["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.zeros(len(brand), np.int64)
        for i, (b, smax, _, _) in enumerate(_Q19_BRANCHES):
            hit = ((brand == b) & (size >= 1) & (size <= smax)).astype(
                np.int64
            )
            mask |= hit << i
        keep = mask > 0
        return pa.table(
            {
                "p_partkey": pa.array(
                    batch["p_partkey"]
                    .to_numpy(zero_copy_only=False)[keep],
                    pa.int64(),
                ),
                "mask": pa.array(mask[keep], pa.int64()),
            }
        )

    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    joined = equi_join(
        li,
        part.map_batches(mask_batch, batch_format="pyarrow"),
        on="l_partkey",
        right_on="p_partkey",
        join_type="inner",
        left_cols=["l_quantity", "l_extendedprice", "l_discount"],
        right_cols=["mask"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        mask = batch["mask"].to_numpy(zero_copy_only=False)
        ok = np.zeros(len(q), bool)
        for i, (_, _, qlo, qhi) in enumerate(_Q19_BRANCHES):
            ok |= ((mask >> i) & 1).astype(bool) & (q >= qlo) & (q <= qhi)
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)[ok]
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)[ok]
        cents = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "s": pa.array([int(cents.sum())], pa.int64()),
                "n": pa.array([int(ok.sum())], pa.int64()),
            }
        )

    return _one_row_sum(
        joined.map_batches(partial, batch_format="pyarrow"),
        {"s": "revenue_cents", "n": "n_items"},
    )


Q19_DISJUNCTIVE_REVENUE_SQL = """
SELECT COALESCE(CAST(sum(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100
                                    + 0.5) AS BIGINT)) AS BIGINT), 0)
           AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
       AND l_quantity BETWEEN 1 AND 11)
   OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
       AND l_quantity BETWEEN 10 AND 20)
   OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15
       AND l_quantity BETWEEN 20 AND 30)
"""


def value_mad_by_type(sf_dir: str) -> ray.data.Dataset:
    """Robust dispersion per event type: the median absolute deviation
    ``MAD = median(|cents − median(cents)|)`` over integer cents (DuckDB
    ``quantile_disc`` convention at both stages) — the outlier-immune
    scale estimate that pairs with :func:`value_winsorized_by_type`'s
    robust location.  One row per type: median, MAD, row count.

    Shape: ONE histogram pass (:func:`stages.agg.group_median_mad` —
    exchange volume is types × distinct cents, independent of row
    count).  The deviation multiset is a pure fold of each type's value
    histogram around its median, so the count, the median and the MAD
    all come out of one finalize walk — the naive two-scan formulation's
    second corpus pass and medians broadcast are gone."""
    from ..cluster import collect_table
    from ..stages.agg import group_median_mad

    events = read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "cents": _cents(batch["value"]),
            }
        )

    cents = events.map_batches(prep, batch_format="pyarrow")
    t = collect_table(group_median_mad(cents, ["event_type"], "cents"))
    if t is None or t.num_rows == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "median_cents": pa.array([], pa.int64()),
                    "mad_cents": pa.array([], pa.int64()),
                }
            )
        )
    t = t.sort_by("event_type")
    return ray.data.from_arrow(
        pa.table(
            {
                "event_type": t["event_type"],
                "n": t["n"],
                "median_cents": t["median"].cast(pa.int64()),
                "mad_cents": t["mad"].cast(pa.int64()),
            }
        )
    )


VALUE_MAD_SQL = """
WITH c AS (
  SELECT event_type, CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
m AS (
  SELECT event_type, quantile_disc(cents, 0.5) AS med
  FROM c GROUP BY 1
)
SELECT c.event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(any_value(m.med) AS BIGINT) AS median_cents,
       CAST(quantile_disc(abs(c.cents - m.med), 0.5) AS BIGINT) AS mad_cents
FROM c JOIN m USING (event_type)
GROUP BY 1 ORDER BY 1
"""


def ccnet_buckets(sf_dir: str) -> ray.data.Dataset:
    """CCNet-style quality bucketing (Wenzek et al. 2020): per language,
    split the corpus into ``head`` / ``middle`` / ``tail`` terciles of
    language-model probability — here the engine's own integer LM proxy
    (:func:`doc_lm_score` ``mean_cond_ppm``; high = corpus-probable =
    head, the bucket CCNet trains on first).  Tercile assignment is SQL
    ``ntile(3)`` over the total order ``(mean_cond_ppm DESC, doc_id)``,
    so the split replicates exactly.

    Shape: the LM scoring pipeline's own two passes with ``lang`` carried
    through the scoring scan (``doc_lm_score(carry_cols=…)`` — no
    doc-keyed join at all), and ONE lang-keyed exchange for the ntile
    walk (:func:`stages.windows.group_ntile`) — the exchange carries one
    row per document, never text."""
    from ..stages.windows import group_ntile

    lm = doc_lm_score(sf_dir, carry_cols=("lang",)).select_columns(
        ["doc_id", "lang", "mean_cond_ppm"]
    )
    t = group_ntile(
        lm,
        keys=["lang"],
        order_cols=[("mean_cond_ppm", "descending"), ("doc_id", "ascending")],
        n_tiles=3,
    )

    _LABELS = np.array(["head", "middle", "tail"])

    def label(batch: pa.Table) -> pa.Table:
        tile = batch["tile"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "mean_cond_ppm": batch["mean_cond_ppm"],
                "bucket": pa.array(_LABELS[tile - 1], pa.string()),
            }
        )

    return t.map_batches(label, batch_format="pyarrow").sort("doc_id")


CCNET_BUCKETS_SQL = f"""
WITH lm AS ({DOC_LM_SCORE_SQL}),
j AS (
  SELECT lm.doc_id, d.lang, lm.mean_cond_ppm
  FROM lm JOIN documents d USING (doc_id)
),
t AS (
  SELECT doc_id, lang, mean_cond_ppm,
         ntile(3) OVER (PARTITION BY lang
                        ORDER BY mean_cond_ppm DESC, doc_id) AS tile
  FROM j
)
SELECT doc_id, lang, mean_cond_ppm,
       CASE tile WHEN 1 THEN 'head' WHEN 2 THEN 'middle' ELSE 'tail' END
           AS bucket
FROM t ORDER BY doc_id
"""


def part_kcore(
    sf_dir: str, *, k: int = 3, min_orders: int = 2
) -> ray.data.Dataset:
    """k-core of the part co-purchase graph (edges = part pairs
    co-purchased in ≥ ``min_orders`` orders): the dense backbone left
    after iteratively peeling every node with fewer than ``k`` in-graph
    neighbors — the graph-curation primitive for community seeds /
    recommendation candidates.  One row per core node with its in-core
    degree.  Edge build via :func:`basket_pair_counts` (one keyed
    exchange); peel via :func:`stages.graph.kcore_members` (auto
    local-vs-distributed, plan-equality tested)."""
    from ..stages.graph import kcore_members

    edges = basket_pair_counts(sf_dir)
    if min_orders > 1:
        edges = edges.filter(expr=f"n_orders >= {int(min_orders)}")
    return kcore_members(
        edges.select_columns(["p1", "p2"]), k=k, u_col="p1", v_col="p2"
    )


def part_kcore_sql(k: int = 3, min_orders: int = 2, rounds: int = 24) -> str:
    """Unrolled peel oracle: ``rounds`` chained MATERIALIZED CTEs (DuckDB
    inlines plain CTEs, and each round references the previous twice —
    unmaterialized the expansion is exponential) each keeping nodes with
    ≥ k alive neighbors; exact whenever the peel converges within
    ``rounds`` (measured: 10 rounds at sf0.01, 0 at sf0.001 — the 24
    default gives >2× margin); a fixpoint guard in the final WHERE makes
    the oracle itself error() instead of silently returning a superset
    if the peel ever needs more rounds."""
    head = f"""
WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS (
  SELECT a.l_partkey AS u, b.l_partkey AS v
  FROM li a JOIN li b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2 HAVING count(*) >= {min_orders}
),
bidir AS MATERIALIZED (
  SELECT u, v FROM e UNION ALL SELECT v AS u, u AS v FROM e
),
a0 AS MATERIALIZED (SELECT DISTINCT u AS node FROM bidir)"""
    steps = []
    for r in range(1, rounds + 1):
        steps.append(
            f""",
a{r} AS MATERIALIZED (
  SELECT b.u AS node FROM bidir b
  JOIN a{r - 1} x ON b.u = x.node
  JOIN a{r - 1} y ON b.v = y.node
  GROUP BY 1 HAVING count(*) >= {k}
)"""
        )
    tail = f"""
SELECT b.u AS node, CAST(count(*) AS BIGINT) AS degree
FROM bidir b
JOIN a{rounds} x ON b.u = x.node
JOIN a{rounds} y ON b.v = y.node
WHERE CASE WHEN (SELECT count(*) FROM a{rounds})
                = (SELECT count(*) FROM a{rounds - 1})
           THEN TRUE
           ELSE error('part_kcore oracle: peel not converged within '
                      || '{rounds} rounds — raise rounds')
      END
GROUP BY 1 ORDER BY 1"""
    return head + "".join(steps) + tail


def doc_len_histogram(
    sf_dir: str, *, bin_width: int = 200
) -> ray.data.Dataset:
    """Equi-width histogram of document length (``n_chars``) per language —
    the distribution diagnostic every corpus release ships.  One row per
    (lang, bin): ``bin_lo`` (inclusive lower edge), doc count, total chars.

    Shape: bin id is a pure integer floor-division per row, so blocks
    reduce to (lang, bin) partials in C++ and ONE coarse-bucket exchange
    carries histogram rows (lang × occupied-bin bounded), never documents.
    """
    from ..stages.agg import bucket_groupby_sum

    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        nc = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table(
            {
                "lang": batch["lang"],
                "bin_lo": pa.array((nc // bin_width) * bin_width, pa.int64()),
                "n_chars": pa.array(nc, pa.int64()),
            }
        )
        g = t.group_by(["lang", "bin_lo"]).aggregate(
            [([], "count_all"), ("n_chars", "sum")]
        )
        return pa.table(
            {
                "lang": g["lang"],
                "bin_lo": g["bin_lo"],
                "n_docs": g["count_all"].cast(pa.int64()),
                "sum_chars": g["n_chars_sum"].cast(pa.int64()),
            }
        )

    return bucket_groupby_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang", "bin_lo"],
        ["n_docs", "sum_chars"],
    ).sort(["lang", "bin_lo"])


DOC_LEN_HISTOGRAM_SQL = """
SELECT lang,
       (n_chars // 200) * 200 AS bin_lo,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents
GROUP BY 1, 2
ORDER BY lang, bin_lo
"""


def part_clustering_top(sf_dir: str, k: int = 25) -> ray.data.Dataset:
    """Top-k parts by local clustering coefficient in the co-purchase
    graph (ties → lower part id) — "which parts sit in the densest
    co-purchase communities".  Columns: node, degree, n_triangles,
    clustering_ppm."""
    from ..stages.graph import clustering_coefficients

    edges = basket_pair_counts(sf_dir).select_columns(["p1", "p2"])
    return clustering_coefficients(edges, src_col="p1", dst_col="p2").limit(k)


PART_CLUSTERING_TOP_SQL = """
WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
p AS (
  SELECT a.l_partkey AS x, b.l_partkey AS y
  FROM li a JOIN li b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
),
e AS (SELECT x, y FROM p GROUP BY 1, 2),
tri AS (
  SELECT e1.x AS a, e1.y AS b, e2.y AS c
  FROM e e1 JOIN e e2 ON e2.x = e1.y
            JOIN e e3 ON e3.x = e1.x AND e3.y = e2.y
),
tn AS (
  SELECT n, CAST(count(*) AS BIGINT) AS t FROM (
    SELECT a AS n FROM tri UNION ALL SELECT b FROM tri
    UNION ALL SELECT c FROM tri
  ) GROUP BY 1
),
deg AS (
  SELECT n, CAST(count(*) AS BIGINT) AS d FROM (
    SELECT x AS n FROM e UNION ALL SELECT y AS n FROM e
  ) GROUP BY 1
)
SELECT deg.n AS node, deg.d AS degree,
       COALESCE(tn.t, 0) AS n_triangles,
       CASE WHEN deg.d >= 2
            THEN 2000000 * COALESCE(tn.t, 0) // (deg.d * (deg.d - 1))
            ELSE 0 END AS clustering_ppm
FROM deg LEFT JOIN tn ON tn.n = deg.n
ORDER BY clustering_ppm DESC, node
LIMIT 25
"""


def value_winsorized_by_type(sf_dir: str) -> ray.data.Dataset:
    """Winsorized robust statistics per event type: clamp value cents at
    the EXACT per-type p05/p95 discrete quantiles (DuckDB
    ``quantile_disc`` convention), then report the bounds and the clamped
    count/sum/mean — the outlier-robust aggregate every metrics pipeline
    wants when a handful of extreme values dominate a plain mean.

    Shape: ONE histogram pass (:func:`stages.agg.group_winsorized` —
    exchange volume is groups × distinct cents, independent of row
    count): the bounds, the clamped sum and the count are all functions
    of each type's (cents, count) histogram, so the naive two quantile
    scans + clamp scan collapse into one finalize walk.  Mean is the
    single deterministic ``sum::DOUBLE / n`` division per group,
    replicated verbatim in SQL."""
    from ..stages.agg import group_winsorized

    events = read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "cents": _cents(batch["value"]),
            }
        )

    cents = events.map_batches(prep, batch_format="pyarrow")
    stats = group_winsorized(cents, ["event_type"], "cents", 0.05, 0.95)

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "lo_cents": batch["lo"].cast(pa.int64()),
                "hi_cents": batch["hi"].cast(pa.int64()),
                "n": batch["n"],
                "sum_winsorized_cents": batch["s"],
                "mean_winsorized_cents": batch["mean"],
            }
        )

    return stats.map_batches(rename, batch_format="pyarrow").sort(
        "event_type"
    )


VALUE_WINSORIZED_SQL = """
WITH c AS (
  SELECT event_type, CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
b AS (
  SELECT event_type,
         quantile_disc(cents, 0.05) AS lo,
         quantile_disc(cents, 0.95) AS hi
  FROM c GROUP BY 1
),
w AS (
  SELECT c.event_type, least(greatest(c.cents, b.lo), b.hi) AS cc
  FROM c JOIN b USING (event_type)
)
SELECT w.event_type,
       CAST(b.lo AS BIGINT) AS lo_cents,
       CAST(b.hi AS BIGINT) AS hi_cents,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(cc) AS BIGINT) AS sum_winsorized_cents,
       CAST(sum(cc) AS DOUBLE) / count(*) AS mean_winsorized_cents
FROM w JOIN b USING (event_type)
GROUP BY 1, 2, 3
ORDER BY 1
"""


def value_equidepth_by_type(sf_dir: str, *, n_tiles: int = 8) -> ray.data.Dataset:
    """Equi-depth value histogram per event type — one row per non-empty
    ``ntile(n_tiles)`` tile over integer cents with its row count and
    cents min/max: the bucketing every monitoring/binning pipeline wants
    when value distributions are skewed (equal POPULATION per bin, not
    equal width — compare :func:`curation.doc_len_histogram`).

    Shape: :func:`stages.agg.group_equidepth` — per-block (type, cents)
    histogram partials in C++, ONE keyed exchange whose volume is types ×
    distinct cents per block (independent of row count), vectorized
    searchsorted tile walk per bucket task.  Exactly DuckDB's ntile fill
    rule, tie-order invariant by construction."""
    from ..stages.agg import group_equidepth

    events = read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "cents": _cents(batch["value"]),
            }
        )

    return group_equidepth(
        events.map_batches(prep, batch_format="pyarrow"),
        ["event_type"],
        "cents",
        n_tiles,
    ).sort(["event_type", "tile"])


VALUE_EQUIDEPTH_SQL = """
WITH c AS (
  SELECT event_type, CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
t AS (
  SELECT event_type, cents,
         ntile(8) OVER (PARTITION BY event_type ORDER BY cents) AS tile
  FROM c
)
SELECT event_type,
       CAST(tile AS BIGINT) AS tile,
       CAST(count(*) AS BIGINT) AS n_rows,
       min(cents) AS min_value,
       max(cents) AS max_value
FROM t GROUP BY 1, 2 ORDER BY 1, 2
"""


def type_daily_ffill(sf_dir: str) -> ray.data.Dataset:
    """Calendar gap-fill with forward fill — the time-series densification
    primitive: one row per (event_type, observed day) carrying the day's
    LAST value (ts desc, event_id desc — the CDC winner rule) and, on days
    where a type had no event, the most recent earlier value carried
    forward (NULL before a type's first observation).

    Shape: :func:`stages.agg.latest_by_key` reduces the corpus to one row
    per (type, day) — map-side single-candidate-per-block, ONE keyed
    exchange of candidates only; the fill runs on the driver over that
    (types × observed-days)-bounded table: one searchsorted per type
    against the global day calendar.  The corpus is never expanded to the
    grid distributively — grid size is calendar-bounded by construction.
    """
    from ..cluster import collect_table
    from ..stages.agg import latest_by_key

    US_PER_DAY = 86_400_000_000

    events = read_table(
        sf_dir, "events", columns=["event_type", "ts", "event_id", "value"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64())
        return pa.table(
            {
                "event_type": batch["event_type"],
                "day": pc.divide(us, US_PER_DAY),
                "ts_us": us,
                "event_id": batch["event_id"],
                "cents": _cents(batch["value"]),
            }
        )

    last = collect_table(
        latest_by_key(
            events.map_batches(prep, batch_format="pyarrow"),
            ["event_type", "day"],
            order_col="ts_us",
            tiebreak_col="event_id",
        )
    )
    if last is None:
        return ray.data.from_arrow(
            pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "day": pa.array([], pa.string()),
                    "filled_cents": pa.array([], pa.int64()),
                }
            )
        )
    lt = last.sort_by([("event_type", "ascending"), ("day", "ascending")])
    types_arr = lt["event_type"]
    if isinstance(types_arr, pa.ChunkedArray):
        types_arr = types_arr.combine_chunks()
    days_l = lt["day"].to_numpy(zero_copy_only=False).astype(np.int64)
    vals_l = lt["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
    cal = np.unique(days_l)  # every observed day has ≥1 typed event
    labels = np.datetime_as_string(cal.astype("datetime64[D]"), unit="D")
    out_type, out_day, out_val, out_valid = [], [], [], []
    enc = types_arr.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    for code in np.unique(codes):
        sel = codes == code
        td, tv = days_l[sel], vals_l[sel]
        idx = np.searchsorted(td, cal, side="right") - 1
        valid = idx >= 0
        filled = np.where(valid, tv[np.maximum(idx, 0)], 0)
        t_name = enc.dictionary[int(code)].as_py()
        out_type.extend([t_name] * len(cal))
        out_day.extend(labels.tolist())
        out_val.extend(filled.tolist())
        out_valid.extend(valid.tolist())
    vals = pa.array(
        [v if ok else None for v, ok in zip(out_val, out_valid)],
        pa.int64(),
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "event_type": pa.array(out_type, pa.string()),
                "day": pa.array(out_day, pa.string()),
                "filled_cents": vals,
            }
        )
    ).sort(["event_type", "day"])


TYPE_DAILY_FFILL_SQL = """
WITH last AS (
  SELECT event_type, d, cents FROM (
    SELECT event_type, CAST(ts AS DATE) AS d,
           CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS cents,
           row_number() OVER (
             PARTITION BY event_type, CAST(ts AS DATE)
             ORDER BY ts DESC, event_id DESC
           ) AS rn
    FROM events
  ) WHERE rn = 1
),
days AS (SELECT DISTINCT CAST(ts AS DATE) AS d FROM events),
grid AS (
  SELECT t.event_type, days.d
  FROM (SELECT DISTINCT event_type FROM events) t, days
)
SELECT g.event_type, strftime(g.d, '%Y-%m-%d') AS day,
       (SELECT l.cents FROM last l
        WHERE l.event_type = g.event_type AND l.d <= g.d
        ORDER BY l.d DESC LIMIT 1) AS filled_cents
FROM grid g
ORDER BY g.event_type, day
"""


def q9_profit_by_nation(sf_dir: str, name_word: str = "widget") -> pa.Table:
    """TPC-H Q9 shape — product-type profit by supplier nation and order
    year: for parts whose name contains ``name_word``, per-(nation, year)
    profit ``sum(rev_cents − cost_cents·qty)`` where the revenue is q3's
    pinned integer-cents kernel and the unit cost is ``p_retailprice`` in
    cents (the testdata has no partsupp, so the retail price stands in
    for ``ps_supplycost`` — the five-table join + name-LIKE prune +
    profit-expression shape of ref TPC-H Q9 is unchanged).  One row per
    (nation, order year), name-then-year ordered; profit may be negative.

    Scale plan: nation is a tiny driver dim; part prunes AT THE SCAN to
    the name match (~1/|name words| of the dim) and ships through the
    planner join (broadcast under the cap); lineitem scans once, joins
    the pruned part projection FIRST (cutting the fact stream), tags
    supplier nation via the broadcast supplier dim, and the orderkey
    join runs volume-sized through the planner.  The profit sums
    collapse per block over the bounded (25 nations × ~7 years) domain
    and merge on the driver in exact Python ints — no aggregate
    exchange.  Per-row |profit| < 2⁴⁰ cents and per-block partial sums
    stay far inside int64 for any realistic block size."""
    import pyarrow.parquet as _pq

    from ..cluster import collect_table

    nat = _pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"],
    )
    name_of = {
        int(k): v
        for k, v in zip(
            nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()
        )
    }

    def part_prep(batch: pa.Table) -> pa.Table:
        sub = batch.filter(
            pc.match_substring(batch["p_name"], name_word)
        )
        cost = np.floor(
            sub["p_retailprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "p_partkey": sub["p_partkey"],
                "cost_cents": pa.array(cost, pa.int64()),
            }
        )

    part = read_table(
        sf_dir, "part", columns=["p_partkey", "p_name", "p_retailprice"]
    ).map_batches(part_prep, batch_format="pyarrow")

    def li_prep(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        rev = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_partkey": batch["l_partkey"],
                "l_suppkey": batch["l_suppkey"],
                "rev_cents": pa.array(rev, pa.int64()),
                "qty": pa.array(qty, pa.int64()),
            }
        )

    li_part = equi_join(
        read_table(
            sf_dir,
            "lineitem",
            columns=[
                "l_orderkey",
                "l_partkey",
                "l_suppkey",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
            ],
        ).map_batches(li_prep, batch_format="pyarrow"),
        part,
        on="l_partkey",
        right_on="p_partkey",
        join_type="inner",
        left_cols=["l_orderkey", "l_suppkey", "rev_cents", "qty"],
        right_cols=["cost_cents"],
        # the name prune can filter the part dim to zero rows
        right_types={"p_partkey": pa.int64(), "cost_cents": pa.int64()},
    )

    def profit(batch: pa.Table) -> pa.Table:
        rev = batch["rev_cents"].to_numpy(zero_copy_only=False)
        cost = batch["cost_cents"].to_numpy(zero_copy_only=False)
        qty = batch["qty"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_suppkey": batch["l_suppkey"],
                "profit_cents": pa.array(rev - cost * qty, pa.int64()),
            }
        )

    supp = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    li_supp = equi_join(
        li_part.map_batches(profit, batch_format="pyarrow"),
        supp,
        on="l_suppkey",
        right_on="s_suppkey",
        join_type="inner",
        left_cols=["l_orderkey", "profit_cents"],
        right_cols=["s_nationkey"],
        # a name_word matching NO part empties this computed side
        left_types={
            "l_orderkey": pa.int64(),
            "l_suppkey": pa.int64(),
            "profit_cents": pa.int64(),
        },
    )

    def ord_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "o_year": pc.cast(
                    pc.strftime(batch["o_orderdate"], format="%Y"), pa.int64()
                ),
            }
        )

    joined = equi_join(
        li_supp,
        read_table(
            sf_dir, "orders", columns=["o_orderkey", "o_orderdate"]
        ).map_batches(ord_prep, batch_format="pyarrow"),
        on="l_orderkey",
        right_on="o_orderkey",
        join_type="inner",
        left_cols=["profit_cents", "s_nationkey"],
        right_cols=["o_year"],
        # a name_word matching NO part empties the computed left side
        # (no derivable schema); s_nationkey rides through the broadcast
        # join with the supplier scan's own int32
        left_types={
            "l_orderkey": pa.int64(),
            "profit_cents": pa.int64(),
            "s_nationkey": pa.int32(),
        },
    )

    def nation_year_partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.select(["s_nationkey", "o_year", "profit_cents"])
            .group_by(["s_nationkey", "o_year"])
            .aggregate([("profit_cents", "sum")])
        )
        return pa.table(
            {
                "nk": g["s_nationkey"].cast(pa.int64()),
                "o_year": g["o_year"],
                "profit": g["profit_cents_sum"].cast(pa.int64()),
            }
        )

    t = collect_table(
        joined.map_batches(nation_year_partial, batch_format="pyarrow")
    )
    acc: dict[tuple[str, int], int] = {}
    if t is not None and t.num_rows:
        for nk, y, p in zip(
            t["nk"].to_pylist(), t["o_year"].to_pylist(), t["profit"].to_pylist()
        ):
            key = (name_of[int(nk)], int(y))
            acc[key] = acc.get(key, 0) + int(p)
    rows = sorted(acc.items())
    return pa.table(
        {
            "nation": pa.array([k[0] for k, _ in rows], pa.string()),
            "o_year": pa.array([k[1] for k, _ in rows], pa.int64()),
            "profit_cents": pa.array([v for _, v in rows], pa.int64()),
        }
    )


def q9_profit_by_nation_sql(name_word: str = "widget") -> str:
    return f"""
WITH v AS (
  SELECT n_name AS nation,
         CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
         CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT)
           - CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT)
             * CAST(l_quantity AS BIGINT) AS profit_cents
  FROM part, supplier, lineitem, orders, nation
  WHERE s_suppkey = l_suppkey AND p_partkey = l_partkey
    AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
    AND p_name LIKE '%{name_word}%'
)
SELECT nation, o_year, CAST(sum(profit_cents) AS BIGINT) AS profit_cents
FROM v GROUP BY 1, 2 ORDER BY 1, 2
"""


Q9_PROFIT_BY_NATION_SQL = q9_profit_by_nation_sql()


def q21_waiting_suppliers(sf_dir: str, limit: int = 100) -> pa.Table:
    """TPC-H Q21 shape — the lone failing supplier of multi-supplier
    orders: over finished (``o_orderstatus = 'F'``) orders whose
    lineitems come from AT LEAST two distinct suppliers (the EXISTS
    self-join) and where EXACTLY ONE supplier has returned
    (``l_returnflag = 'R'``) lines (the NOT-EXISTS self-join), count each
    such supplier's qualifying returned lines — ``numwait`` desc,
    name-tie-broken, top ``limit``.  (Ref TPC-H Q21 flags failure by
    ``l_receiptdate > l_commitdate``; the testdata carries neither
    column, so the return flag is the failure marker — the correlated
    EXISTS + NOT-EXISTS double fact-self-join shape is unchanged.)

    Scale plan: both correlated subqueries collapse to per-order
    supplier statistics — a returned line l1 qualifies iff its order is
    'F', spans ≥ 2 distinct suppliers and has exactly ONE failing
    supplier (necessarily l1's own).  Each block reduces lineitem to
    per-(orderkey, suppkey) partials in C++ (fail_any, fail_rows); the
    F-orderkeys from the pruned orders scan ride the SAME orderkey-keyed
    sort exchange as marker rows (suppkey = −1) — ONE volume-sized
    exchange carrying reduced pairs and bare keys, never lineitem rows,
    and every order's rows land in one bucket so the per-bucket walk is
    exact.  The walk merges partials and derives the stats fully
    vectorized (lexsort + reduceat), emitting one (suppkey, numwait)
    partial per surviving supplier per bucket; those slim rows take a
    second tiny keyed exchange, join the supplier dim for names through
    the planner (broadcast under the cap), and the final top-``limit``
    sorts distributed on (numwait desc, s_name) — a total order, so the
    limit edge is deterministic."""
    from ..cluster import collect_table
    from ..hashing import id_bucket_array
    from ..stages.agg import bucket_groupby_sum

    n_buckets = assembly_buckets_for_bytes(
        table_file_bytes(sf_dir, "lineitem", "orders")
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_suppkey": batch["l_suppkey"],
                "fail": pc.cast(
                    pc.equal(batch["l_returnflag"], "R"), pa.int64()
                ),
            }
        )
        g = t.group_by(["l_orderkey", "l_suppkey"]).aggregate(
            [("fail", "max"), ("fail", "sum")]
        )
        out = pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "l_suppkey": g["l_suppkey"],
                "fail_any": g["fail_max"].cast(pa.int64()),
                "fail_rows": g["fail_sum"].cast(pa.int64()),
            }
        )
        return out.append_column(
            "obucket", id_bucket_array(out["l_orderkey"], n_buckets)
        )

    def ord_marker(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["o_orderstatus"], "F"))
        zero = pa.array(np.zeros(sub.num_rows, np.int64), pa.int64())
        t = pa.table(
            {
                "l_orderkey": sub["o_orderkey"],
                "l_suppkey": pa.array(
                    np.full(sub.num_rows, -1, np.int64), pa.int64()
                ),
                "fail_any": zero,
                "fail_rows": zero,
            }
        )
        return t.append_column(
            "obucket", id_bucket_array(t["l_orderkey"], n_buckets)
        )

    pairs = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey", "l_returnflag"]
    ).map_batches(li_partial, batch_format="pyarrow")
    markers = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"]
    ).map_batches(ord_marker, batch_format="pyarrow")

    def empty_counts() -> pa.Table:
        return pa.table(
            {
                "suppkey": pa.array([], pa.int64()),
                "numwait": pa.array([], pa.int64()),
            }
        )

    def walk(group: pa.Table) -> pa.Table:
        ok = group["l_orderkey"].to_numpy(zero_copy_only=False)
        sk = group["l_suppkey"].to_numpy(zero_copy_only=False)
        fa = group["fail_any"].to_numpy(zero_copy_only=False)
        fr = group["fail_rows"].to_numpy(zero_copy_only=False)
        marker = sk == -1
        f_orders = np.unique(ok[marker])
        real = ~marker
        ok, sk, fa, fr = ok[real], sk[real], fa[real], fr[real]
        if ok.size == 0 or f_orders.size == 0:
            return empty_counts()
        # merge the per-block (orderkey, suppkey) partials
        o = np.lexsort((sk, ok))
        ok, sk, fa, fr = ok[o], sk[o], fa[o], fr[o]
        new_pair = np.flatnonzero(
            np.r_[True, (ok[1:] != ok[:-1]) | (sk[1:] != sk[:-1])]
        )
        m_ok = ok[new_pair]
        m_sk = sk[new_pair]
        m_fa = (np.add.reduceat(fa, new_pair) > 0).astype(np.int64)
        m_fr = np.add.reduceat(fr, new_pair)
        # per-order stats over the merged pairs
        ord_starts = np.flatnonzero(np.r_[True, m_ok[1:] != m_ok[:-1]])
        n_supp = np.diff(np.r_[ord_starts, m_ok.size])
        n_fail = np.add.reduceat(m_fa, ord_starts)
        is_f = np.isin(m_ok[ord_starts], f_orders)
        qual = is_f & (n_fail == 1) & (n_supp >= 2)
        run_of_pair = np.cumsum(
            np.r_[0, (m_ok[1:] != m_ok[:-1]).astype(np.int64)]
        )
        keep = qual[run_of_pair] & (m_fa == 1)
        if not keep.any():
            return empty_counts()
        t = pa.table(
            {
                "suppkey": pa.array(m_sk[keep], pa.int64()),
                "numwait": pa.array(m_fr[keep], pa.int64()),
            }
        )
        g = t.group_by("suppkey").aggregate([("numwait", "sum")])
        return pa.table(
            {
                "suppkey": g["suppkey"],
                "numwait": g["numwait_sum"].cast(pa.int64()),
            }
        )

    per_bucket = (
        pairs.union(markers)
        .groupby("obucket")
        .map_groups(walk, batch_format="pyarrow")
    )
    counts = bucket_groupby_sum(per_bucket, ["suppkey"], ["numwait"])

    supp = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    out = equi_join(
        supp,
        counts,
        on="s_suppkey",
        right_on="suppkey",
        join_type="inner",
        left_cols=["s_name"],
        right_cols=["numwait"],
        right_types={"suppkey": pa.int64(), "numwait": pa.int64()},
    )
    # an all-orders-disqualified corpus leaves every block a zero-column
    # Sort empty (map_batches never sees empty blocks, so they can't be
    # retyped in-stream) — the top-limit result is ≤ limit rows by
    # construction, so collect it with a typed-empty fallback
    top = collect_table(
        out.sort(["numwait", "s_name"], descending=[True, False]).limit(limit)
    )
    if top is None:
        return pa.table(
            {
                "s_name": pa.array([], pa.string()),
                "numwait": pa.array([], pa.int64()),
            }
        )
    return top.select(["s_name", "numwait"])


Q21_WAITING_SUPPLIERS_SQL = """
SELECT s_name, CAST(count(*) AS BIGINT) AS numwait
FROM supplier, lineitem l1, orders
WHERE s_suppkey = l1.l_suppkey AND o_orderkey = l1.l_orderkey
  AND o_orderstatus = 'F' AND l1.l_returnflag = 'R'
  AND EXISTS (SELECT 1 FROM lineitem l2
              WHERE l2.l_orderkey = l1.l_orderkey
                AND l2.l_suppkey <> l1.l_suppkey)
  AND NOT EXISTS (SELECT 1 FROM lineitem l3
                  WHERE l3.l_orderkey = l1.l_orderkey
                    AND l3.l_suppkey <> l1.l_suppkey
                    AND l3.l_returnflag = 'R')
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT 100
"""


# ---------------------------------------------------------------------------
# skyline / BFS / entropy (round-4 closing additions)
# ---------------------------------------------------------------------------


def part_skyline(sf_dir: str) -> ray.data.Dataset:
    """Pareto frontier of the part catalog — every part not dominated on
    (price ↓, size ↑): no other part is at-most-as-expensive AND
    at-least-as-big with one strict inequality.  The multi-objective
    shortlist primitive (cheapest-per-capability).  Plan: per-block
    vectorized local skyline (a superset filter — locally dominated ⇒
    globally dominated), then the same kernel once over the collected
    candidates; only frontier candidates cross the wire
    (``stages/pareto.py``).  Prices integerize to cents per the engine
    convention so the dominance test is exact on both sides."""
    from ..stages.pareto import skyline

    ds = read_table(
        sf_dir, "part", columns=["p_partkey", "p_retailprice", "p_size"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": batch["p_partkey"].cast(pa.int64()),
                "price_cents": _cents(batch["p_retailprice"]),
                "p_size": batch["p_size"].cast(pa.int64()),
            }
        )

    return skyline(
        ds.map_batches(prep, batch_format="pyarrow"),
        x_col="price_cents",
        y_col="p_size",
        carry_cols=["p_partkey"],
    )


PART_SKYLINE_SQL = """
WITH p AS (
  SELECT CAST(p_partkey AS BIGINT) AS p_partkey,
         CAST(FLOOR(p_retailprice*100 + 0.5) AS BIGINT) AS price_cents,
         CAST(p_size AS BIGINT) AS p_size
  FROM part
)
SELECT a.p_partkey, a.price_cents, a.p_size
FROM p a
WHERE NOT EXISTS (
  SELECT 1 FROM p b
  WHERE b.price_cents <= a.price_cents AND b.p_size >= a.p_size
    AND (b.price_cents < a.price_cents OR b.p_size > a.p_size)
)
"""


def source_lang_entropy(sf_dir: str) -> ray.data.Dataset:
    """Shannon entropy of each source's language distribution (corpus
    diversity audit), integer-exact under the driver hash gate: counts
    per (source, lang) reduce map-side through one coarse-bucket exchange;
    each group's ``c·ln(c)`` term is quantized to a ppm INTEGER before
    summation — ``FLOOR(c*LN(c)*1e6 + 0.5)`` on both sides — so the sums
    are exact int64 and the only float expression is the final pinned
    ``ln(n) − s/(n·1e6)``.  ``math.log`` (C libm) is bit-identical to
    DuckDB's ``LN`` over the full count range (verified 1..2·10⁶);
    numpy's SIMD ``np.log`` is NOT (1-ULP off on ~25% of integers) and
    must not be used here.  The (source, lang) domain is bounded, so the
    reduced table merges on the driver per the engine convention."""
    import math

    from ..cluster import collect_table
    from ..stages.agg import bucket_groupby_agg

    ds = read_table(sf_dir, "documents", columns=["source", "lang"])
    counts = bucket_groupby_agg(ds, ["source", "lang"], [(None, "count", "c")])
    tbl = collect_table(counts)
    if tbl is None:
        return ray.data.from_arrow(
            pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                    "n_langs": pa.array([], pa.int64()),
                    "entropy_ppm": pa.array([], pa.int64()),
                }
            )
        )
    srcs = tbl["source"].to_pylist()
    cs = tbl["c"].to_pylist()
    agg: dict[str, list[int]] = {}
    for s, c in zip(srcs, cs):
        a = agg.setdefault(s, [0, 0, 0])  # n_docs, n_langs, s_term
        a[0] += c
        a[1] += 1
        # exact-int term: one double expression per group, same op order
        # as the SQL `FLOOR(c*LN(c)*1e6 + 0.5)`
        a[2] += int(math.floor((float(c) * math.log(c)) * 1e6 + 0.5))
    out_src = sorted(agg)
    n_docs = [agg[s][0] for s in out_src]
    n_langs = [agg[s][1] for s in out_src]
    ent = [
        int(
            math.floor(
                (math.log(n) - float(sv) / (float(n) * 1e6)) * 1e6 + 0.5
            )
        )
        for n, sv in ((agg[s][0], agg[s][2]) for s in out_src)
    ]
    return ray.data.from_arrow(
        pa.table(
            {
                "source": pa.array(out_src, pa.string()),
                "n_docs": pa.array(n_docs, pa.int64()),
                "n_langs": pa.array(n_langs, pa.int64()),
                "entropy_ppm": pa.array(ent, pa.int64()),
            }
        )
    )


SOURCE_LANG_ENTROPY_SQL = """
WITH c AS (
  SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS c
  FROM documents GROUP BY source, lang
), t AS (
  SELECT source,
         CAST(SUM(c) AS BIGINT) AS n_docs,
         CAST(COUNT(*) AS BIGINT) AS n_langs,
         CAST(SUM(CAST(FLOOR(c*LN(c)*1e6 + 0.5) AS BIGINT)) AS BIGINT) AS s
  FROM c GROUP BY source
)
SELECT source, n_docs, n_langs,
       CAST(FLOOR((LN(n_docs) - CAST(s AS DOUBLE)/(CAST(n_docs AS DOUBLE)*1e6))*1e6 + 0.5) AS BIGINT) AS entropy_ppm
FROM t
"""


def supplier_part_hops(
    sf_dir: str, *, source_suppkey: int = 1, max_hops: int = 3
) -> ray.data.Dataset:
    """BFS hop levels from one supplier over the bipartite supplier↔part
    purchase graph (node ids namespaced part·2 / supp·2+1, the
    ``part_supplier_pagerank`` convention): hop 1 = the supplier's parts,
    hop 2 = suppliers sharing those parts, hop 3 = their parts — the
    supply-chain blast-radius query.  The iterative-frontier plan
    (``stages/graph.py bfs_levels``): edges materialize once and only
    STREAM per hop, the frontier broadcasts once per hop via ``ray.put``,
    blocks emit distinct candidates only.  Oracle: DuckDB recursive CTE
    with min-hop fold."""
    from ..stages.graph import bfs_levels

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def mk(batch: pa.Table) -> pa.Table:
        pk = pc.multiply(batch["l_partkey"].cast(pa.int64()), 2)
        sk = pc.add(pc.multiply(batch["l_suppkey"].cast(pa.int64()), 2), 1)
        return pa.table({"u": pk, "v": sk})

    edges = li.map_batches(mk, batch_format="pyarrow")
    return bfs_levels(
        edges,
        [2 * source_suppkey + 1],
        max_hops=max_hops,
        bidirectional=True,
    )


SUPPLIER_PART_HOPS_SQL = """
WITH RECURSIVE bfs(node, hop) AS (
  SELECT CAST(3 AS BIGINT) AS node, CAST(0 AS BIGINT) AS hop
  UNION
  SELECT e.dst, b.hop + 1
  FROM bfs b
  JOIN (
    SELECT CAST(l_partkey AS BIGINT)*2 AS src,
           CAST(l_suppkey AS BIGINT)*2 + 1 AS dst
    FROM lineitem
    UNION ALL
    SELECT CAST(l_suppkey AS BIGINT)*2 + 1,
           CAST(l_partkey AS BIGINT)*2
    FROM lineitem
  ) e ON e.src = b.node
  WHERE b.hop < 3
)
SELECT node, CAST(MIN(hop) AS BIGINT) AS hop
FROM bfs GROUP BY node
"""


def _orders_cdc_streams(
    sf_dir: str,
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """(base, changes) for the orders CDC family: base is the prepped
    ``(o_orderkey, o_custkey, price_cents)`` projection and changes is
    the deterministic CDC batch synthesized from the table itself —
    keys ``%97==0`` upsert with bumped custkey/price, keys ``%89==3``
    (not already upserting) delete, and keys ``%101==5`` re-enter as
    genuine inserts under a ``+10⁹`` key offset no base key can reach.
    Shared by ``orders_merge_cdc`` (the write) and
    ``orders_snapshot_diff`` (the read-side inverse)."""

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
                "o_custkey": batch["o_custkey"].cast(pa.int64()),
                "price_cents": _cents(batch["o_totalprice"]),
            }
        )

    raw = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    base = raw.map_batches(prep, batch_format="pyarrow")

    empty_changes = pa.table(
        {
            "o_orderkey": pa.array([], pa.int64()),
            "o_custkey": pa.array([], pa.int64()),
            "price_cents": pa.array([], pa.int64()),
            "op": pa.array([], pa.string()),
        }
    )

    def mk_changes(batch: pa.Table) -> pa.Table:
        t = prep(batch)
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        up = (k % 97) == 0
        de = ((k % 89) == 3) & ~up
        ins = (k % 101) == 5
        parts = []
        if up.any():
            s = t.filter(pa.array(up))
            parts.append(
                pa.table(
                    {
                        "o_orderkey": s["o_orderkey"],
                        "o_custkey": pc.add(s["o_custkey"], 1),
                        "price_cents": pc.add(s["price_cents"], 11),
                        "op": pa.array(["u"] * s.num_rows, pa.string()),
                    }
                )
            )
        if de.any():
            s = t.filter(pa.array(de))
            parts.append(
                pa.table(
                    {
                        "o_orderkey": s["o_orderkey"],
                        "o_custkey": s["o_custkey"],
                        "price_cents": s["price_cents"],
                        "op": pa.array(["d"] * s.num_rows, pa.string()),
                    }
                )
            )
        if ins.any():
            s = t.filter(pa.array(ins))
            parts.append(
                pa.table(
                    {
                        "o_orderkey": pc.add(s["o_orderkey"], 1_000_000_000),
                        "o_custkey": s["o_custkey"],
                        "price_cents": pc.add(s["price_cents"], 7),
                        "op": pa.array(["u"] * s.num_rows, pa.string()),
                    }
                )
            )
        if not parts:
            return empty_changes
        return pa.concat_tables(parts)

    changes = raw.map_batches(mk_changes, batch_format="pyarrow")
    return base, changes


def orders_merge_cdc(sf_dir: str) -> ray.data.Dataset:
    """MERGE INTO over the orders table (``state/merge.py``) — the
    lakehouse upsert/delete primitive applied to the deterministic CDC
    batch of :func:`_orders_cdc_streams`.  Plan: the change-key vector
    broadcasts once, ONE streaming anti-probe pass over base blocks,
    upsert rows appended as the tail — zero shuffle, base rows move at
    most once.  Prices integerize to cents so both sides are exact."""
    from ..state.merge import merge_into

    base, changes = _orders_cdc_streams(sf_dir)
    return merge_into(base, changes, key_col="o_orderkey")


def orders_snapshot_diff(sf_dir: str) -> ray.data.Dataset:
    """Snapshot diff (``state/diff.py``) — the read-side inverse of the
    MERGE primitive: diffing ``merge_into(base, cdc)`` against ``base``
    must recover exactly the CDC batch (upserts of existing keys →
    ``'changed'``, deletes → ``'deleted'``, offset-key inserts →
    ``'added'``; every untouched key — the overwhelming majority —
    emits nothing).  The diff's exchange carries (key, fingerprint,
    side) triples only — 17 bytes/row at any row width — through one
    volume-sized coarse-bucket exchange; value columns never move."""
    from ..state.diff import table_diff
    from ..state.merge import merge_into

    base, changes = _orders_cdc_streams(sf_dir)
    new = merge_into(base, changes, key_col="o_orderkey")
    return table_diff(base, new, key_col="o_orderkey")


ZONEMAP_CACHE_ROOT = "/tmp/dsor_zonemap_cache"


def orders_zonemap_revenue(sf_dir: str) -> "pd.DataFrame":
    """Zone-map data skipping (``state/zonemap.py``) end to end: orders
    land date-SORTED across many parquet files (the clustered layout the
    compaction/sort step produces — cached per ``sf_dir`` under a
    completion marker), a footer-only manifest records per-file min/max,
    and a one-year range scan reads ONLY the overlapping files (the
    residual range is still pushed down row-level inside them, so
    correctness never depends on the pruning — the zone map only shrinks
    the file list).  Monthly revenue partials collapse per block over the
    bounded 12-month domain and merge on the driver in exact ints — zero
    exchange.  The pruning ratio is asserted in tests; here the point is
    byte-exact equality with the oracle running the same predicate over
    the UNSORTED original table."""
    import json as _json
    import shutil as _shutil

    import pandas as pd

    from ..cluster import collect_table
    from ..state.zonemap import build_zonemap, scan_pruned

    tag = sf_dir.strip("/").replace("/", "_")
    cache = os.path.join(ZONEMAP_CACHE_ROOT, tag)
    marker = os.path.join(cache, "_COMPLETE")
    if not os.path.exists(marker):
        _shutil.rmtree(cache, ignore_errors=True)
        (
            read_table(
                sf_dir,
                "orders",
                columns=["o_orderkey", "o_orderdate", "o_totalprice"],
            )
            .sort("o_orderdate")
            .write_parquet(cache)
        )
        with open(marker, "w") as f:
            _json.dump({"sf_dir": sf_dir}, f)
    build_zonemap(cache, ["o_orderdate"])

    lo = pa.scalar("1997-01-01").cast(pa.timestamp("us")).as_py()
    hi = pa.scalar("1997-12-31").cast(pa.timestamp("us")).as_py()
    ds, _read, _total = scan_pruned(
        cache, "o_orderdate", lo, hi, columns=["o_orderdate", "o_totalprice"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "month": pa.array([], pa.string()),
                    "revenue_cents": pa.array([], pa.int64()),
                    "n_orders": pa.array([], pa.int64()),
                }
            )
        t = pa.table(
            {
                "month": pc.strftime(batch["o_orderdate"], format="%Y-%m"),
                "revenue_cents": _cents(batch["o_totalprice"]),
                "n_orders": pa.array(
                    np.ones(batch.num_rows, np.int64), pa.int64()
                ),
            }
        )
        g = t.group_by("month").aggregate(
            [("revenue_cents", "sum"), ("n_orders", "sum")]
        )
        return pa.table(
            {
                "month": g["month"],
                "revenue_cents": g["revenue_cents_sum"].cast(pa.int64()),
                "n_orders": g["n_orders_sum"].cast(pa.int64()),
            }
        )

    t = collect_table(ds.map_batches(partial, batch_format="pyarrow"))
    acc: dict[str, list[int]] = {}
    if t is not None and t.num_rows:
        for m, r, n in zip(
            t["month"].to_pylist(),
            t["revenue_cents"].to_pylist(),
            t["n_orders"].to_pylist(),
        ):
            a = acc.setdefault(m, [0, 0])
            a[0] += r
            a[1] += n
    months = sorted(acc)
    return pd.DataFrame(
        {
            "month": months,
            "revenue_cents": [acc[m][0] for m in months],
            "n_orders": [acc[m][1] for m in months],
        }
    )


ORDERS_ZONEMAP_REVENUE_SQL = """
SELECT strftime(o_orderdate, '%Y-%m') AS month,
       CAST(SUM(CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT)
         AS revenue_cents,
       COUNT(*) AS n_orders
FROM orders
WHERE o_orderdate BETWEEN TIMESTAMP '1997-01-01' AND TIMESTAMP '1997-12-31'
GROUP BY 1
"""


ORDERS_SNAPSHOT_DIFF_SQL = """
WITH base AS (
  SELECT CAST(o_orderkey AS BIGINT) AS o_orderkey FROM orders
)
SELECT o_orderkey, 'changed' AS change FROM base
WHERE o_orderkey % 97 = 0
UNION ALL
SELECT o_orderkey, 'deleted' AS change FROM base
WHERE o_orderkey % 89 = 3 AND o_orderkey % 97 <> 0
UNION ALL
SELECT o_orderkey + 1000000000 AS o_orderkey, 'added' AS change FROM base
WHERE o_orderkey % 101 = 5
"""


ORDERS_MERGE_CDC_SQL = """
WITH base AS (
  SELECT CAST(o_orderkey AS BIGINT) AS o_orderkey,
         CAST(o_custkey AS BIGINT) AS o_custkey,
         CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS price_cents
  FROM orders
),
ups AS (
  SELECT o_orderkey, o_custkey + 1 AS o_custkey,
         price_cents + 11 AS price_cents
  FROM base WHERE o_orderkey % 97 = 0
),
dels AS (
  SELECT o_orderkey FROM base
  WHERE o_orderkey % 89 = 3 AND o_orderkey % 97 <> 0
),
ins AS (
  SELECT o_orderkey + 1000000000 AS o_orderkey, o_custkey,
         price_cents + 7 AS price_cents
  FROM base WHERE o_orderkey % 101 = 5
)
SELECT b.o_orderkey, b.o_custkey, b.price_cents FROM base b
WHERE b.o_orderkey NOT IN (SELECT o_orderkey FROM ups)
  AND b.o_orderkey NOT IN (SELECT o_orderkey FROM dels)
UNION ALL SELECT o_orderkey, o_custkey, price_cents FROM ups
UNION ALL SELECT o_orderkey, o_custkey, price_cents FROM ins
"""


# ---------------------------------------------------------------------------
# TPC-H Q2 / Q11 / Q16 / Q20 shapes — the four partsupp-centric queries,
# adapted to this schema (no partsupp table: part↔supplier facts derive
# from lineitem; ref TPC-H spec §2.4.2/.11/.16/.20).  With these, all 22
# TPC-H query shapes are expressed on the engine.
# ---------------------------------------------------------------------------


# "micro-dim" means the DATA MODEL bounds the table (TPC-H fixes nation
# at 25 rows and region at 5 at every scale factor) — make that argument
# loud instead of implicit: past this many rows the table is not a
# micro-dim and the caller must switch to a broadcast map / join plan.
MICRO_DIM_MAX_ROWS = 10_000


def _nation_region_dims(sf_dir: str):
    """The two catalog micro-dims (≤25 / 5 rows by TPC-H construction) —
    driver-side reads, shared by the region-scoped shapes.  Loudly
    capped at :data:`MICRO_DIM_MAX_ROWS`."""
    import pyarrow.parquet as _pq

    nat = _pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    reg = _pq.read_table(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"],
    )
    for name, tab in (("nation", nat), ("region", reg)):
        if tab.num_rows > MICRO_DIM_MAX_ROWS:
            raise ValueError(
                f"_nation_region_dims: {name} has {tab.num_rows} rows — "
                f"past the micro-dim bound ({MICRO_DIM_MAX_ROWS}); this "
                "driver-side read assumes a catalog-bounded dimension. "
                "Use a broadcast map or a distributed join instead."
            )
    return nat, reg


def q2_min_cost_supplier(
    sf_dir: str,
    region: str = "EUROPE",
    max_size: int = 5,
    name_suffix: str = "widget",
    limit: int = 100,
) -> ray.data.Dataset:
    """TPC-H Q2 shape — the minimum-cost-supplier query: for every part in
    one size/name family, the region's supplier(s) offering it at the
    regional minimum cost (ALL ties kept, the correlated-MIN subquery
    semantics), ordered by supplier account balance desc.  Columns
    ``(s_acctbal_cents, s_name, n_name, p_partkey, p_name, cost_cents)``,
    top ``limit`` rows.

    The testdata has no partsupp, so the supply cost of a (part,
    supplier) pair is derived as ``MIN(cents(l_extendedprice))`` over
    that pair's lineitems — exact integer cents, so the driver hash gate
    binds bit-for-bit.

    Scale plan: region/nation are driver micro-dims (≤25 rows by TPC-H
    construction); the supplier dim streams, prunes to the region per
    block and tags nation names via a searchsorted probe of the bounded
    nation map; lineitem scans ONCE — a planner left-semi join prunes it
    to region suppliers, each block reduces to per-(part, supplier) min
    partials in C++, and ONE volume-sized exchange finishes the pair
    costs.  The per-part regional min is a second reduction over the
    already-pair-bounded table, the winner filter is one planner join +
    vectorized compare, and supplier attributes attach through the
    planner (broadcast below the cap).  The fact table never re-exchanges
    and nothing materializes on the driver."""
    nat, reg = _nation_region_dims(sf_dir)
    rk_col = reg.filter(pc.equal(reg["r_name"], region))["r_regionkey"]
    if len(rk_col) == 0:
        raise ValueError(f"q2_min_cost_supplier: unknown region {region!r}")
    rkey = rk_col[0].as_py()
    rnat = nat.filter(pc.equal(nat["n_regionkey"], rkey))
    # bounded nation map (≤25 entries) — closure capture, sorted for the
    # per-block searchsorted n_name attach
    nk = rnat["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nk)
    nk_sorted = nk[order]
    nname_sorted = rnat["n_name"].combine_chunks().take(
        pa.array(order, pa.int64())
    )
    nk_set = pa.array(nk_sorted, pa.int64())

    def supp_tag(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            pc.cast(batch["s_nationkey"], pa.int64()), value_set=nk_set
        )
        sub = batch.filter(keep)
        sk = sub["s_nationkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        idx = np.searchsorted(nk_sorted, sk)
        return pa.table(
            {
                "s_suppkey": pc.cast(sub["s_suppkey"], pa.int64()),
                "s_name": sub["s_name"],
                "s_acctbal_cents": _cents(sub["s_acctbal"]),
                "n_name": nname_sorted.take(pa.array(idx, pa.int64())),
            }
        )

    supp = read_table(
        sf_dir,
        "supplier",
        columns=["s_suppkey", "s_name", "s_nationkey", "s_acctbal"],
    ).map_batches(supp_tag, batch_format="pyarrow")

    li = equi_join(
        read_table(
            sf_dir,
            "lineitem",
            columns=["l_partkey", "l_suppkey", "l_extendedprice"],
        ),
        supp.select_columns(["s_suppkey"]),
        on="l_suppkey",
        right_on="s_suppkey",
        join_type="left_semi",
        left_cols=["l_partkey", "l_suppkey", "l_extendedprice"],
        right_types={"s_suppkey": pa.int64()},
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "l_partkey": batch["l_partkey"],
                    "l_suppkey": batch["l_suppkey"],
                    "cost_cents": _cents(batch["l_extendedprice"]),
                }
            )
            .group_by(["l_partkey", "l_suppkey"])
            .aggregate([("cost_cents", "min")])
        )
        return g.rename_columns(["l_partkey", "l_suppkey", "cost_cents"])

    from ..stages.agg import bucket_groupby_agg

    ps = bucket_groupby_agg(
        li.map_batches(pair_partial, batch_format="pyarrow"),
        ["l_partkey", "l_suppkey"],
        [("cost_cents", "min", "cost_cents")],
        n_buckets=assembly_buckets_for_bytes(
            table_file_bytes(sf_dir, "lineitem")
        ),
    )

    fp = read_table(
        sf_dir, "part", columns=["p_partkey", "p_name", "p_size"]
    ).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.less_equal(b["p_size"], max_size),
                pc.ends_with(b["p_name"], pattern=name_suffix),
            )
        ).select(["p_partkey", "p_name"]),
        batch_format="pyarrow",
    )

    psf = equi_join(
        ps,
        fp,
        on="l_partkey",
        right_on="p_partkey",
        join_type="inner",
        left_cols=["l_partkey", "l_suppkey", "cost_cents"],
        right_cols=["p_name"],
        left_types={
            "l_partkey": pa.int64(),
            "l_suppkey": pa.int64(),
            "cost_cents": pa.int64(),
        },
        right_types={"p_partkey": pa.int64(), "p_name": pa.string()},
    )

    mins = bucket_groupby_agg(
        psf.select_columns(["l_partkey", "cost_cents"]),
        ["l_partkey"],
        [("cost_cents", "min", "mc")],
    ).map_batches(
        lambda b: b.rename_columns(["pk", "mc"]), batch_format="pyarrow"
    )

    winners = equi_join(
        psf,
        mins,
        on="l_partkey",
        right_on="pk",
        join_type="inner",
        left_cols=["l_partkey", "l_suppkey", "cost_cents", "p_name"],
        right_cols=["mc"],
        left_types={
            "l_partkey": pa.int64(),
            "l_suppkey": pa.int64(),
            "cost_cents": pa.int64(),
            "p_name": pa.string(),
        },
        right_types={"pk": pa.int64(), "mc": pa.int64()},
    ).map_batches(
        lambda b: b.filter(pc.equal(b["cost_cents"], b["mc"])).drop_columns(
            ["mc"]
        ),
        batch_format="pyarrow",
    )

    out = equi_join(
        supp,
        winners,
        on="s_suppkey",
        right_on="l_suppkey",
        join_type="inner",
        left_cols=["s_acctbal_cents", "s_name", "n_name"],
        right_cols=["l_partkey", "p_name", "cost_cents"],
        left_types={
            "s_suppkey": pa.int64(),
            "s_acctbal_cents": pa.int64(),
            "s_name": pa.string(),
            "n_name": pa.string(),
        },
        right_types={
            "l_suppkey": pa.int64(),
            "l_partkey": pa.int64(),
            "p_name": pa.string(),
            "cost_cents": pa.int64(),
        },
    ).map_batches(
        lambda b: b.rename_columns(
            [
                "s_acctbal_cents",
                "s_name",
                "n_name",
                "p_partkey",
                "p_name",
                "cost_cents",
            ]
        ),
        batch_format="pyarrow",
    )
    # the top-limit result is ≤ limit rows by construction — collect with
    # a typed-empty fallback (Ray's Sort emits zero-column blocks for an
    # all-empty input, stripping the schema; q21 convention)
    from ..cluster import collect_table

    top = collect_table(
        out.sort(
            ["s_acctbal_cents", "n_name", "s_name", "p_partkey"],
            descending=[True, False, False, False],
        ).limit(limit)
    )
    if top is None:
        return pa.table(
            {
                "s_acctbal_cents": pa.array([], pa.int64()),
                "s_name": pa.array([], pa.string()),
                "n_name": pa.array([], pa.string()),
                "p_partkey": pa.array([], pa.int64()),
                "p_name": pa.array([], pa.string()),
                "cost_cents": pa.array([], pa.int64()),
            }
        )
    return top


Q2_MIN_COST_SUPPLIER_SQL = """
WITH rs AS (
  SELECT s_suppkey, s_name, s_acctbal, n_name
  FROM supplier JOIN nation ON n_nationkey = s_nationkey
                JOIN region ON r_regionkey = n_regionkey
  WHERE r_name = 'EUROPE'
),
ps AS (
  SELECT l_partkey AS pk, l_suppkey AS sk,
         MIN(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) AS cc
  FROM lineitem JOIN rs ON rs.s_suppkey = l_suppkey
  GROUP BY 1, 2
),
fp AS (
  SELECT p_partkey, p_name FROM part
  WHERE p_size <= 5 AND p_name LIKE '%widget'
),
psf AS (
  SELECT ps.pk, ps.sk, ps.cc, fp.p_name
  FROM ps JOIN fp ON fp.p_partkey = ps.pk
),
m AS (SELECT pk, MIN(cc) AS mc FROM psf GROUP BY 1)
SELECT CAST(FLOOR(s_acctbal * 100 + 0.5) AS BIGINT) AS s_acctbal_cents,
       s_name, n_name, psf.pk AS p_partkey, p_name, cc AS cost_cents
FROM psf JOIN m ON m.pk = psf.pk AND psf.cc = m.mc
         JOIN rs ON rs.s_suppkey = psf.sk
ORDER BY 1 DESC, 3, 2, 4
LIMIT 100
"""


def q11_important_parts(
    sf_dir: str, nation: str = "NATION_3", multiplier: int = 2
) -> ray.data.Dataset:
    """TPC-H Q11 shape — important-stock identification: the parts whose
    value supplied by ONE nation's suppliers exceeds ``multiplier×`` the
    mean per-part value (the HAVING-against-a-global-aggregate shape;
    TPC-H's fixed ``0.0001/SF`` fraction is scale-dependent, so the
    scale-free 2×-mean form replaces it), value-ordered desc.  Columns
    ``(p_partkey, value_cents)``.

    Value of a part = Σ cents(l_extendedprice) over its lineitems from
    the nation's suppliers (no partsupp in this schema) — exact int64.

    The global predicate ``value·n > m·total`` is evaluated as
    ``value ≥ m·total // n + 1`` with the threshold computed ONCE on the
    driver in arbitrary-precision Python ints (the product ``value·n``
    could overflow int64 vectorized at 100 TB; the single-threshold form
    cannot, and is algebraically identical for integers).

    Scale plan: the nation's supplier keys prune lineitem through a
    planner left-semi join; per-part cents sums reduce map-side through
    ONE volume-sized exchange; the reduced per-part table materializes
    once (part-domain-bounded — the catalog side), its total/count are
    two scalar consumptions, and the threshold filter + sort run over the
    reduced table only."""
    nat, _ = _nation_region_dims(sf_dir)
    nk_col = nat.filter(pc.equal(nat["n_name"], nation))["n_nationkey"]
    if len(nk_col) == 0:
        raise ValueError(f"q11_important_parts: unknown nation {nation!r}")
    nkey = nk_col[0].as_py()

    supp_keys = read_table(
        sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]
    ).map_batches(
        lambda b: pa.table(
            {
                "s_suppkey": pc.cast(
                    b.filter(
                        pc.equal(pc.cast(b["s_nationkey"], pa.int64()), nkey)
                    )["s_suppkey"],
                    pa.int64(),
                )
            }
        ),
        batch_format="pyarrow",
    )

    li = equi_join(
        read_table(
            sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_suppkey"]
        ),
        supp_keys,
        on="l_suppkey",
        right_on="s_suppkey",
        join_type="left_semi",
        left_cols=["l_partkey", "l_extendedprice"],
        right_types={"s_suppkey": pa.int64()},
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "l_partkey": batch["l_partkey"],
                    "v": _cents(batch["l_extendedprice"]),
                }
            )
            .group_by("l_partkey")
            .aggregate([("v", "sum")])
        )
        return pa.table(
            {
                "p_partkey": g["l_partkey"],
                "value_cents": g["v_sum"].cast(pa.int64()),
            }
        )

    from ..stages.agg import bucket_groupby_sum

    v = bucket_groupby_sum(
        li.map_batches(partial, batch_format="pyarrow"),
        ["p_partkey"],
        ["value_cents"],
        n_buckets=assembly_buckets_for_bytes(
            table_file_bytes(sf_dir, "lineitem")
        ),
    ).materialize()

    n = v.count()
    if n == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "p_partkey": pa.array([], pa.int64()),
                    "value_cents": pa.array([], pa.int64()),
                }
            )
        )
    tot = int(v.sum("value_cents"))
    # value·n > m·tot  ⟺  value ≥ m·tot//n + 1 (exact for integers; the
    # threshold is one Python bigint, immune to int64 overflow)
    thresh = (int(multiplier) * tot) // int(n) + 1
    kept = v.map_batches(
        lambda b: b.filter(pc.greater_equal(b["value_cents"], thresh)),
        batch_format="pyarrow",
    ).materialize()
    if kept.count() == 0:
        # Ray's Sort emits zero-COLUMN blocks for an all-empty input,
        # stripping the schema (from_arrow round-trips an empty table the
        # same way) — return the typed-empty Arrow table directly (the
        # engine's typed-empty convention; see q21_waiting_suppliers)
        return pa.table(
            {
                "p_partkey": pa.array([], pa.int64()),
                "value_cents": pa.array([], pa.int64()),
            }
        )
    return kept.sort(["value_cents", "p_partkey"], descending=[True, False])


Q11_IMPORTANT_PARTS_SQL = """
WITH s AS (
  SELECT s_suppkey FROM supplier JOIN nation ON n_nationkey = s_nationkey
  WHERE n_name = 'NATION_3'
),
v AS (
  SELECT l_partkey AS pk,
         CAST(sum(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS val
  FROM lineitem JOIN s ON s_suppkey = l_suppkey
  GROUP BY 1
),
g AS (SELECT CAST(sum(val) AS BIGINT) AS tot,
             CAST(count(*) AS BIGINT) AS n FROM v)
SELECT pk AS p_partkey, val AS value_cents
FROM v, g
WHERE val * n > 2 * tot
ORDER BY 2 DESC, 1
"""


def q16_part_supplier_counts(
    sf_dir: str,
    brand_excl: str = "Brand#23",
    type_excl: str = "PROMO",
    sizes: tuple[int, ...] = (1, 5, 9, 14, 19, 23, 36, 45),
    acctbal_floor: float = 1000.0,
) -> ray.data.Dataset:
    """TPC-H Q16 shape — parts/supplier relationship: how many distinct
    suppliers can supply each (brand, type, size) combination, excluding
    one brand, one type, sizes outside a list, and "at-risk" suppliers
    (account balance below ``acctbal_floor`` — the stand-in for Q16's
    ``Customer…Complaints`` comment scan; the testdata has no comments).
    Columns ``(p_brand, p_type, p_size, supplier_cnt)``, count-desc
    ordered.

    Scale plan: each lineitem block reduces to its DISTINCT (part,
    supplier) pairs in C++ before anything moves; the at-risk exclusion
    is a planner anti-join; part attributes attach through the planner
    after the part scan prunes; the grouped COUNT(DISTINCT) runs on the
    engine's tagged-distinct-pairs exchange (one keyed exchange whose
    volume is the block-distinct pair count, independent of row count)."""
    bad = read_table(
        sf_dir, "supplier", columns=["s_suppkey", "s_acctbal"]
    ).map_batches(
        lambda b: pa.table(
            {
                "s_suppkey": pc.cast(
                    b.filter(pc.less(b["s_acctbal"], acctbal_floor))[
                        "s_suppkey"
                    ],
                    pa.int64(),
                )
            }
        ),
        batch_format="pyarrow",
    )

    pairs = read_table(
        sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"]
    ).map_batches(
        lambda b: b.group_by(["l_partkey", "l_suppkey"]).aggregate([]),
        batch_format="pyarrow",
    )
    pairs = equi_join(
        pairs,
        bad,
        on="l_suppkey",
        right_on="s_suppkey",
        join_type="left_anti",
        left_cols=["l_partkey", "l_suppkey"],
        left_types={"l_partkey": pa.int64(), "l_suppkey": pa.int64()},
        right_types={"s_suppkey": pa.int64()},
    )

    size_set = pa.array(list(sizes), pa.int32())
    fp = read_table(
        sf_dir, "part", columns=["p_partkey", "p_brand", "p_type", "p_size"]
    ).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.and_(
                    pc.not_equal(b["p_brand"], brand_excl),
                    pc.not_equal(b["p_type"], type_excl),
                ),
                pc.is_in(pc.cast(b["p_size"], pa.int32()), value_set=size_set),
            )
        ),
        batch_format="pyarrow",
    )

    joined = equi_join(
        pairs,
        fp,
        on="l_partkey",
        right_on="p_partkey",
        join_type="inner",
        left_cols=["l_suppkey"],
        right_cols=["p_brand", "p_type", "p_size"],
        left_types={"l_partkey": pa.int64(), "l_suppkey": pa.int64()},
        right_types={
            "p_partkey": pa.int64(),
            "p_brand": pa.string(),
            "p_type": pa.string(),
            "p_size": pa.int32(),
        },
    )

    from ..stages.agg import group_count_distinct

    cnt = group_count_distinct(
        joined,
        ["p_brand", "p_type", "p_size"],
        ["l_suppkey"],
        out_col="supplier_cnt",
    ).map_batches(
        lambda b: b.drop_columns(["column"]), batch_format="pyarrow"
    )
    # group count is bounded by the brand×type×size attribute lattice —
    # materialize the reduced table so the all-empty case can return a
    # typed empty instead of Sort's schema-stripped zero-column blocks
    cnt = cnt.materialize()
    if cnt.count() == 0:
        return pa.table(
            {
                "p_brand": pa.array([], pa.string()),
                "p_type": pa.array([], pa.string()),
                "p_size": pa.array([], pa.int32()),
                "supplier_cnt": pa.array([], pa.int64()),
            }
        )
    return cnt.sort(
        ["supplier_cnt", "p_brand", "p_type", "p_size"],
        descending=[True, False, False, False],
    )


Q16_PART_SUPPLIER_COUNTS_SQL = """
WITH bad AS (SELECT s_suppkey FROM supplier WHERE s_acctbal < 1000.0),
pairs AS (
  SELECT DISTINCT l_partkey, l_suppkey FROM lineitem
  WHERE l_suppkey NOT IN (SELECT s_suppkey FROM bad)
)
SELECT p_brand, p_type, p_size,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM pairs JOIN part ON p_partkey = l_partkey
WHERE p_brand <> 'Brand#23' AND p_type <> 'PROMO'
  AND p_size IN (1, 5, 9, 14, 19, 23, 36, 45)
GROUP BY 1, 2, 3
ORDER BY 4 DESC, 1, 2, 3
"""


def q20_dominant_suppliers(
    sf_dir: str, name_prefix: str = "blue", year: int = 1997
) -> ray.data.Dataset:
    """TPC-H Q20 shape — potential part promotion: the suppliers who, for
    SOME part in one name family, shipped strictly more than half of that
    part's total quantity in one year (the nested correlated-aggregate IN
    shape; TPC-H's ``availqty > 0.5·sum(qty)`` becomes supplier dominance
    ``2·qty(p,s) > total_qty(p)`` — the testdata has no availqty).
    Columns ``(s_suppkey, s_name)``, name-ordered.

    Scale plan: the name family's partkeys prune lineitem through a
    planner left-semi join after the year prunes at the scan; per-(part,
    supplier) quantity sums reduce map-side through ONE volume-sized
    exchange; per-part totals are a second reduction over the
    pair-bounded table; the dominance filter is a planner join +
    vectorized compare; qualifying supplier keys global-distinct through
    a tiny keyed exchange before the name join so no supplier row ever
    replicates."""
    lo, hi = _ts(year), _ts(year + 1)

    fp = read_table(
        sf_dir, "part", columns=["p_partkey", "p_name"]
    ).map_batches(
        lambda b: b.filter(
            pc.starts_with(b["p_name"], pattern=name_prefix)
        ).select(["p_partkey"]),
        batch_format="pyarrow",
    )

    def year_prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(batch["l_shipdate"], lo),
            pc.less(batch["l_shipdate"], hi),
        )
        sub = batch.filter(keep)
        q = sub["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "l_partkey": sub["l_partkey"],
                "l_suppkey": sub["l_suppkey"],
                "qty": pa.array(q, pa.int64()),
            }
        )

    li = equi_join(
        read_table(
            sf_dir,
            "lineitem",
            columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
        ).map_batches(year_prep, batch_format="pyarrow"),
        fp,
        on="l_partkey",
        right_on="p_partkey",
        join_type="left_semi",
        left_cols=["l_partkey", "l_suppkey", "qty"],
        left_types={
            "l_partkey": pa.int64(),
            "l_suppkey": pa.int64(),
            "qty": pa.int64(),
        },
        right_types={"p_partkey": pa.int64()},
    )

    from ..stages.agg import bucket_groupby_agg, bucket_groupby_sum

    def pair_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["l_partkey", "l_suppkey"]).aggregate(
            [("qty", "sum")]
        )
        return pa.table(
            {
                "l_partkey": g["l_partkey"],
                "l_suppkey": g["l_suppkey"],
                "qty": g["qty_sum"].cast(pa.int64()),
            }
        )

    q = bucket_groupby_sum(
        li.map_batches(pair_partial, batch_format="pyarrow"),
        ["l_partkey", "l_suppkey"],
        ["qty"],
        n_buckets=assembly_buckets_for_bytes(
            table_file_bytes(sf_dir, "lineitem")
        ),
    )

    tot = bucket_groupby_sum(
        q.select_columns(["l_partkey", "qty"]),
        ["l_partkey"],
        ["qty"],
    ).map_batches(
        lambda b: b.rename_columns(["pk", "tot"]), batch_format="pyarrow"
    )

    dom = equi_join(
        q,
        tot,
        on="l_partkey",
        right_on="pk",
        join_type="inner",
        left_cols=["l_suppkey", "qty"],
        right_cols=["tot"],
        left_types={
            "l_partkey": pa.int64(),
            "l_suppkey": pa.int64(),
            "qty": pa.int64(),
        },
        right_types={"pk": pa.int64(), "tot": pa.int64()},
    ).map_batches(
        # 2·qty fits int64 (qty ≤ tot ≤ int64 by the sum's own bound / 2
        # — quantities are ≤ 50 per row so a part needs 9·10¹⁷ rows to
        # overflow; the bucket sum would have wrapped first and loudly)
        lambda b: pa.table(
            {
                "l_suppkey": b.filter(
                    pc.greater(
                        pc.multiply_checked(b["qty"], pa.scalar(2, pa.int64())),
                        b["tot"],
                    )
                )["l_suppkey"]
            }
        ),
        batch_format="pyarrow",
    )

    distinct_sk = bucket_groupby_agg(
        dom, ["l_suppkey"], [(None, "count", "_n")]
    ).map_batches(
        lambda b: b.drop_columns(["_n"]), batch_format="pyarrow"
    )

    out = equi_join(
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"]),
        distinct_sk,
        on="s_suppkey",
        right_on="l_suppkey",
        join_type="inner",
        left_cols=["s_suppkey", "s_name"],
        right_types={"l_suppkey": pa.int64()},
    )
    # qualifying suppliers are a reduced catalog-side set — materialize
    # so the all-empty case returns a typed empty (Sort strips the schema
    # off an all-empty stream; q21 convention)
    out = out.materialize()
    if out.count() == 0:
        return pa.table(
            {
                "s_suppkey": pa.array([], pa.int64()),
                "s_name": pa.array([], pa.string()),
            }
        )
    return out.sort("s_name")


Q20_DOMINANT_SUPPLIERS_SQL = """
WITH fp AS (SELECT p_partkey FROM part WHERE p_name LIKE 'blue%'),
q AS (
  SELECT l_partkey AS pk, l_suppkey AS sk,
         CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS qty
  FROM lineitem JOIN fp ON p_partkey = l_partkey
  WHERE l_shipdate >= TIMESTAMP '1997-01-01'
    AND l_shipdate <  TIMESTAMP '1998-01-01'
  GROUP BY 1, 2
),
t AS (SELECT pk, CAST(sum(qty) AS BIGINT) AS tot FROM q GROUP BY 1)
SELECT DISTINCT s_suppkey, s_name
FROM q JOIN t USING (pk) JOIN supplier ON s_suppkey = q.sk
WHERE 2 * q.qty > t.tot
ORDER BY s_name
"""


def _orders_version_log(sf_dir: str) -> ray.data.Dataset:
    """Deterministic multi-version change log synthesized from orders for
    the SCD2 family: every key inserts at a v0 timestamp; keys ``%3==0``
    upsert again at v1 with a bumped price EXCEPT keys ``%33==0`` whose v1
    repeats v0's values exactly (exercising unchanged-upsert suppression);
    keys ``%5==0`` delete at v2 (closing the open version); keys
    ``%15==0`` — which by construction already upserted at v1 and deleted
    at v2 — re-insert at v3 (an open second lifetime).  Timestamp bands
    (1000+, 2000+, 3000+, 4000+) are disjoint so no (key, ts) collides.

    Value columns are ``(o_custkey, price_cents)``; delete rows carry
    NULL values (a delete's values are ignored by SCD2 semantics)."""

    def mk_log(batch: pa.Table) -> pa.Table:
        key = batch["o_orderkey"].cast(pa.int64())
        k = key.to_numpy(zero_copy_only=False)
        cust = batch["o_custkey"].cast(pa.int64())
        price = _cents(batch["o_totalprice"])
        pv = price.to_numpy(zero_copy_only=False)
        n = k.size

        m3 = (k % 3) == 0
        m33 = (k % 33) == 0
        m5 = (k % 5) == 0
        m15 = (k % 15) == 0
        i3 = np.flatnonzero(m3)
        i5 = np.flatnonzero(m5)
        i15 = np.flatnonzero(m15)

        keys = np.concatenate([k, k[i3], k[i5], k[i15]])
        ts = np.concatenate(
            [
                1000 + (k % 7),
                2000 + (k[i3] % 11),
                3000 + (k[i5] % 13),
                4000 + (k[i15] % 17),
            ]
        )
        op = pa.array(
            ["upsert"] * n
            + ["upsert"] * i3.size
            + ["delete"] * i5.size
            + ["upsert"] * i15.size,
            pa.string(),
        )
        cust_np = cust.to_numpy(zero_copy_only=False)
        cust_out = np.concatenate(
            [cust_np, cust_np[i3], np.zeros(i5.size, np.int64), cust_np[i15]]
        )
        p1 = np.where(m33[i3], pv[i3], pv[i3] + 111)
        price_out = np.concatenate(
            [pv, p1, np.zeros(i5.size, np.int64), pv[i15] + 7777]
        )
        null_mask = np.concatenate(
            [
                np.zeros(n, bool),
                np.zeros(i3.size, bool),
                np.ones(i5.size, bool),
                np.zeros(i15.size, bool),
            ]
        )
        return pa.table(
            {
                "o_orderkey": pa.array(keys, pa.int64()),
                "ts": pa.array(ts, pa.int64()),
                "op": op,
                "o_custkey": pa.array(cust_out, mask=null_mask, type=pa.int64()),
                "price_cents": pa.array(
                    price_out, mask=null_mask, type=pa.int64()
                ),
            }
        )

    raw = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    return raw.map_batches(mk_log, batch_format="pyarrow")


def orders_scd2(sf_dir: str) -> ray.data.Dataset:
    """SCD type-2 dimension build (``state/scd.py``) over the synthetic
    orders change log — version intervals with unchanged-upsert
    suppression, delete-closed lifetimes, and an open re-insert tail.
    ONE volume-sized keyed exchange; the per-bucket walk is a lexsort plus
    shifted-array masks (suppression, within-key lead, emission) with no
    per-row Python."""
    from ..state.scd import scd2_build

    return scd2_build(
        _orders_version_log(sf_dir), key_col="o_orderkey", ts_col="ts"
    )


ORDERS_SCD2_SQL = """
WITH base AS (
  SELECT o_orderkey AS k, CAST(o_custkey AS BIGINT) AS c,
         CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS p
  FROM orders
),
log AS (
  SELECT k, CAST(1000 + (k % 7) AS BIGINT) AS ts, 'upsert' AS op, c, p
  FROM base
  UNION ALL
  SELECT k, 2000 + (k % 11), 'upsert', c,
         CASE WHEN k % 33 = 0 THEN p ELSE p + 111 END
  FROM base WHERE k % 3 = 0
  UNION ALL
  SELECT k, 3000 + (k % 13), 'delete', NULL, NULL
  FROM base WHERE k % 5 = 0
  UNION ALL
  SELECT k, 4000 + (k % 17), 'upsert', c, p + 7777
  FROM base WHERE k % 15 = 0
),
prevs AS (
  SELECT k, ts, op, c, p,
         LAG(op) OVER w AS p_op,
         LAG(c)  OVER w AS p_c,
         LAG(p)  OVER w AS p_p
  FROM log WINDOW w AS (PARTITION BY k ORDER BY ts)
),
kept AS (
  SELECT * FROM prevs
  -- COALESCE: LAG is NULL on each key's first row and WHERE NOT(NULL)
  -- would silently drop it under three-valued logic
  WHERE NOT (op = 'upsert' AND COALESCE(p_op, '') = 'upsert'
             AND c IS NOT DISTINCT FROM p_c
             AND p IS NOT DISTINCT FROM p_p)
),
vers AS (
  SELECT k, ts, op, c, p,
         LEAD(ts) OVER (PARTITION BY k ORDER BY ts) AS valid_to
  FROM kept
)
SELECT k AS o_orderkey, c AS o_custkey, p AS price_cents,
       ts AS valid_from, valid_to,
       (valid_to IS NULL) AS is_current
FROM vers WHERE op = 'upsert'
"""


def events_zscore_outliers(sf_dir: str) -> ray.data.Dataset:
    """Grouped z-score outlier detection (``stages/agg.group_standardize``)
    — the StandardScaler shape every feature pipeline needs: each event's
    value standardizes against its type's population mean/std and only
    rows with ``|z| > 3`` survive.  Moments are exact int64 cents through
    ONE reduced exchange (one row per type); the per-row z is the pinned
    float recipe ``(double(c) − double(S)/double(n)) · n / sqrt(double(
    n·Q − S²))``-equivalent the SQL oracle replicates term-for-term
    (sqrt/div/sub are IEEE-correctly-rounded, so numpy and DuckDB agree
    bit-for-bit)."""
    from ..stages.agg import group_standardize

    events = read_table(
        sf_dir, "events", columns=["event_id", "event_type", "value"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"].cast(pa.int64()),
                "event_type": batch["event_type"],
                "cents": _cents(batch["value"]),
            }
        )

    cents = events.map_batches(prep, batch_format="pyarrow")
    return group_standardize(
        cents, ["event_type"], "cents", min_abs_z=3.0
    )


EVENTS_ZSCORE_SQL = """
WITH c AS (
  SELECT event_id, event_type,
         CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
m AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
         SUM(cents) AS s, SUM(cents * cents) AS q
  FROM c GROUP BY 1
),
st AS (
  SELECT event_type,
         CAST(s AS DOUBLE) / CAST(n AS DOUBLE) AS mu,
         SQRT(CAST(n * q - s * s AS DOUBLE)) / CAST(n AS DOUBLE) AS sd
  FROM m WHERE n * q - s * s > 0
)
SELECT event_id, c.event_type, cents,
       (CAST(cents AS DOUBLE) - mu) / sd AS z
FROM c JOIN st USING (event_type)
WHERE ABS((CAST(cents AS DOUBLE) - mu) / sd) > 3
"""


def part_categorical_encode(sf_dir: str) -> ray.data.Dataset:
    """Categorical feature encoding (``stages/encode.categorical_encode``)
    — p_brand and p_type dictionary-encode to their sorted-vocabulary
    dense ranks, the deterministic OrdinalEncoder every tabular feature
    pipeline starts with.  Two streaming scans: a per-block C++ distinct
    reduce builds each vocabulary (collected volume is blocks × vocab, not
    rows), the sorted vocab arrays broadcast once, and the encode pass is
    one ``pc.index_in`` hash probe per block.  Sorted order == SQL
    ``ROW_NUMBER() OVER (ORDER BY v) − 1`` on the distinct set."""
    from ..stages.encode import categorical_encode

    parts = read_table(
        sf_dir, "part", columns=["p_partkey", "p_brand", "p_type"]
    )
    return categorical_encode(parts, ["p_brand", "p_type"])


PART_CATEGORICAL_ENCODE_SQL = """
WITH bv AS (
  SELECT v, CAST(ROW_NUMBER() OVER (ORDER BY v) - 1 AS BIGINT) AS idx
  FROM (SELECT DISTINCT p_brand AS v FROM part WHERE p_brand IS NOT NULL)
),
cv AS (
  SELECT v, CAST(ROW_NUMBER() OVER (ORDER BY v) - 1 AS BIGINT) AS idx
  FROM (SELECT DISTINCT p_type AS v FROM part WHERE p_type IS NOT NULL)
)
SELECT p_partkey, p_brand, p_type,
       bv.idx AS p_brand_idx, cv.idx AS p_type_idx
FROM part
LEFT JOIN bv ON p_brand = bv.v
LEFT JOIN cv ON p_type = cv.v
"""


def orders_target_encode(sf_dir: str) -> ray.data.Dataset:
    """Leave-one-out target encoding (``stages/encode.target_encode``) —
    each order's priority encodes as the mean total price of all OTHER
    orders sharing the priority, the leakage-safe categorical feature.
    Exact int64 cent sums through one reduced exchange (one row per
    priority), then one pinned float division per row the SQL oracle
    replicates term-for-term; singleton categories yield NULL."""
    from ..stages.encode import target_encode

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderpriority", "o_totalprice"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
                "o_orderpriority": batch["o_orderpriority"],
                "price_cents": _cents(batch["o_totalprice"]),
            }
        )

    return target_encode(
        orders.map_batches(prep, batch_format="pyarrow"),
        ["o_orderpriority"],
        "price_cents",
        out_col="te",
    )


ORDERS_TARGET_ENCODE_SQL = """
WITH c AS (
  SELECT o_orderkey, o_orderpriority,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS price_cents
  FROM orders
),
m AS (
  SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n,
         SUM(price_cents) AS s
  FROM c GROUP BY 1
)
SELECT o_orderkey, c.o_orderpriority, price_cents,
       CASE WHEN n > 1
            THEN CAST(s - price_cents AS DOUBLE) / CAST(n - 1 AS DOUBLE)
       END AS te
FROM c JOIN m USING (o_orderpriority)
"""


def lineitem_quality_audit(sf_dir: str) -> pa.Table:
    """Data-quality constraint audit (``state/quality.py``) — the
    Deequ/dbt-test data card over lineitem: not-null, accepted-range,
    uniqueness and referential checks folded into one
    (check_name, violations, passed) table.  The mix is deliberately
    half-failing (quantity range and bare-orderkey uniqueness violate;
    the true PK, the FKs and the null checks pass) so the oracle pins
    non-trivial counts in both directions.  Every check streams its
    table once; only ``unique`` exchanges (distinct keys), and the FK
    parents broadcast once as sorted key vectors."""
    from ..state.quality import (
        check_foreign_key,
        check_not_null,
        check_range,
        check_unique,
        quality_audit,
    )

    li = read_table(
        sf_dir,
        "lineitem",
        columns=[
            "l_orderkey", "l_linenumber", "l_suppkey",
            "l_returnflag", "l_quantity", "l_discount",
        ],
    )
    supp = read_table(sf_dir, "supplier", columns=["s_suppkey"])
    return quality_audit(
        [
            ("l_returnflag_not_null", lambda: check_not_null(li, "l_returnflag")),
            ("l_quantity_range_1_25", lambda: check_range(li, "l_quantity", 1, 25)),
            ("l_discount_range_0_005", lambda: check_range(li, "l_discount", 0.0, 0.05)),
            ("pk_orderkey_linenumber_unique",
             lambda: check_unique(li, ["l_orderkey", "l_linenumber"])),
            ("orderkey_unique", lambda: check_unique(li, ["l_orderkey"])),
            ("fk_suppkey_supplier",
             lambda: check_foreign_key(li, "l_suppkey", supp, "s_suppkey")),
        ]
    )


LINEITEM_QUALITY_AUDIT_SQL = """
WITH checks AS (
  SELECT 'l_returnflag_not_null' AS check_name,
         CAST(COUNT(*) FILTER (WHERE l_returnflag IS NULL) AS BIGINT)
           AS violations
  FROM lineitem
  UNION ALL
  SELECT 'l_quantity_range_1_25',
         CAST(COUNT(*) FILTER (WHERE l_quantity < 1 OR l_quantity > 25)
              AS BIGINT)
  FROM lineitem
  UNION ALL
  SELECT 'l_discount_range_0_005',
         CAST(COUNT(*) FILTER (WHERE l_discount < 0.0 OR l_discount > 0.05)
              AS BIGINT)
  FROM lineitem
  UNION ALL
  SELECT 'pk_orderkey_linenumber_unique',
         (SELECT CAST(COUNT(*) AS BIGINT) FROM
           (SELECT 1 FROM lineitem GROUP BY l_orderkey, l_linenumber
            HAVING COUNT(*) > 1))
  UNION ALL
  SELECT 'orderkey_unique',
         (SELECT CAST(COUNT(*) AS BIGINT) FROM
           (SELECT 1 FROM lineitem GROUP BY l_orderkey HAVING COUNT(*) > 1))
  UNION ALL
  SELECT 'fk_suppkey_supplier',
         CAST(COUNT(*) FILTER (WHERE l_suppkey IS NOT NULL AND l_suppkey
              NOT IN (SELECT s_suppkey FROM supplier)) AS BIGINT)
  FROM lineitem
)
SELECT check_name, violations, (violations = 0) AS passed FROM checks
"""


def customer_running_revenue(sf_dir: str) -> ray.data.Dataset:
    """Running-total window aggregate (``windows.group_running_sum``) —
    each order's cumulative cents per customer in order-date order (ties
    broken by orderkey for the total order SQL's running window also
    needs): SUM(...) OVER (PARTITION BY custkey ORDER BY date, key ROWS
    UNBOUNDED PRECEDING).  One coarse-bucket exchange, then a single
    global cumsum minus each run's prefix base — no per-group loop."""
    from ..stages.windows import group_running_sum

    orders = read_table(
        sf_dir,
        "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
                "o_custkey": batch["o_custkey"].cast(pa.int64()),
                "o_orderdate": batch["o_orderdate"],
                "price_cents": _cents(batch["o_totalprice"]),
            }
        )

    out = group_running_sum(
        orders.map_batches(prep, batch_format="pyarrow"),
        keys=["o_custkey"],
        order_cols=[("o_orderdate", "ascending"), ("o_orderkey", "ascending")],
        col="price_cents",
        out_col="running_cents",
    )
    return out.drop_columns(["o_orderdate"])


CUSTOMER_RUNNING_REVENUE_SQL = """
SELECT o_orderkey, o_custkey,
       CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS price_cents,
       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
            OVER (PARTITION BY o_custkey
                  ORDER BY o_orderdate, o_orderkey
                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_cents
FROM orders
"""


def part_name_clusters(sf_dir: str, min_jw: float = 0.84) -> ray.data.Dataset:
    """End-to-end entity resolution (``fuzzy.entity_clusters``): the
    JW-scored Levenshtein-band pairs of :func:`part_name_jw` close into
    clusters via connected components; every distinct p_name maps to its
    cluster's lexicographically smallest name (singletons map to
    themselves).  The oracle is a recursive transitive-closure CTE over
    the same pair predicate."""
    from ..stages.fuzzy import entity_clusters

    ds = read_table(sf_dir, "part", columns=["p_name"])
    return entity_clusters(ds, "p_name", min_jw=min_jw)


PART_NAME_CLUSTERS_SQL = """
WITH RECURSIVE d AS MATERIALIZED (
  SELECT p_name AS name, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM part GROUP BY 1
),
pairs AS MATERIALIZED (
  SELECT a.name AS na, b.name AS nb
  FROM d a JOIN d b ON a.name < b.name
  WHERE levenshtein(a.name, b.name) <= 2
    AND jaro_winkler_similarity(a.name, b.name) >= 0.84
),
edges AS MATERIALIZED (
  SELECT na AS u, nb AS v FROM pairs
  UNION
  SELECT nb, na FROM pairs
),
reach(u, v) AS (
  SELECT u, v FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
)
SELECT d.name,
       LEAST(d.name, COALESCE(MIN(r.v), d.name)) AS cluster,
       d.cnt
FROM d LEFT JOIN reach r ON r.u = d.name
GROUP BY d.name, d.cnt
"""


def purchase_attribution(sf_dir: str) -> ray.data.Dataset:
    """Last-touch attribution (``windows.group_last_match``): every
    purchase event carries the event_id of the LATEST strictly-preceding
    view by the same user in (ts, event_id) order, plus the microsecond
    gap — the marketing-attribution primitive.  The carry is three
    vector ops over one coarse-bucket exchange; purchases with no prior
    view keep NULLs (never dropped — null-position equality is part of
    the oracle contract)."""
    from ..stages.windows import group_last_match

    events = read_table(
        sf_dir,
        "events",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"].cast(pa.int64()),
                "ts": batch["ts"],
                "user_id": batch["user_id"].cast(pa.int64()),
                "event_type": batch["event_type"],
                "value_cents": _cents(batch["value"]),
                "is_view": pc.equal(batch["event_type"], "view"),
            }
        )

    carried = group_last_match(
        events.map_batches(prep, batch_format="pyarrow"),
        keys=["user_id"],
        order_cols=[("ts", "ascending"), ("event_id", "ascending")],
        flag_col="is_view",
        payload_cols={"event_id": "view_event_id", "ts": "view_ts"},
    )

    def finalize(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["event_type"], "purchase")
        b = batch.filter(keep)
        gap = pc.subtract(
            b["ts"].cast(pa.int64()), b["view_ts"].cast(pa.int64())
        )
        return pa.table(
            {
                "event_id": b["event_id"],
                "user_id": b["user_id"],
                "value_cents": b["value_cents"],
                "view_event_id": b["view_event_id"],
                "gap_us": gap,
            }
        )

    return carried.map_batches(finalize, batch_format="pyarrow")


PURCHASE_ATTRIBUTION_SQL = """
WITH w AS (
  SELECT user_id, event_id, event_type, ts,
         CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS value_cents,
         LAST_VALUE(CASE WHEN event_type = 'view' THEN event_id END
                    IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS view_event_id,
         LAST_VALUE(CASE WHEN event_type = 'view' THEN ts END IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS view_ts
  FROM events
)
SELECT event_id, user_id, value_cents,
       CAST(view_event_id AS BIGINT) AS view_event_id,
       epoch_us(ts) - epoch_us(view_ts) AS gap_us
FROM w WHERE event_type = 'purchase'
"""


def events_rolling_minmax(sf_dir: str, window: int = 7) -> ray.data.Dataset:
    """Rolling 7-row min AND max of per-user event value cents
    (``windows.group_rolling_extremes``) — both extremes in ONE walk over
    ONE coarse-bucket exchange via the van Herk–Gil-Werman block
    decomposition (O(n) total, window-width-independent; extremes admit
    no cumsum identity so the rolling-sum trick doesn't apply)."""
    from ..stages.windows import group_rolling_extremes

    events = read_table(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "value"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"].cast(pa.int64()),
                "ts": batch["ts"],
                "user_id": batch["user_id"].cast(pa.int64()),
                "value_cents": _cents(batch["value"]),
            }
        )

    out = group_rolling_extremes(
        events.map_batches(prep, batch_format="pyarrow"),
        keys=["user_id"],
        order_cols=[("ts", "ascending"), ("event_id", "ascending")],
        col="value_cents",
        window=window,
    )
    return out.drop_columns(["ts"])


EVENTS_ROLLING_MINMAX_SQL = """
SELECT event_id, user_id,
       CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS value_cents,
       CAST(MIN(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
            OVER (PARTITION BY user_id ORDER BY ts, event_id
                  ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS BIGINT)
           AS roll_min,
       CAST(MAX(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
            OVER (PARTITION BY user_id ORDER BY ts, event_id
                  ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS BIGINT)
           AS roll_max
FROM events
"""


def events_ewma(sf_dir: str, alpha: float = 0.25) -> ray.data.Dataset:
    """Per-user EWMA of event values (``windows.group_ewma``) — the
    smoothing recurrence ``s_i = 0.75·s_{i−1} + 0.25·v_i`` in event-time
    order, bit-equal to the oracle's recursive CTE because both sides run
    the identical two-rounding-site float step (α = 0.25 is a power of
    two, so ``α·v`` is an exact exponent shift).  One coarse-bucket
    exchange; the walk is O(max events per user) vector passes."""
    from ..stages.windows import group_ewma

    events = read_table(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "value"]
    )
    out = group_ewma(
        events,
        keys=["user_id"],
        order_cols=[("ts", "ascending"), ("event_id", "ascending")],
        col="value",
        out_col="ewma",
        alpha=alpha,
    )
    return out.drop_columns(["ts"])


EVENTS_EWMA_SQL = """
WITH RECURSIVE ordered AS MATERIALIZED (
  SELECT user_id, event_id, value,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
),
rec AS (
  SELECT user_id, event_id, value, rn, value AS ewma
  FROM ordered WHERE rn = 1
  UNION ALL
  SELECT o.user_id, o.event_id, o.value, o.rn,
         0.75 * r.ewma + 0.25 * o.value
  FROM ordered o JOIN rec r ON o.user_id = r.user_id AND o.rn = r.rn + 1
)
SELECT event_id, user_id, value, ewma FROM rec
"""


def events_holt(
    sf_dir: str, alpha: float = 0.5, beta: float = 0.25
) -> ray.data.Dataset:
    """Per-user Holt double-exponential smoothing of event values
    (``windows.group_holt``) — level + trend recurrences bit-equal to
    the oracle's two-column recursive CTE (α = 0.5, β = 0.25 are powers
    of two, so the α·v and β·d multiplies are exact shifts)."""
    from ..stages.windows import group_holt

    events = read_table(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "value"]
    )
    out = group_holt(
        events,
        keys=["user_id"],
        order_cols=[("ts", "ascending"), ("event_id", "ascending")],
        col="value",
        alpha=alpha,
        beta=beta,
    )
    return out.drop_columns(["ts"])


EVENTS_HOLT_SQL = """
WITH RECURSIVE ordered AS MATERIALIZED (
  SELECT user_id, event_id, value,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
),
rec AS (
  SELECT user_id, event_id, value, rn,
         value AS level, CAST(0.0 AS DOUBLE) AS trend
  FROM ordered WHERE rn = 1
  UNION ALL
  SELECT o.user_id, o.event_id, o.value, o.rn,
         0.5 * o.value + 0.5 * (r.level + r.trend),
         0.25 * ((0.5 * o.value + 0.5 * (r.level + r.trend)) - r.level)
             + 0.75 * r.trend
  FROM ordered o JOIN rec r ON o.user_id = r.user_id AND o.rn = r.rn + 1
)
SELECT event_id, user_id, value, level, trend FROM rec
"""


def events_value_bins(sf_dir: str) -> ray.data.Dataset:
    """Grouped equi-depth discretization (``stages/encode.quantile_bin``)
    — each event's value cents map to one of 8 per-type quantile bins,
    the KBinsDiscretizer shape.  The bin is ``#{bounds ≤ v}`` over the
    type's exact discrete quantiles (DuckDB ``quantile_disc``) so equal
    values always share a bin — deterministic where NTILE is not.  ONE
    histogram exchange builds all 7 bounds per type; the assign pass is a
    broadcast row-vs-bounds comparison."""
    from ..stages.encode import quantile_bin

    events = read_table(
        sf_dir, "events", columns=["event_id", "event_type", "value"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"].cast(pa.int64()),
                "event_type": batch["event_type"],
                "cents": _cents(batch["value"]),
            }
        )

    return quantile_bin(
        events.map_batches(prep, batch_format="pyarrow"),
        ["event_type"],
        "cents",
        8,
    )


EVENTS_VALUE_BINS_SQL = """
WITH c AS (
  SELECT event_id, event_type,
         CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
bounds AS (
  -- quantile_disc needs CONSTANT probabilities: the list form
  SELECT event_type,
         UNNEST(quantile_disc(cents,
           [1.0/8, 2.0/8, 3.0/8, 4.0/8, 5.0/8, 6.0/8, 7.0/8])) AS b
  FROM c GROUP BY event_type
)
SELECT event_id, c.event_type, cents,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM bounds
        WHERE bounds.event_type = c.event_type AND bounds.b <= c.cents)
         AS bin
FROM c
"""


def part_cosine_pairs(sf_dir: str) -> ray.data.Dataset:
    """Item-item cosine similarity over co-purchase baskets — the
    collaborative-filtering primitive: for every part pair co-bought in
    ≥ 2 orders, ``cos = n_pair / sqrt(n_i · n_j)`` with n_i the part's
    distinct-order count.  Composes the existing co-occurrence edge list
    (:func:`basket_pair_counts` — pair expansion bounded by basket size,
    partial counts through one keyed exchange) with per-part distinct
    order counts (two reduced C++ bucket aggregates: distinct (order,
    part), then count per part); the part-count table is catalog-bounded,
    collects once and broadcasts sorted for a searchsorted probe in the
    pairs stream — the cosine costs ZERO extra exchange.  The float
    finish ``double(n)/sqrt(double(n_i)·double(n_j))`` is all
    correctly-rounded IEEE ops, so numpy and DuckDB agree bit-for-bit."""
    import ray as _ray

    from ..stages.agg import bucket_groupby_agg

    pairs = basket_pair_counts(sf_dir)

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    distinct = bucket_groupby_agg(
        li, ["l_orderkey", "l_partkey"], [(None, "count", "_n")]
    )
    counts = bucket_groupby_agg(
        distinct.select_columns(["l_partkey"]),
        ["l_partkey"],
        [(None, "count", "n")],
    )
    parts_tbl = pa.concat_tables(
        [
            t
            for t in _ray.get(arrow_block_refs(counts))
            if "l_partkey" in t.column_names
        ],
        promote_options="default",
    )
    pk = parts_tbl["l_partkey"].to_numpy(zero_copy_only=False)
    nv = parts_tbl["n"].to_numpy(zero_copy_only=False)
    order = np.argsort(pk, kind="stable")
    lookup_ref = _ray.put((pk[order], nv[order].astype(np.float64)))

    def cosine(batch: pa.Table) -> pa.Table:
        keys, nf = _ray.get(lookup_ref)
        n = batch["n_orders"].to_numpy(zero_copy_only=False)
        keep = n >= 2
        t = batch.filter(pa.array(keep))
        if t.num_rows == 0:
            return pa.table(
                {
                    "p1": pa.array([], pa.int64()),
                    "p2": pa.array([], pa.int64()),
                    "n_orders": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        p1 = t["p1"].to_numpy(zero_copy_only=False)
        p2 = t["p2"].to_numpy(zero_copy_only=False)
        i1 = np.searchsorted(keys, p1)
        i2 = np.searchsorted(keys, p2)
        cos = t["n_orders"].to_numpy(zero_copy_only=False).astype(
            np.float64
        ) / np.sqrt(nf[i1] * nf[i2])
        return pa.table(
            {
                "p1": t["p1"],
                "p2": t["p2"],
                "n_orders": t["n_orders"],
                "cosine": pa.array(cos, pa.float64()),
            }
        )

    return pairs.map_batches(cosine, batch_format="pyarrow")


PART_COSINE_PAIRS_SQL = """
WITH d AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
pairs AS (
  SELECT a.p AS p1, b.p AS p2, CAST(COUNT(*) AS BIGINT) AS n_orders
  FROM d a JOIN d b ON a.o = b.o AND a.p < b.p
  GROUP BY 1, 2
),
cnt AS (SELECT p, CAST(COUNT(*) AS BIGINT) AS n FROM d GROUP BY 1)
SELECT p1, p2, n_orders,
       CAST(n_orders AS DOUBLE) /
       SQRT(CAST(c1.n AS DOUBLE) * CAST(c2.n AS DOUBLE)) AS cosine
FROM pairs
JOIN cnt c1 ON c1.p = p1
JOIN cnt c2 ON c2.p = p2
WHERE n_orders >= 2
"""


def orders_ivm_refresh(sf_dir: str) -> ray.data.Dataset:
    """Incremental aggregate view maintenance (``state/ivm.py``) — the
    materialized view (orders per customer: count + cent sum) refreshes
    from a deterministic CDC batch (orders ``%7==1`` delete with their
    full image; ``%11==2`` re-insert with bumped cents) WITHOUT
    rescanning base facts: the delta folds map-side to per-key partials,
    and ONE coarse-bucket exchange merges the two group-domain-sized
    sides with a searchsorted alignment.  SUM/COUNT are
    self-maintainable; a key driven negative or cancelled with a nonzero
    sum raises loudly."""
    from ..stages.agg import bucket_groupby_agg
    from ..state.ivm import incremental_agg

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
                "o_custkey": batch["o_custkey"].cast(pa.int64()),
                "cents": _cents(batch["o_totalprice"]),
            }
        )

    facts = orders.map_batches(prep, batch_format="pyarrow")
    view = bucket_groupby_agg(
        facts.select_columns(["o_custkey", "cents"]),
        ["o_custkey"],
        [(None, "count", "n"), ("cents", "sum", "cents")],
    )

    def mk_changes(batch: pa.Table) -> pa.Table:
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        cv = batch["cents"].to_numpy(zero_copy_only=False)
        de = np.flatnonzero(ok % 7 == 1)
        ins = np.flatnonzero(ok % 11 == 2)
        return pa.table(
            {
                "op": pa.array(
                    ["delete"] * de.size + ["insert"] * ins.size, pa.string()
                ),
                "o_custkey": pa.array(
                    np.concatenate([ck[de], ck[ins]]), pa.int64()
                ),
                "cents": pa.array(
                    np.concatenate([cv[de], cv[ins] + 999]), pa.int64()
                ),
            }
        )

    changes = facts.map_batches(mk_changes, batch_format="pyarrow")
    return incremental_agg(
        view, changes, key_col="o_custkey", count_col="n", sum_cols=["cents"]
    )


ORDERS_IVM_REFRESH_SQL = """
WITH base AS (
  SELECT o_custkey AS k,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS v,
         o_orderkey AS ok
  FROM orders
),
parts AS (
  SELECT k, 1 AS cnt, v AS sv FROM base
  UNION ALL SELECT k, -1, -v FROM base WHERE ok % 7 = 1
  UNION ALL SELECT k, 1, v + 999 FROM base WHERE ok % 11 = 2
)
SELECT k AS o_custkey, CAST(SUM(cnt) AS BIGINT) AS n,
       CAST(SUM(sv) AS BIGINT) AS cents
FROM parts GROUP BY k HAVING SUM(cnt) > 0
"""


def user_top_event(sf_dir: str) -> ray.data.Dataset:
    """Per-user modal event type (``stages/agg.group_mode``) — the
    categorical aggregate the mean/quantile family lacked: each user's
    most frequent event_type with deterministic ties (count desc, type
    asc — SQL's bare mode() leaves ties unspecified, so the oracle is
    the pinned ROW_NUMBER form).  One histogram exchange (volume = users
    × distinct types per block); the finalize is a C++ sort + first-row
    mask."""
    from ..stages.agg import group_mode

    events = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    return group_mode(
        events, ["user_id"], "event_type", out_col="top_event", count_out="n"
    )


USER_TOP_EVENT_SQL = """
SELECT user_id, top_event, n FROM (
  SELECT user_id, event_type AS top_event,
         CAST(COUNT(*) AS BIGINT) AS n,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY COUNT(*) DESC, event_type ASC) AS rn
  FROM events WHERE event_type IS NOT NULL
  GROUP BY user_id, event_type
) WHERE rn = 1
"""


PARTITIONED_CACHE_ROOT = "/tmp/dsor_partitioned_cache"


def orders_partitioned_prune(sf_dir: str) -> pa.Table:
    """Hive-partitioned layout end to end (``state/partitioned.py``):
    orders land once as an ``o_orderpriority=<v>/`` tree (cached per
    sf_dir behind the atomic manifest), then a two-priority scan reads
    ONLY those directories — partition pruning with zero manifest pages
    — and aggregates count + cent sum per priority.  The oracle runs the
    same predicate over the ORIGINAL table, so equality proves the
    write→discover→prune→read loop lossless (the partition column itself
    is recovered from the hive path)."""
    import os as _os

    from ..state.partitioned import read_partitions, write_partitioned

    tag = sf_dir.strip("/").replace("/", "_")
    root = _os.path.join(PARTITIONED_CACHE_ROOT, tag)
    if not _os.path.exists(_os.path.join(root, "_PARTITIONED.json")):
        orders = read_table(
            sf_dir, "orders", columns=["o_orderkey", "o_orderpriority", "o_totalprice"]
        )
        write_partitioned(orders, root, ["o_orderpriority"])

    want = ["1-URGENT", "3-MEDIUM"]
    ds = read_partitions(root, want)

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "n": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
                "cents": _cents(batch["o_totalprice"]),
            }
        )
        g = t.group_by("o_orderpriority").aggregate(
            [("n", "sum"), ("cents", "sum")]
        )
        return pa.table(
            {
                "o_orderpriority": g["o_orderpriority"],
                "n": g["n_sum"].cast(pa.int64()),
                "cents": g["cents_sum"].cast(pa.int64()),
            }
        )

    from ..cluster import collect_table

    t = collect_table(ds.map_batches(partial, batch_format="pyarrow"))
    acc: dict[str, list[int]] = {}
    if t is not None and t.num_rows:
        for p, n, c in zip(
            t["o_orderpriority"].to_pylist(),
            t["n"].to_pylist(),
            t["cents"].to_pylist(),
        ):
            cur = acc.setdefault(p, [0, 0])
            cur[0] += int(n)
            cur[1] += int(c)
    rows = sorted(acc.items())
    return pa.table(
        {
            "o_orderpriority": pa.array([k for k, _ in rows], pa.string()),
            "n": pa.array([v[0] for _, v in rows], pa.int64()),
            "cents": pa.array([v[1] for _, v in rows], pa.int64()),
        }
    )


ORDERS_PARTITIONED_PRUNE_SQL = """
SELECT o_orderpriority,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS cents
FROM orders
WHERE o_orderpriority IN ('1-URGENT', '3-MEDIUM')
GROUP BY 1 ORDER BY 1
"""


def customer_rolling3_revenue(sf_dir: str) -> ray.data.Dataset:
    """Row-based rolling window (``windows.group_rolling_sum``) — each
    order's trailing-3-order cent sum per customer: SUM(...) OVER
    (PARTITION BY custkey ORDER BY date, key ROWS BETWEEN 2 PRECEDING
    AND CURRENT ROW).  The walk is cumsum minus the run-clamped shifted
    cumsum — two gathers, no per-group loop."""
    from ..stages.windows import group_rolling_sum

    orders = read_table(
        sf_dir,
        "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
                "o_custkey": batch["o_custkey"].cast(pa.int64()),
                "o_orderdate": batch["o_orderdate"],
                "price_cents": _cents(batch["o_totalprice"]),
            }
        )

    out = group_rolling_sum(
        orders.map_batches(prep, batch_format="pyarrow"),
        keys=["o_custkey"],
        order_cols=[("o_orderdate", "ascending"), ("o_orderkey", "ascending")],
        col="price_cents",
        out_col="rolling3_cents",
        window=3,
    )
    return out.drop_columns(["o_orderdate"])


CUSTOMER_ROLLING3_REVENUE_SQL = """
SELECT o_orderkey, o_custkey,
       CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS price_cents,
       CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
            OVER (PARTITION BY o_custkey
                  ORDER BY o_orderdate, o_orderkey
                  ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT)
         AS rolling3_cents
FROM orders
"""


def user_event_concat(sf_dir: str) -> ray.data.Dataset:
    """Per-user string_agg (``stages/agg.group_concat``) — every event
    type the user emitted, value-ascending (the PINNED order that makes
    the list a pure function of the multiset; bare string_agg is
    input-order nondeterministic).  Duplicates compress to counts on the
    map side, so the exchange carries users × distinct types, not
    events."""
    from ..stages.agg import group_concat

    events = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    return group_concat(
        events, ["user_id"], "event_type", out_col="types_csv"
    )


USER_EVENT_CONCAT_SQL = """
SELECT user_id,
       COALESCE(string_agg(event_type, ',' ORDER BY event_type), '')
         AS types_csv
FROM events GROUP BY user_id
"""


def events_impute_value(sf_dir: str) -> ray.data.Dataset:
    """Group-mean imputation (``stages/encode.impute_group_mean``) —
    event cents nulled deterministically (``event_id %13 == 0``) then
    filled with the round-half-up per-type mean of the remaining rows;
    the fill is the pinned ``FLOOR(double(Σv)/double(n) + 0.5)`` both
    sides share, and ``was_imputed`` marks filled rows.  Two streaming
    scans, zero row-level exchange."""
    from ..stages.encode import impute_group_mean

    events = read_table(
        sf_dir, "events", columns=["event_id", "event_type", "value"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].cast(pa.int64())
        iv = ids.to_numpy(zero_copy_only=False)
        cents = _cents(batch["value"]).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": ids,
                "event_type": batch["event_type"],
                "cents": pa.array(cents, mask=(iv % 13 == 0), type=pa.int64()),
            }
        )

    return impute_group_mean(
        events.map_batches(prep, batch_format="pyarrow"),
        ["event_type"],
        "cents",
    )


EVENTS_IMPUTE_VALUE_SQL = """
WITH c AS (
  SELECT event_id, event_type,
         CASE WHEN event_id % 13 = 0 THEN NULL
              ELSE CAST(FLOOR(value * 100 + 0.5) AS BIGINT) END AS cents
  FROM events
),
m AS (
  SELECT event_type, CAST(COUNT(cents) AS BIGINT) AS n, SUM(cents) AS s
  FROM c GROUP BY 1 HAVING COUNT(cents) > 0
)
SELECT event_id, c.event_type,
       COALESCE(cents,
         CAST(FLOOR(CAST(s AS DOUBLE) / CAST(n AS DOUBLE) + 0.5) AS BIGINT))
         AS cents,
       (cents IS NULL AND m.event_type IS NOT NULL) AS was_imputed
FROM c LEFT JOIN m USING (event_type)
"""


def contrastive_negatives(
    ds: ray.data.Dataset,
    *,
    id_col: str,
    n_ids: int,
    k: int = 3,
    method: str = "md5",
    salt: str = "neg42",
) -> ray.data.Dataset:
    """Deterministic negative sampling for contrastive training — each id
    gets ``k`` pseudo-random negatives drawn from the DENSE id domain
    ``0..n_ids−1`` (validate density before calling; a sparse domain
    wants a ranked-id indirection first).  The negative is a pure
    function of (id, rank, salt): ``H(id:rank) % n_ids``, self-collisions
    stepping to the next id — so shards are resumable and
    parallelism-invariant by construction, the export-shard discipline.

    ``method="md5"`` is the SQL-parity rule (DuckDB replicates the digest
    arithmetic exactly); ``method="fast"`` is the production path —
    the same splitmix64 mix the samplers use, zero per-row Python.
    Zero exchange: one streaming map over the id column."""
    import hashlib as _h

    from ..hashing import hash64_array, mix64

    if method not in ("fast", "md5"):
        raise ValueError(f"method must be 'fast' or 'md5', got {method!r}")
    if n_ids < 2:
        raise ValueError("need at least 2 ids to draw a negative")
    if k < 1:
        raise ValueError("k must be >= 1")
    salt_h = _salt_hash(salt)

    def expand(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = ids.size
        rep_ids = np.repeat(ids, k)
        ranks = np.tile(np.arange(k, dtype=np.int64), n)
        if method == "fast":
            h = mix64(
                hash64_array(pa.array(rep_ids * np.int64(k) + ranks, pa.int64()))
                ^ salt_h
            )
            neg = (h % np.uint64(n_ids)).astype(np.int64)
        else:
            md5 = _h.md5
            neg = np.fromiter(
                (
                    int.from_bytes(
                        md5(f"{i}:{r}".encode()).digest()[:4], "big"
                    )
                    % n_ids
                    for i, r in zip(rep_ids, ranks)
                ),
                np.int64,
                count=rep_ids.size,
            )
        hit = neg == rep_ids
        neg[hit] = (neg[hit] + 1) % n_ids
        return pa.table(
            {
                id_col: pa.array(rep_ids, pa.int64()),
                "neg_rank": pa.array(ranks, pa.int64()),
                "neg_id": pa.array(neg, pa.int64()),
            }
        )

    return ds.select_columns([id_col]).map_batches(
        expand, batch_format="pyarrow"
    )


def embedding_negatives(sf_dir: str) -> ray.data.Dataset:
    """Contrastive negative pairs over the embedding ids (k = 3, md5
    SQL-parity mode).  The id domain's density is validated from one
    cheap aggregate (min/max/count over the id column) before the
    streaming expand."""
    import ray as _ray

    ds = read_table(sf_dir, "embeddings", columns=["vec_id"])

    def bounds(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].cast(pa.int64())
        return pa.table(
            {
                "lo": pa.array([pc.min(ids).as_py()], pa.int64()),
                "hi": pa.array([pc.max(ids).as_py()], pa.int64()),
                "n": pa.array([len(ids)], pa.int64()),
            }
        )

    parts = [
        t
        for t in _ray.get(
            arrow_block_refs(
            ds.map_batches(bounds, batch_format="pyarrow")
        )
        )
        if "n" in t.column_names and t.num_rows
    ]
    merged = pa.concat_tables(parts, promote_options="default")
    lo = min(merged["lo"].to_pylist())
    hi = max(merged["hi"].to_pylist())
    n = sum(merged["n"].to_pylist())
    if lo != 0 or hi != n - 1:
        raise ValueError(
            f"vec_id domain [{lo}, {hi}] with {n} rows is not dense — "
            "rank the ids first"
        )
    return contrastive_negatives(ds, id_col="vec_id", n_ids=n, k=3)


EMBEDDING_NEGATIVES_SQL = """
WITH n AS (SELECT CAST(COUNT(*) AS BIGINT) AS c FROM embeddings),
raw AS (
  SELECT vec_id, CAST(r.j AS BIGINT) AS neg_rank,
         CAST(CAST(('0x' || substr(md5(vec_id || ':' || r.j), 1, 8))
              AS UBIGINT) % (SELECT c FROM n) AS BIGINT) AS neg
  FROM embeddings, range(0, 3) r(j)
)
SELECT vec_id, neg_rank,
       CASE WHEN neg = vec_id THEN (neg + 1) % (SELECT c FROM n)
            ELSE neg END AS neg_id
FROM raw
"""


BLOOM_CACHE_ROOT = "/tmp/dsor_bloomindex_cache"


def orders_bloom_lookup(sf_dir: str) -> ray.data.Dataset:
    """Bloom-filter data skipping (``state/bloomindex.py``) end to end —
    the equality complement of the zone map: orders land date-sorted
    across many files (cached per sf_dir), so ONE customer's orders
    scatter and every file's custkey [min,max] overlaps the lookup — the
    zone map cannot prune.  The per-file Bloom filter can: a file whose
    k probe bits miss provably lacks the customer, and the residual
    equality filter inside the kept files makes the result exact
    regardless of false positives.  The pruning ratio is asserted in
    tests; here the point is byte-exact equality with the oracle's plain
    predicate over the original table."""
    import json as _json
    import shutil as _shutil

    from ..state.bloomindex import build_bloom_index, scan_pruned_eq

    tag = sf_dir.strip("/").replace("/", "_")
    cache = os.path.join(BLOOM_CACHE_ROOT, tag)
    marker = os.path.join(cache, "_COMPLETE")
    if not os.path.exists(marker):
        _shutil.rmtree(cache, ignore_errors=True)
        (
            read_table(
                sf_dir,
                "orders",
                columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
            )
            .sort("o_orderdate")
            .write_parquet(cache)
        )
        with open(marker, "w") as f:
            _json.dump({"sf_dir": sf_dir}, f)
    build_bloom_index(cache, "o_custkey")

    ds = scan_pruned_eq(
        cache, "o_custkey", 42, columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def project(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "o_orderkey": pa.array([], pa.int64()),
                    "o_custkey": pa.array([], pa.int64()),
                    "price_cents": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
                "o_custkey": batch["o_custkey"].cast(pa.int64()),
                "price_cents": _cents(batch["o_totalprice"]),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


ORDERS_BLOOM_LOOKUP_SQL = """
SELECT o_orderkey, o_custkey,
       CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS price_cents
FROM orders WHERE o_custkey = 42
"""


ZORDER_CACHE_ROOT = "/tmp/dsor_zorder_cache"


def lineitem_zorder_scan(sf_dir: str) -> "pd.DataFrame":
    """Z-order clustering end to end (``state/zorder.py``): lineitem
    lands Morton-clustered by (l_partkey, l_suppkey) — each file a small
    SUBCUBE of the 2-D key space (cached per sf_dir) — so the plain zone
    map prunes range scans on EITHER column; here the scan filters on
    l_suppkey, the SECOND interleaved column, which a single-column sort
    on partkey could never prune.  The residual range applies inside the
    kept files (zonemap contract: correctness never depends on the
    pruning) and the revenue aggregate merges driver-side over one
    row."""
    import json as _json
    import shutil as _shutil

    import pandas as pd

    from ..cluster import collect_table
    from ..state.zonemap import build_zonemap, scan_pruned
    from ..state.zorder import zorder_write

    tag = sf_dir.strip("/").replace("/", "_")
    cache = os.path.join(ZORDER_CACHE_ROOT, tag)
    marker = os.path.join(cache, "_COMPLETE")
    if not os.path.exists(marker):
        _shutil.rmtree(cache, ignore_errors=True)
        li = read_table(
            sf_dir,
            "lineitem",
            columns=["l_partkey", "l_suppkey", "l_extendedprice"],
        )
        zorder_write(li, ["l_partkey", "l_suppkey"], cache, n_files=32)
        with open(marker, "w") as f:
            _json.dump({"sf_dir": sf_dir}, f)
    build_zonemap(cache, ["l_partkey", "l_suppkey"])

    # suppkey spans 0..9 at sf0.001 and 0..99 at sf0.01 — [2, 4] is
    # non-empty at every scale and prunes once files subdivide the cube
    ds, _read, _total = scan_pruned(
        cache, "l_suppkey", 2, 4, columns=["l_suppkey", "l_extendedprice"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "n": pa.array([], pa.int64()),
                    "revenue_cents": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "n": pa.array([batch.num_rows], pa.int64()),
                "revenue_cents": pa.array(
                    [
                        int(
                            _cents(batch["l_extendedprice"])
                            .to_numpy(zero_copy_only=False)
                            .sum()
                        )
                    ],
                    pa.int64(),
                ),
            }
        )

    t = collect_table(ds.map_batches(partial, batch_format="pyarrow"))
    n = rev = 0
    if t is not None and t.num_rows:
        n = sum(t["n"].to_pylist())
        rev = sum(t["revenue_cents"].to_pylist())
    return pd.DataFrame({"n": [int(n)], "revenue_cents": [int(rev)]})


LINEITEM_ZORDER_SCAN_SQL = """
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS revenue_cents
FROM lineitem WHERE l_suppkey BETWEEN 2 AND 4
"""


def lineitem_grouping_sets(sf_dir: str) -> ray.data.Dataset:
    """GROUPING SETS (``stages/agg.grouping_sets_sum``) — the
    arbitrary-subset generalization CUBE and ROLLUP specialize: quantity
    and revenue totals at ((flag, status), (flag), (status), ()) in ONE
    corpus pass, every coarser set derived from the reduced full-key
    aggregate."""
    from ..stages.agg import grouping_sets_sum

    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": pa.array(
                    np.floor(q + 0.5).astype(np.int64), pa.int64()
                ),
                "cents": _cents(batch["l_extendedprice"]),
            }
        )

    return grouping_sets_sum(
        li.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [("l_returnflag", "l_linestatus"), ("l_returnflag",), ("l_linestatus",), ()],
        ["qty", "cents"],
    )


LINEITEM_GROUPING_SETS_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS qty,
       CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS cents,
       CAST(COUNT(*) AS BIGINT) AS n
FROM lineitem
GROUP BY GROUPING SETS ((l_returnflag, l_linestatus), (l_returnflag),
                        (l_linestatus), ())
"""


def orders_scd2_asof(sf_dir: str) -> ray.data.Dataset:
    """Time travel — the ``AS OF`` read the SCD2 table exists to serve:
    the state of the dimension at T = 2500 is the version rows whose
    interval covers T (``valid_from ≤ T < valid_to``, open intervals
    included) — a PURE streaming filter over the scd2_build output, no
    extra exchange.  At T=2500 the v0 inserts and v1 upserts (ts bands
    1000+/2000+) have applied while the v2 deletes and v3 re-inserts
    (3000+/4000+) have not, so the snapshot differs from both the base
    and the final state."""
    from ..state.scd import scd2_build

    scd = scd2_build(
        _orders_version_log(sf_dir), key_col="o_orderkey", ts_col="ts"
    )

    T = 2500

    def asof(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "valid_from" not in batch.column_names:
            return pa.table(
                {
                    "o_orderkey": pa.array([], pa.int64()),
                    "o_custkey": pa.array([], pa.int64()),
                    "price_cents": pa.array([], pa.int64()),
                }
            )
        vf = batch["valid_from"].to_numpy(zero_copy_only=False)
        vt = batch["valid_to"]
        open_or_later = pc.fill_null(pc.greater(vt, T), True).to_numpy(
            zero_copy_only=False
        )
        keep = (vf <= T) & open_or_later
        t = batch.filter(pa.array(keep))
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "price_cents": t["price_cents"],
            }
        )

    return scd.map_batches(asof, batch_format="pyarrow")


ORDERS_SCD2_ASOF_SQL = f"""
WITH scd AS ({ORDERS_SCD2_SQL})
SELECT o_orderkey, o_custkey, price_cents
FROM scd
WHERE valid_from <= 2500 AND (valid_to IS NULL OR valid_to > 2500)
"""


def orders_minmax_scaled(sf_dir: str) -> ray.data.Dataset:
    """Grouped min-max scaling (``stages/encode.group_minmax_scale``) —
    each order's price scales to [0, 1] within its priority: the
    MinMaxScaler beside the z-score standardizer.  Min/max are wrap-free
    aggregates (no int64 horizon exists), and the per-row finish mirrors
    the SQL NULLIF form term-for-term."""
    from ..stages.encode import group_minmax_scale

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderpriority", "o_totalprice"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
                "o_orderpriority": batch["o_orderpriority"],
                "price_cents": _cents(batch["o_totalprice"]),
            }
        )

    return group_minmax_scale(
        orders.map_batches(prep, batch_format="pyarrow"),
        ["o_orderpriority"],
        "price_cents",
    )


ORDERS_MINMAX_SCALED_SQL = """
WITH c AS (
  SELECT o_orderkey, o_orderpriority,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS v
  FROM orders
),
m AS (
  SELECT o_orderpriority, MIN(v) AS mn, MAX(v) AS mx FROM c GROUP BY 1
)
SELECT o_orderkey, c.o_orderpriority, v AS price_cents,
       (CAST(v AS DOUBLE) - CAST(mn AS DOUBLE)) /
       NULLIF(CAST(mx AS DOUBLE) - CAST(mn AS DOUBLE), 0.0) AS scaled
FROM c JOIN m USING (o_orderpriority)
"""
