"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline over the deterministic
synthetic interleaved corpus (BASELINE.json ``input_hint`` schema).
``queries()`` exposes one callable per implemented operator family from
SURVEY.md §2 plus the training-data-curation operators (dedup, similarity
search, text analysis, multimodal plumbing); ``oracle_sql()`` carries a
driver oracle for EVERY entry: DuckDB-equivalent SQL where expressible
(column names match exactly; measures are integerized — cents / basis
points — so sums compare bit-exactly), and committed deterministic
fixtures (``fixtures/``, regenerated by ``fixtures/generate_expected.py``)
for the rest — the stub-OCR extraction outputs, LSH dedup decisions,
IVF search, language ID, multimodal fake codecs, and the HLL estimate are
all deterministic functions of (corpus, seed), so their expected outputs
pin regressions in the driver's hash gate while their SEMANTICS are
established by the pytest oracle-equality suites.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

from deepseek_ocr_ray.functions.html_extract import extract_main_content
from deepseek_ocr_ray.functions.text_stats import BPE_PATTERN, stopword_sql_list
from deepseek_ocr_ray.pipelines import analytics, curation
from deepseek_ocr_ray.pipelines.extract import extract_dataset
from deepseek_ocr_ray.sources.interleaved import synthetic_dataset
from deepseek_ocr_ray.stages import dedup, multimodal, similarity, windows

# corpus size for the synthetic interleaved extraction queries (the input
# table of the north rule; sf-independent because the driver tables carry no
# interleaved corpus — see deepseek_ocr_ray/schema.py)
N_EXTRACT_DOCS = 400


def entry() -> Any:
    """Flagship: synthetic interleaved corpus → full extraction pipeline."""
    ds = synthetic_dataset(200, seed=42)
    out = extract_dataset(ds)
    return out.select_columns(
        ["doc_id", "n_spans", "truncated", "partition_id", "error"]
    )


# ---------------------------------------------------------------------------
# query callables
# ---------------------------------------------------------------------------


def _extract_summary(sf_dir: str) -> Any:
    out = extract_dataset(synthetic_dataset(N_EXTRACT_DOCS, seed=42))

    def summarize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_spans": batch["n_spans"],
                "truncated": batch["truncated"].cast(pa.int32()),
                "md_chars": pc.utf8_length(batch["markdown"]).cast(pa.int64()),
                "has_error": pc.is_valid(batch["error"]).cast(pa.int32()),
            }
        )

    return out.map_batches(summarize, batch_format="pyarrow")


def _extract_interleave_stats(sf_dir: str) -> Any:
    """Interleaving STRUCTURE of the flagship output — the property that
    makes the corpus 'interleaved' in the first place: per document, how
    media spans (non-empty ``media_ref``) are woven through the text
    sequence — span/media counts, the position of the first media span
    (−1 when none) and the number of text↔media alternations along the
    ordered span sequence.  Pure vectorized map over the extraction
    output (parent-index bincounts / minimum.at); fixture-pinned like
    ``extract_summary`` (deterministic stub corpus)."""
    out = extract_dataset(synthetic_dataset(N_EXTRACT_DOCS, seed=42))

    def stats(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        n_rows = batch.num_rows
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = pc.list_flatten(spans)
        parent = (
            pc.list_parent_indices(spans)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        refs = flat.field("media_ref")
        is_media = pc.not_equal(refs, "").to_numpy(zero_copy_only=False)
        n_spans = np.bincount(parent, minlength=n_rows).astype(np.int64)
        n_media = np.bincount(
            parent, weights=is_media.astype(np.float64), minlength=n_rows
        ).astype(np.int64)
        # position-in-doc of each span; first media position per doc
        starts = np.zeros(n_rows, np.int64)
        starts[1:] = np.cumsum(n_spans)[:-1]
        first_media = np.full(n_rows, np.iinfo(np.int64).max, np.int64)
        if is_media.any():
            pos = np.arange(len(parent)) - starts[parent]
            np.minimum.at(first_media, parent[is_media], pos[is_media])
        first_media[first_media == np.iinfo(np.int64).max] = -1
        # text<->media alternations along each doc's ordered sequence
        alternations = np.zeros(n_rows, np.int64)
        if len(parent) > 1:
            same = parent[1:] == parent[:-1]
            change = is_media[1:] != is_media[:-1]
            hits = parent[1:][same & change]
            if len(hits):
                alternations = np.bincount(
                    hits, minlength=n_rows
                ).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_spans": pa.array(n_spans, pa.int64()),
                "n_media_spans": pa.array(n_media, pa.int64()),
                "first_media_pos": pa.array(first_media, pa.int64()),
                "alternations": pa.array(alternations, pa.int64()),
            }
        )

    return out.map_batches(stats, batch_format="pyarrow")


def _extract_summary_salted(sf_dir: str) -> Any:
    """The media-heavy-skew assembly path under the driver's hash gate:
    same corpus, same output contract, but every document's units travel
    through the SALTED two-level exchange (oversized docs split across
    salt groups, partials merge in a second tiny keyed exchange) — gated
    byte-identical to the zero-shuffle plan via the shared fixture."""
    out = extract_dataset(
        synthetic_dataset(N_EXTRACT_DOCS, seed=42), exchange="salted"
    )

    def summarize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_spans": batch["n_spans"],
                "truncated": batch["truncated"].cast(pa.int32()),
                "md_chars": pc.utf8_length(batch["markdown"]).cast(pa.int64()),
                "has_error": pc.is_valid(batch["error"]).cast(pa.int32()),
            }
        )

    return out.map_batches(summarize, batch_format="pyarrow")


def _flatten_spans(out) -> Any:
    """Per-span rows (doc_id, offset, kind, text, media_ref) from the
    extraction output — the north rule's flat invariant surface."""

    def flatten(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        parent = pc.list_parent_indices(spans)
        flat = pc.list_flatten(spans)
        doc_ids = batch["doc_id"]
        if isinstance(doc_ids, pa.ChunkedArray):
            doc_ids = doc_ids.combine_chunks()
        return pa.table(
            {
                "doc_id": doc_ids.take(parent),
                "offset": flat.field("offset"),
                "kind": flat.field("kind"),
                "text": flat.field("text").cast(pa.string()),
                "media_ref": flat.field("media_ref"),
            }
        )

    return out.map_batches(flatten, batch_format="pyarrow")


def _extract_spans_flat(sf_dir: str) -> Any:
    """Flattened span sequences — the per-row invariant surface
    (kind, text, media_ref, order) of the north rule."""
    return _flatten_spans(
        extract_dataset(synthetic_dataset(N_EXTRACT_DOCS, seed=42))
    )


def _media_catalog(sf_dir: str) -> Any:
    """Media-store dedup across interleaved docs: one row per DISTINCT
    media_ref with total reference count, distinct referencing docs, and
    the first (min) referencing doc — what a shared blob store ingests
    instead of per-doc copies.  One exchange bucketed by media_ref:
    per-block C++ (media_ref, doc_id) counts in, merged + re-grouped per
    bucket.  Oracle: plain SQL over the gate-verified extract_spans_flat
    fixture."""
    out = extract_dataset(synthetic_dataset(N_EXTRACT_DOCS, seed=42))
    flat = _flatten_spans(out)
    from deepseek_ocr_ray.hashing import string_hash64

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.filter(pc.not_equal(batch["media_ref"], ""))
        g = t.group_by(["media_ref", "doc_id"]).aggregate([([], "count_all")])
        g = pa.table(
            {
                "media_ref": g["media_ref"],
                "doc_id": g["doc_id"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )
        refs = g["media_ref"]
        if isinstance(refs, pa.ChunkedArray):
            refs = refs.combine_chunks()
        bucket = (string_hash64(refs) % np.uint64(64)).astype(np.int64)
        return g.append_column("bucket", pa.array(bucket, pa.int64()))

    def finalize(group: pa.Table) -> pa.Table:
        m = group.group_by(["media_ref", "doc_id"]).aggregate([("n", "sum")])
        g = m.group_by("media_ref").aggregate(
            [("n_sum", "sum"), ([], "count_all"), ("doc_id", "min")]
        )
        return pa.table(
            {
                "media_ref": g["media_ref"],
                "n_refs": g["n_sum_sum"].cast(pa.int64()),
                "n_docs": g["count_all"].cast(pa.int64()),
                "first_doc": g["doc_id_min"],  # string ids, zero-padded
            }
        )

    return (
        flat.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


_HTML_TMPL = (
    "<html><head><title>x</title></head><body>"
    "<nav><ul><li><a href='/a'>home</a></li><li><a href='/b'>about</a></li></ul></nav>"
    "<div class='sidebar'><ul><li>related links</li></ul></div>"
    "<div class='ad'>buy now click here</div>"
    "<article><p>{text}</p></article>"
    "<footer>copyright 2026 privacy terms</footer>"
    "</body></html>"
)


def _html_main_text(sf_dir: str) -> Any:
    """Wrap each document text in boilerplate HTML; the extractor must
    recover exactly the article text (SQL oracle: the raw text column)."""
    ds = analytics.read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        main = []
        for t in texts:
            spans = extract_main_content(_HTML_TMPL.format(text=t))
            main.append(" ".join(s.text for s in spans if s.kind == "text"))
        return pa.table({"doc_id": batch["doc_id"], "main_text": pa.array(main, pa.string())})

    return ds.map_batches(fn, batch_format="pyarrow")


def _dedup_keep_best(sf_dir: str) -> Any:
    """Normalized dedup keeping the best (longest, then smallest-id)
    duplicate — argmax-by-key via one order-encoded int64 max aggregate."""
    ds = analytics.read_table(
        sf_dir, "documents", columns=["doc_id", "text", "n_chars"]
    )
    return dedup.keep_best_dedup(ds)


DEDUP_KEEP_BEST_SQL = """
SELECT md5(trim(regexp_replace(regexp_replace(lower(text),
         '[^a-z0-9 ]+', ' ', 'g'), ' +', ' ', 'g'), ' ')) AS norm_hash,
       CAST(4294967295 - (max(n_chars*4294967296 + 4294967295 - doc_id)
            % 4294967296) AS BIGINT) AS doc_id,
       CAST(max(n_chars*4294967296 + 4294967295 - doc_id) // 4294967296
            AS BIGINT) AS n_chars,
       CAST(count(*) AS BIGINT) AS dup_count
FROM documents
GROUP BY 1
ORDER BY 2
"""


def _search_bm25(sf_dir: str) -> Any:
    return curation.search_bm25(sf_dir)


def _hybrid_search_rrf(sf_dir: str) -> Any:
    return curation.hybrid_search_rrf(sf_dir)


def _dedup_exact(sf_dir: str) -> Any:
    ds = analytics.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup.exact_dedup(ds)


def _dedup_normalized(sf_dir: str) -> Any:
    ds = analytics.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup.normalized_dedup(ds)


DEDUP_NORMALIZED_SQL = """
SELECT md5(trim(regexp_replace(regexp_replace(lower(text),
         '[^a-z0-9 ]+', ' ', 'g'), ' +', ' ', 'g'), ' ')) AS norm_hash,
       CAST(min(doc_id) AS BIGINT) AS doc_id,
       CAST(count(*) AS BIGINT) AS dup_count
FROM documents
GROUP BY 1
ORDER BY 2
"""


def _dedup_minhash(sf_dir: str) -> Any:
    ds = analytics.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup.minhash_dedup(ds, threshold=0.8)


def _dedup_simhash(sf_dir: str) -> Any:
    ds = analytics.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup.simhash_dedup(ds, max_hamming=3)


def _q7_nation_volume(sf_dir: str) -> Any:
    """TPC-H Q7 with nations that own suppliers at BOTH oracle SFs
    (NATION_1/2 have zero suppliers in the 10-supplier sf0.001 table)."""
    return analytics.q7_nation_volume(sf_dir, "NATION_3", "NATION_8")


def _dedup_ngram(sf_dir: str) -> Any:
    """Exact 3-gram Jaccard dedup: text moves once per candidate pair,
    never replicated per band row."""
    ds = analytics.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup.ngram_jaccard_dedup(ds, ngram=3, threshold=0.8)


def _dedup_incremental(sf_dir: str) -> Any:
    """Incremental ingest filter: split documents at the id midpoint —
    the lower half is the 'existing' corpus, the upper half the 'new'
    crawl — and keep only new docs whose exact text is unseen."""
    ds = analytics.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    # midpoint from the parquet footer stats: zero scan, no Ray execution
    cut = (analytics.parquet_column_max(sf_dir, "documents", "doc_id") + 1) // 2
    existing = ds.filter(expr=f"doc_id < {cut}")
    new = ds.filter(expr=f"doc_id >= {cut}")
    return dedup.incremental_exact_dedup(new, existing)


DEDUP_INCREMENTAL_SQL = """
WITH cut AS (
  SELECT CAST(floor((max(doc_id)+1)/2.0) AS BIGINT) AS c FROM documents
)
SELECT d.doc_id
FROM documents d, cut
WHERE d.doc_id >= cut.c
  AND NOT EXISTS (
    SELECT 1 FROM documents e, cut WHERE e.doc_id < cut.c AND e.text = d.text
  )
ORDER BY doc_id
"""


def _dedup_minhash_incremental(sf_dir: str) -> Any:
    """Continuous-crawl NEAR-dup filter: docs below the id midpoint are the
    existing corpus, the rest the new crawl; keep new docs with no
    signature-verified near-dup (est. Jaccard ≥ 0.8) among the existing.
    Fixture-oracled (the seeded MinHash is not SQL-expressible; semantics
    established in tests/test_dedup.py against brute est_jaccard)."""
    ds = analytics.read_table(sf_dir, "documents", columns=["doc_id", "text"])
    cut = (analytics.parquet_column_max(sf_dir, "documents", "doc_id") + 1) // 2
    existing = ds.filter(expr=f"doc_id < {cut}")
    new = ds.filter(expr=f"doc_id >= {cut}")
    return dedup.incremental_minhash_dedup(new, existing, threshold=0.8)


def _dedup_embedding(sf_dir: str) -> Any:
    ds = analytics.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return dedup.embedding_dedup(ds, threshold=0.3)


def _dedup_semantic(sf_dir: str) -> Any:
    ds = analytics.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return dedup.semantic_dedup(ds, threshold=0.3)


def _label_consistency(sf_dir: str) -> Any:
    from deepseek_ocr_ray.stages import similarity

    ds = analytics.read_table(
        sf_dir, "embeddings", columns=["vec_id", "embedding", "label"]
    )
    return similarity.label_consistency(ds, k=10)


LABEL_CONSISTENCY_SQL = """
WITH s AS (
  SELECT a.vec_id AS qid, a.label AS lab, b.vec_id AS nid, b.label AS nlab,
         list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) AS c
  FROM embeddings a JOIN embeddings b ON b.vec_id <> a.vec_id
), r AS (
  SELECT qid, lab, nlab,
         row_number() OVER (PARTITION BY qid ORDER BY c DESC, nid) AS rk
  FROM s
), agg AS (
  SELECT qid, lab,
         CAST(count(*) FILTER (WHERE nlab = lab) AS BIGINT) AS n_agree
  FROM r WHERE rk <= 10 GROUP BY 1, 2
)
SELECT qid AS vec_id, lab AS label, n_agree,
       CAST(CASE WHEN 2 * n_agree < 10 THEN 1 ELSE 0 END AS BIGINT) AS suspect
FROM agg ORDER BY vec_id
"""


def _doc_rarity(sf_dir: str) -> Any:
    return curation.doc_rarity(sf_dir, top_k=8)


def _embedding_dup_pairs(sf_dir: str) -> Any:
    ds = analytics.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return dedup.embedding_dup_pairs_brute(ds, threshold=0.3)


def _load_queries(sf_dir: str, n: int = 8) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.parquet as pq

    # Row-group predicate pushdown: only the n query vectors leave storage
    # (the corpus-sized table never reaches the driver heap).
    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n)],
    )
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    vecs = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    return vecs, ids


def _ann_topk(sf_dir: str) -> Any:
    ds = analytics.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q, qids = _load_queries(sf_dir)
    return similarity.brute_force_topk(ds, q, qids, k=10, dtype=np.float64)


def _ann_ivf(sf_dir: str) -> Any:
    ds = analytics.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q, qids = _load_queries(sf_dir)
    idx = similarity.IVFIndex(n_cells=16).build(ds)
    return idx.search(q, qids, k=10, nprobe=4)


def _ann_pq(sf_dir: str) -> Any:
    """Product-quantized ANN with exact rerank: vectors compress to 16
    uint8 codes (16x smaller than float32 at dim 64), ADC shortlists
    4x candidates by pure table lookups over the code column, one exact
    pass rescores only shortlisted pairs (recall@10 ~0.99 vs brute on
    this corpus — asserted in tests).  Deterministic seeded build →
    fixture-pinned."""
    ds = analytics.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q, qids = _load_queries(sf_dir)
    idx = similarity.PQIndex(m=16, ks=64).build(ds)
    return idx.search(q, qids, k=10, rerank=4)


def _multimodal_decode(sf_dir: str) -> Any:
    import ray.data

    tbl = multimodal.synthesize_media_table(256, seed=42)
    ds = ray.data.from_arrow(tbl)
    decoded = ds.map_batches(
        multimodal.DecodeImageStage, batch_format="pyarrow",
        batch_size=32, concurrency=2,
    )
    resized = decoded.map_batches(
        multimodal.ResizeStage, fn_constructor_kwargs={"target": 1024},
        batch_format="pyarrow", concurrency=2,
    )
    return resized.select_columns(
        ["media_id", "width", "height", "resized_w", "resized_h"]
    )


def _frame_sample(sf_dir: str) -> Any:
    import ray.data

    tbl = multimodal.synthesize_media_table(128, seed=7).select(
        ["media_id", "media_ref"]
    )
    ds = ray.data.from_arrow(tbl)
    frames = ds.map_batches(
        multimodal.FrameSampleStage,
        fn_constructor_kwargs={"stride": 10, "max_frames": 32},
        batch_format="pyarrow", concurrency=2,
    )
    return frames


def _phash_media_table(n: int = 256, n_dups: int = 56):
    """Synthetic media corpus with injected exact-duplicate payloads: ids
    n-n_dups..n-1 carry the payloads of ids 0..n_dups-1 (re-uploads of the
    same image bytes), so pHash dedup has real work to do."""
    tbl = multimodal.synthesize_media_table(n, seed=42)
    payloads = tbl["payload"].to_pylist()
    for i in range(n_dups):
        payloads[n - n_dups + i] = payloads[i]
    return pa.table(
        {
            "media_id": tbl["media_id"],
            "media_ref": tbl["media_ref"],
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def _image_phash(sf_dir: str) -> Any:
    """Perceptual fingerprints for every media row (fake codec: grid is a
    pure function of payload bytes; real PIL path import-gated)."""
    import ray.data

    ds = ray.data.from_arrow(_phash_media_table())
    hashed = ds.map_batches(
        multimodal.PHashStage, batch_format="pyarrow",
        batch_size=64, concurrency=2,
    )
    return hashed.select_columns(["media_id", "phash"])


def _image_phash_dedup(sf_dir: str) -> Any:
    """Near-dup image dedup: pHash → banded Hamming LSH → kept media ids.
    The injected duplicate payloads (identical bytes → identical pHash →
    Hamming 0) must collapse to their smallest id."""
    import ray.data

    ds = ray.data.from_arrow(_phash_media_table())
    hashed = ds.map_batches(
        multimodal.PHashStage, batch_format="pyarrow",
        batch_size=64, concurrency=2,
    )
    return dedup.hash64_hamming_dedup(
        hashed, hash_col="phash", id_col="media_id", max_hamming=3
    )


def _extract_then_dedup(sf_dir: str) -> Any:
    """Composition: extraction feeding curation — near-dedup the EXTRACTED
    markdown of the interleaved corpus (the end-to-end training-data shape:
    raw docs → extract → dedup)."""
    # two actor pools share one pipeline here: cap both so their combined
    # MINIMUM reservation leaves CPUs for the task stages — otherwise the
    # streaming executor deadlocks on a small cluster (each pool holding
    # actors, task operators starved of slots)
    from deepseek_ocr_ray.config import PipelineConfig

    cfg = PipelineConfig(ocr_concurrency=2)
    out = extract_dataset(synthetic_dataset(N_EXTRACT_DOCS, seed=42), cfg)
    docs = out.select_columns(["doc_id", "markdown"])
    return dedup.minhash_dedup(
        docs, text_col="markdown", id_col="doc_id", threshold=0.9,
        concurrency=(1, 4),
    )


def _events_asof_orders(sf_dir: str) -> Any:
    """As-of join: each event picks the user's latest order at-or-before the
    event time; ties within a (custkey, date) resolve to max orderkey via
    the join's ``right_tiebreak`` (same semantics as pre-deduping the right
    side with groupby+Max, without that aggregate's extra all-to-all)."""
    from deepseek_ocr_ray.stages.joins import asof_join

    events = analytics.read_table(
        sf_dir, "events", columns=["event_id", "user_id", "ts"]
    )
    orders = analytics.read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    joined = asof_join(
        events,
        orders,
        left_key="user_id",
        right_key="o_custkey",
        left_ts="ts",
        right_ts="o_orderdate",
        left_cols=["event_id", "user_id"],
        right_cols=["o_orderkey"],
        right_tiebreak="o_orderkey",
    )
    return joined


def _orders_by_segment_bucket(sf_dir: str) -> Any:
    """orders ⋈ customer through the engine-owned bucket_join directly —
    must produce exactly the planner's result, so it shares
    ORDERS_BY_SEGMENT_SQL."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from deepseek_ocr_ray.stages.joins import bucket_join

    orders = analytics.read_table(
        sf_dir, "orders", columns=["o_custkey", "o_totalprice"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "price_cents": analytics._cents(batch["o_totalprice"]),
            }
        )

    cust = analytics.read_table(
        sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]
    )
    joined = bucket_join(
        orders.map_batches(prep, batch_format="pyarrow"),
        cust,
        left_on="o_custkey",
        right_on="c_custkey",
        how="inner",
        left_cols=["price_cents"],
        right_cols=["c_mktsegment"],
    )
    agg = joined.groupby("c_mktsegment").aggregate(Count(), Sum("price_cents"))
    return agg.rename_columns(
        {"count()": "n_orders", "sum(price_cents)": "sum_price_cents"}
    )


def _distinct_users_exact(sf_dir: str) -> Any:
    from deepseek_ocr_ray.stages.sketches import exact_distinct

    ds = analytics.read_table(sf_dir, "events", columns=["user_id"])
    return exact_distinct(ds, "user_id")


def _distinct_users_hll(sf_dir: str) -> Any:
    """HyperLogLog approximate distinct (rows-only check: the estimate is
    deterministic and parallelism-invariant — register merges are exact —
    but approximate by construction; error bound tested in
    tests/test_sketches.py)."""
    from deepseek_ocr_ray.stages.sketches import hll_distinct

    ds = analytics.read_table(sf_dir, "events", columns=["user_id"])
    return hll_distinct(ds, "user_id")


def _events_hopping(sf_dir: str) -> Any:
    """Hopping-window aggregate (6 h windows, 2 h hop): bounded vectorized
    flat-map expansion (every event is in exactly 3 windows), per-block
    C++ combine, one keyed exchange."""
    ds = analytics.read_table(sf_dir, "events", columns=["ts", "event_type", "value"])
    return windows.hopping_window(ds, size_s=21600, hop_s=7200)


EVENTS_HOPPING_SQL = """
WITH x AS (
  SELECT event_type,
         (CAST(floor(epoch(ts)/7200) AS BIGINT) - i) * 7200 AS window_start,
         CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS cents
  FROM events, (SELECT unnest(range(0, 3)) AS i)
)
SELECT window_start, event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(cents) AS BIGINT) AS value_cents
FROM x GROUP BY 1, 2
ORDER BY 1, 2
"""


def _embedding_clusters(sf_dir: str) -> Any:
    """Distributed k-means clustering of the embedding corpus (the IVF
    index's build step as a first-class operator): deterministic seeded
    Lloyd's on a hash-selected sorted sample, centroids broadcast once,
    assignment is one streamed matmul pass.  Per-cell (count, min id,
    id checksum) pins the full membership in a 16-row fixture."""
    from ray.data.aggregate import Count, Min, Sum

    from deepseek_ocr_ray.stages.similarity import IVFIndex

    ds = analytics.read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    idx = IVFIndex(n_cells=16).build(ds)
    return (
        idx.assigned.select_columns(["vec_id", "cell"])
        .groupby("cell")
        .aggregate(Count(), Min("vec_id"), Sum("vec_id"))
        .rename_columns(
            {
                "count()": "n_vecs",
                "min(vec_id)": "min_vec_id",
                "sum(vec_id)": "sum_vec_id",
            }
        )
    )


def _token_topk_mg(sf_dir: str) -> Any:
    """Exact top-25 tokens WITHOUT a full-vocabulary exchange: per-block
    Misra-Gries summaries bound the candidate union, a broadcast verify
    pass counts candidates exactly, and a guarantee check proves no
    non-candidate could reach the top k (see sketches.mg_topk)."""
    import pyarrow.compute as pc

    from deepseek_ocr_ray.stages.sketches import mg_topk

    ds = analytics.read_table(sf_dir, "documents", columns=["text"])

    def tokens(batch: pa.Table) -> pa.Array:
        toks = pc.list_flatten(
            pc.split_pattern_regex(pc.utf8_lower(batch["text"]), r"\s+")
        )
        return toks.filter(pc.not_equal(toks, ""))

    return mg_topk(ds, tokens, k=25, capacity=4096)


TOKEN_TOPK_MG_SQL = """
SELECT t.tok AS token, CAST(count(*) AS BIGINT) AS n
FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(tok)
WHERE t.tok <> ''
GROUP BY 1 ORDER BY n DESC, token LIMIT 25
"""


def _users_by_type_exact(sf_dir: str) -> Any:
    from deepseek_ocr_ray.stages.sketches import group_distinct_exact

    ds = analytics.read_table(sf_dir, "events", columns=["event_type", "user_id"])
    return group_distinct_exact(ds, "event_type", "user_id")


def _users_by_type_hll(sf_dir: str) -> Any:
    """Per-group HyperLogLog: approx distinct users per event type.  One
    4 KiB register blob per (block, group) moves; merges are max-register
    (parallelism-invariant) — fixture-pinned like the global estimate."""
    from deepseek_ocr_ray.stages.sketches import group_hll_distinct

    ds = analytics.read_table(sf_dir, "events", columns=["event_type", "user_id"])
    return group_hll_distinct(ds, "event_type", "user_id")


def _events_value_bands(sf_dir: str) -> Any:
    """Range join: events (value × 20) against per-brand retail-price bands
    [min, max] — one-to-many interval matching via band-partitioning."""
    from ray.data.aggregate import Max as RMax, Min as RMin

    from deepseek_ocr_ray.stages.joins import range_join

    events = analytics.read_table(sf_dir, "events", columns=["event_id", "value"])

    def scale(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False) * 20.0
        return pa.table(
            {"event_id": batch["event_id"], "value20": pa.array(v, pa.float64())}
        )

    left = events.map_batches(scale, batch_format="pyarrow")
    bands = (
        analytics.read_table(sf_dir, "part", columns=["p_brand", "p_retailprice"])
        .groupby("p_brand")
        .aggregate(RMin("p_retailprice"), RMax("p_retailprice"))
        .rename_columns(
            {"min(p_retailprice)": "lo", "max(p_retailprice)": "hi"}
        )
    )
    # domain of the scaled left values: events.value ∈ (0, 500] → ×20
    return range_join(
        left,
        bands,
        left_val="value20",
        right_lo="lo",
        right_hi="hi",
        left_cols=["event_id"],
        right_cols=["p_brand"],
        domain=(0.0, 10000.0),
    )


def _price_quantiles_sketch(sf_dir: str) -> Any:
    """DDSketch approximate quantiles of order prices (α = 1 % relative
    error).  Counter-addition merge ⇒ parallelism-invariant ⇒ fixture-
    pinnable; the α bound itself is tested in tests/test_sketches.py
    against exact quantiles."""
    from deepseek_ocr_ray.stages.sketches import ddsketch_quantiles

    ds = analytics.read_table(sf_dir, "orders", columns=["o_totalprice"])
    return ddsketch_quantiles(ds, "o_totalprice")


def _token_freq_cms(sf_dir: str) -> Any:
    """Count-min point-frequency estimates for the corpus' top-10 tokens,
    alongside the exact counts (est ≥ exact always; bound tested in
    tests/test_sketches.py)."""
    import ray.data

    from deepseek_ocr_ray.pipelines.curation import tokens_flat
    from deepseek_ocr_ray.stages.sketches import cms_token_freq

    vocab = analytics.token_vocab(sf_dir, k=10).take_all()
    exact = {r["token"]: int(r["n"]) for r in vocab}

    docs = analytics.read_table(sf_dir, "documents", columns=["text"])

    def toks(batch: pa.Table) -> pa.Table:
        flat, _ = tokens_flat(batch["text"])
        return pa.table({"token": flat})

    res = cms_token_freq(
        docs.map_batches(toks, batch_format="pyarrow"),
        "token",
        list(exact),
    ).take_all()
    return ray.data.from_arrow(
        pa.table(
            {
                "token": pa.array([r["token"] for r in res], pa.string()),
                "n_exact": pa.array(
                    [exact[r["token"]] for r in res], pa.int64()
                ),
                "est_n": pa.array([int(r["est_n"]) for r in res], pa.int64()),
            }
        )
    )


def _sessionize(sf_dir: str) -> Any:
    ds = analytics.read_table(sf_dir, "events", columns=["user_id", "ts"])
    return windows.sessionize(ds, gap_sec=1800.0)


def _part_supplier_pagerank(sf_dir: str) -> Any:
    """Integer-exact PageRank (3 rounds) over the symmetrized
    part<->supplier co-occurrence graph from lineitem (node ids
    namespaced as part*2 / supp*2+1).  Oracle: the same recurrence
    unrolled as SQL CTEs — exact because every sum is int64."""
    import pyarrow.compute as pc

    from deepseek_ocr_ray.stages.graph import pagerank_int

    li = analytics.read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def mk(batch):
        pk = pc.multiply(batch["l_partkey"], 2)
        sk = pc.add(pc.multiply(batch["l_suppkey"], 2), 1)
        return pa.table(
            {
                "src": pa.concat_arrays(
                    [pk.combine_chunks(), sk.combine_chunks()]
                ),
                "dst": pa.concat_arrays(
                    [sk.combine_chunks(), pk.combine_chunks()]
                ),
            }
        )

    # no pre-distinct: pagerank_int dedups inside its one setup exchange
    sym = li.map_batches(mk, batch_format="pyarrow")
    return pagerank_int(
        sym,
        num_iters=3,
        assume_symmetric=True,  # mk() emits both directions of every pair
    )


def _profile_orders(sf_dir: str) -> Any:
    """Distributed per-column profile of the orders table (int + string
    columns; see stages/profile.py for the two-pass plan)."""
    from deepseek_ocr_ray.stages.profile import profile_table

    cols = ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority"]
    ds = analytics.read_table(sf_dir, "orders", columns=cols)
    return profile_table(ds, cols)


def _brand_type_chi2(sf_dir: str) -> Any:
    """Pearson chi-squared independence test p_brand × p_type
    (stages/profile.chi2_independence): ONE count exchange builds the
    25×6 contingency table; the exact-rational finalize (Python-int
    numerators, one pinned FLOOR(DOUBLE/DOUBLE·1e6+0.5) per cell,
    zero-observed cells included at their expectation) runs driver-side
    over the R×C grid — bounded by the cardinalities, not the corpus."""
    from deepseek_ocr_ray.stages.profile import chi2_independence

    ds = analytics.read_table(sf_dir, "part", columns=["p_brand", "p_type"])
    return chi2_independence(ds, "p_brand", "p_type")


# ORACLE SCALE BOUND (this and EVENTS_DOW_CHI2_SQL): the HUGEINT numerator
# (o*n - rt*ct)^2 stays exact only while n <= ~3e9 rows (int128 holds
# (n^2)^2 = n^4 up to n ~ 3.04e9); the engine side uses arbitrary-precision
# Python ints and has no such bound.  Past that scale the SQL oracle —
# not the engine — would silently wrap; re-derive the oracle with
# divide-before-square DOUBLE arithmetic (pinned op order) if a >3e9-row
# contingency test ever needs an oracle.
BRAND_TYPE_CHI2_SQL = """
WITH cells AS (
  SELECT p_brand AS r, p_type AS c, CAST(COUNT(*) AS HUGEINT) AS o
  FROM part GROUP BY 1, 2
),
rm AS (SELECT r, CAST(SUM(o) AS HUGEINT) AS rt FROM cells GROUP BY 1),
cm AS (SELECT c, CAST(SUM(o) AS HUGEINT) AS ct FROM cells GROUP BY 1),
tot AS (SELECT CAST(SUM(o) AS HUGEINT) AS n FROM cells),
grid AS (
  SELECT rm.rt, cm.ct, COALESCE(cells.o, 0) AS o
  FROM rm CROSS JOIN cm
  LEFT JOIN cells ON cells.r = rm.r AND cells.c = cm.c
)
SELECT
  CAST(SUM(CAST(FLOOR(
      CAST((o*n - rt*ct)*(o*n - rt*ct) AS DOUBLE) / CAST(rt*ct*n AS DOUBLE)
      * 1000000 + 0.5) AS BIGINT)) AS BIGINT) AS chi2_ppm,
  CAST(((SELECT COUNT(*) FROM rm) - 1)
       * ((SELECT COUNT(*) FROM cm) - 1) AS BIGINT) AS dof,
  CAST(MAX(n) AS BIGINT) AS n_rows,
  CAST((SELECT COUNT(*) FROM rm) AS BIGINT) AS r_levels,
  CAST((SELECT COUNT(*) FROM cm) AS BIGINT) AS c_levels
FROM grid, tot
"""


def _purchase_view_ks(sf_dir: str) -> Any:
    """Exact two-sample Kolmogorov–Smirnov statistic between purchase and
    view value-cents distributions (stages/profile.ks_two_sample): one
    map-combined count exchange → per-distinct-value side counts; the
    prefix scan runs over that bounded support with exact cross-multiplied
    integers (d_num = max|F1·n2 − F2·n1|, no division inside the max) and
    ONE pinned ppm rendering."""
    from deepseek_ocr_ray.stages.profile import ks_two_sample

    ds = analytics.read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "event_type": batch["event_type"],
                "value_cents": pc.cast(
                    pc.floor(
                        pc.add(pc.multiply(batch["value"], 100.0), 0.5)
                    ),
                    pa.int64(),
                ),
            }
        )

    return ks_two_sample(
        ds.map_batches(prep, batch_format="pyarrow"),
        "value_cents",
        "event_type",
        ("purchase", "view"),
    )


PURCHASE_VIEW_KS_SQL = """
WITH pts AS (
  SELECT CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS v,
         CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS s1
  FROM events WHERE event_type IN ('purchase', 'view')
),
cnt AS (
  SELECT v, CAST(SUM(s1) AS HUGEINT) AS c1,
         CAST(SUM(1 - s1) AS HUGEINT) AS c2
  FROM pts GROUP BY v
),
tot AS (
  SELECT CAST(SUM(c1) AS HUGEINT) AS n1, CAST(SUM(c2) AS HUGEINT) AS n2
  FROM cnt
),
cum AS (
  SELECT SUM(c1) OVER (ORDER BY v) AS f1,
         SUM(c2) OVER (ORDER BY v) AS f2
  FROM cnt
)
SELECT CAST(MAX(ABS(f1 * n2 - f2 * n1)) AS BIGINT) AS d_num,
       CAST(n1 AS BIGINT) AS n1,
       CAST(n2 AS BIGINT) AS n2,
       CAST(FLOOR(CAST(MAX(ABS(f1 * n2 - f2 * n1)) AS DOUBLE)
                  / CAST(n1 * n2 AS DOUBLE) * 1000000 + 0.5) AS BIGINT)
           AS d_ppm
FROM cum, tot GROUP BY n1, n2
"""


def _purchase_view_mw(sf_dir: str) -> Any:
    """Exact Mann–Whitney U between purchase and view value cents
    (stages/profile.mann_whitney_u): doubled average ranks keep tie
    handling in exact integers (2·R1 = Σ c1·(2·cum_before + c + 1));
    auc_ppm is the common-language effect size.  Shares the KS support
    reduction — one count exchange."""
    from deepseek_ocr_ray.stages.profile import mann_whitney_u

    ds = analytics.read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "event_type": batch["event_type"],
                "value_cents": pc.cast(
                    pc.floor(
                        pc.add(pc.multiply(batch["value"], 100.0), 0.5)
                    ),
                    pa.int64(),
                ),
            }
        )

    return mann_whitney_u(
        ds.map_batches(prep, batch_format="pyarrow"),
        "value_cents",
        "event_type",
        ("purchase", "view"),
    )


PURCHASE_VIEW_MW_SQL = """
WITH pts AS (
  SELECT CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS v,
         CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS s1
  FROM events WHERE event_type IN ('purchase', 'view')
),
cnt AS (
  SELECT v, CAST(SUM(s1) AS HUGEINT) AS c1, CAST(COUNT(*) AS HUGEINT) AS c
  FROM pts GROUP BY v
),
cum AS (
  SELECT v, c1, c, SUM(c) OVER (ORDER BY v) - c AS cb FROM cnt
),
tot AS (
  SELECT CAST(SUM(c1) AS HUGEINT) AS n1,
         CAST(SUM(c - c1) AS HUGEINT) AS n2
  FROM cnt
)
SELECT CAST(SUM(c1 * (2 * cb + c + 1)) - n1 * (n1 + 1) AS BIGINT) AS u2,
       CAST(n1 AS BIGINT) AS n1,
       CAST(n2 AS BIGINT) AS n2,
       CAST(FLOOR(CAST(SUM(c1 * (2 * cb + c + 1)) - n1 * (n1 + 1) AS DOUBLE)
                  / CAST(2 * n1 * n2 AS DOUBLE) * 1000000 + 0.5) AS BIGINT)
           AS auc_ppm
FROM cum, tot GROUP BY n1, n2
"""


def _user_survival_km(sf_dir: str) -> Any:
    """Kaplan-Meier retention curve (stages/survival.kaplan_meier):
    subject = user, duration = floor-days between first and last event,
    observed = user ever purchased (else right-censored).  Per-user
    reduction is one map-combined agg exchange; the life table's support
    is distinct durations; surv doubles are bit-equal to the oracle's
    recursive CTE (same div/sub/mul sequence per event time)."""
    from deepseek_ocr_ray.stages.agg import bucket_groupby_agg
    from deepseek_ocr_ray.stages.survival import kaplan_meier

    ds = analytics.read_table(
        sf_dir, "events", columns=["user_id", "ts", "event_type"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "user_id": batch["user_id"].cast(pa.int64()),
                "ts_us": batch["ts"].cast(pa.int64()),
                "is_p": pc.cast(
                    pc.equal(batch["event_type"], "purchase"), pa.int64()
                ),
            }
        )

    per_user = bucket_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        [
            ("ts_us", "min", "ts_min"),
            ("ts_us", "max", "ts_max"),
            ("is_p", "max", "observed"),
        ],
    )

    def durations(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        dur = pc.divide(
            pc.subtract(batch["ts_max"], batch["ts_min"]),
            pa.scalar(86400000000, pa.int64()),
        )
        return pa.table(
            {
                "duration_days": pc.cast(dur, pa.int64()),
                "observed": batch["observed"].cast(pa.int64()),
            }
        )

    subjects = per_user.map_batches(durations, batch_format="pyarrow")
    return kaplan_meier(subjects, "duration_days", "observed")


USER_SURVIVAL_KM_SQL = """
WITH RECURSIVE per_user AS MATERIALIZED (
  SELECT user_id,
         (MAX(epoch_us(ts)) - MIN(epoch_us(ts))) // 86400000000 AS dur,
         MAX(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
             AS observed
  FROM events GROUP BY user_id
),
tab AS MATERIALIZED (
  SELECT dur, CAST(SUM(observed) AS BIGINT) AS d,
         CAST(SUM(1 - observed) AS BIGINT) AS cens,
         CAST(COUNT(*) AS BIGINT) AS tot
  FROM per_user GROUP BY dur
),
ord AS MATERIALIZED (
  SELECT dur, d, cens,
         CAST(SUM(tot) OVER (ORDER BY dur DESC) AS BIGINT) AS n_risk,
         ROW_NUMBER() OVER (ORDER BY dur) AS rn
  FROM tab
),
rec AS (
  SELECT dur, d, cens, n_risk, rn,
         1 - CAST(d AS DOUBLE) / CAST(n_risk AS DOUBLE) AS surv
  FROM ord WHERE rn = 1
  UNION ALL
  SELECT o.dur, o.d, o.cens, o.n_risk, o.rn,
         r.surv * (1 - CAST(o.d AS DOUBLE) / CAST(o.n_risk AS DOUBLE))
  FROM ord o JOIN rec r ON o.rn = r.rn + 1
)
SELECT dur AS duration, n_risk, d AS n_event, cens AS n_censored, surv
FROM rec
"""


def _ab_conversion_z(sf_dir: str) -> Any:
    """Two-proportion z-test (stages/profile.two_proportion_z): cohort A
    = even user_id, B = odd; success = heavy purchaser (≥ 15 purchase
    events — "ever purchased" is degenerate in this corpus: every user
    converts, z would be NULL everywhere).  Per-user reduction (one agg
    exchange) → four exact integers → the pinned pooled-SE float
    expression, bit-equal to the oracle's CTE chain."""
    from deepseek_ocr_ray.stages.agg import bucket_groupby_agg
    from deepseek_ocr_ray.stages.profile import two_proportion_z

    ds = analytics.read_table(sf_dir, "events", columns=["user_id", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "user_id": batch["user_id"].cast(pa.int64()),
                "is_p": pc.cast(
                    pc.equal(batch["event_type"], "purchase"), pa.int64()
                ),
            }
        )

    per_user = bucket_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        [("is_p", "sum", "n_purchases")],
    )

    def grp(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "grp": pc.cast(
                    pc.bit_wise_and(batch["user_id"], pa.scalar(1, pa.int64())),
                    pa.int64(),
                ),
                "s": pc.cast(
                    pc.greater_equal(
                        batch["n_purchases"], pa.scalar(15, pa.int64())
                    ),
                    pa.int64(),
                ),
            }
        )

    subjects = per_user.map_batches(grp, batch_format="pyarrow")
    return two_proportion_z(subjects, "grp", "s", (0, 1))


AB_CONVERSION_Z_SQL = """
WITH per_user AS (
  SELECT user_id,
         CAST(user_id % 2 AS BIGINT) AS grp,
         CASE WHEN SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
                   >= 15 THEN 1 ELSE 0 END AS s
  FROM events GROUP BY user_id
),
agg AS (
  SELECT CAST(SUM(CASE WHEN grp = 0 THEN s ELSE 0 END) AS BIGINT) AS x1,
         CAST(SUM(CASE WHEN grp = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n1,
         CAST(SUM(CASE WHEN grp = 1 THEN s ELSE 0 END) AS BIGINT) AS x2,
         CAST(SUM(CASE WHEN grp = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n2
  FROM per_user
),
c AS (
  SELECT x1, n1, x2, n2,
         CAST(x1 AS DOUBLE) / CAST(n1 AS DOUBLE) AS p1,
         CAST(x2 AS DOUBLE) / CAST(n2 AS DOUBLE) AS p2,
         CAST(x1 + x2 AS DOUBLE) / CAST(n1 + n2 AS DOUBLE) AS p
  FROM agg
),
d AS (
  SELECT x1, n1, x2, n2, p1, p2,
         SQRT(p * (1 - p)
              * (1.0 / CAST(n1 AS DOUBLE) + 1.0 / CAST(n2 AS DOUBLE)))
             AS se
  FROM c
)
SELECT x1, n1, x2, n2,
       CASE WHEN n1 > 0 AND n2 > 0 AND se > 0 THEN (p1 - p2) / se END AS z
FROM d
"""


def _orders_benford(sf_dir: str) -> Any:
    """Benford first-digit audit of order price cents
    (stages/profile.benford_audit): exact decimal-rendering digit
    extraction, one count exchange, always 9 rows with the precomputed
    log-distribution ppm constants beside the observed shares."""
    from deepseek_ocr_ray.stages.profile import benford_audit

    ds = analytics.read_table(sf_dir, "orders", columns=["o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "cents": pc.cast(
                    pc.floor(
                        pc.add(
                            pc.multiply(batch["o_totalprice"], 100.0), 0.5
                        )
                    ),
                    pa.int64(),
                )
            }
        )

    return benford_audit(ds.map_batches(prep, batch_format="pyarrow"), "cents")


ORDERS_BENFORD_SQL = """
WITH pos AS (
  SELECT CAST(SUBSTR(CAST(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
                          AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM orders
  WHERE CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) > 0
),
obs AS (SELECT digit, CAST(COUNT(*) AS BIGINT) AS o FROM pos GROUP BY 1),
tot AS (SELECT CAST(SUM(o) AS BIGINT) AS n FROM obs),
expct AS (
  SELECT * FROM (VALUES (1, 301030), (2, 176091), (3, 124939),
                        (4, 96910), (5, 79181), (6, 66947),
                        (7, 57992), (8, 51153), (9, 45757))
       t(digit, exp_ppm)
)
SELECT CAST(e.digit AS BIGINT) AS digit,
       COALESCE(obs.o, 0) AS observed,
       CAST(FLOOR(CAST(COALESCE(obs.o, 0) AS DOUBLE) / CAST(n AS DOUBLE)
                  * 1000000 + 0.5) AS BIGINT) AS obs_ppm,
       CAST(e.exp_ppm AS BIGINT) AS exp_ppm
FROM expct e LEFT JOIN obs ON obs.digit = e.digit CROSS JOIN tot
"""


def _lineitem_spearman(sf_dir: str) -> Any:
    """Exact Spearman rank correlation l_quantity × l_discount bps
    (stages/profile.spearman_corr): doubled average ranks over each
    margin, arbitrary-precision integer sums over the joint support
    (50 × 11 cells here), one pinned DOUBLE/SQRT rendering — rho is
    bit-equal to the windowed SQL oracle."""
    from deepseek_ocr_ray.stages.profile import spearman_corr

    ds = analytics.read_table(
        sf_dir, "lineitem", columns=["l_quantity", "l_discount"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "x": pc.cast(batch["l_quantity"], pa.int64()),
                "y": pc.cast(
                    pc.floor(
                        pc.add(
                            pc.multiply(batch["l_discount"], 10000.0), 0.5
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    return spearman_corr(ds.map_batches(prep, batch_format="pyarrow"), "x", "y")


LINEITEM_SPEARMAN_SQL = """
WITH pts AS (
  SELECT CAST(l_quantity AS BIGINT) AS x,
         CAST(FLOOR(l_discount * 10000 + 0.5) AS BIGINT) AS y
  FROM lineitem
),
joint AS (
  SELECT x, y, CAST(COUNT(*) AS HUGEINT) AS c FROM pts GROUP BY 1, 2
),
xm AS (SELECT x, SUM(c) AS cx FROM joint GROUP BY 1),
xr AS (
  SELECT x, 2 * (SUM(cx) OVER (ORDER BY x) - cx) + cx + 1 AS u FROM xm
),
ym AS (SELECT y, SUM(c) AS cy FROM joint GROUP BY 1),
yr AS (
  SELECT y, 2 * (SUM(cy) OVER (ORDER BY y) - cy) + cy + 1 AS v FROM ym
),
s AS (
  SELECT CAST(SUM(c) AS HUGEINT) AS n,
         CAST(SUM(c * u) AS HUGEINT) AS scu,
         CAST(SUM(c * v) AS HUGEINT) AS scv,
         CAST(SUM(c * u * v) AS HUGEINT) AS scuv,
         CAST(SUM(c * u * u) AS HUGEINT) AS scu2,
         CAST(SUM(c * v * v) AS HUGEINT) AS scv2
  FROM joint JOIN xr USING (x) JOIN yr USING (y)
),
f AS (
  SELECT n, n * scuv - scu * scv AS num,
         n * scu2 - scu * scu AS d1,
         n * scv2 - scv * scv AS d2
  FROM s
)
SELECT CAST(n AS BIGINT) AS n,
       CASE WHEN d1 > 0 AND d2 > 0
            THEN CAST(num AS DOUBLE)
                 / SQRT(CAST(d1 AS DOUBLE) * CAST(d2 AS DOUBLE))
       END AS rho
FROM f
"""


def _view_purchase_lead_lag(sf_dir: str) -> Any:
    """Lead-lag scan (stages/timeseries.lead_lag_dots): exact integer
    cross-products between the daily view and purchase count series at
    lags −7..7 — a positive-lag peak means views LEAD purchases.  One
    count exchange reduces the stream to the calendar support; zero
    days drop out of the dot products by identity."""
    from deepseek_ocr_ray.stages.timeseries import lead_lag_dots

    ds = analytics.read_table(sf_dir, "events", columns=["ts", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "ts": batch["ts"],
                "is_v": pc.cast(
                    pc.equal(batch["event_type"], "view"), pa.int64()
                ),
                "is_p": pc.cast(
                    pc.equal(batch["event_type"], "purchase"), pa.int64()
                ),
            }
        )

    return lead_lag_dots(
        ds.map_batches(prep, batch_format="pyarrow"), "ts", "is_v", "is_p"
    )


VIEW_PURCHASE_LEAD_LAG_SQL = """
WITH pts AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         CASE WHEN event_type = 'view' THEN 1 ELSE 0 END AS x,
         CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS y
  FROM events
),
d AS (
  SELECT day, CAST(SUM(x) AS BIGINT) AS x, CAST(SUM(y) AS BIGINT) AS y
  FROM pts GROUP BY 1
),
lags AS (SELECT UNNEST(range(-7, 8)) AS lag)
SELECT CAST(l.lag AS BIGINT) AS lag,
       CAST(COALESCE(SUM(a.x * b.y), 0) AS BIGINT) AS dot,
       CAST(SUM(CASE WHEN b.day IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_pairs
FROM lags l
LEFT JOIN d a ON TRUE
LEFT JOIN d b ON b.day = a.day + l.lag
GROUP BY l.lag
"""


def _events_cusum_day(sf_dir: str) -> Any:
    """CUSUM change-point over the daily event-count series
    (stages/timeseries.cusum_change_point): S_t = n·P_t − t·T in exact
    integers, argmax |S_t|, earliest day wins ties."""
    from deepseek_ocr_ray.stages.timeseries import cusum_change_point

    ds = analytics.read_table(sf_dir, "events", columns=["ts"])
    return cusum_change_point(ds, "ts")


EVENTS_CUSUM_DAY_SQL = """
WITH pts AS (
  SELECT epoch_us(ts) // 86400000000 AS day FROM events
),
d AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS n FROM pts GROUP BY 1),
tot AS (
  SELECT CAST(SUM(n) AS BIGINT) AS total, CAST(COUNT(*) AS BIGINT) AS nd
  FROM d
),
c AS (
  SELECT day,
         ABS(nd * SUM(n) OVER (ORDER BY day)
             - (ROW_NUMBER() OVER (ORDER BY day)) * total) AS s,
         nd, total
  FROM d CROSS JOIN tot
)
SELECT CAST(day AS BIGINT) AS change_day, CAST(s AS BIGINT) AS cusum_abs,
       nd AS n_days, total
FROM c ORDER BY s DESC, day LIMIT 1
"""


def _events_theilsen(sf_dir: str) -> Any:
    """Theil-Sen robust daily trend (stages/timeseries.theil_sen_slope):
    the discrete median of all pairwise slopes over the calendar
    support — one pinned int/int division per pair, quantile_disc index
    convention, bit-equal to SQL."""
    from deepseek_ocr_ray.stages.timeseries import theil_sen_slope

    ds = analytics.read_table(sf_dir, "events", columns=["ts"])
    return theil_sen_slope(ds, "ts")


EVENTS_THEILSEN_SQL = """
WITH pts AS (
  SELECT epoch_us(ts) // 86400000000 AS day FROM events
),
d AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS n FROM pts GROUP BY 1),
pairs AS (
  SELECT CAST(b.n - a.n AS DOUBLE) / CAST(b.day - a.day AS DOUBLE) AS slope
  FROM d a JOIN d b ON b.day > a.day
)
SELECT quantile_disc(slope, 0.5) AS slope,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM d) AS n_days,
       CAST(COUNT(*) AS BIGINT) AS n_pairs
FROM pairs
"""


def _events_dow_chi2(sf_dir: str) -> Any:
    """Day-of-week uniformity audit (stages/profile.chi2_goodness_of_fit
    with the exact rational uniform 1/7): weekday derives from pure
    integer arithmetic — (epoch_days + 3) % 7, 0 = Monday — identically
    on both sides (calendar functions would drag in timezone/locale
    conventions the arithmetic form sidesteps)."""
    from deepseek_ocr_ray.stages.profile import chi2_goodness_of_fit

    ds = analytics.read_table(sf_dir, "events", columns=["ts"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        day = pc.divide(
            batch["ts"].cast(pa.int64()),
            pa.scalar(86400000000, pa.int64()),
        )
        dow = pc.cast(
            pc.subtract(
                pc.add(day, pa.scalar(3, pa.int64())),
                pc.multiply(
                    pc.divide(
                        pc.add(day, pa.scalar(3, pa.int64())),
                        pa.scalar(7, pa.int64()),
                    ),
                    pa.scalar(7, pa.int64()),
                ),
            ),
            pa.int64(),
        )
        return pa.table({"dow": dow})

    return chi2_goodness_of_fit(
        ds.map_batches(prep, batch_format="pyarrow"),
        "dow",
        {d: (1, 7) for d in range(7)},
    )


EVENTS_DOW_CHI2_SQL = """
WITH pos AS (
  SELECT ((epoch_us(ts) // 86400000000) + 3) % 7 AS dow FROM events
),
obs AS (SELECT dow, CAST(COUNT(*) AS HUGEINT) AS o FROM pos GROUP BY 1),
tot AS (SELECT CAST(SUM(o) AS HUGEINT) AS n FROM obs),
dg AS (SELECT UNNEST(range(0, 7)) AS dow),
grid AS (
  SELECT dg.dow, COALESCE(obs.o, 0) AS o
  FROM dg LEFT JOIN obs ON obs.dow = dg.dow
)
SELECT CAST(SUM(CAST(FLOOR(
           CAST((o * 7 - n * 1) * (o * 7 - n * 1) AS DOUBLE)
           / CAST(n * 1 * 7 AS DOUBLE) * 1000000 + 0.5) AS BIGINT))
       AS BIGINT) AS chi2_ppm,
       CAST(6 AS BIGINT) AS dof,
       CAST(MAX(n) AS BIGINT) AS n_rows
FROM grid, tot
"""


def _orders_fingerprint(sf_dir: str) -> Any:
    """Order-independent whole-table fingerprint
    (state/diff.table_fingerprint, md5 SQL-parity mode): SUM of per-row
    md5-prefix ints mod 2^63−1 — invariant to row order, block layout
    and parallelism; counts duplicates by multiplicity.  The replication
    / migration equality primitive."""
    from deepseek_ocr_ray.state.diff import table_fingerprint

    ds = analytics.read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderstatus"]
    )
    return table_fingerprint(
        ds, ["o_orderkey", "o_custkey", "o_orderstatus"], method="md5"
    )


ORDERS_FINGERPRINT_SQL = """
SELECT CAST(SUM(CAST(CONCAT('0x', SUBSTR(md5(CONCAT(
           COALESCE(CAST(o_orderkey AS VARCHAR), ''), '|',
           COALESCE(CAST(o_custkey AS VARCHAR), ''), '|',
           COALESCE(CAST(o_orderstatus AS VARCHAR), ''))), 1, 12))
           AS BIGINT)) % 9223372036854775807 AS BIGINT) AS fingerprint,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM orders
"""


def _doc_length_gini(sf_dir: str) -> Any:
    """Exact Gini concentration of document lengths
    (stages/profile.gini_coefficient): the corpus-volume inequality
    audit, computed from the distinct-length histogram in big ints —
    one count exchange, one pinned ppm rendering."""
    from deepseek_ocr_ray.stages.profile import gini_coefficient

    ds = analytics.read_table(sf_dir, "documents", columns=["n_chars"])
    return gini_coefficient(ds, "n_chars")


DOC_LENGTH_GINI_SQL = """
WITH h AS (
  SELECT CAST(n_chars AS BIGINT) AS v, CAST(COUNT(*) AS HUGEINT) AS c
  FROM documents GROUP BY 1
),
cumt AS (
  SELECT v, c,
         SUM(c) OVER (ORDER BY v) AS cum,
         SUM(c) OVER (ORDER BY v) - c AS cum_prev
  FROM h
),
s AS (
  SELECT CAST(SUM(c) AS HUGEINT) AS n,
         CAST(SUM(v * c) AS HUGEINT) AS total,
         CAST(SUM(v * (cum * (cum + 1) - cum_prev * (cum_prev + 1)))
              AS HUGEINT) AS trx
  FROM cumt
)
SELECT CASE WHEN n > 0 AND total > 0
            THEN CAST(FLOOR(CAST(trx - (n + 1) * total AS DOUBLE)
                            / CAST(n * total AS DOUBLE) * 1000000 + 0.5)
                 AS BIGINT) END AS gini_ppm,
       CAST(n AS BIGINT) AS n_rows,
       CAST(total AS BIGINT) AS total
FROM s
"""


def _purchase_view_qq(sf_dir: str) -> Any:
    """Q-Q decile table purchase vs view value cents
    (stages/profile.qq_table): WHERE the KS drift sits, decile by
    decile — actual observed values via the probed quantile_disc rank
    convention, over the shared support reduction."""
    from deepseek_ocr_ray.stages.profile import qq_table

    ds = analytics.read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "event_type": batch["event_type"],
                "value_cents": pc.cast(
                    pc.floor(
                        pc.add(pc.multiply(batch["value"], 100.0), 0.5)
                    ),
                    pa.int64(),
                ),
            }
        )

    return qq_table(
        ds.map_batches(prep, batch_format="pyarrow"),
        "value_cents",
        "event_type",
        ("purchase", "view"),
    )


PURCHASE_VIEW_QQ_SQL = """
WITH pts AS (
  SELECT CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS v, event_type
  FROM events WHERE event_type IN ('purchase', 'view')
),
q1 AS (
  SELECT UNNEST([1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000])
             AS q_bp,
         UNNEST(quantile_disc(v, [0.1, 0.2, 0.3, 0.4, 0.5,
                                  0.6, 0.7, 0.8, 0.9])) AS v1
  FROM pts WHERE event_type = 'purchase'
),
q2 AS (
  SELECT UNNEST([1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000])
             AS q_bp,
         UNNEST(quantile_disc(v, [0.1, 0.2, 0.3, 0.4, 0.5,
                                  0.6, 0.7, 0.8, 0.9])) AS v2
  FROM pts WHERE event_type = 'view'
)
SELECT CAST(q1.q_bp AS BIGINT) AS q_bp,
       CAST(v1 AS BIGINT) AS v1, CAST(v2 AS BIGINT) AS v2
FROM q1 JOIN q2 USING (q_bp)
"""


def _events_conformal(sf_dir: str) -> Any:
    """Split-conformal calibration thresholds per event type
    (stages/profile.conformal_thresholds): nonconformity = |cents −
    per-type median| in exact ints; threshold = k-th smallest score at
    k = min(ceil((n+1)·0.9), n) — the distribution-free 90%% interval
    primitive."""
    from deepseek_ocr_ray.stages.profile import conformal_thresholds

    ds = analytics.read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "event_type": batch["event_type"],
                "cents": pc.cast(
                    pc.floor(
                        pc.add(pc.multiply(batch["value"], 100.0), 0.5)
                    ),
                    pa.int64(),
                ),
            }
        )

    return conformal_thresholds(
        ds.map_batches(prep, batch_format="pyarrow"),
        "event_type",
        "cents",
        alpha_bp=1000,
    )


EVENTS_CONFORMAL_SQL = """
WITH pts AS (
  SELECT event_type, CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
med AS (
  SELECT event_type, quantile_disc(cents, 0.5) AS m FROM pts GROUP BY 1
),
sc AS (
  SELECT p.event_type, ABS(p.cents - med.m) AS s, med.m
  FROM pts p JOIN med USING (event_type)
),
cnt AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n FROM sc GROUP BY 1),
ranked AS (
  SELECT event_type, s, m,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY s) AS rn
  FROM sc
)
SELECT r.event_type, CAST(r.m AS BIGINT) AS median,
       CAST(r.s AS BIGINT) AS threshold, cnt.n AS n
FROM ranked r JOIN cnt USING (event_type)
WHERE rn = LEAST(CAST(CEIL((cnt.n + 1) * 0.9) AS BIGINT), cnt.n)
"""


def _value_quantiles_by_type(sf_dir: str) -> Any:
    """Per-event-type DDSketch value quantiles (α = 1% relative error);
    counter-addition merges → parallelism-invariant → fixture-pinned."""
    from deepseek_ocr_ray.stages.sketches import group_ddsketch_quantiles

    ds = analytics.read_table(sf_dir, "events", columns=["event_type", "value"])
    return group_ddsketch_quantiles(ds, ["event_type"], "value")


def _doc_rank_by_lang(sf_dir: str) -> Any:
    """SQL rank()/percent_rank() per language by length (longest first,
    ties share rank) — the window-function surface."""
    ds = analytics.read_table(
        sf_dir, "documents", columns=["doc_id", "lang", "n_chars"]
    )
    return windows.group_rank(
        ds, keys=["lang"], order_cols=[("n_chars", "descending")]
    )


def _events_latest(sf_dir: str) -> Any:
    """CDC compaction: the latest event per (user, event_type) — max
    (ts, event_id) wins, full row payload rides through byte-exact."""
    from deepseek_ocr_ray.stages.agg import latest_by_key

    ds = analytics.read_table(
        sf_dir, "events",
        columns=["user_id", "event_type", "ts", "event_id", "value"],
    )
    return latest_by_key(
        ds, ["user_id", "event_type"], order_col="ts", tiebreak_col="event_id"
    )


def _events_debounce(sf_dir: str) -> Any:
    """Drop rapid repeats: an event survives iff the previous event of
    the same (user, type) — lag() semantics — is over 30 min older."""
    ds = analytics.read_table(
        sf_dir, "events", columns=["event_id", "user_id", "event_type", "ts"]
    )
    return windows.debounce(
        ds, keys=["user_id", "event_type"], window_sec=1800.0
    )


def _event_days(sf_dir: str, event_type: str) -> Any:
    """Distinct (user_id, day) pairs on which ``event_type`` occurred."""
    ds = analytics.read_table(
        sf_dir, "events", columns=["user_id", "event_type", "ts"]
    )

    def prep(batch: pa.Table, _et=event_type) -> pa.Table:
        import pyarrow.compute as pc2

        t = batch.filter(pc2.equal(batch["event_type"], _et))
        return pa.table(
            {
                "user_id": t["user_id"],
                "day": pc2.strftime(t["ts"], format="%Y-%m-%d"),
            }
        )

    return ds.map_batches(prep, batch_format="pyarrow")


def _view_days_no_purchase(sf_dir: str) -> Any:
    """Relational EXCEPT: (user, day) pairs with a view but no purchase —
    map-side distinct on both sides, one coarse-bucket exchange, C++
    min/max(side) presence logic per key."""
    from deepseek_ocr_ray.stages.setops import set_op

    return set_op(
        _event_days(sf_dir, "view"),
        _event_days(sf_dir, "purchase"),
        keys=["user_id", "day"],
        how="except",
    )


def _view_purchase_days(sf_dir: str) -> Any:
    """Relational INTERSECT: (user, day) pairs with both a view and a
    purchase (same plan as EXCEPT, different survivor mask)."""
    from deepseek_ocr_ray.stages.setops import set_op

    return set_op(
        _event_days(sf_dir, "view"),
        _event_days(sf_dir, "purchase"),
        keys=["user_id", "day"],
        how="intersect",
    )


def _lineitem_distinct_parts_supps(sf_dir: str) -> Any:
    """Grouped multi-column COUNT DISTINCT: distinct parts and distinct
    suppliers per return flag in one exchange — long-format output so the
    schema never depends on the column count."""
    from deepseek_ocr_ray.stages.agg import group_count_distinct

    ds = analytics.read_table(
        sf_dir, "lineitem", columns=["l_returnflag", "l_partkey", "l_suppkey"]
    )
    return group_count_distinct(
        ds, ["l_returnflag"], ["l_partkey", "l_suppkey"]
    )


LINEITEM_DISTINCT_PARTS_SUPPS_SQL = """
SELECT l_returnflag, 'l_partkey' AS column,
       CAST(count(DISTINCT l_partkey) AS BIGINT) AS n_distinct
FROM lineitem GROUP BY 1
UNION ALL
SELECT l_returnflag, 'l_suppkey' AS column,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS n_distinct
FROM lineitem GROUP BY 1
ORDER BY 1, 2
"""


def _orders_monthly_growth(sf_dir: str) -> Any:
    """Window-over-aggregate composition: monthly revenue per order
    priority, then lag() across months to materialize the previous
    month's total — delta analytics on an already-reduced table (the
    second exchange moves one row per (priority, month))."""
    from deepseek_ocr_ray.stages.agg import bucket_groupby_agg

    ds = analytics.read_table(
        sf_dir, "orders", columns=["o_orderpriority", "o_orderdate", "o_totalprice"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        return pa.table(
            {
                "prio": batch["o_orderpriority"],
                "month": pc2.strftime(batch["o_orderdate"], format="%Y-%m"),
                "cents": analytics._cents(batch["o_totalprice"]),
            }
        )

    monthly = bucket_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["prio", "month"],
        [("cents", "sum", "revenue_cents")],
    )
    return windows.with_lag(
        monthly,
        keys=["prio"],
        order_cols=[("month", "ascending")],
        col="revenue_cents",
        out_col="prev_revenue_cents",
    )


ORDERS_MONTHLY_GROWTH_SQL = """
WITH m AS (
  SELECT o_orderpriority AS prio, strftime(o_orderdate, '%Y-%m') AS month,
         CAST(sum(CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT)
           AS revenue_cents
  FROM orders GROUP BY 1, 2
)
SELECT prio, month, revenue_cents,
       lag(revenue_cents) OVER (PARTITION BY prio ORDER BY month)
         AS prev_revenue_cents
FROM m ORDER BY prio, month
"""


def _user_event_melt(sf_dir: str) -> Any:
    """PIVOT → UNPIVOT round trip: the per-user wide counts melt back to
    (user_id, variable, n) rows — zero-exchange vectorized fan-out whose
    oracle is the plain long-form GROUP BY."""
    from deepseek_ocr_ray.stages.agg import melt

    cols = ["n_view", "n_click", "n_purchase", "n_signup", "n_error"]
    return melt(
        _user_event_pivot(sf_dir), ["user_id"], cols, val_col="n"
    )


USER_EVENT_MELT_SQL = """
WITH base AS (
  SELECT user_id, 'n_' || event_type AS variable,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
), grid AS (
  SELECT u.user_id, v.variable
  FROM (SELECT DISTINCT user_id FROM events) u
  CROSS JOIN (VALUES ('n_view'), ('n_click'), ('n_purchase'),
                     ('n_signup'), ('n_error')) v(variable)
)
SELECT g.user_id, g.variable, coalesce(b.n, 0) AS n
FROM grid g LEFT JOIN base b USING (user_id, variable)
ORDER BY g.user_id, g.variable
"""


def _corpus_to_shards(sf_dir: str) -> Any:
    """The WHOLE pretraining-data pipeline as one lazy composition:
    corpus_filter (quality + repetition + decontamination + exact-dedup)
    → keep survivors → deterministic shuffle into training shards with
    in-shard positions.  Every stage streams; the oracle is the
    corpus_filter SQL wrapped as a CTE under the shard/pos window."""
    from deepseek_ocr_ray.pipelines.analytics import shuffle_shards

    flags = curation.corpus_filter(sf_dir)

    def survivors(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        return pa.table(
            {"doc_id": batch.filter(pc2.equal(batch["keep"], 1))["doc_id"]}
        )

    kept = flags.map_batches(survivors, batch_format="pyarrow")
    return shuffle_shards(kept, id_col="doc_id", n_shards=4, method="md5")


def _corpus_to_shards_sql() -> str:
    return f"""
WITH cf AS ({curation.corpus_filter_sql(_SW)}),
h AS (
  SELECT doc_id,
         CAST(('0x' || substr(md5('sh42:' || CAST(doc_id AS VARCHAR)), 1, 8))
              AS UBIGINT) AS hv
  FROM cf WHERE keep = 1
)
SELECT doc_id, CAST(hv % 4 AS BIGINT) AS shard,
       CAST(row_number() OVER (PARTITION BY hv % 4 ORDER BY hv, doc_id) - 1
            AS BIGINT) AS pos
FROM h ORDER BY shard, pos
"""


def _doc_cume_dist_by_lang(sf_dir: str) -> Any:
    """cume_dist() per language (rows ≤ current incl. ties / group size)
    alongside rank/percent_rank — one exchange, zero-Python walk."""
    ds = analytics.read_table(
        sf_dir, "documents", columns=["doc_id", "lang", "n_chars"]
    )
    return windows.group_rank(
        ds,
        keys=["lang"],
        order_cols=[("n_chars", "descending")],
        cume_col="cume",
        dense_col="drnk",
    )


DOC_CUME_DIST_BY_LANG_SQL = """
SELECT doc_id, lang, n_chars,
       CAST(rank() OVER w AS BIGINT) AS rnk,
       percent_rank() OVER w AS pct,
       cume_dist() OVER w AS cume,
       CAST(dense_rank() OVER w AS BIGINT) AS drnk
FROM documents
WINDOW w AS (PARTITION BY lang ORDER BY n_chars DESC)
ORDER BY lang, rnk, doc_id
"""


def _events_prev_value(sf_dir: str) -> Any:
    """SQL lag(value) materialized per event: the previous value of the
    same user in (ts, event_id) order, null at group starts — the window
    navigation primitive as a standalone streaming column op."""
    ds = analytics.read_table(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "value"]
    )
    return windows.with_lag(
        ds,
        keys=["user_id"],
        order_cols=[("ts", "ascending"), ("event_id", "ascending")],
        col="value",
        out_col="prev_value",
    )


EVENTS_PREV_VALUE_SQL = """
SELECT event_id, user_id, ts, value,
       lag(value) OVER (PARTITION BY user_id
                        ORDER BY ts, event_id) AS prev_value
FROM events ORDER BY event_id
"""


def _user_retention(sf_dir: str) -> Any:
    """Cohort retention matrix: users grouped by their FIRST active week
    (cohort), counted in every week they return — the composition is
    three coarse-bucket aggregates and one planner equi-join, all over
    already-reduced (user, week) pairs (the raw event stream reduces
    map-side in the first pass)."""
    from deepseek_ocr_ray.cluster import equi_join
    from deepseek_ocr_ray.stages.agg import bucket_groupby_agg

    ds = analytics.read_table(sf_dir, "events", columns=["user_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        return pa.table(
            {
                "user_id": batch["user_id"],
                "week": pc2.strftime(
                    pc2.floor_temporal(batch["ts"], unit="week"),
                    format="%Y-%m-%d",
                ),
            }
        )

    # pairs feeds BOTH the cohort aggregate and the join left side —
    # materialize once ((user, week)-bounded) so the corpus pass doesn't
    # execute twice; the cohort side is user-bounded, so the join goes
    # broadcast whenever it fits plasma
    pairs = bucket_groupby_agg(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id", "week"],
        [(None, "count", "_n")],
    ).materialize()
    cohorts = bucket_groupby_agg(
        pairs, ["user_id"], [("week", "min", "cohort")]
    ).materialize()  # user-bounded — the actual broadcast side
    joined = equi_join(
        pairs,
        cohorts,
        on="user_id",
        left_cols=["week"],
        right_cols=["cohort"],
    )
    return bucket_groupby_agg(
        joined, ["cohort", "week"], [(None, "count", "n_users")]
    )


USER_RETENTION_SQL = """
WITH uw AS (
  SELECT DISTINCT user_id,
         strftime(date_trunc('week', ts), '%Y-%m-%d') AS week
  FROM events
), fw AS (
  SELECT user_id, min(week) AS cohort FROM uw GROUP BY 1
)
SELECT fw.cohort, uw.week, CAST(count(*) AS BIGINT) AS n_users
FROM uw JOIN fw USING (user_id)
GROUP BY 1, 2 ORDER BY 1, 2
"""


def _user_event_pivot(sf_dir: str) -> Any:
    """SQL PIVOT: one count column per event type per user — CASE columns
    materialize map-side in C++, then one coarse-bucket exchange of
    partial rows."""
    from deepseek_ocr_ray.stages.agg import pivot_sum

    ds = analytics.read_table(sf_dir, "events", columns=["user_id", "event_type"])
    return pivot_sum(
        ds,
        ["user_id"],
        "event_type",
        ["view", "click", "purchase", "signup", "error"],
    )


USER_EVENT_PIVOT_SQL = """
SELECT user_id,
       CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view,
       CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
       CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
       CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error
FROM events GROUP BY 1 ORDER BY 1
"""


def _events_next_purchase(sf_dir: str) -> Any:
    """FORWARD as-of join: each view event matches the user's EARLIEST
    purchase at-or-after its ts (time-to-next-purchase) — the backward
    algorithm on negated timestamps, equal-ts ties to the max event_id
    folded into the join's own exchange."""
    from deepseek_ocr_ray.stages.joins import asof_join

    ds = analytics.read_table(
        sf_dir, "events", columns=["event_id", "user_id", "event_type", "ts"]
    )

    def side(et: str, id_out: str):
        def fn(batch: pa.Table, _et=et) -> pa.Table:
            import pyarrow.compute as pc2

            t = batch.filter(pc2.equal(batch["event_type"], _et))
            return pa.table(
                {id_out: t["event_id"], "user_id": t["user_id"], "ts": t["ts"]}
            )

        return fn

    views = ds.map_batches(side("view", "event_id"), batch_format="pyarrow")
    purchases = ds.map_batches(
        side("purchase", "p_event"), batch_format="pyarrow"
    )
    return asof_join(
        views,
        purchases,
        left_key="user_id",
        right_key="user_id",
        left_ts="ts",
        right_ts="ts",
        left_cols=["event_id", "user_id"],
        right_cols=["p_event"],
        right_tiebreak="p_event",
        direction="forward",
    )


EVENTS_NEXT_PURCHASE_SQL = """
WITH v AS (
  SELECT event_id, user_id, ts FROM events WHERE event_type = 'view'
), p AS (
  SELECT user_id, ts, max(event_id) AS p_event
  FROM events WHERE event_type = 'purchase' GROUP BY 1, 2
)
SELECT v.event_id, v.user_id, p.p_event
FROM v ASOF JOIN p ON v.user_id = p.user_id AND v.ts <= p.ts
ORDER BY v.event_id
"""


def _user_gap_stats(sf_dir: str) -> Any:
    """Inter-event cadence per user: count/mean/max of ts − lag(ts) in
    integer microseconds — one coarse-bucket exchange, per-run reduceat
    aggregation, final rows emitted straight from the walk."""
    ds = analytics.read_table(
        sf_dir, "events", columns=["user_id", "ts", "event_id"]
    )
    return windows.gap_stats(ds, keys=["user_id"])


USER_GAP_STATS_SQL = """
WITH d AS (
  SELECT user_id,
         epoch_us(ts - lag(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id)) AS gap_us
  FROM events
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_gaps,
       avg(gap_us) AS avg_gap_us,
       CAST(max(gap_us) AS BIGINT) AS max_gap_us
FROM d WHERE gap_us IS NOT NULL GROUP BY 1 ORDER BY 1
"""


def _doc_ntile_by_lang(sf_dir: str) -> Any:
    """SQL ntile(4) per language over a total order (n_chars desc, doc_id)
    — the quartile assignment used to stratify a corpus by length."""
    ds = analytics.read_table(
        sf_dir, "documents", columns=["doc_id", "lang", "n_chars"]
    )
    return windows.group_ntile(
        ds,
        keys=["lang"],
        order_cols=[("n_chars", "descending"), ("doc_id", "ascending")],
        n_tiles=4,
    )


DOC_NTILE_BY_LANG_SQL = """
SELECT doc_id, lang, n_chars,
       CAST(ntile(4) OVER (PARTITION BY lang
                           ORDER BY n_chars DESC, doc_id) AS BIGINT) AS tile
FROM documents ORDER BY doc_id
"""


def _value_median_cont_by_type(sf_dir: str) -> Any:
    """Interpolated per-group median (SQL percentile_cont): same one-
    exchange histogram plan as the discrete quantile, DuckDB's own
    interpolation expression term for term so the float64 output is
    bit-identical to the oracle."""
    from deepseek_ocr_ray.stages.agg import group_quantile_cont

    ds = analytics.read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "value_cents": analytics._cents(batch["value"]),
            }
        )

    return group_quantile_cont(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type"],
        "value_cents",
        0.5,
        out_col="med_cents",
    )


VALUE_MEDIAN_CONT_BY_TYPE_SQL = """
SELECT event_type,
       quantile_cont(CAST(FLOOR(value*100 + 0.5) AS BIGINT), 0.5) AS med_cents
FROM events GROUP BY 1 ORDER BY 1
"""


def _user_day_views_vs_purchases(sf_dir: str) -> Any:
    """FULL OUTER join: per-(user, day) view counts vs purchase counts —
    right-only and left-only days both survive with nulls on the absent
    side; the key column is the join's own COALESCE (bucket_join key_out).
    Exact under the keyed-exchange plan because each key's rows co-locate
    in one bucket (a broadcast plan cannot express this)."""
    from deepseek_ocr_ray.cluster import equi_join
    from deepseek_ocr_ray.stages.agg import bucket_groupby_agg

    ds = analytics.read_table(
        sf_dir, "events", columns=["user_id", "event_type", "ts"]
    )

    def _per_day_counts(event_type: str, out: str) -> Any:
        def prep(batch: pa.Table, _et=event_type) -> pa.Table:
            import pyarrow.compute as pc2

            t = batch.filter(pc2.equal(batch["event_type"], _et))
            k = pc2.binary_join_element_wise(
                pc2.cast(t["user_id"], pa.string()),
                pc2.strftime(t["ts"], format="%Y-%m-%d"),
                ":",
            )
            return pa.table({"k": k})

        return bucket_groupby_agg(
            ds.map_batches(prep, batch_format="pyarrow"),
            ["k"],
            [(None, "count", out)],
        )

    return equi_join(
        _per_day_counts("view", "n_views"),
        _per_day_counts("purchase", "n_purchases"),
        on="k",
        join_type="full_outer",
        left_cols=["n_views"],
        right_cols=["n_purchases"],
        key_out="k",
    )


def _events_rollup(sf_dir: str) -> Any:
    """GROUP BY ROLLUP(event_type, day): one corpus pass, coarser levels
    re-aggregate the previous level's (already reduced) output."""
    from deepseek_ocr_ray.stages.agg import rollup_sum

    ds = analytics.read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(batch: pa.Table) -> Any:
        import pyarrow.compute as pc2

        return pa.table(
            {
                "event_type": batch["event_type"],
                "day": pc2.strftime(batch["ts"], format="%Y-%m-%d"),
                "value_cents": analytics._cents(batch["value"]),
            }
        )

    return rollup_sum(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "day"],
        ["value_cents"],
    )


def _events_cube(sf_dir: str) -> Any:
    """GROUP BY CUBE(event_type, day): every subset level derived from an
    already-reduced superset one key larger — 2^k−1 exchanges over
    group-count rows, one corpus scan."""
    from deepseek_ocr_ray.stages.agg import cube_sum

    ds = analytics.read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(batch: pa.Table) -> Any:
        import pyarrow.compute as pc2

        return pa.table(
            {
                "event_type": batch["event_type"],
                "day": pc2.strftime(batch["ts"], format="%Y-%m-%d"),
                "value_cents": analytics._cents(batch["value"]),
            }
        )

    return cube_sum(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "day"],
        ["value_cents"],
    )


EVENTS_CUBE_SQL = """
SELECT event_type, day,
       CAST(sum(value_cents) AS BIGINT) AS value_cents,
       CAST(count(*) AS BIGINT) AS n
FROM (
  SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
         CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS value_cents
  FROM events
)
GROUP BY CUBE (event_type, day)
ORDER BY event_type NULLS LAST, day NULLS LAST
"""


def _events_funnel(sf_dir: str) -> Any:
    """Two-step funnel: per user, view events followed by a purchase
    within one hour (strict (t, t+1h] window)."""
    ds = analytics.read_table(
        sf_dir, "events", columns=["user_id", "ts", "event_type"]
    )
    return windows.funnel_conversions(
        ds, step_a="view", step_b="purchase", window_sec=3600.0
    )


def _events_funnel3(sf_dir: str) -> Any:
    """Three-step funnel view→click→purchase: each view's EARLIEST click
    within 1h anchors a 1h purchase window — chained sequence matching,
    one exchange, zero-Python searchsorted walks."""
    ds = analytics.read_table(
        sf_dir, "events", columns=["user_id", "ts", "event_type"]
    )
    return windows.funnel3_conversions(
        ds, step_a="view", step_b="click", step_c="purchase",
        window_ab_sec=3600.0, window_bc_sec=3600.0,
    )


EVENTS_FUNNEL3_SQL = """
WITH v AS (SELECT user_id, ts FROM events WHERE event_type = 'view'),
b AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
c AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase'),
vb AS (
  SELECT v.user_id, v.ts AS vts,
         (SELECT min(b.ts) FROM b
          WHERE b.user_id = v.user_id AND b.ts > v.ts
            AND b.ts <= v.ts + INTERVAL 1 HOUR) AS bts
  FROM v
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_a,
       CAST(sum(CASE WHEN bts IS NOT NULL AND EXISTS (
         SELECT 1 FROM c
         WHERE c.user_id = vb.user_id AND c.ts > vb.bts
           AND c.ts <= vb.bts + INTERVAL 1 HOUR
       ) THEN 1 ELSE 0 END) AS BIGINT) AS n_conv
FROM vb GROUP BY 1 ORDER BY 1
"""


def _purchase_prior_views(sf_dir: str) -> Any:
    """Time-RANGE join as a window count: per purchase event, the same
    user's view count in the half-open hour (t − 1h, t] — no pair
    explosion, one user-keyed exchange, one searchsorted pair over the
    funnel kernel's combined (user-rank, time) key."""
    ds = analytics.read_table(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"]
    )
    return windows.prior_window_counts(
        ds, anchor_type="purchase", count_type="view", window_sec=3600.0
    )


PURCHASE_PRIOR_VIEWS_SQL = """
SELECT p.event_id, p.user_id,
       CAST(count(v.ts) AS BIGINT) AS n_prior
FROM events p
LEFT JOIN events v
  ON v.user_id = p.user_id AND v.event_type = 'view'
 AND v.ts > p.ts - INTERVAL 1 HOUR AND v.ts <= p.ts
WHERE p.event_type = 'purchase'
GROUP BY 1, 2 ORDER BY 1
"""


def _events_rolling7(sf_dir: str) -> Any:
    """Sliding-window aggregate: trailing-7-day event count + value sum per
    (event_type, day)."""
    ds = analytics.read_table(sf_dir, "events", columns=["event_type", "ts", "value"])
    return windows.sliding_window_daily(ds, window_days=7)


def _events_topk(sf_dir: str) -> Any:
    ds = analytics.read_table(
        sf_dir, "events", columns=["event_type", "value", "event_id"]
    )
    return windows.grouped_topk(
        ds, group_col="event_type", value_col="value", id_col="event_id", k=3
    )


def _users_rolling7_distinct(sf_dir: str) -> Any:
    """Rolling 7-day DISTINCT user count per observed day (exact rolling
    cardinality — distinctness does not pre-aggregate, so this is a
    different exchange shape from the rolling-sum window)."""
    ds = analytics.read_table(sf_dir, "events", columns=["user_id", "ts"])
    return windows.rolling_distinct_daily(ds, window_days=7)


USERS_ROLLING7_DISTINCT_SQL = """
WITH e AS (
  SELECT DISTINCT
         datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) AS od,
         user_id
  FROM events
),
days AS (
  SELECT DISTINCT strftime(ts, '%Y-%m-%d') AS day,
         datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) AS od
  FROM events
)
SELECT d.day, CAST(count(DISTINCT e.user_id) AS BIGINT) AS n_distinct
FROM days d JOIN e ON e.od BETWEEN d.od - 6 AND d.od
GROUP BY 1 ORDER BY 1
"""


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # Driver-window rotation (round 5): the driver correctness sweep
        # covers roughly the first 50 entries; cumulative driver coverage
        # after round 4 is 111/234, so the window now holds ONLY
        # never-driver-verified entries, ranked by machinery novelty per
        # the round-4 verdict: state management (IVM refresh, Bloom file
        # index, Z-order scan, partition pruning), linalg (PCA, OLS,
        # covariance, logreg), curation depth (DSIR, CCNet buckets,
        # substring dedup, decontamination, Gopher), graph (triangles,
        # k-core), dedup variants, search/text mining, encoders,
        # similarity/clustering, sketches, extraction stats, robust
        # window stats, and evolved-schema sources.  All 123
        # never-verified entries precede the 111 already-verified ones;
        # relative order within each tier is preserved from round 4.
        "orders_ivm_refresh": analytics.orders_ivm_refresh,
        "embedding_pca_project": analytics.embedding_pca_project,
        "lineitem_price_ols": analytics.lineitem_price_ols,
        "dsir_scores": curation.dsir_scores,
        "ccnet_buckets": analytics.ccnet_buckets,
        "substring_dup_spans": curation.substring_dup_spans,
        "part_cooccur_triangles": analytics.part_cooccur_triangles,
        "part_kcore": analytics.part_kcore,
        "orders_bloom_lookup": analytics.orders_bloom_lookup,
        "lineitem_zorder_scan": analytics.lineitem_zorder_scan,
        "orders_partitioned_prune": analytics.orders_partitioned_prune,
        "lineitem_quality_audit": analytics.lineitem_quality_audit,
        "embedding_covariance": analytics.embedding_covariance,
        "embedding_logreg": analytics.embedding_logreg,
        "lineitem_corr_stats": analytics.lineitem_corr_stats,
        "substring_dup_scrub": curation.substring_dup_scrub,
        "line_dedup_scrub": curation.line_dedup_scrub,
        "decontaminate_scrub": curation.decontaminate_scrub,
        "decontaminate_spans": curation.decontaminate_spans,
        "bench_contamination_report": curation.bench_contamination_report,
        "gopher_quality": curation.gopher_quality,
        "corpus_quality_filter": curation.corpus_quality_filter,
        "doc_lm_score": analytics.doc_lm_score,
        "doc_rarity": _doc_rarity,
        "source_divergence": curation.source_divergence,
        "doc_keywords": curation.doc_keywords,
        "dedup_semantic": _dedup_semantic,
        "dedup_keep_best": _dedup_keep_best,
        "image_phash_dedup": _image_phash_dedup,
        "doc_dup_fraction": curation.doc_dup_fraction,
        "source_dup_stats": curation.source_dup_stats,
        "token_postings": curation.token_postings,
        "search_bm25": _search_bm25,
        "pmi_bigrams": analytics.pmi_bigrams,
        "skipgram_pairs": curation.skipgram_pairs,
        "source_top_terms": analytics.source_top_terms,
        "part_categorical_encode": analytics.part_categorical_encode,
        "orders_target_encode": analytics.orders_target_encode,
        "bpe_pair_counts": curation.bpe_pair_counts,
        "part_cosine_pairs": analytics.part_cosine_pairs,
        "embedding_negatives": analytics.embedding_negatives,
        "embedding_class_stats": analytics.embedding_class_stats,
        "part_clustering_top": analytics.part_clustering_top,
        "embedding_clusters": _embedding_clusters,
        "token_topk_mg": _token_topk_mg,
        "price_quantiles_sketch": _price_quantiles_sketch,
        "token_freq_cms": _token_freq_cms,
        "users_by_type_hll": _users_by_type_hll,
        "extract_interleave_stats": _extract_interleave_stats,
        "image_phash": _image_phash,
        "events_zscore_outliers": analytics.events_zscore_outliers,
        "customer_rolling3_revenue": analytics.customer_rolling3_revenue,
        "type_daily_ffill": analytics.type_daily_ffill,
        "users_rolling7_distinct": _users_rolling7_distinct,
        "value_mad_by_type": analytics.value_mad_by_type,
        "value_winsorized_by_type": analytics.value_winsorized_by_type,
        "documents_csv_roundtrip": curation.documents_csv_roundtrip,
        "documents_evolved_union": curation.documents_evolved_union,
        "customer_running_revenue": analytics.customer_running_revenue,
        "events_value_bins": analytics.events_value_bins,
        "lineitem_grouping_sets": analytics.lineitem_grouping_sets,
        "orders_minmax_scaled": analytics.orders_minmax_scaled,
        "source_lang_entropy": analytics.source_lang_entropy,
        "q6_revenue_delta": analytics.q6_revenue_delta,
        "q13_custdist": analytics.q13_custdist,
        "q14_promo_ratio": analytics.q14_promo_ratio,
        "q15_top_supplier": analytics.q15_top_supplier,
        "q17_small_qty_revenue": analytics.q17_small_qty_revenue,
        "q19_disjunctive_revenue": analytics.q19_disjunctive_revenue,
        "q4_order_priority": analytics.q4_order_priority,
        "q10_returned_revenue": analytics.q10_returned_revenue,
        "q12_priority_by_status": analytics.q12_priority_by_status,
        "q22_idle_customers": analytics.q22_idle_customers,
        "value_equidepth_by_type": analytics.value_equidepth_by_type,
        "part_name_fuzzy_pairs": analytics.part_name_fuzzy_pairs,
        "q7_nation_volume": _q7_nation_volume,
        "q8_market_share": analytics.q8_market_share,
        "purchase_prior_views": _purchase_prior_views,
        "event_transitions": analytics.event_transitions,
        "q5_local_volume": analytics.q5_local_volume,
        "q18_big_orders": analytics.q18_big_orders,
        "daily_active_spans": analytics.daily_active_spans,
        "user_top_event": analytics.user_top_event,
        "user_event_concat": analytics.user_event_concat,
        "events_impute_value": analytics.events_impute_value,
        "documents_split_safe": analytics.documents_split_safe,
        "user_paths": analytics.user_paths,
        "basket_pairs": analytics.basket_pairs,
        "events_anomaly": analytics.events_anomaly,
        "doc_char_stats": analytics.doc_char_stats,
        "label_consistency": _label_consistency,
        "corpus_report": analytics.corpus_report,
        "user_rfm": analytics.user_rfm,
        "documents_split": analytics.documents_split,
        "doc_len_histogram": analytics.doc_len_histogram,
        "documents_sample_weighted": analytics.documents_sample_weighted,
        "events_props_stats": analytics.events_props_stats,
        "value_median_cont_by_type": _value_median_cont_by_type,
        "user_gap_stats": _user_gap_stats,
        "doc_cume_dist_by_lang": _doc_cume_dist_by_lang,
        "user_event_melt": _user_event_melt,
        "lineitem_distinct_parts_supps": _lineitem_distinct_parts_supps,
        "events_prev_value": _events_prev_value,
        "events_latest": _events_latest,
        "profile_orders": _profile_orders,
        "user_event_stats": analytics.user_event_stats,
        "quality_filter_by_lang": analytics.quality_filter_by_lang,
        "events_hopping": _events_hopping,
        "doc_ntile_by_lang": _doc_ntile_by_lang,
        "orders_monthly_growth": _orders_monthly_growth,
        "events_next_purchase": _events_next_purchase,
        "events_funnel": _events_funnel,
        "events_rollup": _events_rollup,
        "events_debounce": _events_debounce,
        "user_day_views_vs_purchases": _user_day_views_vs_purchases,
        "documents_k_per_lang": analytics.documents_k_per_lang,
        "users_by_type_exact": _users_by_type_exact,
        "documents_sample_weighted_fast": analytics.documents_sample_weighted_fast,
        "user_day_activity": analytics.user_day_activity,
        "doc_rank_by_lang": _doc_rank_by_lang,
        "value_quantiles_by_type": _value_quantiles_by_type,
        "part_name_jw": analytics.part_name_jw,
        "part_name_clusters": analytics.part_name_clusters,
        "brand_type_chi2": _brand_type_chi2,
        "events_ewma": analytics.events_ewma,
        "events_holt": analytics.events_holt,
        "events_rolling_minmax": analytics.events_rolling_minmax,
        "purchase_attribution": analytics.purchase_attribution,
        "purchase_view_ks": _purchase_view_ks,
        "purchase_view_mw": _purchase_view_mw,
        "user_survival_km": _user_survival_km,
        "ab_conversion_z": _ab_conversion_z,
        "orders_benford": _orders_benford,
        "lineitem_spearman": _lineitem_spearman,
        "view_purchase_lead_lag": _view_purchase_lead_lag,
        "events_cusum_day": _events_cusum_day,
        "events_theilsen": _events_theilsen,
        "events_dow_chi2": _events_dow_chi2,
        "orders_fingerprint": _orders_fingerprint,
        "doc_length_gini": _doc_length_gini,
        "basket_rules": analytics.basket_rules,
        "purchase_view_qq": _purchase_view_qq,
        "vocab_growth": analytics.vocab_growth,
        "events_conformal": _events_conformal,
        "gopher_length_kappa": curation.gopher_length_kappa,
        "q9_profit_by_nation": analytics.q9_profit_by_nation,
        "q21_waiting_suppliers": analytics.q21_waiting_suppliers,
        "documents_jsonl_roundtrip": curation.documents_jsonl_roundtrip,
        "bpe_train_merges": curation.bpe_train_merges,
        "bpe_encode_stats": curation.bpe_encode_stats,
        "user_retention": _user_retention,
        "events_funnel3": _events_funnel3,
        "corpus_to_shards": _corpus_to_shards,
        "documents_shuffle_shards": analytics.documents_shuffle_shards,
        "events_cube": _events_cube,
        "user_event_pivot": _user_event_pivot,
        "view_days_no_purchase": _view_days_no_purchase,
        "view_purchase_days": _view_purchase_days,
        "part_supplier_pagerank": _part_supplier_pagerank,
        "part_skyline": analytics.part_skyline,
        "supplier_part_hops": analytics.supplier_part_hops,
        "orders_merge_cdc": analytics.orders_merge_cdc,
        "hybrid_search_rrf": _hybrid_search_rrf,
        "orders_snapshot_diff": analytics.orders_snapshot_diff,
        "orders_zonemap_revenue": analytics.orders_zonemap_revenue,
        "q2_min_cost_supplier": analytics.q2_min_cost_supplier,
        "q11_important_parts": analytics.q11_important_parts,
        "q16_part_supplier_counts": analytics.q16_part_supplier_counts,
        "q20_dominant_suppliers": analytics.q20_dominant_suppliers,
        "orders_scd2": analytics.orders_scd2,
        "orders_scd2_asof": analytics.orders_scd2_asof,
        "priority_price_quantiles": analytics.priority_price_quantiles,
        "documents_sample": analytics.documents_sample,
        "sessionize": _sessionize,
        "events_topk": _events_topk,
        "events_rolling7": _events_rolling7,
        "events_asof_orders": _events_asof_orders,
        "events_value_bands": _events_value_bands,
        "orders_by_segment_bucket": _orders_by_segment_bucket,
        "distinct_users_exact": _distinct_users_exact,
        "distinct_users_hll": _distinct_users_hll,
        "multimodal_decode": _multimodal_decode,
        "frame_sample": _frame_sample,
        "extract_summary": _extract_summary,
        "extract_summary_salted": _extract_summary_salted,
        "extract_spans_flat": _extract_spans_flat,
        "media_catalog": _media_catalog,
        "html_main_text": _html_main_text,
        "doc_token_stats": analytics.doc_token_stats,
        "doc_fingerprint": analytics.doc_fingerprints,
        "doc_lang_quality": analytics.doc_lang_quality,
        "chunk_documents": analytics.chunk_documents,
        "documents_sample_by_lang": analytics.documents_sample_by_lang,
        "documents_sample_fast": analytics.documents_sample_fast,
        "documents_sample_by_lang_fast": analytics.documents_sample_by_lang_fast,
        "pack_documents": analytics.pack_documents,
        "token_vocab": analytics.token_vocab,
        "bigram_counts": analytics.bigram_counts,
        "lang_source_stats": analytics.lang_source_stats,
        "pii_scrub": curation.pii_scrub,
        "doc_repetition": curation.doc_repetition,
        "decontaminate": curation.decontaminate,
        "mixture_sample": curation.mixture_sample,
        "token_rank_stats": curation.token_rank_stats,
        "search_tfidf": curation.search_tfidf,
        "source_overlap": curation.source_overlap_matrix,
        "doc_token_weight_join": curation.doc_token_weight_join,
        "dedup_clusters": curation.dedup_clusters,
        "corpus_filter": curation.corpus_filter,
        "dedup_exact": _dedup_exact,
        "dedup_normalized": _dedup_normalized,
        "dedup_minhash": _dedup_minhash,
        "dedup_simhash": _dedup_simhash,
        "dedup_ngram": _dedup_ngram,
        "dedup_incremental": _dedup_incremental,
        "dedup_minhash_incremental": _dedup_minhash_incremental,
        "dedup_embedding": _dedup_embedding,
        "embedding_dup_pairs": _embedding_dup_pairs,
        "extract_then_dedup": _extract_then_dedup,
        "ann_topk": _ann_topk,
        "ann_ivf": _ann_ivf,
        "ann_pq": _ann_pq,
        "q1_pricing": analytics.q1_pricing,
        "top_orders": analytics.top_orders,
        "events_daily": analytics.events_daily,
        "cust_nation_counts": analytics.cust_nation_counts,
        "orders_by_segment": analytics.orders_by_segment,
        "q3_shipping": analytics.q3_shipping,
        "part_type_stats": analytics.part_type_stats,
        "customers_without_orders": analytics.customers_without_orders,
        "suppliers_with_lineitems": analytics.suppliers_with_lineitems,
        "lineitems_urgent_bloom": analytics.lineitems_urgent_bloom,
    }


# ---------------------------------------------------------------------------
# DuckDB oracles (keys must match queries(); omitted keys → rows-only check)
# ---------------------------------------------------------------------------

_SW = stopword_sql_list()
# BPE pattern with SQL-escaped quotes
_BPE_SQL = BPE_PATTERN.replace("'", "''")

DOC_TOKEN_STATS_SQL = f"""
WITH t AS (
  SELECT doc_id,
         length(text) AS n_chars,
         len(regexp_extract_all(text, '\\S+')) AS n_tokens,
         len(regexp_extract_all(text, '{_BPE_SQL}')) AS n_tokens_bpe,
         len(regexp_extract_all(text, '[.,;:!?]')) AS n_punct,
         len(list_filter(string_split_regex(lower(text), '\\s+'),
                         w -> list_contains({_SW}, w))) AS n_stopwords
  FROM documents
)
SELECT doc_id, n_chars, n_tokens, n_tokens_bpe, n_punct, n_stopwords,
  CASE WHEN n_tokens BETWEEN 5 AND 100000 THEN 1 ELSE 0 END AS flag_len,
  CASE WHEN n_tokens > 0
         AND (n_chars - GREATEST(n_tokens - 1, 0))::DOUBLE / GREATEST(n_tokens, 1)
             BETWEEN 2.0 AND 12.0
       THEN 1 ELSE 0 END AS flag_word_len,
  CASE WHEN n_chars > 0 AND n_punct::DOUBLE / n_chars <= 0.2
       THEN 1 ELSE 0 END AS flag_punct,
  CASE WHEN n_stopwords >= 1 THEN 1 ELSE 0 END AS flag_stop,
  (CASE WHEN n_tokens BETWEEN 5 AND 100000 THEN 1 ELSE 0 END
   + CASE WHEN n_tokens > 0
            AND (n_chars - GREATEST(n_tokens - 1, 0))::DOUBLE / GREATEST(n_tokens, 1)
                BETWEEN 2.0 AND 12.0
          THEN 1 ELSE 0 END
   + CASE WHEN n_chars > 0 AND n_punct::DOUBLE / n_chars <= 0.2
          THEN 1 ELSE 0 END
   + CASE WHEN n_stopwords >= 1 THEN 1 ELSE 0 END) AS quality_passes
FROM t ORDER BY doc_id
"""

# ---------------------------------------------------------------------------
# fixture oracles (regression pins)
#
# The LSH dedup family, IVF search, and language-ID are deterministic
# functions of (corpus, seed) but have no ANSI-SQL equivalent.  Their
# expected outputs are generated by fixtures/generate_expected.py, committed
# as parquet keyed by a corpus tag computable in SQL (sum(n_chars) of the
# documents table uniquely identifies the SF dir), and read back by the
# oracle.  These pin exact outputs so regressions surface in the driver's
# hash gate; SEMANTIC correctness of the operators is established in the
# pytest suites (hand-built dup corpora, brute-force Jaccard/cosine oracles,
# parallelism invariance, recall bounds).
# ---------------------------------------------------------------------------

_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
# The corpus tag (total document chars) picks a fixture oracle's rows.  A
# tag with no committed rows (an unsupported scale) raises instead of
# reading as an empty expected result.
_CORPUS_TAG_SQL = f"""(
  SELECT CASE WHEN t.tag IN (
           SELECT corpus_tag
           FROM read_parquet('{_FIXTURES}/expected_dedup_kept.parquet'))
         THEN t.tag
         ELSE error('no fixture rows for corpus tag ' || t.tag) END
  FROM (SELECT CAST(sum(n_chars) AS BIGINT) AS tag FROM documents) t)"""


def _kept_fixture_sql(name: str, out_col: str) -> str:
    return f"""
SELECT k.id AS {out_col}
FROM read_parquet('{_FIXTURES}/expected_dedup_kept.parquet') k
WHERE k.query = '{name}' AND k.corpus_tag = {_CORPUS_TAG_SQL}
ORDER BY {out_col}
"""


def _sample_fixture_sql(name: str, cols: str) -> str:
    """Fixture oracle for the vectorized (non-SQL-expressible) sampling
    hash: the kept doc_ids are pinned in the shared kept-ids fixture and
    joined back to ``documents`` for the output columns."""
    return f"""
SELECT {cols}
FROM documents d
JOIN read_parquet('{_FIXTURES}/expected_dedup_kept.parquet') k
  ON k.id = d.doc_id AND k.query = '{name}'
 AND k.corpus_tag = {_CORPUS_TAG_SQL}
ORDER BY d.doc_id
"""


def _static_fixture_sql(name: str) -> str:
    """sf-independent deterministic queries (synthetic corpus / seeded fake
    codecs): the oracle reads the committed expected table verbatim.  For
    extract_summary / extract_spans_flat this puts the FLAGSHIP extraction
    output — the north rule's span-sequence-equality surface — under the
    driver's hash gate."""
    return f"SELECT * FROM read_parquet('{_FIXTURES}/expected_q/{name}.parquet')"


DISTINCT_HLL_FIXTURE_SQL = f"""
SELECT CAST(approx_distinct AS BIGINT) AS approx_distinct
FROM read_parquet('{_FIXTURES}/expected_distinct_hll.parquet')
WHERE corpus_tag = {_CORPUS_TAG_SQL}
"""

EMBEDDING_CLUSTERS_FIXTURE_SQL = f"""
SELECT CAST(cell AS INTEGER) AS cell, CAST(n_vecs AS BIGINT) AS n_vecs,
       CAST(min_vec_id AS BIGINT) AS min_vec_id,
       CAST(sum_vec_id AS BIGINT) AS sum_vec_id
FROM read_parquet('{_FIXTURES}/expected_embedding_clusters.parquet')
WHERE corpus_tag = {_CORPUS_TAG_SQL}
ORDER BY cell
"""

GROUP_HLL_FIXTURE_SQL = f"""
SELECT event_type, CAST(approx_distinct AS BIGINT) AS approx_distinct
FROM read_parquet('{_FIXTURES}/expected_group_hll.parquet')
WHERE corpus_tag = {_CORPUS_TAG_SQL}
ORDER BY event_type
"""

QUANTILE_SKETCH_FIXTURE_SQL = f"""
SELECT q, est
FROM read_parquet('{_FIXTURES}/expected_quantile_sketch.parquet')
WHERE corpus_tag = {_CORPUS_TAG_SQL}
ORDER BY q
"""

GROUP_QUANTILE_SKETCH_FIXTURE_SQL = f"""
SELECT event_type, q, est
FROM read_parquet('{_FIXTURES}/expected_group_quantile_sketch.parquet')
WHERE corpus_tag = {_CORPUS_TAG_SQL}
ORDER BY event_type, q
"""

TOKEN_CMS_FIXTURE_SQL = f"""
SELECT token, CAST(n_exact AS BIGINT) AS n_exact, CAST(est_n AS BIGINT) AS est_n
FROM read_parquet('{_FIXTURES}/expected_token_cms.parquet')
WHERE corpus_tag = {_CORPUS_TAG_SQL}
ORDER BY token
"""


ANN_IVF_FIXTURE_SQL = f"""
SELECT query_id, neighbor_id, "rank", cosine
FROM read_parquet('{_FIXTURES}/expected_ann_ivf.parquet')
WHERE corpus_tag = {_CORPUS_TAG_SQL}
ORDER BY query_id, "rank"
"""

BPE_MERGES_FIXTURE_SQL = f"""
SELECT "rank", "left", "right", merged, pair_count
FROM read_parquet('{_FIXTURES}/expected_bpe_merges.parquet')
WHERE corpus_tag = {_CORPUS_TAG_SQL}
ORDER BY "rank"
"""

BPE_ENCODE_FIXTURE_SQL = f"""
SELECT doc_id, n_words, n_char_tokens, n_bpe_tokens
FROM read_parquet('{_FIXTURES}/expected_bpe_encode.parquet')
WHERE corpus_tag = {_CORPUS_TAG_SQL}
ORDER BY doc_id
"""

ANN_PQ_FIXTURE_SQL = f"""
SELECT query_id, neighbor_id, "rank", cosine
FROM read_parquet('{_FIXTURES}/expected_ann_pq.parquet')
WHERE corpus_tag = {_CORPUS_TAG_SQL}
ORDER BY query_id, "rank"
"""

DOC_LANG_QUALITY_SQL = f"""
WITH t AS (
  SELECT doc_id, lang,
         length(text) AS n_chars,
         len(regexp_extract_all(text, '\\S+')) AS n_tokens,
         len(regexp_extract_all(text, '[.,;:!?]')) AS n_punct,
         len(list_filter(string_split_regex(lower(text), '\\s+'),
                         w -> list_contains({_SW}, w))) AS n_stopwords
  FROM documents
)
SELECT t.doc_id, k.lang_pred,
  (CASE WHEN n_tokens BETWEEN 5 AND 100000 THEN 1 ELSE 0 END
   + CASE WHEN n_tokens > 0
            AND (n_chars - GREATEST(n_tokens - 1, 0))::DOUBLE / GREATEST(n_tokens, 1)
                BETWEEN 2.0 AND 12.0
          THEN 1 ELSE 0 END
   + CASE WHEN n_chars > 0 AND n_punct::DOUBLE / n_chars <= 0.2
          THEN 1 ELSE 0 END
   + CASE WHEN n_stopwords >= 1 THEN 1 ELSE 0 END) AS quality_passes,
  t.lang AS lang_declared
FROM t
JOIN read_parquet('{_FIXTURES}/expected_doc_lang.parquet') k
  ON t.doc_id = k.doc_id AND k.corpus_tag = {_CORPUS_TAG_SQL}
ORDER BY t.doc_id
"""


ANN_TOPK_SQL = """
WITH q AS (
  SELECT vec_id AS qid, embedding::DOUBLE[] AS qe
  FROM embeddings WHERE vec_id < 8
), s AS (
  SELECT q.qid, e.vec_id AS nid,
         list_cosine_similarity(q.qe, e.embedding::DOUBLE[]) AS c
  FROM q, embeddings e WHERE e.vec_id <> q.qid
)
SELECT qid AS query_id, nid AS neighbor_id,
       CAST(row_number() OVER (PARTITION BY qid ORDER BY c DESC, nid) AS INTEGER) AS rank,
       ROUND(c, 6) AS cosine
FROM s QUALIFY rank <= 10 ORDER BY query_id, rank
"""

EMBEDDING_PAIRS_SQL = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       ROUND(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS cosine
FROM embeddings a JOIN embeddings b ON b.vec_id > a.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.3
ORDER BY 1, 2
"""


PART_SUPPLIER_PAGERANK_SQL = """
WITH pairs AS (
  SELECT DISTINCT l_partkey*2 AS src, l_suppkey*2+1 AS dst FROM lineitem
),
edges AS (SELECT src, dst FROM pairs UNION ALL SELECT dst, src FROM pairs),
outdeg AS (SELECT src, CAST(count(*) AS BIGINT) AS deg FROM edges GROUP BY 1),
r0 AS (SELECT src AS node, CAST(1000000 AS BIGINT) AS r FROM outdeg),
r1 AS (
  SELECT e.dst AS node,
         150000 + (85 * CAST(sum(r.r // d.deg) AS BIGINT)) // 100 AS r
  FROM edges e JOIN r0 r ON r.node = e.src JOIN outdeg d ON d.src = e.src
  GROUP BY 1
),
r2 AS (
  SELECT e.dst AS node,
         150000 + (85 * CAST(sum(r.r // d.deg) AS BIGINT)) // 100 AS r
  FROM edges e JOIN r1 r ON r.node = e.src JOIN outdeg d ON d.src = e.src
  GROUP BY 1
),
r3 AS (
  SELECT e.dst AS node,
         150000 + (85 * CAST(sum(r.r // d.deg) AS BIGINT)) // 100 AS r
  FROM edges e JOIN r2 r ON r.node = e.src JOIN outdeg d ON d.src = e.src
  GROUP BY 1
)
SELECT node, CAST(r AS BIGINT) AS rank_scaled FROM r3 ORDER BY node
"""

PROFILE_ORDERS_SQL = """
SELECT 'o_orderkey' AS col, CAST(count(*) AS BIGINT) AS n,
       CAST(count(*) - count(o_orderkey) AS BIGINT) AS n_nulls,
       CAST(count(DISTINCT o_orderkey) AS BIGINT) AS n_distinct,
       CAST(min(o_orderkey) AS VARCHAR) AS min_val,
       CAST(max(o_orderkey) AS VARCHAR) AS max_val
FROM orders
UNION ALL
SELECT 'o_custkey' AS col, CAST(count(*) AS BIGINT) AS n,
       CAST(count(*) - count(o_custkey) AS BIGINT) AS n_nulls,
       CAST(count(DISTINCT o_custkey) AS BIGINT) AS n_distinct,
       CAST(min(o_custkey) AS VARCHAR) AS min_val,
       CAST(max(o_custkey) AS VARCHAR) AS max_val
FROM orders
UNION ALL
SELECT 'o_orderstatus' AS col, CAST(count(*) AS BIGINT) AS n,
       CAST(count(*) - count(o_orderstatus) AS BIGINT) AS n_nulls,
       CAST(count(DISTINCT o_orderstatus) AS BIGINT) AS n_distinct,
       CAST(min(o_orderstatus) AS VARCHAR) AS min_val,
       CAST(max(o_orderstatus) AS VARCHAR) AS max_val
FROM orders
UNION ALL
SELECT 'o_orderpriority' AS col, CAST(count(*) AS BIGINT) AS n,
       CAST(count(*) - count(o_orderpriority) AS BIGINT) AS n_nulls,
       CAST(count(DISTINCT o_orderpriority) AS BIGINT) AS n_distinct,
       CAST(min(o_orderpriority) AS VARCHAR) AS min_val,
       CAST(max(o_orderpriority) AS VARCHAR) AS max_val
FROM orders
ORDER BY col
"""

DOC_RANK_BY_LANG_SQL = """
SELECT doc_id, lang, n_chars,
       CAST(rank() OVER w AS BIGINT) AS rnk,
       percent_rank() OVER w AS pct
FROM documents
WINDOW w AS (PARTITION BY lang ORDER BY n_chars DESC)
ORDER BY lang, rnk, doc_id
"""

EVENTS_LATEST_SQL = """
SELECT user_id, event_type, ts, event_id, value
FROM (
  SELECT user_id, event_type, ts, event_id, value,
         row_number() OVER (PARTITION BY user_id, event_type
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
)
WHERE rn = 1 ORDER BY user_id, event_type
"""

EVENTS_DEBOUNCE_SQL = """
SELECT event_id, user_id, event_type, ts
FROM (
  SELECT event_id, user_id, event_type, ts,
         lag(ts) OVER (PARTITION BY user_id, event_type
                       ORDER BY ts, event_id) AS prev_ts
  FROM events
)
WHERE prev_ts IS NULL OR ts - prev_ts > INTERVAL 30 MINUTE
ORDER BY event_id
"""

_EVENT_DAYS_SQL = (
    "SELECT DISTINCT user_id, strftime(ts, '%Y-%m-%d') AS day "
    "FROM events WHERE event_type = '{et}'"
)

VIEW_DAYS_NO_PURCHASE_SQL = f"""
{_EVENT_DAYS_SQL.format(et='view')}
EXCEPT
{_EVENT_DAYS_SQL.format(et='purchase')}
ORDER BY user_id, day
"""

VIEW_PURCHASE_DAYS_SQL = f"""
{_EVENT_DAYS_SQL.format(et='view')}
INTERSECT
{_EVENT_DAYS_SQL.format(et='purchase')}
ORDER BY user_id, day
"""

USER_DAY_VIEWS_VS_PURCHASES_SQL = """
WITH v AS (
  SELECT CAST(user_id AS VARCHAR) || ':' || strftime(ts, '%Y-%m-%d') AS k,
         CAST(count(*) AS BIGINT) AS n_views
  FROM events WHERE event_type = 'view' GROUP BY 1
), p AS (
  SELECT CAST(user_id AS VARCHAR) || ':' || strftime(ts, '%Y-%m-%d') AS k,
         CAST(count(*) AS BIGINT) AS n_purchases
  FROM events WHERE event_type = 'purchase' GROUP BY 1
)
SELECT COALESCE(v.k, p.k) AS k, v.n_views, p.n_purchases
FROM v FULL OUTER JOIN p ON v.k = p.k
ORDER BY k
"""

EVENTS_ROLLUP_SQL = """
SELECT event_type, day,
       CAST(sum(value_cents) AS BIGINT) AS value_cents,
       CAST(count(*) AS BIGINT) AS n
FROM (
  SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
         CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS value_cents
  FROM events
)
GROUP BY ROLLUP (event_type, day)
ORDER BY event_type NULLS LAST, day NULLS LAST
"""

EVENTS_FUNNEL_SQL = """
WITH v AS (SELECT user_id, ts FROM events WHERE event_type = 'view'),
p AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase'),
c AS (
  SELECT v.user_id,
         CASE WHEN EXISTS (
           SELECT 1 FROM p
           WHERE p.user_id = v.user_id
             AND p.ts > v.ts
             AND p.ts <= v.ts + INTERVAL 1 HOUR
         ) THEN 1 ELSE 0 END AS conv
  FROM v
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_a,
       CAST(sum(conv) AS BIGINT) AS n_conv
FROM c GROUP BY 1 ORDER BY 1
"""

SESSIONIZE_SQL = """
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch(ts - lag(ts) OVER w) > 1800 THEN 1 ELSE 0 END AS brk
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), s AS (
  SELECT user_id, ts,
         sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                        ROWS UNBOUNDED PRECEDING) AS session_no
  FROM o
)
SELECT user_id, CAST(session_no AS BIGINT) AS session_no, count(*) AS n_events,
       strftime(min(ts), '%Y-%m-%d %H:%M:%S') AS session_start,
       strftime(max(ts), '%Y-%m-%d %H:%M:%S') AS session_end
FROM s GROUP BY 1, 2 ORDER BY 1, 2
"""

EVENTS_TOPK_SQL = """
SELECT event_type, value, event_id,
       CAST(row_number() OVER (PARTITION BY event_type
                               ORDER BY value DESC, event_id) AS INTEGER) AS rank
FROM events QUALIFY rank <= 3 ORDER BY event_type, rank
"""


EVENTS_ASOF_SQL = """
WITH r AS (
  SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
  FROM orders GROUP BY 1, 2
)
SELECT e.event_id, e.user_id, r.o_orderkey
FROM events e ASOF JOIN r
  ON e.user_id = r.o_custkey AND e.ts >= r.o_orderdate
ORDER BY e.event_id
"""


def oracle_sql() -> dict[str, str]:
    return {
        "sessionize": SESSIONIZE_SQL,
        "events_funnel": EVENTS_FUNNEL_SQL,
        "events_rollup": EVENTS_ROLLUP_SQL,
        "events_debounce": EVENTS_DEBOUNCE_SQL,
        "view_days_no_purchase": VIEW_DAYS_NO_PURCHASE_SQL,
        "view_purchase_days": VIEW_PURCHASE_DAYS_SQL,
        "user_day_views_vs_purchases": USER_DAY_VIEWS_VS_PURCHASES_SQL,
        "value_median_cont_by_type": VALUE_MEDIAN_CONT_BY_TYPE_SQL,
        "doc_ntile_by_lang": DOC_NTILE_BY_LANG_SQL,
        "user_gap_stats": USER_GAP_STATS_SQL,
        "events_cube": EVENTS_CUBE_SQL,
        "events_next_purchase": EVENTS_NEXT_PURCHASE_SQL,
        "user_event_pivot": USER_EVENT_PIVOT_SQL,
        "doc_cume_dist_by_lang": DOC_CUME_DIST_BY_LANG_SQL,
        "corpus_to_shards": _corpus_to_shards_sql(),
        "user_event_melt": USER_EVENT_MELT_SQL,
        "user_retention": USER_RETENTION_SQL,
        "events_funnel3": EVENTS_FUNNEL3_SQL,
        "purchase_prior_views": PURCHASE_PRIOR_VIEWS_SQL,
        "documents_split_safe": analytics.DOCUMENTS_SPLIT_SAFE_SQL,
        "orders_monthly_growth": ORDERS_MONTHLY_GROWTH_SQL,
        "lineitem_distinct_parts_supps": LINEITEM_DISTINCT_PARTS_SUPPS_SQL,
        "events_prev_value": EVENTS_PREV_VALUE_SQL,
        "events_latest": EVENTS_LATEST_SQL,
        "doc_rank_by_lang": DOC_RANK_BY_LANG_SQL,
        "value_quantiles_by_type": GROUP_QUANTILE_SKETCH_FIXTURE_SQL,
        "profile_orders": PROFILE_ORDERS_SQL,
        "part_supplier_pagerank": PART_SUPPLIER_PAGERANK_SQL,
        "events_topk": EVENTS_TOPK_SQL,
        "events_rolling7": """
WITH d AS (
  SELECT event_type, strftime(ts, '%Y-%m-%d') AS day, count(*) AS n,
         sum(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) AS cents
  FROM events GROUP BY 1, 2
)
SELECT event_type, day,
       CAST(sum(n) OVER w AS BIGINT) AS w_events,
       CAST(sum(cents) OVER w AS BIGINT) AS w_value_cents
FROM d
WINDOW w AS (PARTITION BY event_type ORDER BY CAST(day AS DATE)
             RANGE BETWEEN INTERVAL 6 DAY PRECEDING AND CURRENT ROW)
ORDER BY 1, 2
""",
        "events_asof_orders": EVENTS_ASOF_SQL,
        "distinct_users_exact": (
            "SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct "
            "FROM events"
        ),
        "extract_summary": _static_fixture_sql("extract_summary"),
        "extract_interleave_stats": _static_fixture_sql("extract_interleave_stats"),
        # the salted skew path must be BYTE-IDENTICAL to the zero-shuffle
        # plan — it shares extract_summary's fixture verbatim
        "extract_summary_salted": _static_fixture_sql("extract_summary"),
        "extract_spans_flat": _static_fixture_sql("extract_spans_flat"),
        "media_catalog": f"""
SELECT media_ref, CAST(count(*) AS BIGINT) AS n_refs,
       CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
       min(doc_id) AS first_doc
FROM read_parquet('{_FIXTURES}/expected_q/extract_spans_flat.parquet')
WHERE media_ref <> ''
GROUP BY 1 ORDER BY 1
""",
        "extract_then_dedup": _static_fixture_sql("extract_then_dedup"),
        "multimodal_decode": _static_fixture_sql("multimodal_decode"),
        "frame_sample": _static_fixture_sql("frame_sample"),
        "distinct_users_hll": DISTINCT_HLL_FIXTURE_SQL,
        "events_hopping": EVENTS_HOPPING_SQL,
        "users_by_type_exact": (
            "SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) "
            "AS n_distinct FROM events GROUP BY 1 ORDER BY 1"
        ),
        "users_by_type_hll": GROUP_HLL_FIXTURE_SQL,
        "embedding_clusters": EMBEDDING_CLUSTERS_FIXTURE_SQL,
        "token_topk_mg": TOKEN_TOPK_MG_SQL,
        "price_quantiles_sketch": QUANTILE_SKETCH_FIXTURE_SQL,
        "token_freq_cms": TOKEN_CMS_FIXTURE_SQL,
        "dedup_normalized": DEDUP_NORMALIZED_SQL,
        "dedup_minhash": _kept_fixture_sql("dedup_minhash", "doc_id"),
        "dedup_simhash": _kept_fixture_sql("dedup_simhash", "doc_id"),
        "dedup_semantic": _kept_fixture_sql("dedup_semantic", "vec_id"),
        "dedup_ngram": _kept_fixture_sql("dedup_ngram", "doc_id"),
        "user_rfm": analytics.USER_RFM_SQL,
        "basket_pairs": analytics.BASKET_PAIRS_SQL,
        "events_anomaly": analytics.EVENTS_ANOMALY_SQL,
        "doc_char_stats": analytics.DOC_CHAR_STATS_SQL,
        "pmi_bigrams": analytics.PMI_BIGRAMS_SQL,
        "search_bm25": curation.search_bm25_sql(),
        "dedup_keep_best": DEDUP_KEEP_BEST_SQL,
        "documents_split": analytics.DOCUMENTS_SPLIT_SQL,
        "source_top_terms": analytics.SOURCE_TOP_TERMS_SQL,
        "event_transitions": analytics.EVENT_TRANSITIONS_SQL,
        "image_phash": _static_fixture_sql("image_phash"),
        "image_phash_dedup": _static_fixture_sql("image_phash_dedup"),
        "dedup_incremental": DEDUP_INCREMENTAL_SQL,
        "dedup_minhash_incremental": _kept_fixture_sql(
            "dedup_minhash_incremental", "doc_id"
        ),
        "dedup_embedding": _kept_fixture_sql("dedup_embedding", "vec_id"),
        "ann_ivf": ANN_IVF_FIXTURE_SQL,
        "ann_pq": ANN_PQ_FIXTURE_SQL,
        "doc_lang_quality": DOC_LANG_QUALITY_SQL,
        "chunk_documents": analytics.CHUNK_DOCUMENTS_SQL,
        "documents_sample_by_lang": analytics.DOCUMENTS_SAMPLE_BY_LANG_SQL,
        "pack_documents": analytics.PACK_DOCUMENTS_SQL,
        "token_vocab": analytics.TOKEN_VOCAB_SQL,
        "bigram_counts": analytics.BIGRAM_COUNTS_SQL,
        "events_value_bands": (
            "WITH bands AS (SELECT p_brand, min(p_retailprice) AS lo, "
            "max(p_retailprice) AS hi FROM part GROUP BY 1) "
            "SELECT e.event_id, b.p_brand FROM events e JOIN bands b "
            "ON e.value*20 BETWEEN b.lo AND b.hi ORDER BY 1, 2"
        ),
        "html_main_text": (
            "SELECT doc_id, trim(regexp_replace(text, '\\s+', ' ', 'g')) AS main_text "
            "FROM documents ORDER BY doc_id"
        ),
        "doc_token_stats": DOC_TOKEN_STATS_SQL,
        "pii_scrub": curation.PII_SCRUB_SQL,
        "doc_repetition": curation.DOC_REPETITION_SQL,
        "value_equidepth_by_type": analytics.VALUE_EQUIDEPTH_SQL,
        "line_dedup_scrub": curation.LINE_DEDUP_SCRUB_SQL,
        "source_divergence": curation.SOURCE_DIVERGENCE_SQL,
        "dsir_scores": curation.dsir_scores_sql(),
        "part_kcore": analytics.part_kcore_sql(),
        "part_skyline": analytics.PART_SKYLINE_SQL,
        "supplier_part_hops": analytics.SUPPLIER_PART_HOPS_SQL,
        "source_lang_entropy": analytics.SOURCE_LANG_ENTROPY_SQL,
        "orders_merge_cdc": analytics.ORDERS_MERGE_CDC_SQL,
        "hybrid_search_rrf": curation.hybrid_search_rrf_sql(),
        "orders_snapshot_diff": analytics.ORDERS_SNAPSHOT_DIFF_SQL,
        "orders_zonemap_revenue": analytics.ORDERS_ZONEMAP_REVENUE_SQL,
        "q2_min_cost_supplier": analytics.Q2_MIN_COST_SUPPLIER_SQL,
        "q11_important_parts": analytics.Q11_IMPORTANT_PARTS_SQL,
        "q16_part_supplier_counts": analytics.Q16_PART_SUPPLIER_COUNTS_SQL,
        "q20_dominant_suppliers": analytics.Q20_DOMINANT_SUPPLIERS_SQL,
        "orders_scd2": analytics.ORDERS_SCD2_SQL,
        "events_zscore_outliers": analytics.EVENTS_ZSCORE_SQL,
        "part_categorical_encode": analytics.PART_CATEGORICAL_ENCODE_SQL,
        "orders_target_encode": analytics.ORDERS_TARGET_ENCODE_SQL,
        "lineitem_quality_audit": analytics.LINEITEM_QUALITY_AUDIT_SQL,
        "customer_running_revenue": analytics.CUSTOMER_RUNNING_REVENUE_SQL,
        "events_value_bins": analytics.EVENTS_VALUE_BINS_SQL,
        "part_cosine_pairs": analytics.PART_COSINE_PAIRS_SQL,
        "documents_csv_roundtrip": curation.DOCUMENTS_CSV_ROUNDTRIP_SQL,
        "orders_ivm_refresh": analytics.ORDERS_IVM_REFRESH_SQL,
        "user_top_event": analytics.USER_TOP_EVENT_SQL,
        "orders_partitioned_prune": analytics.ORDERS_PARTITIONED_PRUNE_SQL,
        "customer_rolling3_revenue": analytics.CUSTOMER_ROLLING3_REVENUE_SQL,
        "documents_evolved_union": curation.DOCUMENTS_EVOLVED_UNION_SQL,
        "user_event_concat": analytics.USER_EVENT_CONCAT_SQL,
        "events_impute_value": analytics.EVENTS_IMPUTE_VALUE_SQL,
        "embedding_negatives": analytics.EMBEDDING_NEGATIVES_SQL,
        "orders_bloom_lookup": analytics.ORDERS_BLOOM_LOOKUP_SQL,
        "lineitem_zorder_scan": analytics.LINEITEM_ZORDER_SCAN_SQL,
        "lineitem_grouping_sets": analytics.LINEITEM_GROUPING_SETS_SQL,
        "orders_scd2_asof": analytics.ORDERS_SCD2_ASOF_SQL,
        "orders_minmax_scaled": analytics.ORDERS_MINMAX_SCALED_SQL,
        "ccnet_buckets": analytics.CCNET_BUCKETS_SQL,
        "bench_contamination_report": curation.BENCH_CONTAMINATION_SQL,
        "bpe_pair_counts": curation.bpe_pair_counts_sql(),
        "part_name_fuzzy_pairs": analytics.PART_NAME_FUZZY_PAIRS_SQL,
        "part_name_jw": analytics.PART_NAME_JW_SQL,
        "part_name_clusters": analytics.PART_NAME_CLUSTERS_SQL,
        "brand_type_chi2": BRAND_TYPE_CHI2_SQL,
        "events_ewma": analytics.EVENTS_EWMA_SQL,
        "events_holt": analytics.EVENTS_HOLT_SQL,
        "events_rolling_minmax": analytics.EVENTS_ROLLING_MINMAX_SQL,
        "purchase_attribution": analytics.PURCHASE_ATTRIBUTION_SQL,
        "purchase_view_ks": PURCHASE_VIEW_KS_SQL,
        "purchase_view_mw": PURCHASE_VIEW_MW_SQL,
        "user_survival_km": USER_SURVIVAL_KM_SQL,
        "ab_conversion_z": AB_CONVERSION_Z_SQL,
        "orders_benford": ORDERS_BENFORD_SQL,
        "lineitem_spearman": LINEITEM_SPEARMAN_SQL,
        "view_purchase_lead_lag": VIEW_PURCHASE_LEAD_LAG_SQL,
        "events_cusum_day": EVENTS_CUSUM_DAY_SQL,
        "events_theilsen": EVENTS_THEILSEN_SQL,
        "events_dow_chi2": EVENTS_DOW_CHI2_SQL,
        "orders_fingerprint": ORDERS_FINGERPRINT_SQL,
        "doc_length_gini": DOC_LENGTH_GINI_SQL,
        "basket_rules": analytics.BASKET_RULES_SQL,
        "purchase_view_qq": PURCHASE_VIEW_QQ_SQL,
        "vocab_growth": analytics.VOCAB_GROWTH_SQL,
        "events_conformal": EVENTS_CONFORMAL_SQL,
        "gopher_length_kappa": curation.GOPHER_LENGTH_KAPPA_SQL,
        "bpe_train_merges": BPE_MERGES_FIXTURE_SQL,
        "bpe_encode_stats": BPE_ENCODE_FIXTURE_SQL,
        "doc_keywords": curation.doc_keywords_sql(),
        "value_mad_by_type": analytics.VALUE_MAD_SQL,
        "documents_jsonl_roundtrip": curation.DOCUMENTS_JSONL_ROUNDTRIP_SQL,
        "q9_profit_by_nation": analytics.Q9_PROFIT_BY_NATION_SQL,
        "q21_waiting_suppliers": analytics.Q21_WAITING_SUPPLIERS_SQL,
        "q7_nation_volume": analytics.q7_nation_volume_sql("NATION_3", "NATION_8"),
        "q8_market_share": analytics.Q8_MARKET_SHARE_SQL,
        "gopher_quality": curation.GOPHER_QUALITY_SQL,
        "token_postings": curation.TOKEN_POSTINGS_SQL,
        "decontaminate": curation.DECONTAMINATE_SQL,
        "substring_dup_spans": curation.SUBSTRING_DUP_SPANS_SQL,
        "decontaminate_spans": curation.DECONTAMINATE_SPANS_SQL,
        "decontaminate_scrub": curation.DECONTAMINATE_SCRUB_SQL,
        "skipgram_pairs": curation.SKIPGRAM_PAIRS_SQL,
        "doc_dup_fraction": curation.DOC_DUP_FRACTION_SQL,
        "source_dup_stats": curation.SOURCE_DUP_STATS_SQL,
        "lineitem_corr_stats": analytics.LINEITEM_CORR_STATS_SQL,
        "lineitem_price_ols": analytics.LINEITEM_PRICE_OLS_SQL,
        "embedding_covariance": analytics.EMBEDDING_COVARIANCE_SQL,
        "embedding_class_stats": analytics.EMBEDDING_CLASS_STATS_SQL,
        "q5_local_volume": analytics.Q5_LOCAL_VOLUME_SQL,
        "q18_big_orders": analytics.Q18_BIG_ORDERS_SQL,
        "q6_revenue_delta": analytics.Q6_REVENUE_DELTA_SQL,
        "q13_custdist": analytics.Q13_CUSTDIST_SQL,
        "q14_promo_ratio": analytics.Q14_PROMO_RATIO_SQL,
        "q15_top_supplier": analytics.Q15_TOP_SUPPLIER_SQL,
        "q17_small_qty_revenue": analytics.Q17_SMALL_QTY_REVENUE_SQL,
        "q19_disjunctive_revenue": analytics.Q19_DISJUNCTIVE_REVENUE_SQL,
        "q4_order_priority": analytics.Q4_ORDER_PRIORITY_SQL,
        "q10_returned_revenue": analytics.Q10_RETURNED_REVENUE_SQL,
        "q12_priority_by_status": analytics.Q12_PRIORITY_BY_STATUS_SQL,
        "q22_idle_customers": analytics.Q22_IDLE_CUSTOMERS_SQL,
        "doc_rarity": curation.doc_rarity_sql(top_k=8),
        "label_consistency": LABEL_CONSISTENCY_SQL,
        "doc_lm_score": analytics.DOC_LM_SCORE_SQL,
        "daily_active_spans": analytics.DAILY_ACTIVE_SPANS_SQL,
        "part_cooccur_triangles": analytics.PART_COOCCUR_TRIANGLES_SQL,
        "doc_len_histogram": analytics.DOC_LEN_HISTOGRAM_SQL,
        "value_winsorized_by_type": analytics.VALUE_WINSORIZED_SQL,
        "type_daily_ffill": analytics.TYPE_DAILY_FFILL_SQL,
        "part_clustering_top": analytics.PART_CLUSTERING_TOP_SQL,
        "corpus_quality_filter": f"""
SELECT r.doc_id, r.stop_ppm, l.mean_cond_ppm,
       CAST(g.gopher_pass AS BIGINT) AS gopher_pass,
       CAST(CASE WHEN r.stop_ppm >= 200000 AND l.mean_cond_ppm >= 34000
                  AND g.gopher_pass = 1 THEN 1 ELSE 0 END AS BIGINT)
           AS quality_pass
FROM ({curation.doc_rarity_sql(top_k=8)}) r
JOIN ({analytics.DOC_LM_SCORE_SQL}) l USING (doc_id)
JOIN ({curation.GOPHER_QUALITY_SQL}) g USING (doc_id)
ORDER BY r.doc_id
""",
        "user_paths": analytics.USER_PATHS_SQL,
        "corpus_report": analytics.CORPUS_REPORT_SQL,
        "users_rolling7_distinct": USERS_ROLLING7_DISTINCT_SQL,
        "substring_dup_scrub": curation.SUBSTRING_DUP_SCRUB_SQL,
        "mixture_sample": curation.MIXTURE_SAMPLE_SQL,
        "token_rank_stats": curation.TOKEN_RANK_STATS_SQL,
        "search_tfidf": curation.search_tfidf_sql(),
        "source_overlap": curation.SOURCE_OVERLAP_SQL,
        "doc_token_weight_join": curation.DOC_TOKEN_WEIGHT_JOIN_SQL,
        "dedup_clusters": curation.DEDUP_CLUSTERS_SQL,
        "corpus_filter": curation.corpus_filter_sql(_SW),
        "doc_fingerprint": (
            "SELECT doc_id, md5(text) AS fingerprint_md5 FROM documents ORDER BY doc_id"
        ),
        "lang_source_stats": (
            "SELECT lang, source, count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS total_chars "
            "FROM documents GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "dedup_exact": (
            "SELECT md5(text) AS text_hash, min(doc_id) AS doc_id, "
            "count(*) AS dup_count FROM documents GROUP BY 1 ORDER BY 1"
        ),
        "embedding_dup_pairs": EMBEDDING_PAIRS_SQL,
        "ann_topk": ANN_TOPK_SQL,
        "q1_pricing": analytics.Q1_SQL,
        "top_orders": analytics.TOP_ORDERS_SQL,
        "events_daily": analytics.EVENTS_DAILY_SQL,
        "cust_nation_counts": analytics.CUST_NATION_SQL,
        "orders_by_segment": analytics.ORDERS_BY_SEGMENT_SQL,
        "orders_by_segment_bucket": analytics.ORDERS_BY_SEGMENT_SQL,
        "user_day_activity": analytics.USER_DAY_ACTIVITY_SQL,
        "user_event_stats": analytics.USER_EVENT_STATS_SQL,
        "quality_filter_by_lang": analytics.QUALITY_FILTER_BY_LANG_SQL,
        "q3_shipping": analytics.Q3_SQL,
        "part_type_stats": analytics.PART_TYPE_SQL,
        "customers_without_orders": analytics.CUSTOMERS_WITHOUT_ORDERS_SQL,
        "suppliers_with_lineitems": analytics.SUPPLIERS_WITH_LINEITEMS_SQL,
        "lineitems_urgent_bloom": analytics.LINEITEMS_URGENT_BLOOM_SQL,
        "priority_price_quantiles": analytics.PRIORITY_QUANTILES_SQL,
        "documents_sample": analytics.DOCUMENTS_SAMPLE_SQL,
        "documents_sample_weighted": analytics.DOCUMENTS_SAMPLE_WEIGHTED_SQL,
        "documents_shuffle_shards": analytics.DOCUMENTS_SHUFFLE_SHARDS_SQL,
        "documents_k_per_lang": analytics.DOCUMENTS_K_PER_LANG_SQL,
        "events_props_stats": analytics.EVENTS_PROPS_STATS_SQL,
        "documents_sample_weighted_fast": _sample_fixture_sql(
            "documents_sample_weighted_fast", "d.doc_id, d.n_chars"
        ),
        "documents_sample_fast": _sample_fixture_sql(
            "documents_sample_fast", "d.doc_id, d.n_chars"
        ),
        "documents_sample_by_lang_fast": _sample_fixture_sql(
            "documents_sample_by_lang_fast", "d.doc_id, d.lang, d.n_chars"
        ),
    }
