"""Training-corpus curation operators beyond dedup: PII scrubbing,
repetition-quality signals, benchmark decontamination, mixture sampling,
frequency-rank scoring, and duplicate clustering.

Every operator here has an exact DuckDB oracle (the driver gate), so all
semantics are chosen integer-exact:

- counts and flags are integers; ratio thresholds are applied by integer
  cross-multiplication (``top_n * 10000 <= 1500 * total``), never float
  division;
- regexes are RE2 on BOTH sides (Arrow's ``replace_substring_regex`` and
  DuckDB's ``regexp_replace`` share the RE2 engine), with identical
  pattern literals;
- the one per-row hash (mixture sampling's fractional epoch) reuses the
  repo's md5 SQL-parity rule — the vectorized ``hashing.hash64_array``
  path is the documented production default elsewhere
  (``analytics.deterministic_sample``).

Scale shapes:

- ``pii_scrub``, ``doc_repetition``: pure map — per-batch Arrow C++
  kernels, zero shuffle.
- ``decontaminate``: the benchmark n-gram set is SMALL by construction
  (benchmarks are thousands of docs, not billions) → built once,
  broadcast via ``ray.put``, membership-tested with ``pc.is_in`` inside a
  map.  The corpus side streams; no shuffle.
- ``token_rank_stats``: one wide aggregate (vocabulary with map-side
  combine — the shuffle carries one row per distinct token per block),
  then the ranked vocab is broadcast and the scoring pass is a pure map.
  At web scale the vocab is capped (top-K + overflow rank) — documented
  on the function.
- ``mixture_sample``: pure map with in-batch row expansion (np.repeat).
- ``dedup_clusters``: pairwise candidates → ``stages.graph``
  label-propagation (one shuffle join + one aggregate per round).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Sum

from ..cluster import arrow_block_refs, collect_table
from .analytics import read_table

# ---------------------------------------------------------------------------
# vectorized word-token / n-gram plumbing (shared; Arrow C++ throughout)
# ---------------------------------------------------------------------------


def tokens_flat(texts) -> tuple[pa.Array, np.ndarray]:
    """Lowercased whitespace tokens of a batch of texts, flattened:
    ``(flat_tokens, parent_row_index)`` with empty tokens removed —
    the same tokenization as the SQL oracles'
    ``string_split_regex(lower(text), '\\s+')`` + empty filter."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    tl = pc.split_pattern_regex(pc.utf8_lower(texts), r"\s+")
    flat = pc.list_flatten(tl)
    parent = pc.list_parent_indices(tl)
    mask = pc.not_equal(flat, "")
    flat = flat.filter(mask)
    parent = parent.filter(mask).to_numpy(zero_copy_only=False).astype(np.int64)
    return flat, parent


def ngram_rows(
    flat: pa.Array, parent: np.ndarray, n: int
) -> tuple[pa.Array, np.ndarray]:
    """Word n-grams (space-joined) from a flattened token stream:
    ``(ngrams, parent_row_index)``.  Built from ``n`` zero-copy slices of
    the token array joined element-wise in Arrow C++; a window is valid iff
    its first and last token share a parent row (tokens of one document are
    contiguous in the flattened stream)."""
    L = len(flat)
    if L < n:
        return pa.array([], pa.string()), np.array([], np.int64)
    w = L - n + 1
    cols = [flat.slice(k, w) for k in range(n)]
    ng = pc.binary_join_element_wise(*cols, " ")
    valid = parent[:w] == parent[n - 1 :]
    return ng.filter(pa.array(valid)), parent[:w][valid]


def _scatter(parent: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Scatter per-group values (indexed by parent row) into a dense
    zeros(n_rows) int64 array."""
    out = np.zeros(n_rows, np.int64)
    out[parent] = values
    return out


# ---------------------------------------------------------------------------
# PII scrubbing
# ---------------------------------------------------------------------------

# RE2 literals — identical bytes on the Arrow and DuckDB sides
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
IP_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PHONE_RE = r"\+\d{1,2}-\d{3}-\d{4}"


def scrub_batch(texts) -> dict[str, pa.Array]:
    """Redact emails → IPs → phones (fixed order: later patterns run over
    the already-redacted text, same as the nested SQL ``regexp_replace``)
    and count matches on the ORIGINAL text."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n_email = pc.count_substring_regex(texts, EMAIL_RE).cast(pa.int64())
    n_ip = pc.count_substring_regex(texts, IP_RE).cast(pa.int64())
    n_phone = pc.count_substring_regex(texts, PHONE_RE).cast(pa.int64())
    clean = pc.replace_substring_regex(texts, EMAIL_RE, "<EMAIL>")
    clean = pc.replace_substring_regex(clean, IP_RE, "<IP>")
    clean = pc.replace_substring_regex(clean, PHONE_RE, "<PHONE>")
    return {
        "clean_text": clean,
        "n_emails": n_email,
        "n_ips": n_ip,
        "n_phones": n_phone,
    }


def pii_scrub(sf_dir: str) -> ray.data.Dataset:
    """PII redaction over ``documents``.  The synthetic corpus carries no
    PII, so a deterministic PII suffix (email + IP + phone derived from
    doc_id/lang) is appended on BOTH sides first — the scrubber then has
    real matches to find, and the oracle checks count + redaction parity
    end-to-end.  Pure map: zero shuffle, all-Arrow kernels."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        ids_s = pc.cast(batch["doc_id"], pa.string())
        aug = pc.binary_join_element_wise(
            batch["text"].combine_chunks()
            if isinstance(batch["text"], pa.ChunkedArray)
            else batch["text"],
            " contact user",
            ids_s,
            "@example.",
            batch["lang"],
            " node 10.",
            pc.cast(pa.array(ids % 200), pa.string()),
            ".0.",
            pc.cast(pa.array(ids % 250), pa.string()),
            " tel +1-555-",
            pc.utf8_lpad(pc.cast(pa.array(ids % 10000), pa.string()), 4, "0"),
            "",
        )
        out = scrub_batch(aug)
        return pa.table({"doc_id": batch["doc_id"], **out})

    return ds.map_batches(fn, batch_format="pyarrow")


PII_SCRUB_SQL = f"""
WITH aug AS (
  SELECT doc_id,
         text || ' contact user' || CAST(doc_id AS VARCHAR) || '@example.' || lang
              || ' node 10.' || CAST(doc_id % 200 AS VARCHAR)
              || '.0.' || CAST(doc_id % 250 AS VARCHAR)
              || ' tel +1-555-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
           AS t
  FROM documents
)
SELECT doc_id,
  regexp_replace(
    regexp_replace(
      regexp_replace(t, '{EMAIL_RE}', '<EMAIL>', 'g'),
      '{IP_RE}', '<IP>', 'g'),
    '{PHONE_RE}', '<PHONE>', 'g') AS clean_text,
  CAST(len(regexp_extract_all(t, '{EMAIL_RE}')) AS BIGINT) AS n_emails,
  CAST(len(regexp_extract_all(t, '{IP_RE}')) AS BIGINT) AS n_ips,
  CAST(len(regexp_extract_all(t, '{PHONE_RE}')) AS BIGINT) AS n_phones
FROM aug ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# repetition-quality signals (Gopher-style, integer-exact)
# ---------------------------------------------------------------------------


def doc_repetition(sf_dir: str) -> ray.data.Dataset:
    """Per-document repetition signals: the Gopher/C4 family of
    "repetitious documents are low quality" filters, restated over word
    n-grams (the corpus has no line structure):

    - ``top_bigram_n`` / ``n_bigrams`` — occurrences of the most frequent
      bigram vs total bigrams (Gopher's top-n-gram fraction);
    - ``dup_trigram_excess`` / ``n_trigrams`` — trigram occurrences beyond
      each trigram's first (Gopher's duplicate-n-gram fraction);
    - flags by integer cross-multiplication: top bigram ≤ 15 % and
      duplicate trigrams ≤ 10 %.

    Pure map: per-batch ``pa.Table.group_by`` (Arrow C++ hash groups) with
    numpy scatter — zero shuffle, no per-row Python."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        r = repetition_arrays(flat, parent, batch.num_rows)
        return pa.table({"doc_id": batch["doc_id"], **{
            k: pa.array(v) for k, v in r.items()
        }})

    return ds.map_batches(fn, batch_format="pyarrow")


def _per_doc_ngram_counts(flat, parent, k: int, n: int):
    """(max count, total count, distinct count) of word k-grams per doc."""
    g, gp = ngram_rows(flat, parent, k)
    cnt = (
        pa.table({"p": gp, "g": g})
        .group_by(["p", "g"])
        .aggregate([([], "count_all")])
    )
    per = cnt.group_by("p").aggregate(
        [("count_all", "max"), ("count_all", "sum"), ([], "count_all")]
    )
    p = per["p"].to_numpy(zero_copy_only=False).astype(np.int64)
    return (
        _scatter(p, per["count_all_max"].to_numpy(), n),
        _scatter(p, per["count_all_sum"].to_numpy(), n),
        _scatter(p, per["count_all"].to_numpy(), n),
    )


def repetition_arrays(flat, parent, n: int) -> dict[str, np.ndarray]:
    """The repetition-signal columns for one batch (shared by
    ``doc_repetition`` and ``corpus_filter``)."""
    n_tokens = np.bincount(parent, minlength=n).astype(np.int64)
    top_bg, n_bg, _ = _per_doc_ngram_counts(flat, parent, 2, n)
    _, n_tg, distinct_tg = _per_doc_ngram_counts(flat, parent, 3, n)
    dup_tg = n_tg - distinct_tg
    flag_bg = ((n_bg > 0) & (top_bg * 10000 <= 1500 * n_bg)).astype(np.int32)
    flag_tg = ((n_tg > 0) & (dup_tg * 10000 <= 1000 * n_tg)).astype(np.int32)
    return {
        "n_tokens": n_tokens,
        "top_bigram_n": top_bg,
        "n_bigrams": n_bg,
        "dup_trigram_excess": dup_tg,
        "n_trigrams": n_tg,
        "flag_top_bigram": flag_bg,
        "flag_dup_trigram": flag_tg,
    }


DOC_REPETITION_SQL = """
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\\s+'), t -> t <> '') AS tk
  FROM documents
),
big AS (
  SELECT doc_id, tk[i] || ' ' || tk[i+1] AS g
  FROM toks, unnest(generate_series(1, len(tk)-1)) AS t(i)
),
bcnt AS (SELECT doc_id, g, count(*) AS c FROM big GROUP BY 1, 2),
bagg AS (
  SELECT doc_id, CAST(max(c) AS BIGINT) AS top_bigram_n,
         CAST(sum(c) AS BIGINT) AS n_bigrams
  FROM bcnt GROUP BY 1
),
tri AS (
  SELECT doc_id, tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2] AS g
  FROM toks, unnest(generate_series(1, len(tk)-2)) AS t(i)
),
tcnt AS (SELECT doc_id, g, count(*) AS c FROM tri GROUP BY 1, 2),
tagg AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_trigrams,
         CAST(sum(c) - count(*) AS BIGINT) AS dup_trigram_excess
  FROM tcnt GROUP BY 1
)
SELECT d.doc_id,
  CAST(len(list_filter(string_split_regex(lower(d.text), '\\s+'), t -> t <> ''))
       AS BIGINT) AS n_tokens,
  coalesce(b.top_bigram_n, 0) AS top_bigram_n,
  coalesce(b.n_bigrams, 0) AS n_bigrams,
  coalesce(t.dup_trigram_excess, 0) AS dup_trigram_excess,
  coalesce(t.n_trigrams, 0) AS n_trigrams,
  CASE WHEN coalesce(b.n_bigrams, 0) > 0
        AND coalesce(b.top_bigram_n, 0) * 10000 <= 1500 * b.n_bigrams
       THEN 1 ELSE 0 END AS flag_top_bigram,
  CASE WHEN coalesce(t.n_trigrams, 0) > 0
        AND coalesce(t.dup_trigram_excess, 0) * 10000 <= 1000 * t.n_trigrams
       THEN 1 ELSE 0 END AS flag_dup_trigram
FROM documents d
LEFT JOIN bagg b USING (doc_id)
LEFT JOIN tagg t USING (doc_id)
ORDER BY d.doc_id
"""


# ---------------------------------------------------------------------------
# benchmark decontamination
# ---------------------------------------------------------------------------


def decontaminate(
    sf_dir: str, *, ngram: int = 5, bench_mod: int = 41
) -> ray.data.Dataset:
    """Benchmark decontamination: flag training documents sharing any word
    ``ngram``-gram with the held-out benchmark set (docs with
    ``doc_id % bench_mod == 0`` stand in for the benchmark — the split is
    SQL-expressible so the oracle can replicate it).

    Scale shape: the benchmark n-gram set is small by construction
    (evaluation sets are thousands of documents), so it is collected once
    (distinct n-grams, block-local dedup before the tiny ``unique``
    shuffle), broadcast via ``ray.put``, and membership-tested with
    ``pc.is_in`` inside a streaming map over the corpus.  The corpus side
    never shuffles; overlap counts are per-doc-DISTINCT n-grams (Arrow
    hash-group dedup per batch)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    bench_ref = bench_ngram_ref(ds, ngram, bench_mod)

    def score(batch: pa.Table) -> pa.Table:
        keep = batch["doc_id"].to_numpy() % bench_mod != 0
        sub = batch.filter(pa.array(keep))
        flat, parent = tokens_flat(sub["text"])
        n_ngrams, n_overlap = overlap_arrays(
            flat, parent, ngram, ray.get(bench_ref), sub.num_rows
        )
        return pa.table(
            {
                "doc_id": sub["doc_id"],
                "n_ngrams": pa.array(n_ngrams),
                "n_overlap": pa.array(n_overlap),
                "flag_contaminated": pa.array(
                    (n_overlap > 0).astype(np.int32)
                ),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def bench_ngram_ref(ds: ray.data.Dataset, ngram: int, bench_mod: int):
    """Distinct word n-grams of the benchmark split (doc_id % bench_mod
    == 0), block-local-deduped, collected through one tiny ``unique``
    shuffle, broadcast via ``ray.put``."""

    def bench_grams(batch: pa.Table) -> pa.Table:
        keep = batch["doc_id"].to_numpy() % bench_mod == 0
        sub = batch.filter(pa.array(keep))
        flat, parent = tokens_flat(sub["text"])
        g, _ = ngram_rows(flat, parent, ngram)
        return pa.table({"g": g}).group_by("g").aggregate([])

    # unique() yields None when the split is empty (e.g. a shard whose
    # doc_ids skip every multiple of bench_mod) — an empty probe set, not
    # an error
    bench = ds.map_batches(bench_grams, batch_format="pyarrow").unique("g")
    return ray.put(pa.array(sorted(bench or []), pa.string()))


def overlap_arrays(
    flat, parent, ngram: int, bench_arr: pa.Array, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc (distinct n-gram count, distinct n-grams shared with the
    broadcast benchmark set) for one batch."""
    g, gp = ngram_rows(flat, parent, ngram)
    distinct = pa.table({"p": gp, "g": g}).group_by(["p", "g"]).aggregate([])
    p = distinct["p"].to_numpy(zero_copy_only=False).astype(np.int64)
    hit = (
        pc.is_in(distinct["g"], value_set=bench_arr)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    n_ngrams = np.zeros(n, np.int64)
    np.add.at(n_ngrams, p, 1)
    n_overlap = np.zeros(n, np.int64)
    np.add.at(n_overlap, p, hit)
    return n_ngrams, n_overlap


DECONTAMINATE_SQL = """
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\\s+'), t -> t <> '') AS tk
  FROM documents
),
ng AS (
  SELECT doc_id,
         tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2] || ' ' || tk[i+3] || ' ' || tk[i+4] AS g
  FROM toks, unnest(generate_series(1, len(tk)-4)) AS t(i)
),
bench AS (SELECT DISTINCT g FROM ng WHERE doc_id % 41 = 0),
docng AS (SELECT DISTINCT doc_id, g FROM ng WHERE doc_id % 41 <> 0),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_ngrams,
         CAST(sum(CASE WHEN b.g IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_overlap
  FROM docng LEFT JOIN bench b USING (g) GROUP BY 1
)
SELECT d.doc_id,
       coalesce(a.n_ngrams, 0) AS n_ngrams,
       coalesce(a.n_overlap, 0) AS n_overlap,
       CASE WHEN coalesce(a.n_overlap, 0) > 0 THEN 1 ELSE 0 END AS flag_contaminated
FROM documents d LEFT JOIN agg a USING (doc_id)
WHERE d.doc_id % 41 <> 0 ORDER BY d.doc_id
"""


def bench_contamination_report(
    sf_dir: str, *, ngram: int = 5, bench_mod: int = 41
) -> ray.data.Dataset:
    """The REVERSE direction of :func:`decontaminate`: for every
    BENCHMARK document (``doc_id % bench_mod == 0``), how much of it the
    training corpus has already seen — distinct n-grams, distinct grams
    appearing in ANY training document, coverage ppm, compromised flag.
    This is the eval-integrity report ("which benchmark items are
    memorizable") a release pairs with the training-side flags.

    Shape: the benchmark gram set broadcasts once
    (:func:`bench_ngram_ref`); the TRAINING side streams once, each block
    emitting only its grams ∩ benchmark set (block-deduped, bounded by the
    benchmark set at any corpus size) into one tiny ``unique`` shuffle;
    the dirty-gram set broadcasts back and the benchmark rows — bounded by
    construction — score in a final pure map.  The corpus never
    exchanges."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    bench_ref = bench_ngram_ref(ds, ngram, bench_mod)

    def train_hits(batch: pa.Table) -> pa.Table:
        keep = batch["doc_id"].to_numpy() % bench_mod != 0
        sub = batch.filter(pa.array(keep))
        flat, parent = tokens_flat(sub["text"])
        g, _ = ngram_rows(flat, parent, ngram)
        if not len(g):
            return pa.table({"g": pa.array([], pa.string())})
        hit = pc.is_in(g, value_set=ray.get(bench_ref))
        return (
            pa.table({"g": g.filter(hit)}).group_by("g").aggregate([])
        )

    dirty = (
        ds.map_batches(train_hits, batch_format="pyarrow").unique("g")
    )
    dirty_ref = ray.put(pa.array(sorted(dirty or []), pa.string()))

    def score_bench(batch: pa.Table) -> pa.Table:
        keep = batch["doc_id"].to_numpy() % bench_mod == 0
        sub = batch.filter(pa.array(keep))
        flat, parent = tokens_flat(sub["text"])
        n_grams, n_comp = overlap_arrays(
            flat, parent, ngram, ray.get(dirty_ref), sub.num_rows
        )
        ppm = np.zeros(sub.num_rows, np.int64)
        nz = n_grams > 0
        ppm[nz] = (1_000_000 * n_comp[nz]) // n_grams[nz]
        return pa.table(
            {
                "doc_id": sub["doc_id"],
                "n_ngrams": pa.array(n_grams),
                "n_compromised": pa.array(n_comp),
                "compromised_ppm": pa.array(ppm, pa.int64()),
                "flag_compromised": pa.array(
                    (n_comp > 0).astype(np.int64), pa.int64()
                ),
            }
        )

    return ds.map_batches(score_bench, batch_format="pyarrow").sort("doc_id")


BENCH_CONTAMINATION_SQL = """
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\\s+'), t -> t <> '') AS tk
  FROM documents
),
ng AS (
  SELECT doc_id,
         tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2] || ' ' || tk[i+3] || ' ' || tk[i+4] AS g
  FROM toks, unnest(generate_series(1, len(tk)-4)) AS t(i)
),
benchng AS (SELECT DISTINCT doc_id, g FROM ng WHERE doc_id % 41 = 0),
train AS (SELECT DISTINCT g FROM ng WHERE doc_id % 41 <> 0),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_ngrams,
         CAST(sum(CASE WHEN t.g IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
             AS n_compromised
  FROM benchng LEFT JOIN train t USING (g) GROUP BY 1
)
SELECT d.doc_id,
       coalesce(a.n_ngrams, 0) AS n_ngrams,
       coalesce(a.n_compromised, 0) AS n_compromised,
       CASE WHEN coalesce(a.n_ngrams, 0) = 0 THEN 0
            ELSE 1000000 * a.n_compromised // a.n_ngrams
       END AS compromised_ppm,
       CAST(CASE WHEN coalesce(a.n_compromised, 0) > 0 THEN 1 ELSE 0 END
            AS BIGINT) AS flag_compromised
FROM documents d LEFT JOIN agg a USING (doc_id)
WHERE d.doc_id % 41 = 0 ORDER BY d.doc_id
"""


# ---------------------------------------------------------------------------
# mixture sampling (per-source epoch weighting)
# ---------------------------------------------------------------------------

_MIX_FULL = np.array([2, 1, 1, 0], np.int64)  # floor(weight) per source%4
_MIX_FRAC_BP = np.array([0, 5000, 0, 2500], np.int64)  # frac part, basis pts
_MIX_SALT = "m42"


def mixture_sample(sf_dir: str) -> ray.data.Dataset:
    """Training-mixture construction: each source gets a sampling WEIGHT
    (here weights 2.0 / 1.5 / 1.0 / 0.25 by ``source_index % 4`` — the
    oversample-books / downsample-web shape of LLM data recipes).  A doc
    with weight w appears ``floor(w)`` times plus one more with probability
    ``frac(w)``, decided by the repo's deterministic md5 sampling rule
    (reproducible at any parallelism, nested across reruns).  Output rows
    carry ``epoch`` (0-based copy index) — downstream shuffling interleaves
    epochs.

    Pure map with in-batch row expansion (``np.repeat``); the md5 is the
    SQL-parity hash (see ``analytics.deterministic_sample`` for the
    vectorized production default)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        src_idx = (
            pc.cast(pc.utf8_slice_codeunits(batch["source"], 3), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        m = src_idx % 4
        sp = f"{_MIX_SALT}:".encode()
        md5 = hashlib.md5
        bucket = np.fromiter(
            (
                int.from_bytes(md5(sp + str(v).encode()).digest()[:4], "big")
                % 10000
                for v in ids
            ),
            np.int64,
            count=len(ids),
        )
        copies = _MIX_FULL[m] + (bucket < _MIX_FRAC_BP[m]).astype(np.int64)
        idx = np.repeat(np.arange(len(ids)), copies)
        starts = np.concatenate(([0], np.cumsum(copies)[:-1]))
        epoch = np.arange(int(copies.sum()), dtype=np.int64) - np.repeat(
            starts, copies
        )
        taken = batch.take(pa.array(idx))
        return pa.table(
            {
                "doc_id": taken["doc_id"],
                "source": taken["source"],
                "epoch": pa.array(epoch),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


MIXTURE_SAMPLE_SQL = """
WITH w AS (
  SELECT doc_id, source,
         CAST(substr(source, 4) AS INT) % 4 AS m,
         CAST(('0x' || substr(md5('m42:' || CAST(doc_id AS VARCHAR)), 1, 8))
              AS UBIGINT) % 10000 AS b
  FROM documents
),
c AS (
  SELECT doc_id, source,
         (CASE m WHEN 0 THEN 2 WHEN 1 THEN 1 WHEN 2 THEN 1 ELSE 0 END)
         + (CASE WHEN b < (CASE m WHEN 0 THEN 0 WHEN 1 THEN 5000
                           WHEN 2 THEN 0 ELSE 2500 END)
            THEN 1 ELSE 0 END) AS copies
  FROM w
)
SELECT doc_id, source, CAST(e - 1 AS BIGINT) AS epoch
FROM c, unnest(generate_series(1, copies)) AS t(e)
ORDER BY doc_id, epoch
"""


# ---------------------------------------------------------------------------
# token frequency-rank scoring
# ---------------------------------------------------------------------------


def token_rank_stats(sf_dir: str) -> ray.data.Dataset:
    """Integer-exact corpus-frequency scoring: rank every token by global
    frequency (ties by token text), then score each document by the SUM of
    its tokens' ranks — the integer stand-in for unigram log-probability
    quality scoring (low sum-rank ⇒ common-word text; high ⇒ rare-word
    text), with none of the float summation-order noise a log-prob score
    would put under the driver's bit-exact hash gate.

    Two phases: (1) the vocabulary aggregate — map-side combine, shuffle
    carries one row per distinct token per block; (2) ranked vocab
    broadcast via ``ray.put`` + a pure scoring map (``pc.index_in`` into
    the broadcast token array, numpy gather + bincount).  At web scale the
    broadcast vocab is capped (top-K ranks + a shared overflow rank for
    the tail); the full-vocab variant here is exact for the oracle."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def local_counts(batch: pa.Table) -> pa.Table:
        flat, _ = tokens_flat(batch["text"])
        g = pa.table({"token": flat}).group_by("token").aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {"token": g["token"], "n": g["count_all"].cast(pa.int64())}
        )

    vocab = (
        ds.map_batches(local_counts, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n"))
        .rename_columns({"sum(n)": "n"})
        .sort(["n", "token"], descending=[True, False])
        .take_all()
    )
    tokens = pa.array([r["token"] for r in vocab], pa.string())
    ranks = np.arange(1, len(vocab) + 1, dtype=np.int64)
    ref = ray.put((tokens, ranks))

    def score(batch: pa.Table) -> pa.Table:
        toks, rks = ray.get(ref)
        n = batch.num_rows
        flat, parent = tokens_flat(batch["text"])
        pos = pc.index_in(flat, value_set=toks).to_numpy(zero_copy_only=False)
        n_tokens = np.bincount(parent, minlength=n).astype(np.int64)
        sum_rank = np.zeros(n, np.int64)
        np.add.at(sum_rank, parent, rks[pos])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tokens),
                "sum_token_rank": pa.array(sum_rank),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


TOKEN_RANK_STATS_SQL = """
WITH toks AS (
  SELECT doc_id, t.tok
  FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(tok)
  WHERE t.tok <> ''
),
vocab AS (SELECT tok, count(*) AS n FROM toks GROUP BY 1),
ranked AS (
  SELECT tok, CAST(row_number() OVER (ORDER BY n DESC, tok) AS BIGINT) AS r
  FROM vocab
)
SELECT t.doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(sum(r.r) AS BIGINT) AS sum_token_rank
FROM toks t JOIN ranked r USING (tok)
GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# duplicate clustering (transitive closure of near-dup pairs)
# ---------------------------------------------------------------------------


def dedup_clusters(sf_dir: str, *, threshold: float = 0.3) -> ray.data.Dataset:
    """Near-duplicate CLUSTERS over the embedding table: cosine-similar
    pairs (≥ threshold) → connected components → ``(vec_id, cluster_id)``
    where ``cluster_id`` is the smallest member id.  The cluster view is
    what curation policies act on ("keep the longest doc per cluster",
    "cap cluster size"), not raw pairs.

    Pairs here come from the brute oracle path (exact, matches the SQL
    self-join); the LSH candidate generator (``stages/dedup.py``) is the
    10^12-row pair source.  Components via ``stages.graph`` min-label
    propagation — one shuffle join + one aggregate per round, converging in
    O(component diameter) rounds."""
    from ..stages.dedup import embedding_dup_pairs_brute
    from ..stages.graph import connected_components

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    pairs = embedding_dup_pairs_brute(ds, threshold=threshold)
    return connected_components(
        pairs,
        ds.select_columns(["vec_id"]),
        id_col="vec_id",
        u_col="id_a",
        v_col="id_b",
    )


DEDUP_CLUSTERS_SQL = """
WITH RECURSIVE pairs AS (
  SELECT a.vec_id AS u, b.vec_id AS v
  FROM embeddings a JOIN embeddings b ON b.vec_id > a.vec_id
  WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.3
),
edges AS (SELECT u, v FROM pairs UNION ALL SELECT v, u FROM pairs),
reach(src, dst) AS (
  SELECT vec_id, vec_id FROM embeddings
  UNION
  SELECT r.src, e.v FROM reach r JOIN edges e ON e.u = r.dst
)
SELECT src AS vec_id, CAST(min(dst) AS BIGINT) AS cluster_id
FROM reach GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# the end-to-end cleaning composition (C4/Gopher-style keep decision)
# ---------------------------------------------------------------------------


def corpus_filter(
    sf_dir: str, *, ngram: int = 5, bench_mod: int = 41
) -> ray.data.Dataset:
    """The canonical corpus-cleaning pipeline as ONE composition: for every
    non-benchmark document, four independent keep signals and their
    conjunction —

    - ``flag_quality``   — all four heuristic quality gates pass
      (``text_stats.quality_columns``: length / word length / punctuation /
      stopword);
    - ``flag_repetition`` — both repetition gates pass (top bigram ≤ 15 %,
      duplicate trigrams ≤ 10 %);
    - ``flag_clean``     — zero benchmark n-gram overlap (decontamination);
    - ``flag_unique``    — the document is its exact-text group's winner
      (min doc_id per md5(text));
    - ``keep``           — the conjunction.

    Scale shape: ONE tokenization pass feeds quality, repetition, and
    contamination (pure map, broadcast benchmark set) AND stamps each
    row's content hash, so uniqueness rides the SAME scan: everything
    flows through ONE text_hash-keyed exchange whose groups compute the
    per-hash min-id winner in C++ and flag each row in place — the
    winners groupby, the doc-keyed ``left_outer`` join and the second
    corpus read of the naive composition are all gone.  The exchange
    carries one slim row per document (hash, id, three int32 flags),
    never text."""
    from ..functions import text_stats
    from ..functions.text_stats import md5_fingerprints
    from ..hashing import string_hash64

    n_buckets = 64

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    bench_ref = bench_ngram_ref(ds, ngram, bench_mod)

    def score(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        nb = ids % bench_mod != 0
        hashes = md5_fingerprints(batch["text"])
        sub = batch.filter(pa.array(nb))
        n = sub.num_rows
        flat, parent = tokens_flat(sub["text"])
        q = text_stats.quality_columns(sub["text"])
        flag_quality = (
            q["quality_passes"].to_numpy(zero_copy_only=False) == 4
        ).astype(np.int32)
        rep = repetition_arrays(flat, parent, n)
        flag_repetition = (
            (rep["flag_top_bigram"] == 1) & (rep["flag_dup_trigram"] == 1)
        ).astype(np.int32)
        _, n_overlap = overlap_arrays(
            flat, parent, ngram, ray.get(bench_ref), n
        )
        # benchmark rows travel the exchange too (they contest the winner
        # slot exactly as in the SQL's GROUP BY over ALL documents) with
        # zeroed flags; they are dropped after the winner resolution
        fq = np.zeros(len(ids), np.int32)
        fr = np.zeros(len(ids), np.int32)
        fc = np.zeros(len(ids), np.int32)
        fq[nb] = flag_quality
        fr[nb] = flag_repetition
        fc[nb] = (n_overlap == 0).astype(np.int32)
        h = hashes if not isinstance(hashes, pa.ChunkedArray) else hashes.combine_chunks()
        bucket = string_hash64(h) % np.uint64(n_buckets)
        return pa.table(
            {
                "text_hash": h,
                "doc_id": batch["doc_id"],
                "flag_quality": pa.array(fq),
                "flag_repetition": pa.array(fr),
                "flag_clean": pa.array(fc),
                "nb": pa.array(nb.astype(np.int8), pa.int8()),
                "bucket": pa.array(
                    bucket.astype(np.int64), pa.int64()
                ),
            }
        )

    def finalize(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "flag_quality": pa.array([], pa.int32()),
                    "flag_repetition": pa.array([], pa.int32()),
                    "flag_clean": pa.array([], pa.int32()),
                    "flag_unique": pa.array([], pa.int32()),
                    "keep": pa.array([], pa.int32()),
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
        idx = pc.index_in(group["text_hash"], value_set=hs)
        uniq = pc.cast(
            pc.equal(group["doc_id"], gm["doc_id_min"].take(idx)),
            pa.int32(),
        )
        out = group.append_column("flag_unique", uniq).filter(
            pc.equal(group["nb"], 1)
        )
        keep = pc.multiply(
            pc.multiply(out["flag_quality"], out["flag_repetition"]),
            pc.multiply(out["flag_clean"], out["flag_unique"]),
        )
        return pa.table(
            {
                "doc_id": out["doc_id"],
                "flag_quality": out["flag_quality"],
                "flag_repetition": out["flag_repetition"],
                "flag_clean": out["flag_clean"],
                "flag_unique": out["flag_unique"],
                "keep": keep,
            }
        )

    return (
        ds.map_batches(score, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


_QUALITY_PASSES_FRAG = """
  (CASE WHEN n_tokens BETWEEN 5 AND 100000 THEN 1 ELSE 0 END
   + CASE WHEN n_tokens > 0
            AND (n_chars - GREATEST(n_tokens - 1, 0))::DOUBLE / GREATEST(n_tokens, 1)
                BETWEEN 2.0 AND 12.0
          THEN 1 ELSE 0 END
   + CASE WHEN n_chars > 0 AND n_punct::DOUBLE / n_chars <= 0.2
          THEN 1 ELSE 0 END
   + CASE WHEN n_stopwords >= 1 THEN 1 ELSE 0 END)
"""


def corpus_filter_sql(stopword_list: str) -> str:
    """The oracle for ``corpus_filter`` — assembled from the same SQL
    fragments the component oracles use, so the composition cannot drift
    from its parts."""
    return f"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\\s+'), t -> t <> '') AS tk
  FROM documents
),
q0 AS (
  SELECT doc_id,
         length(text) AS n_chars,
         len(regexp_extract_all(text, '\\S+')) AS n_tokens,
         len(regexp_extract_all(text, '[.,;:!?]')) AS n_punct,
         len(list_filter(string_split_regex(lower(text), '\\s+'),
                         w -> list_contains({stopword_list}, w))) AS n_stopwords
  FROM documents
),
q AS (SELECT doc_id, {_QUALITY_PASSES_FRAG} AS qp FROM q0),
big AS (
  SELECT doc_id, tk[i] || ' ' || tk[i+1] AS g
  FROM toks, unnest(generate_series(1, len(tk)-1)) AS t(i)
),
bcnt AS (SELECT doc_id, g, count(*) AS c FROM big GROUP BY 1, 2),
bagg AS (SELECT doc_id, max(c) AS top_bg, sum(c) AS n_bg FROM bcnt GROUP BY 1),
tri AS (
  SELECT doc_id, tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2] AS g
  FROM toks, unnest(generate_series(1, len(tk)-2)) AS t(i)
),
tcnt AS (SELECT doc_id, g, count(*) AS c FROM tri GROUP BY 1, 2),
tagg AS (SELECT doc_id, sum(c) AS n_tg, sum(c) - count(*) AS dup_tg
         FROM tcnt GROUP BY 1),
ng AS (
  SELECT doc_id,
         tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2] || ' ' || tk[i+3] || ' ' || tk[i+4] AS g
  FROM toks, unnest(generate_series(1, len(tk)-4)) AS t(i)
),
bench AS (SELECT DISTINCT g FROM ng WHERE doc_id % 41 = 0),
docng AS (SELECT DISTINCT doc_id, g FROM ng WHERE doc_id % 41 <> 0),
cagg AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN b.g IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_overlap
  FROM docng LEFT JOIN bench b USING (g) GROUP BY 1
),
w AS (SELECT md5(text) AS h, min(doc_id) AS win FROM documents GROUP BY 1)
SELECT d.doc_id,
  CASE WHEN q.qp = 4 THEN 1 ELSE 0 END AS flag_quality,
  CASE WHEN coalesce(b.n_bg, 0) > 0
        AND coalesce(b.top_bg, 0) * 10000 <= 1500 * b.n_bg
        AND coalesce(t.n_tg, 0) > 0
        AND coalesce(t.dup_tg, 0) * 10000 <= 1000 * t.n_tg
       THEN 1 ELSE 0 END AS flag_repetition,
  CASE WHEN coalesce(c.n_overlap, 0) = 0 THEN 1 ELSE 0 END AS flag_clean,
  CASE WHEN w2.win IS NOT NULL THEN 1 ELSE 0 END AS flag_unique,
  (CASE WHEN q.qp = 4 THEN 1 ELSE 0 END
   * CASE WHEN coalesce(b.n_bg, 0) > 0
           AND coalesce(b.top_bg, 0) * 10000 <= 1500 * b.n_bg
           AND coalesce(t.n_tg, 0) > 0
           AND coalesce(t.dup_tg, 0) * 10000 <= 1000 * t.n_tg
          THEN 1 ELSE 0 END
   * CASE WHEN coalesce(c.n_overlap, 0) = 0 THEN 1 ELSE 0 END
   * CASE WHEN w2.win IS NOT NULL THEN 1 ELSE 0 END) AS keep
FROM documents d
JOIN q USING (doc_id)
LEFT JOIN bagg b USING (doc_id)
LEFT JOIN tagg t USING (doc_id)
LEFT JOIN cagg c USING (doc_id)
LEFT JOIN w w2 ON w2.win = d.doc_id
WHERE d.doc_id % 41 <> 0
ORDER BY d.doc_id
"""


# ---------------------------------------------------------------------------
# TF-IDF relevance search (integer-exact scoring)
# ---------------------------------------------------------------------------

TFIDF_TERMS = ["vector", "hash", "spark"]
TFIDF_SCALE = 1_000_000
TFIDF_K = 10


def search_tfidf(
    sf_dir: str,
    *,
    terms: list[str] | None = None,
    k: int = TFIDF_K,
) -> ray.data.Dataset:
    """Top-k documents for a fixed term query by integer-exact TF-IDF.

    ``score(doc) = Σ_term tf(term, doc) · idf_int(term)`` with
    ``idf_int = (N_docs · SCALE) // df`` — floor division of exact int64s,
    bit-identical between numpy and the SQL oracle's BIGINT ``//`` (a float
    ``ln`` IDF would put IEEE rounding under the driver's hash gate; the
    floor-scaled ratio preserves the same ranking signal).

    Distributed shape: (1) N_docs from parquet metadata (no scan);
    (2) one DF pass — per-block distinct (doc, term) pairs for QUERY terms
    only (``pc.index_in`` against the tiny term set, so non-query tokens
    never leave the kernel), combined through a ≤|terms|-key groupby;
    (3) the ≤|terms|-row IDF table is a plain closure constant — no
    broadcast needed; (4) one scoring map (tf·idf via ``np.add.at`` on the
    flattened hit stream) emitting only matching docs; (5) per-block local
    top-k then a final sort+limit over blocks×k rows — the corpus is never
    globally sorted."""
    from ray.data.aggregate import Sum

    terms = list(terms or TFIDF_TERMS)
    tset = pa.array(terms, pa.string())
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = ds.count()

    def df_partial(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        pos = pc.index_in(flat, value_set=tset)
        mask = pc.is_valid(pos).to_numpy(zero_copy_only=False)
        pairs = (
            pa.table(
                {
                    "doc": pa.array(parent[mask]),
                    "term": pos.filter(pa.array(mask)).cast(pa.int32()),
                }
            )
            # a document is one row, so per-block distinct == global distinct
            .group_by(["doc", "term"])
            .aggregate([])
        )
        g = pairs.group_by("term").aggregate([([], "count_all")])
        return pa.table(
            {"term": g["term"], "df": g["count_all"].cast(pa.int64())}
        )

    df_rows = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df"))
        .take_all()
    )  # bounded: ≤ len(terms) rows
    idf = np.zeros(len(terms), np.int64)
    for r in df_rows:
        if r["sum(df)"] > 0:
            idf[r["term"]] = (n_docs * TFIDF_SCALE) // r["sum(df)"]

    def score(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat, parent = tokens_flat(batch["text"])
        pos = pc.index_in(flat, value_set=tset)
        mask = pc.is_valid(pos).to_numpy(zero_copy_only=False)
        hits = pos.filter(pa.array(mask)).to_numpy(zero_copy_only=False)
        s = np.zeros(n, np.int64)
        np.add.at(s, parent[mask], idf[hits.astype(np.int64)])
        keep = s > 0
        t = pa.table(
            {
                "doc_id": batch["doc_id"].filter(pa.array(keep)),
                "score": pa.array(s[keep], pa.int64()),
            }
        )
        # block-local top-k by (score desc, doc_id asc): the global
        # top-k is a subset of the per-block top-ks under a total order
        if t.num_rows > k:
            order = np.lexsort(
                (
                    t["doc_id"].to_numpy(zero_copy_only=False),
                    -t["score"].to_numpy(zero_copy_only=False),
                )
            )[:k]
            t = t.take(pa.array(np.sort(order)))
        return t

    return (
        ds.map_batches(score, batch_format="pyarrow")
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(k)
    )


def search_tfidf_sql(terms: list[str] | None = None, k: int = TFIDF_K) -> str:
    terms = list(terms or TFIDF_TERMS)
    in_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    return f"""
WITH toks AS (
  SELECT doc_id, t.tok
  FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(tok)
  WHERE t.tok IN ({in_list})
),
n AS (SELECT CAST(count(*) AS BIGINT) AS n_docs FROM documents),
df AS (SELECT tok, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
       FROM toks GROUP BY 1),
tf AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf
       FROM toks GROUP BY 1, 2)
SELECT tf.doc_id,
       CAST(sum(tf.tf * ((n.n_docs * {TFIDF_SCALE}) // df.df)) AS BIGINT)
         AS score
FROM tf JOIN df USING (tok) CROSS JOIN n
GROUP BY 1
ORDER BY score DESC, doc_id
LIMIT {k}
"""


BM25_SCALE = 10_000  # idf scale (floor-ratio IDF, see search_bm25)


def search_bm25(
    sf_dir: str,
    *,
    terms: list[str] | None = None,
    k: int = TFIDF_K,
) -> ray.data.Dataset:
    """Top-k documents by BM25 (k1=1.2, b=0.75) — integer-exact.

    The classic saturation formula is rationalized so both sides compute
    identical int64 floor arithmetic (no IEEE log/div under the driver's
    hash gate):

        r     = (dl · 1000 · N) // L                (scaled dl/avgdl)
        idf   = (N · SCALE) // df                   (floor-ratio IDF)
        score = Σ_t (idf · 44000 · tf) // (20000·tf + 6000 + 18·r)

    where 44000/20000/6000/18 are k1=6/5, b=3/4 cleared of denominators:
    tf·(k1+1) / (tf + k1·(1−b+b·dl/avgdl)) ≡ 44000·tf / (20000·tf + 6000
    + 18·r) after multiplying through by 20000 and substituting r.

    Distributed shape (mirrors :func:`search_tfidf`): ONE stats pass
    computes per-term document frequencies AND the corpus token total L in
    the same partial (the length total rides as a sentinel term −1), the
    ≤|terms|+1-row result is a closure constant, and ONE scoring pass emits
    only matching docs with block-local top-k before the final sort+limit.
    """
    from ray.data.aggregate import Sum

    terms = list(terms or TFIDF_TERMS)
    tset = pa.array(terms, pa.string())
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = ds.count()

    def stats_partial(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        pos = pc.index_in(flat, value_set=tset)
        mask = pc.is_valid(pos).to_numpy(zero_copy_only=False)
        pairs = (
            pa.table(
                {
                    "doc": pa.array(parent[mask]),
                    "term": pos.filter(pa.array(mask)).cast(pa.int32()),
                }
            )
            .group_by(["doc", "term"])
            .aggregate([])
        )
        g = pairs.group_by("term").aggregate([([], "count_all")])
        term = g["term"].to_pylist() + [-1]
        val = [int(v) for v in g["count_all"].to_pylist()] + [len(flat)]
        return pa.table(
            {"term": pa.array(term, pa.int32()), "v": pa.array(val, pa.int64())}
        )

    rows = (
        ds.map_batches(stats_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("v"))
        .take_all()
    )  # bounded: ≤ len(terms)+1 rows
    total_len = 0
    idf = np.zeros(len(terms), np.int64)
    for r in rows:
        if r["term"] == -1:
            total_len = int(r["sum(v)"])
        elif r["sum(v)"] > 0:
            idf[r["term"]] = (n_docs * BM25_SCALE) // int(r["sum(v)"])
    total_len = max(total_len, 1)

    def score(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat, parent = tokens_flat(batch["text"])
        dl = np.bincount(parent, minlength=n).astype(np.int64)
        r = (dl * 1000 * n_docs) // total_len
        pos = pc.index_in(flat, value_set=tset)
        mask = pc.is_valid(pos).to_numpy(zero_copy_only=False)
        hits_term = (
            pos.filter(pa.array(mask)).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        hits_doc = parent[mask]
        # tf per (doc, term-in-query): dense (n × |terms|) count grid
        tf = np.bincount(
            hits_doc * len(terms) + hits_term, minlength=n * len(terms)
        ).reshape(n, len(terms)).astype(np.int64)
        num = idf[None, :] * 44_000 * tf
        den = 20_000 * tf + 6_000 + 18 * r[:, None]
        s = np.where(tf > 0, num // den, 0).sum(axis=1)
        # keep every doc with a query-term HIT, even at floor-truncated
        # score 0 (an extreme-length outlier) — the SQL oracle returns
        # those rows, so an s>0 filter would diverge on row membership
        keep = tf.sum(axis=1) > 0
        t = pa.table(
            {
                "doc_id": batch["doc_id"].filter(pa.array(keep)),
                "score": pa.array(s[keep], pa.int64()),
            }
        )
        if t.num_rows > k:
            order = np.lexsort(
                (
                    t["doc_id"].to_numpy(zero_copy_only=False),
                    -t["score"].to_numpy(zero_copy_only=False),
                )
            )[:k]
            t = t.take(pa.array(order))
        return t

    return (
        ds.map_batches(score, batch_format="pyarrow")
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(k)
    )


def search_bm25_sql(terms: list[str] | None = None, k: int = TFIDF_K) -> str:
    terms = list(terms or TFIDF_TERMS)
    in_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    return f"""
WITH toksall AS (
  SELECT doc_id, t.tok
  FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(tok)
  WHERE t.tok <> ''
),
dl AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toksall GROUP BY 1),
l AS (SELECT CAST(sum(dl) AS BIGINT) AS len_total FROM dl),
n AS (SELECT CAST(count(*) AS BIGINT) AS n_docs FROM documents),
tf AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf
       FROM toksall WHERE tok IN ({in_list}) GROUP BY 1, 2),
df AS (SELECT tok, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
       FROM toksall WHERE tok IN ({in_list}) GROUP BY 1)
SELECT tf.doc_id,
       CAST(sum(
         (((n.n_docs * {BM25_SCALE}) // df.df) * 44000 * tf.tf)
         // (20000*tf.tf + 6000 + 18*((dl.dl * 1000 * n.n_docs) // l.len_total))
       ) AS BIGINT) AS score
FROM tf JOIN df USING (tok) JOIN dl USING (doc_id)
CROSS JOIN n CROSS JOIN l
GROUP BY 1
ORDER BY score DESC, doc_id
LIMIT {k}
"""


def hybrid_search_rrf(
    sf_dir: str,
    *,
    terms: list[str] | None = None,
    query_vec_id: int = 0,
    k: int = TFIDF_K,
    rrf_k: int = 60,
) -> "pa.Table":
    """Hybrid retrieval — reciprocal-rank fusion of the lexical and the
    vector leg over the same corpus (``documents.doc_id`` ≡
    ``embeddings.vec_id``): BM25 top-k for ``terms`` fuses with exact
    cosine top-k for query vector ``query_vec_id`` under the standard RRF
    rule, integerized so both sides are exact —

        rrf_ppm(d) = Σ_leg  10⁶ // (rrf_k + rank_leg(d))

    with an absent leg contributing 0 (the union-of-top-k convention).
    Each leg runs its existing distributed plan (one stats pass + one
    scoring pass for BM25; broadcast query matrix + block-local top-k for
    the vector leg); the fusion itself touches only the two ≤k-row top
    lists, so it is a driver op at any corpus size.  Ranks tie-break by
    doc id on both sides (the legs' own convention)."""
    import os

    import pyarrow.parquet as pq_mod

    from ..stages.similarity import brute_force_topk

    bm = collect_table(search_bm25(sf_dir, terms=terms, k=k))
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qt = pq_mod.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "==", query_vec_id)],
    )
    qvec = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    ann = collect_table(
        brute_force_topk(
            emb,
            qvec,
            np.array([query_vec_id], dtype=np.int64),
            k=k,
            dtype=np.float64,
        )
    )

    ranks: dict[int, list[int]] = {}  # doc_id -> [bm25_rank, ann_rank]
    if bm is not None and bm.num_rows:
        order = np.lexsort(
            (
                bm["doc_id"].to_numpy(zero_copy_only=False),
                -bm["score"].to_numpy(zero_copy_only=False),
            )
        )
        for r, i in enumerate(order, 1):
            ranks.setdefault(int(bm["doc_id"][int(i)].as_py()), [0, 0])[0] = r
    if ann is not None and ann.num_rows:
        nid = ann["neighbor_id"].to_numpy(zero_copy_only=False)
        rk = ann["rank"].to_numpy(zero_copy_only=False)
        for d, r in zip(nid, rk):
            ranks.setdefault(int(d), [0, 0])[1] = int(r)

    docs = sorted(ranks)
    bm_r = [ranks[d][0] for d in docs]
    an_r = [ranks[d][1] for d in docs]
    rrf = [
        (1_000_000 // (rrf_k + b) if b else 0)
        + (1_000_000 // (rrf_k + a) if a else 0)
        for b, a in zip(bm_r, an_r)
    ]
    return pa.table(
        {
            "doc_id": pa.array(docs, pa.int64()),
            "bm25_rank": pa.array(bm_r, pa.int64()),
            "ann_rank": pa.array(an_r, pa.int64()),
            "rrf_ppm": pa.array(rrf, pa.int64()),
        }
    )


def hybrid_search_rrf_sql(
    terms: list[str] | None = None,
    query_vec_id: int = 0,
    k: int = TFIDF_K,
    rrf_k: int = 60,
) -> str:
    terms = list(terms or TFIDF_TERMS)
    in_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    return f"""
WITH toksall AS (
  SELECT doc_id, t.tok
  FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(tok)
  WHERE t.tok <> ''
),
dl AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toksall GROUP BY 1),
l AS (SELECT CAST(sum(dl) AS BIGINT) AS len_total FROM dl),
n AS (SELECT CAST(count(*) AS BIGINT) AS n_docs FROM documents),
tf AS (SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf
       FROM toksall WHERE tok IN ({in_list}) GROUP BY 1, 2),
df AS (SELECT tok, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
       FROM toksall WHERE tok IN ({in_list}) GROUP BY 1),
bm AS (
  SELECT tf.doc_id,
         CAST(sum(
           (((n.n_docs * {BM25_SCALE}) // df.df) * 44000 * tf.tf)
           // (20000*tf.tf + 6000 + 18*((dl.dl * 1000 * n.n_docs) // l.len_total))
         ) AS BIGINT) AS score
  FROM tf JOIN df USING (tok) JOIN dl USING (doc_id)
  CROSS JOIN n CROSS JOIN l
  GROUP BY 1
  ORDER BY score DESC, doc_id
  LIMIT {k}
),
bmr AS (
  SELECT doc_id,
         CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT)
           AS bm25_rank
  FROM bm
),
q AS (
  SELECT embedding::DOUBLE[] AS qe FROM embeddings
  WHERE vec_id = {query_vec_id}
),
s AS (
  SELECT e.vec_id AS doc_id,
         list_cosine_similarity(q.qe, e.embedding::DOUBLE[]) AS c
  FROM q, embeddings e WHERE e.vec_id <> {query_vec_id}
),
annr AS (
  SELECT doc_id,
         CAST(row_number() OVER (ORDER BY c DESC, doc_id) AS BIGINT)
           AS ann_rank
  FROM s QUALIFY ann_rank <= {k}
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(COALESCE(b.bm25_rank, 0) AS BIGINT) AS bm25_rank,
       CAST(COALESCE(a.ann_rank, 0) AS BIGINT) AS ann_rank,
       CAST(COALESCE(1000000 // ({rrf_k} + b.bm25_rank), 0)
          + COALESCE(1000000 // ({rrf_k} + a.ann_rank), 0) AS BIGINT)
         AS rrf_ppm
FROM bmr b FULL OUTER JOIN annr a USING (doc_id)
"""


# ---------------------------------------------------------------------------
# cross-source contamination matrix
# ---------------------------------------------------------------------------


def source_overlap_matrix(
    sf_dir: str, *, ngram: int = 3, n_buckets: int = 64
) -> ray.data.Dataset:
    """How much do corpus sources share verbatim text? — the pairwise
    contamination matrix: for every source pair (a < b), the number of
    DISTINCT word ``ngram``-shingles present in both.  The go/no-go
    analysis before mixing corpora ("is source X a re-crawl of Y?").

    Shape: per block, docs → n-grams (the shared vectorized
    ``ngram_rows``) → per-block distinct (gram, source) in C++, bucketed
    on a gram hash; ONE exchange, so each bucket holds every source of
    its grams; per bucket the gram runs are sorted and source PAIRS are
    emitted with the same slice-offset trick as ``ngram_rows`` (loop
    bounded by max sources per gram, not gram count), pre-counted in C++;
    a tiny final groupby sums the ≤ |sources|² partial rows.  Shingle
    payloads never leave the first exchange."""
    from ..hashing import string_hash64

    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def gram_source(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        grams, gparent = ngram_rows(flat, parent, ngram)
        src = batch["source"].take(pa.array(gparent))
        t = (
            pa.table({"g": grams, "source": src})
            .group_by(["g", "source"])
            .aggregate([])
        )
        bucket = (
            string_hash64(t["g"].combine_chunks()
                          if isinstance(t["g"], pa.ChunkedArray) else t["g"])
            % np.uint64(n_buckets)
        ).astype(np.int64)
        return t.append_column("bucket", pa.array(bucket, pa.int64()))

    def pairs(group: pa.Table) -> pa.Table:
        g = (
            group.group_by(["g", "source"]).aggregate([])
            .sort_by([("g", "ascending"), ("source", "ascending")])
        )
        n = g.num_rows
        empty = pa.table(
            {
                "source_a": pa.array([], pa.string()),
                "source_b": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        if n == 0:
            return empty
        enc = pc.dictionary_encode(g["g"])
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        run = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        src = g["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        # within a run sources are sorted + distinct, so offset-d pairs
        # are automatically (a < b); d is bounded by sources-per-gram
        outs = []
        d = 1
        while d < n:
            valid = run[: n - d] == run[d:]
            if not valid.any():
                break
            mask = pa.array(valid)
            outs.append(
                pa.table(
                    {
                        "source_a": src.slice(0, n - d).filter(mask),
                        "source_b": src.slice(d, n - d).filter(mask),
                    }
                )
            )
            d += 1
        if not outs:
            return empty
        t = pa.concat_tables(outs)
        c = t.group_by(["source_a", "source_b"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "source_a": c["source_a"],
                "source_b": c["source_b"],
                "n": c["count_all"].cast(pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(gram_source, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs, batch_format="pyarrow")
        .groupby(["source_a", "source_b"])
        .aggregate(Sum("n"))
        .rename_columns({"sum(n)": "shared_ngrams"})
    )


SOURCE_OVERLAP_SQL = """
WITH toks AS (
  SELECT source,
         list_filter(string_split_regex(lower(text), '\\s+'), t -> t <> '') AS tk
  FROM documents
),
ng AS (
  SELECT source, tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2] AS g
  FROM toks, unnest(generate_series(1, len(tk)-2)) AS t(i)
),
sg AS (SELECT DISTINCT source, g FROM ng)
SELECT a.source AS source_a, b.source AS source_b,
       CAST(count(*) AS BIGINT) AS shared_ngrams
FROM sg a JOIN sg b ON a.g = b.g AND a.source < b.source
GROUP BY 1, 2 ORDER BY 1, 2
"""


def doc_token_weight_join(sf_dir: str) -> ray.data.Dataset:
    """Per-document sum of global token frequencies via the SHUFFLE-JOIN
    plan — the at-scale alternative to ``token_rank_stats``'s broadcast
    vocab (a web-corpus vocabulary doesn't fit in plasma): token
    occurrences join the vocabulary aggregate on the token itself, and
    because natural-language tokens are zipf-distributed the join is
    salted (``cluster.salted_inner_join``) — 'the'-class hot tokens are
    detected in one candidate pass and spread across 8 salt partitions
    with only the vocab's hot rows replicated.  Per-doc partial combine
    precedes the final (doc) aggregation, so the second exchange carries
    one row per (doc, block)."""
    from ..cluster import salted_inner_join
    from ..stages.agg import bucket_groupby_sum

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def occ(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        ids = batch["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({"doc_id": ids.take(pa.array(parent)), "tok": flat})

    # materialized once: three consumers (vocab, hot-key scan, join left);
    # two int/string columns, ~2 bytes/corpus-char — object-store spill
    # handles web scale, recomputing the tokenize 3× would not
    occurrences = ds.map_batches(occ, batch_format="pyarrow").materialize()
    vocab = bucket_groupby_sum(
        occurrences.select_columns(["tok"]), ["tok"], [], count_col="n"
    ).materialize()
    # the vocab already holds EXACT counts — hot keys fall out of a
    # filter over it, no separate candidate pass
    total = vocab.sum("n")
    hot = [
        r["tok"]
        for r in vocab.filter(expr=f"n > {max(1, total // 50)}").take_all()
    ]  # bounded: keys above 2% of the corpus
    joined = salted_inner_join(
        occurrences,
        vocab,
        on="tok",
        left_cols=["doc_id", "tok"],
        right_cols=["n"],
        salts=8,
        hot_keys=hot,
        salt_source="doc_id",
    )

    def per_doc_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["doc_id"]).aggregate(
            [([], "count_all"), ("n", "sum")]
        )
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "n_tokens": g["count_all"].cast(pa.int64()),
                "sum_freq": g["n_sum"].cast(pa.int64()),
            }
        )

    return bucket_groupby_sum(
        joined.map_batches(per_doc_partial, batch_format="pyarrow"),
        ["doc_id"],
        ["n_tokens", "sum_freq"],
    )


DOC_TOKEN_WEIGHT_JOIN_SQL = """
WITH toks AS (
  SELECT doc_id, t.tok
  FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(tok)
  WHERE t.tok <> ''
),
vocab AS (SELECT tok, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY 1)
SELECT t.doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(sum(v.n) AS BIGINT) AS sum_freq
FROM toks t JOIN vocab v USING (tok)
GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# exact duplicated-substring spans (Lee et al. 2022, "Deduplicating Training
# Data Makes Language Models Better" — the n-gram-posting formulation)
# ---------------------------------------------------------------------------


def _dup_gram_dataset(
    ds: ray.data.Dataset, ngram: int, min_count: int
) -> ray.data.Dataset:
    """Materialized global duplicated-``ngram``-gram set: word n-grams
    whose TOTAL occurrence count across the corpus (within- and
    cross-document) is ``>= min_count``.

    Per-block partial counts (``pa.Table.group_by`` — the exchange carries
    one row per distinct gram per block, not one per occurrence) into the
    coarse-bucket C++ aggregate (``bucket_groupby_sum``; a
    ``Dataset.groupby`` over hundreds of thousands of distinct string keys
    is an order of magnitude slower), then the >=min_count survivors.
    Materialized because both probe plans need it whole (broadcast ships
    it; the join plan's planner sizes partitions from it) and it is the
    REDUCED set — bounded by distinct duplicated grams, typically orders
    of magnitude below corpus size."""
    from ..stages.agg import bucket_groupby_sum

    def local_counts(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        g, _ = ngram_rows(flat, parent, ngram)
        t = pa.table({"g": g}).group_by("g").aggregate([([], "count_all")])
        return pa.table({"g": t["g"], "n": t["count_all"].cast(pa.int64())})

    agg = bucket_groupby_sum(
        ds.map_batches(local_counts, batch_format="pyarrow"), ["g"], ["n"]
    )

    def only_dups(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch["n"], min_count)
        return pa.table({"g": batch.filter(keep)["g"]})

    return agg.map_batches(only_dups, batch_format="pyarrow").materialize()


def dup_gram_ref(dup: ray.data.Dataset):
    """Collect the (reduced, bounded) duplicated-gram set and broadcast it
    once via ``ray.put`` for the ``pc.is_in`` probe."""
    tab = collect_table(dup)
    arr = (
        pa.array([], pa.string())
        if tab is None
        else tab["g"].combine_chunks()
    )
    return ray.put(arr)


def _token_positions(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-token in-document position and per-run flat start offset for a
    flattened token stream (tokens of one document are contiguous).
    Returns ``(pos, row_flat_start)`` where ``row_flat_start`` maps a batch
    row index to the flat index of its first token (0 for token-less
    rows, which by construction never own a span)."""
    L = len(parent)
    if not L:
        return np.array([], np.int64), np.array([], np.int64)
    newrun = np.r_[True, parent[1:] != parent[:-1]]
    run_id = np.cumsum(newrun) - 1
    run_start = np.flatnonzero(newrun)
    pos = np.arange(L, dtype=np.int64) - run_start[run_id]
    row_flat_start = np.zeros(int(parent.max()) + 1, np.int64)
    row_flat_start[parent[run_start]] = run_start
    return pos, row_flat_start


def _batch_windows(batch: pa.Table, ngram: int):
    """Valid n-gram windows of one batch: ``(flat_tokens, parent,
    row_flat_start, grams, window_row, window_pos)`` — a window is valid
    iff its first and last token share a document row."""
    flat, parent = tokens_flat(batch["text"])
    pos, rfs = _token_positions(parent)
    w = len(flat) - ngram + 1
    if w <= 0:
        return (
            flat,
            parent,
            rfs,
            pa.array([], pa.string()),
            np.array([], np.int64),
            np.array([], np.int64),
        )
    cols = [flat.slice(k, w) for k in range(ngram)]
    g = pc.binary_join_element_wise(*cols, " ")
    valid = parent[:w] == parent[ngram - 1 :]
    return (
        flat,
        parent,
        rfs,
        g.filter(pa.array(valid)),
        parent[:w][valid],
        pos[:w][valid],
    )


def _merge_windows(
    hp: np.ndarray, hpos: np.ndarray, ngram: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge duplicated windows ``[pos, pos+n)`` — already lex-sorted by
    (doc, pos) — into maximal covered runs: ``(doc, start, end)``.  A
    window opens a new span iff it leaves the previous window's covered
    range (equal-length intervals ⇒ split where ``pos > prev_pos + n``)."""
    if not len(hp):
        e = np.array([], np.int64)
        return e, e, e
    new = np.r_[True, (hp[1:] != hp[:-1]) | (hpos[1:] > hpos[:-1] + ngram)]
    starts = np.flatnonzero(new)
    ends = np.r_[starts[1:], len(hp)] - 1
    return hp[starts], hpos[starts], hpos[ends] + ngram


def _batch_dup_spans(batch: pa.Table, dup_arr: pa.Array, ngram: int):
    """Broadcast-probe span machinery shared by find and scrub: probe the
    batch's n-grams against the broadcast duplicated-gram set and merge
    hit windows per document.  Everything is numpy / Arrow C++ — no
    per-row Python.

    Returns ``(flat_tokens, parent, span_row, span_start, span_end,
    row_flat_start)`` with spans in (row, start) stream order."""
    flat, parent, rfs, g, wrow, wpos = _batch_windows(batch, ngram)
    hit = pc.is_in(g, value_set=dup_arr).to_numpy(zero_copy_only=False)
    srow, sstart, send = _merge_windows(wrow[hit], wpos[hit], ngram)
    return flat, parent, srow, sstart, send, rfs


def _span_text(flat: pa.Array, abs_start: np.ndarray, lens: np.ndarray):
    """Join the tokens of each span ``[abs_start, abs_start+len)`` (flat
    stream indices) back into one string per span: one segmented-arange
    take + one C++ ``binary_join``."""
    total = int(lens.sum())
    idx = np.repeat(abs_start, lens) + (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(lens) - lens, lens)
    )
    toks = pc.take(flat, pa.array(idx, pa.int64()))
    offsets = pa.array(np.r_[np.int32(0), np.cumsum(lens).astype(np.int32)])
    return pc.binary_join(pa.ListArray.from_arrays(offsets, toks), " ")


def _span_table(
    batch: pa.Table,
    flat: pa.Array,
    rfs: np.ndarray,
    srow: np.ndarray,
    sstart: np.ndarray,
    send: np.ndarray,
) -> pa.Table:
    """The finder output block shared by every span reporter:
    ``(doc_id, span_start, span_end, span_tokens, span_text)``."""
    lens = send - sstart
    abs0 = (rfs[srow] + sstart) if len(srow) else np.array([], np.int64)
    return pa.table(
        {
            "doc_id": pc.take(batch["doc_id"], pa.array(srow, pa.int64())),
            "span_start": pa.array(sstart, pa.int64()),
            "span_end": pa.array(send, pa.int64()),
            "span_tokens": pa.array(lens, pa.int64()),
            "span_text": _span_text(flat, abs0, lens),
        }
    )


def _scrub_table(
    batch: pa.Table,
    flat: pa.Array,
    parent: np.ndarray,
    rfs: np.ndarray,
    srow: np.ndarray,
    ss: np.ndarray,
    se: np.ndarray,
) -> pa.Table:
    """The scrub output block shared by every span remover: drop covered
    tokens (diff/cumsum mask over the flat stream) and re-join survivors —
    ``(doc_id, clean_text, n_tokens, n_removed)``, one row per input row."""
    L = len(flat)
    n_rows = batch.num_rows
    cov = np.zeros(L + 1, np.int64)
    if len(srow):
        np.add.at(cov, rfs[srow] + ss, 1)
        np.add.at(cov, rfs[srow] + se, -1)
    keep = np.cumsum(cov[:L]) == 0
    n_tokens = np.bincount(parent, minlength=n_rows).astype(np.int64)
    kept = (
        np.bincount(parent[keep], minlength=n_rows).astype(np.int64)
        if L
        else np.zeros(n_rows, np.int64)
    )
    toks = flat.filter(pa.array(keep)) if L else flat
    offsets = pa.array(np.r_[np.int32(0), np.cumsum(kept).astype(np.int32)])
    clean = pc.binary_join(pa.ListArray.from_arrays(offsets, toks), " ")
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "clean_text": clean,
            "n_tokens": pa.array(n_tokens),
            "n_removed": pa.array(n_tokens - kept),
        }
    )


# span lists ride the doc-keyed join as CSV strings — acero rejects
# list-typed non-key payload columns; encode/decode stay in Arrow C++
# (cast→binary_join / split_pattern→cast).
_DOC_SPANS_TYPES = {
    "doc_id": pa.int64(),
    "starts": pa.string(),
    "ends": pa.string(),
}


def _doc_spans_join(
    ds: ray.data.Dataset,
    dup: ray.data.Dataset,
    ngram: int,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Join-plan span discovery — the at-scale escalation when the
    duplicated-gram set outgrows plasma: window occurrences
    ``(doc_id, pos, g)`` semi-join the dup set on the gram (planner
    bucket join — lazy, corpus-sized output allowed), survivors re-key
    by doc hash so each document's hit windows land in one group, and a
    vectorized lexsort + island walk merges them.  One row per document
    that owns at least one span: ``(doc_id, starts list, ends list)``."""
    from ..cluster import (
        assembly_buckets_for_bytes,
        dataset_size_estimate,
        equi_join,
    )
    from ..hashing import hash64_columns

    if n_buckets is None:
        # hit-window volume is bounded by the corpus scan; a fixed count
        # would be a per-task memory cliff at 100x (the assembly lesson)
        n_buckets = assembly_buckets_for_bytes(dataset_size_estimate(ds))

    def occ(batch: pa.Table) -> pa.Table:
        _, _, _, g, wrow, wpos = _batch_windows(batch, ngram)
        doc = pc.take(batch["doc_id"], pa.array(wrow, pa.int64()))
        return pa.table(
            {"doc_id": doc, "pos": pa.array(wpos, pa.int64()), "g": g}
        )

    hits = equi_join(
        ds.map_batches(occ, batch_format="pyarrow"),
        dup,
        on="g",
        join_type="left_semi",
        left_cols=["doc_id", "pos"],
        strategy="bucket",
        left_types={"doc_id": pa.int64(), "pos": pa.int64(), "g": pa.string()},
        right_types={"g": pa.string()},
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = hash64_columns(batch, ["doc_id"]) % np.uint64(n_buckets)
        return batch.append_column("_b", pa.array(b.astype(np.int64)))

    def merge(group: pa.Table) -> pa.Table:
        d = group["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        p = group["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((p, d))
        sd, ss, se = _merge_windows(d[order], p[order], ngram)
        doc_new = np.r_[True, sd[1:] != sd[:-1]] if len(sd) else np.array([], bool)
        di = np.flatnonzero(doc_new)
        counts = np.diff(np.r_[di, len(sd)])
        offsets = pa.array(
            np.r_[np.int32(0), np.cumsum(counts).astype(np.int32)]
        )

        def csv(vals: np.ndarray) -> pa.Array:
            strs = pc.cast(pa.array(vals, pa.int64()), pa.string())
            return pc.binary_join(
                pa.ListArray.from_arrays(offsets, strs), ","
            )

        return pa.table(
            {
                "doc_id": pa.array(sd[di], pa.int64()),
                "starts": csv(ss),
                "ends": csv(se),
            }
        )

    return (
        hits.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(merge, batch_format="pyarrow")
    )


def _flatten_span_lists(batch: pa.Table):
    """Explode per-doc ``starts``/``ends`` CSV columns (nulls — unmatched
    outer-join rows — contribute nothing): ``(span_row, start, end)``."""

    def parse(col) -> tuple[np.ndarray, np.ndarray]:
        tl = pc.split_pattern(col.combine_chunks(), ",")
        row = (
            pc.list_parent_indices(tl)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        vals = (
            pc.cast(pc.list_flatten(tl), pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return row, vals

    srow, ss = parse(batch["starts"])
    _, se = parse(batch["ends"])
    return srow, ss, se


def _resolve_probe(dup: ray.data.Dataset) -> str:
    """``broadcast`` while the materialized dup set's size estimate fits
    the join planner's cap (``cluster.BROADCAST_MAX_BYTES``, read at call
    time), else ``join``."""
    from ..cluster import BROADCAST_MAX_BYTES, dataset_size_estimate

    sz = dataset_size_estimate(dup)
    return "broadcast" if sz is None or sz <= BROADCAST_MAX_BYTES else "join"


def substring_dup_spans(
    sf_dir: str,
    *,
    ngram: int = 5,
    min_count: int = 2,
) -> ray.data.Dataset:
    """Exact duplicated-substring spans: for every document, the maximal
    token runs covered by word ``ngram``-grams that occur ``>= min_count``
    times in the whole corpus — the span-level (not document-level) exact
    dedup of Lee et al. 2022, reformulated as n-gram postings so it runs
    as two streaming passes instead of a suffix array.

    Probe plans (:func:`_resolve_probe` picks one):

    - ``broadcast`` — the duplicated-gram set ships once via plasma and
      pass 2 is a PURE MAP: window hits and the interval merge
      (equal-length intervals ⇒ islands split where ``pos > prev_pos+n``)
      are batch-local because a document is one row.  No exchange ever
      carries per-occurrence rows.  Correct whenever the dup set fits the
      object store — the overwhelmingly common case.
    - ``join`` — the at-scale escalation: occurrences semi-join the dup
      set through the planner (bucket strategy, lazy), merge after one
      doc-keyed exchange, and the bounded per-doc span lists join back to
      the corpus for text assembly.  Three exchanges, none of which holds
      the dup set in one heap.

    Output: one row per span ``(doc_id, span_start, span_end, span_tokens,
    span_text)`` with token-index bounds (end exclusive) over the
    lowercased whitespace tokenization shared with every text oracle."""
    from ..cluster import equi_join

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    dup = _dup_gram_dataset(ds, ngram, min_count)
    plan = _resolve_probe(dup)

    if plan == "broadcast":
        dup_ref = dup_gram_ref(dup)

        def find(batch: pa.Table) -> pa.Table:
            flat, _, srow, sstart, send, rfs = _batch_dup_spans(
                batch, ray.get(dup_ref), ngram
            )
            return _span_table(batch, flat, rfs, srow, sstart, send)

        out = ds.map_batches(find, batch_format="pyarrow")
    else:
        doc_spans = _doc_spans_join(ds, dup, ngram)
        joined = equi_join(
            ds,
            doc_spans,
            on="doc_id",
            join_type="inner",
            left_cols=["doc_id", "text"],
            right_cols=["starts", "ends"],
            strategy="bucket",
            right_types=_DOC_SPANS_TYPES,
        )

        def find_joined(batch: pa.Table) -> pa.Table:
            flat, parent = tokens_flat(batch["text"])
            _, rfs = _token_positions(parent)
            srow, ss, se = _flatten_span_lists(batch)
            return _span_table(batch, flat, rfs, srow, ss, se)

        out = joined.map_batches(find_joined, batch_format="pyarrow")

    return out.sort(["doc_id", "span_start"])


def substring_dup_scrub(
    sf_dir: str,
    *,
    ngram: int = 5,
    min_count: int = 2,
) -> ray.data.Dataset:
    """Remove every duplicated-substring span found by
    ``substring_dup_spans`` and re-join the surviving tokens: one row per
    document ``(doc_id, clean_text, n_tokens, n_removed)`` (documents with
    no duplicated span pass through with their full tokenization; fully
    covered documents come out empty).  Same probe plans as the finder
    (broadcast pass 2 is batch-local mask algebra; the join plan
    left-outer-joins the bounded per-doc span lists back to the corpus)."""
    return substring_dup_scrub_ds(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        ngram=ngram,
        min_count=min_count,
    )


def substring_dup_scrub_ds(
    ds: ray.data.Dataset,
    *,
    ngram: int = 5,
    min_count: int = 2,
) -> ray.data.Dataset:
    """Dataset-in variant of :func:`substring_dup_scrub` (the CLI / job
    entry point takes an arbitrary documents Dataset with ``doc_id`` +
    ``text`` columns)."""
    from ..cluster import equi_join

    dup = _dup_gram_dataset(ds, ngram, min_count)
    plan = _resolve_probe(dup)

    if plan == "broadcast":
        out = scrub_with_ref(ds, dup_gram_ref(dup), ngram)
    else:
        out = scrub_with_dup_join(ds, dup, ngram)

    return out.sort("doc_id")


def scrub_with_dup_join(
    ds: ray.data.Dataset, dup: ray.data.Dataset, ngram: int
) -> ray.data.Dataset:
    """Join-plan scrub over an arbitrary documents Dataset given the
    materialized duplicated-gram Dataset — the at-scale twin of
    :func:`scrub_with_ref`, shared with the checkpointed runner."""
    from ..cluster import equi_join

    doc_spans = _doc_spans_join(ds, dup, ngram)
    joined = equi_join(
        ds,
        doc_spans,
        on="doc_id",
        join_type="left_outer",
        left_cols=["doc_id", "text"],
        right_cols=["starts", "ends"],
        strategy="bucket",
        right_types=_DOC_SPANS_TYPES,
    )

    def scrub_joined(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        _, rfs = _token_positions(parent)
        srow, ss, se = _flatten_span_lists(batch)
        return _scrub_table(batch, flat, parent, rfs, srow, ss, se)

    return joined.map_batches(scrub_joined, batch_format="pyarrow")


def scrub_with_ref(
    ds: ray.data.Dataset, dup_ref, ngram: int
) -> ray.data.Dataset:
    """Broadcast-probe scrub over an arbitrary documents Dataset given an
    already-broadcast duplicated-gram set — the building block the
    checkpointed partition runner reuses (the dup set is corpus-GLOBAL,
    so it is built once per run, never per partition)."""

    def scrub(batch: pa.Table) -> pa.Table:
        flat, parent, srow, ss, se, rfs = _batch_dup_spans(
            batch, ray.get(dup_ref), ngram
        )
        return _scrub_table(batch, flat, parent, rfs, srow, ss, se)

    return ds.map_batches(scrub, batch_format="pyarrow")


def _substring_spans_cte(ngram: int, min_count: int) -> str:
    """Shared oracle CTE chain: tokens → positioned grams → duplicated
    grams → hit windows merged into maximal spans (same island rule)."""
    return f"""
toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\\s+'), t -> t <> '') AS tk
  FROM documents
),
grams AS (
  SELECT doc_id, i - 1 AS pos, array_to_string(tk[i : i + {ngram - 1}], ' ') AS g
  FROM toks, unnest(generate_series(1, len(tk) - {ngram - 1})) AS t(i)
),
dup AS (SELECT g FROM grams GROUP BY g HAVING count(*) >= {min_count}),
hits AS (
  SELECT doc_id, pos,
         lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) AS prev_pos
  FROM grams JOIN dup USING (g)
),
isl AS (
  SELECT doc_id, pos,
         sum(CASE WHEN prev_pos IS NULL OR pos > prev_pos + {ngram}
                  THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY pos) AS island
  FROM hits
),
spans AS (
  SELECT doc_id, min(pos) AS span_start, max(pos) + {ngram} AS span_end
  FROM isl GROUP BY doc_id, island
)"""


SUBSTRING_DUP_SPANS_SQL = f"""
WITH {_substring_spans_cte(5, 2)}
SELECT s.doc_id,
       CAST(s.span_start AS BIGINT) AS span_start,
       CAST(s.span_end AS BIGINT) AS span_end,
       CAST(s.span_end - s.span_start AS BIGINT) AS span_tokens,
       array_to_string(tk[s.span_start + 1 : s.span_end], ' ') AS span_text
FROM spans s JOIN toks USING (doc_id)
ORDER BY s.doc_id, s.span_start
"""


SUBSTRING_DUP_SCRUB_SQL = f"""
WITH {_substring_spans_cte(5, 2)},
covered AS (
  SELECT doc_id, unnest(generate_series(span_start, span_end - 1)) AS pos
  FROM spans
),
tokpos AS (
  SELECT doc_id, tk[i] AS tok, i - 1 AS pos
  FROM toks, unnest(generate_series(1, len(tk))) AS t(i)
),
kept AS (
  SELECT t.doc_id, string_agg(t.tok, ' ' ORDER BY t.pos) AS clean_text,
         count(*) AS n_kept
  FROM tokpos t LEFT JOIN covered c ON t.doc_id = c.doc_id AND t.pos = c.pos
  WHERE c.pos IS NULL GROUP BY t.doc_id
)
SELECT t.doc_id,
       coalesce(k.clean_text, '') AS clean_text,
       CAST(len(t.tk) AS BIGINT) AS n_tokens,
       CAST(len(t.tk) - coalesce(k.n_kept, 0) AS BIGINT) AS n_removed
FROM toks t LEFT JOIN kept k USING (doc_id)
ORDER BY t.doc_id
"""


def decontaminate_spans(
    sf_dir: str, *, ngram: int = 4, bench_mod: int = 41
) -> ray.data.Dataset:
    """Span-level benchmark decontamination: WHERE the contamination sits.
    For every training document (``doc_id % bench_mod != 0``), the maximal
    token runs covered by word ``ngram``-grams that appear anywhere in the
    held-out benchmark split (``doc_id % bench_mod == 0``) — the positional
    companion to :func:`decontaminate`'s per-doc flags, so contaminated
    passages can be excised (or audited) instead of dropping whole
    documents.

    Scale shape: identical to ``substring_dup_spans``'s broadcast plan
    with the benchmark gram set (small by construction — benchmarks are
    thousands of documents) standing in for the duplicated-gram set: the
    set ships once via plasma and the probe + interval merge is a pure
    batch-local map.  Output matches the finder's schema
    ``(doc_id, span_start, span_end, span_tokens, span_text)``."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    bench_ref = bench_ngram_ref(ds, ngram, bench_mod)

    def find(batch: pa.Table) -> pa.Table:
        keep = batch["doc_id"].to_numpy() % bench_mod != 0
        sub = batch.filter(pa.array(keep))
        flat, _, srow, ss, se, rfs = _batch_dup_spans(
            sub, ray.get(bench_ref), ngram
        )
        return _span_table(sub, flat, rfs, srow, ss, se)

    return ds.map_batches(find, batch_format="pyarrow").sort(
        ["doc_id", "span_start"]
    )


DECONTAMINATE_SPANS_SQL = """
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\\s+'), t -> t <> '') AS tk
  FROM documents
),
grams AS (
  SELECT doc_id, i - 1 AS pos, array_to_string(tk[i : i + 3], ' ') AS g
  FROM toks, unnest(generate_series(1, len(tk) - 3)) AS t(i)
),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 41 = 0),
hits AS (
  SELECT g.doc_id, g.pos,
         lag(g.pos) OVER (PARTITION BY g.doc_id ORDER BY g.pos) AS prev_pos
  FROM grams g JOIN bench USING (g) WHERE g.doc_id % 41 <> 0
),
isl AS (
  SELECT doc_id, pos,
         sum(CASE WHEN prev_pos IS NULL OR pos > prev_pos + 4
                  THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY pos) AS island
  FROM hits
),
spans AS (
  SELECT doc_id, min(pos) AS span_start, max(pos) + 4 AS span_end
  FROM isl GROUP BY doc_id, island
)
SELECT s.doc_id,
       CAST(s.span_start AS BIGINT) AS span_start,
       CAST(s.span_end AS BIGINT) AS span_end,
       CAST(s.span_end - s.span_start AS BIGINT) AS span_tokens,
       array_to_string(tk[s.span_start + 1 : s.span_end], ' ') AS span_text
FROM spans s JOIN toks USING (doc_id)
ORDER BY s.doc_id, s.span_start
"""


def decontaminate_scrub(
    sf_dir: str, *, ngram: int = 4, bench_mod: int = 41
) -> ray.data.Dataset:
    """Excise benchmark contamination instead of dropping documents:
    every training document with the spans :func:`decontaminate_spans`
    reports REMOVED and the survivors re-joined — one row per training
    document ``(doc_id, clean_text, n_tokens, n_removed)``.  Same
    broadcast scale shape (the probe + mask algebra is a pure batch-local
    map; benchmark-split docs are excluded from the output entirely)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    bench_ref = bench_ngram_ref(ds, ngram, bench_mod)

    def scrub(batch: pa.Table) -> pa.Table:
        keep = batch["doc_id"].to_numpy() % bench_mod != 0
        sub = batch.filter(pa.array(keep))
        flat, parent, srow, ss, se, rfs = _batch_dup_spans(
            sub, ray.get(bench_ref), ngram
        )
        return _scrub_table(sub, flat, parent, rfs, srow, ss, se)

    return ds.map_batches(scrub, batch_format="pyarrow").sort("doc_id")


DECONTAMINATE_SCRUB_SQL = """
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\\s+'), t -> t <> '') AS tk
  FROM documents
),
grams AS (
  SELECT doc_id, i - 1 AS pos, array_to_string(tk[i : i + 3], ' ') AS g
  FROM toks, unnest(generate_series(1, len(tk) - 3)) AS t(i)
),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 41 = 0),
hits AS (
  SELECT g.doc_id, g.pos,
         lag(g.pos) OVER (PARTITION BY g.doc_id ORDER BY g.pos) AS prev_pos
  FROM grams g JOIN bench USING (g) WHERE g.doc_id % 41 <> 0
),
isl AS (
  SELECT doc_id, pos,
         sum(CASE WHEN prev_pos IS NULL OR pos > prev_pos + 4
                  THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY pos) AS island
  FROM hits
),
spans AS (
  SELECT doc_id, min(pos) AS span_start, max(pos) + 4 AS span_end
  FROM isl GROUP BY doc_id, island
),
covered AS (
  SELECT doc_id, unnest(generate_series(span_start, span_end - 1)) AS pos
  FROM spans
),
tokpos AS (
  SELECT doc_id, tk[i] AS tok, i - 1 AS pos
  FROM toks, unnest(generate_series(1, len(tk))) AS t(i)
  WHERE doc_id % 41 <> 0
),
kept AS (
  SELECT t.doc_id, string_agg(t.tok, ' ' ORDER BY t.pos) AS clean_text,
         count(*) AS n_kept
  FROM tokpos t LEFT JOIN covered c ON t.doc_id = c.doc_id AND t.pos = c.pos
  WHERE c.pos IS NULL GROUP BY t.doc_id
)
SELECT t.doc_id,
       coalesce(k.clean_text, '') AS clean_text,
       CAST(len(t.tk) AS BIGINT) AS n_tokens,
       CAST(len(t.tk) - coalesce(k.n_kept, 0) AS BIGINT) AS n_removed
FROM toks t LEFT JOIN kept k USING (doc_id)
WHERE t.doc_id % 41 <> 0
ORDER BY t.doc_id
"""


def skipgram_pairs(
    sf_dir: str, *, max_dist: int = 3, k: int = 50
) -> ray.data.Dataset:
    """Windowed co-occurrence counts — the GloVe/embedding-training
    statistic: unordered token pairs co-occurring within ``max_dist``
    positions (every ordered occurrence at offset 1..max_dist counts
    once; a pair seen both ways accumulates both), global top-``k`` by
    count.

    Scale shape: per block, each offset is two zero-copy slices of the
    flat token stream with an elementwise ``min/max`` normalization — no
    pair materializes per document; blocks reduce to per-block pair
    counts (``pa.Table.group_by``) before the coarse-bucket aggregate;
    each pair lives in one final bucket so the per-bucket top-``k``
    before the global sort+limit is exact."""
    from ..stages.agg import bucket_groupby_sum

    ds = read_table(sf_dir, "documents", columns=["text"])

    def local_counts(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        L = len(flat)
        parts = []
        for off in range(1, max_dist + 1):
            w = L - off
            if w <= 0:
                continue
            a, b = flat.slice(0, w), flat.slice(off, w)
            valid = pa.array(parent[:w] == parent[off:])
            parts.append(
                pa.table(
                    {
                        "w1": pc.min_element_wise(a, b).filter(valid),
                        "w2": pc.max_element_wise(a, b).filter(valid),
                    }
                )
            )
        if not parts:
            return pa.table(
                {"w1": pa.array([], pa.string()),
                 "w2": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        g = pa.concat_tables(parts).group_by(["w1", "w2"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {"w1": g["w1"], "w2": g["w2"],
             "n": g["count_all"].cast(pa.int64())}
        )

    agg = bucket_groupby_sum(
        ds.map_batches(local_counts, batch_format="pyarrow"),
        ["w1", "w2"],
        ["n"],
    )

    def local_top(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False)
        w1 = batch["w1"].to_numpy(zero_copy_only=False)
        w2 = batch["w2"].to_numpy(zero_copy_only=False)
        order = np.lexsort((w2, w1, -n))[:k]
        return batch.take(pa.array(np.sort(order), pa.int64()))

    return (
        agg.map_batches(local_top, batch_format="pyarrow")
        .sort(["n", "w1", "w2"], descending=[True, False, False])
        .limit(k)
    )


SKIPGRAM_PAIRS_SQL = """
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\\s+'), t -> t <> '') AS tk
  FROM documents
),
pos AS (
  SELECT doc_id, i - 1 AS pos, tk[i] AS tok
  FROM toks, unnest(generate_series(1, len(tk))) AS t(i)
),
pairs AS (
  SELECT least(a.tok, b.tok) AS w1, greatest(a.tok, b.tok) AS w2
  FROM pos a JOIN pos b
    ON a.doc_id = b.doc_id AND b.pos - a.pos BETWEEN 1 AND 3
)
SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
FROM pairs GROUP BY 1, 2 ORDER BY n DESC, w1, w2 LIMIT 50
"""


def doc_dup_fraction(
    sf_dir: str,
    *,
    ngram: int = 5,
    min_count: int = 2,
) -> ray.data.Dataset:
    """Per-document duplicated-content score — the corpus-wide companion
    to :func:`doc_repetition`'s within-doc signals and the standard
    filter statistic behind span-level dedup thresholds: for every
    document, its window count, how many windows are duplicated
    (corpus-wide occurrence >= ``min_count``), and the fraction of TOKENS
    covered by duplicated windows in parts-per-million (integer, exact).

    Probe plans mirror ``substring_dup_spans``: ``broadcast`` is the
    two-pass pure-map shape (one ``np.add.at`` scatter per batch);
    ``join`` is the at-scale escalation when the dup-gram set outgrows
    plasma — window occurrences semi-join the dup set, per-doc window
    counts and merged-span coverage reduce through keyed exchanges, and
    two planner left-outer joins stitch the bounded per-doc tables back
    to the corpus scan; :func:`_resolve_probe` picks by the materialized
    dup-set size."""
    from ..cluster import equi_join

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    dup = _dup_gram_dataset(ds, ngram, min_count)
    plan = _resolve_probe(dup)

    if plan == "join":
        return _doc_dup_fraction_join(ds, dup, ngram, equi_join)
    dup_ref = dup_gram_ref(dup)

    def score(batch: pa.Table) -> pa.Table:
        flat, parent, rfs, g, wrow, wpos = _batch_windows(batch, ngram)
        n_rows = batch.num_rows
        hit = pc.is_in(g, value_set=ray.get(dup_ref)).to_numpy(
            zero_copy_only=False
        )
        n_windows = np.zeros(n_rows, np.int64)
        np.add.at(n_windows, wrow, 1)
        n_dup = np.zeros(n_rows, np.int64)
        np.add.at(n_dup, wrow, hit.astype(np.int64))
        # covered-token count per doc via the shared merge
        srow, ss, se = _merge_windows(wrow[hit], wpos[hit], ngram)
        covered = np.zeros(n_rows, np.int64)
        np.add.at(covered, srow, se - ss)
        n_tokens = np.bincount(parent, minlength=n_rows).astype(np.int64)
        ppm = np.where(
            n_tokens > 0, covered * 1_000_000 // np.maximum(n_tokens, 1), 0
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_windows": pa.array(n_windows),
                "n_dup_windows": pa.array(n_dup),
                "n_tokens": pa.array(n_tokens),
                "dup_token_ppm": pa.array(ppm.astype(np.int64)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow").sort("doc_id")


def _doc_dup_fraction_join(
    ds: ray.data.Dataset, dup: ray.data.Dataset, ngram: int, equi_join
) -> ray.data.Dataset:
    """Join-plan per-doc dup scoring: everything that meets the corpus is
    an exchange over REDUCED per-doc rows."""
    from ..stages.agg import bucket_groupby_agg

    def occ(batch: pa.Table) -> pa.Table:
        _, _, _, g, wrow, wpos = _batch_windows(batch, ngram)
        doc = pc.take(batch["doc_id"], pa.array(wrow, pa.int64()))
        return pa.table(
            {"doc_id": doc, "pos": pa.array(wpos, pa.int64()), "g": g}
        )

    hits = equi_join(
        ds.map_batches(occ, batch_format="pyarrow"),
        dup,
        on="g",
        join_type="left_semi",
        left_cols=["doc_id", "pos"],
        strategy="bucket",
        left_types={"doc_id": pa.int64(), "pos": pa.int64(), "g": pa.string()},
        right_types={"g": pa.string()},
    )
    dupw = bucket_groupby_agg(
        hits, ["doc_id"], [(None, "count", "n_dup_windows")]
    )

    def covered_of(batch: pa.Table) -> pa.Table:
        srow, ss, se = _flatten_span_lists(batch)
        cov = np.zeros(batch.num_rows, np.int64)
        np.add.at(cov, srow, se - ss)
        return pa.table(
            {"doc_id": batch["doc_id"], "covered": pa.array(cov, pa.int64())}
        )

    spans_cov = _doc_spans_join(ds, dup, ngram).map_batches(
        covered_of, batch_format="pyarrow"
    )

    def base(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        n_rows = batch.num_rows
        n_tokens = np.bincount(parent, minlength=n_rows).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_windows": pa.array(
                    np.maximum(n_tokens - ngram + 1, 0), pa.int64()
                ),
                "n_tokens": pa.array(n_tokens),
            }
        )

    j1 = equi_join(
        ds.map_batches(base, batch_format="pyarrow"),
        dupw,
        on="doc_id",
        join_type="left_outer",
        left_cols=["doc_id", "n_windows", "n_tokens"],
        right_cols=["n_dup_windows"],
        strategy="bucket",
        right_types={"doc_id": pa.int64(), "n_dup_windows": pa.int64()},
    )
    j2 = equi_join(
        j1,
        spans_cov,
        on="doc_id",
        join_type="left_outer",
        left_cols=["doc_id", "n_windows", "n_tokens", "n_dup_windows"],
        right_cols=["covered"],
        strategy="bucket",
        right_types={"doc_id": pa.int64(), "covered": pa.int64()},
    )

    def finish(batch: pa.Table) -> pa.Table:
        nt = batch["n_tokens"].to_numpy(zero_copy_only=False)
        cov = (
            batch["covered"]
            .fill_null(0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        ppm = np.where(nt > 0, cov * 1_000_000 // np.maximum(nt, 1), 0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_windows": batch["n_windows"],
                "n_dup_windows": batch["n_dup_windows"].fill_null(0),
                "n_tokens": batch["n_tokens"],
                "dup_token_ppm": pa.array(ppm.astype(np.int64)),
            }
        )

    return j2.map_batches(finish, batch_format="pyarrow").sort("doc_id")


DOC_DUP_FRACTION_SQL = f"""
WITH {_substring_spans_cte(5, 2)},
wd AS (
  SELECT g.doc_id,
         CAST(count(*) AS BIGINT) AS n_windows,
         CAST(sum(CASE WHEN d.g IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_dup_windows
  FROM grams g LEFT JOIN dup d USING (g) GROUP BY 1
),
cov AS (
  SELECT doc_id, CAST(sum(span_end - span_start) AS BIGINT) AS covered
  FROM spans GROUP BY 1
)
SELECT t.doc_id,
       coalesce(w.n_windows, 0) AS n_windows,
       coalesce(w.n_dup_windows, 0) AS n_dup_windows,
       CAST(len(t.tk) AS BIGINT) AS n_tokens,
       CASE WHEN len(t.tk) > 0
            THEN coalesce(c.covered, 0) * 1000000 // len(t.tk)
            ELSE 0 END AS dup_token_ppm
FROM toks t
LEFT JOIN wd w USING (doc_id)
LEFT JOIN cov c USING (doc_id)
ORDER BY t.doc_id
"""


def source_divergence(sf_dir: str) -> ray.data.Dataset:
    """Per-source lexical drift: the EXACT total-variation distance (in
    integer ppm) between each source's token distribution and the whole
    corpus's — the mixture-debugging signal (DoReMi/DSIR-adjacent) that
    flags a source whose vocabulary departs from the pile it feeds.

    ``tv_ppm = 10^6 · Σ_t |c_st·N − c_t·n_s| // (2·n_s·N)`` where
    ``c_st`` is the source's count of token ``t``, ``c_t`` the corpus
    count, ``n_s``/``N`` the source/corpus token totals.  Tokens absent
    from the source contribute in closed form (``n_s·(N − Σ_{t∈s} c_t)``)
    so the cross product source × vocabulary is never built.

    Shape: per-block C++ (source, token) count partials, ONE coarse-bucket
    exchange (volume = sources × vocab per block, independent of row
    count), and the finish runs on the collected vocabulary-bounded table —
    numpy int64 when every product provably fits (``2·N² < 2^63``), exact
    Python ints past that horizon, mirroring the DuckDB HUGEINT oracle in
    both regimes."""
    from ..cluster import collect_table
    from ..stages.agg import bucket_groupby_sum

    docs = read_table(sf_dir, "documents", columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        src = batch["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        g = (
            pa.table(
                {"source": src.take(pa.array(parent)), "token": flat}
            )
            .group_by(["source", "token"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "source": g["source"],
                "token": g["token"],
                "c": g["count_all"].cast(pa.int64()),
            }
        )

    red = collect_table(
        bucket_groupby_sum(
            docs.map_batches(partial, batch_format="pyarrow"),
            ["source", "token"],
            ["c"],
        )
    )
    if red is None:
        red = pa.table(
            {
                "source": pa.array([], pa.string()),
                "token": pa.array([], pa.string()),
                "c": pa.array([], pa.int64()),
            }
        )

    def _codes(col) -> tuple[np.ndarray, pa.Array]:
        enc = pc.dictionary_encode(col)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        return (
            enc.indices.to_numpy(zero_copy_only=False).astype(np.int64),
            enc.dictionary,
        )

    s_codes, s_dict = _codes(red["source"])
    t_codes, _ = _codes(red["token"])
    c = red["c"].to_numpy(zero_copy_only=False).astype(np.int64)
    n_src = len(s_dict)
    n_tok_vals = int(t_codes.max()) + 1 if len(t_codes) else 0

    ct = np.zeros(n_tok_vals, np.int64)
    np.add.at(ct, t_codes, c)
    ns = np.zeros(n_src, np.int64)
    np.add.at(ns, s_codes, c)
    ndist = np.zeros(n_src, np.int64)
    np.add.at(ndist, s_codes, 1)
    N = int(c.sum())

    if N and 2 * N * N < _TV_INT64_HORIZON:
        term = np.abs(c * N - ct[t_codes] * ns[s_codes])
        tsum = np.zeros(n_src, np.int64)
        np.add.at(tsum, s_codes, term)
        cov = np.zeros(n_src, np.int64)
        np.add.at(cov, s_codes, ct[t_codes])
        tv = [
            (1_000_000 * (int(tsum[i]) + int(ns[i]) * (N - int(cov[i]))))
            // (2 * int(ns[i]) * N)
            if ns[i]
            else 0
            for i in range(n_src)
        ]
    else:
        # exact Python-int path past the int64 product horizon — the
        # reduced table is vocabulary-bounded, so this stays cheap
        tsum_py = [0] * n_src
        cov_py = [0] * n_src
        for i in range(len(c)):
            si, ti, ci = int(s_codes[i]), int(t_codes[i]), int(c[i])
            tsum_py[si] += abs(ci * N - int(ct[ti]) * int(ns[si]))
            cov_py[si] += int(ct[ti])
        tv = [
            (1_000_000 * (tsum_py[i] + int(ns[i]) * (N - cov_py[i])))
            // (2 * int(ns[i]) * N)
            if ns[i] and N
            else 0
            for i in range(n_src)
        ]

    out = pa.table(
        {
            "source": s_dict,
            "n_tokens": pa.array(ns, pa.int64()),
            "n_distinct_tokens": pa.array(ndist, pa.int64()),
            "tv_ppm": pa.array(np.asarray(tv, np.int64), pa.int64()),
        }
    ).sort_by("source")
    return ray.data.from_arrow(out)


SOURCE_DIVERGENCE_SQL = """
WITH words AS (
  SELECT source, w
  FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(w)
  WHERE w <> ''
),
st AS (
  SELECT source, w, CAST(count(*) AS BIGINT) AS c FROM words GROUP BY 1, 2
),
tot AS (SELECT w, sum(c) AS ct FROM st GROUP BY 1),
ns AS (
  SELECT source, sum(c) AS n, CAST(count(*) AS BIGINT) AS nd
  FROM st GROUP BY 1
),
nn AS (SELECT sum(c) AS N FROM st),
terms AS (
  SELECT st.source,
         sum(abs(st.c * nn.N - tot.ct * ns.n)) AS tsum,
         sum(tot.ct) AS cov
  FROM st JOIN tot USING (w) JOIN ns USING (source) CROSS JOIN nn
  GROUP BY 1
)
SELECT ns.source,
       CAST(ns.n AS BIGINT) AS n_tokens,
       ns.nd AS n_distinct_tokens,
       CAST(1000000 * (t.tsum + ns.n * (nn.N - t.cov))
            // (2 * ns.n * nn.N) AS BIGINT) AS tv_ppm
FROM ns JOIN terms t USING (source) CROSS JOIN nn
ORDER BY ns.source
"""


def _corpus_word_counts(sf_dir: str) -> ray.data.Dataset:
    """The corpus word-frequency table (the tokenizer-training reduction):
    per-block word-count partials through ONE vocab-bounded coarse-bucket
    exchange — shared by :func:`bpe_pair_counts` and the BPE trainer."""
    import os as _os

    import pyarrow.parquet as _pq

    from ..stages.agg import bucket_groupby_sum

    # a zero-row corpus leaves the partials with no derivable schema —
    # answer from parquet metadata without reading any data
    meta = _pq.read_metadata(_os.path.join(sf_dir, "documents.parquet"))
    if meta.num_rows == 0:
        return ray.data.from_arrow(
            pa.table(
                {"w": pa.array([], pa.string()),
                 "c": pa.array([], pa.int64())}
            )
        )

    docs = read_table(sf_dir, "documents", columns=["text"])

    def wc_partial(batch: pa.Table) -> pa.Table:
        flat, _ = tokens_flat(batch["text"])
        g = pa.table({"w": flat}).group_by("w").aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {"w": g["w"], "c": g["count_all"].cast(pa.int64())}
        )

    return bucket_groupby_sum(
        docs.map_batches(wc_partial, batch_format="pyarrow"),
        ["w"],
        ["c"],
    )


def bpe_pair_counts(sf_dir: str, *, top_k: int = 50) -> ray.data.Dataset:
    """The first step of byte-level BPE tokenizer training (Sennrich et
    al. 2016 / GPT-2): the merge-candidate table — every adjacent BYTE
    pair within a word, weighted by the word's corpus frequency, top-k by
    (count desc, pair asc).  Byte pairs equal character pairs on this
    ASCII corpus, which is what the SQL oracle (per-character ``substr``)
    replicates.

    Shape: per-block word-count partials through ONE vocab-bounded
    coarse-bucket exchange; each reduced-vocab block then walks its
    words' raw Arrow byte buffers — adjacency positions from the string
    offsets, pair code ``256·b1 + b2``, one ``np.add.at`` weighted
    bincount, zero per-word Python — and emits per-block (pair, n)
    partials whose space is ≤ 256² at ANY corpus size, so the final merge
    is a driver bincount, not an exchange."""
    vocab = _corpus_word_counts(sf_dir)

    _EMPTY_PAIRS = pa.table(
        {"code": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _EMPTY_PAIRS
        w = batch["w"]
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        c = batch["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        bin_arr = w.cast(pa.binary())
        buffers = bin_arr.buffers()
        offsets = np.frombuffer(buffers[1], np.int32)[
            bin_arr.offset : bin_arr.offset + len(bin_arr) + 1
        ].astype(np.int64)
        data = np.frombuffer(buffers[2], np.uint8)
        starts, ends = offsets[:-1], offsets[1:]
        lens = ends - starts
        # adjacency: byte position p pairs with p+1 iff p+1 < word end
        word_of = np.repeat(np.arange(len(lens)), np.maximum(lens - 1, 0))
        local = (
            np.arange(int(np.maximum(lens - 1, 0).sum()), dtype=np.int64)
            - np.repeat(
                np.cumsum(np.maximum(lens - 1, 0)) - np.maximum(lens - 1, 0),
                np.maximum(lens - 1, 0),
            )
        )
        pos = starts[word_of] + local
        code = data[pos].astype(np.int64) * 256 + data[pos + 1]
        n = np.zeros(65536, np.int64)
        np.add.at(n, code, c[word_of])
        nz = np.flatnonzero(n)
        return pa.table(
            {
                "code": pa.array(nz, pa.int64()),
                "n": pa.array(n[nz], pa.int64()),
            }
        )

    pt = collect_table(
        vocab.map_batches(pair_partial, batch_format="pyarrow")
    )
    if pt is None or pt.num_rows == 0:
        return ray.data.from_arrow(
            pa.table(
                {"pair": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        )
    code = pt["code"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnt = pt["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    tot = np.zeros(65536, np.int64)
    np.add.at(tot, code, cnt)
    nz = np.flatnonzero(tot)
    pairs = np.array(
        [chr(v >> 8) + chr(v & 255) for v in nz], dtype=object
    )
    order = np.lexsort((pairs, -tot[nz]))[:top_k]
    return ray.data.from_arrow(
        pa.table(
            {
                "pair": pa.array(pairs[order].tolist(), pa.string()),
                "n": pa.array(tot[nz][order], pa.int64()),
            }
        )
    )


def bpe_pair_counts_sql(top_k: int = 50) -> str:
    return f"""
WITH words AS (
  SELECT w, CAST(count(*) AS BIGINT) AS c
  FROM documents,
       unnest(string_split_regex(lower(text), '\\s+')) AS t(w)
  WHERE w <> ''
  GROUP BY 1
),
pairs AS (
  SELECT substr(w, i, 2) AS pair, c
  FROM words, unnest(generate_series(1, length(w) - 1)) AS t(i)
)
SELECT pair, CAST(sum(c) AS BIGINT) AS n
FROM pairs GROUP BY 1
ORDER BY n DESC, pair LIMIT {top_k}
"""


def _trained_merges(
    sf_dir: str, n_merges: int, min_count: int
) -> list[tuple[str, str, int]]:
    """Shared trainer entry: one word-frequency exchange, then the pure
    merge loop (``functions.bpe.train_merges``) over the collected
    vocabulary-bounded table."""
    from ..functions import bpe

    vt = collect_table(_corpus_word_counts(sf_dir))
    if vt is None or vt.num_rows == 0:
        return []
    # deterministic loop order regardless of exchange layout
    vt = vt.sort_by("w")
    return bpe.train_merges(
        vt["w"].to_pylist(),
        vt["c"].to_numpy(zero_copy_only=False),
        n_merges,
        min_count=min_count,
    )


def bpe_train_merges(
    sf_dir: str, *, n_merges: int = 12, min_count: int = 1
) -> ray.data.Dataset:
    """Character-level BPE tokenizer TRAINING (Sennrich et al. 2016):
    the full iterative merge loop, not just the first candidate table —
    one row per learned merge, rank order:
    ``(rank, left, right, merged, pair_count)`` with the documented
    tie-break (count desc, left asc, right asc).

    Scale plan: the corpus is touched by exactly ONE exchange — the
    word-frequency reduction shared with :func:`bpe_pair_counts` — and
    every training round runs over that vocabulary-bounded table on the
    driver, the same corpus→counts→train decomposition real BPE trainers
    use.  Adding merges costs zero additional corpus passes.

    No ANSI-SQL equivalent (iterative re-segmentation); the driver oracle
    is a committed fixture (``fixtures/expected_bpe_merges.parquet``) and
    semantic correctness is established by the brute-force reference in
    tests/test_bpe.py."""
    merges = _trained_merges(sf_dir, n_merges, min_count)
    return ray.data.from_arrow(
        pa.table(
            {
                "rank": pa.array(range(1, len(merges) + 1), pa.int64()),
                "left": pa.array([m[0] for m in merges], pa.string()),
                "right": pa.array([m[1] for m in merges], pa.string()),
                "merged": pa.array(
                    [m[0] + m[1] for m in merges], pa.string()
                ),
                "pair_count": pa.array(
                    [m[2] for m in merges], pa.int64()
                ),
            }
        )
    )


def bpe_encode_stats(
    sf_dir: str,
    *,
    n_merges: int = 12,
    min_count: int = 1,
    merges: list[tuple[str, str, int]] | None = None,
) -> ray.data.Dataset:
    """Apply a trained BPE merge table to the corpus (GPT-2 greedy
    rank-order encoding) and report per-document compression: one row per
    document, ``(doc_id, n_words, n_char_tokens, n_bpe_tokens)`` —
    ``n_char_tokens`` is the pre-merge character-token count,
    ``n_bpe_tokens`` the post-merge count.

    ``merges``: a precomputed rank-ordered merge list (as
    :func:`functions.bpe.train_merges` returns) — callers that already
    trained (the CLI) pass it so the corpus word-count exchange and the
    merge loop are not paid a second time; omitted, the trainer runs.

    Scale plan: the merge table (≤ ``n_merges`` rows) broadcasts once via
    plasma; encoding is a ZERO-SHUFFLE map that encodes each DISTINCT
    word once per block (dictionary encode, the dsir pattern) and maps
    token counts back to occurrences vectorized, then sums per document
    inside the block — documents never leave their block and no exchange
    exists anywhere in the encode (row order is block order; every
    comparison downstream is order-insensitive)."""
    from ..functions import bpe

    if merges is None:
        merges = _trained_merges(sf_dir, n_merges, min_count)
    ranks = {(l, r): i for i, (l, r, _) in enumerate(merges)}
    ranks_ref = ray.put(ranks)

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def encode_block(batch: pa.Table) -> pa.Table:
        rk = ray.get(ranks_ref)
        flat, parent = tokens_flat(batch["text"])
        n_rows = batch.num_rows
        n_words = np.zeros(n_rows, np.int64)
        n_char = np.zeros(n_rows, np.int64)
        n_bpe = np.zeros(n_rows, np.int64)
        if len(flat):
            dic = flat.dictionary_encode()
            codes = dic.indices.to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            uniq = dic.dictionary.to_pylist()
            u_char = np.array([len(w) for w in uniq], np.int64)
            u_bpe = np.array(
                [len(bpe.encode_word(w, rk)) for w in uniq], np.int64
            )
            np.add.at(n_words, parent, 1)
            np.add.at(n_char, parent, u_char[codes])
            np.add.at(n_bpe, parent, u_bpe[codes])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(n_words, pa.int64()),
                "n_char_tokens": pa.array(n_char, pa.int64()),
                "n_bpe_tokens": pa.array(n_bpe, pa.int64()),
            }
        )

    return docs.map_batches(encode_block, batch_format="pyarrow")


def _stopword_set(
    df_ds: ray.data.Dataset, top_k: int
) -> pa.Array:
    """EXACT top-k tokens by (df desc, token asc) from a reduced
    (token, df) Dataset — per-block top-k prune (exact: the global top-k
    is a subset of the union of block top-ks over the unique-token
    table), tiny sort + limit, returned SORTED for the ``pc.is_in``
    probe.  Shared by :func:`doc_rarity` and the fused
    :func:`corpus_quality_filter` so the tie-break rule cannot drift
    between them."""

    def local_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= top_k:
            return batch
        order = pc.sort_indices(
            batch,
            sort_keys=[("df", "descending"), ("token", "ascending")],
        )
        return batch.take(order.slice(0, top_k))

    top = (
        df_ds.map_batches(local_topk, batch_format="pyarrow")
        .sort(["df", "token"], descending=[True, False])
        .limit(top_k)
        .take_all()
    )
    return pa.array(sorted(r["token"] for r in top), pa.string())


def doc_keywords(sf_dir: str, *, top_k: int = 5) -> ray.data.Dataset:
    """Per-document keyword extraction: the ``top_k`` terms by the
    integer TF-IDF lift ``score = 10^6·tf // df`` (tf = in-doc count,
    df = corpus document frequency; within one document the corpus size
    is a constant, so this ranks identically to classic tf·idf while
    staying exact in SQL), emitted as a ``"term:score,…"`` CSV ordered by
    (score desc, term asc) — the tagging/snippet primitive every corpus
    browser wants.

    Shape: the document-frequency table reduces once (per-block distinct
    (token, doc) partials through one coarse token aggregate — the
    :func:`doc_rarity` pass) and broadcasts whole via plasma (corpus
    vocabularies plateau; the cap is the same token_rank_stats
    broadcast-vocab contract); the scoring pass is then ZERO-shuffle —
    per-block C++ (doc, token) tf groups, one ``index_in`` df probe, a
    lexsort boundary walk taking ``top_k`` rows per doc, and one
    ``binary_join`` per block.  Empty docs ride through with ``''``."""
    from ..stages.agg import bucket_groupby_sum

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def df_partial(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        g = (
            pa.table({"token": flat, "d": pa.array(parent, pa.int64())})
            .group_by(["token", "d"])
            .aggregate([])
            .group_by("token")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"token": g["token"], "df": g["count_all"].cast(pa.int64())}
        )

    df_tbl = collect_table(
        bucket_groupby_sum(
            docs.map_batches(df_partial, batch_format="pyarrow"),
            ["token"],
            ["df"],
        )
    )
    if df_tbl is None:
        df_tbl = pa.table(
            {"token": pa.array([], pa.string()),
             "df": pa.array([], pa.int64())}
        )
    vocab = df_tbl["token"]
    if isinstance(vocab, pa.ChunkedArray):
        vocab = vocab.combine_chunks()
    df_ref = ray.put(
        (vocab, df_tbl["df"].to_numpy(zero_copy_only=False).astype(np.int64))
    )

    def score(batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        flat, parent = tokens_flat(batch["text"])
        if not len(flat):
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "keywords": pa.array([""] * n_rows, pa.string()),
                }
            )
        g = (
            pa.table({"t": flat, "d": pa.array(parent, pa.int64())})
            .group_by(["d", "t"])
            .aggregate([([], "count_all")])
        )
        tok = g["t"]
        if isinstance(tok, pa.ChunkedArray):
            tok = tok.combine_chunks()
        d = g["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        tf = g["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
        vset, dfv = ray.get(df_ref)
        idx = pc.index_in(tok, value_set=vset).to_numpy(zero_copy_only=False)
        sc = (1_000_000 * tf) // dfv[idx.astype(np.int64)]
        # (doc asc, score desc, term asc) then first top_k rows per doc
        enc = pc.dictionary_encode(tok)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        tcodes_raw = enc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        # dictionary codes order by first appearance, not lexically —
        # rank the dictionary once so ties break by TERM asc exactly
        dic_rank = np.empty(len(enc.dictionary), np.int64)
        dic_rank[
            pc.sort_indices(enc.dictionary).to_numpy(zero_copy_only=False)
        ] = np.arange(len(enc.dictionary))
        tcodes = dic_rank[tcodes_raw]
        order = np.lexsort((tcodes, -sc, d))
        ds_, scs = d[order], sc[order]
        starts = np.flatnonzero(np.r_[True, ds_[1:] != ds_[:-1]])
        rank = np.arange(len(ds_)) - np.repeat(
            starts, np.diff(np.r_[starts, len(ds_)])
        )
        keep = rank < top_k
        kd, krows = ds_[keep], order[keep]
        entries = pc.binary_join_element_wise(
            tok.take(pa.array(krows)),
            pc.cast(pa.array(sc[krows], pa.int64()), pa.string()),
            ":",
        )
        if isinstance(entries, pa.ChunkedArray):
            entries = entries.combine_chunks()
        counts = np.bincount(kd, minlength=n_rows)
        offsets = pa.array(np.r_[0, np.cumsum(counts)].astype(np.int32))
        kw = pc.binary_join(pa.ListArray.from_arrays(offsets, entries), ",")
        return pa.table({"doc_id": batch["doc_id"], "keywords": kw})

    return docs.map_batches(score, batch_format="pyarrow").sort("doc_id")


def doc_keywords_sql(top_k: int = 5) -> str:
    return f"""
WITH words AS (
  SELECT doc_id, w
  FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(w)
  WHERE w <> ''
),
tf AS (
  SELECT doc_id, w, CAST(count(*) AS BIGINT) AS tf FROM words GROUP BY 1, 2
),
df AS (SELECT w, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
       FROM words GROUP BY 1),
scored AS (
  SELECT doc_id, w, 1000000 * tf // df AS score
  FROM tf JOIN df USING (w)
),
rk AS (
  SELECT doc_id, w, score,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, w) AS rn
  FROM scored
),
agg AS (
  SELECT doc_id,
         string_agg(w || ':' || score, ',' ORDER BY score DESC, w)
             AS keywords
  FROM rk WHERE rn <= {top_k} GROUP BY 1
)
SELECT d.doc_id, coalesce(a.keywords, '') AS keywords
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
"""


def _feature_buckets(
    dic: pa.Array, n_buckets: int, hash_mode: str
) -> np.ndarray:
    """Hash bucket per DISTINCT feature string (dictionary values, never
    per occurrence).  ``md5`` is the SQL-parity rule — first 4 md5 bytes
    of ``'ds:' || feature`` mod ``n_buckets`` — and costs one hashlib
    call per distinct feature per block; ``fast`` is the vectorized
    production path (``hashing.string_hash64``), same distribution, no
    SQL twin."""
    if hash_mode == "md5":
        return np.array(
            [
                int(
                    hashlib.md5(
                        ("ds:" + f).encode("utf-8", "surrogatepass")
                    ).hexdigest()[:8],
                    16,
                )
                % n_buckets
                for f in dic.to_pylist()
            ],
            np.int64,
        )
    if hash_mode == "fast":
        from ..hashing import string_hash64

        return (string_hash64(dic) % np.uint64(n_buckets)).astype(np.int64)
    raise ValueError(f"unknown hash_mode {hash_mode!r} (md5|fast)")


def _dsir_featurize(batch: pa.Table):
    """Unigram + bigram word features of a batch, flattened:
    ``(features, parent_row)`` — the DSIR hashed-feature space."""
    flat, parent = tokens_flat(batch["text"])
    bg, bp = ngram_rows(flat, parent, 2)
    if isinstance(bg, pa.ChunkedArray):
        bg = bg.combine_chunks()
    feats = pa.concat_arrays([flat, bg])
    fpar = np.r_[parent, bp].astype(np.int64)
    return feats, fpar


def dsir_scores(
    sf_dir: str,
    *,
    target_lang: str = "en",
    n_feature_buckets: int = 1024,
    hash_mode: str = "md5",
) -> ray.data.Dataset:
    """DSIR-style data-selection scoring (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling"): hash every document's
    word unigrams + bigrams into ``n_feature_buckets``, estimate the
    TARGET feature distribution (docs with ``lang == target_lang``) and
    the RAW distribution (whole corpus) over those buckets, and score
    each document by how much target-mass vs raw-mass its features carry.
    Integer reformulation so the driver hash gate stays exact: bucket
    probabilities in ppm (``10^6·c_b // N``), per-doc
    ``sum_target_ppm`` / ``sum_raw_ppm`` occurrence sums, and
    ``dsir_ppm = 10^6·sum_target_ppm // sum_raw_ppm`` standing in for the
    paper's log-likelihood ratio (same inputs, division instead of log —
    documented deviation, exact in SQL).

    Shape: pass 1 reduces each block to per-bucket (count, target-count)
    partials — features dictionary-encode per block, so the hash runs
    once per DISTINCT feature — through ONE coarse exchange whose volume
    is ``n_feature_buckets`` rows per block; the reduced table collects
    (it has at most ``n_feature_buckets`` rows at ANY corpus size) and
    the two ppm arrays broadcast via plasma.  Pass 2 is a zero-shuffle
    map: re-featurize, two bincounts per block, one row per document
    (feature-less docs ride through with zeros)."""
    from ..stages.agg import bucket_groupby_sum

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    _EMPTY = pa.table(
        {
            "fb": pa.array([], pa.int64()),
            "c": pa.array([], pa.int64()),
            "ct": pa.array([], pa.int64()),
        }
    )

    def partial(batch: pa.Table) -> pa.Table:
        feats, fpar = _dsir_featurize(batch)
        if not len(feats):
            return _EMPTY
        enc = pc.dictionary_encode(feats)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        bdic = _feature_buckets(enc.dictionary, n_feature_buckets, hash_mode)
        b_occ = bdic[codes]
        tgt_row = pc.equal(batch["lang"], target_lang).to_numpy(
            zero_copy_only=False
        )
        occ_t = tgt_row[fpar]
        c = np.bincount(b_occ, minlength=n_feature_buckets)
        ct = np.bincount(b_occ[occ_t], minlength=n_feature_buckets)
        nz = np.flatnonzero(c)
        # "fb", not "bucket" — bucket_groupby_sum appends its own
        # exchange column of that name
        return pa.table(
            {
                "fb": pa.array(nz, pa.int64()),
                "c": pa.array(c[nz], pa.int64()),
                "ct": pa.array(ct[nz], pa.int64()),
            }
        )

    agg = collect_table(
        bucket_groupby_sum(
            docs.map_batches(partial, batch_format="pyarrow"),
            ["fb"],
            ["c", "ct"],
        )
    )
    raw_ppm = np.zeros(n_feature_buckets, np.int64)
    tgt_ppm = np.zeros(n_feature_buckets, np.int64)
    if agg is not None and agg.num_rows:
        b = agg["fb"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = agg["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        ct = agg["ct"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_all = max(int(c.sum()), 1)
        n_t = max(int(ct.sum()), 1)
        raw_ppm[b] = (1_000_000 * c) // n_all
        tgt_ppm[b] = (1_000_000 * ct) // n_t
    ppm_ref = ray.put((raw_ppm, tgt_ppm))

    def score(batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        feats, fpar = _dsir_featurize(batch)
        n_f = np.zeros(n_rows, np.int64)
        s_t = np.zeros(n_rows, np.int64)
        s_r = np.zeros(n_rows, np.int64)
        if len(feats):
            rp, tp = ray.get(ppm_ref)
            enc = pc.dictionary_encode(feats)
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            bdic = _feature_buckets(
                enc.dictionary, n_feature_buckets, hash_mode
            )
            b_occ = bdic[codes]
            n_f = np.bincount(fpar, minlength=n_rows).astype(np.int64)
            # ppm values ≤ 1e6 and ≤ ~1e7 features/doc ⇒ float64-exact
            s_t = np.bincount(
                fpar, weights=tp[b_occ].astype(np.float64), minlength=n_rows
            ).astype(np.int64)
            s_r = np.bincount(
                fpar, weights=rp[b_occ].astype(np.float64), minlength=n_rows
            ).astype(np.int64)
        score_ppm = np.zeros(n_rows, np.int64)
        nz = s_r > 0
        score_ppm[nz] = (1_000_000 * s_t[nz]) // s_r[nz]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_features": pa.array(n_f, pa.int64()),
                "sum_target_ppm": pa.array(s_t, pa.int64()),
                "sum_raw_ppm": pa.array(s_r, pa.int64()),
                "dsir_ppm": pa.array(score_ppm, pa.int64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow").sort("doc_id")


def dsir_scores_sql(
    target_lang: str = "en", n_feature_buckets: int = 1024
) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, lang,
         list_filter(string_split_regex(lower(text), '\\s+'),
                     x -> x <> '') AS tk
  FROM documents
),
feats AS (
  SELECT doc_id, lang, unnest(tk) AS f FROM toks
  UNION ALL
  SELECT doc_id, lang,
         unnest(list_transform(generate_series(1, len(tk) - 1),
                               i -> tk[i] || ' ' || tk[i+1])) AS f
  FROM toks
),
fb AS (
  SELECT doc_id, lang,
         CAST(CAST(('0x' || substr(md5('ds:' || f), 1, 8)) AS UBIGINT)
              % {n_feature_buckets} AS BIGINT) AS b
  FROM feats
),
agg AS (
  SELECT b, CAST(count(*) AS BIGINT) AS c,
         CAST(count(*) FILTER (WHERE lang = '{target_lang}') AS BIGINT) AS ct
  FROM fb GROUP BY 1
),
tot AS (
  SELECT greatest(sum(c), 1) AS n_all, greatest(sum(ct), 1) AS n_t FROM agg
),
ppm AS (
  SELECT b, 1000000 * c // n_all AS rp, 1000000 * ct // n_t AS tp
  FROM agg CROSS JOIN tot
),
per_doc AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_features,
         CAST(sum(tp) AS BIGINT) AS sum_target_ppm,
         CAST(sum(rp) AS BIGINT) AS sum_raw_ppm
  FROM fb JOIN ppm USING (b) GROUP BY 1
)
SELECT d.doc_id,
       COALESCE(p.n_features, 0) AS n_features,
       COALESCE(p.sum_target_ppm, 0) AS sum_target_ppm,
       COALESCE(p.sum_raw_ppm, 0) AS sum_raw_ppm,
       CASE WHEN COALESCE(p.sum_raw_ppm, 0) = 0 THEN 0
            ELSE 1000000 * p.sum_target_ppm // p.sum_raw_ppm
       END AS dsir_ppm
FROM documents d
LEFT JOIN per_doc p USING (doc_id)
ORDER BY d.doc_id
"""


def source_dup_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-source exact-duplicate rate — the release-table companion to
    :func:`analytics.corpus_report`: documents, distinct texts, and
    duplicate rows per source (a duplicate row = any row beyond its
    text's first occurrence WITHIN the source).

    One pair exchange: blocks reduce to distinct (source, md5, n) partial
    counts; each coarse bucket re-sums per (source, hash) — a hash lives
    in exactly one bucket — and emits per-source partials (docs, distinct,
    dups); a tiny second exchange sums per source."""
    from ..functions.text_stats import md5_fingerprints
    from ..hashing import id_bucket_array
    from ..stages.agg import bucket_groupby_sum

    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "source": batch["source"],
                "h": md5_fingerprints(batch["text"]),
            }
        )
        g = t.group_by(["source", "h"]).aggregate([([], "count_all")])
        out = pa.table(
            {
                "source": g["source"],
                "h": g["h"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )
        return out.append_column("bucket", id_bucket_array(out["h"], 64))

    def per_bucket(group: pa.Table) -> pa.Table:
        g = group.group_by(["source", "h"]).aggregate([("n", "sum")])
        t = pa.table(
            {
                "source": g["source"],
                "docs": g["n_sum"].cast(pa.int64()),
                "one": pa.repeat(pa.scalar(1, pa.int64()), g.num_rows),
            }
        )
        s = t.group_by("source").aggregate([("docs", "sum"), ("one", "sum")])
        return pa.table(
            {
                "source": s["source"],
                "n_docs": s["docs_sum"].cast(pa.int64()),
                "n_unique_texts": s["one_sum"].cast(pa.int64()),
            }
        )

    agg = bucket_groupby_sum(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow"),
        ["source"],
        ["n_docs", "n_unique_texts"],
    )

    def finish(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "n_dup_docs",
            pc.subtract(batch["n_docs"], batch["n_unique_texts"]),
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort("source")


SOURCE_DUP_STATS_SQL = """
WITH g AS (
  SELECT source, md5(text) AS h, CAST(count(*) AS BIGINT) AS n
  FROM documents GROUP BY 1, 2
)
SELECT source,
       CAST(sum(n) AS BIGINT) AS n_docs,
       CAST(count(*) AS BIGINT) AS n_unique_texts,
       CAST(sum(n) - count(*) AS BIGINT) AS n_dup_docs
FROM g GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Gopher composite quality filter
# ---------------------------------------------------------------------------

# The Gopher line-level rules (Rae et al. 2021, table A1) need multi-line
# documents, which the synthetic corpus doesn't have — so, exactly like
# pii_scrub's deterministic PII suffix, the document is first ENRICHED by a
# deterministic rewrite applied identically on the Ray and SQL sides:
# ' merge ' → newline, ' table ' → newline + '- ' (a bullet line start),
# ' slow ' → '...' + newline (an ellipsis line end).  Plain left-to-right
# non-overlapping literal replaces, so Arrow replace_substring and DuckDB
# replace() agree byte-for-byte.
_GOPHER_REWRITES = [(" merge ", "\n"), (" table ", "\n- "), (" slow ", "...\n")]


def _gopher_enrich(texts: pa.Array | pa.ChunkedArray) -> pa.Array:
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    for pat, rep in _GOPHER_REWRITES:
        texts = pc.replace_substring(texts, pat, rep)
    return texts


def _gopher_batch(batch: pa.Table) -> pa.Table:
    n = batch.num_rows
    e = _gopher_enrich(batch["text"])

    # line rules — split on newline (split yields >= 1 line per doc, so
    # every row is represented in the parent index)
    ll = pc.split_pattern(e, "\n")
    flat_l = pc.list_flatten(ll)
    lparent = pc.list_parent_indices(ll).to_numpy(zero_copy_only=False)
    n_lines = pc.list_value_length(ll).to_numpy(zero_copy_only=False).astype(np.int64)
    bullet = pc.starts_with(flat_l, "- ").to_numpy(zero_copy_only=False)
    ellip = pc.ends_with(flat_l, "...").to_numpy(zero_copy_only=False)
    n_bullet = np.bincount(lparent[bullet], minlength=n).astype(np.int64)
    n_ellipsis = np.bincount(lparent[ellip], minlength=n).astype(np.int64)
    # per-doc DISTINCT line count: Arrow C++ hash-groups on (row, line)
    dg = pa.table(
        {"p": pa.array(lparent), "l": flat_l}
    ).group_by(["p", "l"]).aggregate([])
    n_distinct_lines = np.bincount(
        dg["p"].to_numpy(zero_copy_only=False), minlength=n
    ).astype(np.int64)
    n_dup_lines = n_lines - n_distinct_lines

    # word rules — same tokenization as every other curation oracle
    flat_w, wparent = tokens_flat(e)
    n_words = np.bincount(wparent, minlength=n).astype(np.int64)
    alpha = pc.match_substring_regex(flat_w, "[a-z]").to_numpy(
        zero_copy_only=False
    )
    n_alpha_words = np.bincount(wparent[alpha], minlength=n).astype(np.int64)

    # symbol-to-word: '-' and '.' chars (the corpus' only symbols, both
    # injected by the enrichment) — single-char count_substring equals the
    # SQL length-diff formulation
    n_symbols = (
        pc.count_substring(e, "-").to_numpy(zero_copy_only=False).astype(np.int64)
        + pc.count_substring(e, ".").to_numpy(zero_copy_only=False).astype(np.int64)
    )

    # Gopher flags by integer cross-multiplication (1 = rule PASSES)
    flag_words = ((n_words >= 5) & (n_words <= 100_000)).astype(np.int64)
    flag_bullet = (10 * n_bullet <= 9 * n_lines).astype(np.int64)
    flag_ellipsis = (10 * n_ellipsis <= 3 * n_lines).astype(np.int64)
    flag_alpha = (5 * n_alpha_words >= 4 * n_words).astype(np.int64)
    flag_symbol = (10 * n_symbols <= n_words).astype(np.int64)
    flag_dup_lines = (10 * n_dup_lines <= 3 * n_lines).astype(np.int64)
    gopher_pass = (
        flag_words & flag_bullet & flag_ellipsis
        & flag_alpha & flag_symbol & flag_dup_lines
    )

    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_bullet_lines": pa.array(n_bullet, pa.int64()),
            "n_ellipsis_lines": pa.array(n_ellipsis, pa.int64()),
            "n_dup_lines": pa.array(n_dup_lines, pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
            "n_alpha_words": pa.array(n_alpha_words, pa.int64()),
            "n_symbols": pa.array(n_symbols, pa.int64()),
            "flag_words": pa.array(flag_words, pa.int64()),
            "flag_bullet": pa.array(flag_bullet, pa.int64()),
            "flag_ellipsis": pa.array(flag_ellipsis, pa.int64()),
            "flag_alpha": pa.array(flag_alpha, pa.int64()),
            "flag_symbol": pa.array(flag_symbol, pa.int64()),
            "flag_dup_lines": pa.array(flag_dup_lines, pa.int64()),
            "gopher_pass": pa.array(gopher_pass, pa.int64()),
        }
    )


def gopher_quality(sf_dir: str) -> ray.data.Dataset:
    """Gopher-rule composite quality filter (Rae et al. 2021, table A1).

    Per document, over the deterministically line-enriched text: word-count
    bounds, bullet-line fraction <= 90 %, ellipsis-line fraction <= 30 %,
    alphabetic-word fraction >= 80 %, symbol-to-word ratio <= 10 %,
    duplicate-line fraction <= 30 % — every flag an integer
    cross-multiplication, composite ``gopher_pass`` the AND of all six.

    Pure map: one replace chain + two Arrow list-splits + C++ hash-groups
    per batch; zero shuffle, no per-row Python — streams at any corpus
    size."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(_gopher_batch, batch_format="pyarrow")


GOPHER_QUALITY_SQL = """
WITH enr AS (
  SELECT doc_id,
         replace(replace(replace(text,
             ' merge ', chr(10)),
             ' table ', chr(10) || '- '),
             ' slow ', '...' || chr(10)) AS etext
  FROM documents
),
lines AS (
  SELECT doc_id, l
  FROM enr, unnest(string_split(etext, chr(10))) AS t(l)
),
lagg AS (
  SELECT doc_id,
         CAST(count(*) AS BIGINT) AS n_lines,
         CAST(sum(CASE WHEN starts_with(l, '- ') THEN 1 ELSE 0 END) AS BIGINT)
           AS n_bullet_lines,
         CAST(sum(CASE WHEN ends_with(l, '...') THEN 1 ELSE 0 END) AS BIGINT)
           AS n_ellipsis_lines,
         CAST(count(*) - count(DISTINCT l) AS BIGINT) AS n_dup_lines
  FROM lines GROUP BY 1
),
words AS (
  SELECT doc_id, w
  FROM enr, unnest(string_split_regex(lower(etext), '\\s+')) AS t(w)
  WHERE w <> ''
),
wagg AS (
  SELECT doc_id,
         CAST(count(*) AS BIGINT) AS n_words,
         CAST(sum(CASE WHEN regexp_matches(w, '[a-z]') THEN 1 ELSE 0 END)
              AS BIGINT) AS n_alpha_words
  FROM words GROUP BY 1
)
SELECT e.doc_id,
       l.n_lines,
       l.n_bullet_lines,
       l.n_ellipsis_lines,
       l.n_dup_lines,
       coalesce(w.n_words, 0) AS n_words,
       coalesce(w.n_alpha_words, 0) AS n_alpha_words,
       CAST(length(etext) - length(replace(etext, '-', ''))
          + length(etext) - length(replace(etext, '.', '')) AS BIGINT)
         AS n_symbols,
       CASE WHEN coalesce(w.n_words, 0) BETWEEN 5 AND 100000
            THEN 1 ELSE 0 END AS flag_words,
       CASE WHEN 10 * l.n_bullet_lines <= 9 * l.n_lines
            THEN 1 ELSE 0 END AS flag_bullet,
       CASE WHEN 10 * l.n_ellipsis_lines <= 3 * l.n_lines
            THEN 1 ELSE 0 END AS flag_ellipsis,
       CASE WHEN 5 * coalesce(w.n_alpha_words, 0) >= 4 * coalesce(w.n_words, 0)
            THEN 1 ELSE 0 END AS flag_alpha,
       CASE WHEN 10 * (length(etext) - length(replace(etext, '-', ''))
                     + length(etext) - length(replace(etext, '.', '')))
                 <= coalesce(w.n_words, 0)
            THEN 1 ELSE 0 END AS flag_symbol,
       CASE WHEN 10 * l.n_dup_lines <= 3 * l.n_lines
            THEN 1 ELSE 0 END AS flag_dup_lines,
       CASE WHEN coalesce(w.n_words, 0) BETWEEN 5 AND 100000
             AND 10 * l.n_bullet_lines <= 9 * l.n_lines
             AND 10 * l.n_ellipsis_lines <= 3 * l.n_lines
             AND 5 * coalesce(w.n_alpha_words, 0) >= 4 * coalesce(w.n_words, 0)
             AND 10 * (length(etext) - length(replace(etext, '-', ''))
                     + length(etext) - length(replace(etext, '.', '')))
                 <= coalesce(w.n_words, 0)
             AND 10 * l.n_dup_lines <= 3 * l.n_lines
            THEN 1 ELSE 0 END AS gopher_pass
FROM enr e
JOIN lagg l USING (doc_id)
LEFT JOIN wagg w USING (doc_id)
ORDER BY e.doc_id
"""


# ---------------------------------------------------------------------------
# C4-style corpus-wide line dedup (Raffel et al. 2020 §2.2: keep ONE
# occurrence of any line duplicated anywhere in the corpus)
# ---------------------------------------------------------------------------


_LINE_DUP_TYPES = {"l": pa.string(), "kdoc": pa.int64(), "kidx": pa.int64()}

# source_divergence switches to exact Python ints when 2·N² reaches this
# (module-level so tests can force the fallback)
_TV_INT64_HORIZON = 2**63

_LINE_ENRICH_SQL = (
    "replace(replace(replace(text, ' merge ', chr(10)), "
    "' table ', chr(10) || '- '), ' slow ', '...' || chr(10))"
)


def _line_occurrences(batch: pa.Table):
    """Enriched lines of a batch, flattened: ``(docs, idx, flat, parent,
    lens)`` with ``idx`` the 1-based line position within its document
    (the SQL ``generate_series`` convention).  Lines come from the same
    deterministic newline-enrichment chain the Gopher rules use
    (``_gopher_enrich`` — the synthetic corpus carries no raw newlines),
    so engine and oracle split identical byte streams."""
    e = _gopher_enrich(batch["text"])
    ll = pc.split_pattern(e, "\n")
    flat = pc.list_flatten(ll)
    parent = (
        pc.list_parent_indices(ll)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    lens = (
        pc.list_value_length(ll)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    starts = np.cumsum(lens) - lens
    idx = np.arange(len(flat), dtype=np.int64) - starts[parent] + 1
    docs = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return docs, idx, flat, parent, lens


def _dup_line_dataset(
    ds: ray.data.Dataset, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Corpus-wide duplicated-line keeper table: one row per line string
    occurring ≥ 2 times anywhere in the corpus, carrying the keeper's
    ``(doc_id, line_idx)`` — the lexicographically FIRST occurrence.

    Shape: per-block C++ hash-group to one row per (line, doc) with its
    count and min line index (exact — a document is one row in one
    block), ONE volume-sized line-hash exchange, in-bucket lexsort walk
    picking totals and keepers.  The exchange carries distinct
    (line, doc) partials, never per-occurrence rows."""
    from ..cluster import assembly_buckets_for_bytes, dataset_size_estimate
    from ..hashing import string_hash64

    if n_buckets is None:
        n_buckets = assembly_buckets_for_bytes(dataset_size_estimate(ds))

    def partial(batch: pa.Table) -> pa.Table:
        docs, idx, flat, parent, _ = _line_occurrences(batch)
        t = pa.table(
            {
                "l": flat,
                "doc": pa.array(docs[parent], pa.int64()),
                "idx": pa.array(idx, pa.int64()),
            }
        )
        g = t.group_by(["l", "doc"]).aggregate(
            [("idx", "min"), ([], "count_all")]
        )
        lcol = g["l"]
        if isinstance(lcol, pa.ChunkedArray):
            lcol = lcol.combine_chunks()
        b = (string_hash64(lcol) % np.uint64(n_buckets)).astype(np.int64)
        return pa.table(
            {
                "l": lcol,
                "doc": g["doc"],
                "idx": g["idx_min"],
                "c": g["count_all"].cast(pa.int64()),
                "_b": pa.array(b, pa.int64()),
            }
        )

    _EMPTY = pa.table(
        {
            "l": pa.array([], pa.string()),
            "kdoc": pa.array([], pa.int64()),
            "kidx": pa.array([], pa.int64()),
        }
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "l" not in group.column_names:
            if group.num_rows:
                raise RuntimeError(
                    "_dup_line_dataset bucket is non-empty but lacks the "
                    f"line column (columns: {group.column_names})"
                )
            return _EMPTY
        # defensively re-merge (line, doc) partials — they cannot straddle
        # blocks for the one-row-per-doc layout, but don't depend on it
        g = (
            group.group_by(["l", "doc"])
            .aggregate([("idx", "min"), ("c", "sum")])
            .rename_columns(["l", "doc", "idx", "c"])
        )
        lcol = g["l"]
        if isinstance(lcol, pa.ChunkedArray):
            lcol = lcol.combine_chunks()
        enc = pc.dictionary_encode(lcol)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        doc = g["doc"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = g["idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = g["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((idx, doc, codes))
        cs, dsort, isort = codes[order], doc[order], idx[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        totals = np.add.reduceat(cnt[order], starts)
        keep_rows = starts[totals >= 2]
        return pa.table(
            {
                "l": lcol.take(pa.array(order[keep_rows])),
                "kdoc": pa.array(dsort[keep_rows], pa.int64()),
                "kidx": pa.array(isort[keep_rows], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def _assemble_scrubbed_lines(
    batch: pa.Table, parent: np.ndarray, flat: pa.Array, drop: np.ndarray
) -> pa.Table:
    """Rebuild per-doc text from the kept lines (one ``binary_join`` over
    a boundary-offset list array, zero per-row Python); a doc whose every
    line dropped comes back as the empty string."""
    n_rows = batch.num_rows
    n_lines = np.bincount(parent, minlength=n_rows).astype(np.int64)
    n_drop = np.bincount(parent[drop], minlength=n_rows).astype(np.int64)
    kept = flat.filter(pa.array(~drop))
    kc = n_lines - n_drop
    offsets = pa.array(np.r_[0, np.cumsum(kc)].astype(np.int32))
    text = pc.binary_join(pa.ListArray.from_arrays(offsets, kept), "\n")
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_dropped_lines": pa.array(n_drop, pa.int64()),
            "text": text,
        }
    )


def line_dedup_scrub(sf_dir: str) -> ray.data.Dataset:
    """C4's line-level dedup (Raffel et al. 2020): any line occurring more
    than once ANYWHERE in the corpus survives only at its first occurrence
    (lexicographically smallest ``(doc_id, line_idx)``); every other copy
    is removed and each document's text is rebuilt from its kept lines.
    One row per document: ``n_lines``, ``n_dropped_lines``, scrubbed
    ``text`` (in the deterministic line-enriched form both sides split).

    Probe plans (the same escalation family as
    :func:`substring_dup_spans`, picked by :func:`_resolve_probe`):

    - ``broadcast`` — the duplicated-line keeper table ships once via
      plasma and the scrub is a PURE MAP (one ``index_in`` probe + two
      bincounts + one ``binary_join`` per block).  Correct whenever the
      dup-line table fits the object store.
    - ``join`` — the at-scale escalation: line occurrences semi-join the
      keeper table (planner bucket join, lazy), non-keeper hits reduce to
      bounded per-doc dropped-index lists through one doc-keyed exchange,
      and one left-outer planner join stitches them back onto the corpus
      for the rebuild map.  Byte-identical to broadcast (tested).
    """
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return line_dedup_scrub_ds(ds)


def line_dedup_scrub_ds(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Dataset-in variant of :func:`line_dedup_scrub`."""
    from ..cluster import collect_table

    dup = _dup_line_dataset(ds)
    plan = _resolve_probe(dup)

    if plan == "broadcast":
        tab = collect_table(dup)
        if tab is None:
            tab = pa.table(
                {
                    "l": pa.array([], pa.string()),
                    "kdoc": pa.array([], pa.int64()),
                    "kidx": pa.array([], pa.int64()),
                }
            )
        lset = tab["l"]
        if isinstance(lset, pa.ChunkedArray):
            lset = lset.combine_chunks()
        ref = ray.put(
            (
                lset,
                tab["kdoc"].to_numpy(zero_copy_only=False).astype(np.int64),
                tab["kidx"].to_numpy(zero_copy_only=False).astype(np.int64),
            )
        )

        def scrub(batch: pa.Table) -> pa.Table:
            docs, idx, flat, parent, _ = _line_occurrences(batch)
            lvals, kd, ki = ray.get(ref)
            mi = (
                pc.fill_null(pc.index_in(flat, value_set=lvals), -1)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            drop = np.zeros(len(mi), bool)
            h = np.flatnonzero(mi >= 0)
            if len(h):
                hm = mi[h]
                keeper = (docs[parent[h]] == kd[hm]) & (idx[h] == ki[hm])
                drop[h] = ~keeper
            return _assemble_scrubbed_lines(batch, parent, flat, drop)

        out = ds.map_batches(scrub, batch_format="pyarrow")
    else:
        out = _line_scrub_join(ds, dup)
    return out.sort("doc_id")


def _line_scrub_join(
    ds: ray.data.Dataset,
    dup: ray.data.Dataset,
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Join-plan line scrub — the at-scale escalation when the dup-line
    keeper table outgrows plasma.  Occurrence rows join the keeper table
    on the line, non-keepers reduce to one bounded CSV row per document
    through a volume-sized doc-keyed exchange (CSV because acero joins
    reject list payloads — the ``_doc_spans_join`` convention), and a
    left-outer planner join carries them back for the rebuild map."""
    from ..cluster import (
        assembly_buckets_for_bytes,
        dataset_size_estimate,
        equi_join,
    )
    from ..hashing import hash64_columns

    if n_buckets is None:
        n_buckets = assembly_buckets_for_bytes(dataset_size_estimate(ds))

    def occ(batch: pa.Table) -> pa.Table:
        docs, idx, flat, parent, _ = _line_occurrences(batch)
        return pa.table(
            {
                "doc_id": pa.array(docs[parent], pa.int64()),
                "idx": pa.array(idx, pa.int64()),
                "l": flat,
            }
        )

    hits = equi_join(
        ds.map_batches(occ, batch_format="pyarrow"),
        dup,
        on="l",
        join_type="inner",
        left_cols=["doc_id", "idx"],
        right_cols=["kdoc", "kidx"],
        strategy="bucket",
        left_types={"doc_id": pa.int64(), "idx": pa.int64(), "l": pa.string()},
        right_types=_LINE_DUP_TYPES,
    )

    def non_keepers(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        i = batch["idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        kd = batch["kdoc"].to_numpy(zero_copy_only=False).astype(np.int64)
        ki = batch["kidx"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = ~((d == kd) & (i == ki))
        t = pa.table(
            {
                "doc_id": pa.array(d[m], pa.int64()),
                "idx": pa.array(i[m], pa.int64()),
            }
        )
        b = hash64_columns(t, ["doc_id"]) % np.uint64(n_buckets)
        return t.append_column("_b", pa.array(b.astype(np.int64), pa.int64()))

    _EMPTY_CSV = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "drop_csv": pa.array([], pa.string()),
        }
    )

    def per_doc(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "doc_id" not in group.column_names:
            return _EMPTY_CSV
        d = group["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        i = group["idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((i, d))
        sd, si = d[order], i[order]
        starts = np.flatnonzero(np.r_[True, sd[1:] != sd[:-1]])
        counts = np.diff(np.r_[starts, len(sd)])
        offsets = pa.array(np.r_[0, np.cumsum(counts)].astype(np.int32))
        strs = pc.cast(pa.array(si, pa.int64()), pa.string())
        csv = pc.binary_join(pa.ListArray.from_arrays(offsets, strs), ",")
        return pa.table(
            {
                "doc_id": pa.array(sd[starts], pa.int64()),
                "drop_csv": csv,
            }
        )

    dropped = (
        hits.map_batches(non_keepers, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(per_doc, batch_format="pyarrow")
    )

    joined = equi_join(
        ds,
        dropped,
        on="doc_id",
        join_type="left_outer",
        left_cols=["doc_id", "text"],
        right_cols=["drop_csv"],
        strategy="bucket",
        right_types={"doc_id": pa.int64(), "drop_csv": pa.string()},
    )

    def scrub_joined(batch: pa.Table) -> pa.Table:
        docs, idx, flat, parent, lens = _line_occurrences(batch)
        drop = np.zeros(len(flat), bool)
        filled = pc.fill_null(batch["drop_csv"], "")
        if isinstance(filled, pa.ChunkedArray):
            filled = filled.combine_chunks()
        sl = pc.split_pattern(filled, ",")
        fl = pc.list_flatten(sl)
        pp = pc.list_parent_indices(sl)
        ne = pc.not_equal(fl, "")
        di = (
            pc.cast(fl.filter(ne), pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        dr = (
            pp.filter(ne).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        row_flat_start = np.cumsum(lens) - lens
        drop[row_flat_start[dr] + di - 1] = True  # idx is 1-based
        return _assemble_scrubbed_lines(batch, parent, flat, drop)

    return joined.map_batches(scrub_joined, batch_format="pyarrow")


LINE_DEDUP_SCRUB_SQL = f"""
WITH enr AS (
  SELECT doc_id, {_LINE_ENRICH_SQL} AS etext FROM documents
),
ls AS (
  SELECT doc_id, string_split(etext, chr(10)) AS lns FROM enr
),
lines AS (
  SELECT doc_id, lns[i] AS l, i AS idx
  FROM ls, unnest(generate_series(1, len(lns))) AS t(i)
),
marked AS (
  SELECT doc_id, idx, l,
         count(*) OVER (PARTITION BY l) AS c,
         row_number() OVER (PARTITION BY l ORDER BY doc_id, idx) AS rn
  FROM lines
)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_lines,
       CAST(sum(CASE WHEN c > 1 AND rn > 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_dropped_lines,
       coalesce(string_agg(CASE WHEN c = 1 OR rn = 1 THEN l END,
                           chr(10) ORDER BY idx), '') AS text
FROM marked GROUP BY doc_id ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# inverted-index build (search-index export)
# ---------------------------------------------------------------------------


def token_postings(
    sf_dir: str, *, n_buckets: int | None = None
) -> ray.data.Dataset:
    """Inverted index over the corpus: one row per distinct token with its
    document frequency, total term frequency, and the postings list
    (``"doc_id:tf"`` entries, comma-joined, ascending doc id) — the build
    step of every search/retrieval system over a training corpus.

    Shape: per-block C++ hash-group to (token, doc_id, tf) partials — one
    row per distinct (token, doc) per block, never one per occurrence —
    then ONE token-hash-keyed exchange (volume-sized buckets; a token's
    postings live in exactly one bucket) where each bucket sorts once and
    assembles every posting string via Arrow ``binary_join`` over a
    boundary-offset list array.  No per-row Python anywhere.

    At 100 TB the vocabulary is capped upstream (corpus vocabularies
    plateau) but a SINGLE token's postings can exceed a task: a production
    index additionally range-partitions postings by doc id within token
    (the layout ``state.checkpoint`` writers produce per partition).  The
    one-bucket-per-token layout here is the within-partition kernel of
    that design.
    """
    from ..cluster import assembly_buckets_for_bytes, dataset_size_estimate
    from ..hashing import string_hash64

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    if n_buckets is None:
        n_buckets = assembly_buckets_for_bytes(dataset_size_estimate(ds))

    def partial(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        docs = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pa.table(
            {
                "token": flat,
                "doc_id": pa.array(docs[parent], pa.int64()),
            }
        ).group_by(["token", "doc_id"]).aggregate([([], "count_all")])
        tok = g["token"]
        if isinstance(tok, pa.ChunkedArray):
            tok = tok.combine_chunks()
        bucket = (string_hash64(tok) % np.uint64(n_buckets)).astype(np.int64)
        return pa.table(
            {
                "token": tok,
                "doc_id": g["doc_id"],
                "tf": g["count_all"].cast(pa.int64()),
                "bucket": pa.array(bucket, pa.int64()),
            }
        )

    _EMPTY = pa.table(
        {
            "token": pa.array([], pa.string()),
            "df": pa.array([], pa.int64()),
            "total_tf": pa.array([], pa.int64()),
            "postings": pa.array([], pa.string()),
        }
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "token" not in group.column_names:
            if group.num_rows:
                raise RuntimeError(
                    "token_postings bucket is non-empty but lacks the token "
                    f"column (columns: {group.column_names})"
                )
            return _EMPTY
        # layout-invariant: re-sum tf in case a (token, doc) pair ever
        # spans blocks (it can't for the unique-doc_id documents table,
        # but the kernel shouldn't depend on that)
        g = (
            group.group_by(["token", "doc_id"])
            .aggregate([("tf", "sum")])
            .rename_columns(["token", "doc_id", "tf"])
            .sort_by([("token", "ascending"), ("doc_id", "ascending")])
        )
        n = g.num_rows
        tok = g["token"]
        if isinstance(tok, pa.ChunkedArray):
            tok = tok.combine_chunks()
        tf = g["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        neq = pc.not_equal(tok.slice(1, n - 1), tok.slice(0, n - 1)).to_numpy(
            zero_copy_only=False
        )
        starts = np.r_[0, np.flatnonzero(neq) + 1]
        df = np.diff(np.r_[starts, n]).astype(np.int64)
        total = np.add.reduceat(tf, starts).astype(np.int64)
        entries = pc.binary_join_element_wise(
            pc.cast(g["doc_id"], pa.string()),
            pc.cast(g["tf"], pa.string()),
            ":",
        )
        if isinstance(entries, pa.ChunkedArray):
            entries = entries.combine_chunks()
        offsets = pa.array(np.r_[starts, n].astype(np.int32))
        postings = pc.binary_join(
            pa.ListArray.from_arrays(offsets, entries), ","
        )
        return pa.table(
            {
                "token": tok.take(pa.array(starts)),
                "df": pa.array(df, pa.int64()),
                "total_tf": pa.array(total, pa.int64()),
                "postings": postings,
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .sort("token")
    )


TOKEN_POSTINGS_SQL = """
WITH words AS (
  SELECT doc_id, w
  FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(w)
  WHERE w <> ''
),
tf AS (
  SELECT doc_id, w, CAST(count(*) AS BIGINT) AS n
  FROM words GROUP BY 1, 2
)
SELECT w AS token,
       CAST(count(*) AS BIGINT) AS df,
       CAST(sum(n) AS BIGINT) AS total_tf,
       string_agg(doc_id || ':' || n, ',' ORDER BY doc_id) AS postings
FROM tf GROUP BY w ORDER BY token
"""


def doc_rarity(
    sf_dir: str, *, top_k: int = 256, n_buckets: int = 64
) -> ray.data.Dataset:
    """Per-document lexical-commonness signal: how much of each document is
    built from the corpus's ``top_k`` highest-document-frequency tokens
    (the corpus-derived "stopword" set — CCNet/Gopher-style quality
    filters threshold exactly this kind of statistic: near-1 ⇒ glue-word
    soup, near-0 ⇒ jargon/garbage).

    Output: one row per document — ``n_tokens``, ``n_stop_tokens``
    (tokens in the top-k set), ``stop_ppm`` (integer
    ``10^6·stop // n``, 0 for empty docs), ``n_distinct_tokens``.

    Shape: pass A computes token document frequency exactly — per-block
    distinct (token, doc) partials (exact because each document lives in
    one row, the same layout contract ``token_postings`` documents), one
    token-keyed coarse-bucket aggregate, per-block top-k prune (exact:
    the global top-k is a subset of the union of block top-ks over the
    unique-token df table) into a tiny sort — and broadcasts the ≤top_k
    stopword set once via plasma.  Pass B is a zero-shuffle map: one
    ``pc.is_in`` probe + ``np.bincount`` per block, one output row per
    input row (empty docs ride through with zeros).  Tie-break at the
    top-k boundary is (df desc, token asc) on both engine and SQL sides.
    """
    from ..stages.agg import bucket_groupby_sum

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def df_partial(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        g = (
            pa.table({"token": flat, "d": pa.array(parent, pa.int64())})
            .group_by(["token", "d"])
            .aggregate([])
            .group_by("token")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"token": g["token"], "df": g["count_all"].cast(pa.int64())}
        )

    df_tbl = bucket_groupby_sum(
        docs.map_batches(df_partial, batch_format="pyarrow"),
        ["token"],
        ["df"],
        n_buckets=n_buckets,
    )

    stop_ref = ray.put(_stopword_set(df_tbl, top_k))

    def per_doc(batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        flat, parent = tokens_flat(batch["text"])
        n_tok = np.bincount(parent, minlength=n_rows).astype(np.int64)
        in_stop = pc.is_in(flat, value_set=ray.get(stop_ref)).to_numpy(
            zero_copy_only=False
        )
        n_stop = np.bincount(
            parent, weights=in_stop.astype(np.float64), minlength=n_rows
        ).astype(np.int64)
        # distinct tokens per doc: in-block C++ group over (token, row) —
        # exact because a document is one row in one block
        g = (
            pa.table({"t": flat, "d": pa.array(parent, pa.int64())})
            .group_by(["t", "d"])
            .aggregate([])
        )
        n_dist = np.bincount(
            g["d"].to_numpy(zero_copy_only=False), minlength=n_rows
        ).astype(np.int64)
        ppm = np.zeros(n_rows, np.int64)
        nz = n_tok > 0
        ppm[nz] = (1_000_000 * n_stop[nz]) // n_tok[nz]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_stop_tokens": pa.array(n_stop, pa.int64()),
                "stop_ppm": pa.array(ppm, pa.int64()),
                "n_distinct_tokens": pa.array(n_dist, pa.int64()),
            }
        )

    return docs.map_batches(per_doc, batch_format="pyarrow").sort("doc_id")


def doc_rarity_sql(top_k: int = 256) -> str:
    return f"""
WITH words AS (
  SELECT doc_id, w
  FROM documents, unnest(string_split_regex(lower(text), '\\s+')) AS t(w)
  WHERE w <> ''
),
df AS (
  SELECT w, count(DISTINCT doc_id) AS df FROM words GROUP BY 1
),
top AS (
  SELECT w FROM df ORDER BY df DESC, w LIMIT {top_k}
),
per_doc AS (
  SELECT doc_id,
         CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(count(*) FILTER (WHERE w IN (SELECT w FROM top)) AS BIGINT)
             AS n_stop_tokens,
         CAST(count(DISTINCT w) AS BIGINT) AS n_distinct_tokens
  FROM words GROUP BY 1
)
SELECT d.doc_id,
       COALESCE(p.n_tokens, 0) AS n_tokens,
       COALESCE(p.n_stop_tokens, 0) AS n_stop_tokens,
       CASE WHEN COALESCE(p.n_tokens, 0) = 0 THEN 0
            ELSE 1000000 * p.n_stop_tokens // p.n_tokens END AS stop_ppm,
       COALESCE(p.n_distinct_tokens, 0) AS n_distinct_tokens
FROM documents d
LEFT JOIN per_doc p USING (doc_id)
ORDER BY d.doc_id
"""


def corpus_quality_filter(
    sf_dir: str,
    *,
    min_stop_ppm: int = 200_000,
    min_lm_ppm: int = 34_000,
    top_k: int = 8,
) -> ray.data.Dataset:
    """THE standard curation pipeline: a document survives iff it passes
    the Gopher line/word rules (:func:`gopher_quality`), carries enough
    corpus-common glue tokens (:func:`doc_rarity` ``stop_ppm ≥
    min_stop_ppm`` — too low ⇒ jargon/garbage soup), and its token
    sequences are corpus-probable (:func:`analytics.doc_lm_score`
    ``mean_cond_ppm ≥ min_lm_ppm`` — the integer CCNet perplexity proxy).
    One row per document with the three signals and the composite
    ``quality_pass``.

    TWO corpus scans total instead of the five the naive composition
    pays.  Scan 1 tokenizes each block ONCE and emits kind-tagged
    partials for both corpus models — token document frequency
    (``kind='t'``) and bigram counts (``kind='b'``) — through a single
    coarse-bucket aggregate; the reduced table is vocabulary-bounded, so
    materializing it and deriving the broadcast stopword set (exact
    top-k prune) and the bigram-LM probe pair
    (:func:`analytics.lm_conditional_ppm`) costs nothing at any corpus
    size.  Scan 2 is one zero-shuffle map that recomputes the Gopher
    flags and probes both broadcast models per block — no doc-level
    joins at all.  Signals are bit-identical to the standalone pipelines
    (tested), so the SQL oracle still composes the three signal oracles
    verbatim.
    """
    from ..cluster import collect_table
    from ..stages.agg import bucket_groupby_sum
    from .analytics import lm_conditional_ppm

    txt = read_table(sf_dir, "documents", columns=["text"])

    _EMPTY_PART = pa.table(
        {
            "kind": pa.array([], pa.string()),
            "k": pa.array([], pa.string()),
            "c": pa.array([], pa.int64()),
        }
    )

    def model_partial(batch: pa.Table) -> pa.Table:
        flat, parent = tokens_flat(batch["text"])
        outs = []
        if len(flat):
            # token document frequency: distinct (token, row) then count
            # per token — exact because each document is one row
            g = (
                pa.table({"k": flat, "d": pa.array(parent, pa.int64())})
                .group_by(["k", "d"])
                .aggregate([])
                .group_by("k")
                .aggregate([([], "count_all")])
            )
            outs.append(
                pa.table(
                    {
                        "kind": pa.array(["t"] * g.num_rows, pa.string()),
                        "k": g["k"],
                        "c": g["count_all"].cast(pa.int64()),
                    }
                )
            )
        bg, _ = ngram_rows(flat, parent, 2)
        if len(bg):
            gb = pa.table({"k": bg}).group_by("k").aggregate(
                [([], "count_all")]
            )
            outs.append(
                pa.table(
                    {
                        "kind": pa.array(["b"] * gb.num_rows, pa.string()),
                        "k": gb["k"],
                        "c": gb["count_all"].cast(pa.int64()),
                    }
                )
            )
        if not outs:
            return _EMPTY_PART
        return pa.concat_tables(outs)

    red = bucket_groupby_sum(
        txt.map_batches(model_partial, batch_format="pyarrow"),
        ["kind", "k"],
        ["c"],
    ).materialize()  # vocabulary-bounded, consumed twice below

    def t_side(batch: pa.Table) -> pa.Table:
        f = batch.filter(pc.equal(batch["kind"], "t"))
        return pa.table({"token": f["k"], "df": f["c"]})

    stop_ref = ray.put(
        _stopword_set(
            red.map_batches(t_side, batch_format="pyarrow"), top_k
        )
    )

    def b_side(batch: pa.Table) -> pa.Table:
        f = batch.filter(pc.equal(batch["kind"], "b"))
        return pa.table({"bg": f["k"], "c": f["c"]})

    lm_ref = ray.put(
        lm_conditional_ppm(
            collect_table(red.map_batches(b_side, batch_format="pyarrow"))
        )
    )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        n_rows = batch.num_rows
        gop = _gopher_batch(batch)
        gp = gop["gopher_pass"].to_numpy(zero_copy_only=False)

        flat, parent = tokens_flat(batch["text"])
        n_tok = np.bincount(parent, minlength=n_rows).astype(np.int64)
        in_stop = pc.is_in(flat, value_set=ray.get(stop_ref)).to_numpy(
            zero_copy_only=False
        )
        n_stop = np.bincount(
            parent, weights=in_stop.astype(np.float64), minlength=n_rows
        ).astype(np.int64)
        stop_ppm = np.zeros(n_rows, np.int64)
        nz = n_tok > 0
        stop_ppm[nz] = (1_000_000 * n_stop[nz]) // n_tok[nz]

        bg, brow = ngram_rows(flat, parent, 2)
        n_big = np.zeros(n_rows, np.int64)
        s = np.zeros(n_rows, np.int64)
        if len(bg):
            lm_keys, lm_ppm = ray.get(lm_ref)
            idx = pc.index_in(bg, value_set=lm_keys).to_numpy(
                zero_copy_only=False
            )
            vals = lm_ppm[idx]  # trained on this corpus ⇒ every probe hits
            n_big = np.bincount(brow, minlength=n_rows).astype(np.int64)
            s = np.bincount(
                brow, weights=vals.astype(np.float64), minlength=n_rows
            ).astype(np.int64)
        mean = np.zeros(n_rows, np.int64)
        bz = n_big > 0
        mean[bz] = s[bz] // n_big[bz]

        ok = (
            (stop_ppm >= min_stop_ppm) & (mean >= min_lm_ppm) & (gp == 1)
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "stop_ppm": pa.array(stop_ppm, pa.int64()),
                "mean_cond_ppm": pa.array(mean, pa.int64()),
                "gopher_pass": gop["gopher_pass"],
                "quality_pass": pa.array(ok, pa.int64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# JSONL interchange round-trip
# ---------------------------------------------------------------------------

JSONL_CACHE_ROOT = "/tmp/dsor_jsonl_cache"


def documents_jsonl_roundtrip(sf_dir: str) -> pa.Table:
    """JSONL interchange proof over the documents table: export the
    corpus through the partitioned JSONL sink, re-ingest it through the
    ROBUST quarantine reader (`sources/jsonl.py`), and aggregate
    per-language (doc count, char sum, md5 text-hash sum).  Because the
    hash sum folds every text byte-exactly, equality with the SQL oracle
    computed on the ORIGINAL parquet proves the sink→source loop is
    lossless — escaping, unicode, empty strings and all.

    The export is cached per ``sf_dir`` under a completion marker, so
    re-runs (and the bench loop) skip the write — and a killed first run
    redoes it rather than reading a half-written directory (the
    resumable-output convention).  A quarantined row (impossible on our
    own sink's output) raises loudly rather than skewing the aggregate.

    Scale plan: write is one file per block; read_text splits by byte
    range; the parse is a stateless task map (ingest boundary — see the
    module docstring); the aggregate collapses per block over the
    bounded lang domain and merges on the driver in exact ints — zero
    exchange.  The md5 fold is the SQL-parity convention
    (``int(md5(utf8)[:8 hex], 16)`` ↔ DuckDB
    ``CAST(('0x' || substr(md5(text),1,8)) AS UBIGINT)``).
    """
    import json as _json
    import os as _os

    from ..sources.jsonl import read_jsonl, write_jsonl

    tag = sf_dir.strip("/").replace("/", "_")
    cache = _os.path.join(JSONL_CACHE_ROOT, tag)
    marker = _os.path.join(cache, "_COMPLETE")
    if not _os.path.exists(marker):
        import shutil as _shutil

        _shutil.rmtree(cache, ignore_errors=True)
        docs = read_table(
            sf_dir, "documents", columns=["doc_id", "text", "lang", "n_chars"]
        )
        write_jsonl(docs, cache)
        with open(marker, "w") as f:
            _json.dump({"sf_dir": sf_dir}, f)

    back = read_jsonl(
        [
            _os.path.join(cache, f)
            for f in sorted(_os.listdir(cache))
            if f.endswith(".json")
        ],
        {
            "doc_id": pa.int64(),
            "text": pa.string(),
            "lang": pa.string(),
            "n_chars": pa.int64(),
        },
    )

    def lang_partial(batch: pa.Table) -> pa.Table:
        errs = batch["error"]
        if errs.null_count != len(errs):
            bad = batch.filter(pc.is_valid(errs))["error"].to_pylist()
            raise ValueError(
                f"jsonl round-trip quarantined {len(bad)} rows; first: {bad[0]}"
            )
        hashes = np.array(
            [
                int(hashlib.md5(t.encode("utf-8")).hexdigest()[:8], 16)
                for t in batch["text"].to_pylist()
            ],
            np.int64,
        )
        t = pa.table(
            {
                "lang": batch["lang"],
                "docs": pa.array(np.ones(len(hashes), np.int64), pa.int64()),
                "chars": batch["n_chars"],
                "text_hash_sum": pa.array(hashes, pa.int64()),
            }
        )
        g = t.group_by("lang").aggregate(
            [("docs", "sum"), ("chars", "sum"), ("text_hash_sum", "sum")]
        )
        return pa.table(
            {
                "lang": g["lang"],
                "docs": g["docs_sum"].cast(pa.int64()),
                "chars": g["chars_sum"].cast(pa.int64()),
                "text_hash_sum": g["text_hash_sum_sum"].cast(pa.int64()),
            }
        )

    t = collect_table(back.map_batches(lang_partial, batch_format="pyarrow"))
    acc: dict[str, list[int]] = {}
    if t is not None and t.num_rows:
        for lang, d, c, h in zip(
            t["lang"].to_pylist(),
            t["docs"].to_pylist(),
            t["chars"].to_pylist(),
            t["text_hash_sum"].to_pylist(),
        ):
            cur = acc.setdefault(lang, [0, 0, 0])
            cur[0] += int(d)
            cur[1] += int(c)
            cur[2] += int(h)
    rows = sorted(acc.items())
    return pa.table(
        {
            "lang": pa.array([k for k, _ in rows], pa.string()),
            "docs": pa.array([v[0] for _, v in rows], pa.int64()),
            "chars": pa.array([v[1] for _, v in rows], pa.int64()),
            "text_hash_sum": pa.array([v[2] for _, v in rows], pa.int64()),
        }
    )


DOCUMENTS_JSONL_ROUNDTRIP_SQL = """
SELECT lang,
       CAST(count(*) AS BIGINT) AS docs,
       CAST(sum(n_chars) AS BIGINT) AS chars,
       CAST(sum(CAST(('0x' || substr(md5(text), 1, 8)) AS UBIGINT))
            AS BIGINT) AS text_hash_sum
FROM documents GROUP BY lang ORDER BY lang
"""


CSV_CACHE_ROOT = "/tmp/dsor_csv_cache"


def documents_csv_roundtrip(sf_dir: str) -> pa.Table:
    """CSV interchange proof over the documents table — the fourth-format
    twin of :func:`documents_jsonl_roundtrip`: export through the
    partitioned CSV sink, re-ingest through the ROBUST quarantine reader
    (``sources/csv.py`` — whole-file Arrow parse, so quoted embedded
    newlines survive), and fold per-language (docs, chars, md5 text-hash
    sum).  The hash sum folds every text byte, so equality with the SQL
    oracle on the ORIGINAL parquet proves the loop lossless for this
    corpus (all strings non-null — CSV's empty-vs-null ambiguity, stated
    in the module docstring, never triggers).  Export cached per
    ``sf_dir`` under a completion marker; a quarantined row raises."""
    import json as _json
    import os as _os

    from ..sources.csv import read_csv, write_csv

    tag = sf_dir.strip("/").replace("/", "_")
    cache = _os.path.join(CSV_CACHE_ROOT, tag)
    marker = _os.path.join(cache, "_COMPLETE")
    if not _os.path.exists(marker):
        import shutil as _shutil

        _shutil.rmtree(cache, ignore_errors=True)
        docs = read_table(
            sf_dir, "documents", columns=["doc_id", "text", "lang", "n_chars"]
        )
        write_csv(docs, cache)
        with open(marker, "w") as f:
            _json.dump({"sf_dir": sf_dir}, f)

    back = read_csv(
        [
            _os.path.join(cache, f)
            for f in sorted(_os.listdir(cache))
            if f.endswith(".csv")
        ],
        {
            "doc_id": pa.int64(),
            "text": pa.string(),
            "lang": pa.string(),
            "n_chars": pa.int64(),
        },
    )

    def lang_partial(batch: pa.Table) -> pa.Table:
        errs = batch["error"]
        if errs.null_count != len(errs):
            bad = batch.filter(pc.is_valid(errs))["error"].to_pylist()
            raise ValueError(
                f"csv round-trip quarantined {len(bad)} rows; first: {bad[0]}"
            )
        hashes = np.array(
            [
                int(hashlib.md5(t.encode("utf-8")).hexdigest()[:8], 16)
                for t in batch["text"].to_pylist()
            ],
            np.int64,
        )
        t = pa.table(
            {
                "lang": batch["lang"],
                "docs": pa.array(np.ones(len(hashes), np.int64), pa.int64()),
                "chars": batch["n_chars"],
                "text_hash_sum": pa.array(hashes, pa.int64()),
            }
        )
        g = t.group_by("lang").aggregate(
            [("docs", "sum"), ("chars", "sum"), ("text_hash_sum", "sum")]
        )
        return pa.table(
            {
                "lang": g["lang"],
                "docs": g["docs_sum"].cast(pa.int64()),
                "chars": g["chars_sum"].cast(pa.int64()),
                "text_hash_sum": g["text_hash_sum_sum"].cast(pa.int64()),
            }
        )

    from ..cluster import collect_table

    t = collect_table(back.map_batches(lang_partial, batch_format="pyarrow"))
    acc: dict[str, list[int]] = {}
    if t is not None and t.num_rows:
        for lang, d, c, h in zip(
            t["lang"].to_pylist(),
            t["docs"].to_pylist(),
            t["chars"].to_pylist(),
            t["text_hash_sum"].to_pylist(),
        ):
            cur = acc.setdefault(lang, [0, 0, 0])
            cur[0] += int(d)
            cur[1] += int(c)
            cur[2] += int(h)
    rows = sorted(acc.items())
    return pa.table(
        {
            "lang": pa.array([k for k, _ in rows], pa.string()),
            "docs": pa.array([v[0] for _, v in rows], pa.int64()),
            "chars": pa.array([v[1] for _, v in rows], pa.int64()),
            "text_hash_sum": pa.array([v[2] for _, v in rows], pa.int64()),
        }
    )


DOCUMENTS_CSV_ROUNDTRIP_SQL = DOCUMENTS_JSONL_ROUNDTRIP_SQL


EVOLVED_CACHE_ROOT = "/tmp/dsor_evolved_cache"


def documents_evolved_union(sf_dir: str) -> pa.Table:
    """Schema-evolution read end to end (``sources/evolved.py``): the
    documents corpus lands as TWO schema generations (gen A — even
    doc_ids, only (doc_id, lang); gen B — odd doc_ids, the full
    (doc_id, lang, n_chars, source)), then ONE union-by-name read
    aligns both (missing columns → typed nulls) and aggregates per
    lang: docs, char sum (gen A contributes nothing, SQL null-skipping
    SUM), and the missing-chars count.  The oracle nulls the same
    columns on the ORIGINAL table with the parity CASE, so equality
    proves the footer sweep → version grouping → align → union loop.
    Cached per sf_dir under a completion marker."""
    import json as _json
    import os as _os

    import pyarrow.parquet as _pq

    from ..sources.evolved import read_parquet_evolved

    tag = sf_dir.strip("/").replace("/", "_")
    cache = _os.path.join(EVOLVED_CACHE_ROOT, tag)
    marker = _os.path.join(cache, "_COMPLETE")
    if not _os.path.exists(marker):
        import shutil as _shutil

        _shutil.rmtree(cache, ignore_errors=True)
        _os.makedirs(cache)
        docs = read_table(
            sf_dir, "documents", columns=["doc_id", "lang", "n_chars", "source"]
        )

        def split_gen(batch: pa.Table, gen: int) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            t = batch.filter(pa.array(ids % 2 == gen))
            if gen == 0:
                return t.select(["doc_id", "lang"])
            return t

        import ray as _ray

        tables = _ray.get(arrow_block_refs(docs))
        a = pa.concat_tables(
            [split_gen(t, 0) for t in tables], promote_options="default"
        )
        b = pa.concat_tables(
            [split_gen(t, 1) for t in tables], promote_options="default"
        )
        _pq.write_table(a, _os.path.join(cache, "gen_a.parquet"))
        _pq.write_table(b, _os.path.join(cache, "gen_b.parquet"))
        with open(marker, "w") as f:
            _json.dump({"sf_dir": sf_dir}, f)

    ds = read_parquet_evolved(
        [
            _os.path.join(cache, f)
            for f in sorted(_os.listdir(cache))
            if f.endswith(".parquet")
        ],
        {
            "doc_id": pa.int64(),
            "lang": pa.string(),
            "n_chars": pa.int64(),
            "source": pa.string(),
        },
    )

    def partial(batch: pa.Table) -> pa.Table:
        nc = batch["n_chars"]
        valid = pc.is_valid(nc)
        t = pa.table(
            {
                "lang": batch["lang"],
                "docs": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
                "chars": pc.fill_null(nc, 0).cast(pa.int64()),
                "missing_chars": pc.invert(valid).cast(pa.int64()),
            }
        )
        g = t.group_by("lang").aggregate(
            [("docs", "sum"), ("chars", "sum"), ("missing_chars", "sum")]
        )
        return pa.table(
            {
                "lang": g["lang"],
                "docs": g["docs_sum"].cast(pa.int64()),
                "chars": g["chars_sum"].cast(pa.int64()),
                "missing_chars": g["missing_chars_sum"].cast(pa.int64()),
            }
        )

    from ..cluster import collect_table

    t = collect_table(ds.map_batches(partial, batch_format="pyarrow"))
    acc: dict[str, list[int]] = {}
    if t is not None and t.num_rows:
        for lang, d, c, m in zip(
            t["lang"].to_pylist(),
            t["docs"].to_pylist(),
            t["chars"].to_pylist(),
            t["missing_chars"].to_pylist(),
        ):
            cur = acc.setdefault(lang, [0, 0, 0])
            cur[0] += int(d)
            cur[1] += int(c)
            cur[2] += int(m)
    rows = sorted(acc.items())
    return pa.table(
        {
            "lang": pa.array([k for k, _ in rows], pa.string()),
            "docs": pa.array([v[0] for _, v in rows], pa.int64()),
            "chars": pa.array([v[1] for _, v in rows], pa.int64()),
            "missing_chars": pa.array([v[2] for _, v in rows], pa.int64()),
        }
    )


DOCUMENTS_EVOLVED_UNION_SQL = """
SELECT lang,
       CAST(COUNT(*) AS BIGINT) AS docs,
       CAST(SUM(CASE WHEN doc_id % 2 = 1 THEN n_chars ELSE 0 END)
            AS BIGINT) AS chars,
       CAST(SUM(CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS missing_chars
FROM documents GROUP BY lang ORDER BY lang
"""


def gopher_length_kappa(sf_dir: str, min_chars: int = 200) -> pa.Table:
    """Cohen's kappa between the full Gopher composite filter and the
    cheap length heuristic (``n_chars >= min_chars``) — the
    can-a-proxy-replace-the-expensive-filter audit (raw agreement
    overstates cheap raters; kappa discounts chance agreement).

    Exact-rational form: with confusion counts ``n11 n10 n01 n00`` and
    margins ``r1 = n11+n10, c1 = n11+n01`` (and ``r0, c0``),

        kappa = (n·(n11+n00) − (r1·c1 + r0·c0))
              / (n²          − (r1·c1 + r0·c0))

    — exact big ints, ONE pinned ppm rendering (agree_ppm likewise).
    One streaming map computes BOTH raters per block (the Gopher kernel
    plus one comparison — no join: both flags derive from the same
    row); blocks reduce to four partial counts.  Returns one row:
    ``(n11, n10, n01, n00, agree_ppm, kappa_ppm)``; kappa is NULL when
    either rater is constant (pe = 1)."""
    import numpy as np

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        gop = _gopher_batch(batch)
        a = gop["gopher_pass"].to_numpy(zero_copy_only=False).astype(bool)
        b = (
            batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
            >= min_chars
        )
        return pa.table(
            {
                "n11": pa.array([int(np.sum(a & b))], pa.int64()),
                "n10": pa.array([int(np.sum(a & ~b))], pa.int64()),
                "n01": pa.array([int(np.sum(~a & b))], pa.int64()),
                "n00": pa.array([int(np.sum(~a & ~b))], pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    n11 = sum(int(r["n11"]) for r in parts)
    n10 = sum(int(r["n10"]) for r in parts)
    n01 = sum(int(r["n01"]) for r in parts)
    n00 = sum(int(r["n00"]) for r in parts)
    n = n11 + n10 + n01 + n00
    agree_ppm = (
        int(np.floor(float(n11 + n00) / float(n) * 10**6 + 0.5)) if n else 0
    )
    r1, r0 = n11 + n10, n01 + n00
    c1, c0 = n11 + n01, n10 + n00
    chance = r1 * c1 + r0 * c0
    kappa_ppm = None
    if n and n * n != chance:
        num = n * (n11 + n00) - chance
        den = n * n - chance
        kappa_ppm = int(np.floor(float(num) / float(den) * 10**6 + 0.5))
    return pa.table(
        {
            "n11": pa.array([n11], pa.int64()),
            "n10": pa.array([n10], pa.int64()),
            "n01": pa.array([n01], pa.int64()),
            "n00": pa.array([n00], pa.int64()),
            "agree_ppm": pa.array([agree_ppm], pa.int64()),
            "kappa_ppm": pa.array([kappa_ppm], pa.int64()),
        }
    )


GOPHER_LENGTH_KAPPA_SQL = (
    "WITH g AS ("
    + GOPHER_QUALITY_SQL
    + """),
flags AS (
  SELECT g.gopher_pass AS a,
         CASE WHEN d.n_chars >= 200 THEN 1 ELSE 0 END AS b
  FROM g JOIN documents d USING (doc_id)
),
cm AS (
  SELECT CAST(SUM(a * b) AS HUGEINT) AS n11,
         CAST(SUM(a * (1 - b)) AS HUGEINT) AS n10,
         CAST(SUM((1 - a) * b) AS HUGEINT) AS n01,
         CAST(SUM((1 - a) * (1 - b)) AS HUGEINT) AS n00
  FROM flags
),
f AS (
  SELECT n11, n10, n01, n00,
         n11 + n10 + n01 + n00 AS n,
         (n11 + n10) * (n11 + n01) + (n01 + n00) * (n10 + n00) AS chance
  FROM cm
)
SELECT CAST(n11 AS BIGINT) AS n11, CAST(n10 AS BIGINT) AS n10,
       CAST(n01 AS BIGINT) AS n01, CAST(n00 AS BIGINT) AS n00,
       CAST(FLOOR(CAST(n11 + n00 AS DOUBLE) / CAST(n AS DOUBLE)
                  * 1000000 + 0.5) AS BIGINT) AS agree_ppm,
       CASE WHEN n * n <> chance
            THEN CAST(FLOOR(CAST(n * (n11 + n00) - chance AS DOUBLE)
                            / CAST(n * n - chance AS DOUBLE)
                            * 1000000 + 0.5) AS BIGINT) END AS kappa_ppm
FROM f
"""
)
