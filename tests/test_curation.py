"""Semantic tests for the curation operators (pii scrub, repetition
signals, decontamination, mixture sampling, rank scoring, clustering) on
hand-built inputs with hand-computed expectations.  The driver-gate parity
of the full operators runs in tests/test_queries_oracle.py."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from deepseek_ocr_ray.pipelines import curation
from deepseek_ocr_ray.stages import graph


# ---------------------------------------------------------------------------
# token / n-gram plumbing
# ---------------------------------------------------------------------------


def test_tokens_flat_lowercases_and_drops_empties():
    flat, parent = curation.tokens_flat(pa.array(["A  b", "", "  c "]))
    assert flat.to_pylist() == ["a", "b", "c"]
    assert parent.tolist() == [0, 0, 2]


def test_ngram_rows_respects_document_boundaries():
    flat, parent = curation.tokens_flat(pa.array(["a b c", "d e"]))
    ng, ngp = curation.ngram_rows(flat, parent, 2)
    # "c d" spans two documents and must NOT appear
    assert ng.to_pylist() == ["a b", "b c", "d e"]
    assert ngp.tolist() == [0, 0, 1]


def test_ngram_rows_short_streams():
    flat, parent = curation.tokens_flat(pa.array(["a"]))
    ng, ngp = curation.ngram_rows(flat, parent, 3)
    assert len(ng) == 0 and len(ngp) == 0


# ---------------------------------------------------------------------------
# PII scrub
# ---------------------------------------------------------------------------


def test_scrub_batch_redacts_all_three_kinds():
    out = curation.scrub_batch(
        pa.array(
            [
                "mail bob.smith+x@corp.example.org now",
                "host 192.168.0.1 and 10.0.0.255 up",
                "call +1-555-0123 or +44-201-9999",
                "clean text with no pii at all",
            ]
        )
    )
    assert out["clean_text"].to_pylist() == [
        "mail <EMAIL> now",
        "host <IP> and <IP> up",
        "call <PHONE> or <PHONE>",
        "clean text with no pii at all",
    ]
    assert out["n_emails"].to_pylist() == [1, 0, 0, 0]
    assert out["n_ips"].to_pylist() == [0, 2, 0, 0]
    assert out["n_phones"].to_pylist() == [0, 0, 2, 0]


def test_scrub_batch_order_email_before_ip():
    # the dotted digits inside an email must be swallowed by the EMAIL
    # pass, not partially hit by the IP pass
    out = curation.scrub_batch(pa.array(["x 1.2.3.4@a.bc y"]))
    assert out["clean_text"].to_pylist() == ["x <EMAIL> y"]
    assert out["n_emails"].to_pylist() == [1]


# ---------------------------------------------------------------------------
# repetition signals (through the same group_by interior the operator uses)
# ---------------------------------------------------------------------------


def _repetition_on(texts: list[str]) -> pa.Table:
    import ray.data

    import pyarrow.parquet as pq
    import tempfile, os

    tmp = tempfile.mkdtemp()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts)),
                "source": pa.array(["src0"] * len(texts)),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        os.path.join(tmp, "documents.parquet"),
    )
    df = curation.doc_repetition(tmp).to_pandas()
    return pa.Table.from_pandas(
        df.sort_values("doc_id").reset_index(drop=True)
    )


def test_doc_repetition_counts(ray_session):
    t = _repetition_on(
        [
            "a b a b a b",          # bigrams: 5 total; "a b" x3 (top)
            "x y z",                # 2 bigrams, 1 trigram, no repetition
        ]
    ).to_pylist()
    d0, d1 = t
    assert d0["n_tokens"] == 6 and d0["n_bigrams"] == 5
    assert d0["top_bigram_n"] == 3  # "a b" at positions 0,2,4
    # trigrams: "a b a","b a b","a b a","b a b" → 4 total, 2 distinct
    assert d0["n_trigrams"] == 4 and d0["dup_trigram_excess"] == 2
    assert d0["flag_top_bigram"] == 0  # 3/5 = 60 % > 15 %
    assert d0["flag_dup_trigram"] == 0  # 2/4 = 50 % > 10 %
    assert d1["n_tokens"] == 3 and d1["top_bigram_n"] == 1
    assert d1["dup_trigram_excess"] == 0
    assert d1["flag_top_bigram"] == 0  # 1/2 = 50 % > 15 %
    assert d1["flag_dup_trigram"] == 1


# ---------------------------------------------------------------------------
# mixture sampling
# ---------------------------------------------------------------------------


def test_mixture_copies_deterministic(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    n = 400
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(["w"] * n),
                "lang": pa.array(["en"] * n),
                "source": pa.array([f"src{i % 8}" for i in range(n)]),
                "n_chars": pa.array([1] * n, pa.int64()),
            }
        ),
        os.path.join(str(tmp_path), "documents.parquet"),
    )
    out = curation.mixture_sample(str(tmp_path)).to_pandas()
    by_doc = out.groupby("doc_id").size()
    src_idx = np.array([i % 8 for i in range(n)]) % 4
    # weight floors: src%4==0 → ≥2 copies exactly (frac 0); ==2 → exactly 1
    assert (by_doc.reindex(range(n), fill_value=0)[src_idx == 0] == 2).all()
    assert (by_doc.reindex(range(n), fill_value=0)[src_idx == 2] == 1).all()
    # weight 1.5 → 1 or 2; weight 0.25 → 0 or 1, with BOTH outcomes present
    w15 = by_doc.reindex(range(n), fill_value=0)[src_idx == 1]
    w025 = by_doc.reindex(range(n), fill_value=0)[src_idx == 3]
    assert set(w15.unique()) <= {1, 2} and len(set(w15.unique())) == 2
    assert set(w025.unique()) <= {0, 1} and len(set(w025.unique())) == 2
    # epochs are 0..copies-1
    assert (
        out.groupby("doc_id")["epoch"].max() + 1 == by_doc
    ).all()
    # rerun → identical rows (deterministic hash, no RNG)
    out2 = curation.mixture_sample(str(tmp_path)).to_pandas()
    assert out.sort_values(["doc_id", "epoch"]).reset_index(drop=True).equals(
        out2.sort_values(["doc_id", "epoch"]).reset_index(drop=True)
    )


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def _cc(edges: list[tuple[int, int]], nodes: list[int]):
    import ray.data

    from deepseek_ocr_ray.stages.graph import connected_components

    e = ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array([a for a, _ in edges], pa.int64()),
                "id_b": pa.array([b for _, b in edges], pa.int64()),
            }
        )
    )
    nd = ray.data.from_arrow(pa.table({"vec_id": pa.array(nodes, pa.int64())}))
    out = connected_components(
        e, nd, id_col="vec_id", u_col="id_a", v_col="id_b"
    ).to_pandas()
    return dict(zip(out["vec_id"], out["cluster_id"]))


def test_cc_basic_components(ray_session):
    got = _cc([(1, 2), (2, 3), (5, 6)], [1, 2, 3, 4, 5, 6])
    assert got == {1: 1, 2: 1, 3: 1, 4: 4, 5: 5, 6: 5}


def test_cc_long_chain_converges(ray_session, monkeypatch):
    # a path graph is the worst case for plain min-propagation (diameter
    # rounds); 12 nodes must still converge inside the default bound —
    # forced through the DISTRIBUTED rounds (auto would go local here)
    import ray.data

    from deepseek_ocr_ray.stages.graph import connected_components

    n = 12
    e = ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array(list(range(n - 1)), pa.int64()),
                "id_b": pa.array(list(range(1, n)), pa.int64()),
            }
        )
    )
    nd = ray.data.from_arrow(pa.table({"id": pa.array(range(n), pa.int64())}))
    monkeypatch.setattr(graph, "LOCAL_CC_THRESHOLD", -1)  # distributed
    out = connected_components(e, nd, u_col="id_a", v_col="id_b").to_pandas()
    assert dict(zip(out["id"], out["cluster_id"])) == {i: 0 for i in range(n)}


def test_cc_local_and_distributed_plans_equal(ray_session, monkeypatch):
    """The auto-select threshold must never change answers: random graphs
    through the driver-side numpy plan and the shuffle-join rounds give
    identical components."""
    import ray.data

    from deepseek_ocr_ray.stages.graph import connected_components

    rng = np.random.default_rng(7)
    for trial in range(3):
        n = 40
        m = rng.integers(10, 60)
        ea = rng.integers(0, n, m).astype(np.int64)
        eb = rng.integers(0, n, m).astype(np.int64)
        e = ray.data.from_arrow(
            pa.table({"id_a": pa.array(ea), "id_b": pa.array(eb)})
        )
        nd = ray.data.from_arrow(
            pa.table({"id": pa.array(range(n), pa.int64())})
        )
        outs = []
        for threshold in (1 << 62, -1):  # local, distributed
            monkeypatch.setattr(graph, "LOCAL_CC_THRESHOLD", threshold)
            df = (
                connected_components(e, nd, u_col="id_a", v_col="id_b")
                .to_pandas()
                .sort_values("id")
                .reset_index(drop=True)
            )
            outs.append(df)
        assert outs[0].equals(outs[1]), f"trial {trial} plans disagree"


def test_cc_nonconvergence_raises(ray_session, monkeypatch):
    import ray.data

    from deepseek_ocr_ray.stages.graph import connected_components

    e = ray.data.from_arrow(
        pa.table(
            {"id_a": pa.array([0, 1, 2], pa.int64()),
             "id_b": pa.array([1, 2, 3], pa.int64())}
        )
    )
    nd = ray.data.from_arrow(pa.table({"id": pa.array(range(4), pa.int64())}))
    monkeypatch.setattr(graph, "LOCAL_CC_THRESHOLD", -1)  # distributed
    with pytest.raises(RuntimeError, match="converge"):
        connected_components(e, nd, u_col="id_a", v_col="id_b", max_iters=1)


# ---------------------------------------------------------------------------
# decontamination
# ---------------------------------------------------------------------------


def test_decontaminate_flags_overlap(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    # doc 0 (id 0 % 41 == 0) is the benchmark; doc 1 copies 5 of its words
    # verbatim, doc 2 shares no 5-gram
    texts = {
        0: "alpha beta gamma delta epsilon zeta",
        1: "xx alpha beta gamma delta epsilon yy",
        2: "one two three four five six seven",
        41: "unrelated benchmark text entirely different words here",
    }
    ids = sorted(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array([texts[i] for i in ids]),
                "lang": pa.array(["en"] * len(ids)),
                "source": pa.array(["src0"] * len(ids)),
                "n_chars": pa.array([len(texts[i]) for i in ids], pa.int64()),
            }
        ),
        os.path.join(str(tmp_path), "documents.parquet"),
    )
    out = curation.decontaminate(str(tmp_path)).to_pandas().set_index("doc_id")
    assert sorted(out.index) == [1, 2]  # benchmark docs excluded
    assert out.loc[1, "flag_contaminated"] == 1
    # one shared 5-gram: "alpha beta gamma delta epsilon"
    assert out.loc[1, "n_overlap"] == 1
    assert out.loc[2, "flag_contaminated"] == 0 and out.loc[2, "n_overlap"] == 0


# ---------------------------------------------------------------------------
# token rank scoring
# ---------------------------------------------------------------------------


def test_token_rank_stats_hand_computed(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    # corpus counts: b×3, a×2, c×1 → ranks b=1, a=2, c=3
    texts = ["a b b", "b a c"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(["en", "en"]),
                "source": pa.array(["src0", "src0"]),
                "n_chars": pa.array([5, 5], pa.int64()),
            }
        ),
        os.path.join(str(tmp_path), "documents.parquet"),
    )
    out = (
        curation.token_rank_stats(str(tmp_path))
        .to_pandas()
        .set_index("doc_id")
    )
    assert out.loc[0, "sum_token_rank"] == 2 + 1 + 1  # a b b
    assert out.loc[1, "sum_token_rank"] == 1 + 2 + 3  # b a c
    assert (out["n_tokens"] == 3).all()


# ---------------------------------------------------------------------------
# parallelism invariance: results must not depend on block structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "qname",
    ["pii_scrub", "doc_repetition", "decontaminate", "mixture_sample",
     "token_rank_stats", "dedup_clusters"],
)
def test_curation_ops_block_invariant(ray_session, qname, monkeypatch):
    """Running the same operator over 1-block and many-block reads of the
    same table must give identical rows — no operator may depend on what
    lands in a batch together."""
    import ray.data

    from deepseek_ocr_ray.pipelines import analytics

    SF = "/root/testdata/sf0.001"
    fn = getattr(curation, qname)
    real_read = analytics.read_table

    outs = []
    for blocks in (1, 7):
        def read_override(sf_dir, name, columns=None, _b=blocks):
            return real_read(sf_dir, name, columns=columns).repartition(_b)

        monkeypatch.setattr(curation, "read_table", read_override)
        df = fn(SF).to_pandas()
        df = df.sort_values(
            [c for c in ("doc_id", "vec_id", "epoch") if c in df.columns]
        ).reset_index(drop=True)
        outs.append(df)
    monkeypatch.setattr(curation, "read_table", real_read)
    assert outs[0].equals(outs[1]), f"{qname} depends on block structure"


# ---------------------------------------------------------------------------
# corpus_filter composition
# ---------------------------------------------------------------------------


def test_corpus_filter_each_flag_has_a_designated_failure(ray_session, tmp_path):
    """Hand-built corpus where each keep signal has exactly one designed
    casualty; doc 0 (id % 41 == 0) is the benchmark."""
    import os

    import pyarrow.parquet as pq

    good = ("the quick brown fox jumps over the lazy dog while autumn "
            "rain falls, softly on the quiet village rooftops tonight")
    texts = {
        0: "benchmark alpha beta gamma delta epsilon zeta eta theta",
        1: good,                                        # keeps everything
        2: "word " * 60,                                # repetition casualty
        3: "tiny doc",                                  # quality (len < 5 tokens)
        4: good,                                        # dup loser (1 wins)
        5: "xx alpha beta gamma delta epsilon yy oh no extra words here "
           "to make the quality gates pass with varied, vocabulary okay",
                                                        # contamination casualty
    }
    ids = sorted(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array([texts[i] for i in ids]),
                "lang": pa.array(["en"] * len(ids)),
                "source": pa.array(["src0"] * len(ids)),
                "n_chars": pa.array([len(texts[i]) for i in ids], pa.int64()),
            }
        ),
        os.path.join(str(tmp_path), "documents.parquet"),
    )
    out = (
        curation.corpus_filter(str(tmp_path))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert sorted(out.index) == [1, 2, 3, 4, 5]  # benchmark doc excluded
    assert out.loc[1, "keep"] == 1
    assert out.loc[2, "flag_repetition"] == 0 and out.loc[2, "keep"] == 0
    assert out.loc[3, "flag_quality"] == 0 and out.loc[3, "keep"] == 0
    assert out.loc[4, "flag_unique"] == 0 and out.loc[4, "keep"] == 0
    assert out.loc[1, "flag_unique"] == 1
    assert out.loc[5, "flag_clean"] == 0 and out.loc[5, "keep"] == 0


def test_bigram_counts_vs_duckdb(ray_session, tmp_path):
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from deepseek_ocr_ray.pipelines.analytics import (
        BIGRAM_COUNTS_SQL, bigram_counts,
    )

    tab = pa.table({
        "text": pa.array([
            "The quick brown fox  jumps",
            "  the quick brown  ",
            "one",
            "",
            "the quick the quick the",
        ]),
    })
    pq.write_table(tab, str(tmp_path / "documents.parquet"))
    got = [
        (r["bigram"], r["n"])
        for r in bigram_counts(str(tmp_path), k=50).take_all()
    ]
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = con.execute(BIGRAM_COUNTS_SQL).fetchall()
    assert got == want
    assert ("the quick", 4) in got          # crosses no doc boundary
    assert all(" one" not in b and "one " not in b for b, _ in got)


# ---------------------------------------------------------------------------
# skip-gram co-occurrence
# ---------------------------------------------------------------------------


def test_skipgram_pairs_brute(ray_session, tmp_path):
    """Windowed co-occurrence equals the brute offset walk: unordered
    normalization (least/greatest), window never crosses documents, both
    directions of a pair accumulate."""
    import os
    from collections import Counter

    import numpy as np
    import pyarrow.parquet as pq

    rng = np.random.default_rng(9)
    vocab = [f"w{i}" for i in range(8)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(0, 12)))
        for _ in range(80)
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(["en"] * len(texts)),
                "source": pa.array(["s"] * len(texts)),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        os.path.join(str(tmp_path), "documents.parquet"),
    )
    cnt = Counter()
    for t in texts:
        tk = [w for w in t.lower().split() if w]
        for i in range(len(tk)):
            for off in (1, 2, 3):
                if i + off < len(tk):
                    a, b = tk[i], tk[i + off]
                    cnt[(min(a, b), max(a, b))] += 1
    want = sorted(cnt.items(), key=lambda x: (-x[1], x[0]))[:50]
    want = [(w1, w2, n) for (w1, w2), n in want]
    got = [
        tuple(r)
        for r in curation.skipgram_pairs(str(tmp_path))
        .to_pandas()
        .itertuples(index=False)
    ]
    assert got == want


# ---------------------------------------------------------------------------
# Gopher composite quality filter
# ---------------------------------------------------------------------------


def test_gopher_batch_hand_computed():
    # enrichment order is merge → table → slow; ' table ' consumes the
    # space that ' slow ' in doc 1 would have needed, so only the bullet
    # rewrite fires there (deterministic on both sides — the SQL oracle
    # nests the replaces in the same order)
    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    # → "a b\nc d\nc d" : 3 lines, one duplicate line
                    "a b merge c d merge c d",
                    # → "x slow\n- y z" : bullet start, no ellipsis
                    "x slow table y z",
                    # → "big...\nsort err ok go" : ellipsis line end
                    "big slow sort err ok go",
                    # no rewrites hit: a single line
                    "just one line here ok",
                ]
            ),
        }
    )
    assert curation._gopher_enrich(batch["text"]).to_pylist() == [
        "a b\nc d\nc d",
        "x slow\n- y z",
        "big...\nsort err ok go",
        "just one line here ok",
    ]
    out = curation._gopher_batch(batch).to_pydict()
    assert out["n_lines"] == [3, 2, 2, 1]
    assert out["n_dup_lines"] == [1, 0, 0, 0]
    assert out["n_bullet_lines"] == [0, 1, 0, 0]
    assert out["n_ellipsis_lines"] == [0, 0, 1, 0]
    # doc 1 words: x, slow, -, y, z → 5 words, 4 alphabetic
    # doc 2 words: big..., sort, err, ok, go → 5 words, all alphabetic
    assert out["n_words"] == [6, 5, 5, 5]
    assert out["n_alpha_words"] == [6, 4, 5, 5]
    # symbols: doc 1 one '-'; doc 2 three '.'
    assert out["n_symbols"] == [0, 1, 3, 0]
    # doc 0 dup-line 1/3: 10*1 <= 3*3 is FALSE → flag_dup_lines = 0
    assert out["flag_dup_lines"] == [0, 1, 1, 1]
    assert out["flag_words"] == [1, 1, 1, 1]
    assert out["flag_bullet"] == [1, 1, 1, 1]
    # doc 2 ellipsis 1/2: 10 <= 6 FALSE
    assert out["flag_ellipsis"] == [1, 1, 0, 1]
    # doc 1 alpha 4/5: 20 >= 20 passes
    assert out["flag_alpha"] == [1, 1, 1, 1]
    # doc 1: 10*1 > 5 fails; doc 2: 10*3 > 5 fails
    assert out["flag_symbol"] == [1, 0, 0, 1]
    assert out["gopher_pass"] == [0, 0, 0, 1]


def test_gopher_empty_and_whitespace_docs():
    batch = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["", "   "]),
        }
    )
    out = curation._gopher_batch(batch).to_pydict()
    assert out["n_lines"] == [1, 1]
    assert out["n_words"] == [0, 0]
    assert out["flag_words"] == [0, 0]
    assert out["gopher_pass"] == [0, 0]


# ---------------------------------------------------------------------------
# inverted-index build
# ---------------------------------------------------------------------------


def test_token_postings_hand_computed(ray_session, tmp_path):
    import os
    import pyarrow.parquet as pq

    docs = pa.table(
        {
            "doc_id": pa.array([7, 3, 10], pa.int64()),
            "text": pa.array(["b a b B", "a c", "c c c a"]),
        }
    )
    pq.write_table(docs, os.path.join(str(tmp_path), "documents.parquet"))
    out = (
        curation.token_postings(str(tmp_path))
        .to_pandas()
        .set_index("token")
    )
    # 'b' appears 3× in doc 7 only (lowercased)
    assert out.loc["b", "df"] == 1
    assert out.loc["b", "total_tf"] == 3
    assert out.loc["b", "postings"] == "7:3"
    # 'a': doc 3 once, doc 7 once, doc 10 once — ascending doc order
    assert out.loc["a", "postings"] == "3:1,7:1,10:1"
    assert out.loc["a", "df"] == 3
    # 'c': doc 3 once, doc 10 three times
    assert out.loc["c", "postings"] == "3:1,10:3"
    assert out.loc["c", "total_tf"] == 4
    assert list(out.index) == sorted(out.index)


def test_token_postings_layout_invariant(ray_session, tmp_path):
    import os
    import pyarrow.parquet as pq

    rng = np.random.RandomState(7)
    vocab = ["aa", "bb", "cc", "dd"]
    docs = pa.table(
        {
            "doc_id": pa.array(list(range(40)), pa.int64()),
            "text": pa.array(
                [" ".join(rng.choice(vocab, rng.randint(1, 9))) for _ in range(40)]
            ),
        }
    )
    one = os.path.join(str(tmp_path), "one")
    many = os.path.join(str(tmp_path), "many")
    os.makedirs(one), os.makedirs(many)
    pq.write_table(docs, os.path.join(one, "documents.parquet"))
    # vary the layout (8-row row groups) AND the exchange (3 buckets)
    pq.write_table(docs, os.path.join(many, "documents.parquet"), row_group_size=8)
    a = curation.token_postings(one).to_pandas().sort_values("token").reset_index(drop=True)
    b = (
        curation.token_postings(many, n_buckets=3)
        .to_pandas()
        .sort_values("token")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


def test_doc_rarity_engineered(ray_session, tmp_path):
    """Known df structure: 'the' appears in all docs, 'cat'/'dog' in two,
    rare words in one.  top_k=2 ⇒ stop set {the, cat} (df tie at 2 broken
    by token asc: cat < dog).  Empty doc rides through with zeros."""
    import os
    import pyarrow.parquet as pq

    texts = [
        "the cat sat",          # the(stop) cat(stop) sat → 2/3
        "the dog ran",          # the → 1/3
        "the the zebra",        # the the → 2/3, distinct 2
        "",                     # zeros
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(4), pa.int64()),
                "text": pa.array(texts),
            }
        ),
        os.path.join(str(tmp_path), "documents.parquet"),
    )
    out = (
        curation.doc_rarity(str(tmp_path), top_k=2)
        .to_pandas()
        .set_index("doc_id")
    )
    # df: the=3, cat=1, dog=1, ran=1, sat=1, zebra=1 → top2 = {the, cat}
    assert out.loc[0].n_tokens == 3 and out.loc[0].n_stop_tokens == 2
    assert out.loc[0].stop_ppm == 2_000_000 // 3
    assert out.loc[1].n_stop_tokens == 1
    assert out.loc[2].n_tokens == 3 and out.loc[2].n_stop_tokens == 2
    assert out.loc[2].n_distinct_tokens == 2
    assert (
        out.loc[3].n_tokens == 0
        and out.loc[3].stop_ppm == 0
        and out.loc[3].n_distinct_tokens == 0
    )


@pytest.mark.parametrize("blocks", [1, 5])
def test_doc_rarity_layout_invariant(ray_session, tmp_path, blocks):
    """df pass and per-doc pass are both layout-independent given the
    one-row-per-doc contract — kept statistics must not move with block
    count (exercised through the parquet row-group path via repartition
    inside the operator's own read? no — the operator reads the dir, so
    vary the FILE layout instead)."""
    import os
    import pyarrow.parquet as pq

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(9)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(1, 12)).tolist())
        for _ in range(60)
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(60), pa.int64()),
            "text": pa.array(texts),
        }
    )
    d = os.path.join(str(tmp_path), f"lay{blocks}")
    os.makedirs(d)
    pq.write_table(tbl, os.path.join(d, "documents.parquet"),
                   row_group_size=max(1, 60 // blocks))
    out = curation.doc_rarity(d, top_k=3).to_pandas()
    base_dir = os.path.join(str(tmp_path), "base")
    os.makedirs(base_dir)
    pq.write_table(tbl, os.path.join(base_dir, "documents.parquet"))
    base = curation.doc_rarity(base_dir, top_k=3).to_pandas()
    pd_testing = __import__("pandas").testing
    pd_testing.assert_frame_equal(out, base)


def test_corpus_quality_filter_consistency(ray_session):
    """The composite must equal the AND of the three signals computed
    independently — catches flag drift between the fused pipeline and its
    parts."""
    from deepseek_ocr_ray.pipelines import analytics

    d = "/root/testdata/sf0.001"
    out = (
        curation.corpus_quality_filter(d).to_pandas().set_index("doc_id")
    )
    r = curation.doc_rarity(d, top_k=8).to_pandas().set_index("doc_id")
    l = analytics.doc_lm_score(d).to_pandas().set_index("doc_id")
    g = curation.gopher_quality(d).to_pandas().set_index("doc_id")
    want = (
        (r.stop_ppm >= 200_000)
        & (l.mean_cond_ppm >= 34_000)
        & (g.gopher_pass == 1)
    ).astype("int64")
    assert (out.quality_pass == want.loc[out.index]).all()
    assert 0 < out.quality_pass.mean() < 1  # discriminates


def test_quality_filter_cli(tmp_path):
    """End-to-end CLI: surviving docs keep ALL original columns and match
    the composed filter's pass set (subprocess — the CLI owns its own Ray
    session and shuts it down)."""
    import json
    import subprocess
    import sys

    out_dir = str(tmp_path / "kept")
    r = subprocess.run(
        [
            sys.executable, "-m", "deepseek_ocr_ray", "quality-filter",
            "--input", "/root/testdata/sf0.001",
            "--output", out_dir,
            "--num-cpus", "4",
        ],
        capture_output=True, text=True, timeout=300,
        cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["total"] == 500 and 0 < summary["kept"] < 500

    import pyarrow.parquet as pq

    t = pq.read_table(out_dir)
    assert t.num_rows == summary["kept"]
    assert set(t.column_names) == {
        "doc_id", "text", "lang", "source", "n_chars"
    }


# ---------------------------------------------------------------------------
# C4-style line dedup
# ---------------------------------------------------------------------------


def _line_corpus(tmp_path, name="ld"):
    """Engineered corpus: ' merge ' becomes a newline on both sides, so
    docs share exact lines across documents."""
    import os

    import pyarrow.parquet as pq

    texts = [
        "shared line merge unique one",          # doc 0: L1='shared line', L2='unique one'
        "shared line merge unique two",          # doc 1: L1 dup of doc0 L1 -> dropped
        "only here merge shared line",           # doc 2: L2 dup -> dropped
        "repeat me merge repeat me",             # doc 3: within-doc dup, keeper idx 1
        "shared line",                           # doc 4: single line, dup -> all dropped
        "",                                      # doc 5: empty -> one '' line (unique unless another empty)
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(len(texts))), pa.int64()),
            "text": pa.array(texts),
        }
    )
    d = os.path.join(str(tmp_path), name)
    os.makedirs(d)
    pq.write_table(tbl, os.path.join(d, "documents.parquet"), row_group_size=2)
    return d


def test_line_dedup_scrub_fixture(ray_session, tmp_path):
    d = _line_corpus(tmp_path)
    out = curation.line_dedup_scrub(d).to_pandas().set_index("doc_id")
    # doc 0 keeps both lines (keeper of 'shared line')
    assert out.loc[0, "text"] == "shared line\nunique one"
    assert out.loc[0, "n_dropped_lines"] == 0
    # doc 1 loses the shared first line
    assert out.loc[1, "text"] == "unique two"
    assert out.loc[1, "n_dropped_lines"] == 1
    # doc 2 loses the shared second line
    assert out.loc[2, "text"] == "only here"
    # doc 3: within-doc duplicate, first occurrence kept
    assert out.loc[3, "text"] == "repeat me"
    assert out.loc[3, "n_lines"] == 2 and out.loc[3, "n_dropped_lines"] == 1
    # doc 4: its only line is a non-keeper duplicate -> empty text
    assert out.loc[4, "text"] == "" and out.loc[4, "n_dropped_lines"] == 1
    # doc 5: unique empty line survives
    assert out.loc[5, "text"] == "" and out.loc[5, "n_dropped_lines"] == 0
    assert out.loc[5, "n_lines"] == 1


def test_line_dedup_scrub_plan_equality(ray_session, tmp_path, monkeypatch):
    import pandas as pd

    d = _line_corpus(tmp_path)
    b = curation.line_dedup_scrub(d).to_pandas()  # broadcast at this size
    b2 = curation.line_dedup_scrub("/root/testdata/sf0.001").to_pandas()
    monkeypatch.setattr(curation, "_resolve_probe", lambda dup: "join")
    j = curation.line_dedup_scrub(d).to_pandas()
    pd.testing.assert_frame_equal(
        b.reset_index(drop=True), j.reset_index(drop=True)
    )
    # and on the real sf0.001 corpus
    j2 = curation.line_dedup_scrub("/root/testdata/sf0.001").to_pandas()
    pd.testing.assert_frame_equal(
        b2.reset_index(drop=True), j2.reset_index(drop=True)
    )


def test_line_dedup_scrub_vs_duckdb_fixture(ray_session, tmp_path):
    import duckdb
    import pandas as pd

    d = _line_corpus(tmp_path)
    got = curation.line_dedup_scrub(d).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = con.execute(curation.LINE_DEDUP_SCRUB_SQL).fetch_df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True),
        check_dtype=False,
    )


# ---------------------------------------------------------------------------
# source divergence (total-variation distance)
# ---------------------------------------------------------------------------


def test_source_divergence_hand_computed(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    # source A: tokens {a:2, b:1} (n=3); source B: {b:1, c:2} (n=3); N=6
    # ct: a=2, b=2, c=2
    # A: |2*6-2*3| + |1*6-2*3| = 6+0=6; cov=4; missing: 3*(6-4)=6; tv=1e6*12//36=333333
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["a a b", "b c c"]),
            "lang": pa.array(["en", "en"]),
            "source": pa.array(["A", "B"]),
            "n_chars": pa.array([5, 5], pa.int64()),
        }
    )
    d = str(tmp_path)
    pq.write_table(tbl, os.path.join(d, "documents.parquet"))
    out = curation.source_divergence(d).to_pandas().set_index("source")
    assert out.loc["A", "n_tokens"] == 3
    assert out.loc["A", "n_distinct_tokens"] == 2
    assert out.loc["A", "tv_ppm"] == 333333
    assert out.loc["B", "tv_ppm"] == 333333


def test_source_divergence_exact_int_path_matches_numpy(ray_session, tmp_path, monkeypatch):
    """Force the Python-int fallback (pretend the int64 horizon is 0) and
    require identical output to the numpy fast path."""
    import os

    import numpy as _np
    import pyarrow.parquet as pq

    rng = _np.random.RandomState(3)
    texts = [
        " ".join(rng.choice(list("abcdefgh"), rng.randint(1, 30)))
        for _ in range(80)
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(80), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * 80),
            "source": pa.array([f"s{i % 5}" for i in range(80)]),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    d = str(tmp_path)
    pq.write_table(tbl, os.path.join(d, "documents.parquet"), row_group_size=7)
    fast = curation.source_divergence(d).to_pandas()
    monkeypatch.setattr(curation, "_TV_INT64_HORIZON", 0)
    exact = curation.source_divergence(d).to_pandas()
    import pandas as pd

    pd.testing.assert_frame_equal(
        fast.reset_index(drop=True), exact.reset_index(drop=True)
    )

    import duckdb

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = con.execute(curation.SOURCE_DIVERGENCE_SQL).fetch_df()
    pd.testing.assert_frame_equal(
        fast.reset_index(drop=True), want.reset_index(drop=True),
        check_dtype=False,
    )


# ---------------------------------------------------------------------------
# DSIR importance scoring
# ---------------------------------------------------------------------------


def test_dsir_scores_discriminates_target_lang(ray_session, tmp_path):
    """Docs sharing the target language's vocabulary must outscore docs
    built from off-target vocabulary."""
    import os

    import pyarrow.parquet as pq

    en = ["the cat sat on the mat"] * 6
    de = ["der hund lief durch den wald"] * 6
    mixed = ["the cat der hund"]
    texts = en + de + mixed
    langs = ["en"] * 6 + ["de"] * 6 + ["de"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(langs),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    d = str(tmp_path)
    pq.write_table(tbl, os.path.join(d, "documents.parquet"), row_group_size=3)
    out = curation.dsir_scores(d).to_pandas().set_index("doc_id")
    # an english doc carries far more target-mass than a german doc
    assert out.loc[0, "dsir_ppm"] > out.loc[6, "dsir_ppm"]
    # the mixed doc sits strictly between
    assert out.loc[6, "dsir_ppm"] < out.loc[12, "dsir_ppm"] < out.loc[0, "dsir_ppm"]
    # layout invariance: same corpus in one row group
    d2 = os.path.join(str(tmp_path), "one")
    os.makedirs(d2)
    pq.write_table(tbl, os.path.join(d2, "documents.parquet"))
    out2 = curation.dsir_scores(d2).to_pandas().set_index("doc_id")
    import pandas as pd

    pd.testing.assert_frame_equal(out, out2)


def test_dsir_fast_mode_runs_and_scores(ray_session):
    out = curation.dsir_scores(
        "/root/testdata/sf0.001", hash_mode="fast"
    ).to_pandas()
    assert len(out) == 500
    assert (out.n_features >= 0).all()
    assert out.dsir_ppm.nunique() > 10  # discriminates


# ---------------------------------------------------------------------------
# benchmark-side contamination report
# ---------------------------------------------------------------------------


def test_bench_contamination_report_planted(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    shared = "alpha beta gamma delta epsilon"
    texts = {
        0: f"benchmark item with {shared} inside",     # bench (0 % 41 == 0)
        41: "clean benchmark nothing shared here at all",  # bench
        82: "tiny",                                     # bench, no 5-gram
        1: f"training doc copying {shared} verbatim",   # train
        2: "unrelated training text about other things entirely",
    }
    ids = sorted(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array([texts[i] for i in ids]),
            "lang": pa.array(["en"] * len(ids)),
            "source": pa.array(["s"] * len(ids)),
            "n_chars": pa.array([len(texts[i]) for i in ids], pa.int64()),
        }
    )
    d = str(tmp_path)
    pq.write_table(tbl, os.path.join(d, "documents.parquet"), row_group_size=2)
    out = (
        curation.bench_contamination_report(d)
        .to_pandas()
        .set_index("doc_id")
    )
    assert sorted(out.index) == [0, 41, 82]
    assert out.loc[0, "flag_compromised"] == 1
    assert out.loc[0, "n_compromised"] == 1  # exactly the planted gram
    assert out.loc[41, "flag_compromised"] == 0
    assert out.loc[82, "n_ngrams"] == 0 and out.loc[82, "compromised_ppm"] == 0

    import duckdb
    import pandas as pd

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = con.execute(curation.BENCH_CONTAMINATION_SQL).fetch_df()
    pd.testing.assert_frame_equal(
        out.reset_index(), want.reset_index(drop=True), check_dtype=False
    )


def test_bpe_pair_counts_hand_computed(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    # words: "abab" x3, "ba" x2  -> pairs: ab: 2*3=6, ba: 1*3+1*2=5
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["abab abab ba", "abab ba"]),
            "lang": pa.array(["en", "en"]),
            "source": pa.array(["s", "s"]),
            "n_chars": pa.array([12, 7], pa.int64()),
        }
    )
    d = str(tmp_path)
    pq.write_table(tbl, os.path.join(d, "documents.parquet"), row_group_size=1)
    out = curation.bpe_pair_counts(d).to_pandas()
    assert out.pair.tolist() == ["ab", "ba"]
    assert out.n.tolist() == [6, 5]


def test_doc_keywords_hand_computed(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    # doc0: rare appears twice (df=1 -> score 2000000), common once (df=3)
    texts = ["rare rare common", "common shared", "common shared extra"]
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(["s"] * 3),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    d = str(tmp_path)
    pq.write_table(tbl, os.path.join(d, "documents.parquet"), row_group_size=1)
    out = curation.doc_keywords(d, top_k=2).to_pandas().set_index("doc_id")
    assert out.loc[0, "keywords"] == "rare:2000000,common:333333"
    # doc1: common df=3 score 333333, shared df=2 score 500000
    assert out.loc[1, "keywords"] == "shared:500000,common:333333"
    # doc2: extra df=1 -> 1000000 first
    assert out.loc[2, "keywords"].startswith("extra:1000000,")

    import duckdb
    import pandas as pd

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = con.execute(curation.doc_keywords_sql(top_k=2)).fetch_df()
    pd.testing.assert_frame_equal(
        out.reset_index(), want.reset_index(drop=True), check_dtype=False
    )


def test_line_dedup_cli(tmp_path):
    """End-to-end CLI: scrubbed corpus round-trips with consistent
    counters (subprocess — owns its own Ray session)."""
    import json
    import os
    import subprocess
    import sys

    import pyarrow.parquet as pq

    src = str(tmp_path / "src")
    os.makedirs(src)
    texts = ["shared line merge unique %d" % i for i in range(40)]
    texts[7] = texts[3]  # exact dup doc
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(40), pa.int64()),
                "text": pa.array(texts),
            }
        ),
        os.path.join(src, "docs.parquet"),
        row_group_size=9,
    )
    out_dir = str(tmp_path / "clean")
    r = subprocess.run(
        [
            sys.executable, "-m", "deepseek_ocr_ray", "line-dedup",
            "--input", src, "--output", out_dir, "--num-cpus", "4",
        ],
        capture_output=True, text=True, timeout=300, cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["docs"] == 40
    # every doc shares line 1 ('shared line') -> 39 drops, plus doc 7's
    # duplicated second line -> 40
    assert summary["dropped_lines"] == 40
    t = pq.read_table(out_dir)
    assert t.num_rows == 40
    assert set(t.column_names) == {
        "doc_id", "n_lines", "n_dropped_lines", "text"
    }


def test_documents_split_safe_dup_groups_share_split(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq
    import ray.data

    from deepseek_ocr_ray.pipelines import analytics

    # four distinct texts; text A duplicated across three ids, text B
    # across two — every dup group must land in ONE split, and the split
    # must equal the plain-id split OF THE GROUP'S MIN ID
    texts = {
        1: "alpha beta", 7: "alpha beta", 909: "alpha beta",
        2: "gamma", 500: "gamma",
        3: "delta", 4: "epsilon zeta",
    }
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(list(texts), pa.int64()),
                "text": pa.array(list(texts.values()), pa.string()),
            }
        ),
        os.path.join(str(tmp_path), "documents.parquet"),
    )
    for method in ("md5", "fast"):
        out = (
            analytics.documents_split_safe(str(tmp_path), method=method)
            .to_pandas()
            .set_index("doc_id")["split"]
        )
        assert len(out) == len(texts)
        assert out[1] == out[7] == out[909]
        assert out[2] == out[500]
        # group split == the min id's own id-split (same salt/rule)
        ids = ray.data.from_arrow(
            pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64())})
        )
        base = (
            analytics.train_val_test_split(ids, method=method)
            .to_pandas()
            .set_index("doc_id")["split"]
        )
        for win, members in [(1, [1, 7, 909]), (2, [2, 500]),
                             (3, [3]), (4, [4])]:
            for m in members:
                assert out[m] == base[win], (method, win, m)


# ---------------------------------------------------------------------------
# vocabulary growth


def test_vocab_growth_engineered(ray_session, tmp_path):
    """Known first-appearance structure: docs 0..9, doc d introduces
    exactly one new token beyond a shared one — vocab(t) = t+2 for
    t >= 1 (shared + per-doc tokens seen so far)."""
    import os

    import pyarrow.parquet as pq

    from deepseek_ocr_ray.pipelines.analytics import vocab_growth

    d = str(tmp_path / "sf")
    os.makedirs(d)
    texts = [f"shared tok{i}" for i in range(10)]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(list(range(10)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )
    got = vocab_growth(d).to_pylist()
    assert len(got) == 10
    # checkpoints are k·max/10 for k=1..10 with max doc_id 9
    assert [r["t_doc"] for r in got] == [9 * k // 10 for k in range(1, 11)]
    for r in got:
        t = r["t_doc"]
        assert r["vocab"] == t + 2, r  # 'shared' + tok0..tokt
    # monotone non-decreasing by construction
    vs = [r["vocab"] for r in got]
    assert vs == sorted(vs)


def test_gopher_length_kappa_engineered(ray_session, tmp_path):
    """Hand-built corpus with a known confusion matrix: kappa matches the
    exact-fraction definition; raw agreement alone would overstate."""
    import os

    from fractions import Fraction

    import math

    import pyarrow.parquet as pq

    from deepseek_ocr_ray.pipelines.curation import gopher_length_kappa

    d = str(tmp_path / "sf")
    os.makedirs(d)
    # long good text passes gopher AND length; short text fails both;
    # a long symbol-soup fails gopher but passes length
    good = ("solid prose line with many plain words " * 8).strip()
    soup = ("--- ... --- ... " * 40).strip()
    texts = [good, good, "tiny", soup]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(list(range(len(texts))), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )
    got = gopher_length_kappa(d).to_pylist()[0]
    n11, n10, n01, n00 = got["n11"], got["n10"], got["n01"], got["n00"]
    assert (n11, n10, n01, n00) == (2, 0, 1, 1)
    n = 4
    chance = (n11 + n10) * (n11 + n01) + (n01 + n00) * (n10 + n00)
    want = Fraction(n * (n11 + n00) - chance, n * n - chance)
    assert got["kappa_ppm"] == int(
        math.floor(
            float(want.numerator) / float(want.denominator) * 1e6 + 0.5
        )
    )
    assert got["agree_ppm"] == 750000  # 3 of 4 agree — higher than kappa
    assert got["kappa_ppm"] < got["agree_ppm"]


def test_vocab_growth_tiny_corpus_oracle_parity(ray_session, tmp_path):
    """max_doc < n_points: several checkpoints collapse onto one t_doc.
    Keeping the checkpoint index k in the output means BOTH sides emit
    exactly n_points rows — the round-5 fix for the duplicate-row /
    GROUP-BY-collapse divergence on tiny corpora."""
    import os

    import duckdb
    import pyarrow.parquet as pq

    from deepseek_ocr_ray.pipelines.analytics import (
        VOCAB_GROWTH_SQL,
        vocab_growth,
    )

    d = str(tmp_path / "sf")
    os.makedirs(d)
    path = os.path.join(d, "documents.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(["a b", "b c", "c d"], pa.string()),
            }
        ),
        path,
    )
    got = vocab_growth(d).to_pylist()
    assert len(got) == 10  # one row per checkpoint, collapses kept apart
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{path}'")
    want = con.sql(VOCAB_GROWTH_SQL).df().sort_values("k")
    assert [r["k"] for r in got] == [int(x) for x in want["k"]]
    assert [r["t_doc"] for r in got] == [int(x) for x in want["t_doc"]]
    assert [r["vocab"] for r in got] == [int(x) for x in want["vocab"]]
