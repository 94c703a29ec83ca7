"""Round-4 operators: RFM, basket pairs, anomaly flags, char stats, PMI,
BM25, keep-best dedup — brute-force oracles + parallelism invariance for
the kernels the SQL gate can't stress (the gate runs one block layout)."""

from __future__ import annotations

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from deepseek_ocr_ray.pipelines import analytics


def _pairs_brute(rows):
    """All distinct part pairs per order, counted across orders."""
    from collections import defaultdict

    baskets = defaultdict(set)
    for ok, pk in rows:
        baskets[ok].add(pk)
    cnt = defaultdict(int)
    for parts in baskets.values():
        for p1, p2 in itertools.combinations(sorted(parts), 2):
            cnt[(p1, p2)] += 1
    return cnt


def test_basket_pair_expansion_matches_brute(ray_session, tmp_path):
    """The segmented-arange pair expansion equals itertools.combinations on
    a corpus with duplicate lineitems (same part twice in one order must
    count once) and must be invariant to block layout."""
    from deepseek_ocr_ray.pipelines.analytics import basket_pairs

    rng = np.random.RandomState(7)
    rows = [
        (int(ok), int(rng.randint(0, 12)))
        for ok in rng.randint(0, 40, size=300)
    ]
    rows += [(0, 1), (0, 1), (0, 2)]  # duplicate part in one order
    tbl = pa.table(
        {
            "l_orderkey": pa.array([r[0] for r in rows], pa.int64()),
            "l_partkey": pa.array([r[1] for r in rows], pa.int64()),
        }
    )
    import pyarrow.parquet as pq

    brute = _pairs_brute(rows)
    want = sorted(
        ((n, p1, p2) for (p1, p2), n in brute.items()),
        key=lambda t: (-t[0], t[1], t[2]),
    )[:20]

    # block-layout invariance for real: one single-file layout, one 7-file
    # layout (orders straddle file boundaries → different Ray blocks)
    for blocks in (1, 7):
        d = tmp_path / f"layout{blocks}"
        d.mkdir()
        if blocks == 1:
            pq.write_table(tbl, str(d / "lineitem.parquet"))
        else:
            part_dir = d / "lineitem.parquet"
            part_dir.mkdir()
            n = tbl.num_rows
            step = (n + blocks - 1) // blocks
            for j in range(blocks):
                pq.write_table(
                    tbl.slice(j * step, step), str(part_dir / f"part{j}.parquet")
                )
        got = basket_pairs(str(d), k=20).to_pandas()
        rowsg = list(zip(got.n_orders, got.p1, got.p2))
        assert rowsg == want, blocks


def test_keep_best_dedup_brute(ray_session):
    """Keep-best picks max quality then min id within each normalized
    group — verified against a per-group Python argmax."""
    from deepseek_ocr_ray.stages.dedup import keep_best_dedup, normalize_text

    texts = [
        "Hello, World!",          # group A (punct variant, len 13)
        "hello world",            # group A (len 11)
        "HELLO  world",           # group A (len 12)
        "unique document here",   # group B
        "Hello world.",           # group A (len 12) — tie with id 2 → id 2 wins
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    out = keep_best_dedup(ray.data.from_arrow(tbl)).to_pandas()
    norm = normalize_text(tbl["text"]).to_pylist()
    best = {}
    for i, (nm, t) in enumerate(zip(norm, texts)):
        cur = best.get(nm)
        cand = (len(t), -i)
        if cur is None or cand > cur[0]:
            best[nm] = (cand, i)
    got = dict(zip(out.norm_hash, zip(out.doc_id, out.n_chars, out.dup_count)))
    assert len(got) == 2
    a = [v for k, v in got.items()]
    # group A: 4 members, best is doc 0 (len 13); group B singleton
    assert (0, 13, 4) in a and (3, 20, 1) in a


def test_keep_best_rejects_wide_domains(ray_session):
    from deepseek_ocr_ray.stages.dedup import keep_best_dedup

    tbl = pa.table(
        {
            "doc_id": pa.array([1 << 40], pa.int64()),
            "text": pa.array(["x"]),
            "n_chars": pa.array([1], pa.int64()),
        }
    )
    with pytest.raises(Exception, match="2\\^31"):
        keep_best_dedup(ray.data.from_arrow(tbl)).to_pandas()


def test_bm25_scoring_properties(ray_session, tmp_path):
    """BM25 sanity on a hand corpus: a doc with more query-term hits and
    shorter length outranks a longer one with one hit; docs without hits
    are absent; parallelism-invariant."""
    import pyarrow.parquet as pq

    from deepseek_ocr_ray.pipelines.curation import search_bm25

    docs = [
        (0, "vector vector vector store"),          # heavy tf, short
        (1, "vector " + "filler " * 50),            # one hit, long
        (2, "hash join table"),                     # one hit (hash)
        (3, "nothing relevant at all"),             # no hits
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([d[0] for d in docs], pa.int64()),
            "text": pa.array([d[1] for d in docs]),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = search_bm25(str(tmp_path), terms=["vector", "hash"], k=10).to_pandas()
    assert 3 not in set(out.doc_id)
    scores = dict(zip(out.doc_id, out.score))
    assert scores[0] > scores[1]  # tf saturation + length norm
    assert set(out.doc_id) == {0, 1, 2}
    out2 = search_bm25(str(tmp_path), terms=["vector", "hash"], k=10).to_pandas()
    assert out.equals(out2)


def test_doc_char_stats_kernel(ray_session, tmp_path):
    """The bincount kernel against a Python counter, including the empty
    document (hhi 0) and a single-char doc (hhi = 1e6)."""
    import pyarrow.parquet as pq
    from collections import Counter

    from deepseek_ocr_ray.pipelines.analytics import doc_char_stats

    texts = ["aabbc", "", "zzzz", "the quick brown fox"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = doc_char_stats(str(tmp_path)).to_pandas().sort_values("doc_id")
    for _, row in out.iterrows():
        t = texts[row.doc_id]
        c = Counter(t)
        assert row.n_chars_ascii == len(t)
        assert row.distinct_chars == len(c)
        want_hhi = (
            sum(v * v for v in c.values()) * 1_000_000 // (len(t) * len(t))
            if t
            else 0
        )
        assert row.hhi_ppm == want_hhi
    assert out[out.doc_id == 2].hhi_ppm.iloc[0] == 1_000_000


def test_events_anomaly_integer_ztest():
    """(n·D − S)² > 4(Q·D − S²) ⟺ |z| > 2 on a constructed series."""
    # NB: with k equal points + 1 spike the spike's z is exactly sqrt(k),
    # so 4+1 points sit ON the |z|=2 boundary — use 5+1 to clear it.
    n = np.array([10, 10, 10, 10, 10, 40], np.int64)  # one spike
    d = np.int64(len(n))
    s, q = n.sum(), (n * n).sum()
    num = (n * d - s) ** 2
    den = q * d - s * s
    z = (n - n.mean()) / n.std()
    assert ((num > 4 * den) == (z**2 > 4)).all()
    assert (num > 4 * den).tolist() == [False] * 5 + [True]


def test_phash_properties():
    """pHash determinism + robustness: identical grids → distance 0; a
    small local perturbation stays within a few bits; unrelated grids
    land far apart (brute check over a seeded set)."""
    from deepseek_ocr_ray.stages.multimodal import fake_decode_gray, phash64_batch

    g = fake_decode_gray(b"payload-1")
    h = phash64_batch(np.stack([g, g]))
    assert h[0] == h[1]
    bumped = g.copy()
    bumped[3, 7] += 4.0  # tiny local edit
    hb = phash64_batch(bumped)[0]
    assert bin(int(h[0] ^ hb)).count("1") <= 3
    other = fake_decode_gray(b"payload-2")
    ho = phash64_batch(other)[0]
    assert bin(int(h[0] ^ ho)).count("1") > 10


def test_hash64_hamming_dedup_keeper_semantics(ray_session):
    """Banded Hamming dedup follows the engine's keep-first LSH rule (the
    same rule as simhash_dedup): a row is dropped iff it verifies within
    max_hamming against its bucket's MIN-ID keeper — checked on hashes
    engineered at distances 0, 2, 3, 5 and far from the keeper, and
    invariant to block layout."""
    from deepseek_ocr_ray.stages.dedup import hash64_hamming_dedup

    base = 0x0123456789ABCDEF
    hashes = [
        base,               # 0: keeper
        base,               # 1: distance 0 → dropped
        base ^ 0b11,        # 2: distance 2 → dropped
        base ^ 0b10101,     # 3: distance 3 → dropped
        base ^ 0b11111,     # 4: distance 5 from the keeper → kept
        0xFEDCBA9876543210, # 5: far → kept
    ]
    tbl = pa.table(
        {
            "media_id": pa.array(range(len(hashes)), pa.int64()),
            "phash": pa.array(np.array(hashes, np.uint64), pa.uint64()),
        }
    )
    for blocks in (1, 3):
        ds = ray.data.from_arrow(tbl)
        if blocks > 1:
            ds = ds.repartition(blocks)
        got = sorted(
            r["media_id"]
            for r in hash64_hamming_dedup(
                ds, hash_col="phash", id_col="media_id", max_hamming=3
            ).take_all()
        )
        assert got == [0, 4, 5], blocks


def test_train_val_test_split_properties(ray_session):
    """Fast and md5 modes both: deterministic, exhaustive (every row gets
    exactly one split), stable under corpus growth (a doc's split doesn't
    depend on other rows), roughly 80/10/10."""
    from deepseek_ocr_ray.pipelines.analytics import train_val_test_split

    tbl = pa.table({"doc_id": pa.array(range(2000), pa.int64())})
    for method in ("fast", "md5"):
        out = train_val_test_split(
            ray.data.from_arrow(tbl), method=method
        ).to_pandas()
        assert len(out) == 2000
        frac = out.split.value_counts(normalize=True)
        assert 0.7 < frac["train"] < 0.9
        # growth stability: half the corpus assigns identically
        half = train_val_test_split(
            ray.data.from_arrow(tbl.slice(0, 1000)), method=method
        ).to_pandas()
        merged = out.merge(half, on="doc_id", suffixes=("_full", "_half"))
        assert (merged.split_full == merged.split_half).all()


# ---------------------------------------------------------------------------
# grouped sufficient-statistics correlation
# ---------------------------------------------------------------------------


def _write_lineitem(tmp_path, qty, disc, flags):
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    n = len(qty)
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array(range(n), pa.int64()),
                "l_partkey": pa.array([1] * n, pa.int64()),
                "l_suppkey": pa.array([1] * n, pa.int64()),
                "l_linenumber": pa.array([1] * n, pa.int32()),
                "l_quantity": pa.array([float(q) for q in qty]),
                "l_extendedprice": pa.array([1.0] * n),
                "l_discount": pa.array([float(d) for d in disc]),
                "l_tax": pa.array([0.0] * n),
                "l_returnflag": pa.array(list(flags)),
                "l_linestatus": pa.array(["O"] * n),
                "l_shipdate": pa.array(
                    [pd.Timestamp("2000-01-01")] * n,
                    pa.timestamp("us"),
                ),
            }
        ),
        os.path.join(str(tmp_path), "lineitem.parquet"),
    )
    return str(tmp_path)


def test_corr_stats_matches_numpy(ray_session, tmp_path):
    """Engine correlation equals numpy's corrcoef on the rounded integer
    series (reference semantics), per group, on a random table."""
    rng = np.random.default_rng(3)
    n = 5000
    qty = rng.integers(1, 51, n)
    disc = np.round(rng.uniform(0, 0.1, n), 2)
    flags = rng.choice(list("ANR"), n)
    tmp = _write_lineitem(tmp_path, qty, disc, flags)
    got = analytics.lineitem_corr_stats(tmp).to_pandas()
    y = np.floor(disc * 10000 + 0.5).astype(np.int64)
    for _, row in got.iterrows():
        m = flags == row.l_returnflag
        want = np.corrcoef(qty[m], y[m])[0, 1]
        assert abs(row.corr_xy - want) < 1e-12
        assert row.n == int(m.sum())
        assert row.sum_x == int(qty[m].sum()) and row.sum_y == int(y[m].sum())


def test_corr_stats_zero_variance_and_oracle(ray_session, tmp_path):
    """Zero-variance group → NaN (oracle NULL, equal_nan compare); exact
    moment/bit parity vs DuckDB on the same file."""
    import duckdb

    qty = [5, 5, 5, 1, 2, 9, 4, 4]
    disc = [0.01, 0.02, 0.03, 0.05, 0.05, 0.05, 0.00, 0.10]
    flags = ["A", "A", "A", "B", "B", "B", "C", "C"]
    tmp = _write_lineitem(tmp_path, qty, disc, flags)
    got = analytics.lineitem_corr_stats(tmp).to_pandas().reset_index(drop=True)
    assert np.isnan(got.loc[got.l_returnflag == "A", "corr_xy"]).all()  # var(x)=0
    assert np.isnan(got.loc[got.l_returnflag == "B", "corr_xy"]).all()  # var(y)=0
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW lineitem AS SELECT * FROM read_parquet('{tmp}/lineitem.parquet')"
    )
    want = con.sql(analytics.LINEITEM_CORR_STATS_SQL).df()
    g = got[sorted(got.columns)]
    w = want[sorted(want.columns)]
    for c in g.columns:
        if g[c].dtype.kind == "f":
            assert np.array_equal(
                g[c].to_numpy(), w[c].to_numpy(), equal_nan=True
            )
        else:
            assert g[c].equals(w[c])


# ---------------------------------------------------------------------------
# user journey paths (first-k prefix mining)
# ---------------------------------------------------------------------------


def _write_events(tmp_path, rows, files=1):
    """rows: list of (user_id, ts_us, event_id, event_type)."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(str(tmp_path), exist_ok=True)

    tab = pa.table(
        {
            "event_id": pa.array([r[2] for r in rows], pa.int64()),
            "ts": pa.array(
                [pd.Timestamp(r[1], unit="us") for r in rows],
                pa.timestamp("us"),
            ),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows]),
            "value": pa.array([1.0] * len(rows)),
            "props": pa.array(["{}"] * len(rows)),
        }
    )
    if files == 1:
        pq.write_table(tab, os.path.join(str(tmp_path), "events.parquet"))
    else:
        d = os.path.join(str(tmp_path), "events.parquet")
        os.makedirs(d, exist_ok=True)
        bounds = np.linspace(0, len(rows), files + 1).astype(int)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            pq.write_table(tab.slice(a, b - a), os.path.join(d, f"p{i}.parquet"))
    return str(tmp_path)


def _brute_paths(rows, k=3, top=50):
    from collections import defaultdict

    per_user = defaultdict(list)
    for u, ts, eid, et in rows:
        per_user[u].append((ts, eid, et))
    cnt = defaultdict(int)
    for evs in per_user.values():
        evs.sort()
        cnt[">".join(e[2] for e in evs[:k])] += 1
    ranked = sorted(cnt.items(), key=lambda x: (-x[1], x[0]))[:top]
    return [(p, n) for p, n in ranked]


def test_user_paths_brute_and_layout(ray_session, tmp_path):
    """first-k prefix mining equals the brute oracle, including ts ties
    broken by event_id, and is invariant to file/block layout (the
    first-k partial must be mergeable across blocks)."""
    rng = np.random.default_rng(5)
    types = ["view", "click", "buy"]
    rows = []
    eid = 0
    for u in range(60):
        for _ in range(int(rng.integers(1, 9))):
            # coarse ts grid → plenty of ties, broken by event_id
            rows.append(
                (u, int(rng.integers(0, 4)) * 1000, eid, types[rng.integers(3)])
            )
            eid += 1
    # scatter rows so one user's events span fragments
    rng.shuffle(rows)
    want = _brute_paths(rows)
    a1 = [
        tuple(r)
        for r in analytics.user_paths(_write_events(tmp_path / "a", rows, 1))
        .to_pandas()
        .itertuples(index=False)
    ]
    b5 = [
        tuple(r)
        for r in analytics.user_paths(_write_events(tmp_path / "b", rows, 5))
        .to_pandas()
        .itertuples(index=False)
    ]
    assert a1 == want
    assert b5 == want


# ---------------------------------------------------------------------------
# corpus data card
# ---------------------------------------------------------------------------


def test_corpus_report_with_dups(ray_session, tmp_path):
    """The data-card row is exact on an engineered corpus with injected
    exact duplicates, multiple langs/sources, and an empty doc."""
    import os

    import pyarrow.parquet as pq

    texts = ["same doc twice", "same doc twice", "another one", "", "x y z"]
    langs = ["en", "en", "es", "fr", "en"]
    srcs = ["a", "b", "a", "c", "a"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(5), pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(langs),
                "source": pa.array(srcs),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        os.path.join(str(tmp_path), "documents.parquet"),
    )
    row = analytics.corpus_report(str(tmp_path)).to_pandas().iloc[0]
    assert row.n_docs == 5 and row.n_unique_texts == 4
    assert row.n_langs == 3 and row.n_sources == 3
    assert row.n_chars == sum(len(t) for t in texts)
    assert row.n_tokens == 3 + 3 + 2 + 0 + 3
    assert row.max_doc_tokens == 3 and row.min_doc_tokens == 0


SF_SMALL = "/root/testdata/sf0.001"


def test_q18_empty_survivors(ray_session):
    """min_qty above the max possible order quantity ⇒ zero survivors —
    the fully-filtered survivor stream has no derivable schema, so this
    exercises the explicit right_types path end-to-end."""
    out = analytics.q18_big_orders(SF_SMALL, min_qty=10**9).to_pandas()
    assert len(out) == 0


def test_q18_bucket_strategy_equal(ray_session, monkeypatch):
    """The keyed-exchange fallback (survivor set too big to broadcast)
    must return exactly the broadcast plan's rows."""
    from deepseek_ocr_ray import cluster

    a = (
        analytics.q18_big_orders(SF_SMALL)
        .to_pandas()
        .reset_index(drop=True)
    )
    monkeypatch.setattr(cluster, "BROADCAST_MAX_BYTES", 0)
    b = (
        analytics.q18_big_orders(SF_SMALL)
        .to_pandas()
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    assert (a.sum_qty > 250).all() and len(a) > 0


def test_doc_lm_score_hand_computed(ray_session, tmp_path):
    """Tiny corpus with a known bigram LM: c('a b')=2, c('a c')=1,
    prefix c(a·)=3 ⇒ ppm('a b')=666666, ppm('a c')=333333; empty and
    single-token docs ride through with zeros."""
    import os
    import pyarrow.parquet as pq

    texts = ["a b", "a c", "a b", "", "z"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(5), pa.int64()),
                "text": pa.array(texts),
            }
        ),
        os.path.join(str(tmp_path), "documents.parquet"),
    )
    out = analytics.doc_lm_score(str(tmp_path)).to_pandas().set_index("doc_id")
    assert out.loc[0].sum_cond_ppm == 666666 and out.loc[0].n_bigrams == 1
    assert out.loc[1].sum_cond_ppm == 333333
    assert out.loc[2].mean_cond_ppm == 666666
    assert out.loc[3].n_bigrams == 0 and out.loc[3].mean_cond_ppm == 0
    assert out.loc[4].n_bigrams == 0 and out.loc[4].sum_cond_ppm == 0


def test_doc_lm_score_layout_invariant(ray_session, tmp_path):
    import os
    import pyarrow.parquet as pq

    rng = np.random.RandomState(21)
    vocab = [f"w{i}" for i in range(7)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(0, 15)).tolist())
        for _ in range(80)
    ]
    tbl = pa.table(
        {"doc_id": pa.array(range(80), pa.int64()), "text": pa.array(texts)}
    )
    outs = []
    for tag, rg in (("one", 80), ("many", 7)):
        d = os.path.join(str(tmp_path), tag)
        os.makedirs(d)
        pq.write_table(tbl, os.path.join(d, "documents.parquet"),
                       row_group_size=rg)
        outs.append(analytics.doc_lm_score(d).to_pandas())
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_daily_active_spans_brute(ray_session, tmp_path):
    """Engineered: user 1 has events on day 0 and day 9 only — their span
    still covers the observed days 3 and 5 (where only user 2 has events).
    Matches a brute interval-stabbing count over observed days."""
    import os
    import pyarrow.parquet as pq

    base = 1_000 * 86_400_000_000  # day 1000, µs epoch
    US = 86_400_000_000
    rows = [
        (1, base + 0 * US),
        (1, base + 9 * US),
        (2, base + 3 * US),
        (2, base + 5 * US),
        (3, base + 5 * US),
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(len(rows)), pa.int64()),
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array(
                    [r[1] for r in rows], pa.timestamp("us")
                ),
            }
        ),
        os.path.join(str(tmp_path), "events.parquet"),
    )
    out = analytics.daily_active_spans(str(tmp_path)).to_pandas()
    # observed days: 0, 3, 5, 9 (relative); spans: u1=[0,9], u2=[3,5], u3=[5,5]
    assert out.n_active.tolist() == [1, 2, 3, 1]
    assert len(out) == 4 and out.day.is_monotonic_increasing


def test_daily_active_spans_layout_invariant(ray_session, tmp_path):
    import os
    import pyarrow.parquet as pq

    rng = np.random.RandomState(33)
    n = 300
    base = 2_000 * 86_400_000_000
    tbl = pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "user_id": pa.array(rng.randint(0, 40, n), pa.int64()),
            "ts": pa.array(
                (base + rng.randint(0, 60, n) * 86_400_000_000).tolist(),
                pa.timestamp("us"),
            ),
        }
    )
    outs = []
    for tag, rg in (("one", n), ("many", 17)):
        d = os.path.join(str(tmp_path), tag)
        os.makedirs(d)
        pq.write_table(tbl, os.path.join(d, "events.parquet"),
                       row_group_size=rg)
        outs.append(analytics.daily_active_spans(d).to_pandas())
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_doc_len_histogram_hand(ray_session, tmp_path):
    import os
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(5), pa.int64()),
                "lang": pa.array(["en", "en", "en", "es", "es"]),
                "n_chars": pa.array([0, 199, 200, 50, 450], pa.int64()),
            }
        ),
        os.path.join(str(tmp_path), "documents.parquet"),
    )
    out = analytics.doc_len_histogram(str(tmp_path)).to_pandas()
    rows = {(r.lang, r.bin_lo): (r.n_docs, r.sum_chars) for r in out.itertuples()}
    assert rows[("en", 0)] == (2, 199)
    assert rows[("en", 200)] == (1, 200)
    assert rows[("es", 0)] == (1, 50)
    assert rows[("es", 400)] == (1, 450)
    assert len(rows) == 4


def test_type_daily_ffill_gaps_and_nulls(ray_session, tmp_path):
    """Engineered calendar: type A has events on days 0 and 3 (value
    changes), type B first appears on day 3 — B must be NULL on the
    earlier observed days, A must carry day-0's LAST value (ts/eid
    winner) through days 1* and 3 (*day 1 is observed because B... it
    isn't — observed days are exactly {0, 3}), and the day-0 winner is
    the latest-ts row."""
    import os
    import pyarrow.parquet as pq

    US = 86_400_000_000
    base = 3_000 * US
    rows = [
        # (event_id, type, day, value) — two day-0 A rows: later ts wins
        (1, "a", 0, 1.00),
        (2, "a", 0, 2.00),
        (3, "a", 3, 5.00),
        (4, "b", 3, 9.00),
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "event_type": pa.array([r[1] for r in rows], pa.string()),
                "ts": pa.array(
                    [base + r[2] * US + r[0] * 1000 for r in rows],
                    pa.timestamp("us"),
                ),
                "value": pa.array([r[3] for r in rows], pa.float64()),
            }
        ),
        os.path.join(str(tmp_path), "events.parquet"),
    )
    out = analytics.type_daily_ffill(str(tmp_path)).to_pandas()
    m = {(r.event_type, r.day[-2:]): r.filled_cents for r in out.itertuples()}
    assert len(out) == 4  # 2 types × 2 observed days
    import math

    day0, day3 = sorted({k[1] for k in m})
    assert m[("a", day0)] == 200          # latest day-0 row wins (eid 2)
    assert m[("a", day3)] == 500
    assert math.isnan(m[("b", day0)])     # before b's first observation
    assert m[("b", day3)] == 900
