"""Differential fuzzing vs DuckDB: random tables through the engine's
join planner and aggregate family must match SQL semantics exactly —
every join type × every strategy, seeded and deterministic."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from deepseek_ocr_ray.cluster import equi_join
from deepseek_ocr_ray.stages.agg import bucket_groupby_agg, latest_by_key


def _tables(seed: int):
    """Left/right tables with overlapping skewed keys, string + int
    payloads, duplicate keys on both sides (join-multiplicity stress)."""
    rng = np.random.RandomState(seed)
    nl, nr = int(rng.randint(50, 400)), int(rng.randint(20, 300))
    left = pa.table(
        {
            "k": pa.array(
                (rng.zipf(1.5, nl) % 40).astype(np.int64), pa.int64()
            ),
            "lv": pa.array(rng.randint(-99, 99, nl).tolist(), pa.int64()),
            "ls": pa.array(
                [f"L{v}" for v in rng.randint(0, 7, nl)], pa.string()
            ),
        }
    )
    right = pa.table(
        {
            "k": pa.array(
                (rng.zipf(1.5, nr) % 55).astype(np.int64), pa.int64()
            ),
            "rv": pa.array(rng.randint(0, 999, nr).tolist(), pa.int64()),
        }
    )
    return left, right


def _duck(left, right, join_type):
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    if join_type == "inner":
        sql = "SELECT l.k, l.lv, l.ls, r.rv FROM l JOIN r USING (k)"
    elif join_type == "left_outer":
        sql = "SELECT l.k, l.lv, l.ls, r.rv FROM l LEFT JOIN r USING (k)"
    elif join_type == "left_semi":
        sql = ("SELECT l.k, l.lv, l.ls FROM l "
               "WHERE EXISTS (SELECT 1 FROM r WHERE r.k = l.k)")
    else:
        sql = ("SELECT l.k, l.lv, l.ls FROM l "
               "WHERE NOT EXISTS (SELECT 1 FROM r WHERE r.k = l.k)")
    return con.execute(sql).arrow()


def _sorted_rows(tab: pa.Table):
    cols = sorted(tab.column_names)
    return sorted(
        tuple(r[c] for c in cols) for r in tab.select(cols).to_pylist()
    )


@pytest.mark.parametrize("strategy", ["bucket", "broadcast"])
@pytest.mark.parametrize(
    "join_type", ["inner", "left_outer", "left_semi", "left_anti"]
)
def test_equi_join_differential_vs_duckdb(ray_session, strategy, join_type):
    import ray.data

    for seed in (3, 17, 91):
        left, right = _tables(seed)
        want = _duck(left, right, join_type)
        rows = equi_join(
            ray.data.from_arrow(left).repartition(5),
            ray.data.from_arrow(right).repartition(3),
            on="k",
            join_type=join_type,
            # the default plan broadcasts a right side this small
            strategy="bucket" if strategy == "bucket" else None,
        ).take_all()
        cols = sorted(want.column_names)
        got = sorted(tuple(r[c] for c in cols) for r in rows)
        assert got == _sorted_rows(want), (seed, strategy, join_type)


def test_bucket_groupby_agg_differential_vs_duckdb(ray_session):
    import ray.data

    for seed in (5, 23, 77):
        left, _ = _tables(seed)
        con = duckdb.connect()
        con.register("l", left)
        want = con.execute(
            "SELECT k, ls, CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(lv) AS BIGINT) AS sv, "
            "CAST(min(lv) AS BIGINT) AS mn, "
            "CAST(max(lv) AS BIGINT) AS mx, avg(lv) AS av "
            "FROM l GROUP BY 1, 2"
        ).arrow()
        got_rows = bucket_groupby_agg(
            ray.data.from_arrow(left).repartition(4),
            ["k", "ls"],
            [
                (None, "count", "n"),
                ("lv", "sum", "sv"),
                ("lv", "min", "mn"),
                ("lv", "max", "mx"),
                ("lv", "mean", "av"),
            ],
        ).take_all()
        got = {(r["k"], r["ls"]): (r["n"], r["sv"], r["mn"], r["mx"], r["av"])
               for r in got_rows}
        wt = want.to_pylist()
        assert len(got) == len(wt)
        for r in wt:
            assert got[(r["k"], r["ls"])] == (
                r["n"], r["sv"], r["mn"], r["mx"], r["av"]
            ), seed


def test_latest_by_key_differential_vs_duckdb(ray_session):
    import ray.data

    for seed in (9, 41):
        rng = np.random.RandomState(seed)
        n = int(rng.randint(100, 600))
        tab = pa.table(
            {
                "k": pa.array(rng.randint(0, 30, n).tolist(), pa.int64()),
                "t": pa.array(rng.randint(0, 40, n).tolist(), pa.int64()),
                "id": pa.array(rng.permutation(n).tolist(), pa.int64()),
                "p": pa.array(
                    [f"x{v}" for v in rng.randint(0, 5, n)], pa.string()
                ),
            }
        )
        con = duckdb.connect()
        con.register("e", tab)
        want = con.execute(
            "SELECT k, t, id, p FROM (SELECT *, row_number() OVER "
            "(PARTITION BY k ORDER BY t DESC, id DESC) AS rn FROM e) "
            "WHERE rn = 1"
        ).arrow()
        got = latest_by_key(
            ray.data.from_arrow(tab).repartition(6),
            ["k"],
            order_col="t",
            tiebreak_col="id",
        ).take_all()
        got_t = pa.Table.from_pylist(got, schema=want.schema)
        assert _sorted_rows(got_t) == _sorted_rows(want), seed


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_new_agg_family_differential_vs_duckdb(ray_session, seed):
    """Seeded random-table differential for the late-round aggregate family:
    CUBE, PIVOT, grouped COUNT DISTINCT, interpolated quantile, ntile, and
    set ops — engine must match SQL semantics row-for-row."""
    import ray.data

    from deepseek_ocr_ray.stages.agg import (
        cube_sum, group_count_distinct, group_quantile_cont, pivot_sum,
    )
    from deepseek_ocr_ray.stages.setops import set_op
    from deepseek_ocr_ray.stages.windows import group_ntile

    rng = np.random.RandomState(seed)
    n = int(rng.randint(200, 1200))
    tab = pa.table({
        "a": pa.array([f"a{v}" for v in (rng.zipf(1.6, n) % 5)], pa.string()),
        "b": pa.array([f"b{v}" for v in rng.randint(0, 4, n)], pa.string()),
        "v": pa.array(rng.randint(-30, 70, n).tolist(), pa.int64()),
        "id": pa.array(list(range(n)), pa.int64()),
    })
    ds = ray.data.from_arrow(tab).repartition(int(rng.randint(1, 7)))
    con = duckdb.connect()
    con.register("t", tab)

    got = {
        (r["a"], r["b"]): (r["v"], r["n"])
        for r in cube_sum(ds, ["a", "b"], ["v"]).take_all()
    }
    want = {
        (r["a"], r["b"]): (r["sv"], r["n"])
        for r in con.execute(
            "SELECT a, b, CAST(sum(v) AS BIGINT) sv, CAST(count(*) AS BIGINT) n "
            "FROM t GROUP BY CUBE (a, b)"
        ).arrow().to_pylist()
    }
    assert got == want

    got = sorted(
        (r["a"], r["n_b0"], r["n_b2"])
        for r in pivot_sum(ds, ["a"], "b", ["b0", "b2"], value_col="v").take_all()
    )
    want = sorted(tuple(r) for r in con.execute(
        "SELECT a, CAST(sum(CASE WHEN b='b0' THEN v ELSE 0 END) AS BIGINT), "
        "CAST(sum(CASE WHEN b='b2' THEN v ELSE 0 END) AS BIGINT) FROM t GROUP BY 1"
    ).fetchall())
    assert got == want

    got = sorted(
        (r["a"], r["column"], r["n_distinct"])
        for r in group_count_distinct(ds, ["a"], ["b", "v"]).take_all()
    )
    want = sorted(tuple(r) for r in con.execute(
        "SELECT a, 'b', CAST(count(DISTINCT b) AS BIGINT) FROM t GROUP BY 1 "
        "UNION ALL SELECT a, 'v', CAST(count(DISTINCT v) AS BIGINT) FROM t GROUP BY 1"
    ).fetchall())
    assert got == want

    q = float(rng.choice([0.1, 0.37, 0.5, 0.93]))
    got = {
        r["a"]: r["quantile"]
        for r in group_quantile_cont(ds, ["a"], "v", q).take_all()
    }
    want = dict(con.execute(
        "SELECT a, quantile_cont(v, ?) FROM t GROUP BY 1", [q]
    ).fetchall())
    assert got == want  # bit-exact

    k = int(rng.randint(1, 9))
    got = sorted(
        (r["id"], r["tile"])
        for r in group_ntile(
            ds, keys=["a"], order_cols=[("v", "descending"), ("id", "ascending")],
            n_tiles=k,
        ).take_all()
    )
    want = sorted(tuple(r) for r in con.execute(
        f"SELECT id, CAST(ntile({k}) OVER (PARTITION BY a ORDER BY v DESC, id) "
        "AS BIGINT) FROM t"
    ).fetchall())
    assert got == want

    half = ray.data.from_arrow(tab.slice(0, n // 2)).repartition(2)
    got = sorted(
        (r["a"], r["b"])
        for r in set_op(ds, half, ["a", "b"], "except").take_all()
    )
    want = sorted(tuple(r) for r in con.execute(
        f"SELECT a, b FROM t EXCEPT SELECT a, b FROM (SELECT * FROM t LIMIT {n // 2})"
    ).fetchall())
    assert got == want


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_basket_pairs_differential_vs_duckdb(ray_session, seed, tmp_path):
    """Random basket tables (skewed order sizes, duplicate items) through
    basket_pairs must equal the DISTINCT-self-join SQL, including the
    (count desc, p1, p2) top-k tiebreak."""
    import pyarrow.parquet as pq

    from deepseek_ocr_ray.pipelines.analytics import BASKET_PAIRS_SQL, basket_pairs

    rng = np.random.RandomState(seed)
    n = int(rng.randint(200, 900))
    tbl = pa.table(
        {
            "l_orderkey": pa.array(
                (rng.zipf(1.4, n) % 60).astype(np.int64), pa.int64()
            ),
            "l_partkey": pa.array(
                rng.randint(0, 25, n).astype(np.int64), pa.int64()
            ),
        }
    )
    d = tmp_path / f"bp{seed}"
    d.mkdir()
    pq.write_table(tbl, str(d / "lineitem.parquet"))
    got = basket_pairs(str(d), k=20).to_pandas()
    con = duckdb.connect()
    con.register("lineitem", tbl)
    want = con.sql(BASKET_PAIRS_SQL).df()
    assert got.values.tolist() == want.values.tolist()


@pytest.mark.parametrize("seed", [5, 31])
def test_user_rfm_differential_vs_duckdb(ray_session, seed, tmp_path):
    """Random event streams (negative values, microsecond timestamps)
    through user_rfm must match the SQL recency/frequency/monetary."""
    import pyarrow.parquet as pq

    from deepseek_ocr_ray.pipelines.analytics import USER_RFM_SQL, user_rfm

    rng = np.random.RandomState(seed)
    n = int(rng.randint(300, 1200))
    base = np.int64(1_700_000_000_000_000)
    ts = base + rng.randint(0, 90 * 86_400_000_000, n).astype(np.int64)
    tbl = pa.table(
        {
            "user_id": pa.array(rng.randint(0, 40, n).astype(np.int64)),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(rng.uniform(-50, 500, n), pa.float64()),
        }
    )
    d = tmp_path / f"rfm{seed}"
    d.mkdir()
    pq.write_table(tbl, str(d / "events.parquet"))
    got = (
        user_rfm(str(d)).to_pandas().sort_values("user_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", tbl)
    want = con.sql(USER_RFM_SQL).df()
    assert got.values.tolist() == want.values.tolist()


@pytest.mark.parametrize("seed", [7, 19])
def test_keep_best_differential_vs_duckdb(ray_session, seed):
    """Random near-duplicate corpora through keep_best_dedup must match the
    SQL order-encoded argmax."""
    import ray.data

    from deepseek_ocr_ray.stages.dedup import keep_best_dedup

    rng = np.random.RandomState(seed)
    base_texts = [f"base text number {i} with words" for i in range(10)]
    rows = []
    for i in range(120):
        t = base_texts[int(rng.randint(0, 10))]
        # random trivial edits: case flips, punctuation, padding
        if rng.rand() < 0.5:
            t = t.upper()
        if rng.rand() < 0.5:
            t = t + "!" * int(rng.randint(0, 4))
        if rng.rand() < 0.3:
            t = "  " + t
        rows.append((i, t, len(t)))
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows]),
            "n_chars": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    got = (
        keep_best_dedup(ray.data.from_arrow(tbl))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    want = con.sql("""
SELECT md5(trim(regexp_replace(regexp_replace(lower(text),
         '[^a-z0-9 ]+', ' ', 'g'), ' +', ' ', 'g'), ' ')) AS norm_hash,
       CAST(4294967295 - (max(n_chars*4294967296 + 4294967295 - doc_id)
            % 4294967296) AS BIGINT) AS doc_id,
       CAST(max(n_chars*4294967296 + 4294967295 - doc_id) // 4294967296
            AS BIGINT) AS n_chars,
       CAST(count(*) AS BIGINT) AS dup_count
FROM documents GROUP BY 1 ORDER BY 2
""").df()
    got = got[sorted(got.columns)]
    want = want[sorted(want.columns)]
    assert got.values.tolist() == want.values.tolist()


# ---------------------------------------------------------------------------
# round-4 late ops: random-corpus fuzz vs their own SQL oracles
# ---------------------------------------------------------------------------


def _rand_docs_dir(tmp_path, seed: int, tag: str) -> str:
    import os

    import pyarrow.parquet as pq

    rng = np.random.RandomState(seed)
    n = int(rng.randint(40, 250))
    vocab = [f"w{i}" for i in range(int(rng.randint(5, 25)))]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(0, 30)).tolist())
        for _ in range(n)
    ]
    if n > 3:  # force dup + empty edge cases into every corpus
        texts[1] = texts[0]
        texts[2] = ""
    d = os.path.join(str(tmp_path), tag)
    os.makedirs(d)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(
                    [f"l{v}" for v in rng.randint(0, 3, n)], pa.string()
                ),
                "source": pa.array(
                    [f"s{v}" for v in rng.randint(0, 4, n)], pa.string()
                ),
                "n_chars": pa.array(
                    [len(t) for t in texts], pa.int64()
                ),
            }
        ),
        os.path.join(d, "documents.parquet"),
        row_group_size=max(1, n // int(rng.randint(1, 6))),
    )
    return d


def _run_oracle(sql: str, view: str, path: str):
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW {view} AS SELECT * FROM "
        f"read_parquet('{path}/{view}.parquet')"
    )
    return con.execute(sql).df()


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_doc_lm_score_fuzz(ray_session, tmp_path, seed):
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as e

    from deepseek_ocr_ray.pipelines import analytics

    d = _rand_docs_dir(tmp_path, seed, "lm")
    got = analytics.doc_lm_score(d).to_pandas().reset_index(drop=True)
    want = _run_oracle(analytics.DOC_LM_SCORE_SQL, "documents", d)
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))


@pytest.mark.parametrize("seed", [111, 222, 333])
def test_doc_rarity_fuzz(ray_session, tmp_path, seed):
    from deepseek_ocr_ray.pipelines import curation

    d = _rand_docs_dir(tmp_path, seed, "rar")
    got = curation.doc_rarity(d, top_k=4).to_pandas().reset_index(drop=True)
    want = _run_oracle(curation.doc_rarity_sql(top_k=4), "documents", d)
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))


def _rand_events_dir(tmp_path, seed: int, tag: str) -> str:
    import os

    import pyarrow.parquet as pq

    rng = np.random.RandomState(seed)
    n = int(rng.randint(100, 600))
    base = 5_000 * 86_400_000_000
    ts = base + rng.randint(0, 45, n) * 86_400_000_000 + rng.randint(
        0, 86_400_000_000, n
    )
    d = os.path.join(str(tmp_path), tag)
    os.makedirs(d)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(n), pa.int64()),
                "ts": pa.array(ts.tolist(), pa.timestamp("us")),
                "user_id": pa.array(rng.randint(0, 40, n), pa.int64()),
                "event_type": pa.array(
                    [f"t{v}" for v in rng.randint(0, 4, n)], pa.string()
                ),
                "value": pa.array(
                    np.round(rng.uniform(0, 500, n), 2), pa.float64()
                ),
            }
        ),
        os.path.join(d, "events.parquet"),
        row_group_size=max(1, n // int(rng.randint(1, 7))),
    )
    return d


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_daily_active_spans_fuzz(ray_session, tmp_path, seed):
    from deepseek_ocr_ray.pipelines import analytics

    d = _rand_events_dir(tmp_path, seed, "das")
    got = analytics.daily_active_spans(d).to_pandas().reset_index(drop=True)
    want = _run_oracle(analytics.DAILY_ACTIVE_SPANS_SQL, "events", d)
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))


@pytest.mark.parametrize("seed", [44, 55, 66])
def test_type_daily_ffill_fuzz(ray_session, tmp_path, seed):
    from deepseek_ocr_ray.pipelines import analytics

    d = _rand_events_dir(tmp_path, seed, "ff")
    got = analytics.type_daily_ffill(d).to_pandas().reset_index(drop=True)
    want = _run_oracle(analytics.TYPE_DAILY_FFILL_SQL, "events", d)
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))


@pytest.mark.parametrize("seed", [77, 88, 99])
def test_value_winsorized_fuzz(ray_session, tmp_path, seed):
    from deepseek_ocr_ray.pipelines import analytics

    d = _rand_events_dir(tmp_path, seed, "win")
    got = (
        analytics.value_winsorized_by_type(d)
        .to_pandas()
        .reset_index(drop=True)
    )
    want = _run_oracle(analytics.VALUE_WINSORIZED_SQL, "events", d)
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))


# ---------------------------------------------------------------------------
# closing-session operators: seeded random corpora vs their SQL oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [13, 26, 39])
def test_source_divergence_fuzz(ray_session, tmp_path, seed):
    from deepseek_ocr_ray.pipelines import curation

    d = _rand_docs_dir(tmp_path, seed, "tv")
    got = curation.source_divergence(d).to_pandas().reset_index(drop=True)
    want = _run_oracle(curation.SOURCE_DIVERGENCE_SQL, "documents", d)
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))


@pytest.mark.parametrize("seed", [14, 28, 42])
def test_dsir_scores_fuzz(ray_session, tmp_path, seed):
    from deepseek_ocr_ray.pipelines import curation

    d = _rand_docs_dir(tmp_path, seed, "dsir")
    got = (
        curation.dsir_scores(d, target_lang="l0")
        .to_pandas()
        .reset_index(drop=True)
    )
    want = _run_oracle(
        curation.dsir_scores_sql(target_lang="l0"), "documents", d
    )
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))


@pytest.mark.parametrize("seed", [15, 30, 45])
def test_doc_keywords_fuzz(ray_session, tmp_path, seed):
    from deepseek_ocr_ray.pipelines import curation

    d = _rand_docs_dir(tmp_path, seed, "kw")
    got = curation.doc_keywords(d).to_pandas().reset_index(drop=True)
    want = _run_oracle(curation.doc_keywords_sql(), "documents", d)
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))


@pytest.mark.parametrize("seed", [16, 32, 48])
def test_bpe_pair_counts_fuzz(ray_session, tmp_path, seed):
    from deepseek_ocr_ray.pipelines import curation

    d = _rand_docs_dir(tmp_path, seed, "bpe")
    got = curation.bpe_pair_counts(d).to_pandas().reset_index(drop=True)
    want = _run_oracle(curation.bpe_pair_counts_sql(), "documents", d)
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))


@pytest.mark.parametrize("seed", [17, 34, 51])
def test_bench_contamination_fuzz(ray_session, tmp_path, seed):
    from deepseek_ocr_ray.pipelines import curation

    d = _rand_docs_dir(tmp_path, seed, "bc")
    got = (
        curation.bench_contamination_report(d)
        .to_pandas()
        .reset_index(drop=True)
    )
    want = _run_oracle(curation.BENCH_CONTAMINATION_SQL, "documents", d)
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))


def _rand_line_docs_dir(tmp_path, seed: int) -> str:
    """Random corpus whose vocab INCLUDES the newline-enrichment markers
    ('merge' → the ' merge ' rewrite fires), so documents split into
    multiple lines and cross-doc line duplication actually occurs."""
    import os

    import pyarrow.parquet as pq

    rng = np.random.RandomState(seed)
    n = int(rng.randint(30, 120))
    vocab = [f"w{i}" for i in range(6)] + ["merge", "table", "slow"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(0, 25)).tolist())
        for _ in range(n)
    ]
    if n > 3:
        texts[1] = texts[0]
        texts[2] = ""
    d = os.path.join(str(tmp_path), "ld")
    os.makedirs(d)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(["en"] * n),
                "source": pa.array(["s"] * n),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        os.path.join(d, "documents.parquet"),
        row_group_size=max(1, n // int(rng.randint(1, 5))),
    )
    return d


@pytest.mark.parametrize("seed", [18, 36, 54])
def test_line_dedup_scrub_fuzz(ray_session, tmp_path, seed, monkeypatch):
    from deepseek_ocr_ray.pipelines import curation

    d = _rand_line_docs_dir(tmp_path, seed)
    got = curation.line_dedup_scrub(d).to_pandas().reset_index(drop=True)
    want = _run_oracle(curation.LINE_DEDUP_SCRUB_SQL, "documents", d)
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))
    # and the join plan agrees
    monkeypatch.setattr(curation, "_resolve_probe", lambda dup: "join")
    gj = (
        curation.line_dedup_scrub(d)
        .to_pandas()
        .reset_index(drop=True)
    )
    assert gj.sort_index(axis=1).equals(want.sort_index(axis=1))


@pytest.mark.parametrize("seed", [19, 38])
def test_value_equidepth_fuzz(ray_session, tmp_path, seed):
    from deepseek_ocr_ray.pipelines import analytics

    d = _rand_events_dir(tmp_path, seed, "eqd")
    got = (
        analytics.value_equidepth_by_type(d)
        .to_pandas()
        .reset_index(drop=True)
    )
    want = _run_oracle(analytics.VALUE_EQUIDEPTH_SQL, "events", d)
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))


@pytest.mark.parametrize("seed", [20, 40])
def test_value_mad_fuzz(ray_session, tmp_path, seed):
    from deepseek_ocr_ray.pipelines import analytics

    d = _rand_events_dir(tmp_path, seed, "mad")
    got = analytics.value_mad_by_type(d).to_pandas().reset_index(drop=True)
    want = _run_oracle(analytics.VALUE_MAD_SQL, "events", d)
    assert got.sort_index(axis=1).equals(want.sort_index(axis=1))


# ---------------------------------------------------------------------------
# round-4 TPC-H shapes: random star-schema differential vs DuckDB
# ---------------------------------------------------------------------------


def _rand_tpch_dir(tmp_path, seed: int, tag: str) -> str:
    """Random small TPC-H-ish star schema: random brands/types/sizes,
    random ship dates spanning every predicate window, random row-group
    layouts — forces the planner joins and the scan predicates through
    arbitrary block boundaries."""
    import os

    import pyarrow.parquet as pq

    rng = np.random.RandomState(seed)
    d = os.path.join(str(tmp_path), tag)
    os.makedirs(d)

    n_p = int(rng.randint(10, 60))
    pq.write_table(
        pa.table(
            {
                "p_partkey": pa.array(range(n_p), pa.int64()),
                "p_name": pa.array(
                    [
                        f"{a} {b}"
                        for a, b in zip(
                            rng.choice(
                                ["cold", "small", "large", "blue"], n_p
                            ),
                            rng.choice(["widget", "bolt", "rod"], n_p),
                        )
                    ],
                    pa.string(),
                ),
                "p_retailprice": pa.array(
                    np.round(rng.uniform(1, 2000, n_p), 2), pa.float64()
                ),
                "p_brand": pa.array(
                    [
                        f"Brand#{b}"
                        for b in rng.choice([12, 23, 34, 55], n_p)
                    ],
                    pa.string(),
                ),
                "p_type": pa.array(
                    rng.choice(
                        ["PROMO", "STANDARD", "SMALL", "ECONOMY"], n_p
                    ).tolist(),
                    pa.string(),
                ),
                "p_size": pa.array(
                    rng.randint(1, 21, n_p).tolist(), pa.int32()
                ),
            }
        ),
        os.path.join(d, "part.parquet"),
    )

    n_s = int(rng.randint(5, 15))
    pq.write_table(
        pa.table(
            {
                "s_suppkey": pa.array(range(n_s), pa.int64()),
                "s_name": pa.array([f"S{k}" for k in range(n_s)], pa.string()),
                "s_nationkey": pa.array(
                    rng.randint(0, 5, n_s).astype("int32"), pa.int32()
                ),
                "s_acctbal": pa.array(
                    np.round(rng.uniform(-2000, 8000, n_s), 2), pa.float64()
                ),
            }
        ),
        os.path.join(d, "supplier.parquet"),
    )

    pq.write_table(
        pa.table(
            {
                "n_nationkey": pa.array(range(5), pa.int32()),
                "n_name": pa.array([f"NATION_{k}" for k in range(5)],
                                   pa.string()),
                # mirror the testdata layout: nation k sits in region k%5
                "n_regionkey": pa.array(
                    [k % 5 for k in range(5)], pa.int32()
                ),
            }
        ),
        os.path.join(d, "nation.parquet"),
    )

    pq.write_table(
        pa.table(
            {
                "r_regionkey": pa.array(range(5), pa.int32()),
                "r_name": pa.array(
                    ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"],
                    pa.string(),
                ),
            }
        ),
        os.path.join(d, "region.parquet"),
    )

    n_c = int(rng.randint(10, 40))
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array(range(n_c), pa.int64()),
                "c_name": pa.array([f"C{k}" for k in range(n_c)],
                                   pa.string()),
                "c_nationkey": pa.array(
                    rng.randint(0, 5, n_c).astype("int32"), pa.int32()
                ),
                "c_acctbal": pa.array(
                    np.round(rng.uniform(-1000, 10000, n_c), 2),
                    pa.float64(),
                ),
                "c_mktsegment": pa.array(
                    rng.choice(["AUTOMOBILE", "BUILDING", "MACHINERY"],
                               n_c).tolist(),
                    pa.string(),
                ),
            }
        ),
        os.path.join(d, "customer.parquet"),
    )

    n_o = int(rng.randint(30, 150))
    order_ts = 788_918_400_000_000 + rng.randint(
        0, 6 * 365 * 86_400_000_000, n_o, dtype=np.int64
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array(range(n_o), pa.int64()),
                "o_orderdate": pa.array(order_ts.tolist(),
                                        pa.timestamp("us")),
                "o_custkey": pa.array(
                    rng.randint(0, n_c, n_o).tolist(), pa.int64()
                ),
                "o_orderpriority": pa.array(
                    rng.choice(
                        ["1-URGENT", "2-HIGH", "3-MEDIUM",
                         "4-NOT SPECIFIED", "5-LOW"],
                        n_o,
                    ).tolist(),
                    pa.string(),
                ),
                "o_orderstatus": pa.array(
                    rng.choice(["P", "O", "F"], n_o).tolist(), pa.string()
                ),
            }
        ),
        os.path.join(d, "orders.parquet"),
        row_group_size=max(1, n_o // int(rng.randint(1, 5))),
    )

    n_l = int(rng.randint(200, 800))
    base_us = 788_918_400_000_000  # 1995-01-01
    span_us = 4 * 365 * 86_400_000_000  # through 1998
    ts = base_us + rng.randint(0, span_us, n_l, dtype=np.int64)
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array(
                    rng.randint(0, n_o, n_l).tolist(), pa.int64()
                ),
                "l_returnflag": pa.array(
                    rng.choice(["N", "A", "R"], n_l).tolist(), pa.string()
                ),
                "l_linestatus": pa.array(
                    rng.choice(["O", "F"], n_l).tolist(), pa.string()
                ),
                "l_partkey": pa.array(
                    rng.randint(0, n_p, n_l).tolist(), pa.int64()
                ),
                "l_suppkey": pa.array(
                    rng.randint(0, n_s, n_l).tolist(), pa.int64()
                ),
                "l_quantity": pa.array(
                    rng.randint(1, 51, n_l).astype(np.float64), pa.float64()
                ),
                "l_extendedprice": pa.array(
                    np.round(rng.uniform(1, 2000, n_l), 2), pa.float64()
                ),
                "l_discount": pa.array(
                    np.round(rng.uniform(0, 0.1, n_l), 2), pa.float64()
                ),
                "l_shipdate": pa.array(ts.tolist(), pa.timestamp("us")),
            }
        ),
        os.path.join(d, "lineitem.parquet"),
        row_group_size=max(1, n_l // int(rng.randint(1, 7))),
    )
    return d


def _run_oracle_star(sql: str, d: str):
    con = duckdb.connect()
    for t in ("part", "supplier", "customer", "orders", "lineitem",
              "nation", "region"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{d}/{t}.parquet')"
        )
    return con.execute(sql).df()


_TPCH_SHAPES = [
    ("q6_revenue_delta", "Q6_REVENUE_DELTA_SQL"),
    ("q13_custdist", "Q13_CUSTDIST_SQL"),
    ("q14_promo_ratio", "Q14_PROMO_RATIO_SQL"),
    ("q15_top_supplier", "Q15_TOP_SUPPLIER_SQL"),
    ("q17_small_qty_revenue", "Q17_SMALL_QTY_REVENUE_SQL"),
    ("q19_disjunctive_revenue", "Q19_DISJUNCTIVE_REVENUE_SQL"),
    ("q4_order_priority", "Q4_ORDER_PRIORITY_SQL"),
    ("q10_returned_revenue", "Q10_RETURNED_REVENUE_SQL"),
    ("q12_priority_by_status", "Q12_PRIORITY_BY_STATUS_SQL"),
    ("q22_idle_customers", "Q22_IDLE_CUSTOMERS_SQL"),
    ("q8_market_share", "Q8_MARKET_SHARE_SQL"),
    # Q9: five-table profit by (nation, year); Q21: the correlated
    # EXISTS + NOT-EXISTS double fact-self-join collapsed to per-order
    # supplier stats on one orderkey-keyed exchange
    ("q9_profit_by_nation", "Q9_PROFIT_BY_NATION_SQL"),
    ("q21_waiting_suppliers", "Q21_WAITING_SUPPLIERS_SQL"),
    # group-wise OLS: exact Cramer determinants vs DuckDB's HUGEINT
    # expansion over random quantities/prices/discounts
    ("lineitem_price_ols", "LINEITEM_PRICE_OLS_SQL"),
    # Q2/Q11/Q16/Q20: the partsupp-family shapes (part↔supplier facts
    # derived from lineitem) — completes all 22 TPC-H query shapes
    ("q2_min_cost_supplier", "Q2_MIN_COST_SUPPLIER_SQL"),
    ("q11_important_parts", "Q11_IMPORTANT_PARTS_SQL"),
    ("q16_part_supplier_counts", "Q16_PART_SUPPLIER_COUNTS_SQL"),
    ("q20_dominant_suppliers", "Q20_DOMINANT_SUPPLIERS_SQL"),
]


@pytest.mark.parametrize("seed", [7, 14, 21])
@pytest.mark.parametrize("name,sql_attr", _TPCH_SHAPES)
def test_tpch_shape_fuzz(ray_session, tmp_path, seed, name, sql_attr):
    import pandas as pd

    from deepseek_ocr_ray.pipelines import analytics

    d = _rand_tpch_dir(tmp_path, seed, f"{name}_{seed}")
    res = getattr(analytics, name)(d)
    got = res.to_pandas().reset_index(drop=True)
    want = _run_oracle_star(getattr(analytics, sql_attr), d)
    pd.testing.assert_frame_equal(
        got.sort_index(axis=1), want.sort_index(axis=1), check_dtype=True
    )


@pytest.mark.parametrize("seed", [6, 13, 27])
def test_prior_window_counts_fuzz(ray_session, tmp_path, seed):
    import pandas as pd

    from deepseek_ocr_ray.pipelines import analytics
    from deepseek_ocr_ray.stages.windows import prior_window_counts

    d = _rand_events_dir(tmp_path, seed, f"pwc_{seed}")
    ds = analytics.read_table(
        d, "events", columns=["event_id", "user_id", "ts", "event_type"]
    )
    got = (
        prior_window_counts(
            ds, anchor_type="t0", count_type="t1", window_sec=4 * 3600.0
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')"
    )
    want = con.sql(
        """
SELECT p.event_id, p.user_id, CAST(count(v.ts) AS BIGINT) AS n_prior
FROM events p
LEFT JOIN events v
  ON v.user_id = p.user_id AND v.event_type = 't1'
 AND v.ts > p.ts - INTERVAL 4 HOUR AND v.ts <= p.ts
WHERE p.event_type = 't0'
GROUP BY 1, 2 ORDER BY 1
"""
    ).df()
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("seed", [4, 19, 33])
def test_embedding_covariance_fuzz(ray_session, tmp_path, seed):
    """Random embeddings (random dim, negatives/zeros/tiny values, a
    CONSTANT coordinate for the zero-variance edge) — the engine's
    driver-merged Gram moments must match DuckDB's UNNEST self-join
    bit-for-bit, moments and pinned float covariance alike."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    from deepseek_ocr_ray.pipelines import analytics

    rng = np.random.RandomState(seed)
    n = int(rng.randint(2, 300))
    dim = int(rng.randint(2, 9))
    m = rng.normal(0, 0.4, size=(n, dim)).astype(np.float32)
    m[:, 0] = 0.125  # constant coordinate: cov(0, j) rows exercise nm = 0
    m[rng.randint(0, n)] = 0.0  # an all-zero vector
    d = str(tmp_path / f"emb_{seed}")
    os.makedirs(d, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(
                    [r.tolist() for r in m], pa.list_(pa.float32())
                ),
                "label": pa.array([0] * n, pa.int32()),
            }
        ),
        os.path.join(d, "embeddings.parquet"),
        row_group_size=max(1, n // int(rng.randint(1, 5))),
    )
    got = analytics.embedding_covariance(d).to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{d}/embeddings.parquet')"
    )
    want = con.sql(analytics.EMBEDDING_COVARIANCE_SQL).df()
    pd.testing.assert_frame_equal(
        got.sort_index(axis=1), want.sort_index(axis=1), check_dtype=True
    )


@pytest.mark.parametrize("seed", [8, 25, 51])
def test_embedding_class_stats_fuzz(ray_session, tmp_path, seed):
    """Random labeled embeddings (skewed labels incl. a SINGLETON class
    for the n=1 NaN/NULL variance edge) — grouped vector moments must
    match DuckDB's UNNEST GROUP BY bit-for-bit."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    from deepseek_ocr_ray.pipelines import analytics

    rng = np.random.RandomState(seed)
    n = int(rng.randint(10, 250))
    dim = int(rng.randint(2, 8))
    m = rng.normal(0, 0.4, size=(n, dim)).astype(np.float32)
    lab = (rng.zipf(1.7, n) % 5).astype(np.int32)
    lab[0] = 99  # singleton class → n=1 variance edge
    d = str(tmp_path / f"cls_{seed}")
    os.makedirs(d, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(
                    [r.tolist() for r in m], pa.list_(pa.float32())
                ),
                "label": pa.array(lab, pa.int32()),
            }
        ),
        os.path.join(d, "embeddings.parquet"),
        row_group_size=max(1, n // int(rng.randint(1, 5))),
    )
    got = analytics.embedding_class_stats(d).to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{d}/embeddings.parquet')"
    )
    want = con.sql(analytics.EMBEDDING_CLASS_STATS_SQL).df()
    pd.testing.assert_frame_equal(
        got.sort_index(axis=1), want.sort_index(axis=1), check_dtype=True
    )


def test_part_cosine_pairs_fixture(ray_session, tmp_path):
    """Hand-computed cosine over a 3-order basket fixture, plus the
    distinct-per-order rule (a part repeated in one order counts once)."""
    import os

    import duckdb
    import pyarrow.parquet as pq

    from deepseek_ocr_ray.pipelines import analytics

    li = pa.table(
        {
            "l_orderkey": pa.array([1, 1, 1, 2, 2, 3, 3], pa.int64()),
            # order 1: parts 10, 20 (20 twice -> once); order 2: 10, 20;
            # order 3: 10, 30
            "l_partkey": pa.array([10, 20, 20, 10, 20, 10, 30], pa.int64()),
        }
    )
    d = tmp_path / "cosfix"
    os.makedirs(d)
    pq.write_table(li, str(d / "lineitem.parquet"))
    got = (
        analytics.part_cosine_pairs(str(d))
        .to_pandas()
        .sort_values(["p1", "p2"])
        .reset_index(drop=True)
    )
    # only (10, 20) co-occurs >= 2 times: n=2, n_10=3, n_20=2
    assert got["p1"].tolist() == [10]
    assert got["p2"].tolist() == [20]
    assert got["n_orders"].tolist() == [2]
    import math

    assert got["cosine"].tolist() == [2.0 / math.sqrt(3.0 * 2.0)]


def test_contrastive_negatives_invariants(ray_session):
    """fast/md5 modes: determinism, self-exclusion, range, layout
    invariance; validation of the dense-domain guard."""
    import pandas as pd

    import ray

    from deepseek_ocr_ray.pipelines.analytics import contrastive_negatives

    ids = pa.table({"i": pa.array(np.arange(97), pa.int64())})
    for method in ("md5", "fast"):
        ref = None
        for nblocks in (1, 4):
            ds = ray.data.from_arrow(ids).repartition(nblocks)
            got = (
                contrastive_negatives(
                    ds, id_col="i", n_ids=97, k=3, method=method
                )
                .to_pandas()
                .sort_values(["i", "neg_rank"])
                .reset_index(drop=True)
            )
            assert len(got) == 97 * 3
            assert (got["neg_id"] != got["i"]).all()
            assert got["neg_id"].between(0, 96).all()
            cur = got["neg_id"].tolist()
            if ref is None:
                ref = cur
            else:
                assert cur == ref

    import pytest as _pytest

    with _pytest.raises(ValueError, match="method"):
        contrastive_negatives(
            ray.data.from_arrow(ids), id_col="i", n_ids=97, method="x"
        )


def test_embedding_negatives_dense_guard(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    from deepseek_ocr_ray.pipelines import analytics

    d = tmp_path / "sparse"
    os.makedirs(d)
    pq.write_table(
        pa.table({"vec_id": pa.array([0, 2, 5], pa.int64())}),
        str(d / "embeddings.parquet"),
    )
    import pytest as _pytest

    with _pytest.raises(ValueError, match="not dense"):
        analytics.embedding_negatives(str(d))


# ---------------------------------------------------------------------------
# ninth-extension window + stats ops vs DuckDB on random tables


def _rand_keyed_values(seed: int, with_nulls: bool = False):
    rng = np.random.RandomState(seed)
    n = int(rng.randint(100, 400))
    vals = rng.randint(-500, 500, n).astype(np.int64)
    mask = rng.rand(n) < 0.12 if with_nulls else np.zeros(n, bool)
    return pa.table(
        {
            "k": pa.array((rng.zipf(1.4, n) % 9).astype(np.int64), pa.int64()),
            "o": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "v": pa.array(vals, mask=mask, type=pa.int64()),
        }
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_group_ewma_differential_vs_duckdb(ray_session, seed):
    """Random series, recursive-CTE oracle — BIT equality on the doubles."""
    import ray.data

    from deepseek_ocr_ray.stages.windows import group_ewma

    rng = np.random.RandomState(seed)
    n = int(rng.randint(80, 300))
    t = pa.table(
        {
            "k": pa.array((rng.zipf(1.4, n) % 7).astype(np.int64), pa.int64()),
            "o": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "v": pa.array(np.round(rng.randn(n) * 10, 3), pa.float64()),
        }
    )
    got = group_ewma(
        ray.data.from_arrow(t).repartition(3),
        keys=["k"],
        order_cols=[("o", "ascending")],
        col="v",
        out_col="ewma",
        alpha=0.25,
    ).take_all()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        """
        WITH RECURSIVE ordered AS MATERIALIZED (
          SELECT k, o, v,
                 ROW_NUMBER() OVER (PARTITION BY k ORDER BY o) AS rn
          FROM t
        ),
        rec AS (
          SELECT k, o, v, rn, v AS ewma FROM ordered WHERE rn = 1
          UNION ALL
          SELECT x.k, x.o, x.v, x.rn, 0.75 * r.ewma + 0.25 * x.v
          FROM ordered x JOIN rec r ON x.k = r.k AND x.rn = r.rn + 1
        )
        SELECT k, o, ewma FROM rec
        """
    ).arrow()
    w = {(r["k"], r["o"]): r["ewma"] for r in want.to_pylist()}
    for r in got:
        assert np.float64(r["ewma"]).view(np.int64) == np.float64(
            w[(r["k"], r["o"])]
        ).view(np.int64), (seed, r["k"], r["o"])


@pytest.mark.parametrize("seed", [3, 4])
def test_rolling_extremes_differential_vs_duckdb(ray_session, seed):
    import ray.data

    from deepseek_ocr_ray.stages.windows import group_rolling_extremes

    t = _rand_keyed_values(seed, with_nulls=True)
    got = group_rolling_extremes(
        ray.data.from_arrow(t).repartition(4),
        keys=["k"],
        order_cols=[("o", "ascending")],
        col="v",
        window=5,
    ).take_all()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        """
        SELECT k, o,
               MIN(v) OVER (PARTITION BY k ORDER BY o
                            ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS mn,
               MAX(v) OVER (PARTITION BY k ORDER BY o
                            ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS mx
        FROM t
        """
    ).arrow().to_pylist()
    w = {(r["k"], r["o"]): (r["mn"], r["mx"]) for r in want}
    for r in got:
        assert (r["roll_min"], r["roll_max"]) == w[(r["k"], r["o"])], (
            seed,
            r["k"],
            r["o"],
        )


@pytest.mark.parametrize("seed", [5, 6])
def test_last_match_differential_vs_duckdb(ray_session, seed):
    import ray.data

    from deepseek_ocr_ray.stages.windows import group_last_match

    rng = np.random.RandomState(seed)
    n = int(rng.randint(100, 300))
    t = pa.table(
        {
            "k": pa.array((rng.zipf(1.4, n) % 6).astype(np.int64), pa.int64()),
            "o": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "f": pa.array(rng.rand(n) < 0.3, pa.bool_()),
            "p": pa.array(rng.randint(0, 10**6, n).astype(np.int64), pa.int64()),
        }
    )
    got = group_last_match(
        ray.data.from_arrow(t).repartition(3),
        keys=["k"],
        order_cols=[("o", "ascending")],
        flag_col="f",
        payload_cols={"p": "lp"},
    ).take_all()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        """
        SELECT k, o,
               LAST_VALUE(CASE WHEN f THEN p END IGNORE NULLS)
                 OVER (PARTITION BY k ORDER BY o
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                   AS lp
        FROM t
        """
    ).arrow().to_pylist()
    w = {(r["k"], r["o"]): r["lp"] for r in want}
    for r in got:
        assert r["lp"] == w[(r["k"], r["o"])], (seed, r["k"], r["o"])


@pytest.mark.parametrize("seed", [7, 8])
def test_stat_tests_differential_vs_duckdb(ray_session, seed):
    """KS, Mann-Whitney and Spearman on one random two-sided table vs
    their windowed SQL forms — exact ints and bit-equal floats."""
    import ray.data

    from deepseek_ocr_ray.stages.profile import (
        ks_two_sample,
        mann_whitney_u,
        spearman_corr,
    )

    rng = np.random.RandomState(seed)
    n = int(rng.randint(150, 400))
    t = pa.table(
        {
            "v": pa.array(rng.randint(0, 30, n).astype(np.int64), pa.int64()),
            "v2": pa.array(rng.randint(0, 25, n).astype(np.int64), pa.int64()),
            "side": pa.array(
                ["a" if x else "b" for x in rng.rand(n) < 0.5], pa.string()
            ),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    con = duckdb.connect()
    con.register("t", t)

    ks = ks_two_sample(ds, "v", "side", ("a", "b")).to_pylist()[0]
    want_ks = con.execute(
        """
        WITH cnt AS (
          SELECT v, CAST(SUM(CASE WHEN side='a' THEN 1 ELSE 0 END) AS HUGEINT) c1,
                 CAST(SUM(CASE WHEN side='b' THEN 1 ELSE 0 END) AS HUGEINT) c2
          FROM t GROUP BY v
        ),
        tot AS (SELECT SUM(c1) n1, SUM(c2) n2 FROM cnt),
        cum AS (SELECT SUM(c1) OVER (ORDER BY v) f1,
                       SUM(c2) OVER (ORDER BY v) f2 FROM cnt)
        SELECT CAST(MAX(ABS(f1*n2 - f2*n1)) AS BIGINT) d_num,
               CAST(n1 AS BIGINT) n1, CAST(n2 AS BIGINT) n2
        FROM cum, tot GROUP BY n1, n2
        """
    ).arrow().to_pylist()[0]
    assert (ks["d_num"], ks["n1"], ks["n2"]) == (
        want_ks["d_num"],
        want_ks["n1"],
        want_ks["n2"],
    )

    mw = mann_whitney_u(ds, "v", "side", ("a", "b")).to_pylist()[0]
    want_mw = con.execute(
        """
        WITH cnt AS (
          SELECT v, CAST(SUM(CASE WHEN side='a' THEN 1 ELSE 0 END) AS HUGEINT) c1,
                 CAST(COUNT(*) AS HUGEINT) c
          FROM t GROUP BY v
        ),
        cum AS (SELECT v, c1, c, SUM(c) OVER (ORDER BY v) - c AS cb FROM cnt),
        tot AS (SELECT SUM(c1) n1, SUM(c - c1) n2 FROM cnt)
        SELECT CAST(SUM(c1*(2*cb + c + 1)) - n1*(n1+1) AS BIGINT) u2
        FROM cum, tot GROUP BY n1, n2
        """
    ).arrow().to_pylist()[0]
    assert mw["u2"] == want_mw["u2"]

    rho = spearman_corr(ds, "v", "v2").to_pylist()[0]
    want_rho = con.execute(
        """
        WITH joint AS (
          SELECT v AS x, v2 AS y, CAST(COUNT(*) AS HUGEINT) c FROM t GROUP BY 1, 2
        ),
        xm AS (SELECT x, SUM(c) cx FROM joint GROUP BY 1),
        xr AS (SELECT x, 2*(SUM(cx) OVER (ORDER BY x) - cx) + cx + 1 AS u FROM xm),
        ym AS (SELECT y, SUM(c) cy FROM joint GROUP BY 1),
        yr AS (SELECT y, 2*(SUM(cy) OVER (ORDER BY y) - cy) + cy + 1 AS v FROM ym),
        s AS (
          SELECT CAST(SUM(c) AS HUGEINT) n, CAST(SUM(c*u) AS HUGEINT) scu,
                 CAST(SUM(c*v) AS HUGEINT) scv, CAST(SUM(c*u*v) AS HUGEINT) scuv,
                 CAST(SUM(c*u*u) AS HUGEINT) scu2, CAST(SUM(c*v*v) AS HUGEINT) scv2
          FROM joint JOIN xr USING (x) JOIN yr USING (y)
        )
        SELECT CAST(n*scuv - scu*scv AS DOUBLE)
               / SQRT(CAST(n*scu2 - scu*scu AS DOUBLE)
                      * CAST(n*scv2 - scv*scv AS DOUBLE)) AS rho
        FROM s
        """
    ).arrow().to_pylist()[0]
    assert np.float64(rho["rho"]).view(np.int64) == np.float64(
        want_rho["rho"]
    ).view(np.int64)


@pytest.mark.parametrize("seed", [9, 10])
def test_timeseries_family_differential_vs_duckdb(ray_session, seed):
    """lead-lag dots, CUSUM change point and Theil-Sen slope vs their SQL
    forms on one random event table (timestamps in us over ~25 days)."""
    import ray.data

    from deepseek_ocr_ray.stages.timeseries import (
        US_PER_DAY,
        cusum_change_point,
        lead_lag_dots,
        theil_sen_slope,
    )

    rng = np.random.RandomState(seed)
    n = int(rng.randint(300, 700))
    days = rng.randint(0, 25, n).astype(np.int64)
    ts = days * US_PER_DAY + rng.randint(0, US_PER_DAY, n)
    is_v = (rng.rand(n) < 0.5).astype(np.int64)
    t = pa.table(
        {
            "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
            "is_v": pa.array(is_v, pa.int64()),
            "is_p": pa.array(1 - is_v, pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    con = duckdb.connect()
    con.register("t", t)

    ll = lead_lag_dots(ds, "ts", "is_v", "is_p", max_lag=4).to_pylist()
    want_ll = con.execute(
        """
        WITH d AS (
          SELECT epoch_us(ts) // 86400000000 AS day,
                 CAST(SUM(is_v) AS BIGINT) x, CAST(SUM(is_p) AS BIGINT) y
          FROM t GROUP BY 1
        ),
        lags AS (SELECT UNNEST(range(-4, 5)) AS lag)
        SELECT CAST(l.lag AS BIGINT) lag,
               CAST(COALESCE(SUM(a.x * b.y), 0) AS BIGINT) dot
        FROM lags l LEFT JOIN d a ON TRUE
        LEFT JOIN d b ON b.day = a.day + l.lag
        GROUP BY l.lag ORDER BY lag
        """
    ).arrow().to_pylist()
    assert [(r["lag"], r["dot"]) for r in ll] == [
        (r["lag"], r["dot"]) for r in want_ll
    ]

    cp = cusum_change_point(ds, "ts").to_pylist()[0]
    want_cp = con.execute(
        """
        WITH d AS (
          SELECT epoch_us(ts) // 86400000000 AS day,
                 CAST(COUNT(*) AS BIGINT) n
          FROM t GROUP BY 1
        ),
        tot AS (SELECT CAST(SUM(n) AS BIGINT) total,
                       CAST(COUNT(*) AS BIGINT) nd FROM d),
        c AS (
          SELECT day, ABS(nd * SUM(n) OVER (ORDER BY day)
                 - (ROW_NUMBER() OVER (ORDER BY day)) * total) s
          FROM d CROSS JOIN tot
        )
        SELECT CAST(day AS BIGINT) change_day, CAST(s AS BIGINT) cusum_abs
        FROM c ORDER BY s DESC, day LIMIT 1
        """
    ).arrow().to_pylist()[0]
    assert cp["change_day"] == want_cp["change_day"]
    assert cp["cusum_abs"] == want_cp["cusum_abs"]

    tsn = theil_sen_slope(ds, "ts").to_pylist()[0]
    want_tsn = con.execute(
        """
        WITH d AS (
          SELECT epoch_us(ts) // 86400000000 AS day,
                 CAST(COUNT(*) AS BIGINT) n
          FROM t GROUP BY 1
        ),
        pairs AS (
          SELECT CAST(b.n - a.n AS DOUBLE) / CAST(b.day - a.day AS DOUBLE)
                 AS slope
          FROM d a JOIN d b ON b.day > a.day
        )
        SELECT quantile_disc(slope, 0.5) slope FROM pairs
        """
    ).arrow().to_pylist()[0]
    assert np.float64(tsn["slope"]).view(np.int64) == np.float64(
        want_tsn["slope"]
    ).view(np.int64)


@pytest.mark.parametrize("seed", [11, 12])
def test_km_chi2_benford_differential_vs_duckdb(ray_session, seed):
    """Kaplan-Meier (recursive CTE), chi-squared (HUGEINT grid) and
    Benford (decimal digits) vs SQL on random tables."""
    import ray.data

    from deepseek_ocr_ray.stages.profile import benford_audit, chi2_independence
    from deepseek_ocr_ray.stages.survival import kaplan_meier

    rng = np.random.RandomState(seed)

    # KM
    n = int(rng.randint(60, 200))
    t = pa.table(
        {
            "dur": pa.array(rng.randint(0, 20, n).astype(np.int64), pa.int64()),
            "obs": pa.array(rng.randint(0, 2, n).astype(np.int64), pa.int64()),
        }
    )
    km = kaplan_meier(
        ray.data.from_arrow(t).repartition(3), "dur", "obs"
    ).to_pylist()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        """
        WITH RECURSIVE tab AS MATERIALIZED (
          SELECT dur, CAST(SUM(obs) AS BIGINT) d,
                 CAST(SUM(1 - obs) AS BIGINT) cens,
                 CAST(COUNT(*) AS BIGINT) tot
          FROM t GROUP BY dur
        ),
        ord AS MATERIALIZED (
          SELECT dur, d, cens,
                 CAST(SUM(tot) OVER (ORDER BY dur DESC) AS BIGINT) n_risk,
                 ROW_NUMBER() OVER (ORDER BY dur) rn
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
        SELECT dur, n_risk, d, cens, surv FROM rec ORDER BY dur
        """
    ).arrow().to_pylist()
    assert len(km) == len(want)
    for g, w in zip(km, want):
        assert (g["duration"], g["n_risk"], g["n_event"], g["n_censored"]) == (
            w["dur"], w["n_risk"], w["d"], w["cens"],
        )
        assert np.float64(g["surv"]).view(np.int64) == np.float64(
            w["surv"]
        ).view(np.int64)

    # chi2
    n2 = int(rng.randint(100, 300))
    t2 = pa.table(
        {
            "r": pa.array([chr(65 + v) for v in rng.randint(0, 5, n2)]),
            "c": pa.array([chr(120 + v) for v in rng.randint(0, 3, n2)]),
        }
    )
    chi = chi2_independence(
        ray.data.from_arrow(t2).repartition(2), "r", "c"
    ).to_pylist()[0]
    con2 = duckdb.connect()
    con2.register("t2", t2)
    want2 = con2.execute(
        """
        WITH cells AS (
          SELECT r, c, CAST(COUNT(*) AS HUGEINT) o FROM t2 GROUP BY 1, 2
        ),
        rm AS (SELECT r, CAST(SUM(o) AS HUGEINT) rt FROM cells GROUP BY 1),
        cm AS (SELECT c, CAST(SUM(o) AS HUGEINT) ct FROM cells GROUP BY 1),
        tot AS (SELECT CAST(SUM(o) AS HUGEINT) n FROM cells),
        grid AS (
          SELECT rm.rt, cm.ct, COALESCE(cells.o, 0) o
          FROM rm CROSS JOIN cm
          LEFT JOIN cells ON cells.r = rm.r AND cells.c = cm.c
        )
        SELECT CAST(SUM(CAST(FLOOR(
            CAST((o*n - rt*ct)*(o*n - rt*ct) AS DOUBLE)
            / CAST(rt*ct*n AS DOUBLE) * 1000000 + 0.5) AS BIGINT)) AS BIGINT)
            chi2_ppm
        FROM grid, tot
        """
    ).arrow().to_pylist()[0]
    assert chi["chi2_ppm"] == want2["chi2_ppm"]

    # Benford
    n3 = int(rng.randint(100, 400))
    vals = (rng.lognormal(6, 2, n3) * 100).astype(np.int64)
    t3 = pa.table({"v": pa.array(vals, pa.int64())})
    ben = benford_audit(
        ray.data.from_arrow(t3).repartition(2), "v"
    ).to_pylist()
    con3 = duckdb.connect()
    con3.register("t3", t3)
    want3 = con3.execute(
        """
        WITH pos AS (
          SELECT CAST(SUBSTR(CAST(v AS VARCHAR), 1, 1) AS BIGINT) digit
          FROM t3 WHERE v > 0
        ),
        obs AS (SELECT digit, CAST(COUNT(*) AS BIGINT) o FROM pos GROUP BY 1),
        tot AS (SELECT CAST(SUM(o) AS BIGINT) n FROM obs),
        dg AS (SELECT UNNEST(range(1, 10)) digit)
        SELECT CAST(dg.digit AS BIGINT) digit, COALESCE(obs.o, 0) observed,
               CAST(FLOOR(CAST(COALESCE(obs.o, 0) AS DOUBLE)
                    / CAST(n AS DOUBLE) * 1000000 + 0.5) AS BIGINT) obs_ppm
        FROM dg LEFT JOIN obs ON obs.digit = dg.digit CROSS JOIN tot
        ORDER BY digit
        """
    ).arrow().to_pylist()
    for g, w in zip(ben, want3):
        assert (g["digit"], g["observed"], g["obs_ppm"]) == (
            w["digit"], w["observed"], w["obs_ppm"],
        )
