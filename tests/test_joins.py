"""As-of join operator tests (stages/joins)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from deepseek_ocr_ray.stages.joins import asof_join


def _ds(tbl, blocks=2):
    import ray.data

    return ray.data.from_arrow(tbl).repartition(blocks)


LEFT = pa.table(
    {
        "lid": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "key": pa.array([10, 10, 10, 20, 30], pa.int64()),
        "lts": pa.array([100, 205, 50, 500, 7], pa.int64()),
    }
)
RIGHT = pa.table(
    {
        "rid": pa.array([101, 102, 103, 104], pa.int64()),
        "rkey": pa.array([10, 10, 20, 40], pa.int64()),
        "rts": pa.array([100, 200, 450, 1], pa.int64()),
    }
)


def test_asof_join_semantics(ray_session):
    out = (
        asof_join(
            _ds(LEFT), _ds(RIGHT),
            left_key="key", right_key="rkey",
            left_ts="lts", right_ts="rts",
            left_cols=["lid", "key"], right_cols=["rid"],
        )
        .to_pandas().sort_values("lid").reset_index(drop=True)
    )
    # lid=1 ts=100 → rts=100 (equality matches); lid=2 ts=205 → rts=200;
    # lid=3 ts=50 → no rts<=50 for key 10 → dropped;
    # lid=4 ts=500 → rts=450; lid=5 key 30 has no right rows → dropped
    assert out.lid.tolist() == [1, 2, 4]
    assert out.rid.tolist() == [101, 102, 103]


def test_asof_join_block_invariant(ray_session):
    a = (
        asof_join(
            _ds(LEFT, 1), _ds(RIGHT, 1),
            left_key="key", right_key="rkey",
            left_ts="lts", right_ts="rts",
            left_cols=["lid"], right_cols=["rid"],
        ).to_pandas().sort_values("lid").reset_index(drop=True)
    )
    b = (
        asof_join(
            _ds(LEFT.take(pa.array([4, 2, 0, 1, 3])), 3), _ds(RIGHT, 2),
            left_key="key", right_key="rkey",
            left_ts="lts", right_ts="rts",
            left_cols=["lid"], right_cols=["rid"],
        ).to_pandas().sort_values("lid").reset_index(drop=True)
    )
    assert a.equals(b)


def test_asof_join_timestamps(ray_session):
    import datetime as dt

    t0 = dt.datetime(2024, 1, 1)
    left = pa.table(
        {
            "lid": pa.array([1, 2], pa.int64()),
            "k": pa.array([5, 5], pa.int64()),
            "ts": pa.array([t0 + dt.timedelta(days=3), t0], pa.timestamp("us")),
        }
    )
    right = pa.table(
        {
            "rid": pa.array([9, 8], pa.int64()),
            "k": pa.array([5, 5], pa.int64()),
            "ts": pa.array([t0 + dt.timedelta(days=2), t0 - dt.timedelta(days=1)],
                           pa.timestamp("us")),
        }
    )
    out = (
        asof_join(
            _ds(left), _ds(right),
            left_key="k", right_key="k", left_ts="ts", right_ts="ts",
            left_cols=["lid"], right_cols=["rid"],
        ).to_pandas().sort_values("lid").reset_index(drop=True)
    )
    assert out.lid.tolist() == [1, 2]
    assert out.rid.tolist() == [9, 8]


def test_range_join_semantics(ray_session):
    from deepseek_ocr_ray.stages.joins import range_join

    left = pa.table(
        {
            "lid": pa.array([1, 2, 3, 4], pa.int64()),
            "v": pa.array([5.0, 15.0, 25.0, 100.0]),
        }
    )
    right = pa.table(
        {
            "band": pa.array(["a", "b", "c"]),
            "lo": pa.array([0.0, 10.0, 20.0]),
            "hi": pa.array([20.0, 30.0, 25.0]),
        }
    )
    out = (
        range_join(
            _ds(left), _ds(right),
            left_val="v", right_lo="lo", right_hi="hi",
            left_cols=["lid"], right_cols=["band"],
            domain=(0.0, 110.0), n_buckets=8,
        )
        .to_pandas().sort_values(["lid", "band"]).reset_index(drop=True)
    )
    got = list(zip(out.lid, out.band))
    # v=5 → a; v=15 → a,b; v=25 → b,c (boundary inclusive); v=100 → none
    assert got == [(1, "a"), (2, "a"), (2, "b"), (3, "b"), (3, "c")]


def test_range_join_no_duplicates_across_bands(ray_session):
    """An interval spanning many bands must emit each pair exactly once."""
    from deepseek_ocr_ray.stages.joins import range_join

    left = pa.table(
        {"lid": pa.array(list(range(20)), pa.int64()),
         "v": pa.array([float(i) for i in range(20)])}
    )
    right = pa.table(
        {"band": pa.array(["wide"]), "lo": pa.array([2.0]), "hi": pa.array([17.0])}
    )
    out = (
        range_join(
            _ds(left, 3), _ds(right, 1),
            left_val="v", right_lo="lo", right_hi="hi",
            left_cols=["lid"], right_cols=["band"],
            domain=(0.0, 20.0), n_buckets=16,
        ).to_pandas()
    )
    assert sorted(out.lid.tolist()) == list(range(2, 18))  # each exactly once


def _naive_asof(left_rows, right_rows):
    """O(n²) reference: per left row, right row with max ts <= left ts."""
    out = []
    for lid, lk, lt in left_rows:
        best = None
        for rid, rk, rt in right_rows:
            if rk == lk and rt <= lt and (best is None or rt > best[1]):
                best = (rid, rt)
        if best is not None:
            out.append((lid, best[0]))
    return sorted(out)


def _naive_range(left_rows, right_rows):
    out = []
    for lid, v in left_rows:
        for rid, lo, hi in right_rows:
            if lo <= v <= hi:
                out.append((lid, rid))
    return sorted(out)


def test_asof_join_random_vs_naive(ray_session):
    import numpy as np

    rng = np.random.RandomState(17)
    for trial in range(3):
        n_l, n_r = 60, 40
        lk = rng.randint(0, 6, n_l)
        lt = rng.randint(0, 1000, n_l)
        rk = rng.randint(0, 6, n_r)
        # unique (key, ts) on the right (asof precondition)
        seen = set()
        rt = []
        for k in rk:
            t = int(rng.randint(0, 1000))
            while (k, t) in seen:
                t = int(rng.randint(0, 1000))
            seen.add((k, t))
            rt.append(t)
        left = pa.table({"lid": pa.array(range(n_l), pa.int64()),
                         "k": pa.array(lk, pa.int64()),
                         "ts": pa.array(lt, pa.int64())})
        right = pa.table({"rid": pa.array(range(100, 100 + n_r), pa.int64()),
                          "k": pa.array(rk, pa.int64()),
                          "ts": pa.array(rt, pa.int64())})
        got = (
            asof_join(_ds(left, 3), _ds(right, 2),
                      left_key="k", right_key="k", left_ts="ts", right_ts="ts",
                      left_cols=["lid"], right_cols=["rid"])
            .to_pandas()
        )
        want = _naive_asof(
            list(zip(range(n_l), lk, lt)),
            list(zip(range(100, 100 + n_r), rk, rt)),
        )
        assert sorted(zip(got.lid, got.rid)) == want, f"trial {trial}"


def test_range_join_random_vs_naive(ray_session):
    import numpy as np

    from deepseek_ocr_ray.stages.joins import range_join

    rng = np.random.RandomState(23)
    n_l, n_r = 80, 25
    lv = rng.uniform(0, 100, n_l)
    lo = rng.uniform(0, 100, n_r)
    width = rng.uniform(0, 40, n_r)
    hi = lo + width - 10  # some inverted intervals included
    left = pa.table({"lid": pa.array(range(n_l), pa.int64()),
                     "v": pa.array(lv, pa.float64())})
    right = pa.table({"rid": pa.array(range(500, 500 + n_r), pa.int64()),
                      "lo": pa.array(lo, pa.float64()),
                      "hi": pa.array(hi, pa.float64())})
    got = (
        range_join(_ds(left, 3), _ds(right, 2),
                   left_val="v", right_lo="lo", right_hi="hi",
                   left_cols=["lid"], right_cols=["rid"],
                   domain=(0.0, 100.0), n_buckets=16)
        .to_pandas()
    )
    want = _naive_range(
        list(zip(range(n_l), lv)),
        list(zip(range(500, 500 + n_r), lo, hi)),
    )
    assert sorted(zip(got.lid, got.rid)) == want


_ORACLE_SF = "/root/testdata/sf0.001"


def _oracle_under_both_caps(monkeypatch, name: str) -> None:
    """Run ``queries()[name]`` with the join planner's broadcast cap at its
    default and at 0 (every planner join takes the keyed exchange); both
    must equal the DuckDB oracle, order-insensitively."""
    import duckdb

    import __ray_entry__ as e
    from deepseek_ocr_ray import cluster

    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "supplier", "documents"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{_ORACLE_SF}/{t}.parquet'"
        )
    want = con.sql(e.oracle_sql()[name]).df()
    cols = sorted(want.columns)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    assert len(want) > 0, name
    for cap in (cluster.BROADCAST_MAX_BYTES, 0):
        monkeypatch.setattr(cluster, "BROADCAST_MAX_BYTES", cap)
        got = e.queries()[name](_ORACLE_SF).to_pandas()
        got = got[cols].sort_values(cols).reset_index(drop=True)
        assert got.astype(str).equals(want.astype(str)), (name, cap)


def test_customers_without_orders_join_path_equals_broadcast(
    ray_session, monkeypatch
):
    """The planner's broadcast and keyed-exchange left_anti plans both
    give DuckDB's NOT EXISTS rows."""
    _oracle_under_both_caps(monkeypatch, "customers_without_orders")


def test_suppliers_semi_join_path_equals_broadcast(ray_session, monkeypatch):
    _oracle_under_both_caps(monkeypatch, "suppliers_with_lineitems")


def test_dedup_ngram_both_join_plans_match_oracle(ray_session, monkeypatch):
    """The distributed verify route (driver-local verify disabled) runs
    the two text joins and the dropped-set anti join under each plan."""
    from deepseek_ocr_ray.stages import dedup

    monkeypatch.setattr(dedup, "NGRAM_LOCAL_MAX_PAIRS", -1)
    _oracle_under_both_caps(monkeypatch, "dedup_ngram")


def test_asof_right_tiebreak_picks_max(ray_session):
    """Several right rows sharing (key, ts): the match must carry the MAX
    tiebreak value — equivalent to pre-deduping with groupby+Max."""
    import ray.data

    left = pa.table({
        "k": pa.array([1, 1], pa.int64()),
        "t": pa.array([10, 4], pa.int64()),
        "eid": pa.array([100, 101], pa.int64()),
    })
    right = pa.table({
        "k": pa.array([1, 1, 1, 1], pa.int64()),
        "rt": pa.array([5, 5, 5, 2], pa.int64()),
        "oid": pa.array([7, 9, 3, 1], pa.int64()),
    })
    from deepseek_ocr_ray.stages.joins import asof_join

    got = (
        asof_join(
            ray.data.from_arrow(left).repartition(2),
            ray.data.from_arrow(right).repartition(3),
            left_key="k", right_key="k", left_ts="t", right_ts="rt",
            left_cols=["eid"], right_cols=["oid"],
            right_tiebreak="oid",
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    # eid 100 (t=10) matches ts 5 → max oid 9; eid 101 (t=4) matches ts 2 → oid 1
    assert got.oid.tolist() == [9, 1]


def _naive_join(lrows, rrows, lk, rk, how):
    from collections import defaultdict

    rindex = defaultdict(list)
    for r in rrows:
        rindex[r[rk]].append(r)
    out = []
    for l in lrows:
        matches = rindex.get(l[lk], [])
        if how == "inner":
            out.extend({**l, **m} for m in matches)
        elif how == "left_outer":
            if matches:
                out.extend({**l, **m} for m in matches)
            else:
                out.append({**l})
        elif how == "left_semi":
            if matches:
                out.append(l)
        elif how == "left_anti":
            if not matches:
                out.append(l)
    return out


@pytest.mark.parametrize("how", ["inner", "left_outer", "left_semi", "left_anti"])
def test_bucket_join_vs_naive(ray_session, how):
    import numpy as np
    import ray.data

    from deepseek_ocr_ray.stages.joins import bucket_join

    rng = np.random.RandomState(5)
    left = pa.table({
        "k": pa.array(rng.randint(0, 30, 120).tolist(), pa.int64()),
        "lv": pa.array(range(120), pa.int64()),
    })
    right = pa.table({
        "rk": pa.array(rng.randint(0, 40, 35).tolist(), pa.int64()),
        "rv": pa.array(range(1000, 1035), pa.int64()),
    })
    got = (
        bucket_join(
            ray.data.from_arrow(left).repartition(4),
            ray.data.from_arrow(right).repartition(3),
            left_on="k", right_on="rk", how=how,
            left_cols=["k", "lv"], right_cols=["rv"],
            n_buckets=8,
        )
        .to_pandas()
    )
    lrows = left.to_pylist()
    rrows = right.to_pylist()
    want = _naive_join(lrows, rrows, "k", "rk", how)
    if how in ("left_semi", "left_anti"):
        assert sorted(got.lv.tolist()) == sorted(w["lv"] for w in want)
        assert got.rv.isna().all()
    else:
        gset = sorted(
            (r.lv, None if (r.rv != r.rv) else int(r.rv))  # NaN-safe
            for r in got.itertuples()
        )
        wset = sorted((w["lv"], w.get("rv")) for w in want)
        assert gset == wset


def test_bucket_join_string_keys_and_empty_side(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.joins import bucket_join

    left = pa.table({
        "h": pa.array(["aa", "bb", "cc", "bb"], pa.string()),
        "lv": pa.array([1, 2, 3, 4], pa.int64()),
    })
    right = pa.table({
        "h2": pa.array(["bb", "zz"], pa.string()),
        "rv": pa.array([10, 20], pa.int64()),
    })
    got = bucket_join(
        ray.data.from_arrow(left).repartition(2),
        ray.data.from_arrow(right),
        left_on="h", right_on="h2", how="left_anti",
        left_cols=["lv"], right_cols=[],
        n_buckets=4,
    ).to_pandas()
    assert sorted(got.lv.tolist()) == [1, 3]

    # fully EMPTY right side — the exact shape that crashes Dataset.join
    empty_r = ray.data.from_arrow(
        pa.table({"h2": pa.array([], pa.string()), "rv": pa.array([], pa.int64())})
    )
    got2 = bucket_join(
        ray.data.from_arrow(left).repartition(3),
        empty_r,
        left_on="h", right_on="h2", how="left_anti",
        left_cols=["lv"], right_cols=[],
        n_buckets=4,
    ).to_pandas()
    assert sorted(got2.lv.tolist()) == [1, 2, 3, 4]


def test_bucket_join_parallelism_invariant(ray_session):
    import numpy as np
    import ray.data

    from deepseek_ocr_ray.stages.joins import bucket_join

    rng = np.random.RandomState(9)
    left = pa.table({
        "k": pa.array(rng.randint(0, 20, 60).tolist(), pa.int64()),
        "lv": pa.array(range(60), pa.int64()),
    })
    right = pa.table({
        "rk": pa.array(rng.randint(0, 20, 25).tolist(), pa.int64()),
        "rv": pa.array(range(25), pa.int64()),
    })
    outs = []
    for lb, rb in ((1, 1), (5, 3)):
        df = bucket_join(
            ray.data.from_arrow(left).repartition(lb),
            ray.data.from_arrow(right).repartition(rb),
            left_on="k", right_on="rk", how="inner",
            left_cols=["lv"], right_cols=["rv"],
        ).to_pandas().sort_values(["lv", "rv"]).reset_index(drop=True)
        outs.append(df)
    assert outs[0].equals(outs[1])


def test_bucket_join_rejects_colliding_output_columns(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.joins import bucket_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1], pa.int64()), "v": pa.array([2], pa.int64())})
    )
    right = ray.data.from_arrow(
        pa.table({"rk": pa.array([1], pa.int64()), "v": pa.array([3], pa.int64())})
    )
    with pytest.raises(ValueError, match="colliding column"):
        bucket_join(
            left, right, left_on="k", right_on="rk",
            left_cols=["k", "v"], right_cols=["v"],
        )


def _outer_tabs(seed=5, n=400):
    rng = np.random.RandomState(seed)
    left = pa.table({
        "k": pa.array(rng.randint(0, 60, n).tolist(), pa.int64()),
        "lv": pa.array(rng.randint(0, 1000, n).tolist(), pa.int64()),
    })
    right = pa.table({
        "rk": pa.array((rng.randint(0, 60, n) + 30).tolist(), pa.int64()),
        "rv": pa.array(rng.randint(0, 1000, n).tolist(), pa.int64()),
    })
    return left, right


@pytest.mark.parametrize("how,sql", [
    ("full_outer", "FULL OUTER"),
    ("right_outer", "RIGHT OUTER"),
])
def test_bucket_join_outer_vs_duckdb(ray_session, how, sql):
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.joins import bucket_join

    left, right = _outer_tabs()
    got = bucket_join(
        ray.data.from_arrow(left).repartition(4),
        ray.data.from_arrow(right).repartition(3),
        left_on="k", right_on="rk", how=how,
        left_cols=["lv"], right_cols=["rv"], key_out="k",
    ).to_pandas()
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.execute(
        f"SELECT COALESCE(l.k, r.rk) AS k, l.lv, r.rv "
        f"FROM l {sql} JOIN r ON l.k = r.rk"
    ).fetch_df()
    key = ["k", "lv", "rv"]
    g = got.sort_values(key, na_position="last").reset_index(drop=True)
    w = want.sort_values(key, na_position="last").reset_index(drop=True)
    assert len(g) == len(w)
    assert g[key].astype("Float64").equals(w[key].astype("Float64"))


def test_equi_join_routes_outer_to_bucket(ray_session):
    import ray.data

    from deepseek_ocr_ray.cluster import equi_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()), "lv": pa.array([10, 20], pa.int64())
    }))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([2, 3], pa.int64()), "rv": pa.array([200, 300], pa.int64())
    }))
    rows = sorted(
        (r["k"], r["lv"], r["rv"])
        for r in equi_join(
            left, right, on="k", join_type="full_outer",
            left_cols=["lv"], right_cols=["rv"], key_out="k",
        ).take_all()
    )
    assert rows == [(1, 10, None), (2, 20, 200), (3, None, 300)]
    with pytest.raises(ValueError, match="key_out"):
        equi_join(
            left, right, on="k", join_type="inner",
            left_cols=["lv"], right_cols=["rv"], key_out="k",
        )


def test_asof_join_forward_vs_duckdb(ray_session):
    import duckdb

    rng = np.random.RandomState(53)
    n = 800
    left = pa.table({
        "k": pa.array(rng.randint(0, 25, n).tolist(), pa.int64()),
        "t": pa.array(rng.randint(0, 1000, n).tolist(), pa.int64()),
        "lid": pa.array(list(range(n)), pa.int64()),
    })
    right = pa.table({
        "k": pa.array(rng.randint(0, 25, n).tolist(), pa.int64()),
        "t": pa.array(rng.randint(0, 1000, n).tolist(), pa.int64()),
        "v": pa.array(rng.randint(0, 10**6, n).tolist(), pa.int64()),
    })
    got = sorted(
        (r["lid"], r["v"])
        for r in asof_join(
            _ds(left, 4), _ds(right, 3),
            left_key="k", right_key="k", left_ts="t", right_ts="t",
            left_cols=["lid"], right_cols=["v"],
            right_tiebreak="v", direction="forward",
        ).take_all()
    )
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = sorted(
        tuple(x) for x in con.execute("""
        WITH rr AS (SELECT k, t, max(v) AS v FROM r GROUP BY 1, 2)
        SELECT l.lid, rr.v FROM l ASOF JOIN rr
          ON l.k = rr.k AND l.t <= rr.t
        """).fetchall()
    )
    assert got == want


def test_asof_join_forward_picks_earliest_future(ray_session):
    left = pa.table({
        "k": pa.array([1, 1, 1], pa.int64()),
        "t": pa.array([10, 25, 99], pa.int64()),
        "lid": pa.array([0, 1, 2], pa.int64()),
    })
    right = pa.table({
        "k": pa.array([1, 1, 1], pa.int64()),
        "t": pa.array([9, 12, 20], pa.int64()),
        "v": pa.array([50, 100, 200], pa.int64()),
    })
    got = sorted(
        (r["lid"], r["v"])
        for r in asof_join(
            _ds(left, 1), _ds(right, 1),
            left_key="k", right_key="k", left_ts="t", right_ts="t",
            left_cols=["lid"], right_cols=["v"], direction="forward",
        ).take_all()
    )
    # lid 0 -> nearest future t=12; lid 1 -> none (max right t=20 < 25? no:
    # 20 >= 25 is false) ... t=25 has no right ts >= 25 -> dropped; lid 2 dropped
    assert got == [(0, 100)]
