"""Coarse-bucket exact aggregation (stages/agg.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data

from deepseek_ocr_ray.stages.agg import bucket_groupby_sum


def _tab(seed=4, n=5000):
    rng = np.random.RandomState(seed)
    return pa.table(
        {
            "g": pa.array(rng.randint(0, 700, n).tolist(), pa.int64()),
            "s": pa.array([f"s{v}" for v in rng.randint(0, 3, n)], pa.string()),
            "v": pa.array(rng.randint(-50, 50, n).tolist(), pa.int64()),
        }
    )


def _naive(tab):
    out = {}
    for i in range(tab.num_rows):
        k = (tab["g"][i].as_py(), tab["s"][i].as_py())
        n, s = out.get(k, (0, 0))
        out[k] = (n + 1, s + tab["v"][i].as_py())
    return out


def test_bucket_groupby_sum_vs_naive(ray_session):
    import ray.data

    tab = _tab()
    got = bucket_groupby_sum(
        ray.data.from_arrow(tab).repartition(5),
        ["g", "s"],
        ["v"],
        count_col="n",
    ).take_all()
    want = _naive(tab)
    got_map = {(r["g"], r["s"]): (r["n"], r["v"]) for r in got}
    assert got_map == want


def test_bucket_groupby_sum_parallelism_invariant(ray_session):
    import ray.data

    tab = _tab(seed=9)
    outs = []
    for parts in (1, 7):
        rows = bucket_groupby_sum(
            ray.data.from_arrow(tab).repartition(parts), ["g"], ["v"]
        ).take_all()
        outs.append(sorted((r["g"], r["v"]) for r in rows))
    assert outs[0] == outs[1]


def test_bucket_groupby_sum_validation(ray_session):
    import ray.data

    with pytest.raises(ValueError, match="nothing to aggregate"):
        bucket_groupby_sum(ray.data.from_arrow(_tab()), ["g"], [])


def test_bucket_groupby_agg_all_fns_vs_naive(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import bucket_groupby_agg

    tab = _tab(seed=11)
    got = bucket_groupby_agg(
        ray.data.from_arrow(tab).repartition(6),
        ["g", "s"],
        [
            ("v", "sum", "sv"),
            ("v", "min", "mn"),
            ("v", "max", "mx"),
            (None, "count", "n"),
            ("v", "mean", "avg"),
        ],
    ).take_all()
    want = {}
    for i in range(tab.num_rows):
        k = (tab["g"][i].as_py(), tab["s"][i].as_py())
        v = tab["v"][i].as_py()
        if k not in want:
            want[k] = [0, 10**9, -(10**9), 0]
        want[k][0] += v
        want[k][1] = min(want[k][1], v)
        want[k][2] = max(want[k][2], v)
        want[k][3] += 1
    assert len(got) == len(want)
    for r in got:
        sv, mn, mx, n = want[(r["g"], r["s"])]
        assert (r["sv"], r["mn"], r["mx"], r["n"]) == (sv, mn, mx, n)
        assert r["avg"] == sv / n


def test_bucket_groupby_agg_min_max_on_strings(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import bucket_groupby_agg

    tab = _tab(seed=3)
    got = bucket_groupby_agg(
        ray.data.from_arrow(tab).repartition(4),
        ["g"],
        [("s", "min", "smin"), ("s", "max", "smax")],
    ).take_all()
    want_min, want_max = {}, {}
    for i in range(tab.num_rows):
        k, s = tab["g"][i].as_py(), tab["s"][i].as_py()
        want_min[k] = min(want_min.get(k, s), s)
        want_max[k] = max(want_max.get(k, s), s)
    for r in got:
        assert (r["smin"], r["smax"]) == (want_min[r["g"]], want_max[r["g"]])


def test_bucket_groupby_agg_rejects_float_sum(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import bucket_groupby_agg

    tab = pa.table(
        {"g": pa.array([1, 1], pa.int64()), "x": pa.array([0.5, 1.5])}
    )
    with pytest.raises(ValueError, match="block-order-dependent"):
        bucket_groupby_agg(
            ray.data.from_arrow(tab), ["g"], [("x", "sum", "sx")]
        )
    with pytest.raises(ValueError, match="duplicate output"):
        bucket_groupby_agg(
            ray.data.from_arrow(tab),
            ["g"],
            [(None, "count", "n"), (None, "count", "n")],
        )


def test_bucket_groupby_agg_executes_lazy_input_once(ray_session, run_marker):
    """Planning the aggregate over a lazy mapped input runs nothing (no
    schema probe); consuming it runs the input's plan exactly once."""
    from deepseek_ocr_ray.stages.agg import bucket_groupby_agg

    touch, runs = run_marker
    tab = _tab(n=400)
    lazy = ray.data.from_arrow(tab).map_batches(touch, batch_format="pyarrow")
    out = bucket_groupby_agg(
        lazy, ["g", "s"], [(None, "count", "n"), ("v", "sum", "sv")],
        n_buckets=4,
    )
    assert runs() == 0
    got = {(r["g"], r["s"]): (r["n"], r["sv"]) for r in out.take_all()}
    assert got == _naive(tab)
    assert runs() == 1


def test_bucket_groupby_agg_rejects_float_sum_on_lazy_input(ray_session):
    """Where the plan cannot name its column types without executing,
    the float-sum check runs on the batches instead of at plan time (the
    ValueError then reaches the caller wrapped in Ray's task error)."""
    from deepseek_ocr_ray.stages.agg import bucket_groupby_agg

    lazy = ray.data.from_arrow(
        pa.table({"g": pa.array([1, 1], pa.int64()), "x": pa.array([1, 3], pa.int64())})
    ).map_batches(
        lambda b: b.set_column(1, "x", pa.compute.divide(b["x"].cast(pa.float64()), 2.0)),
        batch_format="pyarrow",
    )
    out = bucket_groupby_agg(lazy, ["g"], [("x", "mean", "mx")])
    with pytest.raises(Exception, match="block-order-dependent"):
        out.take_all()


def _quantile_naive(pairs, q):
    """DuckDB quantile_disc: the smallest value whose CDF reaches q —
    sorted index ceil(q·n) − 1, clamped to 0 (probed against DuckDB
    across (q, n) grids; floor(q·(n−1)) agrees at many (q, n) but
    diverges at e.g. q=0.75, n=10)."""
    import math

    by_key = {}
    for k, v in pairs:
        by_key.setdefault(k, []).append(v)
    out = {}
    for k, vs in by_key.items():
        vs.sort()
        out[k] = vs[max(math.ceil(q * len(vs)) - 1, 0)]
    return out


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_group_quantile_disc_matches_duckdb_convention(ray_session, q):
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_quantile_disc

    rng = np.random.RandomState(17)
    n = 4000
    tab = pa.table(
        {
            "k": pa.array([f"g{v}" for v in rng.randint(0, 9, n)], pa.string()),
            "v": pa.array(rng.randint(0, 40, n).tolist(), pa.int64()),
        }
    )
    got = {
        r["k"]: r["quantile"]
        for r in group_quantile_disc(
            ray.data.from_arrow(tab).repartition(6), ["k"], "v", q
        ).take_all()
    }
    want = {
        k: t
        for k, t in duckdb.connect()
        .execute(
            "SELECT k, quantile_disc(v, ?) FROM tab GROUP BY 1", [q]
        )
        .fetchall()
    }
    assert got == want


def test_group_quantile_disc_multikey_and_invariance(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_quantile_disc

    rng = np.random.RandomState(5)
    n = 3000
    tab = pa.table(
        {
            "a": pa.array(rng.randint(0, 5, n).tolist(), pa.int64()),
            "b": pa.array([f"s{v}" for v in rng.randint(0, 4, n)], pa.string()),
            "v": pa.array(rng.randint(-30, 30, n).tolist(), pa.int64()),
        }
    )
    pairs = [
        ((tab["a"][i].as_py(), tab["b"][i].as_py()), tab["v"][i].as_py())
        for i in range(n)
    ]
    want = _quantile_naive(pairs, 0.75)
    outs = []
    for parts in (1, 8):
        rows = group_quantile_disc(
            ray.data.from_arrow(tab).repartition(parts),
            ["a", "b"],
            "v",
            0.75,
        ).take_all()
        outs.append({(r["a"], r["b"]): r["quantile"] for r in rows})
    assert outs[0] == want
    assert outs[1] == want


def test_group_quantile_disc_validation(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_quantile_disc

    tab = pa.table({"k": [1], "v": [1]})
    with pytest.raises(ValueError, match="q must be"):
        group_quantile_disc(ray.data.from_arrow(tab), ["k"], "v", 1.5)


def test_latest_by_key_vs_naive(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import latest_by_key

    rng = np.random.RandomState(31)
    n = 3000
    tab = pa.table(
        {
            "k": pa.array(rng.randint(0, 200, n).tolist(), pa.int64()),
            "t": pa.array(rng.randint(0, 50, n).tolist(), pa.int64()),
            "id": pa.array(rng.permutation(n).tolist(), pa.int64()),
            "payload": pa.array(
                [f"p{v}" for v in rng.randint(0, 9, n)], pa.string()
            ),
        }
    )
    want = {}
    for i in range(n):
        k = tab["k"][i].as_py()
        row = (tab["t"][i].as_py(), tab["id"][i].as_py(), tab["payload"][i].as_py())
        if k not in want or row[:2] > want[k][:2]:
            want[k] = row
    for parts in (1, 8):
        got = {
            r["k"]: (r["t"], r["id"], r["payload"])
            for r in latest_by_key(
                ray.data.from_arrow(tab).repartition(parts),
                ["k"],
                order_col="t",
                tiebreak_col="id",
            ).take_all()
        }
        assert got == want


def test_rollup_sum_vs_duckdb(ray_session):
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.agg import rollup_sum

    rng = np.random.RandomState(44)
    n = 3000
    tab = pa.table(
        {
            "a": pa.array([f"a{v}" for v in rng.randint(0, 4, n)], pa.string()),
            "b": pa.array([f"b{v}" for v in rng.randint(0, 6, n)], pa.string()),
            "v": pa.array(rng.randint(-20, 80, n).tolist(), pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", tab)
    want = {
        (r["a"], r["b"]): (r["sv"], r["n"])
        for r in con.execute(
            "SELECT a, b, CAST(sum(v) AS BIGINT) AS sv, "
            "CAST(count(*) AS BIGINT) AS n FROM t GROUP BY ROLLUP (a, b)"
        ).arrow().to_pylist()
    }
    got_rows = rollup_sum(
        ray.data.from_arrow(tab).repartition(5), ["a", "b"], ["v"]
    ).take_all()
    got = {(r["a"], r["b"]): (r["v"], r["n"]) for r in got_rows}
    assert got == want
    assert (None, None) in got  # grand total present


@pytest.mark.parametrize("q", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
def test_group_quantile_cont_bitexact_vs_duckdb(ray_session, q):
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_quantile_cont

    rng = np.random.RandomState(23)
    n = 4000
    tab = pa.table(
        {
            "k": pa.array([f"g{v}" for v in rng.randint(0, 9, n)], pa.string()),
            "v": pa.array(rng.randint(0, 40, n).tolist(), pa.int64()),
        }
    )
    got = {
        r["k"]: r["quantile"]
        for r in group_quantile_cont(
            ray.data.from_arrow(tab).repartition(6), ["k"], "v", q
        ).take_all()
    }
    want = {
        k: t
        for k, t in duckdb.connect()
        .execute("SELECT k, quantile_cont(v, ?) FROM tab GROUP BY 1", [q])
        .fetchall()
    }
    assert set(got) == set(want)
    for k in want:  # bit-exact, not approx: same float expression
        assert got[k] == want[k], (k, got[k], want[k])


def test_group_quantile_cont_single_row_group(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_quantile_cont

    tab = pa.table({"k": pa.array(["a"]), "v": pa.array([7], pa.int64())})
    out = group_quantile_cont(
        ray.data.from_arrow(tab), ["k"], "v", 0.5
    ).take_all()
    assert out == [{"k": "a", "quantile": 7.0}]


@pytest.mark.parametrize("nkeys", [2, 3])
def test_cube_sum_vs_duckdb(ray_session, nkeys):
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.agg import cube_sum

    rng = np.random.RandomState(47)
    n = 2500
    cols = {
        "a": pa.array([f"a{v}" for v in rng.randint(0, 3, n)], pa.string()),
        "b": pa.array([f"b{v}" for v in rng.randint(0, 4, n)], pa.string()),
        "c": pa.array(rng.randint(0, 2, n).tolist(), pa.int64()),
        "v": pa.array(rng.randint(-20, 80, n).tolist(), pa.int64()),
    }
    keys = ["a", "b", "c"][:nkeys]
    tab = pa.table({k: cols[k] for k in keys + ["v"]})
    con = duckdb.connect()
    con.register("t", tab)
    want = {
        tuple(r[k] for k in keys): (r["sv"], r["n"])
        for r in con.execute(
            f"SELECT {', '.join(keys)}, CAST(sum(v) AS BIGINT) AS sv, "
            f"CAST(count(*) AS BIGINT) AS n FROM t GROUP BY CUBE ({', '.join(keys)})"
        ).arrow().to_pylist()
    }
    got_rows = cube_sum(
        ray.data.from_arrow(tab).repartition(5), keys, ["v"]
    ).take_all()
    got = {tuple(r[k] for k in keys): (r["v"], r["n"]) for r in got_rows}
    assert got == want
    assert len(got_rows) == len(want)  # no duplicate levels


def test_cube_sum_rejects_too_many_keys(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import cube_sum

    ds = ray.data.from_arrow(pa.table({c: pa.array([1], pa.int64())
                                       for c in "abcdev"}))
    with pytest.raises(ValueError, match="at most 4"):
        cube_sum(ds, ["a", "b", "c", "d", "e"], ["v"])


def test_pivot_sum_vs_duckdb(ray_session):
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.agg import pivot_sum

    rng = np.random.RandomState(59)
    n = 3000
    types = ["a", "b", "c", "zz"]
    tab = pa.table({
        "k": pa.array(rng.randint(0, 50, n).tolist(), pa.int64()),
        "p": pa.array([types[i] for i in rng.randint(0, 4, n)], pa.string()),
        "v": pa.array(rng.randint(0, 100, n).tolist(), pa.int64()),
    })
    con = duckdb.connect()
    con.register("t", tab)
    # counts (value_col=None); 'zz' deliberately NOT in pivot_values
    got = sorted(
        (r["k"], r["n_a"], r["n_b"], r["n_c"])
        for r in pivot_sum(
            ray.data.from_arrow(tab).repartition(5), ["k"], "p", ["a", "b", "c"]
        ).take_all()
    )
    want = sorted(tuple(r) for r in con.execute("""
        SELECT k, CAST(sum(CASE WHEN p='a' THEN 1 ELSE 0 END) AS BIGINT),
               CAST(sum(CASE WHEN p='b' THEN 1 ELSE 0 END) AS BIGINT),
               CAST(sum(CASE WHEN p='c' THEN 1 ELSE 0 END) AS BIGINT)
        FROM t GROUP BY 1
    """).fetchall())
    assert got == want
    # sums over a value column
    got2 = sorted(
        (r["k"], r["n_a"], r["n_b"])
        for r in pivot_sum(
            ray.data.from_arrow(tab).repartition(3), ["k"], "p", ["a", "b"],
            value_col="v",
        ).take_all()
    )
    want2 = sorted(tuple(r) for r in con.execute("""
        SELECT k, CAST(sum(CASE WHEN p='a' THEN v ELSE 0 END) AS BIGINT),
               CAST(sum(CASE WHEN p='b' THEN v ELSE 0 END) AS BIGINT)
        FROM t GROUP BY 1
    """).fetchall())
    assert got2 == want2


def test_melt_roundtrips_pivot(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import melt

    tab = pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "a": pa.array([10, 20], pa.int64()),
        "b": pa.array([30, 40], pa.int64()),
    })
    rows = sorted(
        (r["k"], r["variable"], r["value"])
        for r in melt(
            ray.data.from_arrow(tab).repartition(2), ["k"], ["a", "b"]
        ).take_all()
    )
    assert rows == [(1, "a", 10), (1, "b", 30), (2, "a", 20), (2, "b", 40)]
    with pytest.raises(ValueError, match="share one type"):
        melt(
            ray.data.from_arrow(
                pa.table({"k": pa.array([1], pa.int64()),
                          "a": pa.array([1], pa.int64()),
                          "b": pa.array(["x"])})
            ),
            ["k"], ["a", "b"],
        )


def test_group_count_distinct_vs_duckdb(ray_session):
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_count_distinct

    rng = np.random.RandomState(73)
    n = 4000
    tab = pa.table({
        "g": pa.array([f"g{v}" for v in rng.randint(0, 6, n)], pa.string()),
        "x": pa.array(rng.randint(0, 200, n).tolist(), pa.int64()),
        "y": pa.array([f"s{v}" for v in rng.randint(0, 37, n)], pa.string()),
    })
    got = sorted(
        (r["g"], r["column"], r["n_distinct"])
        for r in group_count_distinct(
            ray.data.from_arrow(tab).repartition(6), ["g"], ["x", "y"]
        ).take_all()
    )
    con = duckdb.connect()
    con.register("t", tab)
    want = sorted(tuple(r) for r in con.execute("""
        SELECT g, 'x', CAST(count(DISTINCT x) AS BIGINT) FROM t GROUP BY 1
        UNION ALL
        SELECT g, 'y', CAST(count(DISTINCT y) AS BIGINT) FROM t GROUP BY 1
    """).fetchall())
    assert got == want


def test_group_count_distinct_ignores_nulls(ray_session):
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_count_distinct

    tab = pa.table({
        "g": pa.array(["a", "a", "a", "b"], pa.string()),
        "x": pa.array([1, None, 1, None], pa.int64()),
    })
    got = sorted(
        (r["g"], r["n_distinct"])
        for r in group_count_distinct(
            ray.data.from_arrow(tab).repartition(2), ["g"], ["x"]
        ).take_all()
    )
    # SQL count(DISTINCT x): nulls excluded; a group of only-nulls may
    # vanish entirely (no pairs) — DuckDB keeps it with 0 via GROUP BY,
    # but the engine's pair stream has nothing to carry: assert the
    # non-null groups match SQL and the all-null group is absent
    assert got == [("a", 1)]
    con = duckdb.connect(); con.register("t", tab)
    want = {g: n for g, n in con.execute(
        "SELECT g, CAST(count(DISTINCT x) AS BIGINT) FROM t GROUP BY 1"
    ).fetchall()}
    assert want == {"a": 1, "b": 0}  # documents the divergence boundary


@pytest.mark.parametrize("q", [0.05, 0.25, 0.5, 0.75, 0.9, 0.95])
def test_group_quantile_disc_vs_duckdb_direct(ray_session, q):
    """Differential against DuckDB ITSELF (not a re-derivation of its
    rule) over group sizes chosen to split the floor(q(n-1)) and
    ceil(qn)-1 conventions."""
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_quantile_disc

    rng = np.random.RandomState(11)
    rows_a, rows_v = [], []
    for g, size in enumerate([3, 4, 5, 10, 21, 210]):
        rows_a += [g] * size
        rows_v += rng.randint(-1000, 1000, size).tolist()
    tab = pa.table(
        {
            "a": pa.array(rows_a, pa.int64()),
            "v": pa.array(rows_v, pa.int64()),
        }
    )
    got = {
        r["a"]: r["quantile"]
        for r in group_quantile_disc(
            ray.data.from_arrow(tab).repartition(4), ["a"], "v", q
        ).take_all()
    }
    con = duckdb.connect()
    con.register("t", tab)
    want = dict(
        con.execute(
            f"SELECT a, quantile_disc(v, {q}) FROM t GROUP BY 1"
        ).fetchall()
    )
    assert got == want


# ---------------------------------------------------------------------------
# group_equidepth (ntile histogram)
# ---------------------------------------------------------------------------


def _brute_equidepth(groups, values, n_tiles):
    """Reference ntile histogram: DuckDB fill rule (first n%B tiles take
    ceil(n/B) rows) over values sorted per group."""
    out = {}
    bygroup = {}
    for g, v in zip(groups, values):
        bygroup.setdefault(g, []).append(v)
    for g, vs in bygroup.items():
        vs = sorted(vs)
        n = len(vs)
        base, extra = divmod(n, n_tiles)
        pos = 0
        for tile in range(1, min(n, n_tiles) + 1):
            size = base + (1 if tile <= extra else 0)
            if size == 0:
                continue
            out[(g, tile)] = (size, vs[pos], vs[pos + size - 1])
            pos += size
    return out


@pytest.mark.parametrize("n_tiles", [1, 3, 8, 40])
def test_group_equidepth_vs_brute(ray_session, n_tiles):
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_equidepth

    rng = np.random.RandomState(11)
    n = 3000
    # tie-heavy values and groups of very different sizes (one group has
    # 4 rows so n_tiles=8/40 exercises the n < B branch)
    groups = np.r_[rng.randint(0, 9, n - 4), [99, 99, 99, 99]]
    values = np.r_[rng.randint(0, 25, n - 4), [7, 7, 3, 3]]
    tab = pa.table(
        {
            "g": pa.array(groups.tolist(), pa.int64()),
            "v": pa.array(values.tolist(), pa.int64()),
        }
    )
    got = (
        group_equidepth(
            ray.data.from_arrow(tab).repartition(7), ["g"], "v", n_tiles
        )
        .to_pandas()
        .set_index(["g", "tile"])
        .sort_index()
    )
    want = _brute_equidepth(groups.tolist(), values.tolist(), n_tiles)
    assert len(got) == len(want)
    for (g, tile), (size, lo, hi) in want.items():
        row = got.loc[(g, tile)]
        assert (row.n_rows, row.min_value, row.max_value) == (size, lo, hi)


def test_group_equidepth_matches_duckdb_ntile(ray_session):
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_equidepth

    rng = np.random.RandomState(5)
    n = 4000
    tab = pa.table(
        {
            "g": pa.array(rng.randint(0, 13, n).tolist(), pa.int64()),
            "v": pa.array(rng.randint(-40, 40, n).tolist(), pa.int64()),
        }
    )
    got = (
        group_equidepth(
            ray.data.from_arrow(tab).repartition(9), ["g"], "v", 8
        )
        .to_pandas()
        .sort_values(["g", "tile"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", tab)
    want = con.execute(
        """
        WITH x AS (
          SELECT g, v, ntile(8) OVER (PARTITION BY g ORDER BY v) AS tile
          FROM t
        )
        SELECT g, CAST(tile AS BIGINT) AS tile,
               CAST(count(*) AS BIGINT) AS n_rows,
               min(v) AS min_value, max(v) AS max_value
        FROM x GROUP BY 1, 2 ORDER BY 1, 2
        """
    ).fetch_df()
    import pandas as pd

    pd.testing.assert_frame_equal(got, want)


def test_group_equidepth_validation(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_equidepth

    with pytest.raises(ValueError):
        group_equidepth(
            ray.data.from_arrow(pa.table({"g": [1], "v": [1]})),
            ["g"],
            "v",
            0,
        )


def test_group_median_mad_hand_fixture(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_median_mad

    # group a (odd n=5): values 1,3,3,7,20 -> median 3 (rank ceil(2.5)-1=2)
    #   deviations |v-3| = 2,0,0,4,17 sorted 0,0,2,4,17 -> MAD 2
    # group b (even n=4): values 1,2,8,9 -> median rank ceil(2)-1=1 -> 2
    #   deviations 1,0,6,7 sorted 0,1,6,7 -> MAD 1
    # group c (n=1): median 5, MAD 0
    t = pa.table(
        {
            "g": ["a"] * 5 + ["b"] * 4 + ["c"],
            "v": pa.array(
                [1, 3, 3, 7, 20, 1, 2, 8, 9, 5], pa.int64()
            ),
        }
    )
    out = (
        group_median_mad(ray.data.from_arrow(t), ["g"], "v")
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert out.values.tolist() == [
        ["a", 5, 3, 2],
        ["b", 4, 2, 1],
        ["c", 1, 5, 0],
    ]


@pytest.mark.parametrize("seed", [3, 11])
def test_group_median_mad_vs_duckdb_and_invariance(ray_session, seed):
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_median_mad

    rng = np.random.RandomState(seed)
    n = int(rng.randint(200, 600))
    t = pa.table(
        {
            "g": pa.array(
                rng.choice(["x", "y", "z", "w"], n).tolist(), pa.string()
            ),
            "v": pa.array(
                rng.randint(-50, 51, n, dtype=np.int64), pa.int64()
            ),
        }
    )
    con = duckdb.connect()
    con.register("t", t)
    want = con.sql(
        """
WITH m AS (SELECT g, quantile_disc(v, 0.5) AS med FROM t GROUP BY 1)
SELECT t.g, CAST(count(*) AS BIGINT) AS n,
       CAST(any_value(m.med) AS BIGINT) AS median,
       CAST(quantile_disc(abs(t.v - m.med), 0.5) AS BIGINT) AS mad
FROM t JOIN m USING (g) GROUP BY 1 ORDER BY 1
"""
    ).df()
    results = []
    for blocks in (1, 7):
        ds = ray.data.from_arrow(t).repartition(blocks)
        got = (
            group_median_mad(ds, ["g"], "v")
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        results.append(got)
    assert results[0].equals(results[1])
    assert results[0].equals(want)


def test_group_winsorized_hand_fixture(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_winsorized

    # group a: values 0..9 (n=10); q=0.05 -> rank ceil(0.5)-1=0 -> lo=0,
    # q=0.95 -> rank ceil(9.5)-1=9 -> hi=9: no clamping, s=45.
    # group b: 1,1,1,1,100 (n=5); lo rank 0 -> 1, hi rank ceil(4.75)-1=4
    # -> 100: s=104.  With q_hi=0.75: rank ceil(3.75)-1=3 -> hi=1, s=5.
    t = pa.table(
        {
            "g": ["a"] * 10 + ["b"] * 5,
            "v": pa.array(list(range(10)) + [1, 1, 1, 1, 100], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t)
    out = (
        group_winsorized(ds, ["g"], "v", 0.05, 0.95)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert out.values.tolist() == [
        ["a", 0, 9, 10, 45, 4.5],
        ["b", 1, 100, 5, 104, 20.8],
    ]
    tight = (
        group_winsorized(ds, ["g"], "v", 0.05, 0.75)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert tight.values.tolist()[1] == ["b", 1, 1, 5, 5, 1.0]


@pytest.mark.parametrize("seed", [5, 17])
def test_group_winsorized_vs_duckdb_and_invariance(ray_session, seed):
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_winsorized

    rng = np.random.RandomState(seed)
    n = int(rng.randint(200, 600))
    t = pa.table(
        {
            "g": pa.array(
                rng.choice(["x", "y", "z"], n).tolist(), pa.string()
            ),
            "v": pa.array(
                rng.randint(-1000, 1001, n, dtype=np.int64), pa.int64()
            ),
        }
    )
    con = duckdb.connect()
    con.register("t", t)
    want = con.sql(
        """
WITH b AS (
  SELECT g, quantile_disc(v, 0.05) AS lo, quantile_disc(v, 0.95) AS hi
  FROM t GROUP BY 1
),
w AS (
  SELECT t.g, least(greatest(t.v, b.lo), b.hi) AS cc
  FROM t JOIN b USING (g)
)
SELECT w.g, CAST(any_value(b.lo) AS BIGINT) AS lo,
       CAST(any_value(b.hi) AS BIGINT) AS hi,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(cc) AS BIGINT) AS s,
       CAST(sum(cc) AS DOUBLE) / count(*) AS mean
FROM w JOIN b USING (g) GROUP BY 1 ORDER BY 1
"""
    ).df()
    results = []
    for blocks in (1, 9):
        ds = ray.data.from_arrow(t).repartition(blocks)
        got = (
            group_winsorized(ds, ["g"], "v", 0.05, 0.95)
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        results.append(got)
    assert results[0].equals(results[1])
    assert results[0].equals(want)


def test_group_winsorized_validation(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_winsorized

    with pytest.raises(ValueError):
        group_winsorized(
            ray.data.from_arrow(pa.table({"g": [1], "v": [1]})),
            ["g"],
            "v",
            0.9,
            0.1,
        )


@pytest.mark.parametrize("kernel", ["cube", "rollup"])
def test_lattice_driver_vs_distributed_plan_equality(
    ray_session, kernel, monkeypatch
):
    import pandas as pd
    import ray.data

    from deepseek_ocr_ray.stages import agg
    from deepseek_ocr_ray.stages.agg import cube_sum, rollup_sum

    rng = np.random.RandomState(23)
    n = 300
    t = pa.table(
        {
            "a": pa.array(rng.choice(["p", "q", "r"], n).tolist()),
            "b": pa.array(rng.randint(0, 4, n, dtype=np.int64), pa.int64()),
            "v": pa.array(rng.randint(-9, 10, n, dtype=np.int64), pa.int64()),
        }
    )
    fn = cube_sum if kernel == "cube" else rollup_sum
    outs = []
    for driver in (True, False):
        monkeypatch.setattr(agg, "_lattice_use_driver", lambda _b, d=driver: d)
        ds = ray.data.from_arrow(t).repartition(5)
        df = (
            fn(ds, ["a", "b"], ["v"])
            .to_pandas()
            .sort_values(["a", "b", "v", "n"], na_position="first")
            .reset_index(drop=True)
        )
        outs.append(df)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    # grand-total row present exactly once in both
    both_null = outs[0][outs[0]["a"].isna() & outs[0]["b"].isna()]
    assert len(both_null) == 1


@pytest.mark.parametrize("seed", [4, 19])
def test_group_quantiles_disc_multi_vs_duckdb(ray_session, seed):
    import duckdb
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_quantiles_disc

    rng = np.random.RandomState(seed)
    n = int(rng.randint(150, 500))
    t = pa.table(
        {
            "g": pa.array(rng.choice(["a", "b", "c"], n).tolist()),
            "v": pa.array(rng.randint(0, 80, n, dtype=np.int64), pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", t)
    want = con.sql(
        """
SELECT g, CAST(count(*) AS BIGINT) AS n,
       quantile_disc(v, 0.25) AS q25,
       quantile_disc(v, 0.50) AS q50,
       quantile_disc(v, 0.95) AS q95
FROM t GROUP BY 1 ORDER BY 1
"""
    ).df()
    results = []
    for blocks in (1, 6):
        got = (
            group_quantiles_disc(
                ray.data.from_arrow(t).repartition(blocks),
                ["g"],
                "v",
                [0.25, 0.50, 0.95],
                ["q25", "q50", "q95"],
                count_col="n",
            )
            .to_pandas()
            .sort_values("g")
            .reset_index(drop=True)
        )
        results.append(got)
    assert results[0].equals(results[1])
    assert results[0].equals(want)


def test_group_quantiles_disc_validation(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.agg import group_quantiles_disc

    ds = ray.data.from_arrow(pa.table({"g": [1], "v": [1]}))
    with pytest.raises(ValueError):
        group_quantiles_disc(ds, ["g"], "v", [0.5], ["a", "b"])
    with pytest.raises(ValueError):
        group_quantiles_disc(ds, ["g"], "v", [1.5], ["a"])


# ---------------------------------------------------------------- zscore


def _zs_duck(df, thr=None):
    import duckdb

    con = duckdb.connect()
    con.register("t", df)
    sql = """
WITH m AS (
  SELECT g, CAST(COUNT(*) AS BIGINT) AS n, SUM(v) AS s, SUM(v*v) AS q
  FROM t GROUP BY 1
),
st AS (
  SELECT g, CAST(s AS DOUBLE)/CAST(n AS DOUBLE) AS mu,
         SQRT(CAST(n*q - s*s AS DOUBLE))/CAST(n AS DOUBLE) AS sd
  FROM m WHERE n*q - s*s > 0
)
SELECT id, t.g, v, (CAST(v AS DOUBLE) - mu)/sd AS z
FROM t JOIN st USING (g)
"""
    if thr is not None:
        sql += f" WHERE ABS((CAST(v AS DOUBLE) - mu)/sd) > {thr}"
    return con.sql(sql + " ORDER BY id").df()


def _zs_frame(seed, n=500, ngroups=6):
    rng = np.random.default_rng(seed)
    import pandas as pd

    return pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "g": rng.integers(0, ngroups, n).astype(str),
            "v": rng.integers(-1000, 5000, n).astype(np.int64),
        }
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_group_standardize_differential(ray_session, seed):
    from deepseek_ocr_ray.stages.agg import group_standardize

    df = _zs_frame(seed)
    ds = ray.data.from_pandas(df).repartition(5)
    got = (
        group_standardize(ds, ["g"], "v")
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    want = _zs_duck(df)
    assert got["id"].tolist() == want["id"].tolist()
    # bit-exact float parity (the driver hash gate compares raw values)
    assert got["z"].tolist() == want["z"].tolist()


def test_group_standardize_threshold(ray_session):
    from deepseek_ocr_ray.stages.agg import group_standardize

    df = _zs_frame(7, n=800)
    ds = ray.data.from_pandas(df).repartition(4)
    got = (
        group_standardize(ds, ["g"], "v", min_abs_z=1.5)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    want = _zs_duck(df, thr=1.5)
    assert got["id"].tolist() == want["id"].tolist()
    assert got["z"].tolist() == want["z"].tolist()


def test_group_standardize_degenerate_groups(ray_session):
    """n=1 and zero-variance groups: NULL z without a threshold, dropped
    with one."""
    from deepseek_ocr_ray.stages.agg import group_standardize

    import pandas as pd

    df = pd.DataFrame(
        {
            "id": np.arange(6, dtype=np.int64),
            "g": ["a", "a", "a", "const", "const", "solo"],
            "v": np.array([0, 10, 20, 5, 5, 9], np.int64),
        }
    )
    ds = ray.data.from_pandas(df)
    got = (
        group_standardize(ds, ["g"], "v")
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert got["z"].isna().tolist() == [False, False, False, True, True, True]
    thr = group_standardize(ds, ["g"], "v", min_abs_z=0.5).to_pandas()
    assert set(thr["g"]) == {"a"}


def test_group_standardize_layout_invariance(ray_session):
    from deepseek_ocr_ray.stages.agg import group_standardize

    df = _zs_frame(3)
    ref = None
    for nblocks in (1, 3, 9):
        ds = ray.data.from_pandas(df).repartition(nblocks)
        got = (
            group_standardize(ds, ["g"], "v")
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        vals = got["z"].tolist()
        if ref is None:
            ref = vals
        else:
            assert vals == ref


def test_group_standardize_validation(ray_session):
    from deepseek_ocr_ray.stages.agg import group_standardize

    import pandas as pd

    df = pd.DataFrame({"g": ["a"], "v": [1.5]})
    with pytest.raises(ValueError, match="must be integer"):
        group_standardize(ray.data.from_pandas(df), ["g"], "v")
    df2 = pd.DataFrame({"g": ["a"], "v": np.array([1], np.int64)})
    with pytest.raises(ValueError, match="not in the input"):
        group_standardize(ray.data.from_pandas(df2), ["nope"], "v")
    big = pd.DataFrame(
        {"g": ["a", "a"], "v": np.array([2**32, 5], np.int64)}
    )
    with pytest.raises(Exception, match="horizon"):
        group_standardize(
            ray.data.from_pandas(big), ["g"], "v"
        ).materialize()


# ---------------------------------------------------------------- mode


def test_group_mode_fixture(ray_session):
    from deepseek_ocr_ray.stages.agg import group_mode

    tbl = pa.table(
        {
            "g": pa.array(["a"] * 5 + ["b"] * 3 + ["c"], pa.string()),
            # a: x×2, y×2 (tie -> smaller "x"), z×1; b: nulls ignored,
            # w wins; c: single null-only group -> no output row
            "v": pa.array(
                ["y", "x", "z", "x", "y", "w", None, "w", None], pa.string()
            ),
        }
    )
    got = (
        group_mode(ray.data.from_arrow(tbl).repartition(3), ["g"], "v")
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert got["g"].tolist() == ["a", "b"]
    assert got["mode"].tolist() == ["x", "w"]
    assert got["mode_n"].tolist() == [2, 2]


@pytest.mark.parametrize("seed", [0, 1])
def test_group_mode_differential(ray_session, seed):
    import duckdb
    import pandas as pd

    from deepseek_ocr_ray.stages.agg import group_mode

    rng = np.random.RandomState(seed)
    n = 800
    df = pd.DataFrame(
        {
            "g": rng.randint(0, 40, n).astype(np.int64),
            "v": rng.randint(0, 6, n).astype(np.int64),
        }
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        """
SELECT g, v AS mode, n FROM (
  SELECT g, v, CAST(COUNT(*) AS BIGINT) AS n,
         ROW_NUMBER() OVER (PARTITION BY g ORDER BY COUNT(*) DESC, v ASC) rn
  FROM t GROUP BY g, v) WHERE rn = 1 ORDER BY g
"""
    ).df()
    got = (
        group_mode(
            ray.data.from_pandas(df).repartition(5), ["g"], "v",
            count_out="n",
        )
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert got["g"].tolist() == want["g"].tolist()
    assert got["mode"].tolist() == want["mode"].tolist()
    assert got["n"].tolist() == want["n"].tolist()


# -------------------------------------------------------------- concat


def test_group_concat_fixture(ray_session):
    from deepseek_ocr_ray.stages.agg import group_concat

    tbl = pa.table(
        {
            "g": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
            "v": pa.array(["b", "a", "b", "x", None, None], pa.string()),
        }
    )
    got = (
        group_concat(ray.data.from_arrow(tbl).repartition(3), ["g"], "v")
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert got["g"].tolist() == [1, 2, 3]
    assert got["concat"].tolist() == ["a,b,b", "x", ""]


@pytest.mark.parametrize("seed", [0, 1])
def test_group_concat_differential(ray_session, seed):
    import duckdb
    import pandas as pd

    from deepseek_ocr_ray.stages.agg import group_concat

    rng = np.random.RandomState(seed)
    n = 600
    df = pd.DataFrame(
        {
            "g": rng.randint(0, 30, n).astype(np.int64),
            "v": np.where(
                rng.rand(n) < 0.1, None, rng.randint(0, 8, n).astype(str)
            ),
        }
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        "SELECT g, COALESCE(string_agg(v, ',' ORDER BY v), '') AS c "
        "FROM t GROUP BY g ORDER BY g"
    ).df()
    tbl = pa.table(
        {
            "g": pa.array(df["g"], pa.int64()),
            "v": pa.array(df["v"].tolist(), pa.string()),
        }
    )
    got = (
        group_concat(
            ray.data.from_arrow(tbl).repartition(5), ["g"], "v", out_col="c"
        )
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    assert got["g"].tolist() == want["g"].tolist()
    assert got["c"].tolist() == want["c"].tolist()


def test_group_concat_validation(ray_session):
    from deepseek_ocr_ray.stages.agg import group_concat

    tbl = pa.table(
        {"g": pa.array([1], pa.int64()), "v": pa.array([2], pa.int64())}
    )
    with pytest.raises(ValueError, match="must be string"):
        group_concat(ray.data.from_arrow(tbl), ["g"], "v")


# ------------------------------------------------------- grouping sets


@pytest.mark.parametrize("finish", ["driver", "distributed"])
def test_grouping_sets_differential(ray_session, finish, monkeypatch):
    import duckdb
    import pandas as pd

    from deepseek_ocr_ray.stages import agg
    from deepseek_ocr_ray.stages.agg import grouping_sets_sum

    monkeypatch.setattr(
        agg, "_lattice_use_driver", lambda _base: finish == "driver"
    )

    rng = np.random.RandomState(2)
    n = 700
    df = pd.DataFrame(
        {
            "a": rng.randint(0, 4, n).astype(str),
            "b": rng.randint(0, 3, n).astype(str),
            "v": rng.randint(-20, 50, n).astype(np.int64),
        }
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        """
SELECT a, b, CAST(SUM(v) AS BIGINT) AS v, CAST(COUNT(*) AS BIGINT) AS n
FROM t GROUP BY GROUPING SETS ((a, b), (b), ())
ORDER BY a NULLS FIRST, b NULLS FIRST
"""
    ).df()
    got = (
        grouping_sets_sum(
            ray.data.from_pandas(df).repartition(4),
            ["a", "b"],
            [("a", "b"), ("b",), ()],
            ["v"],
        )
        .to_pandas()
        .sort_values(["a", "b"], na_position="first")
        .reset_index(drop=True)
    )
    for c in ("a", "b"):
        g = [None if pd.isna(x) else x for x in got[c]]
        w = [None if pd.isna(x) else x for x in want[c]]
        assert g == w, c
    assert got["v"].tolist() == want["v"].tolist()
    assert got["n"].tolist() == want["n"].tolist()


def test_grouping_sets_validation(ray_session):
    from deepseek_ocr_ray.stages.agg import grouping_sets_sum

    tbl = pa.table(
        {
            "a": pa.array(["x"], pa.string()),
            "v": pa.array([1], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(ValueError, match="at least one grouping set"):
        grouping_sets_sum(ds, ["a"], [], ["v"])
    with pytest.raises(ValueError, match="not in keys"):
        grouping_sets_sum(ds, ["a"], [("z",)], ["v"])
    with pytest.raises(ValueError, match="duplicate grouping set"):
        grouping_sets_sum(ds, ["a"], [("a",), ("a",)], ["v"])
    with pytest.raises(ValueError, match="duplicate column"):
        grouping_sets_sum(ds, ["a"], [("a", "a")], ["v"])


# ---------------------------------------------------------------------------
# association rules (basket_rules is driven through the sf-dir query; the
# engineered semantics live here against a hand-built basket set)


def test_basket_rules_engineered(ray_session, tmp_path):
    """Hand-built baskets: {A,B},{A,B},{A,C},{B} — check both directed
    rules' support/confidence/lift ppm against hand arithmetic."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from deepseek_ocr_ray.pipelines.analytics import basket_rules

    d = str(tmp_path / "sf")
    os.makedirs(d)
    orders = [1, 1, 2, 2, 3, 3, 4, 1]  # order 1 lists part A twice (dup)
    parts = [100, 200, 100, 200, 100, 300, 200, 100]
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array(orders, pa.int64()),
                "l_partkey": pa.array(parts, pa.int64()),
            }
        ),
        os.path.join(d, "lineitem.parquet"),
    )
    rows = basket_rules(d, k=1).to_pylist()
    # top pair is (100, 200) in 2 baskets of 4; n_100 = 3 baskets, n_200 = 3
    assert len(rows) == 2
    ab = next(r for r in rows if r["antecedent"] == 100)
    ba = next(r for r in rows if r["antecedent"] == 200)
    assert ab["n_pair"] == ba["n_pair"] == 2
    assert ab["n_ant"] == 3 and ba["n_ant"] == 3
    want_support = int(np.floor(2 / 4 * 1e6 + 0.5))
    want_conf = int(np.floor(2 / 3 * 1e6 + 0.5))
    want_lift = int(np.floor(2 * 4 / (3 * 3) * 1e6 + 0.5))
    for r in (ab, ba):
        assert r["support_ppm"] == want_support
        assert r["confidence_ppm"] == want_conf
        assert r["lift_ppm"] == want_lift
