"""cluster.py helpers: the equi_join planner, composite/salted joins and
exchange sizing."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from deepseek_ocr_ray import cluster


# ---------------------------------------------------------------------------
# equi_join planner
# ---------------------------------------------------------------------------


def _planner_inputs():
    import ray.data

    rng = np.random.RandomState(9)
    left = pa.table(
        {
            "k": pa.array(rng.randint(0, 25, 90).tolist(), pa.int64()),
            "lv": pa.array(range(90), pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array(rng.randint(0, 35, 30).tolist(), pa.int64()),
            "rv": pa.array(range(500, 530), pa.int64()),
        }
    )
    return (
        left,
        right,
        ray.data.from_arrow(left).repartition(4),
        ray.data.from_arrow(right).repartition(3),
    )


def _naive(lrows, rrows, how):
    out = []
    for l in lrows:
        matches = [r for r in rrows if r["rk"] == l["k"]]
        if how == "inner":
            out += [(l["lv"], r["rv"]) for r in matches]
        elif how == "left_outer":
            out += (
                [(l["lv"], r["rv"]) for r in matches]
                if matches
                else [(l["lv"], None)]
            )
        elif how == "left_semi" and matches:
            out.append((l["lv"],))
        elif how == "left_anti" and not matches:
            out.append((l["lv"],))
    return sorted(out)


def _assert_rows(got, want, how):
    if how in ("left_semi", "left_anti"):
        assert list(got.columns) == ["k", "lv"]
        assert sorted((v,) for v in got.lv.tolist()) == want
    else:
        assert list(got.columns) == ["k", "lv", "rv"]
        gset = sorted(
            (int(t.lv), None if t.rv != t.rv else int(t.rv))
            for t in got.itertuples()
        )
        assert gset == want


@pytest.fixture
def bucket_calls(monkeypatch):
    """Records every bucket_join call the planner makes."""
    from deepseek_ocr_ray.stages import joins

    calls = []
    real = joins.bucket_join

    def spy(*a, **kw):
        calls.append(kw["how"])
        return real(*a, **kw)

    monkeypatch.setattr(joins, "bucket_join", spy)
    return calls


@pytest.mark.parametrize("how", ["inner", "left_outer", "left_semi", "left_anti"])
@pytest.mark.parametrize("plan", ["broadcast", "oversized", "bucket"])
def test_equi_join_planner_choice_vs_naive(
    ray_session, monkeypatch, bucket_calls, how, plan
):
    """Below the cap the default plan broadcasts; with the cap at 0 the
    same call falls back to the keyed exchange; ``strategy='bucket'``
    always exchanges.  Every plan returns the naive join's rows."""
    if plan == "oversized":
        monkeypatch.setattr(cluster, "BROADCAST_MAX_BYTES", 0)
    ltab, rtab, l, r = _planner_inputs()
    got = cluster.equi_join(
        l, r, on="k", right_on="rk", join_type=how,
        left_cols=["k", "lv"],
        right_cols=["rv"] if how in ("inner", "left_outer") else None,
        strategy="bucket" if plan == "bucket" else None, n_buckets=8,
    ).to_pandas()
    assert bucket_calls == ([] if plan == "broadcast" else [how])
    _assert_rows(got, _naive(ltab.to_pylist(), rtab.to_pylist(), how), how)


@pytest.mark.parametrize("how", ["inner", "left_outer", "left_semi", "left_anti"])
def test_equi_join_lazy_all_empty_right(ray_session, how):
    """A computed right side whose every block is empty has no derivable
    schema; with ``right_types`` the default plan joins it directly (this
    input once lost Ray's hash-join schema broadcast)."""
    ltab, rtab, l, _r = _planner_inputs()
    import ray.data

    empty_right = ray.data.from_arrow(rtab).repartition(3).map_batches(
        lambda b: b.slice(0, 0), batch_format="pyarrow"
    )
    got = cluster.equi_join(
        l, empty_right, on="k", right_on="rk", join_type=how,
        left_cols=["k", "lv"],
        right_cols=["rv"] if how in ("inner", "left_outer") else None,
        right_types={"rk": pa.int64(), "rv": pa.int64()},
    ).to_pandas()
    want = _naive(ltab.to_pylist(), [], how)
    if not want:
        assert len(got) == 0
    else:
        _assert_rows(got, want, how)


@pytest.mark.parametrize("plan", ["broadcast", "oversized"])
def test_equi_join_executes_right_input_once(
    ray_session, monkeypatch, run_marker, plan
):
    """The default plan materializes the right input once and reads its
    schema from the materialized blocks — no limit-1 schema probe, no
    second execution, whichever plan it then picks."""
    import ray.data

    if plan == "oversized":
        monkeypatch.setattr(cluster, "BROADCAST_MAX_BYTES", 0)
    touch, runs = run_marker

    ltab, rtab, l, _r = _planner_inputs()
    right = ray.data.from_arrow(rtab).map_batches(
        touch, batch_format="pyarrow"
    )  # one block -> one task per plan execution
    got = cluster.equi_join(
        l, right, on="k", right_on="rk", join_type="inner",
        left_cols=["k", "lv"], right_cols=["rv"], n_buckets=8,
    ).to_pandas()
    want = _naive(ltab.to_pylist(), rtab.to_pylist(), "inner")
    _assert_rows(got, want, "inner")
    assert runs() == 1


def test_equi_join_string_keys(ray_session):
    import ray.data

    l = ray.data.from_arrow(
        pa.table(
            {
                "name": pa.array(["a", "b", "c", "a"], pa.string()),
                "lv": pa.array([1, 2, 3, 4], pa.int64()),
            }
        )
    )
    r = ray.data.from_arrow(
        pa.table(
            {
                "name": pa.array(["a", "z"], pa.string()),
                "rv": pa.array([10, 20], pa.int64()),
            }
        )
    )
    for strategy in (None, "bucket"):
        got = cluster.equi_join(
            l, r, on="name", join_type="left_outer",
            strategy=strategy, n_buckets=4,
        ).to_pandas()
        got = got.sort_values("lv")
        assert got.lv.tolist() == [1, 2, 3, 4]
        assert [None if v != v else int(v) for v in got.rv] == [10, None, None, 10]


@pytest.mark.parametrize("edge", ["at_cap", "over_cap"])
def test_equi_join_cap_is_inclusive_and_read_at_call_time(
    ray_session, monkeypatch, bucket_calls, edge
):
    """A right side of exactly ``BROADCAST_MAX_BYTES`` still broadcasts;
    one byte over takes the keyed exchange.  The cap is read per call, so
    patching the module constant moves the boundary."""
    ltab, rtab, l, r = _planner_inputs()
    size = r.materialize().size_bytes()
    assert size > 0
    monkeypatch.setattr(
        cluster, "BROADCAST_MAX_BYTES", size if edge == "at_cap" else size - 1
    )
    got = cluster.equi_join(
        l, r, on="k", right_on="rk", join_type="inner",
        left_cols=["k", "lv"], right_cols=["rv"], n_buckets=8,
    ).to_pandas()
    assert bucket_calls == ([] if edge == "at_cap" else ["inner"])
    _assert_rows(got, _naive(ltab.to_pylist(), rtab.to_pylist(), "inner"), "inner")


@pytest.mark.parametrize("strategy", [None, "bucket"])
def test_equi_join_right_execution_at_plan_time(
    ray_session, run_marker, strategy
):
    """The default plan executes the right input once while planning (to
    size it); ``strategy='bucket'`` keeps it lazy until the join output is
    consumed.  Either way it runs exactly once in total."""
    import ray.data

    touch, runs = run_marker

    ltab, rtab, l, _r = _planner_inputs()
    right = ray.data.from_arrow(rtab).map_batches(
        touch, batch_format="pyarrow"
    )  # one block -> one task per plan execution
    joined = cluster.equi_join(
        l, right, on="k", right_on="rk", join_type="inner",
        left_cols=["k", "lv"], right_cols=["rv"], n_buckets=8,
        strategy=strategy,
        left_types={"k": pa.int64(), "lv": pa.int64()},
        right_types={"rk": pa.int64(), "rv": pa.int64()},
    )
    assert runs() == (1 if strategy is None else 0)
    got = joined.to_pandas()
    _assert_rows(got, _naive(ltab.to_pylist(), rtab.to_pylist(), "inner"), "inner")
    assert runs() == 1


@pytest.mark.parametrize("how", ["inner", "left_outer", "left_semi", "left_anti"])
@pytest.mark.parametrize("plan", ["broadcast", "oversized"])
def test_equi_join_null_keys_never_match(ray_session, monkeypatch, how, plan):
    """SQL equality: a null key matches nothing, not even a null key on the
    other side — under both plans the planner can pick."""
    import ray.data

    if plan == "oversized":
        monkeypatch.setattr(cluster, "BROADCAST_MAX_BYTES", 0)
    lrows = [{"k": k, "lv": i} for i, k in enumerate([1, None, 2, None, 3, 1])]
    rrows = [{"rk": k, "rv": 100 + i} for i, k in enumerate([1, None, 3, 4])]
    l = ray.data.from_arrow(
        pa.Table.from_pylist(lrows, pa.schema([("k", pa.int64()), ("lv", pa.int64())]))
    ).repartition(2)
    r = ray.data.from_arrow(
        pa.Table.from_pylist(rrows, pa.schema([("rk", pa.int64()), ("rv", pa.int64())]))
    ).repartition(2)
    got = cluster.equi_join(
        l, r, on="k", right_on="rk", join_type=how,
        left_cols=["k", "lv"],
        right_cols=["rv"] if how in ("inner", "left_outer") else None,
        n_buckets=4,
    ).to_pandas()
    # a None key compares equal to nothing in the naive reference
    rnonnull = [r_ for r_ in rrows if r_["rk"] is not None]
    want = _naive(
        [dict(l_, k=l_["k"] if l_["k"] is not None else object()) for l_ in lrows],
        rnonnull,
        how,
    )
    if not want:
        assert len(got) == 0
    else:
        _assert_rows(got, want, how)


def test_equi_join_broadcast_never_probes_lazy_left(ray_session, run_marker):
    """With ``left_cols`` given, the broadcast plan takes the left column
    types from each batch: planning runs nothing on the lazy left input
    and the join runs its plan exactly once."""
    import ray.data

    touch, runs = run_marker

    ltab, rtab, _l, r = _planner_inputs()
    left = ray.data.from_arrow(ltab).map_batches(touch, batch_format="pyarrow")
    joined = cluster.equi_join(
        left, r, on="k", right_on="rk", join_type="left_outer",
        left_cols=["k", "lv"], right_cols=["rv"],
    )
    assert runs() == 0
    joined = joined.materialize()
    assert runs() == 1
    assert joined.schema().base_schema == pa.schema(
        [("k", pa.int64()), ("lv", pa.int64()), ("rv", pa.int64())]
    )
    want = _naive(ltab.to_pylist(), rtab.to_pylist(), "left_outer")
    _assert_rows(joined.to_pandas(), want, "left_outer")


@pytest.mark.parametrize("strategy", ["hash", "auto", "broadcast"])
def test_equi_join_rejects_removed_strategies(ray_session, strategy):
    """Only the default planner and ``'bucket'`` exist; a stale strategy
    name fails before any plan runs instead of silently picking one."""
    _ltab, _rtab, l, r = _planner_inputs()
    with pytest.raises(AssertionError, match=strategy):
        cluster.equi_join(l, r, on="k", right_on="rk", strategy=strategy)


# --------------------------------------------------------------------------
# equi_join_multi: composite keys through the single-key planner
# --------------------------------------------------------------------------


def _multi_inputs():
    l = pa.table(
        {
            "uid": pa.array([1, 1, 2, 2, 3], pa.int64()),
            "day": pa.array(["a", "b", "a", "b", "a"], pa.string()),
            "lv": pa.array([10, 11, 12, 13, 14], pa.int64()),
        }
    )
    r = pa.table(
        {
            "r_uid": pa.array([1, 2, 2, 4], pa.int64()),
            "r_day": pa.array(["a", "b", "b", "a"], pa.string()),
            "rv": pa.array([100, 200, 201, 400], pa.int64()),
        }
    )
    return l, r


def _naive_multi(l: pa.Table, r: pa.Table):
    out = []
    for i in range(l.num_rows):
        for j in range(r.num_rows):
            if (
                l["uid"][i].as_py() == r["r_uid"][j].as_py()
                and l["day"][i].as_py() == r["r_day"][j].as_py()
            ):
                out.append(
                    (
                        l["uid"][i].as_py(),
                        l["day"][i].as_py(),
                        l["lv"][i].as_py(),
                        r["rv"][j].as_py(),
                    )
                )
    return sorted(out)


def test_equi_join_multi_vs_naive(ray_session):
    import ray.data

    ltab, rtab = _multi_inputs()
    got = cluster.equi_join_multi(
        ray.data.from_arrow(ltab),
        ray.data.from_arrow(rtab),
        on=["uid", "day"],
        right_on=["r_uid", "r_day"],
        left_cols=["lv"],
        right_cols=["rv"],
    ).to_pandas()
    assert list(got.columns) == ["uid", "day", "lv", "rv"]
    rows = sorted(map(tuple, got.itertuples(index=False)))
    assert rows == _naive_multi(ltab, rtab)


def test_equi_join_multi_drops_hash_collisions(ray_session, monkeypatch):
    """With the mixer forced constant EVERY row shares one combined key, so
    the underlying single-key join degenerates to a full cross product — the
    exact-equality verify must cut it back to the true composite-key result.
    This is the 10^12-row collision story exercised at test scale."""
    import ray.data

    monkeypatch.setattr(
        "deepseek_ocr_ray.hashing.mix64", lambda h: np.zeros_like(h)
    )
    ltab, rtab = _multi_inputs()
    got = cluster.equi_join_multi(
        ray.data.from_arrow(ltab),
        ray.data.from_arrow(rtab),
        on=["uid", "day"],
        right_on=["r_uid", "r_day"],
        left_cols=["lv"],
        right_cols=["rv"],
    ).to_pandas()
    rows = sorted(map(tuple, got.itertuples(index=False)))
    assert rows == _naive_multi(ltab, rtab)


def test_equi_join_multi_validation(ray_session):
    import ray.data

    ltab, rtab = _multi_inputs()
    l = ray.data.from_arrow(ltab)
    r = ray.data.from_arrow(rtab)
    with pytest.raises(NotImplementedError, match="inner joins only"):
        cluster.equi_join_multi(
            l, r, on=["uid", "day"], right_on=["r_uid", "r_day"],
            join_type="left_outer",
        )
    with pytest.raises(ValueError, match="equal-length"):
        cluster.equi_join_multi(l, r, on=["uid"], right_on=["r_uid"])
    with pytest.raises(ValueError, match="equal-length"):
        cluster.equi_join_multi(l, r, on=["uid", "day"], right_on=["r_uid"])


def test_equi_join_right_key_in_right_cols_takes_bucket_plan(
    ray_session, bucket_calls
):
    """The local broadcast join coalesces the right key into the left
    one, so a call that lists the right key in ``right_cols`` goes through
    the keyed exchange, which keeps both key columns."""
    ltab, rtab, l, r = _planner_inputs()
    got = cluster.equi_join(
        l, r, on="k", right_on="rk", join_type="inner",
        left_cols=["k", "lv"], right_cols=["rk", "rv"], n_buckets=8,
    ).to_pandas()
    assert bucket_calls == ["inner"]
    assert (got.k == got.rk).all()
    want = _naive(ltab.to_pylist(), rtab.to_pylist(), "inner")
    assert sorted(zip(got.lv.tolist(), got.rv.tolist())) == want


def test_equi_join_broadcast_empty_right(ray_session):
    import ray.data

    _ltab, _rtab, l, _r = _planner_inputs()
    empty_right = ray.data.from_arrow(
        pa.table({"rk": pa.array([], pa.int64()), "rv": pa.array([], pa.int64())})
    )
    got = cluster.equi_join(
        l, empty_right, on="k", right_on="rk", join_type="left_anti",
    ).to_pandas()
    assert sorted(got.lv.tolist()) == list(range(90))


def test_detect_hot_keys_finds_the_zipf_head(ray_session):
    import ray.data

    from deepseek_ocr_ray.cluster import detect_hot_keys

    rng = np.random.RandomState(4)
    keys = np.where(rng.rand(5000) < 0.4, 7, rng.randint(100, 2000, 5000))
    tab = pa.table({"k": pa.array(keys.astype(np.int64), pa.int64()),
                    "v": pa.array(np.arange(5000), pa.int64())})
    hot, total = detect_hot_keys(ray.data.from_arrow(tab).repartition(6), "k")
    assert total == 5000
    assert 7 in hot
    assert len(hot) < 10


def test_salted_inner_join_equals_plain_join_under_skew(ray_session):
    import ray.data

    from deepseek_ocr_ray.cluster import equi_join, salted_inner_join

    rng = np.random.RandomState(12)
    n = 4000
    # one key is ~half of all left rows; right has duplicate keys too
    lk = np.where(rng.rand(n) < 0.5, 3, rng.randint(0, 50, n)).astype(np.int64)
    left = pa.table({"k": pa.array(lk, pa.int64()),
                     "lv": pa.array(rng.randint(0, 9, n).tolist(), pa.int64())})
    rk = rng.randint(0, 50, 200).astype(np.int64)
    right = pa.table({"k": pa.array(rk, pa.int64()),
                      "rv": pa.array(rng.randint(0, 999, 200).tolist(), pa.int64())})

    def rows(res):
        return sorted((r["k"], r["lv"], r["rv"]) for r in res.take_all())

    plain = rows(equi_join(
        ray.data.from_arrow(left).repartition(5),
        ray.data.from_arrow(right).repartition(3),
        on="k", join_type="inner", left_cols=["k", "lv"], right_cols=["rv"],
    ))
    for hot in (None, [3], []):
        salted = rows(salted_inner_join(
            ray.data.from_arrow(left).repartition(5),
            ray.data.from_arrow(right).repartition(3),
            on="k", left_cols=["k", "lv"], right_cols=["rv"],
            salts=4, hot_keys=hot,
        ))
        assert salted == plain, hot


def test_salted_join_spreads_hot_key_across_salts(ray_session):
    import ray.data

    from deepseek_ocr_ray.cluster import salted_inner_join

    n = 2000
    left = pa.table({"k": pa.array(np.full(n, 1, np.int64), pa.int64()),
                     "lv": pa.array(np.arange(n), pa.int64())})
    right = pa.table({"k": pa.array([1], pa.int64()),
                      "rv": pa.array([5], pa.int64())})
    out = salted_inner_join(
        ray.data.from_arrow(left).repartition(4),
        ray.data.from_arrow(right),
        on="k", left_cols=["k", "lv"], right_cols=["rv"],
        salts=4, hot_keys=[1],
    )
    assert out.count() == n  # replication did not duplicate matches


def test_assembly_buckets_grow_with_volume(ray_session):
    """Assembly exchange sizing: the group count must GROW with input bytes
    (a fixed count is a per-task memory cliff at 100x scale) and never drop
    below the cluster floor for small inputs."""
    floor = cluster.assembly_buckets_for_bytes(None)
    assert floor >= 64  # small inputs still spread across the cluster
    small = cluster.assembly_buckets_for_bytes(1 << 20)
    big = cluster.assembly_buckets_for_bytes(1 << 40)  # 1 TiB
    huge = cluster.assembly_buckets_for_bytes(100 << 40)  # 100 TiB
    assert small == floor
    assert big > small
    assert huge > big
    # 64 MiB per group at 1 TiB -> 16384 groups
    assert big == (1 << 40) // cluster.ASSEMBLY_TARGET_GROUP_BYTES


def test_extract_resolves_buckets_from_metadata(ray_session):
    """extract_dataset with assembly_buckets=None sizes the exchange from
    the dataset's metadata estimate without executing the plan."""
    import ray.data

    from deepseek_ocr_ray.pipelines.extract import _resolve_assembly_buckets

    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    n = _resolve_assembly_buckets(ds, None)
    assert n >= 64
    # explicit count always wins
    assert _resolve_assembly_buckets(ds, 5) == 5


def test_collect_table_executes_plan_exactly_once(ray_session, run_marker):
    """Ray 2.49's lazy ``to_arrow_refs`` follows execution with a
    ``schema(fetch_if_missing=True)`` limit-1 probe — a SECOND run of
    the whole plan (side effects included; the round-4 export_shards
    resume flake).  ``collect_table``/``arrow_block_refs`` must execute
    the plan exactly once."""
    import pyarrow as pa
    import ray.data

    from deepseek_ocr_ray.cluster import collect_table

    touch, runs = run_marker

    ds = ray.data.from_arrow(
        pa.table({"x": pa.array(list(range(100)), pa.int64())})
    )  # one block -> one task per plan execution
    out = collect_table(ds.map_batches(touch, batch_format="pyarrow"))
    assert out.num_rows == 100
    assert runs() == 1  # 2 = the schema-probe re-run
