"""merge_into: ANSI MERGE semantics, validation, layout invariance."""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray

from deepseek_ocr_ray.state.merge import merge_into


def _base(nblocks: int = 1) -> ray.data.Dataset:
    t = pa.table(
        {
            "k": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "v": pa.array(["a", "b", "c", "d", "e"], pa.string()),
            "n": pa.array([10, 20, 30, 40, 50], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t)
    return ds.repartition(nblocks) if nblocks > 1 else ds


def _changes(rows: list[tuple]) -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([r[0] for r in rows], pa.int64()),
                "v": pa.array([r[1] for r in rows], pa.string()),
                "n": pa.array([r[2] for r in rows], pa.int64()),
                "op": pa.array([r[3] for r in rows], pa.string()),
            }
        )
    )


def _sorted_rows(ds: ray.data.Dataset) -> list[dict]:
    df = ds.to_pandas()
    return df.sort_values("k").to_dict("records")


def test_merge_all_branches():
    # matched upsert (update), unmatched upsert (insert), matched delete,
    # unmatched delete (no-op) — all four MERGE branches in one change set
    out = merge_into(
        _base(),
        _changes(
            [
                (2, "B!", 200, "u"),  # update
                (10, "J", 100, "u"),  # insert
                (4, "", 0, "d"),  # delete
                (99, "", 0, "d"),  # delete absent: no-op
            ]
        ),
        key_col="k",
    )
    assert _sorted_rows(out) == [
        {"k": 1, "v": "a", "n": 10},
        {"k": 2, "v": "B!", "n": 200},
        {"k": 3, "v": "c", "n": 30},
        {"k": 5, "v": "e", "n": 50},
        {"k": 10, "v": "J", "n": 100},
    ]


def test_merge_column_order_is_base_schema():
    out = merge_into(_base(), _changes([(10, "J", 100, "u")]), key_col="k")
    assert out.schema().base_schema.names == ["k", "v", "n"]


def test_merge_empty_change_set_is_identity():
    changes = _changes([(2, "B", 2, "u")]).filter(lambda r: False)
    out = merge_into(_base(), changes, key_col="k")
    assert _sorted_rows(out) == _sorted_rows(_base())


def test_merge_layout_invariance():
    ch = _changes([(1, "A", 11, "u"), (5, "", 0, "d"), (7, "g", 70, "u")])
    a = _sorted_rows(merge_into(_base(1), ch, key_col="k"))
    b = _sorted_rows(merge_into(_base(4), ch, key_col="k"))
    assert a == b


def test_merge_duplicate_change_keys_raise():
    with pytest.raises(ValueError, match="duplicate keys"):
        merge_into(
            _base(),
            _changes([(2, "x", 1, "u"), (2, "y", 2, "d")]),
            key_col="k",
        ).to_pandas()


def test_merge_unknown_op_raises():
    with pytest.raises(ValueError, match="unknown ops"):
        merge_into(
            _base(), _changes([(2, "x", 1, "upsert")]), key_col="k"
        ).to_pandas()


def test_merge_missing_value_column_raises():
    ch = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([2], pa.int64()),
                "op": pa.array(["u"], pa.string()),
            }
        )
    )
    with pytest.raises(ValueError, match="lacks columns"):
        merge_into(_base(), ch, key_col="k").to_pandas()


def test_merge_broadcast_cap_raises(monkeypatch):
    # the change-set cap is the join planner's broadcast cap, read per call
    from deepseek_ocr_ray import cluster

    monkeypatch.setattr(cluster, "BROADCAST_MAX_BYTES", 8)
    with pytest.raises(ValueError, match="broadcast cap"):
        merge_into(
            _base(),
            _changes([(2, "x" * 64, 1, "u")]),
            key_col="k",
        ).to_pandas()


def test_merge_preserves_narrow_key_type():
    # the probe casts to int64 internally but base rows keep their dtype
    # and the insert tail casts back to the base schema
    base = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 2], pa.int32()),
                "v": pa.array([1.5, 2.5], pa.float64()),
            }
        )
    )
    ch = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([2, 9], pa.int64()),
                "v": pa.array([9.9, 0.5], pa.float64()),
                "op": pa.array(["u", "u"], pa.string()),
            }
        )
    )
    out = merge_into(base, ch, key_col="k")
    sch = out.schema().base_schema
    assert sch.field("k").type == pa.int32()
    assert _sorted_rows(out) == [
        {"k": 1, "v": 1.5},
        {"k": 2, "v": 9.9},
        {"k": 9, "v": 0.5},
    ]


def test_merge_inserts_only_into_empty_base():
    base = ray.data.from_arrow(
        pa.table(
            {"k": pa.array([], pa.int64()), "v": pa.array([], pa.string())}
        )
    )
    ch = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([7, 3], pa.int64()),
                "v": pa.array(["x", "y"], pa.string()),
                "op": pa.array(["u", "d"], pa.string()),
            }
        )
    )
    out = merge_into(base, ch, key_col="k")
    assert _sorted_rows(out) == [{"k": 7, "v": "x"}]
