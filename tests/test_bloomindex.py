"""bloomindex: no-false-negative guarantee, pruning power, residual
exactness, idempotence/staleness, string keys, typed-empty path."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from deepseek_ocr_ray.cluster import arrow_block_refs
from deepseek_ocr_ray.state.bloomindex import (
    build_bloom_index,
    pruned_files,
    scan_pruned_eq,
)


def _mkdir(tmp_path, n_files=8, rows=200, seed=0):
    rng = np.random.default_rng(seed)
    d = str(tmp_path / "data")
    os.makedirs(d)
    truth = {}
    for i in range(n_files):
        k = rng.integers(0, 500, rows).astype(np.int64)
        v = rng.integers(0, 100, rows).astype(np.int64)
        pq.write_table(
            pa.table({"k": pa.array(k, pa.int64()), "v": pa.array(v, pa.int64())}),
            os.path.join(d, f"f{i:02d}.parquet"),
        )
        truth[f"f{i:02d}.parquet"] = set(k.tolist())
    return d, truth


def test_no_false_negatives_and_pruning(ray_session, tmp_path):
    d, truth = _mkdir(tmp_path)
    build_bloom_index(d, "k")
    rng = np.random.default_rng(1)
    pruned_any = False
    for val in rng.integers(0, 600, 30):
        keep = {os.path.basename(p) for p in pruned_files(d, "k", int(val))}
        holders = {f for f, s in truth.items() if int(val) in s}
        assert holders <= keep  # NEVER a false negative
        if len(keep) < len(truth):
            pruned_any = True
    assert pruned_any  # the filter actually prunes something


def test_scan_exact_vs_brute(ray_session, tmp_path):
    d, truth = _mkdir(tmp_path, seed=3)
    build_bloom_index(d, "k")
    data_files = [
        os.path.join(d, f)
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet") and not f.startswith("_")
    ]
    full = pa.concat_tables(
        [pq.read_table(f) for f in data_files]
    ).to_pandas()
    for val in (7, 123, 499, 555):  # 555 likely absent
        # compare at the Arrow-refs level: Ray 2.49 to_pandas() drops
        # columns on an ALL-EMPTY dataset (the engine's typed-empty
        # convention — schemas are pinned at the Arrow level)
        got = pa.concat_tables(
            ray.get(arrow_block_refs(scan_pruned_eq(d, "k", val))),
            promote_options="default",
        )
        want = full[full["k"] == val]
        assert got.schema.names == ["k", "v"]
        assert got.num_rows == len(want)
        assert sorted(got["v"].to_pylist()) == sorted(want["v"].tolist())


def test_absent_value_often_prunes_all(ray_session, tmp_path):
    d, _ = _mkdir(tmp_path, n_files=4, rows=50, seed=5)
    build_bloom_index(d, "k")
    # a value far outside the domain: every filter should miss (w.h.p.
    # with k=7 probes; deterministic given the fixed data/seed)
    keep = pruned_files(d, "k", 10_000_019)
    assert keep == []
    got = scan_pruned_eq(d, "k", 10_000_019)
    assert got.count() == 0
    # typed empty keeps the directory schema
    tbl = pa.concat_tables(ray.get(got.to_arrow_refs()))
    assert tbl.schema.names == ["k", "v"]


def test_idempotent_and_stale(ray_session, tmp_path):
    d, _ = _mkdir(tmp_path, n_files=2, rows=20)
    m1 = build_bloom_index(d, "k")
    t1 = os.path.getmtime(m1)
    m2 = build_bloom_index(d, "k")
    assert m1 == m2 and os.path.getmtime(m2) == t1  # reused
    # grow the input -> stale manifest raises, rebuild heals
    pq.write_table(
        pa.table({"k": pa.array([9], pa.int64()), "v": pa.array([1], pa.int64())}),
        os.path.join(d, "f99.parquet"),
    )
    with pytest.raises(ValueError, match="stale"):
        pruned_files(d, "k", 9)
    build_bloom_index(d, "k")
    assert any(
        os.path.basename(p) == "f99.parquet" for p in pruned_files(d, "k", 9)
    )


def test_string_keys(ray_session, tmp_path):
    d = str(tmp_path / "s")
    os.makedirs(d)
    pq.write_table(
        pa.table({"s": pa.array(["alpha", "beta"], pa.string())}),
        os.path.join(d, "a.parquet"),
    )
    pq.write_table(
        pa.table({"s": pa.array(["gamma"], pa.string())}),
        os.path.join(d, "b.parquet"),
    )
    build_bloom_index(d, "s")
    keep = [os.path.basename(p) for p in pruned_files(d, "s", "gamma")]
    assert "b.parquet" in keep and "a.parquet" not in keep
    got = scan_pruned_eq(d, "s", "alpha").to_pandas()
    assert got["s"].tolist() == ["alpha"]


def test_missing_manifest_raises(ray_session, tmp_path):
    d, _ = _mkdir(tmp_path, n_files=1, rows=5)
    with pytest.raises(FileNotFoundError, match="build_bloom_index"):
        pruned_files(d, "k", 1)
