"""JSONL source/sink: round-trip exactness, quarantine semantics, and the
documents_jsonl_roundtrip cache contract."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pytest
import ray

from deepseek_ocr_ray.cluster import arrow_block_refs
from deepseek_ocr_ray.sources.jsonl import (
    read_jsonl,
    read_jsonl_fast,
    write_jsonl,
)

NASTY = [
    "plain",
    "new\nline and\ttab",
    'quote"back\\slash',
    "unicode é中文 \U0001f600",
    "",
]


def _collect(ds) -> pa.Table:
    tabs = [t for t in ray.get(arrow_block_refs(ds)) if t.num_rows]
    return pa.concat_tables(tabs).sort_by("doc_id")


def test_roundtrip_exact_both_readers(ray_session, tmp_path):
    t = pa.table(
        {
            "doc_id": pa.array(range(5), pa.int64()),
            "text": pa.array(NASTY, pa.string()),
            "score": pa.array([1.5, None, 3.25, -2.0, 0.0], pa.float64()),
            "vec": pa.array(
                [[1.0, 2.0], [], [0.5], None, [3.0]], pa.list_(pa.float64())
            ),
        }
    )
    out = str(tmp_path / "dump")
    write_jsonl(ray.data.from_arrow(t), out)

    fast = _collect(read_jsonl_fast(out))
    assert fast["text"].to_pylist() == NASTY
    assert fast["score"].to_pylist() == t["score"].to_pylist()

    robust = _collect(
        read_jsonl(
            [os.path.join(out, f) for f in sorted(os.listdir(out))],
            {
                "doc_id": pa.int64(),
                "text": pa.string(),
                "score": pa.float64(),
                "vec": pa.list_(pa.float64()),
            },
        )
    )
    assert robust["text"].to_pylist() == NASTY
    assert robust["score"].to_pylist() == t["score"].to_pylist()
    assert robust["vec"].to_pylist() == t["vec"].to_pylist()
    assert robust["error"].null_count == 5


def test_quarantine_semantics(ray_session, tmp_path):
    lines = [
        json.dumps({"id": 1, "text": "ok", "n": 2}),          # clean
        "{broken json",                                        # malformed
        json.dumps([1, 2, 3]),                                 # non-object
        json.dumps({"id": "four", "text": "bad id"}),          # uncoercible
        json.dumps({"id": 5.0, "text": "floaty", "n": 7}),     # 5.0 → 5
        json.dumps({"id": 6, "extra": "ignored"}),             # missing→null
        json.dumps({"id": 7, "text": "t", "n": True}),         # bool≠int
        json.dumps({"id": 8, "text": "t", "n": 2.5}),          # lossy float
    ]
    p = tmp_path / "dirty.jsonl"
    p.write_text("\n".join(lines) + "\n")
    # drop zero-row blocks before concat: a computed empty block can be
    # schema-divergent (the hazard cluster.collect_table documents)
    out = pa.concat_tables(
        [
            t
            for t in ray.get(
                arrow_block_refs(
                    read_jsonl(
                        str(p),
                        {"id": pa.int64(), "text": pa.string(), "n": pa.int64()},
                    )
                )
            )
            if t.num_rows
        ]
    )
    assert out.num_rows == 8
    errs = out["error"].to_pylist()
    clean = [i for i, e in enumerate(errs) if e is None]
    ids = out["id"].to_pylist()
    texts = out["text"].to_pylist()
    assert [ids[i] for i in clean] == [1, 5, 6]
    assert texts[4] == "floaty"  # integral float coerced, row kept
    assert ids[5] == 6 and texts[5] is None  # missing field → null
    for i in (1, 2, 3, 6, 7):  # quarantined rows: data null, reason set
        assert errs[i] is not None
        assert ids[i] is None and texts[i] is None


def test_error_col_collision_raises(ray_session, tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text("{}\n")
    with pytest.raises(ValueError, match="collides"):
        read_jsonl(str(p), {"error": pa.string()})


def test_documents_roundtrip_cache_reused(ray_session):
    import shutil

    from deepseek_ocr_ray.pipelines import curation

    sf = "/root/testdata/sf0.001"
    tag = sf.strip("/").replace("/", "_")
    cache = os.path.join(curation.JSONL_CACHE_ROOT, tag)
    shutil.rmtree(cache, ignore_errors=True)

    first = curation.documents_jsonl_roundtrip(sf)
    marker = os.path.join(cache, "_COMPLETE")
    stamp = os.path.getmtime(marker)
    second = curation.documents_jsonl_roundtrip(sf)
    assert os.path.getmtime(marker) == stamp  # export not redone
    assert first.equals(second)
    assert first.num_rows == 5  # 5 langs in the testdata
    assert int(pa.compute.sum(first["docs"]).as_py()) == 500
