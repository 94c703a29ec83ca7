"""Correctness gates, run outside every timed window.

Extraction: an order-independent per-document digest of
(doc_id, spans in order, markdown, error), compared against the sequential
reference oracle in ``tests/reference_oracle.py`` on the same input.
Queries: the canonicalised result of each query, compared against its
``oracle_sql()`` twin run through DuckDB on the same tables.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os

import numpy as np
import pyarrow as pa


def _doc_digest(doc_id, spans, markdown, error) -> str:
    body = json.dumps(
        [doc_id, [[s["kind"], s["text"], s["media_ref"], s["offset"]] for s in spans],
         markdown, error],
        ensure_ascii=False,
    )
    return hashlib.sha1(body.encode()).hexdigest()


def load_reference_oracle(root: str):
    path = os.path.join(root, "tests", "reference_oracle.py")
    spec = importlib.util.spec_from_file_location("reference_oracle", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def expected_digests(root: str, docs: list[dict], cfg) -> dict[str, str]:
    ref = load_reference_oracle(root)
    out = {}
    for d in docs:
        r = ref.extract_doc_oracle(d, cfg)
        out[r["doc_id"]] = _doc_digest(r["doc_id"], r["spans"], r["markdown"], r["error"])
    return out


def table_digests(tables: list[pa.Table]) -> tuple[dict[str, str], int]:
    """Per-doc digests of extraction output, plus the row count (to catch
    a document emitted twice)."""
    out, rows = {}, 0
    for t in tables:
        rows += t.num_rows
        cols = t.select(["doc_id", "spans", "markdown", "error"]).to_pydict()
        for doc_id, spans, md, err in zip(
            cols["doc_id"], cols["spans"], cols["markdown"], cols["error"]
        ):
            out[doc_id] = _doc_digest(doc_id, spans, md, err)
    return out, rows


def extraction_matches(expected: dict[str, str], tables: list[pa.Table]) -> bool:
    got, rows = table_digests(tables)
    return rows == len(expected) and got == expected


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def duckdb_results(sql_by_name: dict[str, str], tables_dir: str) -> dict:
    import duckdb

    con = duckdb.connect()
    con.execute("SET threads = 1")
    for f in sorted(os.listdir(tables_dir)):
        name = f.removesuffix(".parquet")
        con.execute(
            f"CREATE VIEW {name} AS SELECT * FROM '{os.path.join(tables_dir, f)}'"
        )
    return {name: canon(con.sql(sql).df()) for name, sql in sql_by_name.items()}


def canon(df):
    """Columns by name, object columns as str, rows sorted — the same
    canonical form the repository's oracle test compares."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def frames_match(got, want) -> bool:
    if list(got.columns) != list(want.columns) or len(got) != len(want):
        return False
    for c in got.columns:
        g, w = got[c].to_numpy(), want[c].to_numpy()
        if np.issubdtype(g.dtype, np.floating) or np.issubdtype(w.dtype, np.floating):
            if not np.allclose(g.astype(np.float64), w.astype(np.float64),
                               atol=1e-9, rtol=0, equal_nan=True):
                return False
        elif not all(str(a) == str(b) for a, b in zip(g, w)):
            return False
    return True
