"""Pre-validation of the driver's correctness gate: every ``queries()``
entry with an ``oracle_sql()`` twin must match DuckDB on the same parquet
tables — row count, column names, and values (order-insensitive).

This mirrors the driver's comparison (sort columns by name, sort rows,
compare values) at sf0.001 so oracle drift is caught locally before a round
is graded.
"""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def _connect(sf_dir: str = SF_DIR) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    for t in TABLES:
        path = os.path.join(sf_dir, f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{path}'")
    return con


def _duck(sql: str) -> pd.DataFrame:
    con = _connect()
    return con.sql(sql).df()


def _duck_arrow(sql: str):
    con = _connect()
    return con.sql(sql).arrow()


def _to_arrow(result):
    import pyarrow as pa
    import ray.data

    import ray as _ray

    if isinstance(result, ray.data.Dataset):
        tables = _ray.get(result.to_arrow_refs())
        return pa.concat_tables(tables, promote_options="default")
    if isinstance(result, pa.Table):
        return result
    return pa.Table.from_pandas(result, preserve_index=False)


def _to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def _oracle_keys():
    import __ray_entry__ as e

    keys = sorted(e.oracle_sql().keys())
    # Optional chunking for the sandbox's ~20-min background-run cap:
    # ORACLE_SHARD="i/n" selects every n-th key starting at i.
    shard = os.environ.get("ORACLE_SHARD")
    if shard:
        i, n = (int(x) for x in shard.split("/"))
        keys = keys[i::n]
    return keys


@pytest.mark.parametrize("name", _oracle_keys())
def test_query_matches_oracle(ray_session, name):
    import __ray_entry__ as e

    import pyarrow as pa
    import ray.data

    q = e.queries()[name]
    sql = e.oracle_sql()[name]
    result = q(SF_DIR)
    if isinstance(result, ray.data.Dataset):
        # run the plan once: both conversions below then read the same
        # blocks, and to_arrow_refs() finds the schema without the
        # limit-1 re-execution it does on a lazy dataset
        result = result.materialize()
    got = _canon(_to_pandas(result))
    want = _canon(_duck(sql))

    # Driver parity: the driver hashes raw Arrow values, so the engine's and
    # the oracle's Arrow types must agree (round 1: DuckDB sum()->HUGEINT
    # exported as decimal128 while the engine emitted int64 — equal values,
    # different hash). string/large_string and binary/large_binary hash alike.
    def _norm(t: pa.DataType) -> pa.DataType:
        if pa.types.is_large_string(t):
            return pa.string()
        if pa.types.is_large_binary(t):
            return pa.binary()
        # Integer width is benign to the driver hash (doc_token_stats passed
        # round 1 with engine int64 vs oracle int32); decimal vs int is NOT.
        if pa.types.is_integer(t):
            return pa.int64()
        return t

    got_schema = _to_arrow(result).schema
    want_schema = _duck_arrow(sql).schema
    for f in want_schema:
        gt = _norm(got_schema.field(f.name).type)
        wt = _norm(f.type)
        assert gt == wt, (
            f"{name}.{f.name}: engine arrow type {gt} != oracle arrow type {wt}"
            " — driver value-hash would mismatch"
        )
    assert list(got.columns) == list(want.columns), (
        f"{name}: columns {list(got.columns)} != {list(want.columns)}"
    )
    assert len(got) == len(want), f"{name}: {len(got)} rows != {len(want)}"
    for c in got.columns:
        g, w = got[c].to_numpy(), want[c].to_numpy()
        if np.issubdtype(g.dtype, np.floating) or np.issubdtype(w.dtype, np.floating):
            # equal_nan: SQL NULLs surface as NaN through pandas — outer
            # joins / lag() legitimately produce them, and null-position
            # equality IS part of the contract (both sides must agree)
            assert np.allclose(
                g.astype(np.float64), w.astype(np.float64),
                atol=1e-9, rtol=0, equal_nan=True,
            ), f"{name}.{c} float mismatch"
        else:
            eq = (g == w)
            assert eq.all(), (
                f"{name}.{c} mismatch at rows {np.nonzero(~eq)[0][:5]}: "
                f"got {g[~eq][:5]} want {w[~eq][:5]}"
            )


def test_fixture_oracle_raises_at_unsupported_scale():
    """The committed fixtures hold rows for sf0.001 and sf0.01 only; at
    sf0.1 a fixture oracle must raise, not return zero rows that would
    read as a mismatch against a correct result."""
    import __ray_entry__ as e

    con = _connect(os.path.join(os.path.dirname(SF_DIR), "sf0.1"))
    with pytest.raises(duckdb.Error, match="no fixture rows for corpus tag"):
        con.sql(e.oracle_sql()["dedup_ngram"]).fetchall()


def test_rows_only_queries_run(ray_session):
    """Queries without an oracle still must run and return ≥0 stable rows."""
    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()
    for name in sorted(set(qs) - set(oracles)):
        df = _to_pandas(qs[name](SF_DIR))
        assert df is not None and len(df) >= 0, name


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    df = _to_pandas(e.entry())
    assert len(df) == 200
    assert "doc_id" in df.columns
