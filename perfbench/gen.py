"""Seeded inputs for the benchmark, independent of the package's own generator.

Extraction workloads write an interleaved document table (the
``schema.IN_SCHEMA`` shape) as parquet files; ``queries_join`` writes a small
TPC-H-style star schema plus a ``documents`` table with the column names and
value domains the package's queries read.

Document lengths are stratified rather than drawn independently: each
workload has fixed class counts and a fixed multiset of lengths, and the seed
only permutes them and draws the content.  Total work therefore barely moves
from seed to seed, so run-to-run spread measures the system, not the input.
"""

from __future__ import annotations

import datetime as dt
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SPAN = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.large_string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)
DOC_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", pa.list_(SPAN))])

MEDIA = ("pdf_page", "image")

_WORDS = (
    "the quick data engine span table figure title page image layout text "
    "document markdown header footer nav aside article section column row "
    "formula grounding reference batch stream arrow block shuffle actor"
).split()

# kind -> probability, per document class
_F1_MIX = {
    "text": 0.45, "html": 0.15, "pdf_page": 0.15, "image": 0.10,
    "title": 0.05, "table": 0.05, "figure": 0.05,
}
_HEAVY_MIX = {"pdf_page": 0.8, "image": 0.1, "text": 0.1}
_SKEW_MIX = {
    "text": 0.70, "title": 0.07, "table": 0.07, "figure": 0.06,
    "html": 0.05, "pdf_page": 0.04, "image": 0.01,
}

# 8 input files of at least 64 docs each: the OCR actor pool bundles at least
# ocr_batch_size (64) rows per task, so each file becomes one task and the
# three actors share eight tasks instead of racing for three or four
EXTRACT_WORKLOADS = {
    "pages": {"docs": 576, "exchange": "none"},
    "skew_salted": {"docs": 512, "exchange": "salted"},
}


def _sentence(rng: np.random.RandomState, n: int) -> str:
    return " ".join(_WORDS[i] for i in rng.randint(0, len(_WORDS), n))


def _html(rng: np.random.RandomState, doc_id: str, off: int) -> str:
    """A small DOM page: article plus nav / sidebar / ad / footer boilerplate."""
    paras = "".join(
        f"<p>{_sentence(rng, int(rng.randint(20, 60)))}</p>"
        for _ in range(int(rng.randint(1, 5)))
    )
    img = (
        f'<p><img src="blob://{doc_id}/{off}/inline{int(rng.randint(0, 9))}"/></p>'
        if rng.rand() < 0.3
        else ""
    )
    nav = "".join(f"<li><a href='/x{i}'>nav {i}</a></li>" for i in range(5))
    ads = "<div class='ad'>buy now click here subscribe</div>" * int(rng.randint(0, 3))
    return (
        "<html><head><title>t</title></head><body>"
        f"<nav><ul>{nav}</ul></nav>"
        f"<div id='sidebar'><ul><li>related</li><li>links</li></ul></div>{ads}"
        f"<article><h1>{_sentence(rng, int(rng.randint(2, 6)))}</h1>{paras}{img}"
        "</article><footer>copyright 2026 · privacy · terms</footer></body></html>"
    )


def _doc(rng: np.random.RandomState, doc_id: str, n: int, mix: dict) -> dict:
    kinds = list(mix)
    probs = np.array([mix[k] for k in kinds])
    drawn = rng.choice(len(kinds), size=n, p=probs / probs.sum())
    spans = []
    for off, ki in enumerate(drawn):
        kind = kinds[ki]
        text, ref = "", ""
        if kind in MEDIA:
            ref = f"blob://{doc_id}/{off}"
            if rng.rand() < 0.01:  # malformed reference: quarantined, not dropped
                ref = f"blob:/broken/{off}"
        elif kind == "html":
            text = _html(rng, doc_id, off)
        else:
            text = _sentence(rng, int(rng.randint(4, 40)))
        spans.append({"kind": kind, "text": text, "media_ref": ref, "offset": off})
    return {"doc_id": doc_id, "spans": spans}


def _lengths(workload: str, n_docs: int) -> list[tuple[int, dict]]:
    """Fixed (length, kind mix) per document before the seed permutes them."""
    if workload == "skew_salted":
        # Zipf-like by rank: a few documents of thousands of units
        ranks = np.arange(1, n_docs + 1)
        lens = np.maximum(1, np.ceil(3000.0 / ranks**1.1)).astype(int)
        return [(int(n), _SKEW_MIX) for n in lens]
    # FIXTURES.md F1: ~1 % empty docs, ~2 % media-heavy (50-200 units),
    # the rest 1-64 units
    n_empty = max(1, round(0.01 * n_docs))
    n_heavy = max(1, round(0.02 * n_docs))
    n_base = n_docs - n_empty - n_heavy
    out = [(0, _F1_MIX)] * n_empty
    out += [(int(n), _HEAVY_MIX) for n in np.linspace(50, 200, n_heavy).round()]
    out += [(int(n), _F1_MIX) for n in np.linspace(1, 64, n_base).round()]
    return out


def make_docs(workload: str, seed: int) -> list[dict]:
    n_docs = EXTRACT_WORKLOADS[workload]["docs"]
    rng = np.random.RandomState(seed)
    plan = _lengths(workload, n_docs)
    order = rng.permutation(len(plan))
    docs = []
    for i, j in enumerate(order):
        n, mix = plan[j]
        doc_rng = np.random.RandomState(rng.randint(0, 2**31 - 1))
        docs.append(_doc(doc_rng, f"doc-{seed:06d}-{i:06d}", n, mix))
    return docs


def write_docs(docs: list[dict], out_dir: str, n_files: int = 8) -> dict:
    """Deal the docs over ``n_files`` parquet files (one Ray input block
    each), largest first in snake order so every file carries about the same
    number of units; return the input stats."""
    os.makedirs(out_dir, exist_ok=True)
    files = [[] for _ in range(n_files)]
    by_size = sorted(docs, key=lambda d: -len(d["spans"]))
    for r, d in enumerate(by_size):
        k = r % (2 * n_files)
        files[k if k < n_files else 2 * n_files - 1 - k].append(d)
    for f, part in enumerate(files):
        pq.write_table(
            pa.Table.from_pylist(part, schema=DOC_SCHEMA),
            os.path.join(out_dir, f"part-{f:02d}.parquet"),
        )
    lens = [len(d["spans"]) for d in docs]
    kinds = [s["kind"] for d in docs for s in d["spans"]]
    return {
        "docs": len(docs),
        "units": len(kinds),
        "pages": sum(k in MEDIA for k in kinds),
        "html_units": kinds.count("html"),
        "max_units_per_doc": max(lens),
        "bytes": sum(
            os.path.getsize(os.path.join(out_dir, p)) for p in os.listdir(out_dir)
        ),
    }


# ---------------------------------------------------------------------------
# queries_join tables
# ---------------------------------------------------------------------------

_TS = pa.timestamp("us")
TABLE_SCHEMAS = {
    "region": pa.schema([("r_regionkey", pa.int32()), ("r_name", pa.string())]),
    "nation": pa.schema(
        [("n_nationkey", pa.int32()), ("n_name", pa.string()), ("n_regionkey", pa.int32())]
    ),
    "customer": pa.schema(
        [("c_custkey", pa.int64()), ("c_name", pa.string()), ("c_nationkey", pa.int32()),
         ("c_acctbal", pa.float64()), ("c_mktsegment", pa.string())]
    ),
    "supplier": pa.schema(
        [("s_suppkey", pa.int64()), ("s_name", pa.string()), ("s_nationkey", pa.int32()),
         ("s_acctbal", pa.float64())]
    ),
    "part": pa.schema(
        [("p_partkey", pa.int64()), ("p_name", pa.string()), ("p_brand", pa.string()),
         ("p_type", pa.string()), ("p_size", pa.int32()), ("p_retailprice", pa.float64())]
    ),
    "orders": pa.schema(
        [("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
         ("o_orderstatus", pa.string()), ("o_totalprice", pa.float64()),
         ("o_orderdate", _TS), ("o_orderpriority", pa.string())]
    ),
    "lineitem": pa.schema(
        [("l_orderkey", pa.int64()), ("l_partkey", pa.int64()), ("l_suppkey", pa.int64()),
         ("l_linenumber", pa.int32()), ("l_quantity", pa.float64()),
         ("l_extendedprice", pa.float64()), ("l_discount", pa.float64()),
         ("l_tax", pa.float64()), ("l_returnflag", pa.string()),
         ("l_linestatus", pa.string()), ("l_shipdate", _TS)]
    ),
    "documents": pa.schema(
        [("doc_id", pa.int64()), ("text", pa.string()), ("lang", pa.string()),
         ("source", pa.string()), ("n_chars", pa.int64())]
    ),
}

# rows per table (about TPC-H scale factor 0.002)
TABLE_ROWS = {"customer": 300, "supplier": 50, "part": 400, "orders": 3000,
              "lineitem": 12000, "documents": 300}

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_ADJ = ["small", "red", "blue", "green", "large", "shiny", "steel", "brass"]
_NOUN = ["ring", "widget", "bolt", "gear", "nut", "spring", "valve"]
_TYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_LANGS = ["en", "zh", "de", "fr", "es"]
_DOC_WORDS = (
    "key agg row scan slow fast table value part hash merge batch the line "
    "sort window data column join small customer query big order group "
    "filter stream spark a"
).split()


def _money(rng: np.random.RandomState, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def make_tables(seed: int) -> dict[str, pa.Table]:
    rng = np.random.RandomState(seed)
    n = TABLE_ROWS
    c, s, p, o, li, d = (n[k] for k in
                         ("customer", "supplier", "part", "orders", "lineitem", "documents"))
    epoch = dt.datetime(1995, 1, 1)
    odays = rng.randint(0, 2404, o)
    odate = [epoch + dt.timedelta(days=int(x)) for x in odays]
    l_order = rng.randint(0, o, li)
    ship = [odate[k] + dt.timedelta(days=int(x))
            for k, x in zip(l_order, rng.randint(1, 122, li))]
    texts = [" ".join(_DOC_WORDS[i] for i in rng.randint(0, len(_DOC_WORDS),
                                                         int(rng.randint(8, 90))))
             for _ in range(d)]
    cols = {
        "region": [np.arange(5), _REGIONS],
        "nation": [np.arange(25), [f"NATION_{k}" for k in range(25)],
                   np.arange(25) % 5],
        "customer": [np.arange(c), [f"Customer#{k:09d}" for k in range(c)],
                     rng.randint(0, 25, c), _money(rng, -999.99, 9999.99, c),
                     [_SEGMENTS[k] for k in rng.randint(0, 5, c)]],
        "supplier": [np.arange(s), [f"Supplier#{k:09d}" for k in range(s)],
                     rng.permutation(np.arange(s) % 25),
                     _money(rng, -999.99, 9999.99, s)],
        "part": [np.arange(p),
                 [f"{_ADJ[a]} {_NOUN[b]}" for a, b in
                  zip(rng.randint(0, len(_ADJ), p), rng.randint(0, len(_NOUN), p))],
                 [f"Brand#{k}" for k in rng.randint(1, 26, p)],
                 [_TYPES[k] for k in rng.randint(0, 6, p)],
                 rng.randint(1, 51, p), np.round(900.0 + (np.arange(p) % 1000) * 0.1, 2)],
        "orders": [np.arange(o), rng.randint(0, c, o),
                   [("F", "O", "P")[k] for k in rng.randint(0, 3, o)],
                   _money(rng, 1000.0, 500000.0, o), odate,
                   [_PRIORITIES[k] for k in rng.randint(0, 5, o)]],
        "lineitem": [l_order, rng.randint(0, p, li), rng.randint(0, s, li),
                     rng.randint(1, 8, li), rng.randint(1, 51, li).astype(float),
                     _money(rng, 900.0, 105000.0, li), rng.randint(0, 11, li) / 100.0,
                     rng.randint(0, 9, li) / 100.0,
                     [("A", "N", "R")[k] for k in rng.randint(0, 3, li)],
                     [("F", "O")[k] for k in rng.randint(0, 2, li)], ship],
        "documents": [np.arange(d), texts,
                      [_LANGS[k] for k in rng.randint(0, 5, d)],
                      [f"src{k % 20}" for k in range(d)], [len(t) for t in texts]],
    }
    return {
        name: pa.Table.from_arrays(
            [pa.array(v, type=f.type) for v, f in zip(cols[name], schema)],
            schema=schema,
        )
        for name, schema in TABLE_SCHEMAS.items()
    }


def write_tables(tables: dict[str, pa.Table], out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
    stats = {f"rows.{name}": t.num_rows for name, t in tables.items()}
    stats["bytes"] = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
    )
    return stats
