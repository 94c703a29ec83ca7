"""MERGE INTO — keyed upsert/delete of a change set into a base Dataset.

The lakehouse write primitive: given a base table and a (much smaller)
change set with an ``op`` column — ``'u'`` upsert (replace when the key
exists, insert when it doesn't) or ``'d'`` delete (absent key is a
no-op) — produce the merged table.  Standard SQL MERGE semantics: the
change set must be unique per key (raises loudly otherwise, the ANSI
"multiple rows matched" error).

Plan — broadcast-change, ONE streaming base pass, zero shuffle:

MERGE is algebraically ``(base ANTI-JOIN change_keys) UNION upsert_rows``:
dropping every base row whose key appears in the change set and then
appending ALL upsert rows realizes every branch at once — a matched
upsert becomes drop+append (update), a matched delete becomes drop
(delete), an unmatched upsert appends (insert), an unmatched delete
touches nothing.  No matched-key bookkeeping, no second pass, no
materialization:

1. the change set collects to the driver and its sorted key vector
   ships ONCE via ``ray.put`` — it is the small side by construction
   (a CDC batch against a 100-TB base); a change set past
   ``cluster.BROADCAST_MAX_BYTES`` (the join planner's per-node broadcast
   cap, read at call time) raises loudly with the escalation path
   (bucket both sides by the same key hash and apply per bucket) named
   in the message;
2. ONE streaming pass over base blocks masks out rows whose key is in
   the change set (``searchsorted`` probe, no per-row Python) — base
   rows move at most once and never cross the wire;
3. the upsert rows (cast to the base schema) append as one tail block.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

__all__ = ["merge_into"]


def merge_into(
    base: ray.data.Dataset,
    changes: ray.data.Dataset,
    *,
    key_col: str,
    op_col: str = "op",
) -> ray.data.Dataset:
    """Merge ``changes`` (``key_col`` + the base value columns + ``op_col``
    of ``'u'``/``'d'``) into ``base``; returns the merged Dataset with the
    base schema.  Keys must be integral; the probe casts them to int64."""
    from ..cluster import BROADCAST_MAX_BYTES, collect_table

    base_schema = base.schema().base_schema
    val_cols = [n for n in base_schema.names if n != key_col]
    if key_col not in base_schema.names:
        raise ValueError(f"base lacks key column {key_col!r}")

    ctbl = collect_table(changes)
    if ctbl is None or ctbl.num_rows == 0:  # empty change set — identity
        return base

    if ctbl.nbytes > BROADCAST_MAX_BYTES:
        raise ValueError(
            f"change set is {ctbl.nbytes >> 20} MiB — past the "
            f"{BROADCAST_MAX_BYTES >> 20} MiB broadcast cap. Bucket base "
            "and changes by key and apply merge_into per bucket instead."
        )
    missing = [c for c in [key_col, op_col, *val_cols] if c not in ctbl.column_names]
    if missing:
        raise ValueError(f"change set lacks columns {missing}")

    keys = ctbl[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    if np.unique(keys).size != keys.size:
        raise ValueError(
            "change set has duplicate keys — ANSI MERGE requires a unique "
            "source row per target key"
        )
    ops = ctbl[op_col].cast(pa.string()).to_numpy(zero_copy_only=False)
    bad = set(ops) - {"u", "d"}
    if bad:
        raise ValueError(f"unknown ops {sorted(bad)!r}; use 'u' or 'd'")

    keys_sorted = np.sort(keys)
    keys_ref = ray.put(keys_sorted)

    def drop_changed(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        ks = ray.get(keys_ref)
        bk = batch[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ks, bk)
        np.clip(pos, 0, ks.size - 1, out=pos)
        return batch.filter(pa.array(ks[pos] != bk))

    merged = base.map_batches(drop_changed, batch_format="pyarrow")

    up_rows = np.flatnonzero(ops == "u")
    if up_rows.size:
        take = pa.array(up_rows.astype(np.int64))
        out_schema = pa.schema([base_schema.field(n) for n in base_schema.names])
        ins_tbl = (
            ctbl.select(base_schema.names).take(take).cast(out_schema)
        )
        merged = merged.union(ray.data.from_arrow(ins_tbl))
    return merged
