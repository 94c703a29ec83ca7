"""Distributed as-of join — a custom operator Ray Data lacks.

Semantics (matching DuckDB's ``ASOF JOIN ... ON l.key = r.key AND l.ts >=
r.ts``): for every left row, attach the right row with the same key and the
GREATEST right timestamp ≤ the left timestamp; left rows with no eligible
right row are dropped (inner as-of).  The right side must be unique per
(key, ts) — pre-aggregate it if not, or ties make any engine's pick
arbitrary.

Ray-Data-first construction (composition (a) of the custom-operator
guidance: map_batches + groupby + in-group vectorized merge):

    left  → tag side=0, bucket = hash(key) ┐
    right → tag side=1, bucket = hash(key) ┴ union
          → groupby(bucket)                 # ONE keyed exchange
          → map_groups: per key, sort right ts, np.searchsorted the left
            ts against it (vectorized binary search), emit matches

Partitioning assumption: all rows of one key land in one bucket group
(guaranteed by the hash bucket).  Cost: shuffle O(|L|+|R|), in-group work
O((|L_k|+|R_k|) log |R_k|) per key — no per-row Python in the match step.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..hashing import splitmix_bucket as _bucket_i64


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    left_cols: list[str],
    right_cols: list[str],
    n_buckets: int = 64,
    right_tiebreak: str | None = None,
    direction: str = "backward",
) -> ray.data.Dataset:
    """Inner as-of join; output columns = left_cols + right_cols.

    Timestamps may be Arrow timestamps or numerics; they are compared as
    int64 (microseconds for timestamps).

    ``direction``: ``"backward"`` (default) matches each left row with the
    LATEST right row at-or-before its ts (SQL ``ASOF ... ON l.ts >=
    r.ts``); ``"forward"`` with the EARLIEST right row at-or-after (``ON
    l.ts <= r.ts`` — time-to-next-event queries).  Forward is the same
    algorithm on NEGATED int64 timestamps (max at-or-before of −ts ≡ min
    at-or-after of ts), so both directions share one code path and one
    test surface; ``right_tiebreak`` still picks the max on equal-ts ties.

    ``right_tiebreak``: name of an int right payload column used to break
    ties when several right rows share (key, ts) — the match picks the row
    with the MAX value.  Equivalent to (but much cheaper than) pre-deduping
    the right side with ``groupby(key, ts).aggregate(Max(col))`` before the
    join: the dedup rides the join's own exchange instead of adding an
    all-to-all aggregate (Ray's built-in aggregate runs a Python
    accumulator per key — measured 3.7 s of a 7.6 s query at sf0.1).
    """

    def _ts_i64(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, str]:
        """Normalize a time column to (int64 microseconds, kind).  Mixed
        temporal/numeric sides are a user error and raise — a silent
        unit mismatch (e.g. date32 DAYS vs timestamp MICROSECONDS) would
        make every comparison wrong."""
        t = col.type
        if pa.types.is_timestamp(t) or pa.types.is_date(t):
            col = col.cast(pa.timestamp("us"))
            arr = col.to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
            return arr, "temporal"
        return col.to_numpy(zero_copy_only=False).astype(np.int64), "numeric"


    def _kind(t: pa.DataType) -> str:
        return (
            "temporal"
            if pa.types.is_timestamp(t) or pa.types.is_date(t)
            else "numeric"
        )

    if right_tiebreak is not None and right_tiebreak not in right_cols:
        raise ValueError(
            f"right_tiebreak {right_tiebreak!r} must be one of right_cols "
            f"{right_cols} — only those columns ride the exchange"
        )
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be backward|forward, got {direction!r}")
    ts_sign = np.int64(-1 if direction == "forward" else 1)

    lk = _kind(left.schema().base_schema.field(left_ts).type)
    rk = _kind(right.schema().base_schema.field(right_ts).type)
    if lk != rk:
        raise TypeError(
            f"asof_join: left ts column is {lk} but right ts column is {rk} "
            "— a silent unit mismatch would corrupt every match; cast one "
            "side first"
        )

    def prep(side: int, key: str, ts: str, cols: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            keys = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
            out = {
                "side": pa.array(np.full(len(keys), side, np.int8)),
                "jkey": pa.array(keys, pa.int64()),
                "jts": pa.array(ts_sign * _ts_i64(batch[ts])[0], pa.int64()),
                "bucket": pa.array(_bucket_i64(keys, n_buckets), pa.int64()),
            }
            # side-specific payload columns ride along, null on the other side
            for c in left_cols:
                out[f"l_{c}"] = (
                    batch[c] if side == 0 else pa.nulls(len(keys), left_schema[c])
                )
            for c in right_cols:
                out[f"r_{c}"] = (
                    batch[c] if side == 1 else pa.nulls(len(keys), right_schema[c])
                )
            return pa.table(out)

        return fn

    left_schema = {c: left.schema().base_schema.field(c).type for c in left_cols}
    right_schema = {c: right.schema().base_schema.field(c).type for c in right_cols}

    lt = left.map_batches(
        prep(0, left_key, left_ts, left_cols), batch_format="pyarrow"
    )
    rt = right.map_batches(
        prep(1, right_key, right_ts, right_cols), batch_format="pyarrow"
    )
    both = lt.union(rt)

    def merge(group: pa.Table) -> pa.Table:
        sides = group["side"].to_numpy(zero_copy_only=False)
        keys = group["jkey"].to_numpy(zero_copy_only=False)
        ts = group["jts"].to_numpy(zero_copy_only=False)
        is_r = sides == 1
        # per-key right index: sorted ts arrays + row positions
        r_keys = keys[is_r]
        r_ts = ts[is_r]
        r_rows = np.nonzero(is_r)[0]
        if right_tiebreak is not None:
            # sort ties ascending by the tiebreak column so the row picked
            # for an equal-ts match (the LAST in sort order) carries max
            tb = (
                group[f"r_{right_tiebreak}"]
                .take(pa.array(r_rows, pa.int64()))
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            order = np.lexsort((tb, r_ts, r_keys))
        else:
            order = np.lexsort((r_ts, r_keys))
        r_keys, r_ts, r_rows = r_keys[order], r_ts[order], r_rows[order]
        # key → slice into the sorted right arrays
        bounds: dict[int, tuple[int, int]] = {}
        if len(r_keys):
            starts = np.nonzero(np.diff(r_keys, prepend=r_keys[0] - 1))[0]
            ends = np.append(starts[1:], len(r_keys))
            bounds = {int(r_keys[s]): (int(s), int(e)) for s, e in zip(starts, ends)}

        l_rows = np.nonzero(~is_r)[0]
        l_keys = keys[l_rows]
        l_sort = np.argsort(l_keys, kind="stable")
        l_rows = l_rows[l_sort]
        l_keys = l_keys[l_sort]
        out_l: list[np.ndarray] = []
        out_r: list[np.ndarray] = []
        i = 0
        n_l = len(l_rows)
        while i < n_l:  # one iteration per DISTINCT left key, vectorized inside
            j = i
            while j < n_l and l_keys[j] == l_keys[i]:
                j += 1
            b = bounds.get(int(l_keys[i]))
            if b is not None:
                s, e = b
                run = l_rows[i:j]
                pos = np.searchsorted(r_ts[s:e], ts[run], side="right")
                valid = pos > 0  # no match when no right ts <= left ts
                out_l.append(run[valid])
                out_r.append(r_rows[s + pos[valid] - 1])
            i = j
        out_l = np.concatenate(out_l) if out_l else np.array([], np.int64)
        out_r = np.concatenate(out_r) if out_r else np.array([], np.int64)
        cols = {}
        for c in left_cols:
            cols[c] = group[f"l_{c}"].take(pa.array(out_l, pa.int64()))
        for c in right_cols:
            cols[c] = group[f"r_{c}"].take(pa.array(out_r, pa.int64()))
        return pa.table(cols)

    return both.groupby("bucket").map_groups(merge, batch_format="pyarrow")


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_val: str,
    right_lo: str,
    right_hi: str,
    left_cols: list[str],
    right_cols: list[str],
    domain: tuple[float, float],
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Interval (range) join: every (l, r) pair with
    ``r.lo <= l.val <= r.hi`` — one-to-many, no equality key.

    Partitioning strategy (the classic band-join plan): the value domain is
    split into ``n_buckets`` equal bands; left rows route to the single band
    containing their value, right INTERVALS replicate to every band they
    overlap (replication factor = interval width / band width).  One keyed
    exchange; in-group the left values are sorted once and every interval
    finds its matches with two binary searches — no pairwise scan.

    ``domain`` is the (min, max) of the left value column — compute it with
    a cheap aggregate pass or supply known bounds; values outside are
    clamped into the edge bands.
    """
    lo_d, hi_d = float(domain[0]), float(domain[1])
    width = max((hi_d - lo_d) / n_buckets, 1e-12)

    def _band(v: np.ndarray) -> np.ndarray:
        b = np.floor((v - lo_d) / width).astype(np.int64)
        return np.clip(b, 0, n_buckets - 1)

    left_schema = {c: left.schema().base_schema.field(c).type for c in left_cols}
    right_schema = {c: right.schema().base_schema.field(c).type for c in right_cols}

    def prep_left(batch: pa.Table) -> pa.Table:
        vals = batch[left_val].to_numpy(zero_copy_only=False).astype(np.float64)
        out = {
            "side": pa.array(np.zeros(len(vals), np.int8)),
            "lo": pa.array(vals, pa.float64()),
            "hi": pa.array(vals, pa.float64()),
            "bucket": pa.array(_band(vals), pa.int64()),
        }
        for c in left_cols:
            out[f"l_{c}"] = batch[c]
        for c in right_cols:
            out[f"r_{c}"] = pa.nulls(len(vals), right_schema[c])
        return pa.table(out)

    def prep_right(batch: pa.Table) -> pa.Table:
        lo = batch[right_lo].to_numpy(zero_copy_only=False).astype(np.float64)
        hi = batch[right_hi].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = hi >= lo  # inverted intervals match nothing (SQL BETWEEN)
        if not ok.all():
            batch = batch.filter(pa.array(ok))
            lo, hi = lo[ok], hi[ok]
        b_lo = _band(lo)
        b_hi = _band(hi)
        # replicate each interval to every band it overlaps
        reps = (b_hi - b_lo + 1).clip(min=1)
        idx = np.repeat(np.arange(len(lo)), reps)
        buckets = np.concatenate(
            [np.arange(s, e + 1) for s, e in zip(b_lo, b_hi)]
        ) if len(lo) else np.array([], np.int64)
        out = {
            "side": pa.array(np.ones(len(idx), np.int8)),
            "lo": pa.array(lo[idx], pa.float64()),
            "hi": pa.array(hi[idx], pa.float64()),
            "bucket": pa.array(buckets, pa.int64()),
        }
        take = pa.array(idx, pa.int64())
        for c in left_cols:
            out[f"l_{c}"] = pa.nulls(len(idx), left_schema[c])
        for c in right_cols:
            out[f"r_{c}"] = batch[c].take(take)
        return pa.table(out)

    lt = left.map_batches(prep_left, batch_format="pyarrow")
    rt = right.map_batches(prep_right, batch_format="pyarrow")
    both = lt.union(rt)

    def merge(group: pa.Table) -> pa.Table:
        sides = group["side"].to_numpy(zero_copy_only=False)
        lo = group["lo"].to_numpy(zero_copy_only=False)
        hi = group["hi"].to_numpy(zero_copy_only=False)
        is_l = sides == 0
        l_rows = np.nonzero(is_l)[0]
        l_vals = lo[is_l]
        order = np.argsort(l_vals, kind="stable")
        l_rows, l_vals = l_rows[order], l_vals[order]
        out_l: list[np.ndarray] = []
        out_r: list[np.ndarray] = []
        for ri in np.nonzero(~is_l)[0]:
            s = np.searchsorted(l_vals, lo[ri], side="left")
            e = np.searchsorted(l_vals, hi[ri], side="right")
            if e <= s:
                continue
            # no cross-band duplicates are possible: a left row lives in
            # exactly one band group, and this interval copy was routed to
            # this group — every row in [s, e) is a match
            out_l.append(l_rows[s:e])
            out_r.append(np.full(e - s, ri, np.int64))
        li = np.concatenate(out_l) if out_l else np.array([], np.int64)
        ri_ = np.concatenate(out_r) if out_r else np.array([], np.int64)
        cols = {}
        for c in left_cols:
            cols[c] = group[f"l_{c}"].take(pa.array(li, pa.int64()))
        for c in right_cols:
            cols[c] = group[f"r_{c}"].take(pa.array(ri_, pa.int64()))
        return pa.table(cols)

    return both.groupby("bucket").map_groups(merge, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# bucketed equi-join (the planner's keyed-exchange plan)
# ---------------------------------------------------------------------------


def _key_buckets(col: pa.ChunkedArray | pa.Array, n_buckets: int) -> np.ndarray:
    """Stable bucket per key value: splitmix for integer keys, the
    vectorized polynomial rolling hash for strings (Python's builtin
    hash() is per-process-seeded — workers would route the same key to
    different buckets).  Bucket routing only affects which group a key
    lands in, never the joined rows, so the hash choice is free."""
    t = col.type
    if pa.types.is_integer(t):
        vals = col.to_numpy(zero_copy_only=False).astype(np.int64)
        return _bucket_i64(vals, n_buckets)
    from ..hashing import string_hash64

    return (string_hash64(col) % np.uint64(n_buckets)).astype(np.int64)


def bucket_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_on: str,
    right_on: str,
    how: str = "inner",
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
    n_buckets: int = 64,
    left_types: dict | None = None,
    right_types: dict | None = None,
    key_out: str | None = None,
) -> ray.data.Dataset:
    """Distributed equi-join built ONLY on groupby + per-group pyarrow
    acero joins — the keyed-exchange plan of ``cluster.equi_join``, used
    whenever the right side is too large to broadcast.

    Ray's own ``Dataset.join`` is not used: its hash-shuffle JoinOperator
    loses its one-shot schema broadcast to an empty first block (crash)
    and reserves large per-aggregator memory budgets (admission deadlock
    on small sessions).  This operator has neither failure mode: groupby
    handles empty blocks, and the per-group C++ ``pa.Table.join`` needs no
    standing aggregator actors.

    Plan: tag sides, bucket by a stable key hash (splitmix for ints, md5
    for strings), union, ONE keyed exchange (groupby bucket), then one
    local acero join per coarse bucket.

    ``how``: inner | left_outer | right_outer | full_outer | left_semi |
    left_anti.  The outer variants are exact here because bucketing by the
    key hash co-locates every occurrence of a key in ONE group — a
    right-only key surfaces exactly once (broadcast joins cannot offer
    this: the right side is complete per task, so right-only rows would
    replicate per left batch).

    Output columns: left_cols + right_cols (key columns included only if
    listed — but a listed left key is null on right-only rows of a
    full/right outer join; pass ``key_out`` to additionally emit the
    COALESCE(left key, right key) column acero produces, under that name,
    as the first output column).  Right key values must be unique for
    left_outer (acero replicates matches otherwise, same as SQL).
    """
    assert how in (
        "inner", "left_outer", "right_outer", "full_outer",
        "left_semi", "left_anti",
    ), how

    def _types(ds, override, side):
        # Dataset.schema() is None for a computed dataset that turns out
        # empty — callers joining such inputs pass the types explicitly
        if override is not None:
            return dict(override)
        sch = ds.schema()
        if sch is None:
            raise ValueError(
                f"bucket_join: {side} input has no derivable schema — pass "
                f"{side}_types"
            )
        base = sch.base_schema
        return {c: base.field(c).type for c in base.names}

    l_types = _types(left, left_types, "left")
    r_types = _types(right, right_types, "right")
    lcols = left_cols if left_cols is not None else list(l_types)
    rcols = right_cols if right_cols is not None else [
        c for c in r_types if c != right_on
    ]
    clash = sorted(set(lcols) & set(rcols))
    if clash:
        # output columns are keyed by bare name — a collision would
        # silently overwrite the left value with the right one
        raise ValueError(
            "bucket_join: left_cols and right_cols must be disjoint; "
            f"colliding column(s): {clash} — rename one side first"
        )
    if key_out is not None and key_out in set(lcols) | set(rcols):
        raise ValueError(
            f"bucket_join: key_out={key_out!r} collides with a payload column"
        )

    l_schema = {c: l_types[c] for c in set(lcols) | {left_on}}
    r_schema = {c: r_types[c] for c in set(rcols) | {right_on}}

    def prep(side: int, key: str, cols: list[str], schema: dict):
        def fn(batch: pa.Table) -> pa.Table:
            out = {
                "side": pa.array(
                    np.full(batch.num_rows, side, np.int8), pa.int8()
                ),
                "bucket": pa.array(
                    _key_buckets(batch[key], n_buckets), pa.int64()
                ),
            }
            # fixed field order on BOTH sides so the union's block schemas
            # agree exactly (divergent order is tolerated by the sort-based
            # exchange but trips Ray's schema-consistency warnings)
            out["__lkey"] = (
                batch[key].cast(l_schema[left_on])
                if side == 0
                else pa.nulls(batch.num_rows, l_schema[left_on])
            )
            out["__rkey"] = (
                pa.nulls(batch.num_rows, r_schema[right_on])
                if side == 0
                else batch[key].cast(r_schema[right_on])
            )
            for c in lcols:
                out[f"l_{c}"] = (
                    batch[c] if side == 0 else pa.nulls(batch.num_rows, l_schema[c])
                )
            for c in rcols:
                out[f"r_{c}"] = (
                    batch[c] if side == 1 else pa.nulls(batch.num_rows, r_schema[c])
                )
            return pa.table(out)

        return fn

    lt = left.map_batches(
        prep(0, left_on, lcols, l_schema), batch_format="pyarrow"
    )
    rt = right.map_batches(
        prep(1, right_on, rcols, r_schema), batch_format="pyarrow"
    )
    both = lt.union(rt)

    out_fields = [(c, l_schema[c]) for c in lcols] + [
        (c, r_schema[c]) for c in rcols
    ]
    if key_out is not None:
        out_fields = [(key_out, l_schema[left_on])] + out_fields

    def merge(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {name: pa.array([], typ) for name, typ in out_fields}
        )
        if "side" not in group.column_names or group.num_rows == 0:
            return empty
        sides = group["side"].to_numpy(zero_copy_only=False)
        l_mask = pa.array(sides == 0)
        r_mask = pa.array(sides == 1)
        ltab = pa.table(
            {left_on + "__k": group["__lkey"].filter(l_mask)}
            | {f"l_{c}": group[f"l_{c}"].filter(l_mask) for c in lcols}
        )
        rtab = pa.table(
            {right_on + "__k": group["__rkey"].filter(r_mask)}
            | {f"r_{c}": group[f"r_{c}"].filter(r_mask) for c in rcols}
        )
        how_arrow = {
            "inner": "inner",
            "left_outer": "left outer",
            "right_outer": "right outer",
            "full_outer": "full outer",
            "left_semi": "left semi",
            "left_anti": "left anti",
        }[how]
        joined = ltab.join(
            rtab,
            keys=[left_on + "__k"],
            right_keys=[right_on + "__k"],
            join_type=how_arrow,
        )
        cols = {}
        if key_out is not None:
            # acero coalesces COALESCE(left key, right key) into the left
            # key column for full outer; right outer keeps the right key
            key_col = (
                right_on + "__k"
                if how == "right_outer" and right_on + "__k" in joined.column_names
                else left_on + "__k"
            )
            cols[key_out] = joined[key_col].cast(l_schema[left_on])
        for c in lcols:
            cols[c] = joined[f"l_{c}"]
        for c in rcols:
            if f"r_{c}" in joined.column_names:
                cols[c] = joined[f"r_{c}"]
            else:  # semi/anti joins keep only left columns
                cols[c] = pa.nulls(joined.num_rows, r_schema[c])
        return pa.table(cols).cast(pa.schema(out_fields))

    return both.groupby("bucket").map_groups(merge, batch_format="pyarrow")
