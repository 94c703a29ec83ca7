"""Coarse-bucket exact aggregation — the engine's fast path for
high-cardinality GROUP BY.

Ray's built-in ``groupby().aggregate(Sum/Count/...)`` runs a Python
accumulator per key (measured ~3.7 s per 150k keys in this sandbox) — fine
for low-cardinality groups, painful for per-(user, day)-style keys.  This
operator keeps every interior in Arrow C++:

1. map side: per-block ``pa.Table.group_by`` combine (one partial row per
   key per block) + a combined-key coarse bucket column;
2. ONE keyed exchange on the bucket (64 coarse groups, so the sort-based
   shuffle moves small int keys);
3. per-bucket C++ ``group_by`` finalize.

Every supported aggregate decomposes into associative, order-independent
partials (sum→sum, min→min, max→max, count→sum, mean→sum+count), so
results are parallelism-invariant by construction.  SUM and MEAN are
restricted to integer inputs: a float sum's value depends on block
combination order, which would put nondeterminism under the driver's
bit-exact hash gate (scale float money to integer cents first, as the
repo's queries do).  No reference counterpart (the reference has no
aggregation surface).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..cluster import arrow_block_refs
from ..hashing import hash64_columns

AGG_FNS = ("sum", "min", "max", "count", "mean")


def _check_sum_type(schema: pa.Schema, col: str | None, fn: str) -> None:
    if fn not in ("sum", "mean"):
        return
    typ = schema.field(col).type
    if not (pa.types.is_integer(typ) or pa.types.is_boolean(typ)):
        raise ValueError(
            f"{fn}({col}): float sums are block-order-dependent — "
            "scale to integers (e.g. cents) first"
        )


def bucket_groupby_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: list[tuple[str | None, str, str]],
    *,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Exact ``SELECT keys, fn(col) AS out, ... GROUP BY keys`` with every
    interior in Arrow C++.

    ``aggs`` is a list of ``(col, fn, out_name)`` with ``fn`` one of
    ``sum | min | max | count | mean`` (``col`` is ignored for ``count``).
    Output columns are ``keys + [out_name...]``; integer sums/counts are
    int64, min/max keep the input type, mean is float64 (exact int64 sum ÷
    int64 count — one deterministic division per group).
    """
    if not aggs:
        raise ValueError("nothing to aggregate")
    # validate against the schema only when the plan knows it without
    # executing (sources, materialized inputs): on a lazy mapped input
    # ``Dataset.schema()`` runs a limit-1 pass of the whole upstream plan
    # and cancels its in-flight tasks.  Otherwise the partial pass checks
    # the column types of each batch it sees.
    sch = ds.schema(fetch_if_missing=False)
    base = sch.base_schema if sch is not None else None
    if base is not None and not isinstance(base, pa.Schema):
        # pandas-block dataset: numpy dtypes ride in schema.types
        names = list(base.names)
        types = list(base.types)
        fields = []
        for n_, t_ in zip(names, types):
            try:
                fields.append(pa.field(n_, pa.from_numpy_dtype(t_)))
            except (pa.ArrowNotImplementedError, TypeError):
                fields.append(pa.field(n_, pa.string()))
        base = pa.schema(fields)
    seen = set(keys)
    for col, fn, out in aggs:
        if fn not in AGG_FNS:
            raise ValueError(f"unsupported aggregate {fn!r}; one of {AGG_FNS}")
        if out in seen:
            raise ValueError(f"duplicate output column {out!r}")
        seen.add(out)
        if base is not None:
            _check_sum_type(base, col, fn)

    # the unique set of Arrow kernels the partial pass needs (dedup so
    # e.g. count + mean don't emit two colliding count_all columns)
    def partial(batch: pa.Table) -> pa.Table:
        if base is None and batch.num_rows:
            for col, fn, _out in aggs:
                _check_sum_type(batch.schema, col, fn)
        arrow_aggs: list = []
        for col, fn, out in aggs:
            if fn == "count" or fn == "mean":
                if ([], "count_all") not in arrow_aggs:
                    arrow_aggs.append(([], "count_all"))
            if fn == "mean" or fn == "sum":
                if (col, "sum") not in arrow_aggs:
                    arrow_aggs.append((col, "sum"))
            elif fn in ("min", "max"):
                if (col, fn) not in arrow_aggs:
                    arrow_aggs.append((col, fn))
        g = batch.group_by(keys).aggregate(arrow_aggs)
        cols = {k: g[k] for k in keys}
        for col, fn, out in aggs:
            if fn == "count":
                cols[out] = g["count_all"].cast(pa.int64())
            elif fn == "mean":
                cols[f"{out}__sum"] = g[f"{col}_sum"].cast(pa.int64())
                cols[f"{out}__n"] = g["count_all"].cast(pa.int64())
            elif fn == "sum":
                cols[out] = g[f"{col}_sum"].cast(pa.int64())
            else:  # min / max keep their input type
                cols[out] = g[f"{col}_{fn}"]
        t = pa.table(cols)
        bucket = hash64_columns(t, keys) % np.uint64(n_buckets)
        return t.append_column(
            "bucket", pa.array(bucket.astype(np.int64), pa.int64())
        )

    def finalize(group: pa.Table) -> pa.Table:
        arrow_aggs = []
        for col, fn, out in aggs:
            if fn in ("sum", "count"):
                arrow_aggs.append((out, "sum"))
            elif fn == "mean":
                arrow_aggs.append((f"{out}__sum", "sum"))
                arrow_aggs.append((f"{out}__n", "sum"))
            else:
                arrow_aggs.append((out, fn))
        g = group.group_by(keys).aggregate(arrow_aggs)
        cols = {k: g[k] for k in keys}
        for col, fn, out in aggs:
            if fn in ("sum", "count"):
                cols[out] = g[f"{out}_sum"].cast(pa.int64())
            elif fn == "mean":
                s = g[f"{out}__sum_sum"].cast(pa.float64())
                n = g[f"{out}__n_sum"].cast(pa.float64())
                cols[out] = pa.compute.divide(s, n)
            else:
                cols[out] = g[f"{out}_{fn}"]
        return pa.table(cols)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


def bucket_groupby_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    sum_cols: list[str],
    *,
    count_col: str | None = None,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Exact ``SELECT keys, SUM(c)..., COUNT(*) GROUP BY keys`` — thin
    wrapper over :func:`bucket_groupby_agg`."""
    aggs: list[tuple[str | None, str, str]] = [
        (c, "sum", c) for c in sum_cols
    ]
    if count_col is not None:
        aggs.append((None, "count", count_col))
    return bucket_groupby_agg(ds, keys, aggs, n_buckets=n_buckets)


def group_quantile_disc(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    q: float,
    *,
    out_col: str = "quantile",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """EXACT per-group discrete quantile (DuckDB ``quantile_disc``
    convention: the value at sorted index ``floor(q·(n−1))``) — one row
    per group.

    Histogram plan: the map side reduces each block to per-(group, value)
    counts in C++, ONE keyed exchange moves those partial histogram rows
    (volume = groups × distinct values per block, independent of row
    count), and the finalize walks each group's sorted histogram with a
    vectorized cumsum to pick the rank.  Exact and parallelism-invariant
    for any integer-ish value column whose distinct-value count is
    bounded (scores, lengths, cents); for unbounded doubles use the
    DDSketch quantiles in ``stages/sketches.py`` instead.
    """
    return _group_quantile(
        ds, keys, value_col, q, "disc", out_col=out_col, n_buckets=n_buckets
    )


def group_quantile_cont(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    q: float,
    *,
    out_col: str = "quantile",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """EXACT per-group INTERPOLATED quantile (SQL ``percentile_cont`` /
    DuckDB ``quantile_cont``), same histogram plan as
    ``group_quantile_disc``.  Output is float64, computed with DuckDB's
    own interpolation form ``v_lo·(⌈h⌉−h) + v_hi·(h−⌊h⌋)`` at
    ``h = q·(n−1)`` — the exact float expression, so results are
    bit-identical to the SQL oracle."""
    return _group_quantile(
        ds, keys, value_col, q, "cont", out_col=out_col, n_buckets=n_buckets
    )


def _group_quantile(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    q: float,
    mode: str,
    *,
    out_col: str,
    n_buckets: int,
) -> ray.data.Dataset:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    assert mode in ("disc", "cont"), mode

    partial = _make_hist_partial(keys, value_col, n_buckets)

    def finalize(group: pa.Table) -> pa.Table:
        # merge duplicate (keys, value) partials from different blocks
        g = group.group_by(keys + [value_col]).aggregate([("__cnt", "sum")])
        n = g.num_rows
        if n == 0:
            return pa.table(
                {
                    **{k: g[k] for k in keys},
                    out_col: (
                        g[value_col]
                        if mode == "disc"
                        else g[value_col].cast(pa.float64())
                    ),
                }
            )
        order, starts, ends, val_s, cnt_s = _hist_group_walk(
            g, keys, value_col
        )
        csum = np.cumsum(cnt_s)
        run_base = np.where(starts > 0, csum[starts - 1], 0)
        run_tot = csum[ends - 1] - run_base
        # zero-indexed target ranks.  DISC and CONT use DIFFERENT DuckDB
        # conventions: quantile_disc picks the smallest value whose CDF
        # reaches q — rank ceil(q·n) − 1 (probed against DuckDB across
        # (q, n) grids; floor(q·(n−1)) diverges at e.g. q=0.95, n=210) —
        # while quantile_cont interpolates at h = q·(n−1).
        h = q * (run_tot - 1).astype(np.float64)
        frn = np.floor(h).astype(np.int64)
        rank = _disc_rank(run_tot, q) if mode == "disc" else frn
        # first histogram row whose cumulative count exceeds the rank
        pick_lo = np.searchsorted(csum, run_base + rank, side="right")
        lo_rows = order[pick_lo]
        out_cols = {k: g[k].take(pa.array(lo_rows)) for k in keys}
        if mode == "disc":
            out_cols[out_col] = g[value_col].take(pa.array(lo_rows))
        else:
            # DuckDB's quantile_cont interpolation, term for term:
            # v_lo*(CRN - h) + v_hi*(h - FRN), v_lo when CRN == FRN
            crn = np.ceil(h).astype(np.int64)
            pick_hi = np.searchsorted(csum, run_base + crn, side="right")
            vals_f = val_s.astype(np.float64)
            vlo = vals_f[pick_lo]
            vhi = vals_f[pick_hi]
            out = np.where(
                crn == frn, vlo, vlo * (crn - h) + vhi * (h - frn)
            )
            out_cols[out_col] = pa.array(out, pa.float64())
        return pa.table(out_cols)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


def group_median_mad(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    *,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """EXACT per-group (count, median, MAD) in ONE histogram pass —
    ``median = quantile_disc(v, 0.5)`` and ``MAD = quantile_disc(|v −
    median|, 0.5)`` with DuckDB's disc convention (rank ``ceil(q·n) − 1``)
    at BOTH stages.

    The naive formulation scans the corpus twice (median, then
    deviations).  The second scan is redundant: the deviation multiset is
    a pure FOLD of the group's value histogram around its median
    (``|v − med|`` with the same counts), so once the histogram exchange
    has merged each group's (value, count) rows, one finalize task
    computes all three statistics in memory.  Same plan and exchange
    volume as :func:`group_quantile_disc` (groups × distinct values,
    independent of row count); the per-group fold walk is a numpy loop
    over the bucket's groups — fine for the bounded group domains this
    kernel targets (event types, languages, labels)."""
    partial = _make_hist_partial(keys, value_col, n_buckets)

    def finalize(group: pa.Table) -> pa.Table:
        g = group.group_by(keys + [value_col]).aggregate([("__cnt", "sum")])
        n = g.num_rows
        if n == 0:
            return pa.table(
                {
                    **{k: g[k] for k in keys},
                    "n": pa.array([], pa.int64()),
                    "median": pa.array([], g.schema.field(value_col).type),
                    "mad": pa.array([], g.schema.field(value_col).type),
                }
            )
        order, starts, ends, val_s, cnt_s = _hist_group_walk(
            g, keys, value_col
        )
        rows, ns, meds, mads = [], [], [], []
        for s, e in zip(starts, ends):
            v, c = val_s[s:e], cnt_s[s:e]
            csum = np.cumsum(c)
            tot = int(csum[-1])
            rank = _disc_rank(tot, 0.5)
            med = v[np.searchsorted(csum, rank, side="right")]
            dev = np.abs(v - med)
            o2 = np.argsort(dev, kind="stable")
            csum2 = np.cumsum(c[o2])
            mad = dev[o2][np.searchsorted(csum2, rank, side="right")]
            rows.append(order[s])
            ns.append(tot)
            meds.append(med)
            mads.append(mad)
        take = pa.array(np.asarray(rows, np.int64))
        vt = g.schema.field(value_col).type
        return pa.table(
            {
                **{k: g[k].take(take) for k in keys},
                "n": pa.array(ns, pa.int64()),
                "median": pa.array(np.asarray(meds)).cast(vt),
                "mad": pa.array(np.asarray(mads)).cast(vt),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


def _disc_rank(tot, q: float):
    """DuckDB ``quantile_disc``'s zero-indexed target rank — the smallest
    value whose CDF reaches q: ``ceil(q·n) − 1`` (NOT ``floor(q·(n−1))``,
    which diverges at e.g. q=0.95, n=210; probed against DuckDB across
    (q, n) grids).  ``tot`` may be a scalar int or an int64 ndarray; the
    return matches (Python int / ndarray)."""
    if isinstance(tot, np.ndarray):
        return np.maximum(
            np.ceil(q * tot.astype(np.float64)).astype(np.int64) - 1, 0
        )
    return max(int(np.ceil(q * tot)) - 1, 0)


def _hist_group_walk(g: pa.Table, keys: list[str], value_col: str):
    """Shared segment walk over a merged (keys, value, __cnt_sum)
    histogram table: sorts rows by (group, value) using exact per-column
    dictionary codes as the run delimiter (codes order differently than
    values — irrelevant, only run identity matters — and unlike a 64-bit
    hash they cannot merge two distinct groups) and returns
    ``(order, starts, ends, sorted_values, sorted_counts)`` where
    ``starts[i]:ends[i]`` slices group i's value-ascending histogram."""
    n = g.num_rows

    def _codes(col) -> np.ndarray:
        enc = pa.compute.dictionary_encode(col)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)

    codes = [_codes(g[k]) for k in keys]
    val = g[value_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((val, *codes[::-1]))
    codes_s = [c[order] for c in codes]
    changed = np.zeros(n - 1, bool) if n else np.zeros(0, bool)
    for c in codes_s:
        changed |= c[1:] != c[:-1]
    val_s = val[order]
    cnt_s = g["__cnt_sum"].to_numpy(zero_copy_only=False)[order]
    starts = np.flatnonzero(np.r_[True, changed]) if n else np.zeros(0, np.int64)
    ends = np.r_[starts[1:], n] if n else np.zeros(0, np.int64)
    return order, starts, ends, val_s, cnt_s


def group_quantiles_disc(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    qs: list[float],
    out_cols: list[str],
    *,
    count_col: str | None = None,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """EXACT per-group discrete quantiles at SEVERAL probabilities in ONE
    histogram pass — one output column per ``qs`` entry (DuckDB
    ``quantile_disc`` convention at each), plus an optional group count.
    A per-q ``group_quantile_disc`` chain would scan and exchange once per
    probability; all of them are ranks into the same sorted (value, count)
    histogram, so one exchange and one walk serve any number."""
    if len(qs) != len(out_cols) or not qs:
        raise ValueError("qs and out_cols must be equal-length, non-empty")
    if any(not 0.0 <= q <= 1.0 for q in qs):
        raise ValueError(f"every q must be in [0, 1], got {qs}")
    partial = _make_hist_partial(keys, value_col, n_buckets)

    def finalize(group: pa.Table) -> pa.Table:
        g = group.group_by(keys + [value_col]).aggregate([("__cnt", "sum")])
        n = g.num_rows
        vt = g.schema.field(value_col).type
        if n == 0:
            cols = {k: g[k] for k in keys}
            if count_col:
                cols[count_col] = pa.array([], pa.int64())
            for oc in out_cols:
                cols[oc] = pa.array([], vt)
            return pa.table(cols)
        order, starts, ends, val_s, cnt_s = _hist_group_walk(
            g, keys, value_col
        )
        rows, ns = [], []
        picks: list[list] = [[] for _ in qs]
        for s, e in zip(starts, ends):
            v, c = val_s[s:e], cnt_s[s:e]
            csum = np.cumsum(c)
            tot = int(csum[-1])
            rows.append(order[s])
            ns.append(tot)
            for j, q in enumerate(qs):
                picks[j].append(
                    v[np.searchsorted(csum, _disc_rank(tot, q), side="right")]
                )
        take = pa.array(np.asarray(rows, np.int64))
        cols = {k: g[k].take(take) for k in keys}
        if count_col:
            cols[count_col] = pa.array(ns, pa.int64())
        for oc, pk in zip(out_cols, picks):
            cols[oc] = pa.array(np.asarray(pk)).cast(vt)
        return pa.table(cols)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


def group_winsorized(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    q_lo: float = 0.05,
    q_hi: float = 0.95,
    *,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """EXACT per-group winsorized statistics in ONE histogram pass — the
    ``quantile_disc`` bounds at ``q_lo``/``q_hi`` plus the count, sum and
    mean of values CLAMPED to those bounds.  One row per group:
    ``keys + (lo, hi, n, s, mean)`` with ``mean = s::float64 / n`` (the
    single SQL-replicable division).

    The naive formulation pays two quantile scans plus a clamp scan; all
    three statistics are functions of the group's (value, count)
    histogram, so one exchange and one finalize walk suffice — the
    clamped sum is ``Σ clamp(v, lo, hi)·cnt`` over histogram rows (int64;
    fine while Σ|v|·n stays under 2⁶³, i.e. any realistic cents
    corpus)."""
    if not (0.0 <= q_lo <= q_hi <= 1.0):
        raise ValueError(f"need 0 <= q_lo <= q_hi <= 1, got {q_lo}, {q_hi}")
    partial = _make_hist_partial(keys, value_col, n_buckets)

    def finalize(group: pa.Table) -> pa.Table:
        g = group.group_by(keys + [value_col]).aggregate([("__cnt", "sum")])
        n = g.num_rows
        vt = g.schema.field(value_col).type
        if n == 0:
            return pa.table(
                {
                    **{k: g[k] for k in keys},
                    "lo": pa.array([], vt),
                    "hi": pa.array([], vt),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                    "mean": pa.array([], pa.float64()),
                }
            )
        order, starts, ends, val_s, cnt_s = _hist_group_walk(
            g, keys, value_col
        )
        rows, los, his, ns, sums = [], [], [], [], []
        for s, e in zip(starts, ends):
            v, c = val_s[s:e], cnt_s[s:e]
            csum = np.cumsum(c)
            tot = int(csum[-1])
            lo = v[np.searchsorted(csum, _disc_rank(tot, q_lo), side="right")]
            hi = v[np.searchsorted(csum, _disc_rank(tot, q_hi), side="right")]
            cc = np.minimum(np.maximum(v, lo), hi)
            rows.append(order[s])
            los.append(lo)
            his.append(hi)
            ns.append(tot)
            sums.append(int((cc * c).sum()))
        take = pa.array(np.asarray(rows, np.int64))
        s_arr = np.asarray(sums, np.int64)
        n_arr = np.asarray(ns, np.int64)
        return pa.table(
            {
                **{k: g[k].take(take) for k in keys},
                "lo": pa.array(np.asarray(los)).cast(vt),
                "hi": pa.array(np.asarray(his)).cast(vt),
                "n": pa.array(n_arr, pa.int64()),
                "s": pa.array(s_arr, pa.int64()),
                "mean": pa.array(
                    s_arr.astype(np.float64) / n_arr, pa.float64()
                ),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


def _make_hist_partial(keys: list[str], value_col: str, n_buckets: int):
    """Map side of the group-histogram exchange shared by the quantile
    and equi-depth kernels: reduce each block to per-(group, value)
    counts in C++ and tag each row with its group-hash bucket."""

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(keys + [value_col]).aggregate([([], "count_all")])
        cols = {k: g[k] for k in keys}
        cols[value_col] = g[value_col]
        cols["__cnt"] = g["count_all"].cast(pa.int64())
        t = pa.table(cols)
        bucket = hash64_columns(t, keys) % np.uint64(n_buckets)
        return t.append_column(
            "bucket", pa.array(bucket.astype(np.int64), pa.int64())
        )

    return partial


def group_equidepth(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    n_tiles: int,
    *,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """EXACT per-group equi-depth histogram — one row per NON-EMPTY tile
    of SQL ``ntile(n_tiles) OVER (PARTITION BY keys ORDER BY value)``
    with the tile's row count and value min/max.  DuckDB's fill rule is
    replicated exactly: the first ``n mod B`` tiles take ``ceil(n/B)``
    rows, the rest ``floor(n/B)`` (for ``n < B`` that is one row in each
    of the first ``n`` tiles).  Output is tie-order invariant: tile
    counts and min/max depend only on the sorted VALUE sequence, never
    on which of several equal-valued rows lands where.

    Same histogram plan as ``group_quantile_*``: per-block (group,
    value) counts in C++, ONE keyed exchange carrying histogram rows
    (volume = groups × distinct values per block, independent of row
    count), and a vectorized searchsorted walk per bucket task.  Like
    the quantile kernels it requires a bounded distinct-value count;
    nulls in ``value_col`` are not supported."""
    if n_tiles < 1:
        raise ValueError(f"n_tiles must be >= 1, got {n_tiles}")

    partial = _make_hist_partial(keys, value_col, n_buckets)

    def finalize(group: pa.Table) -> pa.Table:
        g = group.group_by(keys + [value_col]).aggregate([("__cnt", "sum")])
        n = g.num_rows
        if n == 0:
            return pa.table(
                {
                    **{k: g[k] for k in keys},
                    "tile": pa.array([], pa.int64()),
                    "n_rows": pa.array([], pa.int64()),
                    "min_value": g[value_col],
                    "max_value": g[value_col],
                }
            )

        order, starts, ends, val_s, cnt_s = _hist_group_walk(
            g, keys, value_col
        )
        csum = np.cumsum(cnt_s)
        run_base = np.where(starts > 0, csum[starts - 1], 0)
        run_tot = csum[ends - 1] - run_base  # rows per group

        # tiles per group: min(n_tiles, rows); fan groups out to tiles
        k = np.minimum(run_tot, n_tiles).astype(np.int64)
        total = int(k.sum())
        off = np.r_[0, np.cumsum(k)[:-1]]
        gidx = np.repeat(np.arange(len(k)), k)
        tile = np.arange(total, dtype=np.int64) - off[gidx] + 1  # 1-based
        base = run_tot[gidx] // n_tiles
        extra = run_tot[gidx] % n_tiles
        size = base + (tile <= extra)
        start = (tile - 1) * base + np.minimum(tile - 1, extra)
        # global zero-indexed ranks of each tile's first/last row
        lo = run_base[gidx] + start
        hi = lo + size - 1
        pick_lo = np.searchsorted(csum, lo, side="right")
        pick_hi = np.searchsorted(csum, hi, side="right")
        key_rows = order[pick_lo]
        out_cols = {kk: g[kk].take(pa.array(key_rows)) for kk in keys}
        out_cols["tile"] = pa.array(tile, pa.int64())
        out_cols["n_rows"] = pa.array(size, pa.int64())
        out_cols["min_value"] = g[value_col].take(pa.array(order[pick_lo]))
        out_cols["max_value"] = g[value_col].take(pa.array(order[pick_hi]))
        return pa.table(out_cols)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


def _first_per_key(tab: pa.Table, keys: list[str], order_by: list) -> pa.Table:
    """First row of each key group after an Arrow C++ sort by
    ``keys + order_by`` — run boundaries via exact dictionary codes."""
    if tab.num_rows == 0:
        return tab
    s = tab.sort_by([(k, "ascending") for k in keys] + order_by)
    n = s.num_rows

    def _codes(col) -> np.ndarray:
        enc = pa.compute.dictionary_encode(col)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)

    changed = np.zeros(n - 1, bool)
    for k in keys:
        c = _codes(s[k])
        changed |= c[1:] != c[:-1]
    starts = np.flatnonzero(np.r_[True, changed])
    return s.take(pa.array(starts))


def latest_by_key(
    ds: ray.data.Dataset,
    keys: list[str],
    *,
    order_col: str,
    tiebreak_col: str,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """CDC-style compaction: the single LATEST row per key — max
    ``(order_col, tiebreak_col)`` wins, ties impossible if the tiebreak is
    unique (SQL ``row_number() OVER (PARTITION BY keys ORDER BY order
    DESC, tiebreak DESC) = 1``).

    Map side reduces each block to one candidate row per key (C++ sort +
    dictionary-code run walk — the winner for a key in a block beats every
    other row of that key in the block, so dropping the rest is safe);
    ONE keyed exchange moves only those candidates; the finalize repeats
    the same reduction per bucket.  The whole winning ROW rides through,
    so arbitrary payload columns survive byte-exact — this is the
    compaction an event-log → current-state table needs.
    """
    order_by = [(order_col, "descending"), (tiebreak_col, "descending")]

    def partial(batch: pa.Table) -> pa.Table:
        t = _first_per_key(batch, keys, order_by)
        bucket = hash64_columns(t, keys) % np.uint64(n_buckets)
        return t.append_column(
            "bucket", pa.array(bucket.astype(np.int64), pa.int64())
        )

    def finalize(group: pa.Table) -> pa.Table:
        return _first_per_key(group.drop_columns(["bucket"]), keys, order_by)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


def pivot_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    pivot_col: str,
    pivot_values: list[str],
    *,
    value_col: str | None = None,
    prefix: str = "n_",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """SQL PIVOT — one output column per ``pivot_values`` entry holding
    the per-key COUNT of rows with that pivot value (or the SUM of
    ``value_col`` over them), i.e. ``SUM(CASE WHEN pivot_col = v THEN …
    ELSE 0 END)`` for each v.  Note the ELSE 0: a (key, value) cell with
    no matching rows is 0 here, where CASE-without-ELSE / DuckDB PIVOT
    would yield NULL — the COALESCE'd form is what count matrices want,
    and it keeps every output column non-null int64.

    ``pivot_values`` is explicit by design: at 10^12 rows, discovering
    the column set from the data is a separate (cheap) distinct pass the
    caller runs first — an implicit discovery hidden inside the operator
    would make the output schema data-dependent and the shuffle
    unplannable.  Unlisted pivot values are ignored, like SQL PIVOT IN.

    Plan: one streaming map materializes the CASE columns (a boolean cast
    / masked multiply per pivot value, all Arrow C++), then the standard
    coarse-bucket aggregate — the exchange carries one partial row per
    (block, key), with ``len(pivot_values)`` int64 columns."""
    if not pivot_values:
        raise ValueError("pivot_values must be non-empty")
    out_names = [f"{prefix}{v}" for v in pivot_values]
    clash = set(out_names) & set(keys)
    if clash:
        raise ValueError(f"pivot output columns collide with keys: {clash}")

    def widen(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cols = {k: batch[k] for k in keys}
        pv = batch[pivot_col]
        for v, out in zip(pivot_values, out_names):
            mask = pc.cast(pc.equal(pv, v), pa.int64())
            # NULL pivot values compare to null — count them as 0, like
            # SQL's CASE WHEN NULL THEN ... ELSE 0
            mask = pc.fill_null(mask, 0)
            if value_col is not None:
                mask = pc.multiply(mask, batch[value_col].cast(pa.int64()))
            cols[out] = mask
        return pa.table(cols)

    return bucket_groupby_agg(
        ds.map_batches(widen, batch_format="pyarrow"),
        keys,
        [(c, "sum", c) for c in out_names],
        n_buckets=n_buckets,
    )


def group_count_distinct(
    ds: ray.data.Dataset,
    keys: list[str],
    distinct_cols: list[str],
    *,
    column_col: str = "column",
    out_col: str = "n_distinct",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Grouped multi-column COUNT(DISTINCT …) — exact, one exchange.

    The classic shuffle-heavy aggregate: for each target column, the map
    side reduces a block to its distinct (keys, value) pairs in C++ and
    tags them with the column's ordinal; ONE keyed exchange (bucketed on
    the key hash, so every column's pairs for a key co-locate) then
    re-distincts per bucket and counts pairs per (key, column) — all in
    C++.  Exchange volume is Σ_c (block-distinct pairs of c), independent
    of row count.  Values are normalized to strings for the tagged union
    (exactness is unaffected — distinctness is preserved by any injective
    cast).  For approximate counts at extreme cardinality use
    ``sketches.group_hll_distinct``.

    Output is LONG format — keys + ``column`` (source column name) +
    ``n_distinct`` — so the schema never depends on len(distinct_cols);
    pivot with :func:`pivot_sum` if a wide layout is wanted.  NULLs are
    excluded like SQL; one divergence: a key whose values are ALL null
    emits no row for that column (SQL's GROUP BY would keep it with 0)
    because the pair stream carries nothing for it — left-join against a
    key universe if zero rows matter.
    """
    if not distinct_cols:
        raise ValueError("group_count_distinct: distinct_cols is empty")

    def partial(batch: pa.Table) -> pa.Table:
        parts = []
        for ci, c in enumerate(distinct_cols):
            # SQL COUNT(DISTINCT c) ignores NULLs — drop them before the
            # distinct so a null never counts as a value
            sub = batch.select(keys + [c]).filter(
                pa.compute.is_valid(batch[c])
            )
            g = sub.group_by(keys + [c]).aggregate([])
            t = pa.table(
                {
                    **{k: g[k] for k in keys},
                    "__col": pa.repeat(pa.scalar(ci, pa.int32()), g.num_rows),
                    "__val": pa.compute.cast(g[c], pa.string()),
                }
            )
            parts.append(t)
        out = pa.concat_tables(parts)
        bucket = hash64_columns(out, keys) % np.uint64(n_buckets)
        return out.append_column(
            "bucket", pa.array(bucket.astype(np.int64), pa.int64())
        )

    name_lookup = pa.array(distinct_cols, pa.string())

    def finalize(group: pa.Table) -> pa.Table:
        g = group.group_by(keys + ["__col", "__val"]).aggregate([])
        counts = g.group_by(keys + ["__col"]).aggregate([([], "count_all")])
        names = name_lookup.take(counts["__col"])
        return pa.table(
            {
                **{k: counts[k] for k in keys},
                column_col: names,
                out_col: counts["count_all"].cast(pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


def melt(
    ds: ray.data.Dataset,
    id_cols: list[str],
    value_cols: list[str],
    *,
    var_col: str = "variable",
    val_col: str = "value",
) -> ray.data.Dataset:
    """SQL UNPIVOT — the inverse of :func:`pivot_sum`: each input row
    fans out to one output row per ``value_cols`` entry, carrying the id
    columns, the source column's NAME (``var_col``) and its value
    (``val_col``).

    Pure vectorized flat-map, zero exchange: per column, the constant
    name array is a C++ ``pa.repeat`` and the values ride zero-copy; the
    per-column tables concatenate inside the batch.  All ``value_cols``
    must share one type (cast first if not) — like SQL UNPIVOT."""
    if not value_cols:
        raise ValueError("melt: value_cols must be non-empty")
    sch = ds.schema()
    if sch is None:
        # a computed dataset that turns out empty has no derivable schema
        raise ValueError(
            "melt: input has no derivable schema (empty computed dataset?)"
        )
    base = sch.base_schema
    vtypes = {c: base.field(c).type for c in value_cols}
    if len(set(map(str, vtypes.values()))) > 1:
        raise ValueError(
            f"melt: value_cols must share one type, got {vtypes} — cast first"
        )

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        parts = [
            pa.table(
                {
                    **{k: batch[k] for k in id_cols},
                    var_col: pa.repeat(pa.scalar(c), n),
                    val_col: batch[c],
                }
            )
            for c in value_cols
        ]
        return pa.concat_tables(parts)

    return ds.map_batches(fn, batch_format="pyarrow")


def _grand_total(prev: ray.data.Dataset, value_cols: list[str]) -> ray.data.Dataset:
    """Associative global int64 sum of ``value_cols`` over an already-
    reduced dataset: per-block partial sums (one row per block, bounded
    driver state), summed on the driver."""

    def total(batch: pa.Table, _vc=tuple(value_cols)) -> pa.Table:
        return pa.table(
            {
                c: pa.array(
                    [pa.compute.sum(batch[c]).as_py() or 0], pa.int64()
                )
                for c in _vc
            }
        )

    parts = prev.select_columns(value_cols).map_batches(
        total, batch_format="pyarrow"
    ).take_all()  # bounded: one row per block
    return ray.data.from_arrow(
        pa.table(
            {
                c: pa.array([sum(r[c] for r in parts)], pa.int64())
                for c in value_cols
            }
        )
    )


# past this base-level size the CUBE/ROLLUP sub-levels derive through
# distributed exchanges; under it the reduced lattice fits the driver and
# every sub-level is a local pyarrow re-aggregate (zero further exchanges)
LATTICE_DRIVER_MAX_BYTES = 64 << 20


def _lattice_driver_levels(
    base_t: pa.Table,
    subsets: list[tuple],
    keys: list[str],
    key_types: dict,
    value_cols: list[str],
) -> ray.data.Dataset:
    """Driver finish for the CUBE/ROLLUP lattice: the finest level is
    already reduced to group-count rows, so when it fits the driver every
    coarser subset is one local pyarrow ``group_by`` over it — byte-equal
    to the distributed derivation (int64 partials are associative) with
    zero further exchanges or materialization barriers."""
    _null_fill = _make_null_fill(keys, key_types, value_cols)
    tables = [_null_fill(base_t, keys)]
    for sub in subsets:
        if sub:
            g = base_t.group_by(list(sub)).aggregate(
                [(c, "sum") for c in value_cols]
            )
            g = pa.table(
                {
                    **{k: g[k] for k in sub},
                    **{
                        c: g[f"{c}_sum"].cast(pa.int64())
                        for c in value_cols
                    },
                }
            )
        else:
            g = pa.table(
                {
                    c: pa.array(
                        [int(pa.compute.sum(base_t[c]).as_py() or 0)],
                        pa.int64(),
                    )
                    for c in value_cols
                }
            )
        tables.append(_null_fill(g, list(sub)))
    return ray.data.from_arrow(
        pa.concat_tables(tables, promote_options="default")
    )


def _lattice_use_driver(base: ray.data.Dataset) -> bool:
    from ..cluster import dataset_size_estimate

    est = dataset_size_estimate(base)
    return est is not None and est <= LATTICE_DRIVER_MAX_BYTES


def _lattice_collect_base(
    base: ray.data.Dataset,
    keys: list[str],
    key_types: dict,
    value_cols: list[str],
) -> pa.Table:
    """Collect the materialized finest level for the driver finish,
    synthesizing a typed empty table when the input had no rows."""
    from ..cluster import collect_table

    base_t = collect_table(base)
    if base_t is None:
        base_t = pa.table(
            {
                **{k: pa.array([], key_types[k]) for k in keys},
                **{c: pa.array([], pa.int64()) for c in value_cols},
            }
        )
    return base_t


def _make_null_fill(keys: list[str], key_types: dict, value_cols: list[str]):
    """Shared ROLLUP/CUBE level renderer: key columns absent from a level
    become typed nulls; value columns pass through."""

    def _null_fill(t: pa.Table, present: list[str]) -> pa.Table:
        cols = {}
        for k in keys:
            cols[k] = (
                t[k] if k in present else pa.nulls(t.num_rows, key_types[k])
            )
        for c in value_cols:
            cols[c] = t[c]
        return pa.table(cols)

    return _null_fill


def cube_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    sum_cols: list[str],
    *,
    count_col: str = "n",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """SQL ``GROUP BY CUBE(keys...)``: aggregates at EVERY subset of the
    key columns (2^k levels), absent key columns null.

    Same one-corpus-pass lattice strategy as :func:`rollup_sum`: the
    finest level runs through :func:`bucket_groupby_sum` and is
    materialized; then — since that level is already reduced to
    group-count rows — when it fits the driver
    (``LATTICE_DRIVER_MAX_BYTES``) every other subset derives as one
    local pyarrow re-aggregate with ZERO further exchanges, else each
    subset re-aggregates an already-computed superset ONE key larger
    through its own exchange (any such parent gives the same exact
    result — int64 partials are associative; both plans byte-equal under
    the plan-equality test).  ``len(keys)`` is capped at 4 (16 levels) —
    beyond that GROUPING SETS explosions are a modeling problem, not an
    engine one.
    """
    from itertools import combinations

    if not keys:
        raise ValueError("cube needs at least one key")
    if len(keys) > 4:
        raise ValueError("cube_sum supports at most 4 keys (16 levels)")
    base = bucket_groupby_sum(
        ds, keys, sum_cols, count_col=count_col, n_buckets=n_buckets
    ).materialize()
    value_cols = list(sum_cols) + [count_col]
    base_schema = base.schema().base_schema
    key_types = {k: base_schema.field(k).type for k in keys}

    if _lattice_use_driver(base):
        subsets = [
            sub
            for depth in range(len(keys) - 1, -1, -1)
            for sub in combinations(keys, depth)
        ]
        return _lattice_driver_levels(
            _lattice_collect_base(base, keys, key_types, value_cols),
            subsets,
            keys,
            key_types,
            value_cols,
        )

    _null_fill = _make_null_fill(keys, key_types, value_cols)

    computed: dict[tuple, ray.data.Dataset] = {tuple(keys): base}
    levels = [
        base.map_batches(lambda b: _null_fill(b, keys), batch_format="pyarrow")
    ]
    for depth in range(len(keys) - 1, -1, -1):
        for sub in combinations(keys, depth):
            parent = next(
                p for p in computed if len(p) == depth + 1 and set(sub) <= set(p)
            )
            if sub:
                nxt = bucket_groupby_sum(
                    computed[parent].select_columns(list(sub) + value_cols),
                    list(sub),
                    value_cols,
                    n_buckets=n_buckets,
                ).materialize()
            else:
                nxt = _grand_total(computed[parent], value_cols)
            computed[sub] = nxt
            levels.append(
                nxt.map_batches(
                    lambda b, _p=sub: _null_fill(b, list(_p)),
                    batch_format="pyarrow",
                )
            )
    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def rollup_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    sum_cols: list[str],
    *,
    count_col: str = "n",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """SQL ``GROUP BY ROLLUP(keys...)``: aggregates at every prefix level
    (full keys → …, first key → grand total), rolled-up key columns null.

    The corpus is scanned ONCE: the finest level runs through
    :func:`bucket_groupby_sum` and is materialized (it is already
    reduced to one row per key combination); when it fits the driver
    (``LATTICE_DRIVER_MAX_BYTES``) every coarser prefix derives as one
    local pyarrow re-aggregate with zero further exchanges, else each
    level re-aggregates the PREVIOUS level's output through its own
    exchange over group-count rows — never a second corpus pass either
    way.  Sums/counts are int64 partials, so every level is exact and
    parallelism-invariant.
    """
    if not keys:
        raise ValueError("rollup needs at least one key")
    base = bucket_groupby_sum(
        ds, keys, sum_cols, count_col=count_col, n_buckets=n_buckets
    ).materialize()
    value_cols = list(sum_cols) + [count_col]
    base_schema = base.schema().base_schema
    key_types = {k: base_schema.field(k).type for k in keys}

    if _lattice_use_driver(base):
        subsets = [
            tuple(keys[:depth]) for depth in range(len(keys) - 1, -1, -1)
        ]
        return _lattice_driver_levels(
            _lattice_collect_base(base, keys, key_types, value_cols),
            subsets,
            keys,
            key_types,
            value_cols,
        )

    _null_fill = _make_null_fill(keys, key_types, value_cols)

    levels = [
        base.map_batches(
            lambda b: _null_fill(b, keys), batch_format="pyarrow"
        )
    ]
    prev = base
    for depth in range(len(keys) - 1, -1, -1):
        sub = keys[:depth]
        if sub:
            nxt = bucket_groupby_sum(
                prev.select_columns(sub + value_cols),
                sub,
                value_cols,
                n_buckets=n_buckets,
            ).materialize()
        else:
            nxt = _grand_total(prev, value_cols)
        levels.append(
            nxt.map_batches(
                lambda b, _p=tuple(sub): _null_fill(b, list(_p)),
                batch_format="pyarrow",
            )
        )
        prev = nxt
    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


_I64_SAFE = int((2**63 - 1) * 0.9)
_ZS_SQRT_SAFE = int((_I64_SAFE) ** 0.5)  # |v| bound so v*v can't wrap


def group_standardize(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    *,
    min_abs_z: float | None = None,
    max_groups: int = 2_000_000,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Grouped z-score standardization (the StandardScaler of feature
    pipelines): for each row, ``z = (v − μ_g) / σ_g`` with the group's
    POPULATION mean/std, per the engine's exactness contract — both pass
    through exact int64 moments ``(n, Σv, Σv²)`` and finish with the
    pinned float recipe the SQL oracle mirrors term-for-term::

        μ  = double(Σv) / double(n)
        σ  = sqrt(double(n·Σv² − (Σv)²)) / double(n)
        z  = (double(v) − μ) / σ

    ``sqrt`` and the arithmetic ops are IEEE-correctly-rounded, so numpy
    and DuckDB agree bit-for-bit (unlike ``log`` — see
    ``source_lang_entropy``).  Zero-variance groups (including n=1) have
    no defined z: their rows are DROPPED when ``min_abs_z`` is set (they
    cannot be outliers) and carry NULL z otherwise.

    Plan — two streaming scans, zero row-level exchange:

    1. moments pass: per-block C++ ``group_by`` partials through
       :func:`bucket_groupby_agg` (sum/sumsq/count/max|v|) reduce to ONE
       row per group; the reduced table collects to the driver (capped at
       ``max_groups`` — a wider domain needs the bucketed-join
       standardizer, raise named) where ``n·Σv² − (Σv)²`` runs in exact
       Python ints and the int64 moment horizon is checked HONESTLY:
       count and max are wrap-free aggregates, so ``n·max|v|² ≤ I64_SAFE``
       proves after the fact that no Σv² partial could have wrapped;
    2. standardize pass: the per-group (μ, σ) vectors broadcast once via
       ``ray.put`` keyed by the group-key hash64 (driver-side collision
       check over the full hash list makes the lookup exact, not
       probabilistic) and each block probes them with one searchsorted.

    The value column must be integer (quantize floats to cents/ppm per
    the engine convention) with ``|v| ≤ ~3.03e9`` so ``v²`` fits int64.
    """
    import ray as _ray

    schema = ds.schema().base_schema
    names = list(schema.names)
    for c in [*keys, value_col]:
        if c not in names:
            raise ValueError(f"column {c!r} not in the input")
    if isinstance(schema, pa.Schema):
        vtyp = schema.field(value_col).type
        is_int = pa.types.is_integer(vtyp)
    else:  # pandas-block dataset: numpy dtypes ride in schema.types
        vtyp = schema.types[names.index(value_col)]
        is_int = np.issubdtype(vtyp, np.integer)
    if not is_int:
        raise ValueError(
            f"{value_col!r} must be integer (got {vtyp}) — quantize floats "
            "to cents/ppm per the engine convention"
        )

    def derive(batch: pa.Table) -> pa.Table:
        col = batch[value_col]
        if col.null_count:
            raise ValueError(
                f"group_standardize: {value_col!r} contains nulls — a null "
                "has no z-score; filter or impute first"
            )
        v = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        if v.size:
            m = int(np.abs(v).max())
            if m > _ZS_SQRT_SAFE:
                raise ValueError(
                    f"group_standardize: |{value_col}| up to {m} overflows "
                    "the int64 v² horizon — rescale the quantization"
                )
        return pa.table(
            {
                **{k: batch[k] for k in keys},
                "_v": pa.array(v, pa.int64()),
                "_v2": pa.array(v * v, pa.int64()),
                "_av": pa.array(np.abs(v), pa.int64()),
            }
        )

    stats_ds = bucket_groupby_agg(
        ds.map_batches(derive, batch_format="pyarrow"),
        keys,
        [
            ("_v", "sum", "_s"),
            ("_v2", "sum", "_q"),
            (None, "count", "_n"),
            ("_av", "max", "_m"),
        ],
        n_buckets=n_buckets,
    )
    stats = pa.concat_tables(
        _ray.get(arrow_block_refs(stats_ds)), promote_options="default"
    )
    if stats.num_rows > max_groups:
        raise ValueError(
            f"group_standardize: {stats.num_rows} groups exceed the "
            f"driver-side cap ({max_groups}) — use a bucketed-join "
            "standardizer for unbounded group domains"
        )

    n_arr = stats["_n"].to_numpy(zero_copy_only=False)
    s_col = stats["_s"].to_numpy(zero_copy_only=False)
    q_col = stats["_q"].to_numpy(zero_copy_only=False)
    m_col = stats["_m"].to_numpy(zero_copy_only=False)
    # wrap-free honesty check: count and max never wrap, so if every
    # group's n·max² fits, no Σv² partial anywhere could have wrapped
    risk = np.flatnonzero(
        m_col.astype(object) * m_col.astype(object) * n_arr.astype(object)
        > _I64_SAFE
    )
    if risk.size:
        raise ValueError(
            "group_standardize: a group exceeds the int64 Σv² horizon "
            f"(n={int(n_arr[risk[0]])}, max|v|={int(m_col[risk[0]])}) — "
            "rescale the quantization"
        )

    mu = np.empty(stats.num_rows, np.float64)
    sd = np.empty(stats.num_rows, np.float64)
    defined = np.zeros(stats.num_rows, bool)
    for i in range(stats.num_rows):
        n_i, s_i, q_i = int(n_arr[i]), int(s_col[i]), int(q_col[i])
        var_num = n_i * q_i - s_i * s_i  # exact Python ints
        mu[i] = float(s_i) / float(n_i)
        if var_num > 0:
            sd[i] = float(var_num) ** 0.5 / float(n_i)
            defined[i] = True
        else:
            sd[i] = 0.0

    ghash = hash64_columns(stats.select(keys), keys).view(np.int64)
    order = np.argsort(ghash, kind="stable")
    gh_sorted = ghash[order]
    if gh_sorted.size > 1 and (gh_sorted[1:] == gh_sorted[:-1]).any():
        raise ValueError(
            "group_standardize: hash64 collision between distinct group "
            "keys — widen the key hash"
        )
    lookup_ref = _ray.put(
        (gh_sorted, mu[order], sd[order], defined[order])
    )
    thr = None if min_abs_z is None else float(min_abs_z)

    def standardize(batch: pa.Table) -> pa.Table:
        gh_s, mu_s, sd_s, def_s = _ray.get(lookup_ref)
        out_cols = {c: batch[c] for c in batch.column_names}
        if batch.num_rows == 0:
            out_cols["z"] = pa.array([], pa.float64())
            return pa.table(out_cols)
        h = hash64_columns(batch.select(keys), keys).view(np.int64)
        pos = np.searchsorted(gh_s, h)
        np.clip(pos, 0, max(gh_s.size - 1, 0), out=pos)
        ok = (gh_s[pos] == h) & def_s[pos] if gh_s.size else np.zeros(h.size, bool)
        v = batch[value_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        z = np.full(v.size, np.nan, np.float64)
        z[ok] = (v[ok].astype(np.float64) - mu_s[pos[ok]]) / sd_s[pos[ok]]
        if thr is not None:
            keep = ok & (np.abs(z) > thr)
            t = pa.table(out_cols).filter(pa.array(keep))
            return t.append_column(
                "z", pa.array(z[keep], pa.float64())
            )
        out_cols["z"] = pa.array(z, mask=~ok, type=pa.float64())
        return pa.table(out_cols)

    return ds.map_batches(standardize, batch_format="pyarrow")


def group_mode(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    *,
    out_col: str = "mode",
    count_out: str = "mode_n",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """EXACT per-group mode — the most frequent NON-NULL value, ties
    broken by the smallest value (SQL's bare ``mode()`` leaves ties
    unspecified; this pins them, so results are layout/parallelism
    invariant and the oracle is the deterministic
    ``ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, v ASC)`` form).

    Histogram plan (shared with the quantile family): the map side
    reduces each block to per-(group, value) counts in C++, ONE keyed
    exchange moves partial histogram rows (volume = groups × distinct
    values per block, independent of row count), and the finalize is a
    C++ sort by (group, count desc, value asc) + a first-row-per-run
    mask — works for integer AND string values, no Python per row."""
    partial = _make_hist_partial(keys, value_col, n_buckets)

    schema = ds.schema().base_schema

    def _ftype(name: str) -> pa.DataType:
        if isinstance(schema, pa.Schema):
            return schema.field(name).type
        # pandas-block dataset: numpy dtypes / object ride in schema.types
        t = schema.types[list(schema.names).index(name)]
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()

    vt = _ftype(value_col)
    empty = pa.table(
        {
            **{k: pa.array([], _ftype(k)) for k in keys},
            out_col: pa.array([], vt),
            count_out: pa.array([], pa.int64()),
        }
    )

    def drop_null(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.compute.is_valid(batch[value_col]))

    def finalize(group: pa.Table) -> pa.Table:
        g = group.group_by(keys + [value_col]).aggregate([("__cnt", "sum")])
        n = g.num_rows
        if n == 0:
            return empty
        s = g.sort_by(
            [(k, "ascending") for k in keys]
            + [("__cnt_sum", "descending"), (value_col, "ascending")]
        )

        def _codes(col) -> np.ndarray:
            enc = pa.compute.dictionary_encode(col)
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)

        new_run = np.zeros(n, bool)
        new_run[0] = True
        for k in keys:
            c = _codes(s[k])
            new_run[1:] |= c[1:] != c[:-1]
        t = s.filter(pa.array(new_run))
        return pa.table(
            {
                **{k: t[k] for k in keys},
                out_col: t[value_col],
                count_out: t["__cnt_sum"].cast(pa.int64()),
            }
        )

    return (
        ds.map_batches(drop_null, batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


def group_concat(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    *,
    sep: str = ",",
    out_col: str = "concat",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """SQL ``string_agg(value, sep ORDER BY value)`` per group — the
    list-building aggregate, with the order PINNED to value-ascending so
    the result is a pure function of the group's value multiset
    (a bare ``string_agg`` is input-order-dependent and therefore
    nondeterministic under parallelism).  NULL values are skipped, like
    SQL; a group of only nulls emits an empty string (DuckDB returns
    NULL there — the oracle COALESCEs; stated so the parity is explicit).

    Histogram plan: duplicates compress to per-(group, value) COUNTS on
    the map side, so the exchange carries groups × distinct values per
    block, not rows; the finalize sorts each group's histogram once in
    C++ and builds the string with one ``str.join`` per group (O(groups)
    Python on the reduced table, per the corr-stats convention)."""
    schema = ds.schema().base_schema
    if isinstance(schema, pa.Schema):
        vt = schema.field(value_col).type
        if not (pa.types.is_string(vt) or pa.types.is_large_string(vt)):
            raise ValueError(
                f"{value_col!r} must be string (got {vt}) — cast numbers "
                "to their canonical text form first"
            )
    partial = _make_hist_partial(keys, value_col, n_buckets)

    def _ftype(name: str) -> pa.DataType:
        if isinstance(schema, pa.Schema):
            return schema.field(name).type
        t = schema.types[list(schema.names).index(name)]
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()

    empty = pa.table(
        {
            **{k: pa.array([], _ftype(k)) for k in keys},
            out_col: pa.array([], pa.string()),
        }
    )

    def finalize(group: pa.Table) -> pa.Table:
        g = group.group_by(keys + [value_col]).aggregate([("__cnt", "sum")])
        n = g.num_rows
        if n == 0:
            return empty
        s = g.sort_by(
            [(k, "ascending") for k in keys] + [(value_col, "ascending")]
        )

        def _codes(col) -> np.ndarray:
            enc = pa.compute.dictionary_encode(col)
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)

        new_run = np.zeros(n, bool)
        new_run[0] = True
        for k in keys:
            c = _codes(s[k])
            new_run[1:] |= c[1:] != c[:-1]
        starts = np.flatnonzero(new_run)
        ends = np.append(starts[1:], n)
        # null VALUES skip (SQL), but their rows kept the group present
        vals = s[value_col].to_pylist()
        cnts = s["__cnt_sum"].to_pylist()
        joined = [
            sep.join(
                v
                for v, c in zip(vals[a:b], cnts[a:b])
                if v is not None
                for _ in range(int(c))
            )
            for a, b in zip(starts, ends)
        ]
        take = pa.array(starts.astype(np.int64))
        return pa.table(
            {
                **{k: s[k].take(take) for k in keys},
                out_col: pa.array(joined, pa.string()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(finalize, batch_format="pyarrow")
    )


def grouping_sets_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    sets: list[tuple],
    sum_cols: list[str],
    *,
    count_col: str = "n",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """SQL ``GROUP BY GROUPING SETS (...)`` — the arbitrary-subset
    generalization CUBE (every subset) and ROLLUP (every prefix) are
    special cases of.  Key columns absent from a set render as typed
    nulls, exactly the SQL output shape (and with the same ambiguity SQL
    has without ``GROUPING()``: a genuinely-NULL key value collides with
    a coarser set's row — both sides of the oracle share it, stated
    here).

    Same one-corpus-pass lattice strategy: the FULL-key aggregate runs
    once through :func:`bucket_groupby_sum` and every requested set
    derives from that already-reduced table — locally on the driver when
    it fits (``LATTICE_DRIVER_MAX_BYTES``), else through one exchange per
    set (byte-equal; int64 partials are associative).  A set that IS the
    full key list reuses the base directly."""
    if not keys:
        raise ValueError("grouping sets need at least one key")
    if not sets:
        raise ValueError("need at least one grouping set")
    norm: list[tuple] = []
    for s in sets:
        t = tuple(s)
        if len(set(t)) != len(t):
            raise ValueError(f"duplicate column in grouping set {t}")
        for c in t:
            if c not in keys:
                raise ValueError(f"grouping-set column {c!r} not in keys")
        t = tuple(k for k in keys if k in t)  # canonical key order
        if t in norm:
            raise ValueError(f"duplicate grouping set {t}")
        norm.append(t)

    base = bucket_groupby_sum(
        ds, keys, sum_cols, count_col=count_col, n_buckets=n_buckets
    ).materialize()
    value_cols = list(sum_cols) + [count_col]
    base_schema = base.schema().base_schema
    key_types = {k: base_schema.field(k).type for k in keys}
    _null_fill = _make_null_fill(keys, key_types, value_cols)
    full = tuple(keys)

    if _lattice_use_driver(base):
        base_t = _lattice_collect_base(base, keys, key_types, value_cols)
        tables = []
        for sub in norm:
            if sub == full:
                g = base_t
            elif sub:
                g0 = base_t.group_by(list(sub)).aggregate(
                    [(c, "sum") for c in value_cols]
                )
                g = pa.table(
                    {
                        **{k: g0[k] for k in sub},
                        **{
                            c: g0[f"{c}_sum"].cast(pa.int64())
                            for c in value_cols
                        },
                    }
                )
            else:
                g = pa.table(
                    {
                        c: pa.array(
                            [int(pa.compute.sum(base_t[c]).as_py() or 0)],
                            pa.int64(),
                        )
                        for c in value_cols
                    }
                )
            tables.append(_null_fill(g, list(sub)))
        return ray.data.from_arrow(
            pa.concat_tables(tables, promote_options="default")
        )

    levels = []
    for sub in norm:
        if sub == full:
            nxt = base
        elif sub:
            nxt = bucket_groupby_sum(
                base.select_columns(list(sub) + value_cols),
                list(sub),
                value_cols,
                n_buckets=n_buckets,
            )
        else:
            nxt = _grand_total(base, value_cols)
        levels.append(
            nxt.map_batches(
                lambda b, _p=sub: _null_fill(b, list(_p)),
                batch_format="pyarrow",
            )
        )
    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out
