"""Cluster-shape helpers shared by pipelines and stages.

The centerpiece is :func:`equi_join` — the engine's join PLANNER.  Every
equi-join in the repo routes through it.  It materializes the right side
once and picks one of two engine-owned plans by its size: a broadcast
(no exchange) when it fits the object-store cap, else the keyed-exchange
``stages.joins.bucket_join``.  Ray's own ``Dataset.join`` is not used: its
hash-shuffle aggregators lose their one-shot schema broadcast to an empty
first block and reserve large per-aggregator memory budgets."""

from __future__ import annotations

import math
import os

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

# ceiling on the materialized right side of a broadcast join — one copy
# lands in each node's plasma store and is read zero-copy by every task, so
# the bound is per-node object-store headroom, not per-task heap
BROADCAST_MAX_BYTES = 256 << 20


# target bytes of exploded-unit payload per assembly shuffle group — one
# map_groups task comfortably assembles this much in heap (the group holds
# the units' text payload plus the assembled output)
ASSEMBLY_TARGET_GROUP_BYTES = 64 << 20


def assembly_buckets_for_bytes(
    approx_bytes: int | None = None, floor: int = 64
) -> int:
    """Assembly-exchange group count sized to BOTH the cluster and input.

    The assembly groupby is a sort exchange — group count is free, and too
    FEW groups is the failure mode: each ``map_groups`` task
    receives corpus/n_buckets bytes, so a fixed count is a per-task memory
    cliff and a parallelism cap at 100× scale.  The count grows with input
    volume (``ceil(bytes / 64 MiB)``) and never drops below
    ``max(floor, 4 × cluster CPUs)`` so small inputs still spread across
    the cluster.
    """
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    lo = max(floor, 4 * cpus)
    if approx_bytes is None:
        return lo
    return max(lo, math.ceil(approx_bytes / ASSEMBLY_TARGET_GROUP_BYTES))


def dataset_size_estimate(ds: ray.data.Dataset) -> int | None:
    """Cheap (metadata-only) byte estimate of a lazy Dataset, or None.

    ``Dataset.size_bytes()`` EXECUTES the plan when metadata is missing —
    never acceptable mid-pipeline-build — so this consults the logical
    plan's inferred metadata only and returns None when unknown."""
    try:
        return ds._logical_plan.dag.infer_metadata().size_bytes
    except Exception:
        return None


def table_file_bytes(sf_dir: str, *names: str) -> int:
    """On-disk bytes of benchmark parquet tables — the cheap (metadata-only)
    volume estimate call sites feed to :func:`assembly_buckets_for_bytes`."""
    total = 0
    for name in names:
        p = os.path.join(sf_dir, f"{name}.parquet")
        try:
            if os.path.isdir(p):
                for root, _dirs, files in os.walk(p):
                    total += sum(
                        os.path.getsize(os.path.join(root, f)) for f in files
                    )
            else:
                total += os.path.getsize(p)
        except OSError:
            pass
    return total


# --------------------------------------------------------------------------
# the join planner
# --------------------------------------------------------------------------


def _side_schema(
    ds: "ray.data.Dataset", override: dict | None, side: str, fetch: bool = True
) -> dict[str, pa.DataType] | None:
    """Column→type map for one join input.  ``Dataset.schema()`` is None
    for a computed dataset that turns out empty (e.g. a no-duplicates
    candidate stream) — callers joining such inputs pass the types
    explicitly via ``left_types`` / ``right_types``.

    ``fetch=False`` returns None instead of executing: on a lazy mapped
    input ``Dataset.schema()`` runs a limit-1 pass of the upstream plan
    and cancels its in-flight tasks."""
    if override is not None:
        return dict(override)
    sch = ds.schema(fetch_if_missing=fetch)
    if sch is None:
        if not fetch:
            return None
        raise ValueError(
            f"equi_join: {side} input has no derivable schema (empty "
            f"computed dataset?) — pass {side}_types={{col: pa.DataType}}"
        )
    base = sch.base_schema
    return {c: base.field(c).type for c in base.names}


def equi_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    on: str,
    right_on: str | None = None,
    join_type: str = "inner",
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
    strategy: str | None = None,
    n_buckets: int = 64,
    left_types: dict[str, pa.DataType] | None = None,
    right_types: dict[str, pa.DataType] | None = None,
    key_out: str | None = None,
) -> "ray.data.Dataset":
    """Engine-owned equi-join planner — ALL repo equi-joins go through here.

    Output columns are exactly ``left_cols + right_cols`` in that order
    (defaults: all left columns; all right columns except the key).  For
    ``left_semi`` / ``left_anti`` only ``left_cols`` are returned.  For
    ``left_outer`` unmatched left rows carry nulls in ``right_cols``.
    Right-side key uniqueness follows SQL semantics (matches replicate).

    Default plan (``strategy=None``): the right input is materialized ONCE
    (its schema then comes from the materialized blocks — no limit-1
    probe, no second execution), and its byte size picks one of two plans:

    - **broadcast** when ``right.size_bytes() <= BROADCAST_MAX_BYTES``
      (read at call time) and the right key is not in ``right_cols`` — no
      exchange at all: the right blocks are concatenated, shipped to the
      object store via ``ray.put`` (one plasma copy per node, zero-copy
      reads in every task), and each left batch joins against it locally
      with a C++ acero join.  Cost is O(left scan), the right plan for
      lookup tables (dims, distinct-key sets, survivor sets).  Exact for
      all four left-driven join types, since every task sees the whole
      right side.
    - **bucket** otherwise — ``stages.joins.bucket_join`` (one keyed sort
      exchange of both sides, then a per-bucket acero join) over the
      already-materialized right side.

    The left input is never probed when ``left_cols`` is given: the
    broadcast plan takes its column types from each batch (or from
    ``left_types``).

    ``strategy="bucket"`` skips the materialization and always runs the
    keyed exchange lazily — for callers whose right side is corpus-sized.
    ``right_outer`` / ``full_outer`` joins and ``key_out`` (the COALESCE'd
    key column, which only the bucket plan produces) always take the
    bucket plan: only a keyed exchange keeps right-only rows exact.
    """
    assert join_type in (
        "inner", "left_outer", "right_outer", "full_outer",
        "left_semi", "left_anti",
    ), join_type
    assert strategy in (None, "bucket"), strategy
    r_on = right_on if right_on is not None else on
    if join_type in ("right_outer", "full_outer"):
        strategy = "bucket"
    if key_out is not None and strategy != "bucket":
        raise ValueError(
            "equi_join: key_out (the COALESCE'd join key column) is only "
            "produced by the bucket plan — pass strategy='bucket' or use a "
            "full/right outer join_type (auto-routed there)"
        )
    if strategy is None:
        right = right.materialize()

    # the left schema is read without executing unless the default
    # left_cols need it; the bucket plan probes it itself if still unknown
    l_schema = _side_schema(left, left_types, "left", fetch=left_cols is None)
    r_schema = _side_schema(right, right_types, "right")
    lcols = left_cols if left_cols is not None else list(l_schema)
    rcols = (
        right_cols
        if right_cols is not None
        else [c for c in r_schema if c != r_on]
    )
    if join_type in ("left_semi", "left_anti"):
        rcols = []
    clash = sorted(set(lcols) & set(rcols))
    if clash:
        raise ValueError(
            f"equi_join: output column collision {clash} between left_cols "
            "and right_cols — rename one side first"
        )

    if (
        strategy == "bucket"
        or r_on in rcols
        or (right.size_bytes() or 0) > BROADCAST_MAX_BYTES
    ):
        from .stages.joins import bucket_join

        return bucket_join(
            left,
            right,
            left_on=on,
            right_on=r_on,
            how=join_type,
            left_cols=lcols,
            right_cols=rcols,
            n_buckets=n_buckets,
            left_types=l_schema,
            right_types=r_schema,
            key_out=key_out,
        )

    rsel = list(dict.fromkeys([r_on] + rcols))
    rtab = pa.concat_tables(
        [t.select(rsel) for t in ray.get(right.to_arrow_refs()) if t.num_rows]
        or [pa.table({c: pa.array([], r_schema[c]) for c in rsel})],
        promote_options="default",
    ).combine_chunks()
    rref = ray.put(rtab)
    how_arrow = {
        "inner": "inner",
        "left_outer": "left outer",
        "left_semi": "left semi",
        "left_anti": "left anti",
    }[join_type]
    lsel = list(dict.fromkeys(lcols + [on]))
    out_cols = lcols + rcols
    r_fields = [(c, r_schema[c]) for c in rcols]

    def bcast_join(batch: pa.Table) -> pa.Table:
        r = ray.get(rref)
        joined = batch.select(lsel).join(
            r,
            keys=[on],
            right_keys=[r_on],
            join_type=how_arrow,
        ).select(out_cols)
        l_types = l_schema or {c: joined.schema.field(c).type for c in lcols}
        return joined.cast(
            pa.schema([(c, l_types[c]) for c in lcols] + r_fields)
        )

    return left.map_batches(bcast_join, batch_format="pyarrow")


def equi_join_multi(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    on: list[str],
    right_on: list[str] | None = None,
    join_type: str = "inner",
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
    **kw,
) -> "ray.data.Dataset":
    """Composite-key equi-join through the single-key planner.

    Each side folds its key columns into one 64-bit combined key
    (vectorized ``hash64_array`` per column, mixed with per-position
    rotations), joins on that single column, then VERIFIES true key
    equality on every joined row and drops hash collisions — one
    vectorized compare per row, so the plan stays correct at any scale
    (at 10^12 joined rows a 64-bit combined key WILL collide; the verify
    makes that a no-op instead of a wrong row).  The right-side key
    columns ride through the join under reserved names for the verify and
    are dropped from the output.

    ``inner`` only: outer/semi/anti under collisions need collision-aware
    unmatched tracking — route those through a single-key join on a
    concatenated exact key instead (raises with that guidance).
    """
    import numpy as np

    from .hashing import hash64_columns

    if join_type != "inner":
        raise NotImplementedError(
            "equi_join_multi supports inner joins only; for outer/semi/"
            "anti build one exact composite key column (e.g. string "
            "concat with a separator) and use equi_join"
        )
    r_on = right_on if right_on is not None else on
    if len(on) != len(r_on) or len(on) < 2:
        raise ValueError("on/right_on must be equal-length lists of ≥2 keys")

    def add_ck(keys: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            h = hash64_columns(batch, keys)
            return batch.append_column(
                "__ck", pa.array(h.view(np.int64))
            )

        return fn

    # probe a side's schema only for its default column list
    lcols = left_cols if left_cols is not None else list(left.schema().names)
    rcols = (
        right_cols
        if right_cols is not None
        else [c for c in right.schema().names if c not in r_on]
    )
    rk_alias = {k: f"__rk{i}" for i, k in enumerate(r_on)}

    def alias_right(batch: pa.Table) -> pa.Table:
        cols = {rk_alias.get(c, c): batch[c] for c in batch.column_names}
        return pa.table(cols)

    lt = left.map_batches(add_ck(on), batch_format="pyarrow")
    rt = right.map_batches(add_ck(r_on), batch_format="pyarrow").map_batches(
        alias_right, batch_format="pyarrow"
    )
    joined = equi_join(
        lt,
        rt,
        on="__ck",
        join_type="inner",
        left_cols=list(dict.fromkeys(list(on) + lcols)),
        right_cols=list(rk_alias.values()) + rcols,
        **kw,
    )

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows:
            ok = None
            for lk, rk in zip(on, rk_alias.values()):
                eq = pc.equal(batch[lk], batch[rk])
                ok = eq if ok is None else pc.and_(ok, eq)
            batch = batch.filter(pc.fill_null(ok, False))
        return batch.select(list(dict.fromkeys(list(on) + lcols)) + rcols)

    return joined.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# skew-aware (salted) inner join
# ---------------------------------------------------------------------------


def detect_hot_keys(
    ds: "ray.data.Dataset",
    key: str,
    *,
    top_per_block: int = 8,
    threshold_rows: int | None = None,
) -> tuple[list, int]:
    """Deterministic HOT-KEY candidates of one column: each block
    contributes its ``top_per_block`` most frequent keys (C++ group count
    + one vectorized argpartition), candidates are summed across blocks
    (an under-count — keys missing from a block's top-k lose that block's
    contribution, which only makes the filter CONSERVATIVE), and keys
    whose summed count exceeds the threshold come back.  A superset or
    subset of the true hot set is safe for salting: extra salting costs a
    little replication, a missed warm key just stays on the normal path.

    Returns ``(hot_keys, total_rows)``; default threshold = 2% of rows.
    """
    import numpy as np

    from ray.data.aggregate import Sum

    def block_top(batch: pa.Table) -> pa.Table:
        g = batch.group_by([key]).aggregate([([], "count_all")])
        cnt = g["count_all"].to_numpy(zero_copy_only=False)
        k = min(top_per_block, len(cnt))
        if k == 0:
            return pa.table(
                {key: g[key], "n": g["count_all"].cast(pa.int64()),
                 "rows": pa.array([], pa.int64())}
            )
        top = np.argpartition(cnt, -k)[-k:]
        t = g.take(pa.array(np.sort(top)))
        return pa.table(
            {
                key: t[key],
                "n": t["count_all"].cast(pa.int64()),
                # block row count rides along so total is exact
                "rows": pa.array(
                    [batch.num_rows] + [0] * (len(t) - 1), pa.int64()
                ),
            }
        )

    rows = (
        ds.select_columns([key])
        .map_batches(block_top, batch_format="pyarrow")
        .groupby(key)
        .aggregate(Sum("n"), Sum("rows"))
        .take_all()
    )  # bounded: ≤ top_per_block × blocks candidates
    total = sum(r["sum(rows)"] for r in rows)
    thr = (
        threshold_rows
        if threshold_rows is not None
        else max(1, total // 50)
    )
    hot = sorted(r[key] for r in rows if r["sum(n)"] > thr)
    return hot, total


def salted_inner_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    on: str,
    right_on: str | None = None,
    left_cols: list[str],
    right_cols: list[str],
    salts: int = 8,
    hot_keys: list | None = None,
    salt_source: str | None = None,
    **kw,
) -> "ray.data.Dataset":
    """Inner equi-join that defuses KEY SKEW by salting: rows of the few
    hot keys get a salt in [0, salts) on the left (derived from
    ``salt_source``, another column, so it is deterministic AND spreads),
    the right side replicates ONLY its hot-key rows ×salts, and the join
    runs on the composite (key, salt) through ``equi_join_multi`` — a hot
    key's rows now land on ``salts`` partitions instead of one.  Cold keys
    ride salt 0 unreplicated, so the extra exchange volume is
    ``salts × |right hot rows|`` (usually a handful of rows).

    Inner only: replication breaks outer/semi/anti multiplicity.  Pass
    ``hot_keys`` explicitly or let :func:`detect_hot_keys` find them on
    the left (one cheap candidate pass).  ``salt_source`` defaults to the
    first left column that isn't the key.
    """
    import numpy as np

    from .hashing import hash64_array

    r_on = right_on if right_on is not None else on
    if hot_keys is None:
        hot_keys, _ = detect_hot_keys(left, on)
    if salt_source is None:
        salt_source = next(c for c in left_cols if c != on)
    if not hot_keys:
        return equi_join(
            left, right, on=on, right_on=r_on, join_type="inner",
            left_cols=left_cols, right_cols=right_cols, **kw,
        )
    key_type = left.schema().base_schema.field(on).type
    hot_arr = pa.array(hot_keys, key_type)
    hot_ref = ray.put(hot_arr)
    n_salts = int(salts)

    def salt_left(batch: pa.Table) -> pa.Table:
        hot = ray.get(hot_ref)
        is_hot = pa.compute.is_in(batch[on], value_set=hot).to_numpy(
            zero_copy_only=False
        )
        salt = np.zeros(batch.num_rows, np.int64)
        if is_hot.any():
            spread = hash64_array(batch[salt_source]) % np.uint64(n_salts)
            salt[is_hot] = spread.astype(np.int64)[is_hot]
        return batch.append_column("__salt", pa.array(salt, pa.int64()))

    def salt_right(batch: pa.Table) -> pa.Table:
        hot = ray.get(hot_ref)
        is_hot = pa.compute.is_in(batch[r_on], value_set=hot).to_numpy(
            zero_copy_only=False
        )
        cold = batch.filter(pa.array(~is_hot)).append_column(
            "__salt", pa.array(np.zeros(int((~is_hot).sum()), np.int64))
        )
        hot_rows = batch.filter(pa.array(is_hot))
        if hot_rows.num_rows == 0:
            return cold
        reps = [
            hot_rows.append_column(
                "__salt",
                pa.array(np.full(hot_rows.num_rows, s, np.int64)),
            )
            for s in range(n_salts)
        ]
        return pa.concat_tables([cold] + reps)

    lsalted = left.map_batches(salt_left, batch_format="pyarrow")
    rsalted = right.map_batches(salt_right, batch_format="pyarrow")
    return equi_join_multi(
        lsalted,
        rsalted,
        on=[on, "__salt"],
        right_on=[r_on, "__salt"],
        left_cols=left_cols,
        right_cols=right_cols,
        **kw,
    )


def arrow_block_refs(ds: "ray.data.Dataset") -> list:
    """Arrow block refs of ``ds`` with EXACTLY ONE plan execution.

    Ray 2.49's ``Dataset.to_arrow_refs()`` on a LAZY dataset follows the
    full execution with ``schema(fetch_if_missing=True)``, which launches
    a SECOND limit-1 execution of the entire upstream plan — a silent
    double-run of the pipeline's first block for every collect, and a
    correctness hazard for side-effecting sinks (``export_shards``'s
    skipped-flags saw files the probe run had already written).
    Materializing first makes the trailing schema call a cached lookup,
    so the plan runs exactly once.  Only for results the caller KNOWS
    are bounded."""
    return ds.materialize().to_arrow_refs()


def collect_table(ds: "ray.data.Dataset") -> pa.Table | None:
    """Materialize a (small, bounded) Dataset into ONE pa.Table robustly:
    zero-row blocks are dropped BEFORE concatenation (a computed empty
    block can be schema-less or schema-divergent — ``pa.concat_tables``
    over raw block refs crashes on it, a bug this helper exists to
    prevent), and survivors are cast to the first block's schema.
    Returns None when every block is empty.  Only for results the caller
    KNOWS are bounded (thresholded edge lists, per-block summaries)."""
    tabs = [t for t in ray.get(arrow_block_refs(ds)) if t.num_rows]
    if not tabs:
        return None
    target = tabs[0].schema
    return pa.concat_tables(
        [t if t.schema == target else t.cast(target) for t in tabs]
    )
