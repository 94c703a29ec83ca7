"""Distributed connected components over an edge Dataset.

The missing piece between pairwise near-dup detection (LSH candidate pairs,
``stages/dedup.py``) and cluster-level curation decisions ("keep one doc per
duplicate CLUSTER", transitive closure of pairs): label propagation where
each node's label converges to the minimum node id reachable from it.

Ray-Data-first shape: labels live in a ``(id, label)`` Dataset; one
iteration is

    candidates = edges ⋈ labels on (u = id)      # each neighbor offers its label
    labels'    = (candidates ∪ labels).groupby(id).min(label)

Labels only ever decrease, so ``sum(label)`` is a strictly decreasing
monotone — convergence is detected by one scalar aggregate per round, no
driver-side diffing of the label table.  Each round is one shuffle join plus
one hash aggregate; the loop runs O(component diameter) rounds.  Duplicate
clusters in web corpora are shallow (near-dup components are dense, small-
diameter), so in practice this converges in a handful of rounds; for
adversarial long-chain graphs the large-star/small-star doubling variant
(Kiveris et al., "Connected Components in MapReduce and Beyond", SoCC'14)
halves the round count — noted as the upgrade path, not needed for dedup
clustering.

Each round ``materialize()``s the (two-int-column) label table: without it
the lazy lineage re-executes every prior join per round (exponential).  The
materialized state is O(nodes) — at 10^12 nodes labels are ~16 TB spread
across the cluster's object store, the same order as any groupby state on
that corpus.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray.data

from ..cluster import equi_join


# At or below this many (edge + node) rows the edge list is collected to
# the driver and clustered with the vectorized numpy pass — thresholded
# near-dup pair lists are O(nodes), so two int64 columns at 5M rows are
# ~80 MB: trivially collectable, and the distributed rounds' fixed
# per-shuffle cost would dominate by 10× at that size.  Above it, the
# distributed label-propagation rounds run.  Read at call time by the CC,
# PageRank and k-core plan choices (tests monkeypatch it to force a plan).
LOCAL_CC_THRESHOLD = 5_000_000


def _local_cc(
    u: "np.ndarray", v: "np.ndarray", node_ids: "np.ndarray"
) -> "np.ndarray":
    """Vectorized min-label + pointer-compression components over compact
    indices; returns the min node id per component aligned to node_ids."""
    import numpy as np

    n = len(node_ids)
    from ..arrays import unique_inverse

    allids = np.concatenate([node_ids, u, v])
    ids, inv = unique_inverse(allids)
    ui = inv[n : n + len(u)]
    vi = inv[n + len(u) :]
    lab = np.arange(len(ids), dtype=np.int64)

    def compress(lab):
        while True:
            l2 = lab[lab]
            if np.array_equal(l2, lab):
                return lab
            lab = l2

    while True:
        new = lab.copy()
        np.minimum.at(new, ui, lab[vi])
        np.minimum.at(new, vi, lab[ui])
        new = compress(new)
        if np.array_equal(new, lab):
            break
        lab = new
    # np.unique sorts ascending, so the min compact index IS the min id
    return ids[lab[inv[:n]]]


def connected_components(
    edges: ray.data.Dataset,
    nodes: ray.data.Dataset,
    *,
    id_col: str = "id",
    u_col: str = "u",
    v_col: str = "v",
    max_iters: int = 50,
) -> ray.data.Dataset:
    """Min-label propagation: returns ``(id_col, cluster_id)`` where
    ``cluster_id`` is the smallest node id in the node's component.

    ``edges`` may list each undirected edge once in either orientation —
    both directions are derived internally.  Isolated nodes keep their own
    id as ``cluster_id``.  Raises ``RuntimeError`` if not converged after
    ``max_iters`` rounds (fail loud, never a silently-partial clustering).

    At or below ``LOCAL_CC_THRESHOLD`` total rows the edge list collects
    to the driver and runs the vectorized numpy pass (``_local_cc``);
    above it the distributed label-propagation rounds run.  Both plans
    are property-tested equal (tests/test_curation.py)."""

    def bidir(batch: pa.Table) -> pa.Table:
        u = batch[u_col].cast(pa.int64())
        v = batch[v_col].cast(pa.int64())
        return pa.concat_tables(
            [pa.table({"eu": u, "ev": v}), pa.table({"eu": v, "ev": u})]
        ).combine_chunks()

    edges2 = edges.map_batches(bidir, batch_format="pyarrow").materialize()

    if edges2.count() // 2 + nodes.count() <= LOCAL_CC_THRESHOLD:
        import ray as _ray

        from ..cluster import collect_table

        etbl = collect_table(edges2)
        if etbl is None:
            etbl = pa.table(
                {"eu": pa.array([], pa.int64()),
                 "ev": pa.array([], pa.int64())}
            )
        u = etbl["eu"].to_numpy(zero_copy_only=False)
        v = etbl["ev"].to_numpy(zero_copy_only=False)
        # solve components ONCE over the edge endpoints; the broadcast
        # is the sorted endpoint→cluster map, and the per-block pass is
        # a vectorized searchsorted lookup (nodes without edges keep
        # their own id)
        endpoints = np.unique(np.concatenate([u, v]))
        clusters = _local_cc(u, v, endpoints)
        map_ref = _ray.put((endpoints, clusters))

        def label_block(batch: pa.Table) -> pa.Table:
            ep, cl = _ray.get(map_ref)
            node_ids = (
                batch[id_col]
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
            pos = np.searchsorted(ep, node_ids)
            pos = np.clip(pos, 0, max(len(ep) - 1, 0))
            out = node_ids.copy()
            if len(ep):
                hit = ep[pos] == node_ids
                out[hit] = cl[pos[hit]]
            return pa.table(
                {
                    id_col: batch[id_col].cast(pa.int64()),
                    "cluster_id": pa.array(out),
                }
            )

        return nodes.map_batches(label_block, batch_format="pyarrow")

    def init_labels(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].cast(pa.int64())
        return pa.table({"id": ids, "label": ids})

    labels = nodes.map_batches(init_labels, batch_format="pyarrow").materialize()
    prev_sum = labels.sum("label")

    for _ in range(max_iters):
        # neighbors offer their labels across each directed edge
        offers = equi_join(
            edges2,
            labels,
            on="eu",
            right_on="id",
            left_cols=["ev"],
            right_cols=["label"],
        ).map_batches(
            lambda b: pa.table({"id": b["ev"], "label": b["label"]}),
            batch_format="pyarrow",
        )
        labels = (
            labels.union(offers)
            .groupby("id")
            .min("label")
            .map_batches(
                lambda b: pa.table(
                    {"id": b["id"], "label": b["min(label)"]}
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:  # labels only decrease: fixpoint reached
            return labels.map_batches(
                lambda b: pa.table({id_col: b["id"], "cluster_id": b["label"]}),
                batch_format="pyarrow",
            )
        prev_sum = cur_sum
    raise RuntimeError(
        f"connected_components did not converge in {max_iters} rounds "
        "(component diameter exceeds the bound — raise max_iters or use a "
        "star-contraction variant)"
    )


def _check_node_sets(edges, src_col: str, dst_col: str):
    from .agg import bucket_groupby_agg

    both = edges.select_columns([src_col]).union(
        edges.select_columns([dst_col]).rename_columns({dst_col: src_col})
    )
    n_union = bucket_groupby_agg(
        both, [src_col], [(None, "count", "c")]
    ).count()
    n_dst = bucket_groupby_agg(
        edges.select_columns([dst_col]), [dst_col], [(None, "count", "c")]
    ).count()
    return n_union, n_dst


def pagerank_int(
    edges: ray.data.Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    num_iters: int = 3,
    scale: int = 1_000_000,
    damping_pct: int = 85,
    assume_symmetric: bool = False,
) -> ray.data.Dataset:
    """Integer-exact PageRank power iteration — ``(node, rank_scaled)``.

    All arithmetic is int64 (``r0 = scale``; each round
    ``r'(v) = base + (damping · Σ_{u→v} r(u)//outdeg(u)) // 100`` with
    ``base = ((100−damping)·scale)//100``), so sums are associative and
    order-independent: the result is parallelism-invariant by construction
    AND expressible as unrolled SQL CTEs — a float PageRank's summation
    order would sit under the driver's bit-exact hash gate.  The floor
    divisions leak ≤1 mass unit per edge per round; at ``scale = 1e6``
    ranking order is unaffected for any realistic graph.

    Every node must appear as a source (i.e. have outdeg ≥ 1) — true for
    symmetrized edge lists, which also guarantees indegree ≥ 1, so no
    dangling-mass redistribution or left-outer join is needed (raises if
    the node sets diverge).  Duplicate input edges are deduplicated
    internally (a multigraph would double-count shares).

    At or below ``LOCAL_CC_THRESHOLD`` edge rows the edge list collects
    to the driver and the whole power iteration runs as a numpy loop over
    the SAME int64 expressions (byte-equal plans, per-round
    joins/exchanges gone — the CC/k-core convention).

    Distributed shape: the setup is ONE exchange — edges are map-side distincted and
    bucketed BY SOURCE, so each bucket holds every edge of its sources
    and the finalize emits the globally-distinct edge list with outdeg
    already attached (``pc.index_in`` against the in-bucket degree table);
    no separate degree aggregation, no edges ⋈ outdeg join.  The rank
    table inits from per-block distinct sources of that result (sources
    never split across buckets).  A round is one ``ranks ⋈ edges`` join
    (the planner broadcasts the rank table below the plasma cap and
    exchanges it by key above) plus one
    coarse-bucket sum.  Skew note: bucketing by source sends a
    celebrity node's whole adjacency to one bucket — at 64+ buckets this
    bounds skew to max-degree/total-edges, the usual salting candidate.
    """
    import pyarrow.compute as pc

    from ..hashing import hash64_columns
    from .agg import bucket_groupby_agg

    if num_iters < 1:
        raise ValueError("num_iters must be >= 1")
    base = ((100 - damping_pct) * scale) // 100
    N_BUCKETS = 64

    ecols = edges.select_columns([src_col, dst_col]).materialize()
    if ecols.count() <= LOCAL_CC_THRESHOLD:
        # Driver plan (the CC/k-core auto-select convention): below
        # the shared collect budget the whole power iteration is a
        # numpy loop — every arithmetic step is the SAME int64
        # expression the distributed rounds evaluate, so the plans
        # are byte-equal; per-round joins and exchanges are gone.
        from ..cluster import collect_table

        etbl = collect_table(ecols)
        # real column type even when the table is empty — the empty
        # edge case must emit the same schema as the distributed plan
        node_t = ecols.schema().base_schema.field(src_col).type
        if etbl is None or etbl.num_rows == 0:
            return ray.data.from_arrow(
                pa.table(
                    {
                        "node": pa.array([], node_t),
                        "rank_scaled": pa.array([], pa.int64()),
                    }
                )
            )
        u = etbl[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = etbl[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((v, u))
        us, vs = u[order], v[order]
        keep = np.r_[True, (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])]
        us, vs = us[keep], vs[keep]
        nodes = np.unique(us)
        dst_nodes = np.unique(vs)
        if not np.array_equal(nodes, dst_nodes):
            raise ValueError(
                "pagerank_int: source and destination node sets differ"
                " — symmetrize the edge list (add reverse edges) first"
            )
        n = len(nodes)
        src_idx = np.searchsorted(nodes, us)
        dst_idx = np.searchsorted(nodes, vs)
        deg = np.bincount(src_idx, minlength=n).astype(np.int64)
        r = np.full(n, scale, np.int64)
        for _ in range(num_iters):
            share = r[src_idx] // deg[src_idx]
            s = np.zeros(n, np.int64)
            np.add.at(s, dst_idx, share)
            r = base + (damping_pct * s) // 100
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(nodes).cast(node_t),
                    "rank_scaled": pa.array(r, pa.int64()),
                }
            )
        )

    def prep(batch: pa.Table) -> pa.Table:
        t = (
            batch.select([src_col, dst_col])
            .group_by([src_col, dst_col])
            .aggregate([])
        )
        bucket = hash64_columns(t, [src_col]) % np.uint64(N_BUCKETS)
        return t.append_column(
            "bucket", pa.array(bucket.astype(np.int64), pa.int64())
        )

    def fin(group: pa.Table) -> pa.Table:
        g = group.group_by([src_col, dst_col]).aggregate([])
        d = g.group_by(src_col).aggregate([([], "count_all")])
        srcs = d[src_col]
        if isinstance(srcs, pa.ChunkedArray):
            srcs = srcs.combine_chunks()
        pos = pc.index_in(g[src_col], value_set=srcs)
        deg = d["count_all"].take(pos)
        return pa.table(
            {
                src_col: g[src_col],
                dst_col: g[dst_col],
                "deg": deg.cast(pa.int64())
                if not isinstance(deg, pa.ChunkedArray)
                else deg.combine_chunks().cast(pa.int64()),
            }
        )

    edges_deg = (
        ecols.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(fin, batch_format="pyarrow")
        .materialize()
    )
    # block-local distinct src == globally distinct: each source's run is
    # confined to one bucket (and bucket groups are never split mid-run)
    def block_nodes(batch: pa.Table) -> pa.Table:
        return pa.table(
            {src_col: pc.unique(batch[src_col].combine_chunks()
                                if isinstance(batch[src_col], pa.ChunkedArray)
                                else batch[src_col])}
        )

    node_ds = edges_deg.map_batches(
        block_nodes, batch_format="pyarrow"
    ).materialize()
    n_nodes = node_ds.count()
    if assume_symmetric:
        n_union = n_dst = n_nodes  # caller just symmetrized; skip 2 scans
    else:
        n_union, n_dst = _check_node_sets(ecols, src_col, dst_col)
    # SET (not count) equality both ways: dst ⊆ src via
    # |distinct(src) ∪ distinct(dst)| == |distinct(src)|, and src ⊆ dst
    # via the same union count equalling |distinct(dst)| — a node missing
    # on either side would silently drop out of the rank table mid-run
    if n_union != n_nodes or n_union != n_dst:
        raise ValueError(
            "pagerank_int: source and destination node sets differ — "
            "symmetrize the edge list (add reverse edges) first"
        )

    def init_rank(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch[src_col],
                "r": pa.array(
                    np.full(batch.num_rows, scale, np.int64), pa.int64()
                ),
            }
        )

    ranks = node_ds.map_batches(init_rank, batch_format="pyarrow")

    # the rank table (16 B/node) is the planner's right side: below the
    # broadcast cap it ships once to plasma per round and the join is a
    # zero-exchange streaming map over the static edge list; above it
    # (web-scale node counts) every round is a keyed exchange
    for _ in range(num_iters):
        joined = equi_join(
            edges_deg,
            ranks,
            on=src_col,
            right_on="node",
            left_cols=[dst_col, "deg"],
            right_cols=["r"],
        )

        def shares(batch: pa.Table) -> pa.Table:
            r = batch["r"].to_numpy(zero_copy_only=False)
            d = batch["deg"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "node": batch[dst_col],
                    "share": pa.array(r // d, pa.int64()),
                }
            )

        summed = bucket_groupby_agg(
            joined.map_batches(shares, batch_format="pyarrow"),
            ["node"],
            [("share", "sum", "share")],
        )

        def next_rank(batch: pa.Table) -> pa.Table:
            s = batch["share"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "node": batch["node"],
                    "r": pa.array(
                        base + (damping_pct * s) // 100, pa.int64()
                    ),
                }
            )

        # no explicit materialize: the auto-strategy join above runs
        # eagerly, so each round's lineage is at most (join output -> map
        # -> agg -> map) — re-execution of prior rounds cannot compound
        ranks = summed.map_batches(next_rank, batch_format="pyarrow")

    return ranks.rename_columns({"r": "rank_scaled"})

def _orient_edges(
    edges: ray.data.Dataset, *, src_col: str, dst_col: str, n_buckets: int
):
    """Shared degree-orientation pass: returns ``(oriented, n_edges, deg)``
    where ``oriented`` has columns (u, v, vrank, bucket) with every edge
    pointing low-(degree,id)-rank → high — which bounds every out-degree
    by O(√|E|) on any skew — or ``(None, 0, None)`` for an empty list."""
    from ..cluster import collect_table
    from ..hashing import splitmix_bucket
    from .agg import bucket_groupby_sum

    ecols = edges.select_columns([src_col, dst_col]).materialize()
    n_edges = ecols.count()
    if n_edges == 0:
        return None, 0, None

    def deg_partial(batch: pa.Table) -> pa.Table:
        node = pa.concat_arrays(
            [
                (batch[c].combine_chunks()
                 if isinstance(batch[c], pa.ChunkedArray) else batch[c])
                for c in (src_col, dst_col)
            ]
        )
        g = pa.table({"node": node}).group_by("node").aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {"node": g["node"], "deg": g["count_all"].cast(pa.int64())}
        )

    deg = collect_table(
        bucket_groupby_sum(
            ecols.map_batches(deg_partial, batch_format="pyarrow"),
            ["node"],
            ["deg"],
        )
    )
    assert deg is not None
    nodes = deg["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    degs = deg["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
    # dense rank by (deg, id): the orientation comparator
    order = np.lexsort((nodes, degs))
    rank = np.empty(len(nodes), np.int64)
    rank[order] = np.arange(len(nodes))
    id_sorted = np.argsort(nodes)
    rank_ref = ray.put((nodes[id_sorted], rank[id_sorted]))

    def orient(batch: pa.Table) -> pa.Table:
        ids_sorted, rk = ray.get(rank_ref)
        x = batch[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        rx = rk[np.searchsorted(ids_sorted, x)]
        ry = rk[np.searchsorted(ids_sorted, y)]
        lo = rx < ry
        u = np.where(lo, x, y)
        v = np.where(lo, y, x)
        vr = np.where(lo, ry, rx)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "vrank": pa.array(vr, pa.int64()),
                "bucket": pa.array(
                    splitmix_bucket(u.astype(np.uint64), n_buckets),
                    pa.int64(),
                ),
            }
        )

    oriented = ecols.map_batches(orient, batch_format="pyarrow").materialize()
    return oriented, n_edges, deg


def _wedge_arrays(group: pa.Table):
    """Vectorized wedge generation inside one bucket: returns
    ``(anchor, w1, w2)`` numpy arrays — every ordered out-neighbor pair
    per source (rank(w1) < rank(w2) by construction) — or None."""
    if group.num_rows == 0 or "u" not in group.column_names:
        return None
    u = group["u"].to_numpy(zero_copy_only=False).astype(np.int64)
    v = group["v"].to_numpy(zero_copy_only=False).astype(np.int64)
    vr = group["vrank"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.lexsort((vr, u))
    u, v = u[o], v[o]
    n = len(u)
    # segmented pair expansion (basket_pairs' kernel)
    starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    lens = np.diff(np.append(starts, n))
    local = np.arange(n) - np.repeat(starts, lens)
    reps = np.repeat(lens, lens) - 1 - local
    total = int(reps.sum())
    if total == 0:
        return None
    left = np.repeat(np.arange(n), reps)
    seg_off = np.repeat(np.cumsum(reps) - reps, reps)
    right = left + 1 + (np.arange(total) - seg_off)
    return u[left], v[left], v[right]


# Node-id ceiling for the collision-FREE composite probe key
# u·(max_id+1) + v: both factors must keep the product inside int64.
_COMPOSITE_KEY_MAX_ID = (1 << 31) - 2


def _probe_from_arrays(u: np.ndarray, v: np.ndarray):
    """Build the sorted edge-existence probe from oriented edge arrays.

    Two key forms, picked by the node-id range:

    - composite (ids ≤ 2³¹−2, the overwhelmingly common case): key =
      ``u·(max_id+1) + v`` — collision-FREE, so a probe is ONE
      searchsorted + ONE equality compare, no hash computation and no
      run-verify loop (measured ~35 % off the wedge-closure walk).
    - hashed (wider ids): 64-bit column hash with the collision-SAFE
      ``max_run`` exact-verify walk.

    Returned tuple: ``("ck", base, keys_sorted)`` or
    ``("hash", cks, us, vs, max_run)``."""
    from ..hashing import hash64_columns

    max_id = int(max(u.max(), v.max())) if len(u) else 0
    min_id = int(min(u.min(), v.min())) if len(u) else 0
    if 0 <= min_id and max_id <= _COMPOSITE_KEY_MAX_ID:
        base = np.int64(max_id + 1)
        keys = np.sort(u * base + v)
        return ("ck", base, keys)
    ck = hash64_columns(
        pa.table(
            {"a": pa.array(u, pa.int64()), "b": pa.array(v, pa.int64())}
        ),
        ["a", "b"],
    )
    o = np.argsort(ck, kind="stable")
    cks, us, vs = ck[o], u[o], v[o]
    if len(cks) > 1:
        run = np.diff(np.flatnonzero(np.r_[True, cks[1:] != cks[:-1], True]))
        max_run = int(run.max())
    else:
        max_run = 1
    return ("hash", cks, us, vs, max_run)


# target wedge-closure work per broadcast-plan task: large enough to
# amortize task dispatch, small enough that 32 cores stay busy at sf0.1
_WEDGES_PER_TASK = 1_500_000


def _driver_orient(et: pa.Table, src_col: str, dst_col: str):
    """Driver-side orientation of a COLLECTED edge table (the broadcast
    plan's twin of :func:`_orient_edges` — the edge set is already bound
    for the driver to build the probe, so degrees/ranks/orientation are
    a few vectorized passes here instead of two distributed exchanges).

    Returns ``(u, v, nodes, degs, run_starts, wedge_cum)`` where edges
    are sorted by (rank(u), rank(v)) so every u-run is contiguous with
    out-neighbors in rank order, ``nodes``/``degs`` are id-sorted, and
    ``wedge_cum`` is the cumulative per-run wedge count used to split
    the walk into balanced tasks."""
    u0 = et[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
    v0 = et[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
    E = len(u0)
    from ..arrays import unique_inverse

    nodes, inv = unique_inverse(np.concatenate([u0, v0]))
    degs = np.bincount(inv, minlength=len(nodes)).astype(np.int64)
    order = np.lexsort((nodes, degs))
    rank = np.empty(len(nodes), np.int64)
    rank[order] = np.arange(len(nodes))
    ru, rv = rank[inv[:E]], rank[inv[E:]]
    lo = ru < rv
    u = np.where(lo, u0, v0)
    v = np.where(lo, v0, u0)
    ur = np.where(lo, ru, rv)
    vr = np.where(lo, rv, ru)
    o = np.lexsort((vr, ur))
    u, v = u[o], v[o]
    run_starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    lens = np.diff(np.append(run_starts, E))
    wedge_cum = np.cumsum(lens * (lens - 1) // 2)
    return u, v, nodes, degs, run_starts, wedge_cum


def _wedge_task_ranges(
    run_starts: np.ndarray, wedge_cum: np.ndarray, n_edges: int
) -> list[tuple[int, int]]:
    """Split u-runs into contiguous edge-index ranges of roughly equal
    WEDGE count (Σ out-deg² work, not edge count — immune to the degree
    skew that hash-bucket splits suffer)."""
    total = int(wedge_cum[-1]) if len(wedge_cum) else 0
    if total == 0:
        return []
    n_tasks = max(1, min(len(run_starts), -(-total // _WEDGES_PER_TASK)))
    # INTEGER split points: float targets can truncate the last one to
    # total-1, and when the final wedge-bearing run contributes exactly
    # the last wedge the searchsorted cut would exclude it — silently
    # dropping triangles at production scale only (n_tasks is 1 below
    # _WEDGES_PER_TASK, where targets are exact).  total·k // n ends at
    # exactly total, so the last cut always covers the final run.
    targets = (
        np.arange(1, n_tasks + 1, dtype=np.int64) * total
    ) // n_tasks
    cut_runs = np.unique(np.searchsorted(wedge_cum, targets, side="left"))
    bounds = [0] + [
        int(run_starts[c + 1]) if c + 1 < len(run_starts) else n_edges
        for c in cut_runs
    ]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
        if bounds[i + 1] > bounds[i]
    ]


def _wedge_expand_sorted(u: np.ndarray, v: np.ndarray):
    """Wedge generation over a PRE-SORTED edge slice (by (rank(u),
    rank(v)), as :func:`_driver_orient` emits): returns ``(anchor, w1,
    w2)`` with rank(w1) < rank(w2) by construction, or None."""
    n = len(u)
    if n == 0:
        return None
    starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    lens = np.diff(np.append(starts, n))
    local = np.arange(n) - np.repeat(starts, lens)
    reps = np.repeat(lens, lens) - 1 - local
    total = int(reps.sum())
    if total == 0:
        return None
    left = np.repeat(np.arange(n), reps)
    seg_off = np.repeat(np.cumsum(reps) - reps, reps)
    right = left + 1 + (np.arange(total) - seg_off)
    return u[left], v[left], v[right]


def _broadcast_wedge_walk(
    ecols: ray.data.Dataset,
    src_col: str,
    dst_col: str,
    *,
    per_node: bool,
):
    """The zero-exchange broadcast plan shared by :func:`triangle_count`
    and :func:`clustering_coefficients`: the (budget-gated) edge set is
    collected ONCE, oriented and probe-keyed on the driver, shipped to
    plasma once, and the wedge-closure walk runs as independent tasks
    over contiguous u-run ranges balanced by wedge count — no groupby,
    no degree exchange, no join; the only distributed op is the
    embarrassingly parallel walk itself.

    Returns ``(n_tri_or_partials, nodes, degs)``: the scalar triangle
    count when ``per_node`` is False, else the collected (node, t)
    partial table (or None)."""
    from ..cluster import collect_table

    et = collect_table(ecols)
    assert et is not None
    u, v, nodes, degs, run_starts, wedge_cum = _driver_orient(
        et, src_col, dst_col
    )
    probe = _probe_from_arrays(u, v)
    ranges = _wedge_task_ranges(run_starts, wedge_cum, len(u))
    if not ranges:
        return (None if per_node else 0), nodes, degs
    arrays_ref = ray.put((u, v, probe))

    def walk(batch: pa.Table) -> pa.Table:
        uu, vv, pr = ray.get(arrays_ref)
        los = batch["lo"].to_numpy(zero_copy_only=False)
        his = batch["hi"].to_numpy(zero_copy_only=False)
        anchors, w1s, w2s, n_tri = [], [], [], 0
        for lo_i, hi_i in zip(los, his):
            w = _wedge_expand_sorted(uu[lo_i:hi_i], vv[lo_i:hi_i])
            if w is None:
                continue
            anchor, w1, w2 = w
            m = _probe_closed(w1, w2, pr)
            if per_node:
                if m.any():
                    anchors.append(anchor[m])
                    w1s.append(w1[m])
                    w2s.append(w2[m])
            else:
                n_tri += int(m.sum())
        if not per_node:
            return pa.table({"t": pa.array([n_tri], pa.int64())})
        if not anchors:
            return pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "t": pa.array([], pa.int64()),
                }
            )
        un, uc = np.unique(
            np.concatenate(anchors + w1s + w2s), return_counts=True
        )
        return pa.table(
            {
                "node": pa.array(un, pa.int64()),
                "t": pa.array(uc.astype(np.int64), pa.int64()),
            }
        )

    range_ds = ray.data.from_arrow(
        pa.table(
            {
                "lo": pa.array([r[0] for r in ranges], pa.int64()),
                "hi": pa.array([r[1] for r in ranges], pa.int64()),
            }
        )
    ).repartition(len(ranges))
    out = range_ds.map_batches(walk, batch_format="pyarrow")
    if per_node:
        return collect_table(out), nodes, degs
    return int(out.sum("t") or 0), nodes, degs


def _probe_closed(w1: np.ndarray, w2: np.ndarray, table) -> np.ndarray:
    """Boolean mask of wedges whose (w1, w2) closing edge exists in the
    probe ``table`` built by :func:`_probe_from_arrays`."""
    from ..hashing import hash64_columns

    if table[0] == "ck":
        _, base, keys = table
        qk = w1 * base + w2
        pos = np.searchsorted(keys, qk)
        ok = pos < len(keys)
        closed = np.zeros(len(qk), bool)
        closed[ok] = keys[pos[ok]] == qk[ok]
        return closed
    _, cks, us, vs, max_run = table
    qck = hash64_columns(
        pa.table(
            {"a": pa.array(w1, pa.int64()), "b": pa.array(w2, pa.int64())}
        ),
        ["a", "b"],
    )
    pos = np.searchsorted(cks, qck)
    closed = np.zeros(len(qck), bool)
    for r in range(max_run):
        p = pos + r
        ok = p < len(cks)
        hit = ok.copy()
        pi = p[ok]
        hit[ok] = (cks[pi] == qck[ok]) & (us[pi] == w1[ok]) & (
            vs[pi] == w2[ok]
        )
        closed |= hit
    return closed


# Above this edge-set byte size the probe table stops fitting the plasma
# broadcast budget and the composite-key planner join takes over.  The
# broadcast probe is ONE plasma object per node (u, v, sorted composite
# keys = 24 B/edge) read zero-copy by every walk task, so the bound is
# per-node object-store headroom, not per-task heap — 1 GiB (~44M edges)
# is comfortable on production nodes.  The budget matters: the round-5
# sf1 soak measured a 10x WALL CLIFF at the boundary (12M edges: 29 s on
# the broadcast plan vs 300 s on the join plan, same data — the join
# plan's 411M-wedge exchange is linear but carries a ~10x constant), so
# an undersized cap silently decimates the graph family.  Tunable via
# GRAFT_TRIANGLE_BROADCAST_BYTES for smaller nodes.
_TRIANGLE_BROADCAST_MAX_EDGES = int(
    os.environ.get("GRAFT_TRIANGLE_BROADCAST_BYTES", str(1 << 30))
) // 24


def _resolve_probe(n_edges: int) -> str:
    return "broadcast" if n_edges <= _TRIANGLE_BROADCAST_MAX_EDGES else "join"


def _closed_wedges_join(oriented: ray.data.Dataset, *, with_anchor: bool):
    """Join-plan closure (the at-scale path when the edge set outgrows the
    broadcast budget): wedges stream through ONE exchange into the
    collision-safe composite-key planner join; each triangle closes
    exactly one wedge."""
    from ..cluster import equi_join_multi

    w_cols = (["anchor"] if with_anchor else []) + ["w1", "w2"]
    _EMPTY_W = pa.table({c: pa.array([], pa.int64()) for c in w_cols})

    def wedges(group: pa.Table) -> pa.Table:
        w = _wedge_arrays(group)
        if w is None:
            return _EMPTY_W
        anchor, w1, w2 = w
        cols = {
            "w1": pa.array(w1, pa.int64()),
            "w2": pa.array(w2, pa.int64()),
        }
        if with_anchor:
            cols["anchor"] = pa.array(anchor, pa.int64())
        return pa.table({c: cols[c] for c in w_cols})

    wedge_ds = oriented.groupby("bucket").map_groups(
        wedges, batch_format="pyarrow"
    )
    return equi_join_multi(
        wedge_ds,
        oriented.select_columns(["u", "v"]),
        on=["w1", "w2"],
        right_on=["u", "v"],
        join_type="inner",
        left_cols=(["anchor"] if with_anchor else ["w1"]),
        right_cols=[],
    )


def triangle_count(
    edges: ray.data.Dataset,
    *,
    src_col: str = "x",
    dst_col: str = "y",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Exact triangle count over an undirected simple edge list — the
    clustering-coefficient / community-density primitive.  One row out:
    ``(n_triangles, n_edges, n_nodes)``.

    Degree-oriented wedge algorithm (the MapReduce-standard plan): every
    node gets a dense rank by (degree, id); each edge orients low-rank →
    high-rank, which bounds every out-degree by O(√|E|) regardless of how
    skewed the raw degree distribution is.  The broadcast plan (whenever
    the edge set fits ``_TRIANGLE_BROADCAST_MAX_EDGES``) is ZERO-exchange
    (:func:`_broadcast_wedge_walk`): the edge set collects once, orients
    on the driver, ships to plasma once, and the wedge stream
    (Σ out-deg², ~40M rows at sf0.1) closes inside independent tasks over
    u-run ranges balanced by wedge count.  The join plan is the
    at-scale fallback: the distributed orientation
    (:func:`_orient_edges`) plus wedges streamed through the
    collision-safe composite-key planner join (``equi_join_multi``).
    Both plans are exact and tested equal.
    """
    ecols = edges.select_columns([src_col, dst_col]).materialize()
    n_edges = ecols.count()
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "n_triangles": pa.array([0], pa.int64()),
                    "n_edges": pa.array([0], pa.int64()),
                    "n_nodes": pa.array([0], pa.int64()),
                }
            )
        )
    plan = _resolve_probe(n_edges)
    if plan == "join":
        oriented, n_edges, deg = _orient_edges(
            ecols, src_col=src_col, dst_col=dst_col, n_buckets=n_buckets
        )
        n_tri = _closed_wedges_join(oriented, with_anchor=False).count()
        n_nodes = deg.num_rows
    else:
        n_tri, nodes, _ = _broadcast_wedge_walk(
            ecols, src_col, dst_col, per_node=False
        )
        n_nodes = len(nodes)
    return ray.data.from_arrow(
        pa.table(
            {
                "n_triangles": pa.array([int(n_tri or 0)], pa.int64()),
                "n_edges": pa.array([n_edges], pa.int64()),
                "n_nodes": pa.array([n_nodes], pa.int64()),
            }
        )
    )


def clustering_coefficients(
    edges: ray.data.Dataset,
    *,
    src_col: str = "x",
    dst_col: str = "y",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-node local clustering coefficient over an undirected simple
    edge list: ``clustering_ppm = 10^6 · 2·triangles(v) // (d·(d−1))`` —
    integer-exact, one row per node (zero-triangle nodes included),
    sorted by (ppm desc, node asc).

    Same probe plans as :func:`triangle_count`; the broadcast plan is
    zero-exchange end to end (:func:`_broadcast_wedge_walk` — per-node
    attribution partials, 3 per triangle, collect straight to the driver
    whose node table already lives there); the join plan keeps the
    node-keyed coarse aggregate.  The finish (merge triangle counts onto
    the degree table, one integer division) runs on the driver over two
    node-bounded tables.
    """
    from ..cluster import collect_table
    from .agg import bucket_groupby_sum

    _EMPTY = pa.table(
        {
            "node": pa.array([], pa.int64()),
            "degree": pa.array([], pa.int64()),
            "n_triangles": pa.array([], pa.int64()),
            "clustering_ppm": pa.array([], pa.int64()),
        }
    )
    ecols = edges.select_columns([src_col, dst_col]).materialize()
    n_edges = ecols.count()
    if n_edges == 0:
        return ray.data.from_arrow(_EMPTY)

    _EMPTY_T = pa.table(
        {"node": pa.array([], pa.int64()), "t": pa.array([], pa.int64())}
    )

    def _node_counts(node_arr: np.ndarray) -> pa.Table:
        un, uc = np.unique(node_arr, return_counts=True)
        return pa.table(
            {
                "node": pa.array(un, pa.int64()),
                "t": pa.array(uc.astype(np.int64), pa.int64()),
            }
        )

    plan = _resolve_probe(n_edges)
    if plan == "join":
        oriented, n_edges, deg = _orient_edges(
            ecols, src_col=src_col, dst_col=dst_col, n_buckets=n_buckets
        )
        closed = _closed_wedges_join(oriented, with_anchor=True)

        def expand(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "anchor" not in batch.column_names:
                return _EMPTY_T
            return _node_counts(
                np.concatenate(
                    [
                        batch[c].to_numpy(zero_copy_only=False).astype(
                            np.int64
                        )
                        for c in ("anchor", "w1", "w2")
                    ]
                )
            )

        partials = closed.map_batches(expand, batch_format="pyarrow")
        tcnt = collect_table(bucket_groupby_sum(partials, ["node"], ["t"]))
        nodes = deg["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        degs = deg["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(nodes)
        nodes, degs = nodes[o], degs[o]
    else:
        tcnt, nodes, degs = _broadcast_wedge_walk(
            ecols, src_col, dst_col, per_node=True
        )

    tri = np.zeros(len(nodes), np.int64)
    if tcnt is not None and tcnt.num_rows:
        tn = tcnt["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        tv = tcnt["t"].to_numpy(zero_copy_only=False).astype(np.int64)
        # broadcast-plan partials can repeat a node across tasks — merge
        # additively (exact for the join plan's unique rows too)
        np.add.at(tri, np.searchsorted(nodes, tn), tv)
    denom = degs * (degs - 1)
    ppm = np.zeros(len(nodes), np.int64)
    nz = denom > 0
    ppm[nz] = (2_000_000 * tri[nz]) // denom[nz]
    order = np.lexsort((nodes, -ppm))
    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes[order], pa.int64()),
                "degree": pa.array(degs[order], pa.int64()),
                "n_triangles": pa.array(tri[order], pa.int64()),
                "clustering_ppm": pa.array(ppm[order], pa.int64()),
            }
        )
    )


# ---------------------------------------------------------------------------
# k-core decomposition
# ---------------------------------------------------------------------------


def _local_kcore(
    u: "np.ndarray", v: "np.ndarray", k: int
) -> tuple["np.ndarray", "np.ndarray"]:
    """Vectorized batch peel over compact indices: drop every node of
    degree < k each round until fixpoint.  Returns ``(core_nodes,
    degrees)`` — degree counted WITHIN the core — sorted by node id."""
    from ..arrays import unique_inverse

    ids, inv = unique_inverse(np.concatenate([u, v]))
    uu, vv = inv[: len(u)], inv[len(u) :]
    alive = np.ones(len(ids), bool)
    ealive = np.ones(len(uu), bool)
    while True:
        deg = np.bincount(uu[ealive], minlength=len(ids)) + np.bincount(
            vv[ealive], minlength=len(ids)
        )
        dead = alive & (deg < k)
        if not dead.any():
            break
        alive &= ~dead
        ealive &= alive[uu] & alive[vv]
    keep = np.flatnonzero(alive)
    return ids[keep], deg[keep].astype(np.int64)


def kcore_members(
    edges: ray.data.Dataset,
    *,
    k: int,
    u_col: str = "u",
    v_col: str = "v",
    max_rounds: int = 256,
) -> ray.data.Dataset:
    """k-core of an undirected edge list (one row per edge, either
    orientation, no duplicate pairs): iteratively remove ALL nodes of
    degree < k until fixpoint — the standard graph-curation primitive for
    extracting the dense backbone (spam-farm detection, community seeds).
    Returns ``(node, degree)``, degree counted WITHIN the core, sorted by
    node.  Isolated nodes are never in a k-core for k ≥ 1.

    At or below ``LOCAL_CC_THRESHOLD`` edges the edge list collects to the
    driver for the vectorized numpy peel; the distributed plan runs one
    degree aggregate (per-block endpoint bincount partials through the
    coarse-bucket exchange) plus one broadcast dead-set edge filter per
    round, materializing the shrinking (two-int-column) edge table between
    rounds exactly as the CC loop does.  Rounds are O(peel depth) — dense
    co-occurrence graphs converge in a handful; a path graph is the
    adversarial worst case (``max_rounds`` guards, fail loud).  The
    dead-node set broadcast per round is node-bounded and shrinking; past
    plasma budgets the filter becomes a keyed anti-join (the planner
    escalation every broadcast op here documents)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    import pyarrow.compute as pc

    from ..cluster import collect_table
    from ..stages.agg import bucket_groupby_sum

    def bidir(batch: pa.Table) -> pa.Table:
        u = batch[u_col].cast(pa.int64())
        v = batch[v_col].cast(pa.int64())
        if pc.any(pc.equal(u, v)).as_py():
            # the local plan's eu<ev re-dedup would DROP a self-loop while
            # the distributed degree count would keep it — fail loud
            # rather than let the plan choice pick the answer
            raise ValueError("kcore_members requires a self-loop-free edge list")
        return pa.concat_tables(
            [pa.table({"eu": u, "ev": v}), pa.table({"eu": v, "ev": u})]
        ).combine_chunks()

    edges2 = edges.map_batches(bidir, batch_format="pyarrow").materialize()

    _EMPTY = pa.table(
        {"node": pa.array([], pa.int64()), "degree": pa.array([], pa.int64())}
    )

    if edges2.count() // 2 <= LOCAL_CC_THRESHOLD:
        etbl = collect_table(edges2)
        if etbl is None or etbl.num_rows == 0:
            return ray.data.from_arrow(_EMPTY)
        # bidir doubled every edge; keep each undirected pair once
        # (eu < ev — the input lists no self-loops or duplicate pairs)
        m = pc.less(etbl["eu"], etbl["ev"])
        etbl = etbl.filter(m)
        u = etbl["eu"].to_numpy(zero_copy_only=False)
        v = etbl["ev"].to_numpy(zero_copy_only=False)
        nodes, deg = _local_kcore(u, v, k)
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "degree": pa.array(deg, pa.int64()),
                }
            )
        )

    import ray as _ray

    def deg_partial(batch: pa.Table) -> pa.Table:
        g = (
            pa.table({"node": batch["eu"]})
            .group_by("node")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"node": g["node"], "d": g["count_all"].cast(pa.int64())}
        )

    cur = edges2
    for _ in range(max_rounds):
        # the reduced degree table is node-bounded — collect it ONCE per
        # round and derive the dead set driver-side (collecting a lazy
        # filtered view twice would re-run the whole scan + exchange)
        deg_tbl = collect_table(
            bucket_groupby_sum(
                cur.map_batches(deg_partial, batch_format="pyarrow"),
                ["node"],
                ["d"],
            )
        )
        if deg_tbl is None or deg_tbl.num_rows == 0:
            return ray.data.from_arrow(_EMPTY)
        low = pc.less(deg_tbl["d"], k)
        dead_tbl = deg_tbl.filter(low)
        if dead_tbl.num_rows == 0:
            out = (
                pa.table(
                    {"node": deg_tbl["node"], "degree": deg_tbl["d"]}
                )
                .sort_by("node")
            )
            return ray.data.from_arrow(out)
        dead = dead_tbl["node"]
        if isinstance(dead, pa.ChunkedArray):
            dead = dead.combine_chunks()
        dead_ref = _ray.put(dead)

        def drop_dead(batch: pa.Table) -> pa.Table:
            dd = _ray.get(dead_ref)
            keep = pc.and_(
                pc.invert(pc.is_in(batch["eu"], value_set=dd)),
                pc.invert(pc.is_in(batch["ev"], value_set=dd)),
            )
            return batch.filter(keep)

        cur = cur.map_batches(drop_dead, batch_format="pyarrow").materialize()
        if cur.count() == 0:
            return ray.data.from_arrow(_EMPTY)
    raise RuntimeError(
        f"kcore_members did not converge within {max_rounds} rounds"
    )


def bfs_levels(
    edges: ray.data.Dataset,
    sources: "list[int] | np.ndarray",
    *,
    u_col: str = "u",
    v_col: str = "v",
    max_hops: int = 4,
    bidirectional: bool = True,
) -> ray.data.Dataset:
    """Multi-source breadth-first hop levels: ``(node, hop)`` with the
    MINIMUM hop distance from any source, for every node within
    ``max_hops``.  Sources are always emitted at hop 0, present in the
    edge list or not (the SQL seed row mirrors this).

    The iterative-frontier plan — the third graph-loop shape beside
    fixed-iteration PageRank and label-propagation components:

    * the edge Dataset is symmetrized (when ``bidirectional``) and
      materialized ONCE; each hop is one streaming pass over its blocks —
      edges never shuffle and are never re-read from storage;
    * the current frontier ships once per hop as a sorted int64 array via
      ``ray.put`` (broadcast, not per-batch); each block probes it with
      ``searchsorted`` and emits only its DISTINCT in-frontier neighbor
      candidates (``np.unique``), so the per-hop exchange is bounded by
      the NODE domain — never the 100-TB edge count;
    * visited/level state merges on the driver — the engine's
      bounded-domain convention: nodes are the catalog-side dimension
      (parts × suppliers here), facts only stream.  A node table too big
      for one machine needs the label-propagation formulation instead
      (``connected_components``-style joins), noted as the upgrade path.

    Early-exits when a frontier empties.  Raises on ``max_hops < 0``.
    """
    import ray as _ray

    if max_hops < 0:
        raise ValueError(f"max_hops must be >= 0, got {max_hops}")
    src = np.unique(np.asarray(list(sources), dtype=np.int64))
    if src.size == 0:
        raise ValueError("bfs_levels needs at least one source node")

    def prep(batch: pa.Table) -> pa.Table:
        u = batch[u_col].cast(pa.int64())
        v = batch[v_col].cast(pa.int64())
        if bidirectional:
            return pa.concat_tables(
                [pa.table({"eu": u, "ev": v}), pa.table({"eu": v, "ev": u})]
            ).combine_chunks()
        return pa.table({"eu": u, "ev": v})

    edges2 = edges.map_batches(prep, batch_format="pyarrow").materialize()

    visited = src.copy()  # sorted
    out_nodes = [src]
    out_hops = [np.zeros(src.size, dtype=np.int64)]
    frontier = src

    from ..cluster import collect_table

    for hop in range(1, max_hops + 1):
        if frontier.size == 0:
            break
        frontier_ref = _ray.put(frontier)  # sorted int64

        def probe(batch: pa.Table, _ref=frontier_ref) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table({"node": pa.array([], pa.int64())})
            f = _ray.get(_ref)
            u = batch["eu"].to_numpy(zero_copy_only=False)
            v = batch["ev"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(f, u)
            np.clip(pos, 0, f.size - 1, out=pos)
            hit = f[pos] == u
            cand = np.unique(v[hit])
            return pa.table({"node": pa.array(cand, pa.int64())})

        tbl = collect_table(
            edges2.map_batches(probe, batch_format="pyarrow")
        )
        if tbl is None:
            break
        cand = np.unique(tbl["node"].to_numpy(zero_copy_only=False))
        new = cand[
            ~np.isin(cand, visited, assume_unique=True, kind="sort")
        ]
        if new.size == 0:
            break
        out_nodes.append(new)
        out_hops.append(np.full(new.size, hop, dtype=np.int64))
        visited = np.union1d(visited, new)
        frontier = new

    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(np.concatenate(out_nodes), pa.int64()),
                "hop": pa.array(np.concatenate(out_hops), pa.int64()),
            }
        )
    )
