"""Integer-exact PageRank (stages/graph.pagerank_int)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from deepseek_ocr_ray.stages.graph import pagerank_int


def _edges_tab(pairs):
    return pa.table(
        {
            "src": pa.array([p[0] for p in pairs], pa.int64()),
            "dst": pa.array([p[1] for p in pairs], pa.int64()),
        }
    )


def _naive(pairs, iters, scale=1_000_000, damping=85):
    nodes = sorted({u for u, _ in pairs})
    deg = {}
    for u, _ in pairs:
        deg[u] = deg.get(u, 0) + 1
    base = ((100 - damping) * scale) // 100
    r = {u: scale for u in nodes}
    for _ in range(iters):
        inc = {u: 0 for u in nodes}
        for u, v in pairs:
            inc[v] += r[u] // deg[u]
        r = {u: base + (damping * inc[u]) // 100 for u in nodes}
    return r


def test_pagerank_matches_naive_on_random_symmetric_graph(ray_session):
    import ray.data

    rng = np.random.RandomState(11)
    und = {tuple(sorted(p)) for p in rng.randint(0, 40, (120, 2)) if p[0] != p[1]}
    pairs = [(int(u), int(v)) for u, v in und] + [
        (int(v), int(u)) for u, v in und
    ]
    want = _naive(pairs, 3)
    for parts in (1, 7):
        got = {
            r["node"]: r["rank_scaled"]
            for r in pagerank_int(
                ray.data.from_arrow(_edges_tab(pairs)).repartition(parts),
                num_iters=3,
            ).take_all()
        }
        assert got == want


def test_pagerank_star_graph_center_dominates(ray_session):
    import ray.data

    pairs = [(0, i) for i in range(1, 6)] + [(i, 0) for i in range(1, 6)]
    got = {
        r["node"]: r["rank_scaled"]
        for r in pagerank_int(
            ray.data.from_arrow(_edges_tab(pairs)), num_iters=4
        ).take_all()
    }
    assert got[0] > max(got[i] for i in range(1, 6))
    assert len({got[i] for i in range(1, 6)}) == 1  # leaves symmetric


def test_pagerank_rejects_asymmetric_node_sets(ray_session):
    import ray.data

    with pytest.raises(Exception, match="symmetrize"):
        pagerank_int(
            ray.data.from_arrow(_edges_tab([(1, 2), (2, 3)])), num_iters=1
        ).take_all()


def test_triangle_count_known_graph(ray_session):
    """K4 has exactly 4 triangles; a dangling path adds edges but none."""
    from deepseek_ocr_ray.stages.graph import triangle_count

    k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    path = [(4, 5), (5, 6)]
    edges = pa.table(
        {
            "x": pa.array([e[0] for e in k4 + path], pa.int64()),
            "y": pa.array([e[1] for e in k4 + path], pa.int64()),
        }
    )
    out = triangle_count(
        ray.data.from_arrow(edges).repartition(3)
    ).to_pandas()
    assert out.n_triangles.iloc[0] == 4
    assert out.n_edges.iloc[0] == 8 and out.n_nodes.iloc[0] == 6


def test_triangle_count_empty_and_invariant(ray_session):
    from deepseek_ocr_ray.stages.graph import triangle_count

    empty = pa.table(
        {"x": pa.array([], pa.int64()), "y": pa.array([], pa.int64())}
    )
    out = triangle_count(ray.data.from_arrow(empty)).to_pandas()
    assert out.n_triangles.iloc[0] == 0 and out.n_nodes.iloc[0] == 0

    rng = np.random.RandomState(17)
    # random simple graph: sample distinct pairs over 30 nodes
    pairs = sorted(
        {
            (a, b)
            for a, b in zip(rng.randint(0, 30, 200), rng.randint(0, 30, 200))
            if a < b
        }
    )
    edges = pa.table(
        {
            "x": pa.array([p[0] for p in pairs], pa.int64()),
            "y": pa.array([p[1] for p in pairs], pa.int64()),
        }
    )
    counts = [
        triangle_count(ray.data.from_arrow(edges).repartition(n))
        .to_pandas()
        .n_triangles.iloc[0]
        for n in (1, 5)
    ]
    # brute reference
    import itertools

    es = set(pairs)
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    brute = sum(
        1
        for a, b, c in itertools.combinations(sorted(adj), 3)
        if (a, b) in es and (b, c) in es and (a, c) in es
    )
    assert counts[0] == counts[1] == brute


def test_clustering_coefficients_known(ray_session):
    """K4 ∪ path 4-5-6: K4-internal nodes have coefficient 1.0; node 4
    (degree 4, 3 triangles) gets 2e6·3//12 = 500000; path nodes 0."""
    from deepseek_ocr_ray.stages.graph import clustering_coefficients

    es = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)]
    edges = pa.table(
        {
            "x": pa.array([e[0] for e in es], pa.int64()),
            "y": pa.array([e[1] for e in es], pa.int64()),
        }
    )
    out = (
        clustering_coefficients(ray.data.from_arrow(edges).repartition(3))
        .to_pandas()
        .set_index("node")
    )
    assert out.loc[1].clustering_ppm == 1_000_000
    assert out.loc[2].n_triangles == 3 and out.loc[3].degree == 3
    assert out.loc[4].clustering_ppm == 500_000 and out.loc[4].degree == 4
    assert out.loc[5].clustering_ppm == 0 and out.loc[6].n_triangles == 0
    # ordering: ppm desc, node asc
    assert out.index.tolist() == [1, 2, 3, 4, 5, 6]


def test_triangle_probe_plans_equal(ray_session, monkeypatch):
    """broadcast (in-walk closure) and join (composite-key planner) plans
    must agree exactly — totals AND per-node attributions."""
    from deepseek_ocr_ray.stages import graph
    from deepseek_ocr_ray.stages.graph import (
        clustering_coefficients,
        triangle_count,
    )

    rng = np.random.RandomState(23)
    pairs = sorted(
        {
            (a, b)
            for a, b in zip(rng.randint(0, 25, 150), rng.randint(0, 25, 150))
            if a < b
        }
    )
    edges = pa.table(
        {
            "x": pa.array([p[0] for p in pairs], pa.int64()),
            "y": pa.array([p[1] for p in pairs], pa.int64()),
        }
    )
    ds = lambda: ray.data.from_arrow(edges).repartition(4)  # noqa: E731
    a = triangle_count(ds()).to_pandas()  # broadcast at this size
    ca = clustering_coefficients(ds()).to_pandas()
    monkeypatch.setattr(graph, "_TRIANGLE_BROADCAST_MAX_EDGES", -1)
    b = triangle_count(ds()).to_pandas()
    assert a.equals(b)
    cb = clustering_coefficients(ds()).to_pandas()
    import pandas as pd

    pd.testing.assert_frame_equal(ca, cb)


# ---------------------------------------------------------------------------
# k-core decomposition
# ---------------------------------------------------------------------------


def _edge_ds(pairs):
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "u": pa.array([a for a, _ in pairs], pa.int64()),
                "v": pa.array([b for _, b in pairs], pa.int64()),
            }
        )
    )


def _k4_with_tail():
    """K4 on {1,2,3,4} plus a tail 4-5-6: the 3-core is exactly the K4
    (peeling 6 then 5 takes two rounds — exercises iteration)."""
    k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    return k4 + [(4, 5), (5, 6)]


def test_kcore_peels_tail(ray_session):
    from deepseek_ocr_ray.stages.graph import kcore_members

    out = kcore_members(_edge_ds(_k4_with_tail()), k=3).to_pandas()
    assert out.node.tolist() == [1, 2, 3, 4]
    assert out.degree.tolist() == [3, 3, 3, 3]


def test_kcore_empty_core(ray_session):
    from deepseek_ocr_ray.stages.graph import kcore_members

    # a path graph has no 2-core
    out = kcore_members(_edge_ds([(1, 2), (2, 3), (3, 4)]), k=2).to_pandas()
    assert len(out) == 0


def test_kcore_plan_equality(ray_session, monkeypatch):
    import numpy as np
    import pandas as pd

    from deepseek_ocr_ray.stages import graph
    from deepseek_ocr_ray.stages.graph import kcore_members

    rng = np.random.RandomState(7)
    pairs = set()
    while len(pairs) < 400:
        a, b = rng.randint(0, 60, 2)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    ds = _edge_ds(sorted(pairs))
    for k in (2, 4, 7):
        monkeypatch.setattr(graph, "LOCAL_CC_THRESHOLD", 1 << 62)
        loc = kcore_members(ds, k=k).to_pandas()
        monkeypatch.setattr(graph, "LOCAL_CC_THRESHOLD", -1)
        dist = kcore_members(ds, k=k).to_pandas()
        pd.testing.assert_frame_equal(
            loc.reset_index(drop=True), dist.reset_index(drop=True)
        )


def test_kcore_validation(ray_session):
    from deepseek_ocr_ray.stages.graph import kcore_members

    with pytest.raises(ValueError):
        kcore_members(_edge_ds([(1, 2)]), k=0)


def test_kcore_rejects_self_loops(ray_session):
    from deepseek_ocr_ray.stages.graph import kcore_members

    with pytest.raises(Exception, match="self-loop"):
        kcore_members(_edge_ds([(1, 1), (1, 2)]), k=1).to_pandas()


def test_triangle_probe_hash_fallback_huge_ids(ray_session):
    """Node ids past the composite-key ceiling must route through the
    hashed probe and still count exactly."""
    from deepseek_ocr_ray.stages.graph import (
        _COMPOSITE_KEY_MAX_ID,
        triangle_count,
    )

    big = _COMPOSITE_KEY_MAX_ID + 10
    # K4 on shifted ids plus a dangling edge
    ids = [big + i for i in range(4)]
    pairs = [(ids[a], ids[b]) for a in range(4) for b in range(a + 1, 4)]
    pairs.append((ids[3], big + 100))
    out = triangle_count(
        _edge_ds(pairs), src_col="u", dst_col="v"
    ).to_pandas()
    assert out.n_triangles.tolist() == [4]


@pytest.mark.parametrize("seed", [7, 31, 63])
def test_clustering_matches_brute_force_triples(ray_session, seed):
    """The zero-exchange broadcast walk must agree with an O(n³)
    all-triples reference on random graphs — total AND per-node counts,
    degrees, and the integer ppm."""
    from deepseek_ocr_ray.stages.graph import clustering_coefficients

    rng = np.random.RandomState(seed)
    n_nodes = int(rng.randint(8, 30))
    pairs = sorted(
        {
            (a, b)
            for a, b in zip(
                rng.randint(0, n_nodes, 120), rng.randint(0, n_nodes, 120)
            )
            if a < b
        }
    )
    adj = {v: set() for v in range(n_nodes)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    tri = {v: 0 for v in range(n_nodes)}
    for a in range(n_nodes):
        for b in adj[a]:
            if b <= a:
                continue
            for c in adj[b]:
                if c <= b or c not in adj[a]:
                    continue
                tri[a] += 1
                tri[b] += 1
                tri[c] += 1
    edges = pa.table(
        {
            "x": pa.array([p[0] for p in pairs], pa.int64()),
            "y": pa.array([p[1] for p in pairs], pa.int64()),
        }
    )
    out = (
        clustering_coefficients(
            ray.data.from_arrow(edges).repartition(4)
        )
        .to_pandas()
        .set_index("node")
    )
    seen = {v for p in pairs for v in p}
    assert set(out.index) == seen
    for v in seen:
        d = len(adj[v])
        assert out.loc[v].degree == d
        assert out.loc[v].n_triangles == tri[v], (seed, v)
        want_ppm = (2_000_000 * tri[v]) // (d * (d - 1)) if d >= 2 else 0
        assert out.loc[v].clustering_ppm == want_ppm


@pytest.mark.parametrize("seed", [2, 12, 47, 88])
def test_wedge_task_ranges_cover_every_wedge_run(seed, monkeypatch):
    """Coverage property for the broadcast plan's task splitter: the
    union of ranges must contain EVERY wedge-bearing u-run exactly once,
    for any run profile and task budget — the float-target version
    dropped the final run when its last wedge landed on a truncated
    split point (only reachable with n_tasks > 1, i.e. production
    scale, so this test forces a tiny per-task budget)."""
    from deepseek_ocr_ray.stages import graph as G

    monkeypatch.setattr(G, "_WEDGES_PER_TASK", int(seed) % 7 + 2)
    rng = np.random.RandomState(seed)
    n_runs = int(rng.randint(1, 60))
    lens = rng.randint(1, 8, n_runs).astype(np.int64)
    # adversarial tail: force the LAST run to contribute exactly 1 wedge
    lens[-1] = 2
    run_starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    n_edges = int(lens.sum())
    wedge_cum = np.cumsum(lens * (lens - 1) // 2)
    ranges = G._wedge_task_ranges(run_starts, wedge_cum, n_edges)
    total = int(wedge_cum[-1])
    if total == 0:
        assert ranges == []
        return
    # ranges are disjoint, ordered, aligned to run boundaries, and cover
    # every run that has at least one wedge
    covered = set()
    prev_end = 0
    boundaries = set(run_starts.tolist()) | {n_edges}
    for lo, hi in ranges:
        assert lo == prev_end or lo >= prev_end
        assert lo in boundaries and hi in boundaries and hi > lo
        prev_end = hi
        for i, s in enumerate(run_starts):
            e = run_starts[i + 1] if i + 1 < len(run_starts) else n_edges
            if s >= lo and e <= hi:
                covered.add(i)
    wedge_runs = {i for i in range(n_runs) if lens[i] >= 2}
    assert wedge_runs <= covered, (
        f"dropped wedge-bearing runs: {sorted(wedge_runs - covered)}"
    )


def test_broadcast_walk_multi_task_equals_single(ray_session, monkeypatch):
    """End-to-end: a tiny per-task wedge budget (many ranges) must give
    byte-identical clustering output to the single-task default."""
    from deepseek_ocr_ray.stages import graph as G
    from deepseek_ocr_ray.stages.graph import clustering_coefficients

    rng = np.random.RandomState(5)
    pairs = sorted(
        {
            (a, b)
            for a, b in zip(rng.randint(0, 30, 200), rng.randint(0, 30, 200))
            if a < b
        }
    )
    edges = pa.table(
        {
            "x": pa.array([p[0] for p in pairs], pa.int64()),
            "y": pa.array([p[1] for p in pairs], pa.int64()),
        }
    )
    # both runs take the broadcast plan (the edge set is far below its cap)
    base = clustering_coefficients(ray.data.from_arrow(edges)).to_pandas()
    monkeypatch.setattr(G, "_WEDGES_PER_TASK", 3)
    many = clustering_coefficients(ray.data.from_arrow(edges)).to_pandas()
    import pandas as pd

    pd.testing.assert_frame_equal(base, many)


@pytest.mark.parametrize("seed", [2, 9])
def test_pagerank_local_vs_distributed_plan_equality(
    ray_session, seed, monkeypatch
):
    import numpy as np
    import ray.data

    from deepseek_ocr_ray.stages import graph
    from deepseek_ocr_ray.stages.graph import pagerank_int

    rng = np.random.RandomState(seed)
    n_nodes = int(rng.randint(20, 60))
    m = int(rng.randint(40, 200))
    u = rng.randint(0, n_nodes, m).astype(np.int64)
    v = rng.randint(0, n_nodes, m).astype(np.int64)
    # symmetrize so the node-set precondition holds; duplicates kept on
    # purpose (the internal dedup must behave identically in both plans)
    eu = np.concatenate([u, v])
    ev = np.concatenate([v, u])
    t = pa.table({"src": pa.array(eu), "dst": pa.array(ev)})
    outs = []
    for threshold in (1 << 62, -1):  # local, distributed
        monkeypatch.setattr(graph, "LOCAL_CC_THRESHOLD", threshold)
        ds = ray.data.from_arrow(t).repartition(4)
        df = (
            pagerank_int(ds, num_iters=3)
            .to_pandas()
            .sort_values("node")
            .reset_index(drop=True)
        )
        outs.append(df)
    assert outs[0].equals(outs[1])
