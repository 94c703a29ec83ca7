"""stages/linalg.py — exact integer determinants, group-wise OLS via
normal equations, quantized vector moments / covariance / PCA."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from deepseek_ocr_ray.stages.linalg import (
    covariance_table,
    grouped_vector_moments,
    groupwise_ols,
    int_det,
    pca_components,
    pca_project,
    quantize_matrix,
    vector_moments,
)

SF_DIR = "/root/testdata/sf0.001"


# ---------------------------------------------------------------- int_det


def test_int_det_vs_numpy():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for _ in range(20):
            m = rng.integers(-9, 10, size=(n, n))
            expect = round(float(np.linalg.det(m.astype(np.float64))))
            assert int_det(m.tolist()) == expect


def test_int_det_edge_cases():
    assert int_det([]) == 1
    assert int_det([[5]]) == 5
    # singular (duplicate rows)
    assert int_det([[1, 2], [1, 2]]) == 0
    # zero pivot forces the row swap (sign flip)
    assert int_det([[0, 1], [1, 0]]) == -1
    # a case whose Bareiss interior exceeds the naive pivot range
    m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    assert int_det(m) == round(float(np.linalg.det(np.array(m, float))))
    with pytest.raises(ValueError):
        int_det([[1, 2, 3], [4, 5, 6]])


def test_int_det_big_integers_exact():
    # beyond float53 precision — numpy would round, Bareiss must not
    base = 10**12
    m = [[base, base + 1], [base - 1, base]]
    # det = base² − (base+1)(base−1) = 1
    assert int_det(m) == 1


# ----------------------------------------------------------- quantization


def test_quantize_matrix_pinned_formula():
    m = np.array(
        [[0.0, 1.5e-6, -1.5e-6, -5e-7, 0.4999995]], dtype=np.float32
    )
    q = quantize_matrix(m, 1_000_000)
    # FLOOR(double(x)·1e6 + 0.5): float32 storage widens exactly first
    expect = np.floor(m.astype(np.float64) * 1e6 + 0.5).astype(np.int64)
    assert (q == expect).all()
    assert q.dtype == np.int64


# ------------------------------------------------------------------- OLS


def _ols_fixture() -> pa.Table:
    rng = np.random.default_rng(11)
    n = 400
    x0 = rng.integers(1, 50, n)
    x1 = rng.integers(0, 1000, n)
    grp = np.where(rng.random(n) < 0.5, "A", "B")
    # noiseless integer plane per group ⇒ Cramer recovers it EXACTLY
    y = np.where(grp == "A", 3 + 2 * x0 - x1, -7 + 5 * x0 + 4 * x1)
    return pa.table(
        {
            "g": pa.array(grp.tolist(), pa.string()),
            "x0": pa.array(x0, pa.int64()),
            "x1": pa.array(x1, pa.int64()),
            "y": pa.array(y, pa.int64()),
        }
    )


def test_groupwise_ols_exact_recovery(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_ols_fixture()).repartition(5)
    out = groupwise_ols(
        ds, ["g"], ["x0", "x1"], "y", max_abs_row_product=10**9
    ).to_pandas()
    assert list(out["g"]) == ["A", "B"]
    a, b = out.iloc[0], out.iloc[1]
    assert (a["b0"], a["b1"], a["b2"]) == (3.0, 2.0, -1.0)
    assert (b["b0"], b["b1"], b["b2"]) == (-7.0, 5.0, 4.0)
    # moments are exact int64 and n covers every row
    assert int(out["n"].sum()) == 400


def test_groupwise_ols_matches_lstsq(ray_session):
    import ray.data

    rng = np.random.default_rng(3)
    n = 300
    x0 = rng.integers(-20, 20, n)
    x1 = rng.integers(0, 100, n)
    y = rng.integers(-1000, 1000, n)
    t = pa.table(
        {
            "g": pa.array(["z"] * n),
            "x0": pa.array(x0, pa.int64()),
            "x1": pa.array(x1, pa.int64()),
            "y": pa.array(y, pa.int64()),
        }
    )
    out = groupwise_ols(
        ray.data.from_arrow(t).repartition(3),
        ["g"],
        ["x0", "x1"],
        "y",
        max_abs_row_product=10**8,
    ).to_pandas()
    X = np.column_stack([np.ones(n), x0, x1]).astype(np.float64)
    ref, *_ = np.linalg.lstsq(X, y.astype(np.float64), rcond=None)
    got = out[["b0", "b1", "b2"]].to_numpy()[0]
    assert np.allclose(got, ref, rtol=1e-9, atol=1e-9)


def test_groupwise_ols_singular_group_nan(ray_session):
    import ray.data

    t = pa.table(
        {
            "g": pa.array(["s"] * 10),
            "x0": pa.array([4] * 10, pa.int64()),  # constant ⇒ collinear
            "x1": pa.array(list(range(10)), pa.int64()),
            "y": pa.array(list(range(10)), pa.int64()),
        }
    )
    out = groupwise_ols(
        ray.data.from_arrow(t), ["g"], ["x0", "x1"], "y",
        max_abs_row_product=10**6,
    ).to_pandas()
    assert np.isnan(out[["b0", "b1", "b2"]].to_numpy()).all()


def test_groupwise_ols_layout_invariance(ray_session):
    import ray.data

    t = _ols_fixture()
    outs = []
    for parts in (1, 7):
        out = groupwise_ols(
            ray.data.from_arrow(t).repartition(parts),
            ["g"],
            ["x0", "x1"],
            "y",
            max_abs_row_product=10**9,
        ).to_pandas()
        outs.append(out)
    assert outs[0].equals(outs[1])


def test_groupwise_ols_horizon_guard(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_ols_fixture())
    with pytest.raises(Exception, match="moment horizon"):
        groupwise_ols(
            ds, ["g"], ["x0", "x1"], "y", max_abs_row_product=2**62
        ).to_pandas()


def test_groupwise_ols_validation(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_ols_fixture())
    with pytest.raises(ValueError):
        groupwise_ols(ds, ["g"], [], "y", max_abs_row_product=10)
    with pytest.raises(ValueError):
        groupwise_ols(ds, ["g"], ["x0"], "y", max_abs_row_product=0)


# -------------------------------------------------- vector moments / cov


def _vec_table(n=97, d=5, seed=2) -> tuple[pa.Table, np.ndarray]:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, d)).astype(np.float32) * 0.3
    t = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array(
                [row.tolist() for row in m], pa.list_(pa.float32())
            ),
        }
    )
    return t, m


def test_vector_moments_match_numpy(ray_session):
    import ray.data

    t, m = _vec_table()
    n, s, g = vector_moments(
        ray.data.from_arrow(t).repartition(4), scale=1_000_000
    )
    q = np.floor(m.astype(np.float64) * 1e6 + 0.5).astype(np.int64)
    assert n == 97
    assert (s.astype(np.int64) == q.sum(axis=0)).all()
    assert (g.astype(np.int64) == q.T @ q).all()


def test_vector_moments_partition_invariance(ray_session):
    import ray.data

    t, _ = _vec_table()
    r1 = vector_moments(ray.data.from_arrow(t).repartition(1))
    r9 = vector_moments(ray.data.from_arrow(t).repartition(9))
    assert r1[0] == r9[0]
    assert (r1[1] == r9[1]).all() and (r1[2] == r9[2]).all()


def test_covariance_table_matches_numpy(ray_session):
    import ray.data

    t, m = _vec_table(n=50, d=4)
    n, s, g = vector_moments(ray.data.from_arrow(t))
    cov = covariance_table(n, s, g).to_pandas()
    assert len(cov) == 4 * 5 // 2
    q = np.floor(m.astype(np.float64) * 1e6 + 0.5)
    ref = np.cov(q, rowvar=False) / 1e12  # sample covariance, ddof=1
    for _, r in cov.iterrows():
        assert abs(r["cov_ij"] - ref[int(r["i"]), int(r["j"])]) < 1e-12


def test_covariance_small_n_nan():
    t = covariance_table(
        1, np.array([3], dtype=object), np.array([[9]], dtype=object)
    )
    assert np.isnan(t["cov_ij"].to_numpy(zero_copy_only=False)).all()


def test_vector_moments_block_guard(ray_session):
    import ray.data

    t, _ = _vec_table(n=10, d=3)
    with pytest.raises(Exception, match="Gram horizon"):
        vector_moments(ray.data.from_arrow(t), scale=10**12)


# ---------------------------------------------------- grouped moments


def _labeled_vec_table(n=120, d=4, n_labels=3, seed=6) -> pa.Table:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, d)).astype(np.float32) * 0.3
    return pa.table(
        {
            "label": pa.array(
                rng.integers(0, n_labels, n).tolist(), pa.int32()
            ),
            "embedding": pa.array(
                [row.tolist() for row in m], pa.list_(pa.float32())
            ),
        }
    )


def test_grouped_vector_moments_match_numpy(ray_session):
    import ray.data

    t = _labeled_vec_table()
    out = grouped_vector_moments(
        ray.data.from_arrow(t).repartition(5)
    ).to_pandas()
    m = np.array([r for r in t["embedding"].to_pylist()], np.float32)
    q = np.floor(m.astype(np.float64) * 1e6 + 0.5).astype(np.int64)
    lab = np.asarray(t["label"].to_pylist())
    assert len(out) == len(np.unique(lab)) * 4
    for _, r in out.iterrows():
        rows = q[lab == r["label"], int(r["dim"])]
        assert r["n"] == len(rows)
        assert r["s"] == rows.sum()
        assert r["s2"] == (rows * rows).sum()
        assert abs(r["mean"] - rows.mean() / 1e6) < 1e-12
        assert abs(r["var"] - rows.var(ddof=1) / 1e12) < 1e-10


def test_grouped_vector_moments_layout_invariance(ray_session):
    import ray.data

    t = _labeled_vec_table(seed=13)
    outs = [
        grouped_vector_moments(
            ray.data.from_arrow(t).repartition(p)
        ).to_pandas()
        for p in (1, 9)
    ]
    assert outs[0].equals(outs[1])


def test_grouped_vector_moments_single_row_group_nan(ray_session):
    import ray.data

    t = pa.table(
        {
            "label": pa.array([0, 1, 1], pa.int32()),
            "embedding": pa.array(
                [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
                pa.list_(pa.float32()),
            ),
        }
    )
    out = grouped_vector_moments(ray.data.from_arrow(t)).to_pandas()
    v0 = out[out["label"] == 0]["var"]
    assert np.isnan(v0.to_numpy()).all()  # n=1 group
    assert np.isfinite(out[out["label"] == 1]["var"].to_numpy()).all()


# -------------------------------------------------------------------- PCA


def test_pca_project_matches_full_numpy(ray_session):
    import ray.data

    t, m = _vec_table(n=200, d=6, seed=5)
    ds = ray.data.from_arrow(t)
    n, s, g = vector_moments(ds.select_columns(["embedding"]))
    mean, comps = pca_components(n, s, g, k=2)
    out = (
        pca_project(ds, mean, comps)
        .sort("vec_id")
        .to_pandas()
    )
    # reference: same quantized covariance → eigh → same sign convention
    q = np.floor(m.astype(np.float64) * 1e6 + 0.5)
    cov = np.cov(q, rowvar=False, ddof=1) / 1e12
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:2]
    w = evecs[:, order].copy()
    for c in range(2):
        piv = int(np.argmax(np.abs(w[:, c])))
        if w[piv, c] < 0:
            w[:, c] = -w[:, c]
    ref = (m.astype(np.float64) - q.sum(axis=0) / (200 * 1e6)) @ w
    got = out[["pc0", "pc1"]].to_numpy()
    assert np.allclose(got, ref, atol=1e-9)
    # variance ordering: pc0 carries at least as much as pc1
    assert got[:, 0].var() >= got[:, 1].var()


def test_pca_components_determinism_and_signs(ray_session):
    import ray.data

    t, _ = _vec_table(n=120, d=5, seed=9)
    runs = []
    for parts in (2, 8):
        n, s, g = vector_moments(
            ray.data.from_arrow(t)
            .select_columns(["embedding"])
            .repartition(parts)
        )
        runs.append(pca_components(n, s, g, k=3))
    assert np.allclose(runs[0][0], runs[1][0])
    assert np.allclose(runs[0][1], runs[1][1])
    comps = runs[0][1]
    for c in range(comps.shape[1]):
        piv = int(np.argmax(np.abs(comps[:, c])))
        assert comps[piv, c] > 0


def test_pca_components_validation():
    with pytest.raises(ValueError, match="at least 2 rows"):
        pca_components(
            1, np.array([1], dtype=object), np.array([[1]], dtype=object)
        )


# --------------------------------------------------------------- queries


def test_embedding_pca_project_query(ray_session):
    from deepseek_ocr_ray.pipelines.analytics import embedding_pca_project

    out = embedding_pca_project(SF_DIR).to_pandas()
    assert list(out.columns) == ["vec_id", "pc0", "pc1"]
    assert len(out) == 500
    assert out["vec_id"].is_monotonic_increasing
    # two runs are bit-identical (fit from exact merged moments)
    again = embedding_pca_project(SF_DIR).to_pandas()
    assert out.equals(again)


# ----------------------------------------------------------------- logreg


def _blob_table(n=160, d=5, seed=21, sep=3.0) -> pa.Table:
    """Two well-separated Gaussian blobs — linearly separable."""
    rng = np.random.default_rng(seed)
    half = n // 2
    m = np.vstack(
        [
            rng.normal(-sep / 2, 0.3, size=(half, d)),
            rng.normal(sep / 2, 0.3, size=(n - half, d)),
        ]
    ).astype(np.float32) * 0.2
    y = np.r_[np.zeros(half, np.int64), np.ones(n - half, np.int64)]
    perm = rng.permutation(n)
    return pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "y": pa.array(y[perm], pa.int64()),
            "embedding": pa.array(
                [r.tolist() for r in m[perm]], pa.list_(pa.float32())
            ),
        }
    )


def _logreg_driver_replica(t: pa.Table, lr: float, iters: int, scale=10**6):
    """The SAME quantized recipe on driver-local arrays — logreg_fit must
    match it bit-for-bit (exact-int gradients make merge order moot)."""
    m = np.array([r for r in t["embedding"].to_pylist()], np.float32)
    q = np.floor(m.astype(np.float64) * scale + 0.5).astype(np.int64)
    y = np.asarray(t["y"].to_pylist(), np.int64)
    n = len(y)
    w = np.zeros(q.shape[1], np.float64)
    b = 0.0
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-((q / float(scale)) @ w + b)))
        r = np.floor((p - y) * 1e6 + 0.5).astype(np.int64)
        g = np.array([int(v) for v in (q.T @ r)], dtype=object)
        w = w - lr * (g.astype(np.float64) / (1e6 * float(scale) * n))
        b = b - lr * (float(int(r.sum())) / 1e6 / float(n))
    return w, b


def test_logreg_separable_fixture(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.linalg import logreg_fit, logreg_score

    t = _blob_table()
    ds = ray.data.from_arrow(t).repartition(4)
    w, b, n = logreg_fit(ds, label_col="y", lr=10.0, iters=40)
    assert n == 160
    scored = logreg_score(ds, w, b).to_pandas().sort_values("vec_id")
    truth = t.to_pandas().sort_values("vec_id")
    acc = (scored["predicted"].to_numpy() == truth["y"].to_numpy()).mean()
    assert acc == 1.0


def test_logreg_parallelism_invariance_bitwise(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.linalg import logreg_fit

    t = _blob_table(seed=5)
    runs = [
        logreg_fit(
            ray.data.from_arrow(t).repartition(p),
            label_col="y",
            lr=7.0,
            iters=12,
        )
        for p in (1, 9)
    ]
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("seed", [11, 29, 47])
def test_logreg_matches_driver_replica_bitwise(ray_session, seed):
    import ray.data

    from deepseek_ocr_ray.stages.linalg import logreg_fit

    t = _blob_table(seed=seed, n=90, d=3)
    w, b, _ = logreg_fit(
        ray.data.from_arrow(t).repartition(6),
        label_col="y",
        lr=4.0,
        iters=9,
    )
    wr, br = _logreg_driver_replica(t, lr=4.0, iters=9)
    assert np.array_equal(w, wr)
    assert b == br


def test_logreg_validation(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.linalg import logreg_fit

    with pytest.raises(ValueError, match="iters"):
        logreg_fit(
            ray.data.from_arrow(_blob_table()), label_col="y", iters=0
        )


def test_logreg_zero_width_features_cached_equals_streaming(ray_session):
    """A zero-width embedding column fits the intercept alone, with the
    same (w, b, n) from the cached block-ref loop and the streaming pass."""
    import ray.data

    from deepseek_ocr_ray.stages.linalg import logreg_fit

    t = pa.table(
        {
            "y": pa.array([0, 1, 1, 1, 0, 1], pa.int64()),
            "embedding": pa.array([[]] * 6, pa.list_(pa.float32())),
        }
    )
    fits = [
        logreg_fit(
            ray.data.from_arrow(t).repartition(3),
            label_col="y", lr=2.0, iters=5, cache=cache,
        )
        for cache in (True, False)
    ]
    (wc, bc, nc), (ws, bs, ns) = fits
    assert wc.shape == ws.shape == (0,)
    assert nc == ns == 6
    assert bc == bs and bc > 0  # 4 of 6 labels are 1


def test_logreg_cached_path_executes_mapped_input_once(
    ray_session, run_marker
):
    """The cached path learns the feature width from the prepare pass's
    own gradients: the mapped input runs once, with no limit-1 width probe
    ahead of it."""
    import ray.data

    from deepseek_ocr_ray.stages.linalg import logreg_fit

    touch, runs = run_marker
    t = _blob_table(n=60, d=4, seed=3)
    ds = ray.data.from_arrow(t).map_batches(
        touch, batch_format="pyarrow"
    )  # one block -> one task per plan execution
    w, b, n = logreg_fit(ds, label_col="y", lr=4.0, iters=3, cache=True)
    assert runs() == 1
    assert n == 60
    wr, br = _logreg_driver_replica(t, lr=4.0, iters=3)
    assert np.array_equal(w, wr)
    assert b == br


def test_embedding_logreg_query(ray_session):
    from deepseek_ocr_ray.pipelines.analytics import embedding_logreg

    out = embedding_logreg(SF_DIR, iters=10).to_pandas()
    assert list(out.columns) == ["dim", "weight"]
    assert len(out) == 65 and out["dim"].iloc[0] == -1
    again = embedding_logreg(SF_DIR, iters=10).to_pandas()
    assert out.equals(again)


# ------------------------------------------------------------------ ridge


def test_groupwise_ols_ridge_matches_numpy(ray_session):
    import ray.data

    rng = np.random.default_rng(17)
    n = 250
    x0 = rng.integers(-15, 15, n)
    x1 = rng.integers(0, 60, n)
    y = rng.integers(-500, 500, n)
    t = pa.table(
        {
            "g": pa.array(["r"] * n),
            "x0": pa.array(x0, pa.int64()),
            "x1": pa.array(x1, pa.int64()),
            "y": pa.array(y, pa.int64()),
        }
    )
    lam = 1000
    out = groupwise_ols(
        ray.data.from_arrow(t).repartition(4),
        ["g"],
        ["x0", "x1"],
        "y",
        max_abs_row_product=10**8,
        ridge=lam,
    ).to_pandas()
    X = np.column_stack([np.ones(n), x0, x1]).astype(np.float64)
    A = X.T @ X + np.diag([0.0, lam, lam])
    ref = np.linalg.solve(A, X.T @ y.astype(np.float64))
    got = out[["b0", "b1", "b2"]].to_numpy()[0]
    assert np.allclose(got, ref, rtol=1e-9, atol=1e-9)
    # ridge=0 equals the unpenalized fit
    base = groupwise_ols(
        ray.data.from_arrow(t), ["g"], ["x0", "x1"], "y",
        max_abs_row_product=10**8,
    ).to_pandas()
    zero = groupwise_ols(
        ray.data.from_arrow(t), ["g"], ["x0", "x1"], "y",
        max_abs_row_product=10**8, ridge=0,
    ).to_pandas()
    assert base.equals(zero)


def test_groupwise_ols_ridge_solves_collinear_group(ray_session):
    import ray.data

    t = pa.table(
        {
            "g": pa.array(["s"] * 12),
            "x0": pa.array([7] * 12, pa.int64()),  # constant ⇒ singular
            "x1": pa.array(list(range(12)), pa.int64()),
            "y": pa.array([2 * v for v in range(12)], pa.int64()),
        }
    )
    out = groupwise_ols(
        ray.data.from_arrow(t), ["g"], ["x0", "x1"], "y",
        max_abs_row_product=10**6, ridge=5,
    ).to_pandas()
    assert np.isfinite(out[["b0", "b1", "b2"]].to_numpy()).all()


def test_groupwise_ols_ridge_validation(ray_session):
    import ray.data

    with pytest.raises(ValueError, match="ridge"):
        groupwise_ols(
            ray.data.from_arrow(_ols_fixture()), ["g"], ["x0"], "y",
            max_abs_row_product=10, ridge=-1,
        )


def test_logreg_empty_blocks(ray_session):
    """A zero-row block must contribute nothing, not a (0,0)@(d,) shape
    error — built by filtering one partition empty."""
    import ray.data

    from deepseek_ocr_ray.stages.linalg import logreg_fit, logreg_score

    t = _blob_table(seed=3, n=60, d=4)
    full = ray.data.from_arrow(t).repartition(6)
    # an impossible predicate empties blocks downstream of the filter map
    import pyarrow.compute as _pc

    def drop_some(batch: pa.Table) -> pa.Table:
        return batch.filter(_pc.less(batch["vec_id"], 40))

    ds = full.map_batches(drop_some, batch_format="pyarrow")
    w, b, n = logreg_fit(ds, label_col="y", lr=5.0, iters=4)
    assert n == 40
    ref_t = t.filter(_pc.less(t["vec_id"], 40))
    wr, br = _logreg_driver_replica(ref_t, lr=5.0, iters=4)
    assert np.array_equal(w, wr) and b == br
    scored = logreg_score(ds, w, b).to_pandas()
    assert len(scored) == 40


def test_pca_project_empty_blocks(ray_session):
    import ray.data
    import pyarrow.compute as _pc

    t, _ = _vec_table(n=80, d=4, seed=8)
    ds = ray.data.from_arrow(t).repartition(8)
    n, s, g = vector_moments(ds.select_columns(["embedding"]))
    mean, comps = pca_components(n, s, g, k=2)

    def drop_some(batch: pa.Table) -> pa.Table:
        return batch.filter(_pc.less(batch["vec_id"], 30))

    out = (
        pca_project(ds.map_batches(drop_some, batch_format="pyarrow"),
                    mean, comps)
        .to_pandas()
    )
    assert len(out) == 30


# ------------------------------------------------- review-hardening pins


def test_grouped_vector_moments_empty_blocks(ray_session):
    """A zero-row block must contribute nothing (the flatnonzero([True])
    degenerate starts row would otherwise emit a length-1 counts column
    against length-0 moment columns)."""
    import ray.data
    import pyarrow.compute as _pc

    t = _labeled_vec_table(n=80, seed=31)
    ids = pa.table(
        {
            "rid": pa.array(range(80), pa.int64()),
            "label": t["label"],
            "embedding": t["embedding"],
        }
    )
    ds = ray.data.from_arrow(ids).repartition(8)

    def drop_some(batch: pa.Table) -> pa.Table:
        return batch.filter(_pc.less(batch["rid"], 40))

    got = grouped_vector_moments(
        ds.map_batches(drop_some, batch_format="pyarrow")
    ).to_pandas()
    ref = grouped_vector_moments(
        ray.data.from_arrow(ids.filter(_pc.less(ids["rid"], 40)))
    ).to_pandas()
    assert got.equals(ref)


def test_grouped_vector_moments_ragged_width_loud(ray_session):
    """Blocks that disagree on the embedding width must raise, not
    silently zip-truncate the merge."""
    import ray.data

    t1 = pa.table(
        {
            "label": pa.array([0, 0], pa.int32()),
            "embedding": pa.array(
                [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], pa.list_(pa.float32())
            ),
        }
    )
    t2 = pa.table(
        {
            "label": pa.array([0, 1], pa.int32()),
            "embedding": pa.array(
                [[0.7, 0.8], [0.9, 1.0]], pa.list_(pa.float32())
            ),
        }
    )
    ds = ray.data.from_arrow(t1).union(ray.data.from_arrow(t2))
    with pytest.raises(Exception, match="width"):
        grouped_vector_moments(ds)


def test_groupwise_ols_declared_bound_enforced(ray_session):
    """An untrue max_abs_row_product declaration must fail loudly in the
    derive pass, not flow wrapped products into the sums."""
    import ray.data

    t = pa.table(
        {
            "g": pa.array(["a"] * 4),
            "x0": pa.array([10**6] * 4, pa.int64()),
            "x1": pa.array([1, 2, 3, 4], pa.int64()),
            "y": pa.array([10**6] * 4, pa.int64()),
        }
    )
    # true |x0·y| is 1e12; declare 1e9 → the per-block check must trip
    with pytest.raises(Exception, match="max_abs_row_product"):
        groupwise_ols(
            ray.data.from_arrow(t), ["g"], ["x0", "x1"], "y",
            max_abs_row_product=10**9,
        ).to_pandas()


def test_logreg_cached_and_streaming_paths_bit_identical(ray_session):
    """The cached block-ref task loop and the streaming map_batches loop
    share one gradient kernel and an exact-int merge — coefficients must
    be bit-for-bit equal on the same input."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from deepseek_ocr_ray.stages.linalg import logreg_fit

    rng = np.random.default_rng(7)
    n, d = 400, 6
    x = rng.normal(0, 1, (n, d))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    tab = pa.table(
        {
            "y": pa.array(y, pa.int64()),
            "embedding": pa.array(
                [row.tolist() for row in x.astype(np.float32)],
                pa.list_(pa.float32()),
            ),
        }
    )
    ds = ray.data.from_arrow(tab).repartition(4)
    w_c, b_c, n_c = logreg_fit(ds, label_col="y", iters=12, cache=True)
    w_s, b_s, n_s = logreg_fit(ds, label_col="y", iters=12, cache=False)
    assert n_c == n_s == n
    assert b_c == b_s  # bit equality, not allclose
    assert (w_c == w_s).all()
