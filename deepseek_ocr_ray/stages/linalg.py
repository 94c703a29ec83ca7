"""One-pass distributed linear algebra: quantized vector-column moments
(covariance / PCA) and group-wise OLS model fitting via normal equations.

Two classic "big-data statistics" shapes, both expressed so that EVERYTHING
crossing the wire is an exact int64 and the only float operations are the
pinned final divisions both the engine and the DuckDB oracle share:

- **vector moments** — for a ``list<float>`` column, each block contributes
  the quantized Gram matrix ``QᵀQ`` (d×d), the column sums ``Σq`` and the
  row count; partials are one ROW per block (d² + d + 1 int64s, ~33 KB at
  d=64) so the driver merge is a bounded-domain reduction in exact Python
  ints — the same no-exchange convention the calendar-day / byte-pair
  aggregates use.  At 100 TB the data streams once; what moves is
  O(blocks·d²), independent of row count.
- **group-wise OLS** — ``y ~ b0 + Σ bᵢxᵢ`` per group from the sufficient
  statistics (n, Σxᵢ, Σxᵢxⱼ, Σy, Σxᵢy): per-block C++ ``group_by`` partials,
  ONE coarse-bucket exchange carrying a handful of int64 moments per
  (group, block), then the normal equations are solved on the reduced table
  (one row per group) with EXACT integer Cramer determinants (fraction-free
  Bareiss elimination — no float linear algebra anywhere before the final
  pinned ``float(det_i)/float(det)``).  This mirrors the DuckDB oracle's
  HUGEINT arithmetic term-for-term, so coefficients hash-match bit-for-bit.

Quantization contract (both sides): ``q = FLOOR(CAST(x AS DOUBLE)·scale
+ 0.5)`` — round-half-up toward +inf, float32→float64 widening exact.

Loud int64 horizons, per the corr-stats convention: block-local Gram
accumulation guards ``rows·max(q)²`` per block; the OLS finish guards
``n·max_abs_row_product`` per group.  Past either bound the C++ sums would
have wrapped silently upstream, so both raise with a decimal128 pointer
instead of returning numbers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..arrays import ints_to_numpy, list_to_matrix

_I64_MAX = 2**63 - 1
# guard at 90% of the range so a near-miss cannot round into a wrap
_I64_SAFE = int(_I64_MAX * 0.9)


def int_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix via fraction-free
    Bareiss elimination — O(n³) exact-int divisions, every intermediate an
    exact Python int (the interior division is always exact by the Bareiss
    identity).  Works for any n; the OLS finish calls it on (k+1)×(k+1)
    systems with k ≤ ~8, on the REDUCED one-row-per-group table only."""
    n = len(rows)
    m = [[int(v) for v in r] for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("int_det: matrix is not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def quantize_matrix(m: np.ndarray, scale: int) -> np.ndarray:
    """``FLOOR(CAST(x AS DOUBLE)·scale + 0.5)`` as int64 — the pinned
    round-half-up quantizer shared with the SQL oracle."""
    return np.floor(m.astype(np.float64) * float(scale) + 0.5).astype(
        np.int64
    )


def vector_moments(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    scale: int = 1_000_000,
) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, s, g): exact row count, quantized column sums (d,) and Gram
    matrix (d, d), merged on the driver in exact Python ints (object
    dtype).  One streaming pass; the exchange is one d²+d+1 row per block."""

    def partial(batch: pa.Table) -> pa.Table:
        m = list_to_matrix(batch[vec_col])
        q = quantize_matrix(m, scale)
        nb = q.shape[0]
        if nb:
            qmax = int(np.abs(q).max())
            # block-local Gram entries are bounded by rows·max(q)² — guard
            # BEFORE the int64 matmul can wrap
            if qmax and nb > _I64_SAFE // (qmax * qmax):
                raise ValueError(
                    "vector_moments: block of "
                    f"{nb} rows × max|q|={qmax} exceeds the int64 Gram "
                    "horizon — lower the block size or the quantization "
                    "scale (or stage through decimal128)"
                )
        g = q.T @ q
        s = q.sum(axis=0, dtype=np.int64)
        return pa.table(
            {
                "n": pa.array([nb], pa.int64()),
                "s": pa.array([s.tolist()], pa.list_(pa.int64())),
                "g": pa.array(
                    [g.reshape(-1).tolist()], pa.list_(pa.int64())
                ),
            }
        )

    from ..cluster import collect_table

    parts = collect_table(ds.map_batches(partial, batch_format="pyarrow"))
    if parts is None or parts.num_rows == 0:
        return 0, np.empty((0,), object), np.empty((0, 0), object)
    s_rows = [r for r in parts["s"].to_pylist() if r]
    g_rows = [r for r in parts["g"].to_pylist() if r]
    n = int(pc.sum(parts["n"]).as_py() or 0)
    if not s_rows:
        return n, np.empty((0,), object), np.empty((0, 0), object)
    d = len(s_rows[0])
    # object dtype = exact Python-int accumulation (no silent wrap on merge)
    s = np.array(s_rows, dtype=object).sum(axis=0)
    g = np.array(g_rows, dtype=object).sum(axis=0).reshape(d, d)
    hi = max(int(abs(s).max()), int(abs(g).max()))
    if hi > _I64_MAX:
        raise ValueError(
            "vector_moments: merged moments exceed int64 — stage the Gram "
            "sums through decimal128 before trusting these numbers"
        )
    return n, s, g


def grouped_vector_moments(
    ds: ray.data.Dataset,
    *,
    group_col: str = "label",
    vec_col: str = "embedding",
    scale: int = 1_000_000,
) -> pa.Table:
    """Per-group per-dimension exact moments of a ``list<float>`` column —
    the sufficient statistics of a Gaussian Naive Bayes / nearest-centroid
    fit: one row per (group, dim) with ``(n, s = Σq, s2 = Σq²)`` in exact
    int64 plus the pinned sample variance
    ``var = double(n·s2 − s·s) / (double(n)·double(n−1)) / scale²`` and
    mean ``double(s) / double(n) / scale`` the SQL oracle replicates.

    Plan: each block lexsort-groups its rows by the group key and emits
    ONE row per (local group): count, Σq and Σq² vectors — the exchange
    is groups×(2d+2) int64s per block, a bounded domain merged on the
    driver in exact Python ints (the :func:`vector_moments` convention,
    keyed).  Per-block accumulation is one segment-``add.reduceat`` pass
    over the quantized matrix — no per-row Python."""

    _empty_partial = pa.table(
        {
            "g": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "s": pa.array([], pa.list_(pa.int64())),
            "s2": pa.array([], pa.list_(pa.int64())),
        }
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # starts = flatnonzero(r_[True, ...]) is [0] even for an empty
            # key array, so the counts column would come out length 1
            # against length-0 moment columns — contribute nothing instead
            return _empty_partial
        m = list_to_matrix(batch[vec_col])
        q = quantize_matrix(m, scale)
        nb = q.shape[0]
        if nb:
            qmax = int(np.abs(q).max())
            if qmax and nb > _I64_SAFE // (qmax * qmax):
                raise ValueError(
                    "grouped_vector_moments: block of "
                    f"{nb} rows × max|q|={qmax} exceeds the int64 moment "
                    "horizon — lower the block size or the quantization "
                    "scale (or stage through decimal128)"
                )
        g = ints_to_numpy(batch[group_col])
        order = np.argsort(g, kind="stable")
        gs, qs = g[order], q[order]
        starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        counts = np.diff(np.append(starts, len(gs)))
        s = np.add.reduceat(qs, starts, axis=0) if len(gs) else qs[:0]
        s2 = (
            np.add.reduceat(qs * qs, starts, axis=0)
            if len(gs)
            else qs[:0]
        )
        return pa.table(
            {
                "g": pa.array(gs[starts] if len(gs) else [], pa.int64()),
                "n": pa.array(counts, pa.int64()),
                "s": pa.array(
                    [r.tolist() for r in s], pa.list_(pa.int64())
                ),
                "s2": pa.array(
                    [r.tolist() for r in s2], pa.list_(pa.int64())
                ),
            }
        )

    from ..cluster import collect_table

    parts = collect_table(ds.map_batches(partial, batch_format="pyarrow"))
    out_g, out_i, out_n, out_s, out_s2 = [], [], [], [], []
    if parts is not None and parts.num_rows:
        # exact Python-int merge per (group, dim) — bounded domain
        acc: dict[int, list] = {}
        gl = parts["g"].to_pylist()
        nl = parts["n"].to_pylist()
        sl = parts["s"].to_pylist()
        s2l = parts["s2"].to_pylist()
        width = len(sl[0])
        for gk, nn, sv, s2v in zip(gl, nl, sl, s2l):
            if len(sv) != width or len(s2v) != width:
                # zip() would silently truncate to the shorter vector and
                # mix row counts across widths — ragged corpora must fail
                # loudly, matching list_to_matrix's per-block contract
                raise ValueError(
                    "grouped_vector_moments: blocks disagree on the "
                    f"embedding width ({len(sv)} vs {width}) — the corpus "
                    "mixes vector dimensions"
                )
            if gk in acc:
                a = acc[gk]
                a[0] += nn
                a[1] = [x + y for x, y in zip(a[1], sv)]
                a[2] = [x + y for x, y in zip(a[2], s2v)]
            else:
                acc[gk] = [nn, list(sv), list(s2v)]
        for gk in sorted(acc):
            nn, sv, s2v = acc[gk]
            for i, (a, b) in enumerate(zip(sv, s2v)):
                if abs(a) > _I64_MAX or b > _I64_MAX:
                    raise ValueError(
                        "grouped_vector_moments: merged moments exceed "
                        "int64 — stage through decimal128"
                    )
                out_g.append(gk)
                out_i.append(i)
                out_n.append(nn)
                out_s.append(a)
                out_s2.append(b)
    descale = float(scale) * float(scale)
    mean = [
        float(a) / float(nn) / float(scale)
        for a, nn in zip(out_s, out_n)
    ]
    var = [
        (
            float(nn * b - a * a) / (float(nn) * float(nn - 1)) / descale
            if nn >= 2
            else float("nan")
        )
        for a, b, nn in zip(out_s, out_s2, out_n)
    ]
    return pa.table(
        {
            group_col: pa.array(out_g, pa.int64()),
            "dim": pa.array(out_i, pa.int64()),
            "n": pa.array(out_n, pa.int64()),
            "s": pa.array(out_s, pa.int64()),
            "s2": pa.array(out_s2, pa.int64()),
            "mean": pa.array(mean, pa.float64()),
            "var": pa.array(var, pa.float64()),
        }
    )


def covariance_table(
    n: int, s: np.ndarray, g: np.ndarray, *, scale: int = 1_000_000
) -> pa.Table:
    """Upper-triangle sample covariance from merged moments — one row per
    (i ≤ j) with the exact int64 moments plus the pinned float
    ``cov = double(n·g_ij − s_i·s_j) / (double(n)·double(n−1)) / scale²``
    the SQL oracle replicates (n < 2 ⇒ NaN)."""
    d = len(s)
    ii, jj = np.triu_indices(d)
    descale = float(scale) * float(scale)
    i_out, j_out, si, sj, sij, cov = [], [], [], [], [], []
    for i, j in zip(ii.tolist(), jj.tolist()):
        a, b, ab = int(s[i]), int(s[j]), int(g[i][j])
        i_out.append(i)
        j_out.append(j)
        si.append(a)
        sj.append(b)
        sij.append(ab)
        if n < 2:
            cov.append(float("nan"))
        else:
            nm = n * ab - a * b
            cov.append(float(nm) / (float(n) * float(n - 1)) / descale)
    return pa.table(
        {
            "i": pa.array(i_out, pa.int64()),
            "j": pa.array(j_out, pa.int64()),
            "n": pa.array([n] * len(i_out), pa.int64()),
            "s_i": pa.array(si, pa.int64()),
            "s_j": pa.array(sj, pa.int64()),
            "s_ij": pa.array(sij, pa.int64()),
            "cov_ij": pa.array(cov, pa.float64()),
        }
    )


def pca_components(
    n: int, s: np.ndarray, g: np.ndarray, *, scale: int = 1_000_000, k: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """(mean (d,), components (d, k)) from merged moments: float covariance
    → ``numpy.linalg.eigh`` on the driver (d×d, tiny), top-k eigenvectors by
    descending eigenvalue.  Deterministic sign: each component's
    largest-|entry| coordinate is made positive, so the projection is
    invariant to parallelism AND to eigh's sign freedom."""
    if n < 2:
        raise ValueError("pca_components: need at least 2 rows")
    d = len(s)
    sf = s.astype(np.float64)
    gf = g.astype(np.float64)
    cov = (gf * n - np.outer(sf, sf)) / (
        float(n) * float(n - 1) * float(scale) * float(scale)
    )
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][: min(k, d)]
    comps = evecs[:, order].copy()
    for c in range(comps.shape[1]):
        pivot = int(np.argmax(np.abs(comps[:, c])))
        if comps[pivot, c] < 0:
            comps[:, c] = -comps[:, c]
    mean = sf / (float(n) * float(scale))
    return mean, comps


def pca_project(
    ds: ray.data.Dataset,
    mean: np.ndarray,
    comps: np.ndarray,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Project every vector onto the fitted components — (id, pc0..pck−1)
    float64.  The (mean, components) pair ships ONCE via ``ray.put`` and is
    read inside every task; the projection is one (rows × d) @ (d × k)
    matmul per block, streaming."""
    fit_ref = ray.put((mean.astype(np.float64), comps.astype(np.float64)))
    k = comps.shape[1]

    def project(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # an empty block's (0, 0) matrix cannot subtract the (d,) mean
            cols = {id_col: batch[id_col]}
            for c in range(k):
                cols[f"pc{c}"] = pa.array([], pa.float64())
            return pa.table(cols)
        mu, w = ray.get(fit_ref)
        m = list_to_matrix(batch[vec_col]).astype(np.float64)
        p = (m - mu) @ w
        cols = {id_col: batch[id_col]}
        for c in range(k):
            cols[f"pc{c}"] = pa.array(p[:, c], pa.float64())
        return pa.table(cols)

    return ds.map_batches(project, batch_format="pyarrow")


def groupwise_ols(
    ds: ray.data.Dataset,
    group_cols: list[str],
    x_cols: list[str],
    y_col: str,
    *,
    max_abs_row_product: int,
    ridge: int = 0,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-group OLS of ``y ~ b0 + Σ bᵢ·x_cols[i]`` over int64-exact feature
    columns (the caller quantizes — cents / basis points / counts).

    Plan: one derive pass appends the per-row moment products; per-block C++
    ``group_by`` partials + ONE coarse-bucket exchange reduce them
    (``bucket_groupby_agg``); the finish runs on one row per group, building
    the (k+1)×(k+1) normal equations in exact Python ints and solving by
    Cramer with :func:`int_det`.  The only floats are the pinned
    ``float(det_i)/float(det)`` divisions the oracle mirrors
    (singular group ⇒ NaN coefficients, NULL in SQL, compared equal_nan).

    ``max_abs_row_product`` — caller-declared bound on |any per-row moment
    product| (e.g. max|x·y|); the finish refuses groups past the int64 sum
    horizon rather than returning silently-wrapped C++ sums.

    ``ridge`` — integer L2 penalty λ added to the FEATURE diagonal of the
    normal equations (``XᵀX + λI``, intercept unpenalized — standard ridge
    in the features' integer units): the system stays exact-integer, so the
    Cramer solve and its determinism carry over unchanged, and a collinear
    group becomes solvable for any λ > 0.

    Output: group_cols, n, sum_x{i}, sum_x{i}x{j} (i ≤ j), sum_y,
    sum_x{i}y, b0..b{k} — sorted by group_cols.
    """
    from .agg import bucket_groupby_agg

    k = len(x_cols)
    if k == 0:
        raise ValueError("groupwise_ols: need at least one feature column")
    if max_abs_row_product <= 0:
        raise ValueError("groupwise_ols: max_abs_row_product must be > 0")
    if ridge < 0:
        raise ValueError("groupwise_ols: ridge must be >= 0")
    ridge = int(ridge)
    horizon = _I64_SAFE // int(max_abs_row_product)

    xx_names = [
        (i, j, f"sum_x{i}x{j}") for i in range(k) for j in range(i, k)
    ]

    def _checked(prod: np.ndarray, what: str) -> np.ndarray:
        # the horizon guard in finish is only as honest as the caller's
        # declared bound — verify it against the ACTUAL per-row products
        # here, where int64 wrap would otherwise be silent
        if len(prod) and int(np.abs(prod).max()) > max_abs_row_product:
            raise ValueError(
                f"groupwise_ols: |{what}| reaches "
                f"{int(np.abs(prod).max())}, above the declared "
                f"max_abs_row_product={max_abs_row_product} — raise the "
                "bound (and re-check the int64 horizon) or rescale the "
                "features"
            )
        return prod

    def derive(batch: pa.Table) -> pa.Table:
        xs = [ints_to_numpy(batch[c]) for c in x_cols]
        y = ints_to_numpy(batch[y_col])
        cols: dict[str, object] = {c: batch[c] for c in group_cols}
        for i in range(k):
            cols[f"sum_x{i}"] = pa.array(
                _checked(xs[i], f"x{i}"), pa.int64()
            )
            cols[f"sum_x{i}y"] = pa.array(
                _checked(xs[i] * y, f"x{i}·y"), pa.int64()
            )
        for i, j, name in xx_names:
            cols[name] = pa.array(
                _checked(xs[i] * xs[j], f"x{i}·x{j}"), pa.int64()
            )
        cols["sum_y"] = pa.array(_checked(y, "y"), pa.int64())
        return pa.table(cols)

    aggs: list[tuple[str | None, str, str]] = [(None, "count", "n")]
    for i in range(k):
        aggs.append((f"sum_x{i}", "sum", f"sum_x{i}"))
    for _, _, name in xx_names:
        aggs.append((name, "sum", name))
    aggs.append(("sum_y", "sum", "sum_y"))
    for i in range(k):
        aggs.append((f"sum_x{i}y", "sum", f"sum_x{i}y"))

    red = bucket_groupby_agg(
        ds.map_batches(derive, batch_format="pyarrow"),
        group_cols,
        aggs,
        n_buckets=n_buckets,
    )

    def finish(batch: pa.Table) -> pa.Table:
        rows = batch.num_rows
        n = batch["n"].to_pylist()
        if rows and max(n) > horizon:
            raise ValueError(
                "groupwise_ols: a group exceeds the int64 moment horizon "
                f"({horizon} rows at max_abs_row_product="
                f"{max_abs_row_product}); stage the moments through "
                "decimal128 before trusting these sums"
            )
        sx = [batch[f"sum_x{i}"].to_pylist() for i in range(k)]
        sxy = [batch[f"sum_x{i}y"].to_pylist() for i in range(k)]
        sy = batch["sum_y"].to_pylist()
        sxx: dict[tuple[int, int], list[int]] = {}
        for i, j, name in xx_names:
            col = batch[name].to_pylist()
            sxx[(i, j)] = col
            sxx[(j, i)] = col
        coef: list[list[float]] = [[] for _ in range(k + 1)]
        for r in range(rows):
            # normal equations: A[0][0]=n, A[0][1+i]=Σxᵢ, A[1+i][1+j]=Σxᵢxⱼ
            a = [[0] * (k + 1) for _ in range(k + 1)]
            a[0][0] = n[r]
            for i in range(k):
                a[0][1 + i] = sx[i][r]
                a[1 + i][0] = sx[i][r]
                for j in range(k):
                    a[1 + i][1 + j] = sxx[(i, j)][r]
                a[1 + i][1 + i] += ridge
            rhs = [sy[r]] + [sxy[i][r] for i in range(k)]
            det = int_det(a)
            for c in range(k + 1):
                if det == 0:
                    coef[c].append(float("nan"))
                    continue
                ac = [row[:] for row in a]
                for rr in range(k + 1):
                    ac[rr][c] = rhs[rr]
                coef[c].append(float(int_det(ac)) / float(det))
        out = batch
        for c in range(k + 1):
            out = out.append_column(
                f"b{c}", pa.array(coef[c], pa.float64())
            )
        return out

    return red.map_batches(finish, batch_format="pyarrow").sort(group_cols)


# Below this (metadata-estimated) input size the training loop pre-quantizes
# the feature matrix ONCE into materialized object-store blocks and runs the
# T gradient passes as plain Ray tasks over those block refs — zero Dataset
# executions inside the loop (a 50-iteration loop otherwise launches 50+
# streaming-executor runs, which is both slow and, empirically, capable of
# tripping Ray-core scheduler races under churn).  Above it the loop streams
# each pass (the only option at corpus scale — never materialize 100 TB).
LOGREG_CACHE_MAX_BYTES = 256 << 20


def _logreg_horizon_check(q: np.ndarray) -> None:
    """Loud guard: a block's exact-int gradient partial Σ rᵢ·qᵢⱼ must fit
    int64 (|r| ≤ 10⁶ ppm residual per row)."""
    if not q.size:
        return
    nb = q.shape[0]
    qmax = int(np.abs(q).max())
    if qmax and nb > _I64_SAFE // (qmax * 1_000_000):
        raise ValueError(
            "logreg_fit: block of "
            f"{nb} rows × max|q|={qmax} exceeds the int64 gradient "
            "horizon — lower the block size or the quantization scale"
        )


def _logreg_grad_kernel(
    q: np.ndarray, y: np.ndarray, w: np.ndarray | None, b: float, scale: int
) -> tuple[int, int, np.ndarray]:
    """One block's exact-int gradient partial (shared by the streaming
    map_batches pass and the cached block-ref task loop — identical math,
    so both paths produce bit-identical coefficients).  ``w=None`` means
    zero weights of the block's own feature width (the first iteration,
    before the driver has seen any gradient)."""
    if w is None:
        w = np.zeros(q.shape[1], np.float64)
    z = (q / float(scale)) @ w + b
    p = 1.0 / (1.0 + np.exp(-z))
    r = np.floor((p - y) * 1e6 + 0.5).astype(np.int64)
    return q.shape[0], int(r.sum()), q.T @ r


@ray.remote
def _logreg_grad_block(
    tab: pa.Table, w: np.ndarray | None, b: float, scale: int
) -> tuple[int, int, list[int] | None]:
    """Gradient partial over ONE pre-quantized cached block (columns
    ``y`` int64, ``q`` list<int64>) — a plain Ray task so the iteration
    loop never re-enters the streaming executor; the block stays in the
    object store and is read zero-copy every iteration."""
    nb = tab.num_rows
    if nb == 0:
        return 0, 0, None
    y = tab["y"].to_numpy(zero_copy_only=False)
    flat = tab["q"].combine_chunks().flatten().to_numpy(
        zero_copy_only=False
    )
    q = flat.reshape(nb, len(flat) // nb)
    n, g0, g = _logreg_grad_kernel(q, y, w, b, scale)
    return n, g0, g.tolist()


def logreg_fit(
    ds: ray.data.Dataset,
    *,
    label_col: str,
    vec_col: str = "embedding",
    lr: float = 10.0,
    iters: int = 50,
    scale: int = 1_000_000,
    cache: bool | None = None,
) -> tuple[np.ndarray, float, int]:
    """Full-batch logistic regression over a ``list<float>`` feature column
    and a 0/1 integer label — distributed ITERATIVE model fitting (the
    pagerank-style broadcast-refit loop, for ML): every iteration broadcasts
    the weight vector, each block computes one exact-int64 gradient partial,
    and the driver merges + updates.

    Parallelism-invariant BIT-FOR-BIT, the property float gradient sums
    cannot have: per-row margins depend only on that row and the broadcast
    weights, the residual quantizes to ppm ints (``floor((p−y)·10⁶+0.5)``),
    so the per-block partial ``Gⱼ = Σ rᵢ·qᵢⱼ`` is an exact int64 whose merge
    order cannot matter; the only float state is the (d+1)-vector updated on
    the driver with one fixed-order expression per iteration.  The loud
    block horizon (rows·10⁶·max|q|) trips before the int64 sum can wrap.

    Each streaming iteration is ONE pass whose exchange is one
    (d+2)-int64 row per block — at 100 TB the loop costs T scans and moves
    O(T·blocks·d) bytes.  Inputs under ``LOGREG_CACHE_MAX_BYTES`` (metadata
    estimate) take the fast path instead: ONE prepare pass quantizes
    (q, y) into materialized object-store blocks, and every iteration is
    a fan-out of plain Ray tasks over those block refs — no per-iteration
    Dataset execution at all (both paths share one gradient kernel and an
    exact-int merge, so coefficients are bit-identical either way).

    Returns ``(w, b, n)`` — feature weights (d,), intercept, row count."""
    from ..cluster import collect_table, dataset_size_estimate

    if iters < 1:
        raise ValueError("logreg_fit: iters must be >= 1")
    if cache is None:
        # metadata-only estimate; a map_batches in front of the input
        # erases it (None → streaming), so callers that KNOW the pre-map
        # size should pass ``cache`` explicitly
        est = dataset_size_estimate(ds)
        cached = est is not None and est <= LOGREG_CACHE_MAX_BYTES
    else:
        cached = cache

    def _update(w, b, n_total, g, g0):
        # one fixed-order float expression per iteration (both paths)
        denom = 1e6 * float(scale) * float(n_total)
        if w is None:
            w = np.zeros(len(g), np.float64)
        return (
            w - lr * (g.astype(np.float64) / denom),
            b - lr * (float(g0) / 1e6 / float(n_total)),
        )

    # the feature width comes from the first iteration's gradient: until
    # then ``w`` is None and each block uses zero weights of its own width
    # (no separate probe execution of the input)
    w = None
    b = 0.0
    n_total = 0
    no_rows = (np.zeros(0, np.float64), 0.0, 0)

    if cached:
        def prepare(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table(
                    {
                        "y": pa.array([], pa.int64()),
                        "q": pa.array([], pa.list_(pa.int64())),
                    }
                )
            q = quantize_matrix(list_to_matrix(batch[vec_col]), scale)
            _logreg_horizon_check(q)
            y = ints_to_numpy(batch[label_col])
            nb, dd = q.shape
            qcol = pa.ListArray.from_arrays(
                pa.array(np.arange(nb + 1, dtype=np.int32) * dd),
                pa.array(q.ravel(), pa.int64()),
            )
            return pa.table({"y": pa.array(y, pa.int64()), "q": qcol})

        prepared = ds.map_batches(
            prepare, batch_format="pyarrow"
        ).materialize()
        refs = prepared.to_arrow_refs()
        for _ in range(iters):
            parts = ray.get(
                [
                    _logreg_grad_block.remote(ref, w, b, scale)
                    for ref in refs
                ]
            )
            parts = [p for p in parts if p[0]]
            n_total = sum(p[0] for p in parts)
            if n_total == 0:
                return no_rows
            # exact Python-int merge — layout-order-proof
            g = np.array([p[2] for p in parts], dtype=object).sum(axis=0)
            g0 = sum(p[1] for p in parts)
            w, b = _update(w, b, n_total, g, g0)
        return w, b, n_total

    state_ref = None

    _empty_grad = pa.table(
        {
            "n": pa.array([], pa.int64()),
            "g0": pa.array([], pa.int64()),
            "g": pa.array([], pa.list_(pa.int64())),
        }
    )

    def grad_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # an empty block's (0, 0) feature matrix cannot dot the weight
            # vector — contribute nothing instead of a shape error
            return _empty_grad
        ww, bb = ray.get(state_ref)
        q = quantize_matrix(list_to_matrix(batch[vec_col]), scale)
        _logreg_horizon_check(q)
        y = ints_to_numpy(batch[label_col])
        nb, g0, g = _logreg_grad_kernel(q, y, ww, bb, scale)
        return pa.table(
            {
                "n": pa.array([nb], pa.int64()),
                "g0": pa.array([g0], pa.int64()),
                "g": pa.array([g.tolist()], pa.list_(pa.int64())),
            }
        )

    for _ in range(iters):
        state_ref = ray.put((w, b))
        parts = collect_table(
            ds.map_batches(grad_partial, batch_format="pyarrow")
        )
        if parts is None or parts.num_rows == 0:
            return no_rows
        n_total = int(pc.sum(parts["n"]).as_py() or 0)
        if n_total == 0:
            return no_rows
        # keep empty lists: a zero-width feature matrix has g == []
        g_rows = [r for r in parts["g"].to_pylist() if r is not None]
        # exact Python-int merge — layout-order-proof
        g = np.array(g_rows, dtype=object).sum(axis=0)
        g0 = sum(parts["g0"].to_pylist())
        w, b = _update(w, b, n_total, g, g0)
    return w, b, n_total


def logreg_score(
    ds: ray.data.Dataset,
    w: np.ndarray,
    b: float,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    scale: int = 1_000_000,
) -> ray.data.Dataset:
    """Score every row under a fitted model — (id, score ppm, predicted) —
    one streaming pass, weights broadcast once."""
    fit_ref = ray.put((w.astype(np.float64), float(b)))

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    id_col: batch[id_col],
                    "score_ppm": pa.array([], pa.int64()),
                    "predicted": pa.array([], pa.int64()),
                }
            )
        ww, bb = ray.get(fit_ref)
        q = quantize_matrix(list_to_matrix(batch[vec_col]), scale)
        p = 1.0 / (1.0 + np.exp(-((q / float(scale)) @ ww + bb)))
        return pa.table(
            {
                id_col: batch[id_col],
                "score_ppm": pa.array(
                    np.floor(p * 1e6 + 0.5).astype(np.int64), pa.int64()
                ),
                "predicted": pa.array(
                    (p >= 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")
