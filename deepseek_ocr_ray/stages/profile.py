"""Distributed table profiler — per-column statistics in two passes.

The data-engineering "what is in this table" primitive: row count, null
count, EXACT distinct count, and min/max per column, computed without ever
materializing a column on the driver:

- **stats pass**: each block reduces to ≤ |columns| partial rows (count,
  null count, typed min/max via ``pc.min_max``) — combined through a
  |columns|-key groupby (tiny);
- **distinct pass**: each block emits its per-column DISTINCT canonical
  values (``pc.unique``), hash-bucketed on (column, value) so one keyed
  exchange carries only per-block-distinct rows; each bucket re-distincts
  in C++ and emits per-column partial counts, summed in a tiny final
  groupby.  Exchange volume is Σ per-block distinct values — the exact
  analog of the map-combined dedup plan, never an all-rows shuffle.

min/max combine on the TYPED channel (an integer column's min is numeric,
not lexicographic) and render to strings only at the end, matching SQL's
``CAST(min(col) AS VARCHAR)``.  Supported column families: integers and
strings (the driver-gate surface); floats/timestamps need a rendering
contract first and are rejected loudly.  No reference counterpart.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..hashing import hash64_columns


def profile_table(
    ds: ray.data.Dataset,
    columns: list[str],
    *,
    n_buckets: int = 64,
) -> pa.Table:
    """Profile ``columns`` of ``ds`` → one pa.Table row per column:
    ``(col, n, n_nulls, n_distinct, min_val, max_val)`` with min/max
    rendered as strings (integer rendering identical to SQL VARCHAR
    casts).  Returns a small in-memory table (|columns| rows)."""
    schema = ds.schema().base_schema
    types = {}
    for c in columns:
        t = schema.field(c).type
        if not (pa.types.is_integer(t) or pa.types.is_string(t)
                or pa.types.is_large_string(t)):
            raise ValueError(
                f"profile_table: column {c!r} has type {t} — only integer "
                "and string columns have a defined min/max rendering here"
            )
        types[c] = t
    ds = ds.select_columns(columns)

    def stats_partial(batch: pa.Table) -> pa.Table:
        rows = {
            "col": [], "n": [], "n_nulls": [],
            "min_i": [], "max_i": [], "min_s": [], "max_s": [],
        }
        for c in columns:
            arr = batch[c]
            rows["col"].append(c)
            rows["n"].append(len(arr))
            rows["n_nulls"].append(arr.null_count)
            mm = pc.min_max(arr)
            mn, mx = mm["min"].as_py(), mm["max"].as_py()
            if pa.types.is_integer(types[c]):
                rows["min_i"].append(mn)
                rows["max_i"].append(mx)
                rows["min_s"].append(None)
                rows["max_s"].append(None)
            else:
                rows["min_i"].append(None)
                rows["max_i"].append(None)
                rows["min_s"].append(mn)
                rows["max_s"].append(mx)
        return pa.table(
            {
                "col": pa.array(rows["col"], pa.string()),
                "n": pa.array(rows["n"], pa.int64()),
                "n_nulls": pa.array(rows["n_nulls"], pa.int64()),
                "min_i": pa.array(rows["min_i"], pa.int64()),
                "max_i": pa.array(rows["max_i"], pa.int64()),
                "min_s": pa.array(rows["min_s"], pa.string()),
                "max_s": pa.array(rows["max_s"], pa.string()),
            }
        )

    def stats_combine(group: pa.Table) -> pa.Table:
        g = group.group_by("col").aggregate(
            [
                ("n", "sum"), ("n_nulls", "sum"),
                ("min_i", "min"), ("max_i", "max"),
                ("min_s", "min"), ("max_s", "max"),
            ]
        )
        return pa.table(
            {
                "col": g["col"],
                "n": g["n_sum"],
                "n_nulls": g["n_nulls_sum"],
                "min_i": g["min_i_min"],
                "max_i": g["max_i_max"],
                "min_s": g["min_s_min"],
                "max_s": g["max_s_max"],
            }
        )

    stats_rows = (
        ds.map_batches(stats_partial, batch_format="pyarrow")
        .groupby("col")
        .map_groups(stats_combine, batch_format="pyarrow")
        .take_all()
    )  # bounded: one row per column

    def distinct_partial(batch: pa.Table) -> pa.Table:
        outs = []
        for c in columns:
            vals = pc.unique(batch[c].drop_null().combine_chunks())
            if pa.types.is_integer(types[c]):
                vals = pc.cast(vals, pa.string())
            outs.append(
                pa.table(
                    {
                        "col": pa.array([c] * len(vals), pa.string()),
                        "val": vals.cast(pa.string()),
                    }
                )
            )
        t = pa.concat_tables(outs)
        bucket = hash64_columns(t, ["col", "val"]) % np.uint64(n_buckets)
        return t.append_column(
            "bucket", pa.array(bucket.astype(np.int64), pa.int64())
        )

    def distinct_count(group: pa.Table) -> pa.Table:
        u = group.group_by(["col", "val"]).aggregate([])
        g = u.group_by("col").aggregate([([], "count_all")])
        return pa.table(
            {
                "col": g["col"],
                "nd": g["count_all"].cast(pa.int64()),
            }
        )

    nd_rows = (
        ds.map_batches(distinct_partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(distinct_count, batch_format="pyarrow")
        .groupby("col")
        .sum("nd")
        .take_all()
    )  # bounded: one row per column
    nd = {r["col"]: r["sum(nd)"] for r in nd_rows}

    def render(r) -> tuple[str | None, str | None]:
        if pa.types.is_integer(types[r["col"]]):
            mn, mx = r["min_i"], r["max_i"]
            return (
                None if mn is None else str(mn),
                None if mx is None else str(mx),
            )
        return r["min_s"], r["max_s"]

    stats_rows.sort(key=lambda r: r["col"])
    out = {
        "col": [], "n": [], "n_nulls": [], "n_distinct": [],
        "min_val": [], "max_val": [],
    }
    for r in stats_rows:
        mn, mx = render(r)
        out["col"].append(r["col"])
        out["n"].append(r["n"])
        out["n_nulls"].append(r["n_nulls"])
        out["n_distinct"].append(nd.get(r["col"], 0))
        out["min_val"].append(mn)
        out["max_val"].append(mx)
    return pa.table(
        {
            "col": pa.array(out["col"], pa.string()),
            "n": pa.array(out["n"], pa.int64()),
            "n_nulls": pa.array(out["n_nulls"], pa.int64()),
            "n_distinct": pa.array(out["n_distinct"], pa.int64()),
            "min_val": pa.array(out["min_val"], pa.string()),
            "max_val": pa.array(out["max_val"], pa.string()),
        }
    )


def chi2_independence(
    ds: ray.data.Dataset,
    row_col: str,
    col_col: str,
    *,
    scale: int = 10**6,
    n_buckets: int = 64,
) -> pa.Table:
    """Pearson chi-squared test of independence between two categorical
    columns — THE dataset-audit primitive for "is label distribution
    independent of source" questions (category-vs-category dependence
    screening before training-mix decisions).

    Statistic over the FULL R×C grid (zero-observed cells contribute
    their expectation ``r·c/n`` — summing only observed cells is a
    different, wrong statistic; a test pins this):

        chi2 = Σ_cells (o − e)² / e,   e = r·c / n
             = Σ_cells (o·n − r·c)² / (r·c·n)    (exact rational form)

    Exactness recipe (the ``linalg.py`` convention): the numerator
    ``(o·n − r·c)²`` and denominator ``r·c·n`` are EXACT integers
    (arbitrary-precision Python ints driver-side, HUGEINT in SQL — at
    corpus scale ``o·n`` overflows int64, so the finalize uses object
    ints, not numpy), then per cell ONE pinned rounding chain
    ``FLOOR(DOUBLE(num)/DOUBLE(den) · scale + 0.5)`` — int→double
    conversion and each float op are correctly rounded identically on
    both sides — and the per-cell ppm ints SUM order-free.

    Plan: ONE count exchange over the corpus (map-side combined
    ``group_by().count()`` per block, coarse-bucket reduce); the R×C
    contingency table — bounded by the two cardinalities, NOT the corpus
    — collects to the driver for the exact finalize.  NULL categories are
    rejected loudly (SQL GROUP BY would silently make NULL a level).

    Returns a one-row ``pa.Table``: ``chi2_ppm`` (BIGINT, the statistic
    × ``scale``), ``dof`` = (R−1)(C−1), ``n_rows``, ``r_levels``,
    ``c_levels``.
    """
    from .agg import bucket_groupby_sum

    cells = bucket_groupby_sum(
        ds.map_batches(
            lambda b: b.select([row_col, col_col]), batch_format="pyarrow"
        ),
        keys=[row_col, col_col],
        sum_cols=[],
        count_col="o",
        n_buckets=n_buckets,
    ).take_all()
    if any(c[row_col] is None or c[col_col] is None for c in cells):
        raise ValueError(
            "chi2_independence: NULL category values — impute or filter "
            "first (a silent NULL level would change dof and the statistic)"
        )
    obs: dict[tuple, int] = {
        (c[row_col], c[col_col]): int(c["o"]) for c in cells
    }
    r_tot: dict = {}
    c_tot: dict = {}
    for (r, c), o in obs.items():
        r_tot[r] = r_tot.get(r, 0) + o
        c_tot[c] = c_tot.get(c, 0) + o
    n = sum(r_tot.values())
    chi2_ppm = 0
    if n:
        for r, rt in r_tot.items():
            for c, ct in c_tot.items():
                o = obs.get((r, c), 0)
                num = (o * n - rt * ct) ** 2  # exact (Python int)
                den = rt * ct * n
                chi2_ppm += int(
                    np.floor(float(num) / float(den) * scale + 0.5)
                )
    dof = max(len(r_tot) - 1, 0) * max(len(c_tot) - 1, 0)
    return pa.table(
        {
            "chi2_ppm": pa.array([chi2_ppm], pa.int64()),
            "dof": pa.array([dof], pa.int64()),
            "n_rows": pa.array([n], pa.int64()),
            "r_levels": pa.array([len(r_tot)], pa.int64()),
            "c_levels": pa.array([len(c_tot)], pa.int64()),
        }
    )


def _side_value_counts(
    ds: ray.data.Dataset,
    value_col: str,
    side_col: str,
    sides: tuple,
    n_buckets: int,
    op_name: str,
) -> list[dict]:
    """Shared two-sample support reduction: one map-combined count
    exchange → ``[{v, c1, c2}, ...]`` sorted ascending by value, bounded
    by the quantized value domain's cardinality (the sketch-family
    convention).  Rows matching neither side are ignored; NULL values in
    a matching row raise loudly."""
    from .agg import bucket_groupby_sum

    if len(sides) != 2 or sides[0] == sides[1]:
        raise ValueError(f"sides must be two distinct labels, got {sides!r}")

    def check_type(schema: pa.Schema) -> None:
        if not pa.types.is_integer(schema.field(value_col).type):
            raise ValueError(
                f"{value_col!r} must be integer (got "
                f"{schema.field(value_col).type}) — quantize to cents/ppm"
            )

    # check at plan time only when that executes nothing (a lazy mapped
    # input would run a limit-1 pass); otherwise check each batch
    sch = ds.schema(fetch_if_missing=False)
    check_batches = sch is None
    if not check_batches:
        check_type(sch.base_schema)

    def prep(batch: pa.Table) -> pa.Table:
        if check_batches and batch.num_rows:
            check_type(batch.schema)
        side = batch[side_col]
        m1 = pc.equal(side, sides[0])
        m2 = pc.equal(side, sides[1])
        keep = pc.or_kleene(m1, m2)
        b = batch.filter(pc.fill_null(keep, False))
        v = b[value_col]
        if v.null_count:
            raise ValueError(
                f"{op_name}: {value_col!r} has NULLs in a matching "
                "row — filter or impute first"
            )
        one = pc.cast(
            pc.fill_null(pc.equal(b[side_col], sides[0]), False), pa.int64()
        )
        return pa.table(
            {
                "v": v.cast(pa.int64()),
                "c1": one,
                "c2": pc.subtract(pa.scalar(1, pa.int64()), one),
            }
        )

    counts = bucket_groupby_sum(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys=["v"],
        sum_cols=["c1", "c2"],
        n_buckets=n_buckets,
    ).take_all()
    counts.sort(key=lambda r: r["v"])
    return counts


def ks_two_sample(
    ds: ray.data.Dataset,
    value_col: str,
    side_col: str,
    sides: tuple,
    *,
    scale: int = 10**6,
    n_buckets: int = 64,
) -> pa.Table:
    """Exact two-sample Kolmogorov–Smirnov statistic between the
    ``value_col`` distributions of ``side_col == sides[0]`` and
    ``sides[1]`` — the drift-detection primitive ("did this source's
    value distribution shift between snapshots / cohorts").

    Exact-rational form: with cumulative counts ``F1(v), F2(v)`` over the
    merged sorted support, ``D = max |F1/n1 − F2/n2|`` is reported as the
    cross-multiplied integer ``d_num = max |F1·n2 − F2·n1|`` (exact — no
    division inside the max) plus ``n1, n2`` and ONE pinned
    ``FLOOR(DOUBLE(d_num)/DOUBLE(n1·n2)·scale + 0.5)`` ppm rendering,
    mirroring the SQL window form term-for-term.

    Plan: one map-combined count exchange over the corpus → one row per
    DISTINCT ``(value)`` with per-side counts; the prefix scan runs
    driver-side over that support, bounded by the quantized value
    domain's cardinality, not the corpus (the sketch-family convention —
    ``value_col`` must be integer, i.e. already cents/ppm-quantized;
    rows matching neither side are ignored; NULL values raise loudly).

    Returns one row: ``d_num, n1, n2, d_ppm`` (all BIGINT).
    """
    counts = _side_value_counts(
        ds, value_col, side_col, sides, n_buckets, "ks_two_sample"
    )
    f1 = 0
    f2 = 0
    n1 = sum(int(r["c1"]) for r in counts)
    n2 = sum(int(r["c2"]) for r in counts)
    d_num = 0
    for r in counts:
        f1 += int(r["c1"])
        f2 += int(r["c2"])
        d_num = max(d_num, abs(f1 * n2 - f2 * n1))  # exact Python ints
    d_ppm = (
        int(np.floor(float(d_num) / float(n1 * n2) * scale + 0.5))
        if n1 and n2
        else 0
    )
    return pa.table(
        {
            "d_num": pa.array([d_num], pa.int64()),
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "d_ppm": pa.array([d_ppm], pa.int64()),
        }
    )


def mann_whitney_u(
    ds: ray.data.Dataset,
    value_col: str,
    side_col: str,
    sides: tuple,
    *,
    scale: int = 10**6,
    n_buckets: int = 64,
) -> pa.Table:
    """Exact two-sample Mann–Whitney U (rank-sum) statistic — the
    nonparametric "is one distribution stochastically larger" companion
    to :func:`ks_two_sample`, with textbook tie handling (average ranks).

    Integer form: average ranks over a tied block spanning cumulative
    positions ``(cum, cum+c]`` equal ``(2·cum + c + 1)/2`` — always a
    half-integer, so the DOUBLED rank sum ``2·R1 = Σ_v c1(v)·(2·cum_before
    + c + 1)`` is an exact integer, and ``u2 = 2·U1 = 2·R1 − n1·(n1+1)``
    with it.  The identity ``U1 + U2 = n1·n2`` pins the complement.  One
    pinned ``FLOOR(DOUBLE(u2)/DOUBLE(2·n1·n2)·scale + 0.5)`` renders the
    common-language effect size (AUC) in ppm.

    Same plan and preconditions as :func:`ks_two_sample` (shared support
    reduction; integer value column; loud NULLs).  Returns one row:
    ``u2, n1, n2, auc_ppm`` (all BIGINT).
    """
    counts = _side_value_counts(
        ds, value_col, side_col, sides, n_buckets, "mann_whitney_u"
    )
    n1 = sum(int(r["c1"]) for r in counts)
    n2 = sum(int(r["c2"]) for r in counts)
    cum = 0
    r2x1 = 0  # 2·R1, exact
    for r in counts:
        c1 = int(r["c1"])
        c = c1 + int(r["c2"])
        r2x1 += c1 * (2 * cum + c + 1)
        cum += c
    u2 = r2x1 - n1 * (n1 + 1)
    auc_ppm = (
        int(np.floor(float(u2) / float(2 * n1 * n2) * scale + 0.5))
        if n1 and n2
        else 0
    )
    return pa.table(
        {
            "u2": pa.array([u2], pa.int64()),
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "auc_ppm": pa.array([auc_ppm], pa.int64()),
        }
    )


def two_proportion_z(
    ds: ray.data.Dataset,
    group_col: str,
    success_col: str,
    groups: tuple,
    *,
    n_buckets: int = 64,
) -> pa.Table:
    """Two-proportion z-test (pooled standard error) — the A/B-test
    primitive for conversion rates.  The corpus reduces to four exact
    integers ``(x1, n1, x2, n2)`` in ONE map-combined count exchange;
    the statistic is then a FIXED float expression evaluated in the
    documented op order (every step correctly rounded, identical in
    numpy and SQL, the ``group_ewma`` recipe):

        p1 = x1/n1;  p2 = x2/n2;  p = (x1+x2)/(n1+n2)
        se = sqrt(p·(1−p)·(1/n1 + 1/n2));  z = (p1 − p2)/se

    ``success_col`` must be integer 0/1; rows outside the two groups are
    ignored; NULLs raise; a zero denominator or zero pooled variance
    yields a NULL z (SQL's NaN-free convention both sides).  Returns one
    row: ``x1, n1, x2, n2, z``.
    """
    counts = _side_value_counts(
        ds, success_col, group_col, groups, n_buckets, "two_proportion_z"
    )
    x1 = sum(int(r["c1"]) for r in counts if r["v"] == 1)
    n1 = sum(int(r["c1"]) for r in counts)
    x2 = sum(int(r["c2"]) for r in counts if r["v"] == 1)
    n2 = sum(int(r["c2"]) for r in counts)
    if any(int(r["v"]) not in (0, 1) for r in counts):
        raise ValueError("two_proportion_z: success values must be 0 or 1")
    z = None
    if n1 and n2:
        p1 = np.float64(x1) / np.float64(n1)
        p2 = np.float64(x2) / np.float64(n2)
        p = np.float64(x1 + x2) / np.float64(n1 + n2)
        se = np.sqrt(
            p
            * (np.float64(1.0) - p)
            * (np.float64(1.0) / np.float64(n1) + np.float64(1.0) / np.float64(n2))
        )
        if se > 0.0:
            z = float((p1 - p2) / se)
    return pa.table(
        {
            "x1": pa.array([x1], pa.int64()),
            "n1": pa.array([n1], pa.int64()),
            "x2": pa.array([x2], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "z": pa.array([z], pa.float64()),
        }
    )


# Benford's-law expected first-digit shares, ppm (FLOOR(log10(1+1/d)·1e6
# + 0.5) — precomputed constants, spelled identically in the SQL oracle)
BENFORD_PPM = {
    1: 301030, 2: 176091, 3: 124939, 4: 96910, 5: 79181,
    6: 66947, 7: 57992, 8: 51153, 9: 45757,
}


def benford_audit(
    ds: ray.data.Dataset,
    col: str,
    *,
    scale: int = 10**6,
    n_buckets: int = 64,
) -> pa.Table:
    """Benford's-law first-significant-digit audit of a positive integer
    column — the forensic data-quality screen (fabricated or truncated
    amounts drift from the log distribution).

    Digit extraction is EXACT via decimal rendering (first character of
    the integer's string form — a float ``log10`` could misround at
    powers of ten; the SQL oracle uses the same ``SUBSTR(CAST ...)``)
    over one map-combined count exchange.  Rows ≤ 0 are ignored (no
    first significant digit; the oracle filters identically).  Output is
    always 9 rows, digits 1–9 (zero-observed digits kept — an audit that
    silently dropped a digit row would hide exactly the anomaly it
    exists to catch): ``digit, observed, obs_ppm, exp_ppm`` with
    ``obs_ppm`` the one pinned ``FLOOR(DOUBLE/DOUBLE·scale + 0.5)``
    rendering and ``exp_ppm`` the precomputed constants.
    """
    from .agg import bucket_groupby_sum

    schema = ds.schema().base_schema
    if not pa.types.is_integer(schema.field(col).type):
        raise ValueError(
            f"benford_audit: {col!r} must be integer (got "
            f"{schema.field(col).type}) — quantize to cents first"
        )

    def prep(batch: pa.Table) -> pa.Table:
        v = batch[col].cast(pa.int64())
        pos = pc.filter(v, pc.greater(v, 0))
        digit = pc.cast(
            pc.utf8_slice_codeunits(pc.cast(pos, pa.string()), 0, 1),
            pa.int64(),
        )
        return pa.table({"digit": digit})

    obs_rows = bucket_groupby_sum(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys=["digit"],
        sum_cols=[],
        count_col="o",
        n_buckets=n_buckets,
    ).take_all()
    obs = {int(r["digit"]): int(r["o"]) for r in obs_rows}
    n = sum(obs.values())
    digits = list(range(1, 10))
    observed = [obs.get(d, 0) for d in digits]
    obs_ppm = [
        int(np.floor(float(o) / float(n) * scale + 0.5)) if n else 0
        for o in observed
    ]
    return pa.table(
        {
            "digit": pa.array(digits, pa.int64()),
            "observed": pa.array(observed, pa.int64()),
            "obs_ppm": pa.array(obs_ppm, pa.int64()),
            "exp_ppm": pa.array(
                [BENFORD_PPM[d] for d in digits], pa.int64()
            ),
        }
    )


def spearman_corr(
    ds: ray.data.Dataset,
    x_col: str,
    y_col: str,
    *,
    n_buckets: int = 64,
) -> pa.Table:
    """Exact Spearman rank correlation with textbook tie handling
    (average ranks) between two quantized integer columns.

    Every intermediate is an EXACT integer: with DOUBLED average ranks
    (``u = 2·cum_before + c + 1`` over each marginal support — the
    Mann-Whitney device; the doubling cancels in the ratio),

        num = n·Σcuv − (Σcu)(Σcv)
        d1  = n·Σcu² − (Σcu)²;   d2 analogously for v

    accumulate in arbitrary-precision Python ints over the JOINT support,
    and the single float rendering is the pinned chain
    ``DOUBLE(num) / SQRT(DOUBLE(d1)·DOUBLE(d2))`` — identical in the SQL
    oracle, so the double is bit-equal.

    Plan: ONE map-combined count exchange reduces the corpus to distinct
    ``(x, y)`` pairs with counts; margins, ranks and sums derive from
    that table driver-side.  The joint support must be bounded (the
    KS-family convention — quantized cents/bps/counts, NOT free-range
    doubles); both columns must be integer, NULLs raise.  Returns one
    row: ``n, rho`` (rho NULL when either column is constant).
    """
    from .agg import bucket_groupby_sum

    schema = ds.schema().base_schema
    for c in (x_col, y_col):
        if not pa.types.is_integer(schema.field(c).type):
            raise ValueError(
                f"spearman_corr: {c!r} must be integer (got "
                f"{schema.field(c).type}) — quantize to cents/bps"
            )

    def prep(batch: pa.Table) -> pa.Table:
        x = batch[x_col]
        y = batch[y_col]
        if x.null_count or y.null_count:
            raise ValueError(
                "spearman_corr: NULL values — filter or impute first"
            )
        return pa.table(
            {"x": x.cast(pa.int64()), "y": y.cast(pa.int64())}
        )

    joint = bucket_groupby_sum(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys=["x", "y"],
        sum_cols=[],
        count_col="c",
        n_buckets=n_buckets,
    ).take_all()
    n = sum(int(r["c"]) for r in joint)

    def doubled_ranks(axis: str) -> dict:
        marg: dict = {}
        for r in joint:
            marg[int(r[axis])] = marg.get(int(r[axis]), 0) + int(r["c"])
        ranks = {}
        cum = 0
        for v in sorted(marg):
            c = marg[v]
            ranks[v] = 2 * cum + c + 1
            cum += c
        return ranks

    ux = doubled_ranks("x")
    vy = doubled_ranks("y")
    scu = scv = scuv = scu2 = scv2 = 0
    for r in joint:
        c = int(r["c"])
        u = ux[int(r["x"])]
        v = vy[int(r["y"])]
        scu += c * u
        scv += c * v
        scuv += c * u * v
        scu2 += c * u * u
        scv2 += c * v * v
    num = n * scuv - scu * scv
    d1 = n * scu2 - scu * scu
    d2 = n * scv2 - scv * scv
    rho = None
    if d1 > 0 and d2 > 0:
        rho = float(
            np.float64(num) / np.sqrt(np.float64(d1) * np.float64(d2))
        )
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "rho": pa.array([rho], pa.float64()),
        }
    )


def chi2_goodness_of_fit(
    ds: ray.data.Dataset,
    col: str,
    expected: dict,
    *,
    scale: int = 10**6,
    n_buckets: int = 64,
) -> pa.Table:
    """Chi-squared goodness-of-fit of a categorical column against a
    FIXED expected distribution — the uniformity / known-mix audit
    beside :func:`chi2_independence` (which tests two columns against
    each other).

    ``expected`` maps category → ``(num, den)`` expected share as an
    exact RATIONAL (uniform over 7 days = ``(1, 7)``; a ppm table =
    ``(ppm, 10**6)``), so the statistic keeps the exact-int recipe:
    ``e = n·num/den`` and the per-cell contribution

        (o − e)²/e = (o·den − n·num)² / (n·num·den)

    is an exact integer ratio, quantized with ONE pinned
    ``FLOOR(DOUBLE/DOUBLE·scale + 0.5)`` per cell and summed order-free.
    Categories observed but NOT in ``expected`` raise loudly (an
    unexpected level is an audit failure, not a silent bucket);
    expected-but-unobserved categories contribute ``o = 0``.  One
    map-combined count exchange; returns one row:
    ``chi2_ppm, dof, n_rows``.
    """
    from .agg import bucket_groupby_sum

    if not expected:
        raise ValueError("expected must name at least one category")
    for k, (num, den) in expected.items():
        if num <= 0 or den <= 0:
            raise ValueError(
                f"expected[{k!r}] = ({num}, {den}) — shares must be "
                "positive rationals"
            )

    obs_rows = bucket_groupby_sum(
        ds.map_batches(
            lambda b: b.select([col]).drop_null(), batch_format="pyarrow"
        ),
        keys=[col],
        sum_cols=[],
        count_col="o",
        n_buckets=n_buckets,
    ).take_all()
    obs = {r[col]: int(r["o"]) for r in obs_rows}
    unexpected = sorted(set(obs) - set(expected), key=str)
    if unexpected:
        raise ValueError(
            f"chi2_goodness_of_fit: observed categories not in expected: "
            f"{unexpected[:5]} — extend the expected table or filter first"
        )
    n = sum(obs.values())
    chi2_ppm = 0
    if n:
        for k, (num, den) in expected.items():
            o = obs.get(k, 0)
            numer = (o * den - n * num) ** 2  # exact Python ints
            denom = n * num * den
            chi2_ppm += int(
                np.floor(float(numer) / float(denom) * scale + 0.5)
            )
    return pa.table(
        {
            "chi2_ppm": pa.array([chi2_ppm], pa.int64()),
            "dof": pa.array([max(len(expected) - 1, 0)], pa.int64()),
            "n_rows": pa.array([n], pa.int64()),
        }
    )


def gini_coefficient(
    ds: ray.data.Dataset,
    value_col: str,
    *,
    scale: int = 10**6,
    n_buckets: int = 64,
) -> pa.Table:
    """Exact Gini concentration coefficient of a non-negative quantized
    integer column — the inequality audit ("how concentrated is corpus
    volume over documents / revenue over customers").

    Histogram form keeps it exact at any scale: with sorted distinct
    values ``v_i`` (counts ``c_i``, cumulative ``C_i``), the individuals
    holding ``v_i`` occupy ranks ``C_{i−1}+1 … C_i``, so

        2·Σ rank·x = Σ v_i·(C_i(C_i+1) − C_{i−1}(C_{i−1}+1))
        G = (2·Σ rank·x − (n+1)·Σx) / (n·Σx)

    — every term an exact big int over the DISTINCT-value support (the
    KS-family convention: one map-combined count exchange; the support
    is bounded by the quantized value domain, not the row count), then
    ONE pinned ppm rendering.  Negative values raise (Gini is defined
    for non-negative quantities); an all-zero or empty column yields
    NULL.  Returns one row: ``gini_ppm, n_rows, total``.
    """
    from .agg import bucket_groupby_sum

    schema = ds.schema().base_schema
    if not pa.types.is_integer(schema.field(value_col).type):
        raise ValueError(
            f"{value_col!r} must be integer (got "
            f"{schema.field(value_col).type}) — quantize to cents first"
        )

    def prep(batch: pa.Table) -> pa.Table:
        v = batch[value_col].cast(pa.int64())
        if v.null_count:
            raise ValueError(
                "gini_coefficient: NULL values — filter or impute first"
            )
        if pc.any(pc.less(v, 0)).as_py():
            raise ValueError(
                "gini_coefficient: negative values — Gini is defined for "
                "non-negative quantities"
            )
        return pa.table({"v": v})

    rows = bucket_groupby_sum(
        ds.map_batches(prep, batch_format="pyarrow"),
        keys=["v"],
        sum_cols=[],
        count_col="c",
        n_buckets=n_buckets,
    ).take_all()
    rows.sort(key=lambda r: r["v"])
    n = sum(int(r["c"]) for r in rows)
    total = sum(int(r["v"]) * int(r["c"]) for r in rows)
    gini_ppm = None
    if n and total:
        cum_prev = 0
        two_rank_x = 0
        for r in rows:
            v, c = int(r["v"]), int(r["c"])
            cum = cum_prev + c
            two_rank_x += v * (cum * (cum + 1) - cum_prev * (cum_prev + 1))
            cum_prev = cum
        num = two_rank_x - (n + 1) * total
        den = n * total
        gini_ppm = int(np.floor(float(num) / float(den) * scale + 0.5))
    return pa.table(
        {
            "gini_ppm": pa.array([gini_ppm], pa.int64()),
            "n_rows": pa.array([n], pa.int64()),
            "total": pa.array([total], pa.int64()),
        }
    )


def qq_table(
    ds: ray.data.Dataset,
    value_col: str,
    side_col: str,
    sides: tuple,
    *,
    quantiles_bp: tuple = (1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000),
    n_buckets: int = 64,
) -> pa.Table:
    """Quantile-quantile table between two samples — the WHERE companion
    to :func:`ks_two_sample`'s scalar HOW MUCH: side-by-side discrete
    quantiles of both distributions at the requested basis points.

    DuckDB ``quantile_disc`` convention throughout (zero-indexed rank
    ``ceil(q·n) − 1`` with the FLOAT multiply — ``agg._disc_rank``, the
    form probed against DuckDB across (q, n) grids; an exact-rational
    index would diverge where float ``q·n`` rounds across an integer),
    so every output is an ACTUAL observed value.  Shares the
    :func:`_side_value_counts` support reduction (one count exchange;
    quantiles resolve by cumulative-count bisection over the bounded
    support).  Returns one row per basis point: ``(q_bp, v1, v2)``; an
    empty side yields NULLs for it.
    """
    from .agg import _disc_rank

    if not quantiles_bp or any(not (0 <= q <= 10000) for q in quantiles_bp):
        raise ValueError("quantiles_bp must be within [0, 10000]")
    counts = _side_value_counts(
        ds, value_col, side_col, sides, n_buckets, "qq_table"
    )
    vals = [int(r["v"]) for r in counts]

    def side_quantiles(key: str) -> list:
        cum = []
        t = 0
        for r in counts:
            t += int(r[key])
            cum.append(t)
        n = t
        out = []
        for q_bp in quantiles_bp:
            if n == 0:
                out.append(None)
                continue
            rank = _disc_rank(n, q_bp / 10000.0)
            # first support value whose cumulative count exceeds the rank
            lo, hi = 0, len(cum) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cum[mid] > rank:
                    hi = mid
                else:
                    lo = mid + 1
            out.append(vals[lo])
        return out

    return pa.table(
        {
            "q_bp": pa.array(list(quantiles_bp), pa.int64()),
            "v1": pa.array(side_quantiles("c1"), pa.int64()),
            "v2": pa.array(side_quantiles("c2"), pa.int64()),
        }
    )


def conformal_thresholds(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    *,
    alpha_bp: int = 1000,
    n_buckets: int = 64,
) -> pa.Table:
    """Split-conformal calibration thresholds per group — the
    distribution-free prediction-interval primitive: with nonconformity
    scores ``s = |v − median_g|`` over a calibration set, the threshold
    at miscoverage α is the ``k``-th smallest score,
    ``k = min(⌈(n+1)·(1−α)⌉, n)`` — intervals ``median ± threshold``
    then cover ≥ 1−α exchangeably, with no distributional assumption.

    Exactness: scores are exact integers (|cents − median cents|); the
    per-group median comes from ``agg.group_quantile_disc`` (groups are
    bounded — the map broadcasts, no join exchange); ``k`` uses the
    float ``ceil((n+1)·(1−α))`` both sides (α from basis points); the
    rank resolves over the per-(group, score) count support — ONE
    count exchange, driver bisection, the KS-family convention.
    Returns one row per group: ``(group, median, threshold, n)``.
    """
    from .agg import group_quantile_disc

    if not (0 < alpha_bp < 10000):
        raise ValueError("alpha_bp must be in (0, 10000)")
    schema = ds.schema().base_schema
    if not pa.types.is_integer(schema.field(value_col).type):
        raise ValueError(
            f"{value_col!r} must be integer (got "
            f"{schema.field(value_col).type}) — quantize to cents first"
        )
    med_rows = group_quantile_disc(
        ds, [group_col], value_col, 0.5, out_col="m", n_buckets=n_buckets
    ).take_all()  # bounded: one row per group
    med = {r[group_col]: int(r["m"]) for r in med_rows}

    def scores(batch: pa.Table) -> pa.Table:
        g = batch[group_col]
        v = batch[value_col].cast(pa.int64())
        if v.null_count or g.null_count:
            raise ValueError(
                "conformal_thresholds: NULL group/value — filter first"
            )
        gv = g.to_numpy(zero_copy_only=False)
        vv = v.to_numpy(zero_copy_only=False).astype(np.int64)
        ms = np.array([med[x] for x in gv], np.int64)
        return pa.table(
            {
                group_col: g,
                "s": pa.array(np.abs(vv - ms), pa.int64()),
            }
        )

    from .agg import bucket_groupby_sum

    counts = bucket_groupby_sum(
        ds.map_batches(scores, batch_format="pyarrow"),
        keys=[group_col, "s"],
        sum_cols=[],
        count_col="c",
        n_buckets=n_buckets,
    ).take_all()
    by_g: dict = {}
    for r in counts:
        by_g.setdefault(r[group_col], []).append((int(r["s"]), int(r["c"])))
    keys_sorted = sorted(by_g)
    out_g, out_m, out_t, out_n = [], [], [], []
    q = 1.0 - alpha_bp / 10000.0
    for gk in keys_sorted:
        rows = sorted(by_g[gk])
        n = sum(c for _, c in rows)
        k = min(int(np.ceil((n + 1) * q)), n)  # float ceil, SQL parity
        cum = 0
        thr = None
        for s, c in rows:
            cum += c
            if cum >= k:
                thr = s
                break
        out_g.append(gk)
        out_m.append(med[gk])
        out_t.append(thr)
        out_n.append(n)
    return pa.table(
        {
            group_col: pa.array(out_g),
            "median": pa.array(out_m, pa.int64()),
            "threshold": pa.array(out_t, pa.int64()),
            "n": pa.array(out_n, pa.int64()),
        }
    )
