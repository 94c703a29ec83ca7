"""Table profiler (stages/profile.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from deepseek_ocr_ray.stages.profile import profile_table


def _tab():
    return pa.table(
        {
            "i": pa.array([5, None, -3, 5, 100, 7], pa.int64()),
            "s": pa.array(["b", "a", None, "zz", "a", "m"], pa.string()),
        }
    )


def test_profile_table_basic(ray_session):
    import ray.data

    got = profile_table(ray.data.from_arrow(_tab()).repartition(3), ["i", "s"])
    rows = {r["col"]: r for r in got.to_pylist()}
    assert rows["i"]["n"] == 6
    assert rows["i"]["n_nulls"] == 1
    assert rows["i"]["n_distinct"] == 4
    # numeric (not lexicographic) min/max, rendered as strings
    assert rows["i"]["min_val"] == "-3"
    assert rows["i"]["max_val"] == "100"
    assert rows["s"]["n_nulls"] == 1
    assert rows["s"]["n_distinct"] == 4
    assert rows["s"]["min_val"] == "a"
    assert rows["s"]["max_val"] == "zz"


def test_profile_table_block_invariance(ray_session):
    import ray.data

    rng = np.random.RandomState(3)
    tab = pa.table(
        {
            "x": pa.array(rng.randint(0, 500, 5000).tolist(), pa.int64()),
        }
    )
    a = profile_table(ray.data.from_arrow(tab), ["x"]).to_pylist()
    b = profile_table(ray.data.from_arrow(tab).repartition(11), ["x"]).to_pylist()
    assert a == b


def test_profile_table_rejects_floats(ray_session):
    import ray.data

    tab = pa.table({"f": pa.array([1.5, 2.5])})
    with pytest.raises(ValueError, match="rendering"):
        profile_table(ray.data.from_arrow(tab), ["f"])


# ---------------------------------------------------------------------------
# chi-squared independence


def _chi2_ref(rows):
    """Independent exact-fraction chi2 over the full grid, quantized with
    the module's pinned recipe."""
    from fractions import Fraction

    import math

    obs = {}
    for r, c in rows:
        obs[(r, c)] = obs.get((r, c), 0) + 1
    rt, ct = {}, {}
    for (r, c), o in obs.items():
        rt[r] = rt.get(r, 0) + o
        ct[c] = ct.get(c, 0) + o
    n = sum(rt.values())
    ppm = 0
    for r in rt:
        for c in ct:
            o = obs.get((r, c), 0)
            num = (o * n - rt[r] * ct[c]) ** 2
            den = rt[r] * ct[c] * n
            ppm += int(math.floor(float(num) / float(den) * 10**6 + 0.5))
    exact = sum(
        Fraction((obs.get((r, c), 0) * n - rt[r] * ct[c]) ** 2, rt[r] * ct[c] * n)
        for r in rt
        for c in ct
    )
    return ppm, float(exact), (len(rt) - 1) * (len(ct) - 1), n


def test_chi2_independence_fixture(ray_session):
    """Engineered 2×2 with a ZERO-observed cell — the full-grid sum must
    include its expectation term (sum-over-observed-only is a different
    statistic)."""
    import ray.data

    from deepseek_ocr_ray.stages.profile import chi2_independence

    rows = [("A", "x"), ("A", "x"), ("A", "y"), ("B", "x")]
    t = pa.table(
        {
            "r": pa.array([p[0] for p in rows]),
            "c": pa.array([p[1] for p in rows]),
        }
    )
    got = chi2_independence(
        ray.data.from_arrow(t).repartition(2), "r", "c"
    ).to_pylist()[0]
    ppm, exact, dof, n = _chi2_ref(rows)
    assert got["chi2_ppm"] == ppm
    assert abs(got["chi2_ppm"] / 1e6 - exact) < 1e-3
    assert got["dof"] == dof == 1
    assert (got["n_rows"], got["r_levels"], got["c_levels"]) == (4, 2, 2)
    # the zero cell (B, y) contributes rt·ct/n = 1·1/4 — drop it and the
    # statistic would be smaller by exactly that term
    assert got["chi2_ppm"] >= 250000


def test_chi2_perfect_independence_is_zero(ray_session):
    """An exactly independent contingency table scores 0."""
    import ray.data

    from deepseek_ocr_ray.stages.profile import chi2_independence

    rows = []
    for r, mult_r in (("A", 1), ("B", 2)):
        for c, mult_c in (("x", 1), ("y", 3)):
            rows += [(r, c)] * (mult_r * mult_c)
    t = pa.table(
        {
            "r": pa.array([p[0] for p in rows]),
            "c": pa.array([p[1] for p in rows]),
        }
    )
    got = chi2_independence(
        ray.data.from_arrow(t).repartition(3), "r", "c"
    ).to_pylist()[0]
    assert got["chi2_ppm"] == 0
    assert got["dof"] == 1


def test_chi2_random_differential(ray_session):
    """Random tables vs the exact-fraction reference, block-invariant."""
    import random

    import ray.data

    from deepseek_ocr_ray.stages.profile import chi2_independence

    rng = random.Random(5)
    for trial in range(3):
        rows = [
            (rng.choice("ABCD"), rng.choice("xyz")) for _ in range(200)
        ]
        t = pa.table(
            {
                "r": pa.array([p[0] for p in rows]),
                "c": pa.array([p[1] for p in rows]),
            }
        )
        for nblocks in (1, 4):
            got = chi2_independence(
                ray.data.from_arrow(t).repartition(nblocks), "r", "c"
            ).to_pylist()[0]
            ppm, exact, dof, n = _chi2_ref(rows)
            assert got["chi2_ppm"] == ppm
            assert got["dof"] == dof and got["n_rows"] == n


def test_chi2_null_category_raises(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.profile import chi2_independence

    t = pa.table(
        {
            "r": pa.array(["A", None, "B"]),
            "c": pa.array(["x", "y", "x"]),
        }
    )
    with pytest.raises(ValueError, match="NULL"):
        chi2_independence(ray.data.from_arrow(t), "r", "c")


# ---------------------------------------------------------------------------
# two-sample KS


def test_ks_two_sample_fixture(ray_session):
    """Hand-checked: A = {1,2,3}, B = {3,4,5} → max gap at v=2:
    |2·3 − 0·3| = 6, D = 6/9."""
    import ray.data

    from deepseek_ocr_ray.stages.profile import ks_two_sample

    t = pa.table(
        {
            "v": pa.array([1, 2, 3, 3, 4, 5], pa.int64()),
            "side": pa.array(["a", "a", "a", "b", "b", "b"]),
        }
    )
    got = ks_two_sample(
        ray.data.from_arrow(t).repartition(2), "v", "side", ("a", "b")
    ).to_pylist()[0]
    assert got == {
        "d_num": 6,
        "n1": 3,
        "n2": 3,
        "d_ppm": 666667,  # floor(6/9·1e6 + 0.5)
    }


def test_ks_identical_distributions_zero(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.profile import ks_two_sample

    vals = [1, 5, 9, 9, 12] * 2
    sides = ["a"] * 5 + ["b"] * 5
    t = pa.table({"v": pa.array(vals, pa.int64()), "side": pa.array(sides)})
    got = ks_two_sample(
        ray.data.from_arrow(t), "v", "side", ("a", "b")
    ).to_pylist()[0]
    assert got["d_num"] == 0 and got["d_ppm"] == 0


def test_ks_differential_vs_scipy_style_reference(ray_session):
    """Random two-sample draws vs an independent all-pairs reference,
    block-invariant; third-side rows are ignored."""
    import random

    import ray.data

    from deepseek_ocr_ray.stages.profile import ks_two_sample

    rng = random.Random(11)
    for trial in range(3):
        va = [rng.randrange(20) for _ in range(80)]
        vb = [rng.randrange(25) for _ in range(60)]
        vals = va + vb + [99, 98]
        sides = ["a"] * 80 + ["b"] * 60 + ["zzz", "zzz"]
        t = pa.table(
            {"v": pa.array(vals, pa.int64()), "side": pa.array(sides)}
        )
        # reference: D over the merged support
        support = sorted(set(va) | set(vb))
        d_ref = 0
        for s in support:
            f1 = sum(1 for x in va if x <= s)
            f2 = sum(1 for x in vb if x <= s)
            d_ref = max(d_ref, abs(f1 * len(vb) - f2 * len(va)))
        for nblocks in (1, 4):
            got = ks_two_sample(
                ray.data.from_arrow(t).repartition(nblocks),
                "v",
                "side",
                ("a", "b"),
            ).to_pylist()[0]
            assert got["d_num"] == d_ref
            assert (got["n1"], got["n2"]) == (80, 60)


def test_ks_validation(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.profile import ks_two_sample

    t = pa.table(
        {
            "v": pa.array([1, None], pa.int64()),
            "side": pa.array(["a", "b"]),
        }
    )
    with pytest.raises(Exception, match="NULL"):
        ks_two_sample(ray.data.from_arrow(t), "v", "side", ("a", "b"))
    with pytest.raises(ValueError, match="sides"):
        ks_two_sample(ray.data.from_arrow(t), "v", "side", ("a", "a"))
    tf = pa.table({"v": [1.5], "side": ["a"]})
    with pytest.raises(ValueError, match="integer"):
        ks_two_sample(ray.data.from_arrow(tf), "v", "side", ("a", "b"))


def test_ks_validation_on_lazy_input(ray_session):
    """A lazy mapped input has no schema until it runs: the integer check
    then happens on the batches, and still fails the call."""
    import ray.data

    from deepseek_ocr_ray.stages.profile import ks_two_sample

    t = pa.table({"v": pa.array([1, 3], pa.int64()), "side": ["a", "b"]})
    lazy = ray.data.from_arrow(t).map_batches(
        lambda b: b.set_column(0, "v", b["v"].cast(pa.float64())),
        batch_format="pyarrow",
    )
    with pytest.raises(Exception, match="must be integer"):
        ks_two_sample(lazy, "v", "side", ("a", "b"))
    ok = ray.data.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow")
    got = ks_two_sample(ok, "v", "side", ("a", "b")).to_pylist()[0]
    assert (got["n1"], got["n2"]) == (1, 1)


# ---------------------------------------------------------------------------
# Mann–Whitney U


def _mw_ref(va, vb):
    """Independent reference: U1 by all-pairs counting (wins + half
    ties) — doubled to stay integer."""
    u2 = 0
    for a in va:
        for b in vb:
            if a > b:
                u2 += 2
            elif a == b:
                u2 += 1
    return u2


def test_mann_whitney_fixture_and_identity(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.profile import mann_whitney_u

    va = [3, 4, 2, 6]
    vb = [1, 4, 5]
    vals = va + vb
    sides = ["a"] * len(va) + ["b"] * len(vb)
    t = pa.table({"v": pa.array(vals, pa.int64()), "side": pa.array(sides)})
    got = mann_whitney_u(
        ray.data.from_arrow(t).repartition(2), "v", "side", ("a", "b")
    ).to_pylist()[0]
    assert got["u2"] == _mw_ref(va, vb)
    # U1 + U2 = n1·n2  ⇒  u2(a,b) + u2(b,a) = 2·n1·n2
    got_rev = mann_whitney_u(
        ray.data.from_arrow(t), "v", "side", ("b", "a")
    ).to_pylist()[0]
    assert got["u2"] + got_rev["u2"] == 2 * len(va) * len(vb)


def test_mann_whitney_differential(ray_session):
    import random

    import ray.data

    from deepseek_ocr_ray.stages.profile import mann_whitney_u

    rng = random.Random(23)
    for trial in range(3):
        va = [rng.randrange(15) for _ in range(70)]
        vb = [rng.randrange(18) for _ in range(50)]
        t = pa.table(
            {
                "v": pa.array(va + vb, pa.int64()),
                "side": pa.array(["a"] * 70 + ["b"] * 50),
            }
        )
        for nblocks in (1, 3):
            got = mann_whitney_u(
                ray.data.from_arrow(t).repartition(nblocks),
                "v",
                "side",
                ("a", "b"),
            ).to_pylist()[0]
            assert got["u2"] == _mw_ref(va, vb)
            assert (got["n1"], got["n2"]) == (70, 50)
            # AUC in [0, 1] rendered in ppm
            assert 0 <= got["auc_ppm"] <= 10**6


# ---------------------------------------------------------------------------
# two-proportion z


def test_two_proportion_z_reference(ray_session):
    """Hand-pinned op order vs an independent float walk; degenerate
    pooled variance (all successes) yields NULL z."""
    import ray.data

    from deepseek_ocr_ray.stages.profile import two_proportion_z

    # A: 3/5 convert, B: 1/4
    grp = ["a"] * 5 + ["b"] * 4
    s = [1, 1, 1, 0, 0, 1, 0, 0, 0]
    t = pa.table(
        {"grp": pa.array(grp), "s": pa.array(s, pa.int64())}
    )
    got = two_proportion_z(
        ray.data.from_arrow(t).repartition(2), "grp", "s", ("a", "b")
    ).to_pylist()[0]
    assert (got["x1"], got["n1"], got["x2"], got["n2"]) == (3, 5, 1, 4)
    p1 = np.float64(3) / np.float64(5)
    p2 = np.float64(1) / np.float64(4)
    p = np.float64(4) / np.float64(9)
    se = np.sqrt(
        p * (np.float64(1.0) - p)
        * (np.float64(1.0) / np.float64(5) + np.float64(1.0) / np.float64(4))
    )
    assert got["z"] == float((p1 - p2) / se)
    # all-success both sides: se == 0 → NULL z
    t2 = pa.table(
        {
            "grp": pa.array(["a", "b", "a", "b"]),
            "s": pa.array([1, 1, 1, 1], pa.int64()),
        }
    )
    got2 = two_proportion_z(
        ray.data.from_arrow(t2), "grp", "s", ("a", "b")
    ).to_pylist()[0]
    assert got2["z"] is None and got2["x1"] == 2


def test_two_proportion_z_validation(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.profile import two_proportion_z

    t = pa.table(
        {"grp": pa.array(["a", "b"]), "s": pa.array([1, 2], pa.int64())}
    )
    with pytest.raises(Exception, match="0 or 1"):
        two_proportion_z(ray.data.from_arrow(t), "grp", "s", ("a", "b"))


# ---------------------------------------------------------------------------
# Benford audit


def test_benford_fixture(ray_session):
    """Engineered digits incl. a zero-observed digit row, ignored
    non-positives, and the pinned constants."""
    import ray.data

    from deepseek_ocr_ray.stages.profile import BENFORD_PPM, benford_audit

    vals = [1, 19, 123, 2, 25, 3, 900, 0, -7]  # digits 1,1,1,2,2,3,9
    t = pa.table({"c": pa.array(vals, pa.int64())})
    got = benford_audit(
        ray.data.from_arrow(t).repartition(3), "c"
    ).to_pylist()
    assert [r["digit"] for r in got] == list(range(1, 10))
    by_d = {r["digit"]: r for r in got}
    assert by_d[1]["observed"] == 3 and by_d[2]["observed"] == 2
    assert by_d[3]["observed"] == 1 and by_d[9]["observed"] == 1
    assert by_d[4]["observed"] == 0  # zero-observed digit keeps its row
    n = 7
    assert by_d[1]["obs_ppm"] == int(np.floor(3 / n * 1e6 + 0.5))
    assert by_d[4]["obs_ppm"] == 0
    for d in range(1, 10):
        assert by_d[d]["exp_ppm"] == BENFORD_PPM[d]
    # the constants really are FLOOR(log10(1+1/d)·1e6 + 0.5)
    import math

    for d in range(1, 10):
        assert BENFORD_PPM[d] == int(
            math.floor(math.log10(1 + 1 / d) * 10**6 + 0.5)
        )


def test_benford_validation(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.profile import benford_audit

    t = pa.table({"c": [1.5]})
    with pytest.raises(ValueError, match="integer"):
        benford_audit(ray.data.from_arrow(t), "c")


# ---------------------------------------------------------------------------
# Spearman


def test_spearman_known_values(ray_session):
    """Monotone ⇒ +1, antitone ⇒ −1, with-ties case vs scipy-free
    reference computed from the definition."""
    import ray.data

    from deepseek_ocr_ray.stages.profile import spearman_corr

    x = [1, 2, 3, 4, 5]
    t = pa.table(
        {
            "x": pa.array(x, pa.int64()),
            "y": pa.array([10, 20, 30, 40, 50], pa.int64()),
        }
    )
    got = spearman_corr(ray.data.from_arrow(t), "x", "y").to_pylist()[0]
    assert got == {"n": 5, "rho": 1.0}
    t2 = pa.table(
        {
            "x": pa.array(x, pa.int64()),
            "y": pa.array([50, 40, 30, 20, 10], pa.int64()),
        }
    )
    got2 = spearman_corr(ray.data.from_arrow(t2), "x", "y").to_pylist()[0]
    assert got2["rho"] == -1.0
    # constant column → NULL rho
    t3 = pa.table(
        {
            "x": pa.array(x, pa.int64()),
            "y": pa.array([7] * 5, pa.int64()),
        }
    )
    assert (
        spearman_corr(ray.data.from_arrow(t3), "x", "y").to_pylist()[0]["rho"]
        is None
    )


def test_spearman_ties_differential(ray_session):
    """Random tied data vs a from-the-definition reference (average
    ranks + Pearson), block-invariant."""
    import random

    import numpy as np

    import ray.data

    from deepseek_ocr_ray.stages.profile import spearman_corr

    rng = random.Random(41)

    def avg_ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        ranks = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j < len(order) and vals[order[j]] == vals[order[i]]:
                j += 1
            r = (i + j + 1) / 2  # average of 1-based ranks i+1..j
            for k in range(i, j):
                ranks[order[k]] = r
            i = j
        return ranks

    for trial in range(3):
        xs = [rng.randrange(8) for _ in range(200)]
        ys = [x + rng.randrange(5) for x in xs]
        rx, ry = avg_ranks(xs), avg_ranks(ys)
        rx, ry = np.array(rx), np.array(ry)
        ref = float(
            ((rx - rx.mean()) * (ry - ry.mean())).sum()
            / np.sqrt(
                ((rx - rx.mean()) ** 2).sum() * ((ry - ry.mean()) ** 2).sum()
            )
        )
        t = pa.table(
            {
                "x": pa.array(xs, pa.int64()),
                "y": pa.array(ys, pa.int64()),
            }
        )
        for nblocks in (1, 4):
            got = spearman_corr(
                ray.data.from_arrow(t).repartition(nblocks), "x", "y"
            ).to_pylist()[0]
            assert abs(got["rho"] - ref) < 1e-12
            assert got["n"] == 200


def test_spearman_validation(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.profile import spearman_corr

    t = pa.table(
        {
            "x": pa.array([1, None], pa.int64()),
            "y": pa.array([1, 2], pa.int64()),
        }
    )
    with pytest.raises(Exception, match="NULL"):
        spearman_corr(ray.data.from_arrow(t), "x", "y")
    tf = pa.table({"x": [1.5], "y": [1]})
    with pytest.raises(ValueError, match="integer"):
        spearman_corr(ray.data.from_arrow(tf), "x", "y")


# ---------------------------------------------------------------------------
# chi2 goodness of fit


def test_chi2_gof_uniform_and_rational(ray_session):
    """Exact-fraction reference with a zero-observed expected category;
    unexpected observed categories raise."""
    from fractions import Fraction

    import math

    import ray.data

    from deepseek_ocr_ray.stages.profile import chi2_goodness_of_fit

    vals = ["a"] * 6 + ["b"] * 3  # "c" expected but unobserved
    t = pa.table({"v": pa.array(vals)})
    exp = {"a": (1, 3), "b": (1, 3), "c": (1, 3)}
    got = chi2_goodness_of_fit(
        ray.data.from_arrow(t).repartition(2), "v", exp
    ).to_pylist()[0]
    n = 9
    ppm = 0
    exact = Fraction(0)
    for k, (num, den) in exp.items():
        o = {"a": 6, "b": 3}.get(k, 0)
        numer = (o * den - n * num) ** 2
        denom = n * num * den
        ppm += int(math.floor(numer / denom * 10**6 + 0.5))
        exact += Fraction(numer, denom)
    assert got == {"chi2_ppm": ppm, "dof": 2, "n_rows": 9}
    assert abs(got["chi2_ppm"] / 1e6 - float(exact)) < 1e-3
    # unexpected category raises loudly
    t2 = pa.table({"v": pa.array(["a", "zzz"])})
    with pytest.raises(ValueError, match="not in expected"):
        chi2_goodness_of_fit(ray.data.from_arrow(t2), "v", exp)
    with pytest.raises(ValueError, match="positive"):
        chi2_goodness_of_fit(ray.data.from_arrow(t), "v", {"a": (0, 1)})


def test_chi2_gof_perfect_fit_zero(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.profile import chi2_goodness_of_fit

    vals = ["x"] * 2 + ["y"] * 6
    t = pa.table({"v": pa.array(vals)})
    got = chi2_goodness_of_fit(
        ray.data.from_arrow(t), "v", {"x": (1, 4), "y": (3, 4)}
    ).to_pylist()[0]
    assert got["chi2_ppm"] == 0


# ---------------------------------------------------------------------------
# Gini


def test_gini_known_values(ray_session):
    """Perfect equality → 0; near-total concentration; duplicate values
    through the histogram ranks; exact-fraction reference."""
    from fractions import Fraction

    import math

    import ray.data

    from deepseek_ocr_ray.stages.profile import gini_coefficient

    eq = pa.table({"v": pa.array([5] * 8, pa.int64())})
    got = gini_coefficient(ray.data.from_arrow(eq), "v").to_pylist()[0]
    assert got == {"gini_ppm": 0, "n_rows": 8, "total": 40}

    vals = [0, 0, 0, 10]  # one holder of everything: G = (n-1)/n = 0.75
    t = pa.table({"v": pa.array(vals, pa.int64())})
    got = gini_coefficient(
        ray.data.from_arrow(t).repartition(2), "v"
    ).to_pylist()[0]
    assert got["gini_ppm"] == 750000

    def ref(vals):
        xs = sorted(vals)
        n = len(xs)
        tot = sum(xs)
        num = sum((i + 1) * x for i, x in enumerate(xs)) * 2 - (n + 1) * tot
        return Fraction(num, n * tot)

    vals = [1, 1, 2, 3, 5, 8, 13, 13]
    t = pa.table({"v": pa.array(vals, pa.int64())})
    got = gini_coefficient(ray.data.from_arrow(t), "v").to_pylist()[0]
    r = ref(vals)
    assert got["gini_ppm"] == int(
        math.floor(float(r.numerator) / float(r.denominator) * 1e6 + 0.5)
    )


def test_gini_validation_and_degenerate(ray_session):
    import ray.data

    from deepseek_ocr_ray.stages.profile import gini_coefficient

    neg = pa.table({"v": pa.array([1, -2], pa.int64())})
    with pytest.raises(Exception, match="negative"):
        gini_coefficient(ray.data.from_arrow(neg), "v")
    zeros = pa.table({"v": pa.array([0, 0], pa.int64())})
    got = gini_coefficient(ray.data.from_arrow(zeros), "v").to_pylist()[0]
    assert got["gini_ppm"] is None and got["n_rows"] == 2


# ---------------------------------------------------------------------------
# Q-Q table


def test_qq_table_fixture_and_duckdb_rank_convention(ray_session):
    """Deciles of two known samples vs DuckDB's quantile_disc directly —
    pins the ceil(q·n)−1 rank convention across both sides."""
    import duckdb

    import ray.data

    from deepseek_ocr_ray.stages.profile import qq_table

    va = list(range(1, 22))          # 21 values, 1..21
    vb = [5, 5, 5, 9, 100]           # ties + outlier
    t = pa.table(
        {
            "v": pa.array(va + vb, pa.int64()),
            "side": pa.array(["a"] * len(va) + ["b"] * len(vb)),
        }
    )
    got = qq_table(
        ray.data.from_arrow(t).repartition(3), "v", "side", ("a", "b")
    ).to_pylist()
    con = duckdb.connect()
    con.register("t", t)
    for r in got:
        q = r["q_bp"] / 10000.0
        w1 = con.execute(
            "SELECT quantile_disc(v, ?) FROM t WHERE side = 'a'", [q]
        ).fetchone()[0]
        w2 = con.execute(
            "SELECT quantile_disc(v, ?) FROM t WHERE side = 'b'", [q]
        ).fetchone()[0]
        assert (r["v1"], r["v2"]) == (w1, w2), r["q_bp"]
    with pytest.raises(ValueError, match="quantiles_bp"):
        qq_table(ray.data.from_arrow(t), "v", "side", ("a", "b"),
                 quantiles_bp=(20000,))


# ---------------------------------------------------------------------------
# conformal thresholds


def test_conformal_thresholds_coverage_guarantee(ray_session):
    """The k-th-smallest-score rule: with n=9 scores and α=0.1,
    k = ceil(10·0.9) = 9 → the largest score; the chosen threshold
    covers ≥ 1−α of the calibration set by construction."""
    import ray.data

    from deepseek_ocr_ray.stages.profile import conformal_thresholds

    vals = [10, 12, 14, 16, 18, 20, 22, 24, 100]  # median 18
    t = pa.table(
        {
            "g": pa.array(["a"] * len(vals)),
            "v": pa.array(vals, pa.int64()),
        }
    )
    got = conformal_thresholds(
        ray.data.from_arrow(t).repartition(2), "g", "v", alpha_bp=1000
    ).to_pylist()
    assert len(got) == 1
    r = got[0]
    assert r["median"] == 18 and r["n"] == 9
    k = min(int(np.ceil(10 * 0.9)), 9)  # = 9 → largest score 82
    assert r["threshold"] == 82
    covered = sum(1 for v in vals if abs(v - 18) <= r["threshold"])
    assert covered / len(vals) >= 0.9
    # a tighter alpha keeps a smaller threshold
    got50 = conformal_thresholds(
        ray.data.from_arrow(t), "g", "v", alpha_bp=5000
    ).to_pylist()[0]
    assert got50["threshold"] < r["threshold"]
    with pytest.raises(ValueError, match="alpha_bp"):
        conformal_thresholds(ray.data.from_arrow(t), "g", "v", alpha_bp=0)
