"""Property-based tests (hypothesis) — SURVEY.md §5's invariants:

1. span parse ∘ markup render = identity on generated span lists
   (the grounded-markup grammar round-trips through the parser);
2. assembly is invariant under input block shuffling (order comes from
   keys, never from block order);
3. MinHash signature similarity is symmetric and self-identical;
4. the n-gram no-repeat constraint never bans whitelisted tokens.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from deepseek_ocr_ray.functions.grounding import page_spans
from deepseek_ocr_ray.functions.ngram_norepeat import (
    DEFAULT_WHITELIST,
    NoRepeatNGramProcessor,
)
from deepseek_ocr_ray.stages.dedup import MinHasher, est_jaccard

# --- 1. markup render → parse round-trip -----------------------------------

# span content: printable text with no markup tokens, no backslash-latex, and
# collapsed newlines (the cleaner normalizes those, so exclude from identity)
_content = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd", "Zs"), max_codepoint=0x2000
    ),
    min_size=1,
    max_size=60,
).map(lambda s: " ".join(s.split())).filter(bool)

_label = st.sampled_from(["text", "title", "table", "figure", "formula"])

_box = st.tuples(
    st.integers(0, 900), st.integers(0, 900), st.integers(0, 999), st.integers(0, 999)
)


def _render(spans: list[tuple[str, str, list]]) -> str:
    out = []
    for kind, text, boxes in spans:
        coords = "[" + ", ".join(f"[{a}, {b}, {c}, {d}]" for a, b, c, d in boxes) + "]"
        if kind == "image":
            out.append(f"<|ref|>image<|/ref|><|det|>{coords}<|/det|>\n")
        else:
            out.append(f"<|ref|>{kind}<|/ref|><|det|>{coords}<|/det|>{text}\n")
    return "".join(out)


_span = st.one_of(
    st.tuples(st.just("image"), st.just(""), st.lists(_box, min_size=1, max_size=3)),
    st.tuples(_label, _content, st.lists(_box, min_size=1, max_size=3)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_span, min_size=1, max_size=8))
def test_render_parse_roundtrip(spans):
    raw = _render(spans)
    parsed = page_spans(raw, "crop://t/0")
    assert len(parsed) == len(spans)
    img_idx = 0
    for (kind, text, _), got in zip(spans, parsed):
        assert got.kind == kind
        if kind == "image":
            assert got.media_ref == f"crop://t/0/{img_idx}"
            img_idx += 1
        else:
            assert got.text == text.strip()
            assert got.media_ref == ""


# --- 2. assembly invariant under block shuffling ---------------------------


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_assembly_block_order_invariant(rnd):
    import pyarrow as pa

    from deepseek_ocr_ray.config import PipelineConfig
    from deepseek_ocr_ray.schema import synthesize_interleaved
    from deepseek_ocr_ray.stages.assemble import assemble_bucket
    from deepseek_ocr_ray.stages.model_stub import OcrStage
    from deepseek_ocr_ray.stages.transforms import explode_docs, parse_units

    cfg = PipelineConfig()
    tbl = synthesize_interleaved(6, seed=9)
    units = parse_units(OcrStage(cfg)(explode_docs(tbl)), config=cfg)

    idx = list(range(units.num_rows))
    rnd.shuffle(idx)
    shuffled = units.take(idx)

    a = assemble_bucket(units, config=cfg).to_pylist()
    b = assemble_bucket(shuffled, config=cfg).to_pylist()
    assert sorted(a, key=lambda r: r["doc_id"]) == sorted(
        b, key=lambda r: r["doc_id"]
    )


# --- 3. MinHash properties -------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(_content, _content)
def test_minhash_symmetry_and_identity(a, b):
    h = MinHasher(64, 3, 1)
    sa, sb = h.signature(a), h.signature(b)
    assert est_jaccard(sa, sa) == 1.0
    assert est_jaccard(sa, sb) == est_jaccard(sb, sa)
    assert 0.0 <= est_jaccard(sa, sb) <= 1.0


# --- 4. ngram whitelist ----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(sorted(DEFAULT_WHITELIST) + [1, 2, 3]),
                min_size=0, max_size=40))
def test_ngram_never_bans_whitelist(seq):
    p = NoRepeatNGramProcessor(ngram_size=2, window_size=20)
    assert not (p.banned_tokens(seq) & DEFAULT_WHITELIST)


# --- 5. chunking reconstructs the document ---------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.text(min_size=0, max_size=800),
    st.integers(10, 100),
)
def test_chunking_covers_and_reconstructs(text, stride):
    """Chunks with window ≥ stride cover every character; stitching the
    first `stride` chars of each chunk (plus the final tail) reconstructs
    the document exactly."""
    window = stride + 37
    chunks = []
    n = len(text)
    for start in range(0, max(n, 1), stride):
        if start >= n:
            break
        chunks.append(text[start : start + window])
    if n == 0:
        assert chunks == []
        return
    rebuilt = "".join(c[:stride] for c in chunks[:-1]) + chunks[-1]
    assert rebuilt == text
    assert sum(1 for _ in chunks) == (n + stride - 1) // stride


# --- 6. pack ids are monotone, bounded, and budget-respecting --------------


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 500), min_size=1, max_size=80),
    st.integers(100, 5000),
)
def test_pack_rule_monotone_and_bounded(sizes, budget):
    """The serial pack rule (what pack_dataset distributes): pack ids are
    non-decreasing in id order, start at 0, and every pack's PRECEDING
    boundary is below (pack_id+1)*budget."""
    import numpy as np

    before = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    pid = before // budget
    assert pid[0] == 0
    assert (np.diff(pid) >= 0).all()
    assert ((before - pid * budget) < budget).all()


# --- 7. HLL merge is commutative, associative, idempotent ------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.text(min_size=1, max_size=8), max_size=60),
    st.lists(st.text(min_size=1, max_size=8), max_size=60),
    st.lists(st.text(min_size=1, max_size=8), max_size=60),
)
def test_hll_merge_semilattice(a, b, c):
    import numpy as np

    from deepseek_ocr_ray.stages.sketches import hll_merge, hll_partial

    p = 8
    ra, rb, rc = (hll_partial(x, p) for x in (a, b, c))
    assert np.array_equal(hll_merge(ra, rb), hll_merge(rb, ra))
    assert np.array_equal(
        hll_merge(hll_merge(ra, rb), rc), hll_merge(ra, hll_merge(rb, rc))
    )
    assert np.array_equal(hll_merge(ra, ra), ra)
    # sketch-of-union law: merge(sk(a), sk(b)) == sk(a + b)
    assert np.array_equal(hll_merge(ra, rb), hll_partial(a + b, p))


# --- 5. duplicated-window interval merge ------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 60)),
        min_size=0,
        max_size=80,
    ),
    st.integers(2, 6),
)
@settings(max_examples=200, deadline=None)
def test_merge_windows_equals_interval_union(hits, n):
    """_merge_windows on lex-sorted (doc, pos) hit windows equals the
    brute union of [pos, pos+n) intervals split into maximal runs."""
    import numpy as np

    from deepseek_ocr_ray.pipelines.curation import _merge_windows

    uniq = sorted(set(hits))
    hp = np.array([d for d, _ in uniq], np.int64)
    hpos = np.array([p for _, p in uniq], np.int64)
    sd, ss, se = _merge_windows(hp, hpos, n)
    got = list(zip(sd.tolist(), ss.tolist(), se.tolist()))
    # brute: per doc, mark covered positions, emit maximal runs
    want = []
    for d in sorted(set(hp.tolist())):
        cov = set()
        for dd, p in uniq:
            if dd == d:
                cov.update(range(p, p + n))
        run = None
        for x in range(min(cov, default=0), max(cov, default=-1) + 2):
            if x in cov and run is None:
                run = x
            elif x not in cov and run is not None:
                want.append((d, run, x))
                run = None
    assert got == want


# --- 6. first-k prefix partial is mergeable ---------------------------------


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 99)),
        min_size=0,
        max_size=60,
        unique_by=lambda r: r[2],
    ),
    st.integers(1, 4),
    st.integers(1, 5),
)
@settings(max_examples=100, deadline=None)
def test_first_k_prefix_mergeable(rows, k, split):
    """The REAL user_paths kernel (analytics.first_k_prefix) is a
    mergeable partial: first_k over the union of block-local first_k
    results equals first_k over everything, and both match a brute
    per-user sort."""
    import pyarrow as pa

    from deepseek_ocr_ray.pipelines.analytics import first_k_prefix

    def tab(rs):
        return pa.table(
            {
                "user_id": pa.array([r[0] for r in rs], pa.int64()),
                "ts": pa.array([r[1] * 1000 for r in rs], pa.timestamp("us")),
                "event_id": pa.array([r[2] for r in rs], pa.int64()),
                "event_type": pa.array([f"e{r[2] % 3}" for r in rs]),
            }
        )

    def rows_of(t):
        return sorted(
            zip(
                t["user_id"].to_pylist(),
                [x.timestamp() for x in t["ts"].to_pylist()],
                t["event_id"].to_pylist(),
            )
        )

    blocks = [rows[i::split] for i in range(split)]
    merged_parts = [first_k_prefix(tab(b), k)[0] for b in blocks if b]
    union = (
        pa.concat_tables(merged_parts) if merged_parts else tab([])
    )
    got = rows_of(first_k_prefix(union, k)[0])
    want = rows_of(first_k_prefix(tab(rows), k)[0])
    assert got == want
    # brute reference
    brute = {}
    for u, ts, eid in sorted(rows, key=lambda r: (r[0], r[1], r[2])):
        brute.setdefault(u, [])
        if len(brute[u]) < k:
            brute[u].append((u, float(ts) / 1000.0 * 1000.0, eid))
    flat = sorted(
        (u, ts, e) for v in brute.values() for (u, ts, e) in v
    )
    assert [(u, e) for u, _, e in got] == [(u, e) for u, _, e in flat]


# --- equi-depth histogram invariants ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(-30, 30)),
        min_size=1,
        max_size=300,
    ),
    st.integers(1, 12),
)
def test_equidepth_invariants(ray_session, rows, n_tiles):
    """Per group: tile counts sum to the group size, sizes are
    non-increasing and differ by at most one, min of the first tile is
    the group min, max of the last is the group max, and consecutive
    tiles never overlap in value range (max_i <= min_{i+1})."""
    import pyarrow as pa

    from deepseek_ocr_ray.stages.agg import group_equidepth

    import ray.data

    tab = pa.table(
        {
            "g": pa.array([r[0] for r in rows], pa.int64()),
            "v": pa.array([r[1] for r in rows], pa.int64()),
        }
    )
    out = (
        group_equidepth(ray.data.from_arrow(tab), ["g"], "v", n_tiles)
        .to_pandas()
        .sort_values(["g", "tile"])
    )
    import collections

    sizes = collections.Counter([r[0] for r in rows])
    vals = collections.defaultdict(list)
    for g, v in rows:
        vals[g].append(v)
    for g, grp in out.groupby("g"):
        assert grp.n_rows.sum() == sizes[g]
        s = grp.n_rows.tolist()
        assert all(a >= b for a, b in zip(s, s[1:]))
        assert max(s) - min(s) <= 1
        sv = sorted(vals[g])
        assert grp.min_value.iloc[0] == sv[0]
        assert grp.max_value.iloc[-1] == sv[-1]
        assert all(
            grp.max_value.iloc[i] <= grp.min_value.iloc[i + 1]
            for i in range(len(grp) - 1)
        )


# --- k-core vs independent brute fixpoint ----------------------------------


def _brute_kcore(pairs, k):
    """Set-based peel, written independently of the numpy kernel."""
    from collections import defaultdict

    adj = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(adj)
    changed = True
    while changed:
        changed = False
        for n in list(alive):
            if len(adj[n] & alive) < k:
                alive.discard(n)
                changed = True
    return {n: len(adj[n] & alive) for n in sorted(alive)}


@settings(max_examples=40, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(0, 25), st.integers(0, 25)).filter(
            lambda p: p[0] != p[1]
        ),
        min_size=1,
        max_size=120,
    ),
    st.integers(1, 6),
)
def test_kcore_matches_brute_fixpoint(pairs, k):
    import numpy as np

    from deepseek_ocr_ray.stages.graph import _local_kcore

    norm = sorted({(min(a, b), max(a, b)) for a, b in pairs})
    u = np.array([p[0] for p in norm], np.int64)
    v = np.array([p[1] for p in norm], np.int64)
    nodes, deg = _local_kcore(u, v, k)
    want = _brute_kcore(norm, k)
    assert dict(zip(nodes.tolist(), deg.tolist())) == want


# ---------------------------------------------------------------------------
# ninth-extension kernels


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(alphabet="abcXY ", max_size=12),
            st.text(alphabet="abcXY ", max_size=12),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_jaro_winkler_symmetry_and_range(pairs):
    """JW is symmetric (greedy matching commutes under the window
    definition), lands in [0, 1], and is 1 iff equal-nonempty."""
    import pyarrow as pa

    from deepseek_ocr_ray.stages.fuzzy import jaro_winkler_pairs

    a = pa.array([p[0] for p in pairs])
    b = pa.array([p[1] for p in pairs])
    ab = jaro_winkler_pairs(a, b)
    ba = jaro_winkler_pairs(b, a)
    for k, (x, y) in enumerate(pairs):
        assert 0.0 <= ab[k] <= 1.0
        assert ab[k] == ba[k], (x, y)
        if x == y and x:
            assert ab[k] == 1.0
        if (ab[k] == 1.0) and x and y:
            assert x == y


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, width=64
        ),
        min_size=1,
        max_size=60,
    ),
    st.sampled_from([0.125, 0.25, 0.5, 1.0]),
)
def test_ewma_convexity_bounds(vals, alpha):
    """EWMA is a convex combination: every smoothed value stays within
    [min(prefix), max(prefix)] of its own group prefix."""
    import numpy as np

    a = np.float64(alpha)
    om = np.float64(1.0) - a
    s = np.float64(vals[0])
    lo = hi = vals[0]
    for v in vals[1:]:
        s = om * s + a * np.float64(v)
        lo, hi = min(lo, v), max(hi, v)
        assert lo - 1e-9 <= s <= hi + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.booleans()),
        min_size=1,
        max_size=80,
    )
)
def test_kaplan_meier_monotone_nonincreasing(pairs):
    """S(t) is non-increasing and in [0, 1]; with no events it stays 1."""
    import numpy as np

    from collections import Counter

    durs = sorted(set(d for d, _ in pairs))
    s = np.float64(1.0)
    prev = 1.0
    for t in durs:
        n = sum(1 for d, _ in pairs if d >= t)
        dd = sum(1 for d, o in pairs if d == t and o)
        s = s * (np.float64(1.0) - np.float64(dd) / np.float64(n))
        assert 0.0 <= float(s) <= prev + 1e-15
        prev = float(s)
    if not any(o for _, o in pairs):
        assert float(s) == 1.0
