"""Exact duplicated-substring span dedup (Lee et al. 2022 formulation):
engineered corpora with known repeated passages, a brute-force Python
oracle, interval-merge edge cases, block-layout invariance, and a DuckDB
differential over random skewed corpora."""

from __future__ import annotations

import os
from collections import Counter

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from deepseek_ocr_ray.pipelines import curation


def _write_corpus(tmp_path, texts, files: int = 1) -> str:
    """Write a documents table across ``files`` parquet fragments so block
    layout actually varies (one fragment → one or more read blocks)."""
    tab = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["src0"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    os.makedirs(str(tmp_path), exist_ok=True)
    if files == 1:
        pq.write_table(tab, os.path.join(str(tmp_path), "documents.parquet"))
    else:
        d = os.path.join(str(tmp_path), "documents.parquet")
        os.makedirs(d, exist_ok=True)
        bounds = np.linspace(0, len(texts), files + 1).astype(int)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            pq.write_table(tab.slice(a, b - a), os.path.join(d, f"p{i}.parquet"))
    return str(tmp_path)


def _brute_spans(texts, n: int, min_count: int):
    """Reference implementation: count every n-gram occurrence corpus-wide,
    mark windows of duplicated grams, merge per doc into maximal covered
    token runs."""
    toks = [[w for w in t.lower().split() if w] for t in texts]
    counts = Counter()
    for tk in toks:
        for i in range(len(tk) - n + 1):
            counts[" ".join(tk[i : i + n])] += 1
    spans = []
    for doc_id, tk in enumerate(toks):
        covered = np.zeros(len(tk), bool)
        for i in range(len(tk) - n + 1):
            if counts[" ".join(tk[i : i + n])] >= min_count:
                covered[i : i + n] = True
        i = 0
        while i < len(tk):
            if covered[i]:
                j = i
                while j < len(tk) and covered[j]:
                    j += 1
                spans.append(
                    (doc_id, i, j, j - i, " ".join(tk[i:j]))
                )
                i = j
            else:
                i += 1
    return spans


def _brute_scrub(texts, n: int, min_count: int):
    spans = _brute_spans(texts, n, min_count)
    by_doc: dict[int, list] = {}
    for d, s, e, *_ in spans:
        by_doc.setdefault(d, []).append((s, e))
    out = []
    for doc_id, t in enumerate(texts):
        tk = [w for w in t.lower().split() if w]
        drop = np.zeros(len(tk), bool)
        for s, e in by_doc.get(doc_id, []):
            drop[s:e] = True
        kept = [w for w, d in zip(tk, drop) if not d]
        out.append((doc_id, " ".join(kept), len(tk), int(drop.sum())))
    return out


def _run(tmp, ngram=3, min_count=2):
    spans = [
        tuple(r)
        for r in curation.substring_dup_spans(tmp, ngram=ngram, min_count=min_count)
        .to_pandas()[
            ["doc_id", "span_start", "span_end", "span_tokens", "span_text"]
        ]
        .itertuples(index=False)
    ]
    scrub = [
        tuple(r)
        for r in curation.substring_dup_scrub(tmp, ngram=ngram, min_count=min_count)
        .to_pandas()[["doc_id", "clean_text", "n_tokens", "n_removed"]]
        .itertuples(index=False)
    ]
    return spans, scrub


def test_injected_passage(ray_session, tmp_path):
    """A passage pasted into three documents is found in each, with exact
    token bounds; unique text survives the scrub untouched."""
    passage = "alpha beta gamma delta epsilon zeta"
    texts = [
        f"unique one two three {passage} tail4 tail5",
        f"{passage} something else entirely here",
        f"lead in words then {passage}",
        "totally unrelated content with no repeats at all",
    ]
    tmp = _write_corpus(tmp_path, texts)
    spans, scrub = _run(tmp, ngram=4)
    assert spans == _brute_spans(texts, 4, 2)
    # every doc containing the passage reports exactly one 6-token span
    assert [s for s in spans if s[3] == 6] == spans and len(spans) == 3
    assert spans[0][1:3] == (4, 10)  # doc 0: tokens 4..10
    assert spans[1][1:3] == (0, 6)  # doc 1: at the start
    assert spans[2][1:3] == (4, 10)  # doc 2: at the end
    assert all(s[4] == passage for s in spans)
    assert scrub == _brute_scrub(texts, 4, 2)
    assert scrub[3][1] == texts[3]  # untouched doc passes through verbatim
    assert scrub[1][1] == "something else entirely here"


def test_within_doc_repetition_counts(ray_session, tmp_path):
    """min_count totals occurrences corpus-wide INCLUDING within one doc:
    a phrase repeated twice inside a single document is duplicated."""
    texts = ["a b c x y a b c", "completely different words here"]
    tmp = _write_corpus(tmp_path, texts)
    spans, scrub = _run(tmp, ngram=3)
    assert spans == [(0, 0, 3, 3, "a b c"), (0, 5, 8, 3, "a b c")]
    assert scrub[0][1] == "x y"
    assert scrub[0][2:] == (8, 6)


def test_adjacent_and_overlapping_windows_merge(ray_session, tmp_path):
    """Overlapping hit windows merge into one maximal span; windows whose
    covered ranges merely touch (next start == prev start + n) also merge
    — spans are maximal contiguous covered runs."""
    # doc0/doc1 share "p q r s" (overlapping 3-gram windows "p q r","q r s")
    # and, disjointly, "u v w" + "x y z" adjacent in doc0 ("u v w x y z"
    # never repeats as a 6-gram, but both 3-gram halves do).
    texts = [
        "p q r s gap1 u v w x y z",
        "p q r s other filler",
        "u v w more filler words",
        "x y z yet more filler",
    ]
    tmp = _write_corpus(tmp_path, texts)
    spans, _ = _run(tmp, ngram=3)
    assert spans == _brute_spans(texts, 3, 2)
    d0 = [s for s in spans if s[0] == 0]
    assert d0 == [
        (0, 0, 4, 4, "p q r s"),
        (0, 5, 11, 6, "u v w x y z"),
    ]


def test_fully_covered_and_empty_docs(ray_session, tmp_path):
    """A doc that is one big duplicated span scrubs to ''; token-less and
    sub-n docs pass through with zero spans."""
    texts = ["dup run of words", "dup run of words", "", "  ", "tiny"]
    tmp = _write_corpus(tmp_path, texts)
    spans, scrub = _run(tmp, ngram=4)
    assert spans == [(0, 0, 4, 4, "dup run of words"),
                     (1, 0, 4, 4, "dup run of words")]
    assert scrub == [(0, "", 4, 4), (1, "", 4, 4),
                     (2, "", 0, 0), (3, "", 0, 0), (4, "tiny", 1, 0)]


def test_min_count_threshold(ray_session, tmp_path):
    """min_count=3 ignores grams occurring only twice."""
    texts = ["t u v w", "t u v w", "t u v w x", "m n o p", "m n o p"]
    tmp = _write_corpus(tmp_path, texts)
    spans, _ = _run(tmp, ngram=4, min_count=3)
    assert spans == _brute_spans(texts, 4, 3)
    assert {s[0] for s in spans} == {0, 1, 2}  # the pair at min_count=2 drops


def test_block_layout_invariance(ray_session, tmp_path):
    """Global dup counts must not depend on how documents land in blocks:
    1-file and 7-file layouts of the same corpus agree exactly."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(12)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(4, 30)))
        for _ in range(120)
    ]
    a = _run(_write_corpus(tmp_path / "a", texts, files=1), ngram=3)
    b = _run(_write_corpus(tmp_path / "b", texts, files=7), ngram=3)
    assert a == b
    assert a[0] == _brute_spans(texts, 3, 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_differential_vs_duckdb(ray_session, tmp_path, seed):
    """Random zipf-skewed corpora (heavy gram collisions) against the
    shipped SQL oracles, multi-fragment layout."""
    rng = np.random.default_rng(seed)
    vocab = np.array([f"t{i}" for i in range(25)])
    p = 1.0 / np.arange(1, len(vocab) + 1)
    p /= p.sum()
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(0, 40), p=p))
        for _ in range(int(rng.integers(50, 200)))
    ]
    tmp = _write_corpus(tmp_path, texts, files=int(rng.integers(1, 6)))
    con = duckdb.connect()
    path = os.path.join(tmp, "documents.parquet")
    if os.path.isdir(path):
        path = os.path.join(path, "*.parquet")
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')"
    )
    got = (
        curation.substring_dup_spans(tmp)
        .to_pandas()
        .reset_index(drop=True)
    )
    want = con.sql(curation.SUBSTRING_DUP_SPANS_SQL).df()
    assert got[sorted(got.columns)].equals(want[sorted(want.columns)])
    got2 = curation.substring_dup_scrub(tmp).to_pandas().reset_index(drop=True)
    want2 = con.sql(curation.SUBSTRING_DUP_SCRUB_SQL).df()
    assert got2[sorted(got2.columns)].equals(want2[sorted(want2.columns)])


def test_join_probe_equals_broadcast(ray_session, tmp_path, monkeypatch):
    """The at-scale join plan (occurrence semi-join + doc-keyed merge +
    span-list join-back) makes decisions byte-identical to the broadcast
    plan, for both the finder and the scrub, on a skewed random corpus."""
    rng = np.random.default_rng(11)
    vocab = np.array([f"t{i}" for i in range(20)])
    p = 1.0 / np.arange(1, len(vocab) + 1)
    p /= p.sum()
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(0, 35), p=p))
        for _ in range(150)
    ]
    tmp = _write_corpus(tmp_path, texts, files=4)
    for fn in (curation.substring_dup_spans, curation.substring_dup_scrub):
        monkeypatch.setattr(curation, "_resolve_probe", lambda dup: "broadcast")
        a = fn(tmp, ngram=3).to_pandas()
        monkeypatch.setattr(curation, "_resolve_probe", lambda dup: "join")
        b = fn(tmp, ngram=3).to_pandas()
        assert a.reset_index(drop=True).equals(b.reset_index(drop=True))
    assert len(a) == len(texts)


def test_probe_auto_resolution(ray_session, tmp_path):
    """The probe choice is broadcast while the dup-gram set fits the cap
    and join beyond it (exercised by a monkeypatched estimate)."""
    from deepseek_ocr_ray.pipelines.curation import _resolve_probe

    tmp = _write_corpus(tmp_path, ["a b c d", "a b c d"])
    dup = curation._dup_gram_dataset(
        __import__("deepseek_ocr_ray.pipelines.analytics", fromlist=["read_table"])
        .read_table(tmp, "documents", columns=["doc_id", "text"]),
        2,
        2,
    )
    assert _resolve_probe(dup) == "broadcast"  # tiny set

    import deepseek_ocr_ray.cluster as cluster_mod

    real = cluster_mod.dataset_size_estimate
    try:
        cluster_mod.dataset_size_estimate = lambda _ds: 10**12
        assert _resolve_probe(dup) == "join"
    finally:
        cluster_mod.dataset_size_estimate = real


def test_decontaminate_spans(ray_session, tmp_path):
    """Span-level decontamination: spans in train docs covered by 4-grams
    the benchmark split (doc_id % 41 == 0) contains; brute-checked, and
    consistent with decontaminate's per-doc flags."""
    bench = "held out benchmark question about the capital of france"
    texts = ["filler"] * 83
    texts[0] = bench                          # doc 0 → benchmark split
    texts[41] = "padding words " + bench      # doc 41 → benchmark split too
    texts[5] = f"train doc leaks the capital of france question here"
    texts[7] = f"clean training document with original content only"
    texts[50] = bench + " copied verbatim into training"
    tmp = _write_corpus(tmp_path, texts)
    got = [
        tuple(r)
        for r in curation.decontaminate_spans(tmp, ngram=4)
        .to_pandas()
        .itertuples(index=False)
    ]
    # brute: bench grams from docs 0 and 41; probe the rest
    toks = [[w for w in t.lower().split() if w] for t in texts]
    bg = set()
    for d in (0, 41):
        tk = toks[d]
        for i in range(len(tk) - 3):
            bg.add(" ".join(tk[i : i + 4]))
    want = []
    for doc_id, tk in enumerate(toks):
        if doc_id % 41 == 0:
            continue
        covered = np.zeros(len(tk), bool)
        for i in range(len(tk) - 3):
            if " ".join(tk[i : i + 4]) in bg:
                covered[i : i + 4] = True
        i = 0
        while i < len(tk):
            if covered[i]:
                j = i
                while j < len(tk) and covered[j]:
                    j += 1
                want.append((doc_id, i, j, j - i, " ".join(tk[i:j])))
                i = j
            else:
                i += 1
    assert got == want
    touched = {g[0] for g in got}
    assert 50 in touched and 5 in touched and 7 not in touched
    # doc 50's leading 9 tokens are exactly the benchmark passage
    d50 = [g for g in got if g[0] == 50]
    assert d50[0][1:3] == (0, 9) and d50[0][4] == bench
    # per-doc flags agree: flagged docs == docs owning at least one span
    flags = curation.decontaminate(tmp, ngram=4).to_pandas()
    flagged = set(flags[flags.flag_contaminated == 1].doc_id)
    assert flagged == touched


def test_decontaminate_spans_empty_bench_split(ray_session, tmp_path):
    """A shard with NO benchmark-split doc (no doc_id % 41 == 0) probes
    against an empty gram set: zero spans, no crash."""
    import pyarrow.parquet as pq

    tab = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["a b c d e", "a b c d e", "f g h i j"]),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(["s"] * 3),
            "n_chars": pa.array([9, 9, 9], pa.int64()),
        }
    )
    pq.write_table(tab, os.path.join(str(tmp_path), "documents.parquet"))
    out = curation.decontaminate_spans(str(tmp_path), ngram=3).to_pandas()
    assert len(out) == 0


def test_decontaminate_scrub_consistency(ray_session, tmp_path):
    """Scrubbed docs = spans removed: rebuilding each doc from its spans
    and clean_text recovers the original tokenization, and benchmark-split
    docs are excluded from the output."""
    bench = "held out benchmark question about the capital of france"
    texts = ["filler words here"] * 83
    texts[0] = bench
    texts[5] = f"train doc leaks the capital of france question here"
    texts[50] = bench + " copied verbatim into training"
    tmp = _write_corpus(tmp_path, texts)
    spans = curation.decontaminate_spans(tmp, ngram=4).to_pandas()
    scrub = curation.decontaminate_scrub(tmp, ngram=4).to_pandas()
    assert set(scrub.doc_id) == {i for i in range(83) if i % 41 != 0}
    by_doc = spans.groupby("doc_id").span_tokens.sum().to_dict()
    for _, r in scrub.iterrows():
        toks = [w for w in texts[r.doc_id].lower().split() if w]
        assert r.n_tokens == len(toks)
        assert r.n_removed == by_doc.get(r.doc_id, 0)
        assert len(r.clean_text.split()) == r.n_tokens - r.n_removed
    assert scrub.set_index("doc_id").loc[50, "n_removed"] == 9


def test_doc_dup_fraction_consistency(ray_session, tmp_path):
    """Per-doc dup stats agree with the span finder: covered-token ppm
    derives from the reported spans, window counts from the brute gram
    walk."""
    passage = "alpha beta gamma delta epsilon zeta eta theta"
    texts = [
        f"unique lead-in {passage} trailing words here",
        f"{passage} other tail",
        "no duplicates in this one at all whatsoever",
    ]
    tmp = _write_corpus(tmp_path, texts)
    frac = curation.doc_dup_fraction(tmp).to_pandas().set_index("doc_id")
    spans = curation.substring_dup_spans(tmp).to_pandas()
    cov = spans.groupby("doc_id").span_tokens.sum().to_dict()
    for doc_id, t in enumerate(texts):
        toks = [w for w in t.lower().split() if w]
        r = frac.loc[doc_id]
        assert r.n_tokens == len(toks)
        assert r.n_windows == max(len(toks) - 4, 0)
        assert r.dup_token_ppm == cov.get(doc_id, 0) * 1_000_000 // len(toks)
    assert frac.loc[2].n_dup_windows == 0 and frac.loc[2].dup_token_ppm == 0
    assert frac.loc[1].n_dup_windows == 4  # the 8-token passage's 5-gram windows


def test_source_dup_stats_engineered(ray_session, tmp_path):
    """Dup counting is within-source: the same text in two sources is not
    a duplicate; two copies within one source are."""
    texts = ["t one", "t one", "t one", "t two", "t two", "unique"]
    srcs = ["a", "a", "b", "b", "b", "b"]
    tab = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * 6),
            "source": pa.array(srcs),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    import pyarrow.parquet as pq

    pq.write_table(tab, os.path.join(str(tmp_path), "documents.parquet"))
    got = {
        r.source: (r.n_docs, r.n_unique_texts, r.n_dup_docs)
        for r in curation.source_dup_stats(str(tmp_path)).to_pandas().itertuples()
    }
    assert got == {"a": (2, 1, 1), "b": (4, 3, 1)}


def test_doc_dup_fraction_join_probe(ray_session, tmp_path, monkeypatch):
    """The join escalation produces byte-identical per-doc scores to the
    broadcast plan on a skewed random corpus."""
    rng = np.random.default_rng(13)
    vocab = np.array([f"t{i}" for i in range(18)])
    p = 1.0 / np.arange(1, len(vocab) + 1)
    p /= p.sum()
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(0, 30), p=p))
        for _ in range(120)
    ]
    tmp = _write_corpus(tmp_path, texts, files=3)
    a = curation.doc_dup_fraction(tmp, ngram=3).to_pandas()  # broadcast
    monkeypatch.setattr(curation, "_resolve_probe", lambda dup: "join")
    b = curation.doc_dup_fraction(tmp, ngram=3).to_pandas()
    assert a.reset_index(drop=True).equals(
        b[a.columns].reset_index(drop=True)
    )
