"""Dedup operator tests: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine — plus determinism across parallelism levels (the property
the north rule's resumability/scale-out story depends on)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from deepseek_ocr_ray.stages import dedup

BASE = (
    "the quick brown fox jumps over the lazy dog while the rain falls on the "
    "quiet town and the river bends through the green valley under the bridge"
)


def _corpus() -> pa.Table:
    """10 docs: 0 unique, 1=copy of 0, 2=near-copy of 0 (one word), 3-9
    mutually dissimilar (disjoint per-doc vocabularies)."""
    texts = [BASE, BASE, BASE.replace("green", "golden")]
    rng = np.random.RandomState(7)
    for i in range(7):
        vocab = [f"w{i}x{j}" for j in range(20)]  # disjoint across docs
        texts.append(" ".join(rng.choice(vocab, size=30).tolist()))
    return pa.table(
        {"doc_id": pa.array(range(10), pa.int64()), "text": pa.array(texts)}
    )


def _ds(tbl: pa.Table, blocks: int = 2):
    import ray.data

    return ray.data.from_arrow(tbl).repartition(blocks)


def test_exact_dedup(ray_session):
    out = dedup.exact_dedup(_ds(_corpus())).to_pandas()
    assert len(out) == 9  # 10 docs, one exact pair
    dup = out[out.dup_count == 2]
    assert len(dup) == 1 and dup.doc_id.iloc[0] == 0  # min id kept
    assert set(out.doc_id) == set(range(10)) - {1}


def test_minhash_signature_estimates_jaccard():
    h = dedup.MinHasher(num_perm=256, shingle_k=5, seed=1)
    s1 = h.signature(BASE)
    s2 = h.signature(BASE)
    assert np.array_equal(s1, s2)
    near = h.signature(BASE.replace("green", "golden"))
    far = h.signature("completely different content about other matters")
    assert dedup.est_jaccard(s1, near) > 0.7
    assert dedup.est_jaccard(s1, far) < 0.2


def test_minhash_dedup_drops_near_dups(ray_session):
    kept = dedup.minhash_dedup(
        _ds(_corpus()), threshold=0.7
    ).to_pandas()["doc_id"].tolist()
    assert 0 in kept
    assert 1 not in kept  # exact copy dropped
    assert 2 not in kept  # near copy dropped
    assert set(range(3, 10)) <= set(kept)


def test_simhash_dedup(ray_session):
    kept = dedup.simhash_dedup(
        _ds(_corpus()), max_hamming=3
    ).to_pandas()["doc_id"].tolist()
    assert 0 in kept and 1 not in kept
    assert set(range(3, 10)) <= set(kept)


def test_ngram_jaccard_exact():
    j = dedup.exact_word_ngram_jaccard
    assert j("a b c d", "a b c d", 3) == 1.0
    assert j("a b c", "x y z", 3) == 0.0
    assert 0 < j("a b c d e", "a b c d x", 3) < 1
    assert j("", "", 3) == 1.0


def test_ngram_dedup(ray_session):
    kept = dedup.ngram_jaccard_dedup(
        _ds(_corpus()), ngram=3, threshold=0.6
    ).to_pandas()["doc_id"].tolist()
    assert 0 in kept and 1 not in kept
    assert set(range(3, 10)) <= set(kept)


def _emb_table() -> pa.Table:
    rng = np.random.RandomState(3)
    vecs = rng.randn(20, 16).astype(np.float32)
    vecs[5] = vecs[0] + 0.01 * rng.randn(16)  # near-dup of 0
    vecs[9] = vecs[2]  # exact dup of 2
    return pa.table(
        {
            "vec_id": pa.array(range(20), pa.int64()),
            "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32())),
        }
    )


def test_embedding_dedup(ray_session):
    kept = dedup.embedding_dedup(
        _ds(_emb_table()), dim=16, threshold=0.95
    ).to_pandas()["vec_id"].tolist()
    assert 0 in kept and 2 in kept
    assert 5 not in kept and 9 not in kept


def test_semantic_dedup(ray_session):
    """SemDeDup keeps the min-id of each near-dup pair when the pair lands
    in the same k-means cell — exact dups ALWAYS co-assign, so 9 (== 2)
    must drop; 5 (0 + tiny noise) co-assigns for any reasonable centroids."""
    kept = dedup.semantic_dedup(
        _ds(_emb_table()), n_cells=4, threshold=0.95
    ).to_pandas()["vec_id"].tolist()
    assert 0 in kept and 2 in kept
    assert 5 not in kept and 9 not in kept


def test_semantic_dedup_sound_vs_brute(ray_session):
    """Soundness: every dropped id must have a brute-force cosine witness
    ≥ threshold against some surviving lower-id vector (SemDeDup never
    drops a vector without an in-cell near-dup, and in-cell cosine is
    exact — so a drop without ANY corpus-wide witness would be a bug)."""
    tbl = _emb_table()
    kept = set(
        dedup.semantic_dedup(_ds(tbl), n_cells=4, threshold=0.95)
        .to_pandas()["vec_id"]
    )
    pairs = dedup.embedding_dup_pairs_brute(
        _ds(tbl), threshold=0.95
    ).to_pandas()
    witnessed = set(pairs.id_b) | set(pairs.id_a)
    dropped = set(range(20)) - kept
    assert dropped <= witnessed


@pytest.mark.parametrize("blocks", [1, 5])
def test_semantic_dedup_parallelism_invariant(ray_session, blocks):
    """Kept set is a pure function of (corpus, seed): centroids come from
    an id-sorted deterministic sample and the in-cell walk sorts by id, so
    block layout must not move the result."""
    a = sorted(
        dedup.semantic_dedup(_ds(_emb_table(), blocks), n_cells=4)
        .to_pandas()["vec_id"]
    )
    b = sorted(
        dedup.semantic_dedup(_ds(_emb_table(), 2), n_cells=4)
        .to_pandas()["vec_id"]
    )
    assert a == b


def test_embedding_pairs_brute(ray_session):
    pairs = dedup.embedding_dup_pairs_brute(
        _ds(_emb_table()), threshold=0.95
    ).to_pandas()
    got = set(zip(pairs.id_a, pairs.id_b))
    assert (0, 5) in got and (2, 9) in got


@pytest.mark.parametrize("blocks", [1, 4])
def test_dedup_deterministic_across_parallelism(ray_session, blocks):
    """Kept set must not depend on block layout (scale-out invariance)."""
    kept = dedup.minhash_dedup(
        _ds(_corpus(), blocks), threshold=0.7
    ).to_pandas()["doc_id"].tolist()
    assert sorted(kept) == sorted(
        dedup.minhash_dedup(_ds(_corpus(), 2), threshold=0.7)
        .to_pandas()["doc_id"].tolist()
    )


def _force_pair_plan(monkeypatch, plan):
    """Force the ngram verify plan through its module budget: ``local``
    verifies every pair set on the driver, ``distributed`` none."""
    monkeypatch.setattr(
        dedup, "NGRAM_LOCAL_MAX_PAIRS", 1 << 62 if plan == "local" else -1
    )


def _brute_force_ngram_kept(tbl: pa.Table, n: int, threshold: float) -> list:
    """All-pairs exact word n-gram Jaccard: an id is dropped iff some
    smaller id's text reaches ``threshold`` against it."""
    ids = tbl["doc_id"].to_pylist()
    grams = []
    for t in tbl["text"].to_pylist():
        w = t.split()
        grams.append({tuple(w[i : i + n]) for i in range(len(w) - n + 1)})
    kept = []
    for j, gj in enumerate(grams):
        if not any(
            len(gi & gj) / len(gi | gj) >= threshold for gi in grams[:j]
        ):
            kept.append(ids[j])
    return kept


def test_ngram_dedup_every_pair_plan_keeps_brute_force_set(
    ray_session, monkeypatch
):
    """Both pair plans (driver-local verify and the distributed text
    joins, the latter under both join-planner plans) keep exactly the ids
    an all-pairs exact 3-gram Jaccard walk keeps."""
    from deepseek_ocr_ray import cluster

    want = _brute_force_ngram_kept(_corpus(), 3, 0.6)
    assert want == [0, 3, 4, 5, 6, 7, 8, 9]
    default_cap = cluster.BROADCAST_MAX_BYTES
    for plan, cap in (
        ("local", default_cap),
        ("distributed", default_cap),
        ("distributed", 0),
    ):
        _force_pair_plan(monkeypatch, plan)
        monkeypatch.setattr(cluster, "BROADCAST_MAX_BYTES", cap)
        got = sorted(
            dedup.ngram_jaccard_dedup(
                _ds(_corpus()), ngram=3, threshold=0.6
            ).to_pandas()["doc_id"]
        )
        assert got == want, (plan, cap)


def test_ngram_dedup_join_path_parallelism_invariant(ray_session, monkeypatch):
    """Neither pair plan's kept set may depend on block layout."""
    for plan in ("local", "distributed"):
        _force_pair_plan(monkeypatch, plan)
        outs = [
            sorted(
                dedup.ngram_jaccard_dedup(
                    _ds(_corpus(), blocks=b), ngram=3, threshold=0.6
                ).to_pandas()["doc_id"]
            )
            for b in (1, 3, 7)
        ]
        assert outs[0] == outs[1] == outs[2], plan


def test_ngram_dedup_join_path_no_candidates(ray_session, monkeypatch):
    """A corpus with no LSH collisions exercises the empty-pairs path of
    both plans."""
    tbl = _corpus().slice(3, 7)  # mutually dissimilar docs only
    for plan in ("local", "distributed"):
        _force_pair_plan(monkeypatch, plan)
        kept = sorted(
            dedup.ngram_jaccard_dedup(
                _ds(tbl), ngram=3, threshold=0.6
            ).to_pandas()["doc_id"]
        )
        assert kept == list(range(3, 10)), plan


def test_ngram_dedup_local_budget_fallback(ray_session, monkeypatch):
    """A text-byte budget of 1 forces _ngram_local_verify to abort its
    driver collect; the local plan must fall back to the distributed
    joins and still produce the exact kept set."""
    _force_pair_plan(monkeypatch, "distributed")
    want = sorted(
        dedup.ngram_jaccard_dedup(
            _ds(_corpus()), ngram=3, threshold=0.6
        ).to_pandas()["doc_id"]
    )
    _force_pair_plan(monkeypatch, "local")
    monkeypatch.setattr(dedup, "NGRAM_LOCAL_MAX_TEXT_BYTES", 1)
    got = sorted(
        dedup.ngram_jaccard_dedup(
            _ds(_corpus()), ngram=3, threshold=0.6
        ).to_pandas()["doc_id"]
    )
    assert got == want


def test_incremental_exact_dedup_both_plans(ray_session, monkeypatch):
    """New docs already present in the existing corpus are filtered; the
    broadcast and keyed-exchange plans of the planner's left_anti join
    keep the naive answer."""
    import ray.data

    from deepseek_ocr_ray import cluster

    existing = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["alpha", "beta", "gamma"]),
        }
    )
    new = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
            "text": pa.array(["beta", "delta", "alpha", "epsilon"]),
        }
    )
    e = ray.data.from_arrow(existing).repartition(2)
    n = ray.data.from_arrow(new).repartition(2)
    for cap in (cluster.BROADCAST_MAX_BYTES, 0):
        monkeypatch.setattr(cluster, "BROADCAST_MAX_BYTES", cap)
        kept = sorted(
            r["doc_id"]
            for r in dedup.incremental_exact_dedup(n, e).take_all()
        )
        assert kept == [11, 13], cap  # beta/alpha already exist


def test_band_key_scalar_matches_matrix():
    """The scalar band_key reference and the vectorized band_keys_matrix
    must agree — buckets are defined by this value."""
    import numpy as np

    from deepseek_ocr_ray.stages.dedup import band_key, band_keys_matrix

    rng = np.random.RandomState(0)
    sigs = rng.randint(0, 1 << 32, size=(7, 16)).astype(np.uint32)
    keys = band_keys_matrix(sigs, bands=4)
    r = 4
    for i in range(7):
        for b in range(4):
            assert keys[i, b] == band_key(sigs[i, b * r : (b + 1) * r].tobytes())


def test_band_stages_emit_doc_major_rows(ray_session):
    """Vectorized assembly: one row per (doc, band), ids/payloads fanned out
    via Arrow take — check the row multiset for a small batch."""
    import numpy as np
    import pyarrow as pa

    from deepseek_ocr_ray.stages.dedup import MinHashBandStage, SimHashBandStage

    batch = pa.table(
        {
            "doc_id": pa.array([10, 11, 12], pa.int64()),
            "text": pa.array(["alpha beta gamma", "alpha beta gamma", "zzz"]),
        }
    )
    for stage in (
        MinHashBandStage(num_perm=16, bands=4),
        SimHashBandStage(bands=4),
    ):
        out = stage(batch)
        assert out.num_rows == 12
        assert sorted(out["doc_id"].to_pylist()) == [10] * 4 + [11] * 4 + [12] * 4
        assert sorted(set(out["band"].to_pylist())) == [0, 1, 2, 3]
        # identical docs collide in every band; the distinct doc in none
        k = out.to_pandas()
        a = k[k.doc_id == 10].sort_values("band")["band_key"].tolist()
        b = k[k.doc_id == 11].sort_values("band")["band_key"].tolist()
        c = k[k.doc_id == 12].sort_values("band")["band_key"].tolist()
        assert a == b
        assert not any(x == y for x, y in zip(a, c))


# ---------------------------------------------------------------------------
# incremental MinHash (continuous-crawl near-dup filter)
# ---------------------------------------------------------------------------


def test_incremental_minhash_semantics(ray_session):
    """Hand-built corpus: a new doc near-duplicating an existing doc is
    dropped; an exact re-crawl is dropped; novel docs and near-dups that
    exist only WITHIN the new batch are kept."""
    import ray.data

    from deepseek_ocr_ray.stages.dedup import incremental_minhash_dedup

    base = (
        "the quick brown fox jumps over the lazy dog while the cat watches "
        "from the warm windowsill in the afternoon sun every single day"
    )
    existing = ray.data.from_items(
        [
            {"doc_id": 0, "text": base},
            {"doc_id": 1, "text": "completely different existing content "
                                  "about distributed query engines and "
                                  "columnar storage formats for analytics"},
        ]
    )
    new = ray.data.from_items(
        [
            {"doc_id": 10, "text": base},                      # exact recrawl
            {"doc_id": 11, "text": base.replace("dog", "dog ")},  # near-dup
            {"doc_id": 12, "text": "entirely novel text with nothing in "
                                   "common discussing sailing routes across "
                                   "the northern atlantic in winter storms"},
            # 13/14 duplicate EACH OTHER but nothing existing → both kept
            {"doc_id": 13, "text": "intra batch duplicate pair first copy "
                                   "with many shared words and shingles in "
                                   "a long enough sentence to sign properly"},
            {"doc_id": 14, "text": "intra batch duplicate pair first copy "
                                   "with many shared words and shingles in "
                                   "a long enough sentence to sign properly"},
        ]
    )
    kept = sorted(
        r["doc_id"]
        for r in incremental_minhash_dedup(
            new, existing, threshold=0.8
        ).take_all()
    )
    assert kept == [12, 13, 14]


def test_incremental_minhash_no_dups_keeps_all(ray_session):
    """Empty contaminated side (no near-dups anywhere) must not break the
    anti join (empty computed dataset → right_types path)."""
    import ray.data

    from deepseek_ocr_ray.stages.dedup import incremental_minhash_dedup

    existing = ray.data.from_items(
        [{"doc_id": 0, "text": "alpha beta gamma delta epsilon zeta eta "
                               "theta iota kappa completely unrelated"}]
    )
    new = ray.data.from_items(
        [{"doc_id": 5, "text": "five six seven eight nine ten eleven "
                               "twelve novel words in every position"}]
    )
    kept = [
        r["doc_id"]
        for r in incremental_minhash_dedup(new, existing).take_all()
    ]
    assert kept == [5]


# ---------------------------------------------------------------------------
# normalized exact dedup
# ---------------------------------------------------------------------------


def test_normalized_dedup_catches_trivial_edits(ray_session):
    import ray.data

    tab = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "Hello, World!",
                    "hello   world",
                    "HELLO WORLD.",
                    "a genuinely different text",
                ],
                pa.string(),
            ),
        }
    )
    got = dedup.normalized_dedup(ray.data.from_arrow(tab)).take_all()
    rows = sorted((r["doc_id"], r["dup_count"]) for r in got)
    # docs 1-3 collapse to one normalized form kept under min id 1
    assert rows == [(1, 3), (4, 1)]


def test_normalize_text_kernels():
    col = pa.array(["  A--B  c ", "", "123"], pa.string())
    out = dedup.normalize_text(col)
    assert out.to_pylist() == ["a b c", "", "123"]


def test_signatures_batch_bit_identical_to_per_doc():
    import numpy as np
    import pyarrow as pa

    from deepseek_ocr_ray.stages.dedup import MinHasher

    h = MinHasher(num_perm=64, shingle_k=5, seed=42)
    rng = np.random.RandomState(8)
    texts = []
    for i in range(300):
        n = int(rng.randint(0, 60))
        texts.append(
            "".join(chr(int(c)) for c in rng.randint(97, 123, n))
        )
    # edge cases: empty, shorter than one shingle, exactly one shingle,
    # unicode multibyte, duplicates
    texts += ["", "ab", "abcde", "héllo wörld çafé", texts[0], "ab"]
    arr = pa.array(texts, pa.string())
    batch = h.signatures_batch(arr)
    for i, t in enumerate(texts):
        assert np.array_equal(batch[i], h.signature(t)), (i, t)


def test_signatures_batch_chunked_and_sliced():
    import numpy as np
    import pyarrow as pa

    from deepseek_ocr_ray.stages.dedup import MinHasher

    h = MinHasher(num_perm=16, shingle_k=5, seed=1)
    texts = ["the quick brown fox", "jumps over", "the lazy dog", "x"]
    chunked = pa.chunked_array([texts[:2], texts[2:]])
    got = h.signatures_batch(chunked)
    sliced = pa.array(["pad"] + texts).slice(1)  # nonzero array offset
    got2 = h.signatures_batch(sliced)
    for i, t in enumerate(texts):
        want = h.signature(t)
        assert np.array_equal(got[i], want)
        assert np.array_equal(got2[i], want)


def test_ngram_dedup_local_duplicate_ids_match_distributed(
    ray_session, monkeypatch
):
    """A DUPLICATED id verifies if ANY of its rows does — the inner join
    replicates the pair per matching row, and the local plan must agree."""
    import pyarrow as pa
    import ray

    base = "the quick brown fox jumps over the lazy dog again and again"
    # id 5 appears twice: one dissimilar row, one near-dup of keeper 1
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 5, 5, 9], pa.int64()),
            "text": [base, "zz yy xx ww vv uu tt ss rr qq pp oo",
                     base + " tail", "completely different words here now"],
        }
    )
    outs = {}
    for plan in ("local", "distributed"):
        _force_pair_plan(monkeypatch, plan)
        outs[plan] = sorted(
            dedup.ngram_jaccard_dedup(
                ray.data.from_arrow(tbl), ngram=3, threshold=0.5
            ).to_pandas()["doc_id"]
        )
    assert outs["local"] == outs["distributed"]
    assert 5 not in outs["local"]  # the near-dup row condemns the id


def test_ngram_dedup_local_int64_ids_on_every_path(ray_session, monkeypatch):
    """int32 input ids: the local plan's no-candidates early return and
    its anti path must both emit int64, matching the distributed plans."""
    import pyarrow as pa
    import ray

    _force_pair_plan(monkeypatch, "local")
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int32()),
            "text": ["aa bb cc dd", "ee ff gg hh", "ii jj kk ll"],
        }
    )
    out = dedup.ngram_jaccard_dedup(
        ray.data.from_arrow(tbl), ngram=3, threshold=0.5
    )
    assert out.schema().base_schema.field("doc_id").type == pa.int64()
    assert sorted(r["doc_id"] for r in out.take_all()) == [1, 2, 3]
