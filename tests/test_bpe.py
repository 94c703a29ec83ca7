"""BPE trainer/encoder: hand-computed fixtures, an independently written
brute-force reference equality over random corpora, the train↔encode
consistency invariant (greedy rank-order encoding of a training word
reproduces its final training segmentation), and pipeline-level layout
invariance."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from deepseek_ocr_ray.functions import bpe


# -- independently written reference (different style on purpose) ----------


def _ref_train(words, counts, n_merges, min_count=1):
    segs = {i: list(w) for i, w in enumerate(words)}
    out = []
    for _ in range(n_merges):
        tally = {}
        for i, seg in segs.items():
            for a, b in zip(seg, seg[1:]):
                tally[(a, b)] = tally.get((a, b), 0) + int(counts[i])
        best = None
        for pair, n in tally.items():
            if best is None or (-n, pair) < (-best[1], best[0]):
                best = (pair, n)
        if best is None or best[1] < min_count:
            break
        (a, b), n = best
        out.append((a, b, n))
        for i, seg in segs.items():
            j, ns = 0, []
            while j < len(seg):
                if j + 1 < len(seg) and seg[j] == a and seg[j + 1] == b:
                    ns.append(a + b)
                    j += 2
                else:
                    ns.append(seg[j])
                    j += 1
            segs[i] = ns
    return out, segs


def test_train_merges_hand_computed():
    # corpus: "low" ×5, "lower" ×2, "newest" ×6, "widest" ×3  (the
    # Sennrich paper's running example, shrunk)
    words = ["low", "lower", "newest", "widest"]
    counts = np.array([5, 2, 6, 3], np.int64)
    got = bpe.train_merges(words, counts, 4)
    # pair counts round 1: (e,s) 9, (s,t) 9, (l,o) 7, (o,w) 7, (n,e) 6,
    # (e,w) 6, (w,e) 8? — w,e appears in "lower"(1×2) and "newest"(1×6) = 8
    # best = (e,s) vs (s,t) tie at 9 → left asc: (e,s)
    assert got[0] == ("e", "s", 9)
    # round 2: es+t = 9 → ("es","t",9)
    assert got[1] == ("es", "t", 9)
    # round 3: (l,o) 7, (o,w) 7, (w,est) 6? (n,e) 6 (e,w) 6 (w,e) 2,
    # (i,d) 3 (d,est) 3 (w,id) 3 → best (l,o) 7
    assert got[2] == ("l", "o", 7)
    # round 4: (lo,w) 7
    assert got[3] == ("lo", "w", 7)


def test_merge_word_overlap_is_left_to_right():
    assert bpe.merge_word(tuple("aaaa"), "a", "a", "aa") == ("aa", "aa")
    assert bpe.merge_word(tuple("aaa"), "a", "a", "aa") == ("aa", "a")


@pytest.mark.parametrize("seed", [3, 17, 99])
def test_train_matches_reference_on_random_corpora(seed):
    rng = np.random.RandomState(seed)
    alpha = list("abcdef")
    words = list(
        {
            "".join(rng.choice(alpha, rng.randint(1, 9)))
            for _ in range(rng.randint(5, 40))
        }
    )
    counts = rng.randint(1, 50, len(words)).astype(np.int64)
    got = bpe.train_merges(words, counts, 10)
    want, _ = _ref_train(words, counts, 10)
    assert got == want


@pytest.mark.parametrize("seed", [5, 25])
def test_encode_reproduces_training_segmentation(seed):
    rng = np.random.RandomState(seed)
    alpha = list("abcd")
    words = list(
        {
            "".join(rng.choice(alpha, rng.randint(1, 10)))
            for _ in range(rng.randint(10, 30))
        }
    )
    counts = rng.randint(1, 20, len(words)).astype(np.int64)
    merges = bpe.train_merges(words, counts, 15)
    ranks = {(l, r): i for i, (l, r, _) in enumerate(merges)}
    _, segs = _ref_train(words, counts, 15)
    for i, w in enumerate(words):
        enc = bpe.encode_word(w, ranks)
        assert "".join(enc) == w  # lossless
        assert list(enc) == segs[i], (w, enc, segs[i])


def _docs_dir(tmp_path, texts, files=1):
    d = str(tmp_path)
    os.makedirs(d, exist_ok=True)
    n = len(texts)
    tab = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(
        tab,
        os.path.join(d, "documents.parquet"),
        row_group_size=max(1, n // files),
    )
    return d


def test_bpe_pipelines_hand_fixture_and_layout(ray_session, tmp_path):
    from deepseek_ocr_ray.pipelines import curation

    texts = [
        "low low low low low lower lower",
        "newest newest newest newest newest newest",
        "widest widest widest",
        "",  # zero-token doc keeps its row with zero counts
    ]
    d1 = _docs_dir(tmp_path / "a", texts, files=1)
    d4 = _docs_dir(tmp_path / "b", texts, files=4)

    m1 = curation.bpe_train_merges(d1, n_merges=4).to_pandas()
    assert list(m1["left"]) == ["e", "es", "l", "lo"]
    assert list(m1["right"]) == ["s", "t", "o", "w"]
    assert list(m1["pair_count"]) == [9, 9, 7, 7]
    assert list(m1["merged"]) == ["es", "est", "lo", "low"]
    m4 = curation.bpe_train_merges(d4, n_merges=4).to_pandas()
    assert m1.equals(m4)

    e1 = curation.bpe_encode_stats(d1, n_merges=4).to_pandas()
    e4 = curation.bpe_encode_stats(d4, n_merges=4).to_pandas()
    # the encode is a zero-shuffle map whose row order is block order, so
    # the layouts are compared as row sets keyed by doc_id
    e1, e4 = (e.sort_values("doc_id", ignore_index=True) for e in (e1, e4))
    assert e1.equals(e4)
    # doc 0: 7 words; "low"→(low) 1 tok ×5, "lower"→(low,e,r) 3 tok ×2
    row0 = e1.iloc[0]
    assert (row0["n_words"], row0["n_char_tokens"], row0["n_bpe_tokens"]) \
        == (7, 25, 11)
    # doc 3: empty
    row3 = e1.iloc[3]
    assert (row3["n_words"], row3["n_char_tokens"], row3["n_bpe_tokens"]) \
        == (0, 0, 0)


def test_bpe_train_empty_corpus(ray_session, tmp_path):
    from deepseek_ocr_ray.pipelines import curation

    d = _docs_dir(tmp_path, [])
    out = curation.bpe_train_merges(d, n_merges=4)
    assert out.count() == 0
    assert out.schema().names == [
        "rank", "left", "right", "merged", "pair_count",
    ]


def test_bpe_train_cli(tmp_path):
    """End-to-end CLI: merge table written as parquet, encode totals
    consistent with the hand fixture (subprocess — owns its own Ray)."""
    import json
    import subprocess
    import sys

    texts = [
        "low low low low low lower lower",
        "newest newest newest newest newest newest",
        "widest widest widest",
        "",
    ]
    src = _docs_dir(tmp_path / "src", texts)
    out = str(tmp_path / "merges")
    r = subprocess.run(
        [
            sys.executable, "-m", "deepseek_ocr_ray", "bpe-train",
            "--input", src, "--output", out, "--merges", "4",
            "--encode-stats", "--num-cpus", "4",
        ],
        capture_output=True, text=True, timeout=300, cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["merges"] == 4
    # chars: 25 + 36 + 18 + 0; bpe after 4 merges: 11 + 6·4 + 3·4 + 0
    assert summary["char_tokens"] == 79
    assert summary["bpe_tokens"] == 47
    t = pq.read_table(out)
    assert list(t["merged"].to_pylist()) == ["es", "est", "lo", "low"]
