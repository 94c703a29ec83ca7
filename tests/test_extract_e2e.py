"""End-to-end: distributed pipeline output == sequential reference-semantics
oracle, under the core invariant span-sequence equality
(kind, text, media_ref, order) per doc_id — FIXTURES.md F5."""

import pyarrow as pa
import pytest

from deepseek_ocr_ray import PipelineConfig, extract_dataset
from deepseek_ocr_ray.schema import gen_doc
from reference_oracle import extract_doc_oracle

N_DOCS = 120
SEED = 42


def _span_seq(spans):
    return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]


@pytest.fixture(scope="module")
def oracle_docs():
    docs = [gen_doc(i, SEED) for i in range(N_DOCS)]
    return {d["doc_id"]: extract_doc_oracle(d) for d in docs}


@pytest.fixture(scope="module")
def pipeline_rows(ray_session):
    import ray.data

    from deepseek_ocr_ray.sources.interleaved import synthetic_dataset

    out = extract_dataset(synthetic_dataset(N_DOCS, SEED), PipelineConfig())
    return {r["doc_id"]: r for r in out.take_all()}


def test_all_docs_present(pipeline_rows, oracle_docs):
    assert set(pipeline_rows) == set(oracle_docs)


def test_span_sequence_equality(pipeline_rows, oracle_docs):
    for doc_id, expected in oracle_docs.items():
        got = pipeline_rows[doc_id]
        assert _span_seq(got["spans"]) == _span_seq(expected["spans"]), doc_id


def test_markdown_and_flags_equality(pipeline_rows, oracle_docs):
    for doc_id, expected in oracle_docs.items():
        got = pipeline_rows[doc_id]
        assert got["markdown"] == expected["markdown"], doc_id
        assert got["n_spans"] == expected["n_spans"], doc_id
        assert got["truncated"] == expected["truncated"], doc_id
        assert got["partition_id"] == expected["partition_id"], doc_id
        assert got["error"] == expected["error"], doc_id


def test_invariant_under_block_shuffle(ray_session, oracle_docs):
    """Order comes from keys, never block order (SURVEY.md §1)."""
    import ray.data

    from deepseek_ocr_ray.schema import IN_SCHEMA

    docs = [gen_doc(i, SEED) for i in range(N_DOCS)]
    docs = docs[::-1]  # reversed input order
    tbl = pa.Table.from_pylist(docs, schema=IN_SCHEMA)
    ds = ray.data.from_arrow(tbl).repartition(7)
    out = extract_dataset(ds, PipelineConfig(), assembly_buckets=5)
    rows = {r["doc_id"]: r for r in out.take_all()}
    for doc_id, expected in oracle_docs.items():
        assert _span_seq(rows[doc_id]["spans"]) == _span_seq(expected["spans"])


def test_skip_repeat_false_keeps_truncated_pages(ray_session):
    """With skip_repeat off, no-EOS pages are extracted and flagged, matching
    the oracle run with the same config."""
    from deepseek_ocr_ray.sources.interleaved import synthetic_dataset

    cfg = PipelineConfig(skip_repeat=False)
    out = extract_dataset(synthetic_dataset(N_DOCS, SEED), cfg)
    rows = {r["doc_id"]: r for r in out.take_all()}
    docs = [gen_doc(i, SEED) for i in range(N_DOCS)]
    expected = {d["doc_id"]: extract_doc_oracle(d, cfg) for d in docs}
    for doc_id, e in expected.items():
        assert _span_seq(rows[doc_id]["spans"]) == _span_seq(e["spans"])
        assert rows[doc_id]["markdown"] == e["markdown"]
    # the corpus at this size must actually exercise the no-EOS branch
    assert any(e["truncated"] for e in expected.values())


def test_corpus_exercises_grammar(oracle_docs):
    """The synthetic corpus must cover every grammar branch the cleaners
    handle (otherwise equality is vacuous)."""
    kinds = set()
    any_error = False
    for e in oracle_docs.values():
        kinds.update(s["kind"] for s in e["spans"])
        any_error = any_error or bool(e["error"])
    assert {"text", "title", "image", "table", "formula"} <= kinds
    assert any_error  # malformed media_ref quarantine path exercised
    assert any(e["truncated"] for e in oracle_docs.values())


def test_salted_exchange_identical(ray_session):
    """exchange='salted' (two-level skew-defusing assembly) must produce the
    same rows as the zero-shuffle path — media-heavy docs (50-200 spans vs
    salt_span=64) exercise multi-salt merging."""
    import ray.data

    from deepseek_ocr_ray.config import PipelineConfig
    from deepseek_ocr_ray.pipelines.extract import extract_dataset
    from deepseek_ocr_ray.sources.interleaved import synthetic_dataset

    cfg = PipelineConfig(ocr_concurrency=2, salt_span=64)
    a = (
        extract_dataset(synthetic_dataset(150, seed=42), cfg, exchange="none")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        extract_dataset(synthetic_dataset(150, seed=42), cfg, exchange="salted")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert a.doc_id.tolist() == b.doc_id.tolist()
    assert a.markdown.tolist() == b.markdown.tolist()
    assert a.n_spans.tolist() == b.n_spans.tolist()
    assert a.error.fillna("").tolist() == b.error.fillna("").tolist()
    # at least one doc actually split across salts
    assert (a.n_spans > 64).any()
    for sa, sb in zip(a.spans, b.spans):
        assert list(map(dict, sa)) == list(map(dict, sb))


def test_prompt_modes_through_pipeline(ray_session):
    """M1 dispatch end-to-end: free_ocr pages yield exactly one text span,
    locate pages yield only target-labeled spans, markdown is the default
    grounded grammar."""
    from deepseek_ocr_ray.config import PipelineConfig
    from deepseek_ocr_ray.pipelines.extract import extract_dataset
    from deepseek_ocr_ray.sources.interleaved import synthetic_dataset

    def spans_by_mode(mode, text=""):
        cfg = PipelineConfig(
            prompt_mode=mode, prompt_text=text, ocr_concurrency=2,
            skip_repeat=False,
        )
        out = extract_dataset(synthetic_dataset(30, seed=5), cfg).take_all()
        return [s for row in out for s in row["spans"]]

    free = spans_by_mode("free_ocr")
    media_spans = [s for s in free if s["media_ref"].startswith("crop://")]
    assert media_spans == []  # no grounding → no crops
    # no grounded-grammar labels may leak through (media pages are plain
    # text; remaining kinds come from html/textual passthrough)
    assert {s["kind"] for s in free} <= {"text", "title", "table", "figure", "image"}
    assert "formula" not in {s["kind"] for s in free}

    loc = spans_by_mode("locate", "invoice number")
    located = [s for s in loc if s["kind"] == "invoice number"]
    assert located  # some pages located the target
    # locate pages contribute only target-labeled or passthrough spans
    grounded_kinds = {s["kind"] for s in loc} - {
        "text", "title", "table", "figure", "image", "html"
    }
    assert grounded_kinds == {"invoice number"}

    md = spans_by_mode("markdown")
    assert any(s["media_ref"].startswith("crop://") for s in md)  # image crops
    assert {"title", "table", "formula"} & {s["kind"] for s in md}


def test_prompt_modes_oracle_equality(ray_session):
    """Pipeline output equals the sequential oracle under non-default
    prompt modes too (free_ocr: plain text pages; locate: target refs)."""
    from deepseek_ocr_ray.config import PipelineConfig
    from deepseek_ocr_ray.pipelines.extract import extract_dataset
    from deepseek_ocr_ray.schema import gen_doc
    from deepseek_ocr_ray.sources.interleaved import synthetic_dataset
    from tests.reference_oracle import extract_doc_oracle

    for mode, text in (("free_ocr", ""), ("locate", "total amount")):
        cfg = PipelineConfig(prompt_mode=mode, prompt_text=text, ocr_concurrency=2)
        got = {
            r["doc_id"]: r
            for r in extract_dataset(synthetic_dataset(25, seed=3), cfg).take_all()
        }
        for i in range(25):
            doc = gen_doc(i, seed=3)
            want = extract_doc_oracle(doc, cfg)
            g = got[doc["doc_id"]]
            assert g["markdown"] == want["markdown"], (mode, doc["doc_id"])
            assert [
                (s["kind"], s["text"], s["media_ref"]) for s in g["spans"]
            ] == [
                (s["kind"], s["text"], s["media_ref"]) for s in want["spans"]
            ], (mode, doc["doc_id"])
            assert g["truncated"] == want["truncated"]


def test_assembly_detects_split_document():
    """A document whose units are missing from the block (split across
    blocks) must raise, not silently emit a partial row."""
    import pyarrow as pa
    import pytest as _pytest

    from deepseek_ocr_ray.config import PipelineConfig
    from deepseek_ocr_ray.schema import synthesize_interleaved
    from deepseek_ocr_ray.stages.assemble import assemble_bucket
    from deepseek_ocr_ray.stages.model_stub import OcrStage
    from deepseek_ocr_ray.stages.transforms import explode_docs, parse_units

    cfg = PipelineConfig()
    tbl = synthesize_interleaved(3, seed=11)
    units = parse_units(OcrStage(cfg)(explode_docs(tbl)), config=cfg)
    # complete block assembles fine
    assert assemble_bucket(units, config=cfg).num_rows == 3
    # drop one unit of a multi-unit doc → loud failure
    assert units.num_rows > 3, "corpus must contain a multi-unit doc"
    partial = units.slice(0, units.num_rows - 1)
    with _pytest.raises(ValueError, match="split across blocks"):
        assemble_bucket(partial, config=cfg)


def test_salted_handles_extreme_doc(ray_session):
    """A single 500-unit document (≫ salt_span) splits into ~8 salt partials
    and must reassemble identically to the zero-shuffle path."""
    import ray.data

    from deepseek_ocr_ray.config import PipelineConfig
    from deepseek_ocr_ray.pipelines.extract import extract_dataset
    from deepseek_ocr_ray.schema import IN_SCHEMA

    spans = []
    for off in range(500):
        if off % 3 == 0:
            spans.append({"kind": "pdf_page", "text": "",
                          "media_ref": f"blob://big/{off}", "offset": off})
        else:
            spans.append({"kind": "text", "text": f"chunk {off}",
                          "media_ref": "", "offset": off})
    tbl = pa.Table.from_pylist(
        [{"doc_id": "doc-big", "spans": spans}], schema=IN_SCHEMA
    )

    cfg = PipelineConfig(ocr_concurrency=2, salt_span=64)
    rows = {}
    for ex in ("none", "salted"):
        ds = ray.data.from_arrow(tbl)
        out = extract_dataset(ds, cfg, exchange=ex).take_all()
        assert len(out) == 1
        rows[ex] = out[0]
    a, b = rows["none"], rows["salted"]
    assert a["markdown"] == b["markdown"]
    assert a["n_spans"] == b["n_spans"] > 300
    assert [tuple(s.values()) for s in a["spans"]] == [
        tuple(s.values()) for s in b["spans"]
    ]


def test_delta_stream_printer_semantics():
    """W6: the printed-length delta loop of the reference's streaming
    stdout sink — only unseen suffixes are written; finish() emits the
    terminal blank line and resets."""
    import io

    from deepseek_ocr_ray.stages.model_stub import DeltaStreamPrinter

    buf = io.StringIO()
    p = DeltaStreamPrinter(buf)
    assert p.feed("hel") == "hel"
    assert p.feed("hello wo") == "lo wo"
    assert p.feed("hello wo") == ""      # no growth → nothing written
    assert p.feed("hello world") == "rld"
    p.finish()
    assert buf.getvalue() == "hello world\n\n"
    # shrink mirrors the reference: empty slice, printed length follows down
    assert p.feed("ab") == "ab"
    assert p.feed("a") == ""
    assert p.feed("abc") == "bc"         # regrowth prints from the new mark
    # reset after finish starts a fresh request
    p.finish()
    p2_start = buf.getvalue()
    assert p.feed("next") == "next"
    assert buf.getvalue() == p2_start + "next"


def test_ocr_stage_stream_progress_writes_each_unit():
    import io

    import pyarrow as pa

    from deepseek_ocr_ray.stages.model_stub import OcrStage, generate_page_markdown

    buf = io.StringIO()
    stage = OcrStage(stream_progress=True, progress_stream=buf)
    batch = pa.table(
        {
            "kind": pa.array(["image", "text", "image"]),
            "media_ref": pa.array(["blob://a/0", "", "blob://b/1"]),
        }
    )
    out = stage(batch)
    assert out.num_rows == 3
    expected = (
        generate_page_markdown("blob://a/0")
        + "\n\n"
        + generate_page_markdown("blob://b/1")
        + "\n\n"
    )
    assert buf.getvalue() == expected
    # default: no printer, no stdout side effects
    assert OcrStage().printer is None


def test_interleave_stats_brute(ray_session):
    """The vectorized interleave kernel equals a per-row Python walk over
    the spans lists (media = non-empty media_ref)."""
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as e

    out = (
        e.queries()["extract_interleave_stats"]("/root/testdata/sf0.001")
        .to_pandas()
        .set_index("doc_id")
    )
    docs = e.queries()["extract_summary"]  # noqa: F841 (warm import)
    from deepseek_ocr_ray import PipelineConfig, extract_dataset
    from deepseek_ocr_ray.sources.interleaved import synthetic_dataset

    rows = extract_dataset(
        synthetic_dataset(e.N_EXTRACT_DOCS, seed=42), PipelineConfig()
    ).take_all()
    checked = 0
    for r in rows[:50]:
        media = [bool(s["media_ref"]) for s in r["spans"]]
        want_alt = sum(
            1 for a, b in zip(media, media[1:]) if a != b
        )
        want_first = media.index(True) if any(media) else -1
        got = out.loc[r["doc_id"]]
        assert got.n_spans == len(media)
        assert got.n_media_spans == sum(media)
        assert got.first_media_pos == want_first
        assert got.alternations == want_alt
        checked += 1
    assert checked == 50


def test_partition_id_is_md5_rule(ray_session):
    """Partition ids follow the one pinned rule — md5 of the doc_id, low
    32 bits little-endian, modulo ``num_partitions`` — and stay in range."""
    import hashlib

    import numpy as np

    from deepseek_ocr_ray.sources.interleaved import synthetic_dataset

    cfg = PipelineConfig()
    out = extract_dataset(synthetic_dataset(30, SEED), cfg).take_all()
    want = np.array(
        [
            int.from_bytes(
                hashlib.md5(r["doc_id"].encode()).digest()[:4], "little"
            )
            % cfg.num_partitions
            for r in out
        ],
        np.int64,
    )
    got = np.array([r["partition_id"] for r in out], np.int64)
    assert (got == want).all()
    assert ((got >= 0) & (got < cfg.num_partitions)).all()
