"""Document reassembly — the pipeline's one wide (shuffle) step.

The reference reassembles pages by positional zip in submission order
(DSV/run_dpsk_ocr_pdf.py:292); a distributed pipeline cannot rely on order,
so units carry ``(doc_id, unit_id)`` and are reassembled by key.

Two plans, chosen by ``pipelines.extract.extract_dataset``'s ``exchange``:

- ``exchange="none"``: doc-per-row inputs never split a document across
  blocks, so :func:`assemble_bucket` runs per block — no shuffle at all.
- ``exchange="salted"``: for unit-level inputs whose documents MAY span
  blocks, units are grouped by a stable hash of ``(doc_id, unit_id //
  salt_span)`` (``assembly_bucket``), so the shuffle has a bounded number
  of groups, an oversized document splits across groups, and each group
  assembles many documents in one vectorized pass; a second, small keyed
  exchange merges the per-salt partials.  The bucket count is sized from
  input volume (``assembly_buckets_for_bytes``) so per-group bytes stay
  bounded as the corpus grows.

The group walks are fully vectorized: doc boundaries come from adjacent
compares on the sorted key, per-doc reductions are ``np.*.reduceat`` over
the boundary index, span lists are built by flattening the unit-level Arrow
list columns once and re-slicing them with per-doc offsets, and markdown is
``pc.binary_join`` over per-unit pieces — no ``to_pylist`` of payload
columns, no per-row Python in the hot path.  The only Python loop left is
the ``partition_id`` column: the pinned md5 rule of
:func:`stable_bucket`, one hash per output document.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import PipelineConfig
from ..hashing import mix64, string_hash64
from ..schema import OUT_SCHEMA, SPAN_STRUCT
from .transforms import MEDIA_KINDS, SENTINEL_KIND


def stable_bucket(doc_ids: list[str], n_buckets: int) -> list[int]:
    """md5-based bucket — stable across processes/parallelism (Python's
    ``hash`` is salted per process and must never partition data).  The
    rule for the ``partition_id`` output column, pinned by the reference
    oracle; the internal exchange buckets use the vectorized
    ``string_hash64``."""
    return [
        int.from_bytes(hashlib.md5(d.encode()).digest()[:4], "little") % n_buckets
        for d in doc_ids
    ]


def _col(t: pa.Table, name: str) -> pa.Array:
    c = t[name]
    return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c


def _doc_bounds(key: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(starts, new_flags) of equal-run boundaries in a SORTED key column."""
    n = len(key)
    new = np.empty(n, dtype=bool)
    new[0] = True
    if n > 1:
        new[1:] = pc.not_equal(key.slice(1), key.slice(0, n - 1)).to_numpy(
            zero_copy_only=False
        )
    return np.flatnonzero(new), new


def _flat_contrib(
    g: pa.Table, sel: pa.Array, names: tuple[str, ...]
) -> list[pa.Array]:
    """Flatten the given list columns restricted to selected unit rows —
    one C-level take + flatten per column, order-preserving."""
    out = []
    for name in names:
        out.append(pc.list_flatten(_col(g, name).take(sel)))
    return out


def _per_doc_markdown(
    g: pa.Table,
    contrib: np.ndarray,
    is_page: np.ndarray,
    doc_starts: np.ndarray,
    *,
    split: str,
) -> pa.Array:
    """Per-unit markdown piece → per-doc joined markdown (large_string).

    Piece rules (reference run_dpsk_ocr_pdf.py:302-304 semantics): an OCR'd
    page contributes fragment + page split; a skipped media page nothing;
    a textual/html unit its fragment + blank line when non-empty."""
    frag = pc.coalesce(
        _col(g, "fragment").cast(pa.large_string()),
        pa.scalar("", pa.large_string()),
    )
    kind = _col(g, "kind")
    is_media = pc.is_in(kind, value_set=pa.array(list(MEDIA_KINDS))).to_numpy(
        zero_copy_only=False
    )
    frag_nonempty = pc.greater(
        pc.binary_length(frag), 0
    ).to_numpy(zero_copy_only=False)
    empty = pa.scalar("", pa.large_string())
    page_piece = pc.binary_join_element_wise(
        frag, pa.scalar(split, pa.large_string()), empty
    )
    text_piece = pc.binary_join_element_wise(
        frag, pa.scalar("\n\n", pa.large_string()), empty
    )
    piece = pc.if_else(
        pa.array(contrib & is_page),
        page_piece,
        pc.if_else(
            pa.array(contrib & ~is_page & ~is_media & frag_nonempty),
            text_piece,
            empty,
        ),
    )
    offsets = pa.array(
        np.append(doc_starts, g.num_rows).astype(np.int64), pa.int64()
    )
    pieces_per_doc = pa.LargeListArray.from_arrays(offsets, piece)
    return pc.binary_join(pieces_per_doc, pa.scalar("", pa.large_string()))


def _per_doc_errors(
    err: pa.Array, err_valid: np.ndarray, doc_starts: np.ndarray
) -> pa.Array:
    """Non-null unit errors joined per doc with '; '; docs with none → null."""
    counts = np.add.reduceat(err_valid.astype(np.int64), doc_starts)
    flat = err.drop_null()
    offsets = pa.array(
        np.concatenate([[0], np.cumsum(counts)]).astype(np.int32), pa.int32()
    )
    joined = pc.binary_join(
        pa.ListArray.from_arrays(offsets, flat), pa.scalar("; ")
    )
    return pc.if_else(pa.array(counts > 0), joined, pa.scalar(None, pa.string()))


def _final_table(
    docs: pa.Array,
    flat_kinds: pa.Array,
    flat_texts: pa.Array,
    flat_refs: pa.Array,
    spans_per_doc: np.ndarray,
    markdown: pa.Array,
    truncated: np.ndarray,
    errors: pa.Array,
    *,
    n_parts: int,
) -> pa.Table:
    """Assemble the OUT_SCHEMA table from per-doc columns + flattened spans."""
    total = int(spans_per_doc.sum())
    cum = np.concatenate([[0], np.cumsum(spans_per_doc)])
    within = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], spans_per_doc)
    span_struct = pa.StructArray.from_arrays(
        [
            flat_kinds.cast(pa.string()),
            flat_texts.cast(pa.large_string()),
            flat_refs.cast(pa.string()),
            pa.array(within.astype(np.int32), pa.int32()),
        ],
        fields=list(SPAN_STRUCT),
    )
    spans_col = pa.ListArray.from_arrays(
        pa.array(cum.astype(np.int32), pa.int32()), span_struct
    )
    pids = stable_bucket(docs.to_pylist(), n_parts)
    return pa.table(
        {
            "doc_id": docs.cast(pa.string()),
            "spans": spans_col,
            "markdown": markdown.cast(pa.large_string()),
            "n_spans": pa.array(spans_per_doc.astype(np.int32), pa.int32()),
            "truncated": pa.array(truncated, pa.bool_()),
            "partition_id": pa.array(pids, pa.int32()),
            "error": errors.cast(pa.string()),
        },
        schema=OUT_SCHEMA,
    )


def assemble_bucket(group: pa.Table, *, config: PipelineConfig) -> pa.Table:
    """Assemble every document in one bucket: sort by (doc_id, unit_id),
    find doc boundaries by adjacent compare, emit one output row per doc —
    all column-at-a-time (see module docstring).

    Markdown convention: an OCR'd page contributes its cleaned markdown plus
    the page split marker (appended after *each* page, reference
    run_dpsk_ocr_pdf.py:302-304); skipped (no-EOS) pages and quarantined
    units contribute nothing — not even a split; textual/html units
    contribute their fragment + a blank line.
    """
    if group.num_rows == 0:
        return OUT_SCHEMA.empty_table()
    g = group.sort_by([("doc_id", "ascending"), ("unit_id", "ascending")])
    n = g.num_rows
    doc = _col(g, "doc_id")
    doc_starts, _ = _doc_bounds(doc)

    err = _col(g, "unit_error")
    err_valid = np.asarray(err.is_valid())
    kind = _col(g, "kind")
    not_sentinel = pc.not_equal(kind, SENTINEL_KIND).to_numpy(
        zero_copy_only=False
    )
    contrib = (~err_valid) & not_sentinel

    if "n_units" in g.column_names:
        expected = _col(g, "n_units").to_numpy(zero_copy_only=False)[doc_starts]
        actual = np.diff(np.append(doc_starts, n))
        bad = np.flatnonzero(actual != expected)
        if len(bad):
            b = bad[0]
            raise ValueError(
                f"assembly saw {actual[b]}/{expected[b]} units of doc "
                f"{doc[doc_starts[b]].as_py()!r}: "
                "a document split across blocks; rerun with "
                "exchange='salted', or raise "
                "DataContext.target_max_block_size / shrink input blocks"
            )

    lens = (
        pc.list_value_length(_col(g, "sub_kinds"))
        .fill_null(0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    lens_contrib = np.where(contrib, lens, 0)
    spans_per_doc = np.add.reduceat(lens_contrib, doc_starts)
    sel = pa.array(np.flatnonzero(contrib), pa.int64())
    flat_kinds, flat_texts, flat_refs = _flat_contrib(
        g, sel, ("sub_kinds", "sub_texts", "sub_refs")
    )

    is_page = _col(g, "is_page").to_numpy(zero_copy_only=False)
    markdown = _per_doc_markdown(
        g, contrib, is_page, doc_starts, split=config.page_split
    )
    trunc = np.logical_or.reduceat(
        _col(g, "truncated").to_numpy(zero_copy_only=False), doc_starts
    )
    errors = _per_doc_errors(err, err_valid, doc_starts)
    return _final_table(
        doc.take(pa.array(doc_starts, pa.int64())),
        flat_kinds,
        flat_texts,
        flat_refs,
        spans_per_doc,
        markdown,
        trunc,
        errors,
        n_parts=config.num_partitions,
    )


# ---------------------------------------------------------------------------
# salted two-level assembly (media-heavy skew)
# ---------------------------------------------------------------------------


def add_salted_bucket(
    batch: pa.Table, *, n_buckets: int, salt_span: int
) -> pa.Table:
    """Bucket by (doc_id, salt) where salt = unit_id // salt_span.

    An oversized document's units spread across ceil(n_units/salt_span)
    buckets, so no single assembly group is ever larger than ~salt_span
    units per doc — the skew defusal of SURVEY.md §4.  Order survives
    because salt is monotone in unit_id.  Fully vectorized: the bucket is
    a mix of the doc's string hash with the salt (internal key only)."""
    unit_ids = _col(batch, "unit_id").to_numpy(zero_copy_only=False)
    salts = (unit_ids // salt_span).astype(np.int64)
    h = string_hash64(_col(batch, "doc_id")) ^ mix64(salts.astype(np.uint64))
    buckets = (mix64(h) % np.uint64(n_buckets)).astype(np.int32)
    return batch.append_column(
        "salt", pa.array(salts.astype(np.int32), pa.int32())
    ).append_column("assembly_bucket", pa.array(buckets, pa.int32()))


_PARTIAL_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("salt", pa.int32()),
        ("p_kinds", pa.list_(pa.string())),
        ("p_texts", pa.list_(pa.large_string())),
        ("p_refs", pa.list_(pa.string())),
        ("p_markdown", pa.large_string()),
        ("p_truncated", pa.bool_()),
        ("p_errors", pa.list_(pa.string())),
    ]
)


def _regroup_list(
    flat: pa.Array, counts: np.ndarray, value_type: pa.DataType
) -> pa.ListArray:
    offsets = pa.array(
        np.concatenate([[0], np.cumsum(counts)]).astype(np.int32), pa.int32()
    )
    return pa.ListArray.from_arrays(offsets, flat.cast(value_type))


def assemble_salted_partials(group: pa.Table, *, config: PipelineConfig) -> pa.Table:
    """Level 1: assemble each (doc_id, salt) slice into one partial row.

    Same unit-contribution rules as ``assemble_bucket`` but emits parallel
    list columns + the markdown slice, keyed (doc_id, salt), with NO offsets
    yet (assigned at merge, level 2).  Vectorized identically to
    ``assemble_bucket`` with the run key (doc_id, salt)."""
    if group.num_rows == 0:
        return _PARTIAL_SCHEMA.empty_table()
    g = group.sort_by(
        [("doc_id", "ascending"), ("salt", "ascending"), ("unit_id", "ascending")]
    )
    n = g.num_rows
    doc = _col(g, "doc_id")
    salt = _col(g, "salt")
    new = np.empty(n, dtype=bool)
    new[0] = True
    if n > 1:
        new[1:] = (
            pc.not_equal(doc.slice(1), doc.slice(0, n - 1)).to_numpy(
                zero_copy_only=False
            )
            | pc.not_equal(salt.slice(1), salt.slice(0, n - 1)).to_numpy(
                zero_copy_only=False
            )
        )
    starts = np.flatnonzero(new)

    err = _col(g, "unit_error")
    err_valid = np.asarray(err.is_valid())
    not_sentinel = pc.not_equal(_col(g, "kind"), SENTINEL_KIND).to_numpy(
        zero_copy_only=False
    )
    contrib = (~err_valid) & not_sentinel

    lens = (
        pc.list_value_length(_col(g, "sub_kinds"))
        .fill_null(0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    lens_contrib = np.where(contrib, lens, 0)
    spans_per_grp = np.add.reduceat(lens_contrib, starts)
    sel = pa.array(np.flatnonzero(contrib), pa.int64())
    flat_kinds, flat_texts, flat_refs = _flat_contrib(
        g, sel, ("sub_kinds", "sub_texts", "sub_refs")
    )

    is_page = _col(g, "is_page").to_numpy(zero_copy_only=False)
    markdown = _per_doc_markdown(
        g, contrib, is_page, starts, split=config.page_split
    )
    trunc = np.logical_or.reduceat(
        _col(g, "truncated").to_numpy(zero_copy_only=False), starts
    )
    err_counts = np.add.reduceat(err_valid.astype(np.int64), starts)
    take_starts = pa.array(starts, pa.int64())
    return pa.table(
        {
            "doc_id": doc.take(take_starts).cast(pa.string()),
            "salt": salt.take(take_starts).cast(pa.int32()),
            "p_kinds": _regroup_list(flat_kinds, spans_per_grp, pa.string()),
            "p_texts": _regroup_list(flat_texts, spans_per_grp, pa.large_string()),
            "p_refs": _regroup_list(flat_refs, spans_per_grp, pa.string()),
            "p_markdown": markdown.cast(pa.large_string()),
            "p_truncated": pa.array(trunc, pa.bool_()),
            "p_errors": _regroup_list(err.drop_null(), err_counts, pa.string()),
        },
        schema=_PARTIAL_SCHEMA,
    )


def add_doc_bucket(batch: pa.Table, *, n_buckets: int) -> pa.Table:
    h = string_hash64(_col(batch, "doc_id"))
    return batch.append_column(
        "merge_bucket",
        pa.array((h % np.uint64(n_buckets)).astype(np.int32), pa.int32()),
    )


def merge_salted_partials(group: pa.Table, *, config: PipelineConfig) -> pa.Table:
    """Level 2: merge a doc's partials (sorted by salt) into the final row —
    identical output to the unsalted paths.  The shuffle here carries one
    small row per (doc, salt), not per unit."""
    if group.num_rows == 0:
        return OUT_SCHEMA.empty_table()
    g = group.sort_by([("doc_id", "ascending"), ("salt", "ascending")])
    doc = _col(g, "doc_id")
    doc_starts, _ = _doc_bounds(doc)

    lens = (
        pc.list_value_length(_col(g, "p_kinds"))
        .fill_null(0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    spans_per_doc = np.add.reduceat(lens, doc_starts)
    flat_kinds = pc.list_flatten(_col(g, "p_kinds"))
    flat_texts = pc.list_flatten(_col(g, "p_texts"))
    flat_refs = pc.list_flatten(_col(g, "p_refs"))

    md = pc.coalesce(
        _col(g, "p_markdown").cast(pa.large_string()),
        pa.scalar("", pa.large_string()),
    )
    offsets = pa.array(
        np.append(doc_starts, g.num_rows).astype(np.int64), pa.int64()
    )
    markdown = pc.binary_join(
        pa.LargeListArray.from_arrays(offsets, md),
        pa.scalar("", pa.large_string()),
    )
    trunc = np.logical_or.reduceat(
        _col(g, "p_truncated").to_numpy(zero_copy_only=False), doc_starts
    )
    err_lens = (
        pc.list_value_length(_col(g, "p_errors"))
        .fill_null(0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    err_counts = np.add.reduceat(err_lens, doc_starts)
    flat_errs = pc.list_flatten(_col(g, "p_errors"))
    err_offsets = pa.array(
        np.concatenate([[0], np.cumsum(err_counts)]).astype(np.int32), pa.int32()
    )
    joined = pc.binary_join(
        pa.ListArray.from_arrays(err_offsets, flat_errs), pa.scalar("; ")
    )
    errors = pc.if_else(
        pa.array(err_counts > 0), joined, pa.scalar(None, pa.string())
    )
    return _final_table(
        doc.take(pa.array(doc_starts, pa.int64())),
        flat_kinds,
        flat_texts,
        flat_refs,
        spans_per_doc,
        markdown,
        trunc,
        errors,
        n_parts=config.num_partitions,
    )
