"""The flagship extraction pipeline, end to end.

Ray-Data restatement of the reference lifecycle (SURVEY.md §3):

    read (Lance/Parquet interleaved docs)
      → map_batches(explode_docs)                      # fan-out, vectorized
      → map_batches(OcrStage, concurrency=pool)        # stateful actor pool
      → map_batches(parse_units)                       # span parse + cleaners + HTML strip
      → map_batches(assemble_bucket)                   # per block, no shuffle
      → write_parquet(partitioned)  /  caller consumes

With ``exchange="salted"`` the last map becomes two keyed exchanges (salted
assembly, then a small merge of per-salt partials).  Every stage before
assembly is embarrassingly parallel and streams with backpressure; nothing
materializes the corpus.
"""

from __future__ import annotations

import functools

import ray.data

from ..config import PipelineConfig, estimate_max_concurrency
from ..stages.assemble import (
    add_doc_bucket,
    add_salted_bucket,
    assemble_bucket,
    assemble_salted_partials,
    merge_salted_partials,
)
from ..stages.model_stub import OcrStage
from ..stages.transforms import explode_docs, parse_units


def auto_pool_size(cfg: PipelineConfig, total_cpus: int) -> int:
    """A3: auto-size the OCR actor pool.

    CPU rule: ~75 % of cluster CPUs (the OCR stage dominates compute; the
    remainder serves the task stages).  When ``cfg.gpu_memory_gb`` is set
    (real-model deployment), the memory rule additionally caps the pool:
    effective memory is the reference's ``total × utilization − 1 GB``
    (gradio_vllm_demo.py:1744-1750), the per-sequence cost is the
    reference's empirical ~800 MB at 8192 max_tokens
    (``estimate_max_concurrency``), and each actor holds up to
    ``ocr_batch_size`` concurrent sequences — so the pool is capped at
    ``est_sequences // ocr_batch_size`` actors per the configured device.
    The floor of 1 keeps a configured-but-tiny device runnable (one
    partially-filled actor), mirroring the reference's floor of 1."""
    cpu_est = max(2, int(total_cpus * 0.75))
    if cfg.gpu_memory_gb is None:
        return cpu_est
    effective_gb = max(
        cfg.gpu_memory_gb * cfg.gpu_memory_utilization - 1.0, 1.0
    )
    seqs = estimate_max_concurrency(effective_gb, cfg.max_tokens)
    mem_est = max(1, seqs // max(1, cfg.ocr_batch_size))
    return max(1, min(cpu_est, mem_est))

# legacy floor for the assembly group count — the actual count is sized
# from input volume via cluster.assembly_buckets_for_bytes when callers
# leave assembly_buckets=None (a fixed count is a per-task memory cliff and
# a parallelism cap at 100× scale; see that function's docstring).
DEFAULT_ASSEMBLY_BUCKETS = 64


def _resolve_assembly_buckets(
    ds: ray.data.Dataset, assembly_buckets: int | None
) -> int:
    if assembly_buckets is not None:
        return assembly_buckets
    from ..cluster import assembly_buckets_for_bytes, dataset_size_estimate

    return assembly_buckets_for_bytes(
        dataset_size_estimate(ds), floor=DEFAULT_ASSEMBLY_BUCKETS
    )


def extract_dataset(
    ds: ray.data.Dataset,
    config: PipelineConfig | None = None,
    assembly_buckets: int | None = None,
    exchange: str = "none",
) -> ray.data.Dataset:
    """Interleaved doc Dataset → extracted doc Dataset (OUT_SCHEMA rows).

    ``exchange`` controls the assembly step:

    - ``"none"`` (default): assemble each block directly.  Valid because the
      input is ONE ROW PER DOCUMENT (the input_hint schema): ``explode_docs``
      fans a doc out *within* its block and every later stage is map-only
      with order-preserving output, so a document's units never straddle a
      block boundary.  The pipeline is then pure map stages — zero shuffle,
      perfect horizontal scaling; skew is handled by input block sizing.
    - ``"salted"``: the general path for unit-level sources (rows already
      exploded, e.g. resuming from a units table) where a document's units
      MAY span blocks, and the media-heavy-skew path: bucket by ``(doc_id,
      unit_id // salt_span)`` so an oversized document's units split
      across groups, then merge the per-salt partials in a second, tiny
      keyed exchange.  Both paths produce identical output.
    """
    cfg = config or PipelineConfig()
    # CPU stages run per-block (batch_size=None): a fixed batch_size here
    # would coalesce upstream blocks and cap stage parallelism at
    # n_rows/batch_size tasks; block width is the parallelism knob.
    units = ds.map_batches(
        explode_docs, batch_format="pyarrow", batch_size=None
    )
    concurrency = cfg.ocr_concurrency
    if concurrency is None:
        try:
            total_cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            total_cpus = 8
        concurrency = auto_pool_size(cfg, total_cpus)
    ocr = units.map_batches(
        OcrStage,
        fn_constructor_kwargs={"config": cfg},
        batch_format="pyarrow",
        batch_size=cfg.ocr_batch_size,
        concurrency=concurrency,
        num_cpus=cfg.ocr_num_cpus,
        **({"num_gpus": cfg.ocr_num_gpus} if cfg.ocr_num_gpus else {}),
    )
    parsed = ocr.map_batches(
        functools.partial(parse_units, config=cfg),
        batch_format="pyarrow",
        batch_size=None,
    )
    if exchange == "none":
        # doc-per-row input ⇒ per-block assembly, no exchange (see docstring).
        # assemble_bucket sorts by (doc_id, unit_id) inside the block, so
        # within-block unit order need not be contiguous.
        return parsed.map_batches(
            functools.partial(assemble_bucket, config=cfg),
            batch_format="pyarrow",
            batch_size=None,
        )
    if exchange != "salted":
        raise ValueError(
            f"exchange must be 'none' or 'salted', got {exchange!r}"
        )
    # bucket by (doc_id, salt=unit_id//span) so no assembly group exceeds
    # ~salt_span units per doc; merge the per-salt partials in a second,
    # MUCH smaller keyed exchange (one row per (doc, salt)).  Output is
    # byte-identical to the "none" path.
    n_buckets = _resolve_assembly_buckets(ds, assembly_buckets)
    salted = parsed.map_batches(
        functools.partial(
            add_salted_bucket,
            n_buckets=n_buckets,
            salt_span=cfg.salt_span,
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
    partials = salted.groupby("assembly_bucket").map_groups(
        functools.partial(assemble_salted_partials, config=cfg),
        batch_format="pyarrow",
    )
    bucketed2 = partials.map_batches(
        functools.partial(add_doc_bucket, n_buckets=n_buckets),
        batch_format="pyarrow",
        batch_size=None,
    )
    return bucketed2.groupby("merge_bucket").map_groups(
        functools.partial(merge_salted_partials, config=cfg),
        batch_format="pyarrow",
    )


def extract_path(
    path: str,
    config: PipelineConfig | None = None,
    **kwargs,
) -> ray.data.Dataset:
    from ..sources.interleaved import read_interleaved

    return extract_dataset(read_interleaved(path), config, **kwargs)
