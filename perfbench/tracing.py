"""In-memory span tracer and the Ray-free traced pass over the extraction kernels.

The traced pass calls the same public stage functions the Ray pipeline runs,
in pipeline order, one parquet file (one Ray input block) at a time:
``explode_docs`` → ``OcrStage.__call__`` (with ``model.generate`` wrapped on
the instance) → ``parse_units`` (with ``transforms.parse_media_unit`` and
``html_extract.extract_main_content`` wrapped) → ``assemble_bucket``, or the
four salted assembly functions with the two exchanges done in memory.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


class Tracer:
    """Spans (name, start, end, parent) kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


@contextlib.contextmanager
def _patched(obj, attr: str, value):
    old = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, old)


def _groups(t: pa.Table, key: str):
    """In-memory stand-in for ``groupby(key).map_groups``: one table per key."""
    t = t.sort_by(key)
    keys = t[key].to_numpy()
    bounds = np.flatnonzero(np.diff(keys)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(keys)]])
    for a, b in zip(starts, ends):
        yield t.slice(int(a), int(b - a))


def traced_extract(input_dir: str, cfg, exchange: str, tracer: Tracer):
    """Run the extraction kernels without Ray; return (output tables, counts)."""
    from deepseek_ocr_ray.functions import html_extract
    from deepseek_ocr_ray.stages import transforms
    from deepseek_ocr_ray.stages.assemble import (
        add_doc_bucket,
        add_salted_bucket,
        assemble_bucket,
        assemble_salted_partials,
        merge_salted_partials,
    )
    from deepseek_ocr_ray.stages.model_stub import OcrStage

    stage = OcrStage(cfg)
    stage.model.generate = tracer.wrap(stage.model.generate, "ocr.model")
    counts = {"explode.units": 0, "ocr.pages": 0, "ocr.quarantined": 0,
              "ocr.vision_tokens": 0, "parse.spans_out": 0, "parse.pages_kept": 0,
              "assemble.max_group_units": 0}
    parsed_blocks = []
    with _patched(transforms, "parse_media_unit",
                  tracer.wrap(transforms.parse_media_unit, "parse.media")), \
            _patched(html_extract, "extract_main_content",
                     tracer.wrap(html_extract.extract_main_content, "parse.html")):
        for name in sorted(os.listdir(input_dir)):
            with tracer.span("read"):
                block = pq.read_table(os.path.join(input_dir, name))
            with tracer.span("explode"):
                units = transforms.explode_docs(block)
            counts["explode.units"] += units.num_rows
            with tracer.span("ocr"):
                bs = cfg.ocr_batch_size
                ocr = pa.concat_tables(
                    [stage(units.slice(i, bs)) for i in range(0, units.num_rows, bs)]
                )
            counts["ocr.pages"] += pc.sum(pc.is_valid(ocr["raw_text"])).as_py() or 0
            counts["ocr.quarantined"] += pc.sum(pc.is_valid(ocr["unit_error"])).as_py() or 0
            counts["ocr.vision_tokens"] += pc.sum(ocr["vision_tokens"]).as_py() or 0
            with tracer.span("parse"):
                parsed = transforms.parse_units(ocr, config=cfg)
            counts["parse.spans_out"] += pc.sum(
                pc.list_value_length(parsed["sub_kinds"])).as_py() or 0
            counts["parse.pages_kept"] += pc.sum(parsed["is_page"]).as_py() or 0
            parsed_blocks.append(parsed)

    out = []
    with tracer.span("assemble"):
        if exchange == "none":
            for p in parsed_blocks:
                counts["assemble.max_group_units"] = max(
                    counts["assemble.max_group_units"], p.num_rows)
                out.append(assemble_bucket(p, config=cfg))
        else:
            n_buckets = 64  # the pipeline's floor for small inputs
            salted = pa.concat_tables(
                [add_salted_bucket(p, n_buckets=n_buckets, salt_span=cfg.salt_span)
                 for p in parsed_blocks]
            )
            partials = []
            for g in _groups(salted, "assembly_bucket"):
                counts["assemble.max_group_units"] = max(
                    counts["assemble.max_group_units"], g.num_rows)
                partials.append(add_doc_bucket(
                    assemble_salted_partials(g, config=cfg), n_buckets=n_buckets))
            for g in _groups(pa.concat_tables(partials), "merge_bucket"):
                out.append(merge_salted_partials(g, config=cfg))
    return out, counts


def kernel_metrics(tracer: Tracer, counts: dict) -> dict:
    """Per-layer numbers of the traced pass.  ``<stage>.self_s`` is the time
    inside that stage's call; the nested model / html / media spans are parts
    of it."""
    ocr, model = tracer.total("ocr"), tracer.total("ocr.model")
    pages = counts["ocr.pages"]
    return {
        "read.self_s": tracer.total("read"),
        "explode.self_s": tracer.total("explode"),
        "explode.units": counts["explode.units"],
        "ocr.self_s": ocr,
        "ocr.model_s": model,
        "ocr.costmodel_s": ocr - model,
        "ocr.pages": pages,
        "ocr.quarantined": counts["ocr.quarantined"],
        "ocr.vision_tokens": counts["ocr.vision_tokens"],
        "parse.self_s": tracer.total("parse"),
        "parse.html_s": tracer.total("parse.html"),
        "parse.media_s": tracer.total("parse.media"),
        "parse.spans_out": counts["parse.spans_out"],
        "parse.pages_kept_ratio": counts["parse.pages_kept"] / pages if pages else 0.0,
        "assemble.self_s": tracer.total("assemble"),
        "assemble.max_group_units": counts["assemble.max_group_units"],
    }
