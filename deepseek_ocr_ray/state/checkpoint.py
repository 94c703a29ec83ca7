"""Per-partition checkpointing: lineage manifests + idempotent resume.

The reference has no resume story — a crashed run reruns from scratch
(nearest analogs: timestamped output dirs app/processors.py:412 and a
watch-restart signal file gradio_vllm_demo.py:1724-1733).  At 10^12 docs a
run *will* be interrupted, so the engine processes the corpus one hash
partition at a time:

    <input_root>/part={pid}/...          # input layout (Lance fragments /
                                         # parquet dirs; schema.write_interleaved)
    <out_root>/part={pid}/*.parquet      # output, written atomically
    <out_root>/_ckpt/partition={pid}.json  # completion manifest

A manifest records lineage (input fingerprint, config fingerprint, engine
version) and metrics (rows in/out, spans, wall seconds, docs/s, bytes
written).  On resume, partitions whose manifest matches the current input +
config fingerprints are skipped; everything else is (re)computed and the
output directory replaced atomically (write to temp dir, rename) — reruns
are idempotent overwrites, never appends.

Each partition run is a full streaming Dataset pipeline using the whole
cluster; the partition loop is the unit of resume, not of parallelism.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from dataclasses import asdict

from ..config import PipelineConfig


def _fingerprint_dir(path: str) -> str:
    """Cheap deterministic input fingerprint: relative names + sizes +
    mtime_ns, so a same-size in-place overwrite still invalidates resume."""
    entries = []
    for root, _, files in os.walk(path):
        for f in sorted(files):
            p = os.path.join(root, f)
            st = os.stat(p)
            entries.append((os.path.relpath(p, path), st.st_size, st.st_mtime_ns))
    entries.sort()
    return hashlib.md5(json.dumps(entries).encode()).hexdigest()


def config_fingerprint(config: PipelineConfig) -> str:
    d = {k: v for k, v in asdict(config).items()}
    return hashlib.md5(json.dumps(d, sort_keys=True, default=str).encode()).hexdigest()


def run_fingerprint(
    config: PipelineConfig,
    exchange: str = "none",
    output_format: str = "parquet",
) -> str:
    """Lineage fingerprint of a run: config + assembly exchange mode +
    output format (all three affect the bytes on disk and must invalidate
    resume skips)."""
    return hashlib.md5(
        (config_fingerprint(config) + ":" + exchange + ":" + output_format)
        .encode()
    ).hexdigest()


def _write_output(ds, path: str, output_format: str) -> None:
    """Write one partition's output.  ``parquet`` is the default;
    ``lance`` (the production system of record per the north rule) is
    import-gated — the sandbox lacks the library, so the path is exercised
    by ``pytest.importorskip`` round-trip/resume tests."""
    if output_format == "parquet":
        ds.write_parquet(path)
    elif output_format == "lance":
        try:
            import lance  # noqa: F401
        except ImportError as e:
            raise ImportError(
                "output_format='lance' requires the 'pylance' package "
                "(pip install pylance)"
            ) from e
        ds.write_lance(path)
    else:
        raise ValueError(f"unknown output_format {output_format!r}")


def _partition_stats(
    final_dir: str, output_format: str, sum_col: str = "n_spans"
) -> tuple[int, int, int]:
    """(n_docs, sum(sum_col), output_bytes) of a written partition dir."""
    import pyarrow.compute as pc

    out_bytes = 0
    for root, _, files in os.walk(final_dir):
        for f in files:
            out_bytes += os.path.getsize(os.path.join(root, f))
    if output_format == "lance":
        import lance

        lds = lance.dataset(final_dir)
        n_docs = lds.count_rows()
        spans_tbl = lds.to_table(columns=[sum_col])
    else:
        import pyarrow.parquet as pq

        n_docs = 0
        for f in os.listdir(final_dir):
            n_docs += pq.ParquetFile(os.path.join(final_dir, f)).metadata.num_rows
        spans_tbl = pq.read_table(final_dir, columns=[sum_col])
    n_spans = pc.sum(spans_tbl[sum_col]).as_py() or 0
    return n_docs, int(n_spans), out_bytes


def manifest_path(out_root: str, pid: int) -> str:
    return os.path.join(out_root, "_ckpt", f"partition={pid}.json")


def load_manifest(out_root: str, pid: int) -> dict | None:
    p = manifest_path(out_root, pid)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def is_complete(out_root: str, input_root: str, pid: int, cfg_fp: str) -> bool:
    m = load_manifest(out_root, pid)
    if m is None:
        return False
    in_dir = os.path.join(input_root, f"part={pid}")
    return (
        m.get("input_fingerprint") == _fingerprint_dir(in_dir)
        and m.get("config_fingerprint") == cfg_fp
        and os.path.isdir(os.path.join(out_root, f"part={pid}"))
    )


def _land_partition(out_root: str, pid: int, tmp_dir: str) -> str:
    """Atomically promote a finished tmp write to ``part={pid}``; a stale
    partial final dir is replaced (idempotent overwrite)."""
    final_dir = os.path.join(out_root, f"part={pid}")
    if os.path.isdir(final_dir):
        shutil.rmtree(final_dir)
    os.rename(tmp_dir, final_dir)
    return final_dir


def _write_manifest(out_root: str, pid: int, manifest: dict) -> None:
    tmp_m = manifest_path(out_root, pid) + ".tmp"
    with open(tmp_m, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp_m, manifest_path(out_root, pid))


def _sweep_tmp_dirs(out_root: str, pids) -> None:
    """Remove orphaned ``.tmp-{pid}-*`` dirs from crashed runs — ONLY for
    partitions this run will process, so two concurrent runs sharing an
    output root over disjoint partition sets can't delete each other's
    in-flight writes.  Overlapping concurrent runs remain single-writer."""
    sweep = {str(p) for p in pids}
    for entry in os.listdir(out_root):
        if entry.startswith(".tmp-") and entry.split("-")[1] in sweep:
            shutil.rmtree(os.path.join(out_root, entry), ignore_errors=True)


def run_checkpointed(
    input_root: str,
    out_root: str,
    config: PipelineConfig | None = None,
    partitions: list[int] | None = None,
    max_partitions: int | None = None,
    exchange: str = "none",
    output_format: str = "parquet",
) -> dict:
    """Process (or resume) a partitioned corpus; returns a run summary.

    ``partitions`` limits which pids to attempt (for tests that simulate a
    crash after k partitions); default = every ``part=*`` dir under
    ``input_root``.  ``max_partitions`` stops after that many *newly
    computed* partitions (another crash-simulation hook).
    """
    from .. import __version__
    from ..pipelines.extract import extract_dataset
    from ..sources.interleaved import list_partitions, read_partition

    cfg = config or PipelineConfig()
    # the exchange mode is execution lineage too: resuming a run under a
    # different mode must recompute, not skip
    cfg_fp = run_fingerprint(cfg, exchange, output_format)
    os.makedirs(os.path.join(out_root, "_ckpt"), exist_ok=True)

    available = set(list_partitions(input_root))
    pids = partitions if partitions is not None else sorted(available)

    # sweep orphaned temp dirs from crashed runs (crash between write and
    # rename leaves a full-partition-sized .tmp-{pid}-* behind) — but ONLY
    # for partitions this run will process, so two concurrent runs sharing
    # an output root over disjoint partition sets can't delete each other's
    # in-flight writes.  Overlapping concurrent runs remain single-writer.
    _sweep_tmp_dirs(out_root, pids)
    missing = [p for p in pids if p not in available]
    if missing:
        raise ValueError(
            f"partitions {missing} not found under {input_root!r} "
            f"(available: {sorted(available)})"
        )
    done, computed, skipped = [], [], []
    for pid in pids:
        if is_complete(out_root, input_root, pid, cfg_fp):
            skipped.append(pid)
            continue
        if max_partitions is not None and len(computed) >= max_partitions:
            break
        in_dir = os.path.join(input_root, f"part={pid}")
        in_fp = _fingerprint_dir(in_dir)
        t0 = time.monotonic()
        ds = read_partition(input_root, pid)
        out = extract_dataset(ds, cfg, exchange=exchange)

        tmp_dir = os.path.join(out_root, f".tmp-{pid}-{uuid.uuid4().hex[:8]}")
        _write_output(out, tmp_dir, output_format)
        wall = time.monotonic() - t0

        final_dir = _land_partition(out_root, pid, tmp_dir)

        n_docs, n_spans, out_bytes = _partition_stats(final_dir, output_format)

        manifest = {
            "partition": pid,
            "output_format": output_format,
            "input_fingerprint": in_fp,
            "config_fingerprint": cfg_fp,
            "engine_version": __version__,
            "docs": n_docs,
            "spans": int(n_spans),
            "wall_sec": round(wall, 3),
            "docs_per_sec": round(n_docs / wall, 2) if wall > 0 else None,
            "output_bytes": out_bytes,
            "completed_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        _write_manifest(out_root, pid, manifest)
        computed.append(pid)
        done.append(manifest)

    return {
        "computed": computed,
        "skipped": skipped,
        "manifests": done,
        "total_docs": sum(m["docs"] for m in done),
    }


def run_scrub_checkpointed(
    input_root: str,
    out_root: str,
    *,
    ngram: int = 5,
    min_count: int = 2,
    partitions: list[int] | None = None,
    max_partitions: int | None = None,
) -> dict:
    """Resumable span-level dedup over a ``part=*`` partitioned documents
    corpus: the GLOBAL duplicated-gram aggregate runs once per invocation
    (it is a function of the whole corpus), then each partition scrubs
    against it — via the broadcast plan or, when the dup set outgrows
    plasma, the planner join plan — and
    lands atomically (tmp + rename) with a lineage manifest.  A rerun
    skips finished partitions.

    Lineage: the config fingerprint embeds (ngram, min_count) AND a
    corpus-level fingerprint over EVERY partition's input — the dup-gram
    set depends on all of them, so changing any input partition
    invalidates every resume skip, not just its own.  The probe plan is
    NOT part of the fingerprint: both plans are byte-identical."""
    import ray.data

    from .. import __version__
    from ..pipelines.curation import (
        _dup_gram_dataset,
        _resolve_probe,
        dup_gram_ref,
        scrub_with_dup_join,
        scrub_with_ref,
    )
    from ..sources.interleaved import list_partitions

    available = set(list_partitions(input_root))
    if not available:
        raise ValueError(
            f"no part=* directories under {input_root!r} — the checkpointed "
            "runner needs a partitioned corpus (drop --checkpointed for a "
            "flat parquet directory)"
        )
    pids = partitions if partitions is not None else sorted(available)
    missing = [p for p in pids if p not in available]
    if missing:
        raise ValueError(
            f"partitions {missing} not found under {input_root!r} "
            f"(available: {sorted(available)})"
        )
    # one fingerprint sweep, reused for the corpus fingerprint, the skip
    # checks, and the manifests (3x metadata I/O otherwise)
    in_fps = {
        p: _fingerprint_dir(os.path.join(input_root, f"part={p}"))
        for p in sorted(available)
    }
    corpus_fp = hashlib.md5(
        ":".join(f"{p}={in_fps[p]}" for p in sorted(available)).encode()
    ).hexdigest()
    cfg_fp = hashlib.md5(
        f"scrub:{ngram}:{min_count}:{corpus_fp}:v{__version__}".encode()
    ).hexdigest()
    os.makedirs(os.path.join(out_root, "_ckpt"), exist_ok=True)
    _sweep_tmp_dirs(out_root, pids)

    def _read(pid: int) -> ray.data.Dataset:
        return ray.data.read_parquet(
            os.path.join(input_root, f"part={pid}"),
            columns=["doc_id", "text"],
        )

    def _is_done(pid: int) -> bool:
        m = load_manifest(out_root, pid)
        return (
            m is not None
            and m.get("input_fingerprint") == in_fps[pid]
            and m.get("config_fingerprint") == cfg_fp
            and os.path.isdir(os.path.join(out_root, f"part={pid}"))
        )

    todo = [p for p in pids if not _is_done(p)]
    skipped = [p for p in pids if p not in set(todo)]
    done, computed = [], []
    scrub_of = None
    if todo:
        # global pass 1 over the WHOLE corpus (not just todo partitions)
        parts = [_read(p) for p in sorted(available)]
        ds_all = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
        dup = _dup_gram_dataset(ds_all, ngram, min_count)
        if _resolve_probe(dup) == "broadcast":
            dup_ref = dup_gram_ref(dup)

            def scrub_of(ds):
                return scrub_with_ref(ds, dup_ref, ngram)
        else:

            def scrub_of(ds):
                return scrub_with_dup_join(ds, dup, ngram)

    for pid in todo:
        if max_partitions is not None and len(computed) >= max_partitions:
            break
        t0 = time.monotonic()
        tmp_dir = os.path.join(out_root, f".tmp-{pid}-{uuid.uuid4().hex[:8]}")
        scrub_of(_read(pid)).write_parquet(tmp_dir)
        wall = time.monotonic() - t0
        final_dir = _land_partition(out_root, pid, tmp_dir)
        n_docs, removed, out_bytes = _partition_stats(
            final_dir, "parquet", sum_col="n_removed"
        )
        manifest = {
            "partition": pid,
            "kind": "scrub",
            "ngram": ngram,
            "min_count": min_count,
            "input_fingerprint": in_fps[pid],
            "config_fingerprint": cfg_fp,
            "engine_version": __version__,
            "docs": n_docs,
            "removed_tokens": removed,
            "wall_sec": round(wall, 3),
            "output_bytes": out_bytes,
            "completed_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        _write_manifest(out_root, pid, manifest)
        computed.append(pid)
        done.append(manifest)

    # docs counts BOTH computed and skipped partitions — a full resume
    # must not read as an empty corpus
    skipped_docs = sum(
        (load_manifest(out_root, p) or {}).get("docs", 0) for p in skipped
    )
    return {
        "computed": computed,
        "skipped": skipped,
        "manifests": done,
        "total_docs": sum(m["docs"] for m in done) + skipped_docs,
    }
