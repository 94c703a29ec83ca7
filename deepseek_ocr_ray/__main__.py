"""CLI driver — the ``ray job submit`` entry point.

    python -m deepseek_ocr_ray extract   --input DIR --output DIR [--resume]
    python -m deepseek_ocr_ray synth     --output DIR --docs N [--partitions P]

``extract`` runs the checkpointed partition loop (state/checkpoint.py): each
``part={pid}`` input directory is processed as one streaming pipeline, its
output written atomically with a lineage manifest; a rerun (--resume is the
default behavior) skips completed partitions — submit the same command again
after a crash and it continues where it stopped.

This script OWNS its Ray session (guarded — under ``ray job submit`` the
cluster connection already exists).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(address="local", **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_extract(args: argparse.Namespace) -> int:
    _ensure_ray(args.num_cpus)
    from .config import PipelineConfig
    from .state.checkpoint import run_checkpointed

    from .config import PROMPT_MODES

    mode_cfg = PROMPT_MODES.get(args.prompt_mode, {})
    if mode_cfg.get("requires_input") and not args.prompt_text:
        print(
            f"error: --prompt-mode {args.prompt_mode} requires --prompt-text",
            file=sys.stderr,
        )
        return 2
    cfg = PipelineConfig(
        resolution=args.resolution,
        prompt_mode=args.prompt_mode,
        prompt_text=args.prompt_text,
    )
    summary = run_checkpointed(args.input, args.output, cfg)
    print(json.dumps(summary, indent=1, default=str))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .schema import write_interleaved

    paths = write_interleaved(
        args.output, args.docs, seed=args.seed, num_partitions=args.partitions
    )
    print(json.dumps({"partitions": len(paths), "docs": args.docs}))
    return 0


def cmd_export_shards(args: argparse.Namespace) -> int:
    _ensure_ray(args.num_cpus)
    import ray.data

    from .pipelines.analytics import export_shards

    ds = ray.data.read_parquet(args.input, columns=args.columns or None)
    manifest = export_shards(
        ds,
        args.output,
        id_col=args.id_col,
        n_shards=args.shards,
        salt=args.salt,
        method=args.method,
    )
    print(
        json.dumps(
            {
                "shards": manifest.num_rows,
                "rows": sum(manifest["n_rows"].to_pylist()),
                "skipped": sum(
                    1 for s in manifest["skipped"].to_pylist() if s
                ),
            }
        )
    )
    return 0


def cmd_scrub_dups(args: argparse.Namespace) -> int:
    _ensure_ray(args.num_cpus)
    import ray.data

    if args.checkpointed:
        from .state.checkpoint import run_scrub_checkpointed

        summary = run_scrub_checkpointed(
            args.input, args.output,
            ngram=args.ngram, min_count=args.min_count,
        )
        print(
            json.dumps(
                {
                    "computed": summary["computed"],
                    "skipped": summary["skipped"],
                    "docs": summary["total_docs"],
                }
            )
        )
        return 0
    from .pipelines.curation import substring_dup_scrub_ds

    ds = ray.data.read_parquet(args.input, columns=["doc_id", "text"])
    out = substring_dup_scrub_ds(ds, ngram=args.ngram, min_count=args.min_count)
    out.write_parquet(args.output)
    print(json.dumps({"output": args.output, "ngram": args.ngram}))
    return 0


def cmd_line_dedup(args: argparse.Namespace) -> int:
    """C4-style corpus-wide line dedup: keep only the first occurrence of
    any duplicated line, rebuild documents, write parquet + a one-line
    summary."""
    _ensure_ray(args.num_cpus)
    import ray.data

    from .pipelines.curation import line_dedup_scrub_ds

    ds = ray.data.read_parquet(args.input, columns=["doc_id", "text"])
    out = line_dedup_scrub_ds(ds).materialize()
    stats = out.map_batches(
        lambda b: b.select(["n_lines", "n_dropped_lines"]),
        batch_format="pyarrow",
    )
    total_lines = stats.sum("n_lines")
    dropped = stats.sum("n_dropped_lines")
    out.write_parquet(args.output)
    print(
        json.dumps(
            {
                "output": args.output,
                "docs": out.count(),
                "lines": int(total_lines or 0),
                "dropped_lines": int(dropped or 0),
            }
        )
    )
    return 0


def cmd_quality_filter(args: argparse.Namespace) -> int:
    """Run the composed quality filter (Gopher rules ∧ stop-token floor ∧
    corpus-LM floor) over a ``documents.parquet`` corpus directory and
    write the surviving documents (all original columns) as parquet."""
    _ensure_ray(args.num_cpus)
    from .cluster import equi_join
    from .pipelines.analytics import read_table
    from .pipelines.curation import corpus_quality_filter

    flags = corpus_quality_filter(
        args.input,
        min_stop_ppm=args.min_stop_ppm,
        min_lm_ppm=args.min_lm_ppm,
    )
    kept_ids = flags.filter(expr="quality_pass == 1").select_columns(
        ["doc_id"]
    )
    docs = read_table(args.input, "documents")
    kept = equi_join(
        docs,
        kept_ids,
        on="doc_id",
        join_type="left_semi",
    )
    kept.write_parquet(args.output)
    n_kept = kept.count()
    n_total = docs.count()
    print(
        json.dumps(
            {"output": args.output, "kept": n_kept, "total": n_total}
        )
    )
    return 0


def cmd_bpe_train(args: argparse.Namespace) -> int:
    """Train character-BPE merges over a ``documents.parquet`` corpus dir
    (one word-frequency exchange + the driver merge loop), write the rank-
    ordered merge table as parquet, optionally encode the corpus and
    report token totals."""
    _ensure_ray(args.num_cpus)
    from .pipelines.curation import bpe_encode_stats, bpe_train_merges

    merges = bpe_train_merges(
        args.input, n_merges=args.merges, min_count=args.min_count
    )
    merges.write_parquet(args.output)
    # the merge table is ≤ n_merges rows — reuse it for the encode pass
    # instead of paying the word-count exchange + merge loop again
    rows = merges.take_all()
    summary = {"output": args.output, "merges": len(rows)}
    if args.encode_stats:
        enc = bpe_encode_stats(
            args.input,
            merges=[
                (r["left"], r["right"], r["pair_count"]) for r in rows
            ],
        )
        summary["char_tokens"] = int(enc.sum("n_char_tokens") or 0)
        summary["bpe_tokens"] = int(enc.sum("n_bpe_tokens") or 0)
    print(json.dumps(summary))
    return 0




def cmd_compact(args: argparse.Namespace) -> int:
    """Re-pack a fragmented parquet directory into ~target-byte files
    (state/compact.py — idempotent, atomic, never deletes the source)."""
    _ensure_ray(args.num_cpus)
    from .state.compact import compact_parquet

    out = compact_parquet(
        args.input, args.output, target_bytes=args.target_mb * (1 << 20)
    )
    print(json.dumps({"output": out}))
    return 0


def cmd_zorder(args: argparse.Namespace) -> int:
    """Morton-cluster a parquet directory by two integer columns and
    build the zone map over the result (state/zorder.py + zonemap)."""
    _ensure_ray(args.num_cpus)
    import ray.data

    from .state.zonemap import build_zonemap
    from .state.zorder import zorder_write

    ds = ray.data.read_parquet(args.input)
    zorder_write(ds, [args.col1, args.col2], args.output, n_files=args.files)
    manifest = build_zonemap(args.output, [args.col1, args.col2])
    print(json.dumps({"output": args.output, "zonemap": manifest}))
    return 0


def cmd_quality_audit(args: argparse.Namespace) -> int:
    """Run the not-null / range / unique constraint checks against a
    parquet table and print the data card (state/quality.py)."""
    _ensure_ray(args.num_cpus)
    import ray.data

    from .state.quality import (
        check_not_null,
        check_range,
        check_unique,
        quality_audit,
    )

    ds = ray.data.read_parquet(args.input)
    checks = []
    for col in args.not_null or []:
        checks.append((f"{col}_not_null", (lambda c=col: check_not_null(ds, c))))
    for spec in args.range or []:
        col, lo, hi = spec.split(":")
        checks.append(
            (
                f"{col}_range_{lo}_{hi}",
                (lambda c=col, a=float(lo), b=float(hi): check_range(ds, c, a, b)),
            )
        )
    for cols in args.unique or []:
        keys = cols.split(",")
        checks.append(
            (f"unique_{'_'.join(keys)}", (lambda k=keys: check_unique(ds, k)))
        )
    if not checks:
        print("no checks requested", file=sys.stderr)
        return 2
    card = quality_audit(checks)
    for row in card.to_pylist():
        print(json.dumps(row))
    return 0 if all(r["passed"] for r in card.to_pylist()) else 1


def cmd_drift(args: argparse.Namespace) -> int:
    """Two-sample distribution drift between the same numeric column of
    two parquet tables: exact KS (d_ppm) + Mann-Whitney AUC (auc_ppm)
    from stages/profile.py, printed as one JSON drift card.  Exit 1 when
    ``d_ppm`` exceeds ``--max-d-ppm`` — the CI drift-gate contract."""
    _ensure_ray(args.num_cpus)
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from .stages.profile import ks_two_sample, mann_whitney_u

    scale = float(args.scale)

    def tag(side):
        def fn(batch: pa.Table) -> pa.Table:
            q = pc.cast(
                pc.floor(
                    pc.add(pc.multiply(batch[args.col], scale), 0.5)
                ),
                pa.int64(),
            )
            return pa.table(
                {
                    "v": q,
                    "side": pa.array([side] * batch.num_rows, pa.string()),
                }
            )

        return fn

    a = ray.data.read_parquet(args.input).map_batches(
        tag("a"), batch_format="pyarrow"
    )
    b = ray.data.read_parquet(args.input2).map_batches(
        tag("b"), batch_format="pyarrow"
    )
    ds = a.union(b)
    ks = ks_two_sample(ds, "v", "side", ("a", "b")).to_pylist()[0]
    mw = mann_whitney_u(ds, "v", "side", ("a", "b")).to_pylist()[0]
    card = {
        "col": args.col,
        "scale": scale,
        "n_a": ks["n1"],
        "n_b": ks["n2"],
        "ks_d_ppm": ks["d_ppm"],
        "mw_auc_ppm": mw["auc_ppm"],
        "max_d_ppm": args.max_d_ppm,
        "drifted": bool(
            args.max_d_ppm is not None and ks["d_ppm"] > args.max_d_ppm
        ),
    }
    print(json.dumps(card))
    return 1 if card["drifted"] else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="deepseek_ocr_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("extract", help="checkpointed extraction over a partitioned corpus")
    pe.add_argument("--input", required=True)
    pe.add_argument("--output", required=True)
    from .config import PROMPT_MODES, RESOLUTION_PRESETS

    pe.add_argument(
        "--resolution", default="gundam", choices=sorted(RESOLUTION_PRESETS)
    )
    pe.add_argument(
        "--prompt-mode", default="markdown", choices=sorted(PROMPT_MODES)
    )
    pe.add_argument("--prompt-text", default="", help="for locate/custom modes")
    pe.add_argument(
        "--resume", action="store_true",
        help="resume is the default behavior (completed partitions are "
        "always skipped); flag accepted for explicitness",
    )
    pe.add_argument("--num-cpus", type=int, default=None)
    pe.set_defaults(fn=cmd_extract)

    ps = sub.add_parser("synth", help="write a deterministic synthetic corpus")
    ps.add_argument("--output", required=True)
    ps.add_argument("--docs", type=int, default=1000)
    ps.add_argument("--seed", type=int, default=42)
    ps.add_argument("--partitions", type=int, default=8)
    ps.set_defaults(fn=cmd_synth)

    px = sub.add_parser(
        "export-shards",
        help="deterministic resumable shuffle of a parquet table into "
        "training shards (re-submit after a crash: finished shards skip)",
    )
    px.add_argument("--input", required=True, help="parquet file or dir")
    px.add_argument("--output", required=True)
    px.add_argument("--id-col", default="doc_id")
    px.add_argument("--shards", type=int, required=True)
    px.add_argument("--salt", default="sh42", help="epoch salt — one per epoch")
    px.add_argument("--method", default="fast", choices=["fast", "md5"])
    px.add_argument("--columns", nargs="*", default=None)
    px.add_argument("--num-cpus", type=int, default=None)
    px.set_defaults(fn=cmd_export_shards)

    pd = sub.add_parser(
        "scrub-dups",
        help="remove corpus-wide duplicated substring spans (Lee et al.)",
    )
    pd.add_argument("--input", required=True)
    pd.add_argument("--output", required=True)
    pd.add_argument("--ngram", type=int, default=5)
    pd.add_argument("--min-count", dest="min_count", type=int, default=2)
    pd.add_argument(
        "--checkpointed", action="store_true",
        help="input is a part=* layout; land partitions atomically with "
        "manifests and skip finished ones on rerun",
    )
    pd.add_argument("--num-cpus", dest="num_cpus", type=int, default=None)
    pd.set_defaults(fn=cmd_scrub_dups)

    pl = sub.add_parser(
        "line-dedup",
        help="C4-style corpus-wide line dedup (keep first occurrence, "
        "rebuild documents)",
    )
    pl.add_argument("--input", required=True)
    pl.add_argument("--output", required=True)
    pl.add_argument("--num-cpus", dest="num_cpus", type=int, default=None)
    pl.set_defaults(fn=cmd_line_dedup)

    pq_ = sub.add_parser(
        "quality-filter",
        help="keep documents passing the composed quality filter "
        "(Gopher rules + stop-token floor + corpus-LM floor)",
    )
    pq_.add_argument("--input", required=True,
                     help="corpus dir containing documents.parquet")
    pq_.add_argument("--output", required=True)
    pq_.add_argument("--min-stop-ppm", dest="min_stop_ppm", type=int,
                     default=200_000)
    pq_.add_argument("--min-lm-ppm", dest="min_lm_ppm", type=int,
                     default=34_000)
    pq_.add_argument("--num-cpus", dest="num_cpus", type=int, default=None)
    pq_.set_defaults(fn=cmd_quality_filter)

    pbt = sub.add_parser(
        "bpe-train",
        help="train character-BPE merges over a documents corpus "
        "(one corpus exchange; merge loop on the reduced word counts)",
    )
    pbt.add_argument("--input", required=True,
                     help="corpus dir containing documents.parquet")
    pbt.add_argument("--output", required=True)
    pbt.add_argument("--merges", type=int, default=256)
    pbt.add_argument("--min-count", dest="min_count", type=int, default=1)
    pbt.add_argument(
        "--encode-stats", dest="encode_stats", action="store_true",
        help="also greedy-encode the corpus and print token totals",
    )
    pbt.add_argument("--num-cpus", dest="num_cpus", type=int, default=None)
    pbt.set_defaults(fn=cmd_bpe_train)

    pc_ = sub.add_parser("compact", help="re-pack small parquet files")
    pc_.add_argument("--input", required=True)
    pc_.add_argument("--output", required=True)
    pc_.add_argument("--target-mb", type=int, default=128)
    pc_.add_argument("--num-cpus", type=int, default=None)
    pc_.set_defaults(fn=cmd_compact)

    pz = sub.add_parser("zorder", help="Morton-cluster by two columns + zone map")
    pz.add_argument("--input", required=True)
    pz.add_argument("--output", required=True)
    pz.add_argument("--col1", required=True)
    pz.add_argument("--col2", required=True)
    pz.add_argument("--files", type=int, default=32)
    pz.add_argument("--num-cpus", type=int, default=None)
    pz.set_defaults(fn=cmd_zorder)

    pdr = sub.add_parser(
        "drift", help="two-sample KS/MW drift card between two tables"
    )
    pdr.add_argument("--input", required=True, help="baseline parquet")
    pdr.add_argument("--input2", required=True, help="candidate parquet")
    pdr.add_argument("--col", required=True, help="numeric column")
    pdr.add_argument(
        "--scale", default=100, type=float, help="quantizer (100 = cents)"
    )
    pdr.add_argument(
        "--max-d-ppm",
        type=int,
        default=None,
        help="exit 1 when the KS d_ppm exceeds this",
    )
    pdr.add_argument("--num-cpus", type=int, default=None)
    pdr.set_defaults(fn=cmd_drift)

    pqa = sub.add_parser("quality-audit", help="constraint checks -> data card")
    pqa.add_argument("--input", required=True)
    pqa.add_argument("--not-null", action="append", metavar="COL")
    pqa.add_argument("--range", action="append", metavar="COL:LO:HI")
    pqa.add_argument("--unique", action="append", metavar="COL[,COL...]")
    pqa.add_argument("--num-cpus", type=int, default=None)
    pqa.set_defaults(fn=cmd_quality_audit)

    args = p.parse_args(argv)
    rc = args.fn(args)
    import ray

    if ray.is_initialized():
        ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
