"""One benchmark run: generate inputs, check the oracle, set up Ray, time passes.

Run through ``perfbench/run.py``, which owns the deadline and the teardown.
Prints the result JSON as its last stdout line and writes an artifact (input
stats, host record, every pass, metrics) and, with ``--trace 1``, the spans
under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUM_CPUS = 4
PASS_DEADLINE_S = 90.0

QUERIES = [
    "q1_pricing", "q2_min_cost_supplier", "q3_shipping", "q5_local_volume",
    "q7_nation_volume", "q9_profit_by_nation", "q21_waiting_suppliers",
    "doc_token_weight_join",
]
# tables each query scans, for units_per_s (input rows per second)
QUERY_TABLES = {
    "q1_pricing": ["lineitem"],
    "q2_min_cost_supplier": ["supplier", "nation", "region", "lineitem", "part"],
    "q3_shipping": ["customer", "orders", "lineitem"],
    "q5_local_volume": ["customer", "orders", "lineitem", "supplier", "nation", "region"],
    "q7_nation_volume": ["supplier", "lineitem", "orders", "customer", "nation"],
    "q9_profit_by_nation": ["part", "supplier", "lineitem", "orders", "nation"],
    "q21_waiting_suppliers": ["supplier", "lineitem", "orders", "nation"],
    "doc_token_weight_join": ["documents"],
}

# Ray Data operator name -> pipeline stage, first match wins
_OP_STAGES = [
    ("ReadParquet", "read"),
    ("OcrStage", "explode_ocr"),
    ("parse_units", "parse"),
    ("Sort", "sort"),
    ("assemble", "assemble"),
    ("merge_salted", "assemble"),
]


def host_record() -> dict:
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i & 7
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_cpus": NUM_CPUS,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "calibration_loop_s": time.perf_counter() - t0,
    }


class ExecutorLog:
    """Records every ``StreamingExecutor.execute`` call (one executor launch)."""

    def __init__(self):
        self.executors: list = []

    def install(self):
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        original = StreamingExecutor.execute
        log = self

        def execute(executor, *args, **kwargs):
            log.executors.append(executor)
            return original(executor, *args, **kwargs)

        StreamingExecutor.execute = execute

    def take(self) -> tuple[list, int]:
        """Operator summaries of the executors launched since the last take."""
        done, self.executors = self.executors, []
        ops = []
        for ex in done:
            stats = ex.get_stats()
            if stats is not None:
                ops += _operators(stats.to_summary())
        return ops, len(done)


def _operators(summary) -> list:
    """Operator summaries of one execution, upstream (parent) operators too."""
    ops = list(summary.operators_stats)
    for parent in summary.parents:
        ops += _operators(parent)
    return ops


class CallCounter:
    """Counts calls of a package function, wherever a module bound it."""

    def __init__(self, module, name: str):
        self.n = 0
        original = getattr(module, name)

        def counted(*args, **kwargs):
            self.n += 1
            return original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("deepseek_ocr_ray") and \
                    getattr(mod, name, None) is original:
                setattr(mod, name, counted)


def op_metrics(ops: list) -> dict:
    out = {}
    for op in ops:
        stage = next((s for key, s in _OP_STAGES if key in op.operator_name), None)
        # the Sort exchange reports its work only through its sub-operators
        if stage is None or (op.is_sub_operator and stage != "sort"):
            continue
        wall = op.wall_time or {}
        rows = op.task_rows or {}
        size = op.output_size_bytes or {}
        m = out.setdefault(stage, {"wall_s": 0.0, "remote_s": 0.0, "tasks": 0, "out_mb": 0.0})
        m["wall_s"] += op.time_total_s or 0.0
        m["remote_s"] += wall.get("sum", 0.0)
        m["tasks"] += rows.get("count", 0)
        m["out_mb"] += size.get("sum", 0) / 2**20
    return out


def heap_peak_mb(ops: list) -> float:
    return max((op.memory or {}).get("max", 0.0) for op in ops) if ops else 0.0


def start_ray(tmp_dir: str):
    import ray
    from ray.data import DataContext

    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    kwargs = {}
    # unix socket paths under the temp dir must stay below ~107 bytes
    if len(tmp_dir) <= 40:
        kwargs["_temp_dir"] = tmp_dir
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 2**20,
        **kwargs,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def wait_idle(timeout_s: float = 30.0) -> float:
    """Collect the last pass's Dataset objects, then wait until their actors
    have released every CPU, so no pass starts while the previous actor pool
    still holds the cluster.  Returns the seconds waited."""
    import ray

    t0 = time.perf_counter()
    gc.collect()
    while ray.available_resources().get("CPU", 0) < NUM_CPUS:
        if time.perf_counter() - t0 > timeout_s:
            break
        time.sleep(0.05)
    return time.perf_counter() - t0


def run_with_deadline(fn, deadline_s: float):
    """Run ``fn`` in a thread; return (result, error) or raise TimeoutError."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as exc:  # reported as a failed operation
            box["error"] = exc

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(deadline_s)
    if th.is_alive():
        raise TimeoutError(f"pass exceeded {deadline_s:.0f} s")
    return box.get("result"), box.get("error")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Extraction:
    def __init__(self, workload: str, seed: int, out_dir: str):
        from deepseek_ocr_ray.config import PipelineConfig

        import gen
        import oracle

        self.cfg = PipelineConfig()
        self.exchange = gen.EXTRACT_WORKLOADS[workload]["exchange"]
        self.input_dir = os.path.join(out_dir, "input")
        docs = gen.make_docs(workload, seed)
        self.input_stats = gen.write_docs(docs, self.input_dir)
        self.warm_dir = os.path.join(out_dir, "warm")
        gen.write_docs(docs[::8], self.warm_dir)
        self.expected = oracle.expected_digests(ROOT, docs, self.cfg)
        self.work = {"docs": self.input_stats["docs"], "units": self.input_stats["units"],
                     "pages": self.input_stats["pages"]}

    def _run(self, path: str):
        from deepseek_ocr_ray.pipelines.extract import extract_path

        ds = extract_path(path, self.cfg, exchange=self.exchange)
        return list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))

    def warm_up(self):
        self._run(self.warm_dir)

    def timed_pass(self):
        t0 = time.perf_counter()
        tables = self._run(self.input_dir)
        return time.perf_counter() - t0, tables, {}

    def check(self, tables) -> bool:
        import oracle

        return oracle.extraction_matches(self.expected, tables)

    def traced(self, tracer) -> tuple[dict, bool]:
        import tracing

        out, counts = tracing.traced_extract(self.input_dir, self.cfg, self.exchange, tracer)
        return tracing.kernel_metrics(tracer, counts), self.check(out)


class QueriesJoin:
    def __init__(self, workload: str, seed: int, out_dir: str):
        import gen
        import oracle

        import __ray_entry__

        self.tables_dir = os.path.join(out_dir, "tables")
        tables = gen.make_tables(seed)
        self.input_stats = gen.write_tables(tables, self.tables_dir)
        sql = __ray_entry__.oracle_sql()
        self.queries = __ray_entry__.queries()
        self.expected = oracle.duckdb_results({q: sql[q] for q in QUERIES}, self.tables_dir)
        rows = {n: t.num_rows for n, t in tables.items()}
        self.work = {"docs": len(QUERIES),
                     "units": sum(rows[t] for q in QUERIES for t in QUERY_TABLES[q])}
        self.executor_log = None

    def _one(self, name: str):
        import pyarrow as pa
        import ray.data

        from deepseek_ocr_ray.cluster import collect_table

        res = self.queries[name](self.tables_dir)
        if isinstance(res, ray.data.Dataset):
            res = collect_table(res)
        if isinstance(res, pa.Table):
            res = res.to_pandas()
        return res

    def warm_up(self):
        self._one(QUERIES[0])

    def timed_pass(self):
        results, per_query = {}, {}
        t_pass = time.perf_counter()
        for name in QUERIES:
            n0 = len(self.executor_log.executors)
            t0 = time.perf_counter()
            results[name] = self._one(name)
            per_query[name] = {"wall_s": time.perf_counter() - t0,
                               "launches": len(self.executor_log.executors) - n0}
        return time.perf_counter() - t_pass, results, per_query

    def check(self, results) -> bool:
        import oracle

        return all(
            oracle.frames_match(oracle.canon(results[q]), self.expected[q])
            for q in QUERIES
        )



# ---------------------------------------------------------------------------


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    out_root = os.path.join(ROOT, ".perfbench_out")
    run_dir = os.path.join(out_root, f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(run_dir, exist_ok=True)

    host = host_record()
    t_gen = time.perf_counter()
    cls = QueriesJoin if args.workload == "queries_join" else Extraction
    w = cls(args.workload, args.seed, run_dir)
    gen_s = time.perf_counter() - t_gen

    attempted = failed = 0
    layer = {}
    tracer = None
    if args.trace and cls is Extraction:
        import tracing

        tracer = tracing.Tracer()
        layer, ok = w.traced(tracer)
        attempted += 1
        failed += not ok

    import ray

    log = ExecutorLog()
    log.install()
    w.executor_log = log
    counters = {}
    t0 = time.perf_counter()
    start_ray(os.path.join(out_root, "ray"))
    w.warm_up()
    setup_s = time.perf_counter() - t0
    log.take()
    if args.trace and args.workload == "queries_join":
        from deepseek_ocr_ray import cluster

        counters = {
            "queries.equi_join_calls": CallCounter(cluster, "equi_join"),
            "queries.collects": CallCounter(cluster, "arrow_block_refs"),
        }

    passes = []
    hung = False
    n_timed = 0
    t_start = time.perf_counter()
    while n_timed == 0 or time.perf_counter() - t_start < args.seconds:
        n_timed += 1
        attempted += 1
        idle_wait_s = wait_idle()
        try:
            res, err = run_with_deadline(w.timed_pass, PASS_DEADLINE_S)
        except TimeoutError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            failed += 1
            hung = True
            break
        if err is not None:
            print(f"perfbench: pass failed: {err!r}", file=sys.stderr)
            failed += 1
            continue
        wall, out, per_query = res
        ops, launches = log.take()
        ok = w.check(out)
        failed += not ok
        passes.append({"wall_s": wall, "idle_wait_s": idle_wait_s, "ok": ok,
                       "launches": launches,
                       "heap_peak_mb": heap_peak_mb(ops), "ops": op_metrics(ops),
                       "queries": per_query})
    if hung:
        # the stuck pass still holds the Ray session; run.py force-stops it
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}), flush=True)
        os._exit(1)
    ray.shutdown()

    if not passes:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    walls = [p["wall_s"] for p in passes]
    med = statistics.median
    spec = load_spec()
    if args.trace:
        metrics = dict(layer)
        for stage in {s for _, s in _OP_STAGES}:
            for key in ("wall_s", "remote_s", "tasks", "out_mb"):
                metrics[f"op.{stage}.{key}"] = med(
                    [p["ops"].get(stage, {}).get(key, 0) for p in passes])
        remote = med([sum(o["remote_s"] for o in p["ops"].values()) for p in passes])
        if layer:
            kernel = sum(layer[k] for k in ("read.self_s", "explode.self_s",
                                             "ocr.self_s", "parse.self_s",
                                             "assemble.self_s"))
            metrics["engine.task_overhead_s"] = remote - kernel
            metrics["engine.idle_frac"] = 1 - remote / (med(walls) * NUM_CPUS)
        if args.workload == "queries_join":
            for q in QUERIES:
                metrics[f"q.{q}.wall_s"] = med([p["queries"][q]["wall_s"] for p in passes])
                metrics[f"q.{q}.launches"] = passes[0]["queries"][q]["launches"]
            metrics["queries.launches"] = passes[0]["launches"]
            for name, c in counters.items():
                metrics[name] = c.n // len(passes)
        # a layer the workload never reaches reads 0
        result_metrics = {
            m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            "docs_per_s": med([w.work["docs"] / x for x in walls]),
            "units_per_s": med([w.work["units"] / x for x in walls]),
            "pass_s": med(walls),
            "setup_s": setup_s,
            "heap_peak_mb": max(p["heap_peak_mb"] for p in passes),
        }
        result_metrics = {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    artifact = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host, "input": w.input_stats, "gen_s": gen_s, "setup_s": setup_s,
        "passes": passes, "result": result,
    }
    if "pages" in w.work:
        artifact["pages_per_s"] = med([w.work["pages"] / x for x in walls])
    with open(os.path.join(run_dir, "artifact.json"), "w") as f:
        json.dump(artifact, f, indent=1, default=float)
    if tracer is not None:
        with open(os.path.join(run_dir, "spans.json"), "w") as f:
            json.dump(tracer.spans, f)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
