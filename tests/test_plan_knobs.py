"""Plan choice belongs to the engine: no package function takes a
plan-forcing parameter, the pipeline config has one ``partition_id``
rule, and no code reads the environment except the triangle broadcast
budget.  Tests force a plan by monkeypatching the
module constant or decision function a site reads at call time."""

from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "deepseek_ocr_ray"

# plan-forcing parameters that were removed in favour of module budgets
REMOVED_KNOBS = {
    "broadcast_threshold",
    "drop_broadcast_threshold",
    "pair_plan",
    "local_max_pairs",
    "local_max_bytes",
    "local_threshold",
    "probe",
    "finish",
    "cache_max_bytes",
    "broadcast_max_bytes",
    # alternate plans deleted with the option that selected them
    "plan",
    "verify",
    "carry_text",
}

# ``strategy`` survives only as equi_join's lazy-exchange override
STRATEGY_ALLOWED = {("cluster.py", "equi_join")}


def _modules():
    for path in sorted(PKG.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _arg_names(fn) -> list[str]:
    a = fn.args
    names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
    names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
    return names


def test_no_def_takes_a_plan_forcing_parameter():
    bad = []
    for path, tree in _modules():
        rel = path.relative_to(PKG).as_posix()
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            name = getattr(node, "name", "<lambda>")
            for arg in _arg_names(node):
                if arg in REMOVED_KNOBS or (
                    arg == "strategy"
                    and (path.name, name) not in STRATEGY_ALLOWED
                ):
                    bad.append(f"{rel}:{node.lineno} {name}({arg}=...)")
    assert not bad, "plan-forcing parameters are back: " + ", ".join(bad)


def test_pipeline_config_has_one_partition_id_rule():
    """``partition_id`` is the md5 rule the reference oracle pins; a
    second hash mode must not come back as a config field."""
    import dataclasses

    from deepseek_ocr_ray.config import PipelineConfig

    names = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert "partition_id_mode" not in names


def _reads_environment(node) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in ("environ", "getenv"):
            return True
        if isinstance(sub, ast.ImportFrom) and sub.module == "os" and any(
            a.name in ("environ", "getenv") for a in sub.names
        ):
            return True
    return False


def _is_triangle_budget(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "_TRIANGLE_BROADCAST_MAX_EDGES"
        for t in stmt.targets
    )


def test_environment_read_only_for_the_triangle_budget():
    readers = []
    for path, tree in _modules():
        rel = path.relative_to(PKG).as_posix()
        for stmt in tree.body:
            if not _reads_environment(stmt):
                continue
            if rel == "stages/graph.py" and _is_triangle_budget(stmt):
                continue
            readers.append(f"{rel}:{stmt.lineno}")
    assert not readers, "environment reads outside the triangle budget: " + (
        ", ".join(readers)
    )


def test_guard_sees_the_triangle_budget():
    """The allowed environment read exists, so the guard above is live."""
    tree = ast.parse((PKG / "stages" / "graph.py").read_text())
    assert any(
        _is_triangle_budget(s) and _reads_environment(s) for s in tree.body
    )
