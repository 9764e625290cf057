"""What the benchmark holds the program to, checked in the main suite.

bench/spans.py wraps names by module lookup and bench/workload.py calls the
program's functions and reads its config, so deleting or renaming one of
them breaks the benchmark, not the program. These tests read both files
(they change nothing under bench/) and check that every name they use
resolves, and that every call the workload makes still binds to the
signature it calls. They also check that each src module reads every name
it imports, except the names bench/spans.py wraps there, which a module may
import only so that the spans see its calls.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional

import pytest

from curiogrid import explorer, harness, mission, world
from curiogrid.harness import ExperimentConfig, default_config

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = ROOT / "src" / "curiogrid"

# The program modules bench/workload.py reads attributes of, by the names it
# imports them under.
WORKLOAD_MODULES = {"harness": harness, "explorer": explorer, "mission": mission,
                    "world": world}


@pytest.fixture(scope="module")
def targets():
    """bench/spans.py's TARGETS, loaded without writing bytecode under bench/."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(spans)
    finally:
        sys.dont_write_bytecode = dont_write
    return spans.TARGETS


def _attributes(tree: ast.AST, base: str) -> set[str]:
    """The attributes `tree` reads or sets on the bare name `base`."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == base}


def _calls(tree: ast.AST) -> list[tuple[str, Optional[str], ast.Call]]:
    """Each call in `tree` of a bare name, as (name, None, call), or of an
    attribute of a bare name, as (name, attribute, call)."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            out.append((node.func.id, None, node))
        elif isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
            out.append((node.func.value.id, node.func.attr, node))
    return out


def _binds(fn, call: ast.Call) -> bool:
    """Whether `call`'s positional count and keyword names bind to `fn`'s
    signature."""
    assert not any(isinstance(arg, ast.Starred) for arg in call.args)
    assert all(keyword.arg for keyword in call.keywords)
    try:
        inspect.signature(fn).bind(*call.args, **{k.arg: None for k in call.keywords})
    except TypeError:
        return False
    return True


def _unread_imports(tree: ast.AST) -> set[str]:
    """The names a module imports (bar `from __future__`) that it never reads."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    return imported - {node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_span_target_resolves(targets):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_name_the_workload_reads_resolves():
    tree = ast.parse((BENCH / "workload.py").read_text())
    read = sorted((base, attr) for base in WORKLOAD_MODULES for attr in _attributes(tree, base))
    assert ("harness", "run_trial") in read  # the parse sees the workload's calls
    assert [f"{base}.{attr}" for base, attr in read
            if not hasattr(WORKLOAD_MODULES[base], attr)] == []
    cfg = default_config()
    assert [attr for attr in sorted(_attributes(tree, "cfg")) if not hasattr(cfg, attr)] == []
    # the workload derives its configs with dataclasses.replace(cfg, field=...)
    keywords = {keyword.arg for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "replace" for keyword in node.keywords}
    assert keywords and keywords <= {f.name for f in fields(ExperimentConfig)}


def test_every_workload_call_binds():
    # a signature change that keeps the name would pass the test above and
    # fail only the benchmark
    tree = ast.parse((BENCH / "workload.py").read_text())
    owners = dict(WORKLOAD_MODULES, cfg=default_config())
    calls = [(base, attr, call) for base, attr, call in _calls(tree)
             if base in owners and attr is not None]
    assert {("harness", "run_zone_experiment"), ("mission", "run_mission"),
            ("cfg", "sensor_suite")} <= {(base, attr) for base, attr, _ in calls}
    assert [f"line {call.lineno}: {base}.{attr}" for base, attr, call in calls
            if not _binds(getattr(owners[base], attr), call)] == []


def test_src_calls_bind_to_the_run_trial_wrapper():
    # bench/workload.py replaces harness.run_trial with its `checked`
    # wrapper, which calls the saved original
    tree = ast.parse((BENCH / "workload.py").read_text())
    (wrapper,) = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "checked"]
    scope: dict = {}
    exec(compile(ast.Module([wrapper], []), "workload.py", "exec"), scope)
    src_calls = [call for path in sorted(SRC.glob("*.py"))
                 for name, attr, call in _calls(ast.parse(path.read_text()))
                 if (name, attr) == ("run_trial", None)]
    assert src_calls and all(_binds(scope["checked"], call) for call in src_calls)
    saved_calls = [call for name, attr, call in _calls(wrapper)
                   if (name, attr) == ("run_trial", None)]
    assert saved_calls and all(_binds(harness.run_trial, call) for call in saved_calls)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_import_is_read_or_wrapped(path, targets):
    module = importlib.import_module(f"curiogrid.{path.stem}")
    wrapped = {attr for owner, attr, _, _ in targets if owner is module}
    assert _unread_imports(ast.parse(path.read_text())) - wrapped == set()
