"""What the benchmark holds the program to, checked in the main suite.

bench/spans.py wraps names by module lookup and bench/workload.py calls the
program's functions and reads its config, so deleting or renaming one of
them breaks the benchmark, not the program. These tests read both files
(they change nothing under bench/) and check that every name they use
resolves. They also check that each src module reads every name it
imports, except the names bench/spans.py wraps there, which a module may
import only so that the spans see its calls.
"""

import ast
import importlib
import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

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


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_import_is_read_or_wrapped(path, targets):
    module = importlib.import_module(f"curiogrid.{path.stem}")
    wrapped = {attr for owner, attr, _, _ in targets if owner is module}
    assert _unread_imports(ast.parse(path.read_text())) - wrapped == set()
