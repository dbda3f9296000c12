"""The package has no runtime dependencies: every absolute import in its
sources names a standard-library module, whatever else is installed.  Nor
does importing it load ``dataclasses``, whose class decoration generates
and compiles code at every import.  And every function the benchmark's
tracer wraps still exists under the name it wraps."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SOURCES = sorted((SRC / "nanocob").glob("*.py"))


def absolute_imports(path: Path) -> set[str]:
    """Top-level module names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_import_only_the_standard_library():
    assert [p.name for p in SOURCES][:1] == ["__init__.py"]
    foreign = {
        path.name: sorted(absolute_imports(path) - sys.stdlib_module_names) for path in SOURCES
    }
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def test_import_loads_no_dataclasses():
    """Run in a fresh interpreter without site packages, since pytest
    itself imports dataclasses and inspect."""
    script = "import sys, nanocob.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


def test_tracer_targets_resolve():
    """``perfbench/tracer.py`` wraps each of its ``TARGETS`` by looking the
    member up in its module's or class's ``__dict__``, as ``Tracer.install``
    does; a renamed or removed target would break the traced benchmark."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _, _ in tracer.TARGETS:
        module = importlib.import_module(f"nanocob.{module_name}")
        owner, _, member = attr.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        raw = vars(holder).get(member) if holder is not None else None
        if not callable(getattr(raw, "__func__", raw)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
    assert isinstance(importlib.import_module("nanocob.explorer").ALL_SUITES, dict)
