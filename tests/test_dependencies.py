"""The package has no runtime dependencies: every absolute import in its
sources names a standard-library module, whatever else is installed.  Nor
does importing it load ``dataclasses``, whose class decoration generates
and compiles code at every import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
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
