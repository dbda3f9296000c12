"""The package has no runtime dependencies: every absolute import in its
sources names a standard-library module, whatever else is installed."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "nanocob").glob("*.py"))


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
