"""Every name a qtaylor module imports is used in it (the unused-import rule, F401).

The package's __init__ imports to re-export, so it is not scanned.  An import kept for
another module's sake is listed in KEPT with its reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qtaylor"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

KEPT = {
    ("kernel", "qpoch_infinite"): "bench/test_bench.py checks this import site",
}


def imported_and_used(tree: ast.Module) -> tuple[dict, set]:
    """The names the module's imports bind (name -> line) and the names it reads."""
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    imported, used = imported_and_used(ast.parse((SRC / f"{module}.py").read_text()))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used and (module, name) not in KEPT)
    assert not unused, f"{module} imports but never uses: {', '.join(unused)}"


def test_kept_imports_are_still_imported():
    for module, name in KEPT:
        imported, _ = imported_and_used(ast.parse((SRC / f"{module}.py").read_text()))
        assert name in imported, f"{module} no longer imports {name}: drop it from KEPT"
