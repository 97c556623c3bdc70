"""Every name a production module imports is read there."""

import ast
from pathlib import Path

import pytest

import nchsolver

MODULES = sorted(path for path in Path(nchsolver.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import of the module (its alias, else its first dotted part) -> line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module loads, annotations included."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_production_modules_are_found():
    assert {"steppers.py", "spectral.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_production_module_has_no_stale_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read_names(tree)
    stale = {name: line for name, line in _imported_names(tree).items() if name not in read}
    assert stale == {}, f"{path.name} imports names it never reads: {stale}"
