"""Every module-level import of the package is used by its module.

The package's ``__init__`` imports to export, so it is not checked, and
``from __future__`` imports change the compiler, not the namespace. A name
counts as used where it is read as a name, including the base of an
attribute, and where it appears in a string annotation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adlift"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level import binds, with the import's line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.returns]
    trees = [tree] + [ast.parse(node.value, mode="eval")
                      for annotation in annotations for node in ast.walk(annotation)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def test_an_unused_import_is_found():
    tree = ast.parse("from dataclasses import dataclass, field\nimport os.path\n"
                     "import numpy as np\n\n@dataclass\nclass A:\n"
                     "    x: 'np.ndarray'\n")
    assert {name for name in imported_names(tree) if name not in used_names(tree)} \
        == {"field", "os"}
