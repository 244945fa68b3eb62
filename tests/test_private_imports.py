"""No module of the package imports or reads another module's private names,
but those allowed below, each with its reason.

A private name starts with "_" and is not a dunder. A module imports one
with ``from .other import _name`` (or ``from adlift.other``), and reads one
as ``other._name`` through a name that ``from . import other`` (or ``from
adlift import other``, or ``import adlift.other as other``) binds. An
allowed name that its module no longer imports or reads fails too, so the
list only shrinks.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adlift"

ALLOWED = {
    ("predictor", "ingest._unsigned_ids"):
        "score_batch reads a batch's ids as unsigned, by the width rule of id_dtype",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """The module of the package that ``node`` imports from: "" for the
    package itself, None for one outside it."""
    name = node.module or ""
    if node.level == 1:
        return name
    if node.level == 0 and name.split(".")[0] == "adlift":
        return name.removeprefix("adlift").removeprefix(".")
    return None


def private_uses(tree: ast.Module) -> set[str]:
    """Each ``module._name`` of another module of the package that ``tree``
    imports or reads."""
    modules, found = {}, set()  # the names bound to modules of the package
    for node in ast.walk(tree):
        module = _package_module(node) if isinstance(node, ast.ImportFrom) else None
        if module is not None:
            for alias in node.names:
                if not module:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.add(f"{module}.{alias.name}")
        elif isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name.removeprefix("adlift."))
                           for alias in node.names
                           if alias.asname and alias.name.startswith("adlift."))
    found.update(f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and _private(node.attr)
                 and isinstance(node.value, ast.Name) and node.value.id in modules)
    return found


def test_no_module_uses_another_modules_private_names():
    uses = {(path.stem, use) for path in sorted(PACKAGE.glob("*.py"))
            for use in private_uses(ast.parse(path.read_text(), filename=str(path)))}
    assert sorted(uses - ALLOWED.keys()) == [], \
        "private names of another module, imported or read"
    assert sorted(ALLOWED.keys() - uses) == [], "allowed names that are no longer used"


def test_a_private_use_is_found():
    # a private name of an object, a dunder, a public name and a private
    # name of a module outside the package are not
    source = ("from __future__ import annotations\n"
              "from .ingest import _Index, open_text\n"
              "from adlift.errors import _Hidden\n"
              "from . import predictor as p, synth\n"
              "import adlift.timeseries as ts\nimport numpy as np\n\n"
              "def f(model):\n"
              "    return (p._scorer, synth.__name__, ts._fit, model._den,\n"
              "            np._private, synth.SynthSpec)\n")
    assert private_uses(ast.parse(source)) == {
        "ingest._Index", "errors._Hidden", "predictor._scorer", "timeseries._fit"}
