"""Every module-level definition and public method of the package is named
by some other line of the package.

A name counts as named where the code reads it (as a name, an attribute, an
import or a string annotation) on any line of ``src/adlift`` but its own
definition's, the package's ``__init__`` exports included; comments and
docstrings do not count. Dunder names are not checked, nor a method that
overrides one of a base class, which the base calls. A name that only code
outside the package reads must be allowed below, with its reason; an
allowed name that the package no longer defines, or that it now names,
fails too, so the list only shrinks.
"""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adlift"

ALLOWED = {
    "encode_labels": "read by the benchmark's tracer",
    "events_from_times": "read by the benchmark's tracer",
    "worker_count": "read by the benchmark's tracer",
    "throughput_rps": "read by the acceptance tests",
    "hourly_integrals": "read by the acceptance tests",
}


def definitions(tree: ast.Module, overrides) -> list[tuple[str, int]]:
    """(name, line) of each module-level function, class and assigned name,
    and of each public method of a module-level class but those for which
    ``overrides(class name, method name)`` holds."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(name.id, name.lineno) for target in targets
                      for name in ast.walk(target) if isinstance(name, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(method.name, method.lineno) for method in node.body
                      if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not method.name.startswith("_")
                      and not overrides(node.name, method.name)]
    return [(name, line) for name, line in found
            if not (name.startswith("__") and name.endswith("__"))]


def name_lines(tree: ast.Module) -> dict[str, set[int]]:
    """The lines on which the code reads each name."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.returns]
    lines: dict[str, set[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            lines.setdefault(node.id, set()).add(node.lineno)
        elif isinstance(node, ast.Attribute):
            lines.setdefault(node.attr, set()).add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                lines.setdefault(alias.name, set()).add(node.lineno)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for name in ast.walk(ast.parse(node.value, mode="eval")):
                    if isinstance(name, ast.Name):
                        lines.setdefault(name.id, set()).add(node.lineno)
    return lines


def unused_names(sources: dict[str, str], overrides=lambda module, cls, name: False):
    """Each definition of ``sources`` (module file name: text) that no other
    line of them names, as name: "module:line"; ``overrides(module, class,
    method)`` tells which methods override a base's."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = {module: name_lines(tree) for module, tree in trees.items()}
    unused = {}
    for module, tree in trees.items():
        for name, line in definitions(tree, lambda cls, method: overrides(module, cls, method)):
            if not any(found.get(name, set()) - ({line} if where == module else set())
                       for where, found in uses.items()):
                unused[name] = f"{module}:{line}"
    return unused


def overrides_a_base(module: str, cls: str, method: str) -> bool:
    klass = getattr(importlib.import_module(f"adlift.{Path(module).stem}"), cls)
    return any(hasattr(base, method) for base in klass.__mro__[1:])


def test_every_definition_is_named_by_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unused = unused_names(sources, overrides_a_base)
    assert {name: where for name, where in unused.items() if name not in ALLOWED} == {}, \
        "definitions that no other line of the package names"
    assert sorted(ALLOWED.keys() - unused.keys()) == [], \
        "allowed names that the package names, or no longer defines"


def test_an_unused_definition_is_found():
    # read only in a comment, a string or its own line: spare and _unread
    sources = {"a.py": "X = 1\n_helper = lambda: f'{X}'\n_unread = 2  # _unread\n\n"
                       "class C:\n"
                       "    def used(self) -> 'Y':\n        return _helper\n\n"
                       "    def spare(self):\n        return 'spare'  # spare\n\n"
                       "    def __repr__(self):\n        return 'spare'\n",
               "b.py": "from .a import C\n\nY = C().used()\n"}
    assert unused_names(sources) == {"_unread": "a.py:3", "spare": "a.py:9"}
