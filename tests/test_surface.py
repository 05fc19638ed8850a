"""Every public top-level name of `src/lelong` is used by the library or exported.

A name that only tests load belongs in `tests/` (see `exact_oracles.py`).
"""

import ast
from pathlib import Path

import lelong

SRC = Path(lelong.__file__).parent


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from ast.literal_eval(node.value)


def test_every_public_name_is_loaded_in_src_or_exported():
    modules = _modules()
    loaded = {node.id for tree in modules.values() for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    loaded |= {node.attr for tree in modules.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    exported = {name for tree in modules.values() for name in _exported(tree)}
    unused = sorted(f"{stem}.{name}" for stem, tree in modules.items() for name in _public_definitions(tree)
                    if not name.startswith("_") and name not in loaded | exported)
    assert unused == []
