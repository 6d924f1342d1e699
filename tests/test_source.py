"""Properties of the package source itself."""

import ast
from pathlib import Path

import sofic

SOURCES = sorted(Path(sofic.__file__).resolve().parent.glob("*.py"))


def _private_definitions(tree):
    """(name, node) of every module-level function, class and assigned
    name, and of every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item


def _uses(tree):
    """(name, node) of every name that is read or looked up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def test_every_private_name_is_used():
    # a _-prefixed name that nothing outside its own definition reads is dead;
    # dunders are read by Python itself
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    uses = [use for tree in trees for use in _uses(tree)]
    unused = []
    for path, tree in zip(SOURCES, trees):
        for name, node in _private_definitions(tree):
            if not name.startswith("_") or name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(used == name and id(at) not in inside for used, at in uses):
                unused.append(f"{path.name}: {name}")
    assert unused == []
