"""The demos call the package by name; each name and keyword they use must exist.

A static check over each script's syntax tree: it runs no demo, so an
API change that would break one fails here in milliseconds.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_names(tree):
    """Local name -> object for every name a script binds from the package."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("riccati_capacity"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name} does not exist"
                names[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("riccati_capacity"):
                    bound = alias.name if alias.asname else alias.name.split(".")[0]
                    names[alias.asname or bound] = importlib.import_module(bound)
    return names


def resolve(func, names):
    """The package object a call's function expression names, or None."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = resolve(func.value, names)
        if inspect.ismodule(owner):
            assert hasattr(owner, func.attr), f"{owner.__name__}.{func.attr} does not exist"
            return getattr(owner, func.attr)
    return None


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_names_and_keywords_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    names = package_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve(node.func, names)
        if target is None or not callable(target):
            continue
        params = inspect.signature(target).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        for keyword in node.keywords:
            if keyword.arg is not None:
                assert keyword.arg in params, (
                    f"{demo.name}:{node.lineno}: {target.__name__} has no "
                    f"parameter {keyword.arg}")
