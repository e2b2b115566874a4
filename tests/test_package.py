"""Package hygiene: every exported name resolves, and every error class is raised."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vtalarm
from vtalarm import errors

SRC = Path(vtalarm.__file__).parent
MODULES = ["vtalarm"] + [info.name for info in pkgutil.walk_packages(vtalarm.__path__, "vtalarm.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def _raised_names() -> set[str]:
    """The names of the classes in every ``raise X`` and ``raise X(...)`` of the package."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised_somewhere():
    classes = {
        c.__name__
        for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.VtalarmError) and c is not errors.VtalarmError
    }
    assert sorted(classes - _raised_names()) == []
