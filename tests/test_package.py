"""Package hygiene: the package itself exports nothing, every module
imports on its own, every exported name resolves, every error class is
raised, and README's error and configuration tables match the package."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vtalarm
from vtalarm import errors
from vtalarm.cli import DEFAULT_CONFIG

SRC = Path(vtalarm.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["vtalarm"] + [info.name for info in pkgutil.walk_packages(vtalarm.__path__, "vtalarm.")]


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that turns every warning into an error."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True)


def test_the_package_exports_nothing():
    """Each name is imported from the module that defines it."""
    out = _fresh_python("import vtalarm; print(sorted(n for n in vars(vtalarm) if not n.startswith('_')))")
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("name", MODULES)
def test_every_module_imports_on_its_own(name):
    """No module leans on an import order that another import fixed first."""
    out = _fresh_python(f"import {name}")
    assert (out.returncode, out.stderr) == (0, "")


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


def _error_classes() -> set[str]:
    """The names of the VtalarmError subclasses in vtalarm.errors, without the base class."""
    return {
        c.__name__
        for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.VtalarmError) and c is not errors.VtalarmError
    }


def _readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"## {title}") :]
    return section[: section.index("\n## ", 1)]


def test_every_error_class_is_raised_somewhere():
    assert sorted(_error_classes() - _raised_names()) == []


def test_readme_errors_table_lists_every_error_class_once():
    rows = [line for line in _readme_section("Errors").splitlines() if line.startswith("| ")]
    names = [name for row in rows[1:] for name in re.findall(r"`([^`]*)`", row.split("|")[2])]
    assert sorted(names) == sorted(_error_classes() | {"VtalarmError"})


def _dotted(config: dict, prefix: str = "") -> dict:
    """Every leaf of a nested config under its dotted key; an empty mapping is a leaf."""
    out = {}
    for key, value in config.items():
        if isinstance(value, dict) and value:
            out.update(_dotted(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _readme_config_table() -> dict:
    """README's configuration table as {dotted key: default}. A row may
    list several keys with one default each, or with one default for all."""
    table = {}
    for line in _readme_section("Configuration").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        keys = re.findall(r"`([^`]*)`", cells[0])
        defaults = [json.loads(d) for d in re.findall(r"`([^`]*)`", cells[2])]
        if len(defaults) == 1:
            defaults *= len(keys)
        assert len(defaults) == len(keys), line
        for key, default in zip(keys, defaults):
            assert key not in table, f"{key} listed twice"
            table[key] = default
    return table


def test_readme_config_table_lists_every_key_with_its_default():
    want = _dotted(DEFAULT_CONFIG)
    got = _readme_config_table()
    assert sorted(got) == sorted(want)
    for key, default in want.items():
        assert (type(got[key]), got[key]) == (type(default), default), key


def test_every_benchmark_probe_names_a_target_the_tracer_can_wrap(monkeypatch):
    """perfbench wraps its targets from the outside, as ``Tracer.installed``
    resolves them: a function by its module attribute, a method through its
    class's own ``__dict__``. ``cli`` must call features' own
    ``build_feature_vector``, so that one wrapper counts every window."""
    monkeypatch.syspath_prepend(str(README.parent))
    from perfbench.layers import PROBES

    unresolved = []
    for probe in PROBES:
        module_name, attr = probe.target.split(":")
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and method in vars(cls)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            unresolved.append(probe.target)
    assert unresolved == []
    from vtalarm import cli, features

    assert cli.build_feature_vector is features.build_feature_vector
