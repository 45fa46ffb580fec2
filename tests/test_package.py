import ast
import importlib
import pkgutil

import pytest

import ssar

MODULES = sorted(info.name for info in pkgutil.iter_modules(ssar.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"ssar.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"ssar.{name}.__all__ lists undefined names {missing}"


def test_package_imports_resolve():
    with open(ssar.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"ssar.{module}" if module else "ssar")
        assert hasattr(source, name), f"ssar/__init__.py imports missing {module}.{name}"
        assert hasattr(ssar, name)
