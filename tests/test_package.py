import ast
import importlib
import os
import pkgutil
from collections import Counter

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


# Library code that the CLI cannot reach yet.  dataio.dump_trace waits on
# ROADMAP item 5 (`run --trace-dir`), which will write the dumps that
# `verify --trace-file` reads.
UNREACHED_ALLOWED = {"dataio.dump_trace"}


def _names_used(node) -> Counter:
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_library_definition_is_used_by_the_library():
    # A module-level function or class counts as used when some library module
    # names it (as a Name or an Attribute) outside its own definition; imports
    # and __all__ strings do not count.  Test-only code belongs in tests/.
    package = os.path.dirname(ssar.__file__)
    trees = {}
    for name in MODULES:
        with open(os.path.join(package, f"{name}.py")) as fh:
            trees[name] = ast.parse(fh.read())
    uses = sum((_names_used(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and uses[node.name] == _names_used(node)[node.name]
    ]
    unused = [name for name in unused if name not in UNREACHED_ALLOWED]
    assert not unused, f"library definitions that no library code uses: {unused}"
