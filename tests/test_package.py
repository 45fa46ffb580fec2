import ast
import importlib
import os
import pkgutil
import re
from collections import Counter

import pytest

import ssar
from ssar import (
    AsuraConfig,
    LeverageConfig,
    LowerBoundSpec,
    UniformConfig,
    asura_sample,
    draw_samples,
    gen_lower_bound_instance,
    gen_random_instance,
)
from ssar.errors import InvalidInputError
from ssar.rngutil import derive_seed

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


def test_no_library_module_imports_scipy():
    # scipy is a test dependency only (pyproject.toml).
    package = os.path.dirname(ssar.__file__)
    offenders = []
    for name in MODULES + ["__init__"]:
        with open(os.path.join(package, f"{name}.py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [f"{name}: {m}" for m in modules if m.split(".")[0] == "scipy"]
    assert not offenders, f"library modules import scipy: {offenders}"


def test_sampler_module_holds_no_check_of_a_run():
    # The checks of a finished run live in ssar.verify; ssar.asura keeps the
    # sampler, its trace and the primitives that the checks judge by.
    with open(os.path.join(os.path.dirname(ssar.__file__), "asura.py")) as fh:
        tree = ast.parse(fh.read())
    checks = [
        node.name for node in tree.body
        if (isinstance(node, ast.FunctionDef)
            and (node.name.startswith("check_") or node.name == "_replay"))
        or (isinstance(node, ast.ClassDef) and node.name.endswith("Report"))
    ]
    assert not checks, f"ssar.asura defines checks of a run: {checks}"
    imported = [
        ((node.module or "").split(".")[-1], alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert [name for module, name in imported if module == "core"] == ["Dataset"]
    assert not [name for module, name in imported if module == "verify"]


def _is_dataclass(node) -> bool:
    names = [deco.func if isinstance(deco, ast.Call) else deco for deco in node.decorator_list]
    return any(isinstance(name, ast.Name) and name.id == "dataclass" for name in names)


def test_no_library_dataclass_declares_a_seed_field():
    # A seed is an argument of each sampler and generator, never a config
    # field: the runs of one config differ only in the seeds they are given.
    package = os.path.dirname(ssar.__file__)
    offenders = []
    for name in MODULES:
        with open(os.path.join(package, f"{name}.py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                offenders += [
                    f"{name}.{node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and "seed" in item.target.id.lower()
                ]
    assert not offenders, f"dataclass fields that hold a seed: {offenders}"


def _small_instance():
    return gen_random_instance(12, 4, 3, 1.0, 1)[0]


SEEDED_ENTRY_POINTS = {
    "draw_samples-asura":
        lambda seed: draw_samples(_small_instance(), AsuraConfig(epsilon=0.25), [1, seed, 2]),
    "draw_samples-leverage":
        lambda seed: draw_samples(_small_instance(), LeverageConfig(epsilon=0.25), [1, seed, 2]),
    "draw_samples-uniform":
        lambda seed: draw_samples(_small_instance(), UniformConfig(m=5), [1, seed, 2]),
    "asura_sample": lambda seed: asura_sample(_small_instance(), AsuraConfig(epsilon=0.25), seed),
    "gen_random_instance": lambda seed: gen_random_instance(10, 2, 3, 1.0, seed),
    "gen_lower_bound_instance": lambda seed: gen_lower_bound_instance(
        LowerBoundSpec(d=2, n_copies=3, epsilon=0.01, lam=1.0), seed),
}


@pytest.mark.parametrize("entry", sorted(SEEDED_ENTRY_POINTS))
def test_every_seeded_entry_point_refuses_a_negative_seed(entry):
    # rngutil.make_rng is the one check of a seed.
    with pytest.raises(InvalidInputError, match="seed must be a nonnegative integer, got -1"):
        SEEDED_ENTRY_POINTS[entry](-1)


@pytest.mark.parametrize("args,message", [((-1, 0), "seed must be a nonnegative integer, got -1"),
                                          ((1, -2), "key must be a nonnegative integer, got -2")])
def test_derive_seed_refuses_a_negative_seed_or_key(args, message):
    # The same check as make_rng's, not numpy's bare ValueError.
    with pytest.raises(InvalidInputError, match=message):
        derive_seed(*args)


def test_readme_library_quickstart_runs(capsys):
    # The Python blocks of README's "Library quickstart", in order, in one namespace.
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        section = fh.read().split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["sol"].ratio >= 1.0
    assert "labels bought, loss ratio" in capsys.readouterr().out
