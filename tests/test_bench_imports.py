"""The names the benchmark harness takes from the library still resolve.

``python3 bench/run.py`` imports ``bench/*.py``, which import names from
``gchw`` at module level and read ``gchw.<name>`` attributes, some of them
in the set-up code that ``bench/runner.py`` runs in a fresh interpreter,
and ``<module>.<name>`` attributes of the submodules they import.
A name the library drops would fail the benchmark at import or mid-run;
these tests read the bench sources with ``ast`` and fail first.
"""

import ast
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_trees() -> dict[str, list[ast.Module]]:
    """Each bench module's syntax tree, plus any embedded code string that imports gchw."""
    trees = {}
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        embedded = [
            ast.parse(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "import gchw" in node.value
        ]
        trees[path.name] = [tree, *embedded]
    return trees


def gchw_imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of every module-level ``from gchw... import name``."""
    return {
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "gchw"
        for alias in node.names
    }


def submodule_attributes(tree: ast.Module) -> set[tuple[str, str]]:
    """(submodule, name) of every ``<local>.name`` read in ``tree``, where
    ``<local>`` is bound at module level by ``from gchw import <submodule>``."""
    bound = {
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "gchw"
        for alias in node.names
        if importlib.util.find_spec(f"gchw.{alias.name}")
    }
    return {
        (bound[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in bound
    }


def gchw_attributes(tree: ast.Module) -> set[str]:
    """Every dotted ``gchw.a.b`` chain read in ``tree``, without the leading ``gchw.``."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "gchw":
            chains.add(".".join(reversed(parts)))
    return chains


def test_every_gchw_name_the_bench_imports_resolves():
    found = set()
    for trees in bench_trees().values():
        for tree in trees:
            found |= gchw_imports(tree)
    assert len(found) > 10, found
    for module, name in sorted(found):
        owner = importlib.import_module(module)
        # ``from package import submodule`` also binds a submodule
        submodule = hasattr(owner, "__path__") and importlib.util.find_spec(f"{module}.{name}")
        assert hasattr(owner, name) or submodule, f"from {module} import {name}"


def test_every_gchw_attribute_the_runner_reads_resolves():
    chains = set()
    for tree in bench_trees()["runner.py"]:
        chains |= gchw_attributes(tree)
    assert {"seal", "open_envelope", "derive"} <= chains
    gchw = importlib.import_module("gchw")
    for chain in sorted(chains):
        obj = gchw
        for part in chain.split("."):
            assert hasattr(obj, part), f"gchw.{chain}"
            obj = getattr(obj, part)


def test_every_attribute_the_bench_reads_from_a_gchw_submodule_resolves():
    found = set()
    for trees in bench_trees().values():
        for tree in trees:
            found |= submodule_attributes(tree)
    assert {("keyschedule", "golden_base"), ("keyschedule", "pad_to_z")} <= found, found
    for module, name in sorted(found):
        assert hasattr(importlib.import_module(f"gchw.{module}"), name), f"gchw.{module}.{name}"
