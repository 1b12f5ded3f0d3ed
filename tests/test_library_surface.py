"""Every public top-level function and class in ``src/gchw`` has a use in the library.

A public name that nothing in the library uses is either dead or used only
by tests; such code belongs in ``tests/helpers.py`` as a documented oracle.
A call or any other read elsewhere in the library counts as a use, and so
do an import in ``__init__`` and an entry in ``__all__``.  An attribute read
counts only as ``module.name`` with ``module`` a ``gchw`` module, so a method
that shares a public function's name (``str.partition``) is not a use.  A
use inside a definition that itself has no use does not count.  Methods are
not checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gchw"

# public names kept although the library never uses them, one reason each
ALLOWED = {
    # bench/spans.py imports it, and the tests use it as the layout oracle
    # for encrypt_message
    "blockcipher.partition",
    # criterion 10's cost-model oracle (exactly Z**3 multiplies); bench/spans.py imports it
    "blockcipher.encrypt_block",
    # the per-block reference for decrypt_message and criterion 10's
    # cost-model oracle (Z**3 or 2 * Z**3 multiplies); bench/spans.py imports it
    "blockcipher.decrypt_block",
    # the paper's rational Haar transform: criteria 1 and 5 assert on it and
    # bench/spans.py imports it
    "wavelet.haar2d_forward",
}


def uses(module: str, tree: ast.Module, modules) -> list[tuple[str, str | None]]:
    """(name, user) for each name read, ``__init__`` import and ``__all__`` entry.

    An attribute read ``m.name`` is a read of ``name`` only when ``m`` is in
    ``modules``.  ``user`` is ``module.definition`` for a use inside a
    top-level function or class, else None.
    """
    found = []
    for top in tree.body:
        user = f"{module}.{top.name}" if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.append((node.id, user))
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                found.append((node.attr, user))
            elif isinstance(node, ast.ImportFrom) and module == "__init__":
                found.extend((alias.name, user) for alias in node.names)
            elif isinstance(node, ast.Assign) and "__all__" in {
                t.id for t in node.targets if isinstance(t, ast.Name)
            }:
                entries = ast.walk(node.value)
                found.extend((c.value, user) for c in entries if isinstance(c, ast.Constant))
    return found


def unused_public_names() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    users = {}  # name -> the definitions (None outside any) that use it
    for module, tree in trees.items():
        for name, user in uses(module, tree, trees):
            users.setdefault(name, set()).add(user)
    public = {
        f"{module}.{top.name}"
        for module, tree in trees.items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
    }
    unused = set()
    while True:
        found = {
            qualified
            for qualified in public
            if not users.get(qualified.split(".")[1], set()) - {qualified} - unused
        }
        if found == unused:
            return unused
        unused = found


def test_every_public_library_name_has_a_use_in_the_library():
    unused = unused_public_names()
    assert not unused - ALLOWED, f"public names only tests or bench use: {sorted(unused - ALLOWED)}"
    assert not ALLOWED - unused, f"allowlisted names the library uses: {sorted(ALLOWED - unused)}"
