"""Static checks on src/branchlab in place of a linter.

Every import a module makes is used in that module, and every module-level
private function or class is referenced somewhere in src/branchlab, so a
helper that only tests call does not survive as library code.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "branchlab")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def _tree(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _used_names(tree):
    """Names read as variables, attribute names, and names imported by name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def unused_imports(tree):
    """Names bound by an import that nothing else in the module reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(bound)
    return unused


def unreferenced_private(trees):
    """Module-level _names (functions, classes) no module in the package uses."""
    used = set()
    for tree in trees.values():
        used |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in used):
                dead.append(f"{os.path.basename(path)}:{node.name}")
    return dead


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used(path):
    assert unused_imports(_tree(path)) == []


def test_every_private_helper_has_a_caller():
    assert unreferenced_private({p: _tree(p) for p in MODULES}) == []


def test_checks_catch_their_faults():
    tree = ast.parse("import os\nfrom math import pi, tau\n\ndef _helper():\n    return pi\n")
    assert unused_imports(tree) == ["os", "tau"]
    assert unreferenced_private({"m.py": tree}) == ["m.py:_helper"]
    called = ast.parse("def _helper():\n    return 1\n\nVALUE = _helper()\n")
    assert unreferenced_private({"m.py": tree, "n.py": called}) == []
