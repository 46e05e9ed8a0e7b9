"""Static checks on src/branchlab in place of a linter.

Every import a module makes is used in that module, no module imports
scipy (the runtime is numpy alone; scipy is a test dependency), every
module-level private function or class is referenced somewhere in
src/branchlab, and every public function, class and method is reached
from outside its own definition by the library, the benchmark, the
acceptance suite or the console script.  A name that only unit tests call
does not survive as library code.  Every field of a dataclass is read as
an attribute somewhere in the library, the tests or the benchmark: a field
a test asserts on is a result, but one nothing reads is dead weight.
"""

import ast
import glob
import os
from collections import Counter

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "branchlab")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))
BENCH = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
TESTS = sorted(glob.glob(os.path.join(ROOT, "tests", "*.py")))
ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")
ENTRY_POINTS = {"cli.main"}  # [project.scripts] in pyproject.toml

# Public names kept although nothing reaches them, each with its reason.
EXEMPT = {
    # the n = 4 ball-rule fix checks the new rule with it (ROADMAP item 1)
    "frequency.frequency_derivative_identity",
}


def _tree(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _reads(tree, methods=False):
    """How often each name is read: as a variable, an attribute, or by import.

    With methods=True, only the reads that can reach a method: an attribute
    of a module bound by `import x` or `import x as y` (json.load,
    np.interp) is not one.
    """
    modules = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
               if methods and isinstance(node, ast.Import) for alias in node.names}
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and not (isinstance(node.value, ast.Name) and node.value.id in modules)):
            reads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


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


def scipy_imports(tree):
    """The scipy modules a module imports, at any depth of its code."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] == "scipy"]


def unreferenced_private(trees):
    """Module-level _names (functions, classes) no module in the package uses."""
    used = Counter()
    for tree in trees.values():
        used.update(_reads(tree))
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in used):
                dead.append(f"{os.path.basename(path)}:{node.name}")
    return dead


def public_definitions(tree):
    """Public module-level functions and classes and their public methods,
    by qualified name."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defs[node.name] = node
            if isinstance(node, ast.ClassDef):
                defs.update((f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))
    return defs


def unreached_public(src, callers, bench):
    """Public names of `src` (module name -> tree) that nothing reaches.

    A name is reached by a read elsewhere in `src`, outside its own
    definition; by a read in a tree of `callers` or `bench`; by a dotted
    string literal `module.name` or `module.Class.method` in `bench`, as
    the benchmark names the functions it wraps; or as an entry point.
    Methods match by name, whatever the object they are read from, except
    a module bound by `import x` or `import x as y` (_reads).
    """
    in_src, outside = {}, {}
    for methods in (False, True):
        in_src[methods] = Counter()
        for tree in src.values():
            in_src[methods].update(_reads(tree, methods))
        outside[methods] = set()
        for tree in (*callers, *bench):
            outside[methods] |= set(_reads(tree, methods))
    literals = {node.value for tree in bench for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    dead = []
    for module, tree in src.items():
        for qualname, node in public_definitions(tree).items():
            name = qualname.rsplit(".", 1)[-1]
            key = f"{module}.{qualname}"
            method = "." in qualname
            if not (in_src[method][name] > _reads(node, method)[name]
                    or name in outside[method]
                    or key in literals or key in ENTRY_POINTS):
                dead.append(key)
    return dead


def record_fields(tree):
    """Fields of the module-level dataclasses, as (class, field) pairs."""
    def is_dataclass(dec):
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass"

    return [(node.name, item.target.id) for node in tree.body
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def unread_fields(src, readers):
    """Dataclass fields of `src` (module name -> tree) that no tree of
    `readers` reads as an attribute.

    A constructor keyword is not a read.  Fields match by name, whatever
    the object read, so a field that shares its name with an attribute read
    elsewhere passes.
    """
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}.{cls}.{name}" for module, tree in src.items()
            for cls, name in record_fields(tree) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_module_imports_scipy(path):
    assert scipy_imports(_tree(path)) == []


def test_every_private_helper_has_a_caller():
    assert unreferenced_private({p: _tree(p) for p in MODULES}) == []


def test_every_public_name_has_a_caller():
    src = {os.path.basename(p)[:-3]: _tree(p) for p in MODULES}
    dead = unreached_public(src, [_tree(ACCEPTANCE)], [_tree(p) for p in BENCH])
    assert sorted(dead) == sorted(EXEMPT)


def test_every_record_field_is_read():
    src = {os.path.basename(p)[:-3]: _tree(p) for p in MODULES}
    readers = [_tree(p) for p in (*MODULES, *TESTS, *BENCH)]
    assert any(record_fields(tree) for tree in src.values())
    assert unread_fields(src, readers) == []


def test_checks_catch_their_faults():
    tree = ast.parse("import os\nfrom math import pi, tau\n\ndef _helper():\n    return pi\n")
    assert unused_imports(tree) == ["os", "tau"]
    assert scipy_imports(tree) == []
    solver = ast.parse("import scipy.linalg\nimport scipyx\nfrom .scipy import cg\n"
                       "from scipy.sparse.linalg import cg\n\n"
                       "def expm(A):\n    import scipy as sp\n    return sp\n")
    assert scipy_imports(solver) == ["scipy.linalg", "scipy.sparse.linalg", "scipy"]
    assert unreferenced_private({"m.py": tree}) == ["m.py:_helper"]
    called = ast.parse("def _helper():\n    return 1\n\nVALUE = _helper()\n")
    assert unreferenced_private({"m.py": tree, "n.py": called}) == []
    # a public function that calls itself, and is called only from a unit
    # test, which the check does not read
    lib = ast.parse("class Field:\n    def eval(self):\n        return 1\n\n"
                    "def helper(k):\n    return helper(k - 1) if k else Field\n")
    assert unreached_public({"m": lib}, [], []) == ["m.Field.eval", "m.helper"]
    test = ast.parse("from m import helper\n\ndef test_helper():\n    assert helper(2)\n")
    assert unreached_public({"m": lib}, [test], []) == ["m.Field.eval"]
    # a benchmark literal reaches the module-level function it names, and a
    # span name of the benchmark's own reaches no method
    bench = ast.parse('RULES = ("m.helper",)\nSPAN = "m.eval"\n')
    assert unreached_public({"m": lib}, [], [bench]) == ["m.Field.eval"]
    assert unreached_public({"m": lib}, [bench], []) == ["m.Field.eval", "m.helper"]
    # an attribute of a module bound by an import reaches the module-level
    # function of that name but no method, as json.load is not a .load method
    modules = ast.parse("import json\nimport m\nimport numpy as np\n\n"
                        "DATA = json.eval, np.eval, m.helper\n")
    assert unreached_public({"m": lib}, [modules], []) == ["m.Field.eval"]
    reader = ast.parse("from m import Field\n\nVALUE = Field().eval()\n")
    assert unreached_public({"m": lib}, [modules, reader], []) == []
    # a record field that is only filled in, by default or by keyword, is
    # unread; a class without the decorator holds no record fields
    record = ast.parse("import dataclasses\nfrom dataclasses import dataclass\n\n"
                       "@dataclass(frozen=True)\nclass Report:\n    value: float\n"
                       "    slack: float = 0.0\n\n"
                       "@dataclasses.dataclass\nclass Row:\n    rho: float\n\n"
                       "class Plain:\n    note: str = ''\n\n"
                       "def report(rows):\n    return Report(value=rows[0].rho, slack=1.0)\n")
    assert record_fields(record) == [("Report", "value"), ("Report", "slack"), ("Row", "rho")]
    assert unread_fields({"m": record}, [record]) == ["m.Report.value", "m.Report.slack"]
    asserts = ast.parse("def test_report(rep):\n    assert rep.value and not rep.slack\n")
    assert unread_fields({"m": record}, [record, asserts]) == []
