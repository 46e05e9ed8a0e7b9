"""Static checks on src/branchlab in place of a linter.

Every import a module makes is used in that module, no module imports
scipy (the runtime is numpy alone; scipy is a test dependency), every
module-level private function or class is referenced somewhere in
src/branchlab, and every public function, class and method is reached
from outside its own definition by the library, the benchmark, the
acceptance suite or the console script.  A name that only unit tests call
does not survive as library code.  Every field of a dataclass, and every
slot a class lists in __slots__, is read as an attribute somewhere in the
library, the tests or the benchmark: a field a test asserts on is a
result, but one nothing reads is dead weight.  Whole quadrature rules
are summed (Rule.integrate_values) and built (ball_rule, sphere_rule and
their ring tables, _ball_rings and _sphere_rings) only in the functions that
WHOLE_RULE_READERS names: every other integral goes block by block.
Nearest selection against a reference (pairspace.selection_costs) is read
only where SELECTION_READERS says: the pair metric, the one continuation
routine and the one profile-frame pairing.  A polar grid's per-node data
has one layout, (slab, nr, nt, m) in nodes() order, so no axis is moved
(np.moveaxis) except where LAYOUT_READERS says.  No module reads hasattr or
getattr: a field's protocol (values, gradient, lift, rescaled) has no
optional parts, so no code asks an object what it has.
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
    # the planar-disk rules check their n = 3 and n = 4 integrals with it
    # first (ROADMAP item 9); then it becomes a stage row or goes (item 7)
    "frequency.frequency_derivative_identity",
}

# The functions that may read each whole-rule name: Rule.integrate_values
# sums a rule's values in the block loop; the builders cut their rules into
# blocks of whole disks and circles read from the ring tables, as
# spectral._cover_blocks cuts the cover ball, and a whole rule is built only
# where its nodes are the result (fit_rotation's least-squares nodes).
WHOLE_RULE_READERS = {
    "integrate_values": {"_sum_blocks"},
    "ball_rule": {"ball_blocks", "disk_rule", "fit_rotation"},
    "sphere_rule": {"sphere_blocks"},
    "_ball_rings": {"ball_rule", "ball_blocks", "_cover_blocks"},
    "_sphere_rings": {"sphere_rule", "sphere_blocks"},
}

# The functions that may choose a sign nearest a reference: the pair metric,
# propagate_signs (its sweep, through its closure nearer, and its slab
# alignment) and the one pairing of u against a profile's frame lift, which
# lift_against_profile and the spectral blow-up share.
SELECTION_READERS = {
    "selection_costs": {"metric_sq_symmetric", "propagate_signs", "propagate_signs.nearer",
                        "CylindricalProfile.paired"},
}

# The functions that may move an axis of per-node data: graphical_decompose
# alone, whose ring flood fill reads a local lane view (nr, nt, lane, m).
LAYOUT_READERS = {
    "moveaxis": {"graphical_decompose"},
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
    """Fields of the module-level dataclasses and the __slots__ of the
    module-level classes, as (class, field) pairs."""
    def is_dataclass(dec):
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass"

    fields = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        record = any(map(is_dataclass, node.decorator_list))
        for item in node.body:
            if record and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                fields.append((node.name, item.target.id))
            elif isinstance(item, ast.Assign) and any(getattr(t, "id", None) == "__slots__"
                                                      for t in item.targets):
                slots = ast.literal_eval(item.value)
                fields.extend((node.name, slot)
                              for slot in ([slots] if isinstance(slots, str) else slots))
    return fields


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


def optional_attribute_reads(tree):
    """How often a module reads hasattr or getattr, bare or as an attribute
    (builtins.getattr), by name."""
    reads = _reads(tree)
    return {name: reads[name] for name in ("hasattr", "getattr") if reads[name]}


def stray_reads(trees, readers):
    """Reads of a `readers` name outside the functions it names, as
    file:function.name.

    A read belongs to the innermost def around it, by qualified name: the
    classes and defs around it joined by dots (CylindricalProfile.paired,
    propagate_signs.nearer), or <module> at module level.  A name matches as
    a bare name or as an attribute, whatever the object read.
    """
    stray = []

    def visit(node, func, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if func == "<module>" else f"{func}.{child.name}", name)
                continue
            read = (child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else None)
            if (read in readers and isinstance(child.ctx, ast.Load)
                    and func not in readers[read]):
                stray.append(f"{name}:{func}.{read}")
            visit(child, func, name)

    for path, tree in trees.items():
        visit(tree, "<module>", os.path.basename(path))
    return stray


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_module_imports_scipy(path):
    assert scipy_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_module_asks_for_optional_attributes(path):
    assert optional_attribute_reads(_tree(path)) == {}


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


def test_whole_rules_are_read_only_where_allowed():
    assert stray_reads({p: _tree(p) for p in MODULES}, WHOLE_RULE_READERS) == []


def test_selection_costs_are_read_only_where_allowed():
    assert stray_reads({p: _tree(p) for p in MODULES}, SELECTION_READERS) == []


def test_axes_are_moved_only_where_allowed():
    assert stray_reads({p: _tree(p) for p in MODULES}, LAYOUT_READERS) == []


def test_checks_catch_their_faults():
    tree = ast.parse("import os\nfrom math import pi, tau\n\ndef _helper():\n    return pi\n")
    assert unused_imports(tree) == ["os", "tau"]
    assert scipy_imports(tree) == []
    solver = ast.parse("import scipy.linalg\nimport scipyx\nfrom .scipy import cg\n"
                       "from scipy.sparse.linalg import cg\n\n"
                       "def expm(A):\n    import scipy as sp\n    return sp\n")
    assert scipy_imports(solver) == ["scipy.linalg", "scipy.sparse.linalg", "scipy"]
    assert unreferenced_private({"m.py": tree}) == ["m.py:_helper"]
    # an optional part of a protocol asked for by hasattr or getattr, bare,
    # through builtins or nested in a method, or imported by name
    probe = ast.parse("import builtins\nfrom builtins import getattr as ga\n\n"
                      "def trace(fld):\n    if hasattr(fld, 'lift'):\n        return fld.lift\n"
                      "    return getattr(fld, 'modes', ()), builtins.hasattr\n\n"
                      "class View:\n    def rescaled(self):\n"
                      "        return getattr(self.base, 'rescaled_exact', None)\n")
    assert optional_attribute_reads(probe) == {"hasattr": 2, "getattr": 3}
    assert optional_attribute_reads(tree) == {}
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
    # unread; a class without the decorator holds no record fields, but its
    # __slots__ are fields, and a slot only assigned in __init__ is unread
    record = ast.parse("import dataclasses\nfrom dataclasses import dataclass\n\n"
                       "@dataclass(frozen=True)\nclass Report:\n    value: float\n"
                       "    slack: float = 0.0\n\n"
                       "@dataclasses.dataclass\nclass Row:\n    rho: float\n\n"
                       "class Plain:\n    note: str = ''\n\n"
                       "class Mode:\n    __slots__ = ('beta', 'ylin')\n\n"
                       "    def __init__(self, beta, ylin):\n"
                       "        self.beta, self.ylin = beta, ylin\n\n"
                       "class Tag:\n    __slots__ = 'label'\n\n"
                       "def report(rows):\n    return Report(value=rows[0].rho, slack=1.0)\n")
    assert record_fields(record) == [("Report", "value"), ("Report", "slack"), ("Row", "rho"),
                                     ("Mode", "beta"), ("Mode", "ylin"), ("Tag", "label")]
    assert unread_fields({"m": record}, [record]) == ["m.Report.value", "m.Report.slack",
                                                      "m.Mode.beta", "m.Mode.ylin", "m.Tag.label"]
    asserts = ast.parse("def test_report(rep, md, tag):\n"
                        "    assert rep.value and not rep.slack and md.beta and tag.label\n")
    assert unread_fields({"m": record}, [record, asserts]) == ["m.Mode.ylin"]
    # a whole rule summed or built outside the functions allowed to, by a
    # bare name or an attribute, also through a bound method or inside a
    # lambda of an allowed function
    whole = ast.parse("def energy(ball, f):\n    rule = ball_rule(ball)\n"
                      "    return rule.integrate_values(f(rule.points))\n\n"
                      "def height(ball):\n    return sphere_rule(ball), q.sphere_rule\n\n"
                      "def _sum_blocks(blocks, f):\n"
                      "    return sum(b.integrate_values(f(b.points)) for b in blocks)\n\n"
                      "def fit_rotation(ball):\n    build = q.ball_rule\n"
                      "    return lambda f: build(ball).integrate_values(f)\n\n"
                      "def ball_rule(ball):\n    return _ball_rings(ball)\n\n"
                      "def _cover_blocks(rho):\n    return _ball_rings(rho), _sphere_rings(rho)\n\n"
                      "def project_L(w, rho):\n    return q._ball_rings(rho)\n\n"
                      "def integrate_sphere(ball):\n    return q._sphere_rings(ball)\n\n"
                      "SUM, RINGS = Rule.integrate_values, _ball_rings\n")
    assert stray_reads({"m.py": whole}, WHOLE_RULE_READERS) == [
        "m.py:energy.ball_rule", "m.py:energy.integrate_values",
        "m.py:height.sphere_rule", "m.py:height.sphere_rule",
        "m.py:fit_rotation.integrate_values",
        "m.py:_cover_blocks._sphere_rings", "m.py:project_L._ball_rings",
        "m.py:integrate_sphere._sphere_rings",
        "m.py:<module>.integrate_values", "m.py:<module>._ball_rings"]
    # nearest selection outside the pairing functions: in a method that
    # shares its name with the allowed one but not its class, and in a
    # closure of an allowed function, which is not that function
    pairing = ast.parse("class Profile:\n    def paired(self, s, phi):\n"
                        "        return selection_costs(s, phi)\n\n"
                        "class CylindricalProfile:\n    def paired(self, s, phi):\n"
                        "        return pairspace.selection_costs(s, phi)\n\n"
                        "def metric_sq_symmetric(su, sv):\n    def keep(a):\n"
                        "        return selection_costs(a, sv)[0]\n    return keep(su)\n\n"
                        "def propagate_signs(x):\n    def nearer(v):\n"
                        "        return selection_costs(v, x)\n    return nearer\n")
    assert stray_reads({"m.py": pairing}, SELECTION_READERS) == [
        "m.py:Profile.paired.selection_costs", "m.py:metric_sq_symmetric.keep.selection_costs"]
    # an axis moved outside graphical_decompose: a layout reorder in a grid
    # method and in a closure of the allowed function, which is not that
    # function, by attribute or by a name imported alone
    layout = ast.parse("from numpy import moveaxis\n\n"
                       "class PolarGrid:\n    def on_grid(self, rows):\n"
                       "        return np.moveaxis(rows, 0, 2)\n\n"
                       "def graphical_decompose(u_lift):\n"
                       "    def lanes(a):\n        return moveaxis(a, 0, 2)\n"
                       "    return np.moveaxis(u_lift, 0, 2), lanes\n")
    assert stray_reads({"m.py": layout}, LAYOUT_READERS) == [
        "m.py:PolarGrid.on_grid.moveaxis", "m.py:graphical_decompose.lanes.moveaxis"]
