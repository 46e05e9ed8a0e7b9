"""The benchmark tracer still finds every function it wraps by name.

perfbench/spans.py wraps branchlab functions by their names and keys its
per-layer metrics on them; only traced benchmark runs install it, so a
rename or a deletion would otherwise go unnoticed until such a run.
"""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

PROBE = """
import importlib, json, spans
spans.Tracer().install()
names = list(spans.RULES) + ["minimizer.cg", "minimizer.solve_cut"]
wrapped = {}
for name in names:
    module, attr = name.split(".")
    fn = getattr(importlib.import_module("branchlab." + module), attr)
    wrapped[name] = hasattr(fn, "__wrapped__")
print(json.dumps(wrapped))
"""


def test_tracer_installs_and_wraps_rules_and_cg():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    wrapped = json.loads(out.stdout.strip().splitlines()[-1])
    assert "minimizer.cg" in wrapped and all(wrapped.values()), wrapped


def _load_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _metric_span_names(spans):
    """Every span name a per-layer metric of perfbench/spans.py is keyed on.

    These are the rule, method and write names, cli.stage_<kind> for each
    stage kind, and each dotted literal inside layer_metrics that is not a
    metric's own name (a key of the metrics dict) or part of an f-string.
    """
    names = set(spans.RULES) | set(spans.WRITES)
    names |= {f"{layer}.{cls}.{meth}" for (layer, cls), meths in spans.METHODS.items()
              for meth in meths}
    names |= {f"cli.stage_{kind}" for kind in spans.STAGE_KINDS}
    with open(spans.__file__) as fh:
        tree = ast.parse(fh.read())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics")
    # metric names, and the pieces of f-strings (the stage names above)
    keys = {id(k) for node in ast.walk(fn) if isinstance(node, ast.Dict) for k in node.keys}
    keys |= {id(v) for node in ast.walk(fn) if isinstance(node, ast.JoinedStr)
             for v in node.values}
    for node in ast.walk(fn):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in keys and node.value.split(".")[0] in spans.LAYERS
                and "." in node.value):
            names.add(node.value)
    return names


def test_every_metric_span_name_resolves():
    # a deleted or renamed function would silently zero the metrics keyed on it
    spans = _load_spans()
    names = _metric_span_names(spans) - {"fields.eval"}  # the tracer's own span
    assert {"profiles.fit_c", "decay.decay_step", "cli.stage_corollaries",
            "minimizer.CoverField.to_two_valued"} <= names
    missing = []
    for name in sorted(names):
        layer, *attrs = name.split(".")
        obj = importlib.import_module("branchlab." + layer)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not (inspect.isfunction(obj) or inspect.ismethod(obj)):
            missing.append(name)
    assert not missing, missing
