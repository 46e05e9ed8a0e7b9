"""The benchmark tracer still finds every function it wraps by name.

perfbench/spans.py wraps branchlab functions by their names and keys its
per-layer metrics on them; only traced benchmark runs install it, so a
rename would otherwise go unnoticed until such a run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

PROBE = """
import importlib, json, spans
spans.Tracer().install()
names = list(spans.RULES) + ["minimizer.cg"]
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
