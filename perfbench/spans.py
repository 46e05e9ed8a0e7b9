"""Spans around calls into branchlab's modules, and the per-layer numbers.

The benchmark wraps, from its own files, every public module-level function
of each layer module plus the few methods the layer metrics name.  A
wrapper replaces every binding a call can go through: the defining module's
attribute, each `from .x import y` copy in another module, and references
held in module-level dicts such as `cli.STAGES`.  Private helpers called per
edge or per pair, such as `_segments_cross` (millions of calls per
branch-search pass), are left unwrapped; a span per call would distort what
is measured.

A span is `[name, layer, start, end, parent, op, attrs]`.  Spans are kept in
memory and written out when the pass ends.  With branchlab's threads pinned
to one, spans nest properly, so a span's self time is its duration minus
the durations of its direct children.
"""

import functools
import inspect
import json
import os
import time

# The layers are branchlab's modules; pairspace and svgplot are inner helpers
# and count inside their callers.
LAYERS = ("quadrature", "fields", "frequency", "minimizer", "profiles", "spectral",
          "decay", "cli")
STAGE_KINDS = ("frequency", "monotonicity", "minimize", "decay", "spectral", "corollaries")

NAME, LAYER, START, END, PARENT, OP, ATTRS = range(7)

# Methods the layer metrics need, by (module, class) -> method names.
METHODS = {
    ("minimizer", "BoundaryTrace"): ("from_field",),
    ("minimizer", "CoverField"): ("to_two_valued",),
    ("fields", "SampledField"): ("to_csv", "from_csv"),
    ("cli", "OutputWriter"): ("write_text", "write_json", "write_csv", "write_svg",
                              "finalize_manifest"),
}
FIELD_EVAL = ("symmetric_values", "symmetric_gradient")
WRITES = tuple(f"cli.OutputWriter.{m}" for m in METHODS[("cli", "OutputWriter")])
RULES = ("quadrature.disk_rule", "quadrature.ball_rule", "quadrature.sphere_rule")


class Tracer:
    """Installs the wrappers and records spans, for the life of the process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1

    # -- recording ---------------------------------------------------------

    def wrap(self, name, layer, fn, post=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = time.perf_counter()
                rec[ATTRS] = {"error": type(exc).__name__}
                stack.pop()
                raise
            rec[END] = time.perf_counter()
            stack.pop()
            if post is not None:
                rec[ATTRS] = post(args, kwargs, result)
            return result

        return wrapper

    def begin_op(self, op_id):
        """Open the root span of one operation."""
        self.op = op_id
        self.stack.append(len(self.spans))
        self.spans.append(["bench.op", "bench", time.perf_counter(), 0.0, -1, op_id, None])

    def end_op(self):
        self.spans[self.stack.pop()][END] = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self):
        import importlib

        from branchlab import fields

        modules = {m: importlib.import_module(f"branchlab.{m}") for m in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replaced[obj] = self.wrap(f"{layer}.{attr}", layer, obj, _post(layer, attr))
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for meth in names:
                self._wrap_method(cls, meth, f"{layer}.{cls_name}.{meth}", layer)
        field_classes = {obj for mod in modules.values() for obj in vars(mod).values()
                         if isinstance(obj, type) and issubclass(obj, fields.Field)}
        for cls in field_classes:
            for meth in FIELD_EVAL:
                if meth in vars(cls):
                    self._wrap_method(cls, meth, "fields.eval", "fields")
        self._wrap_cg(modules["minimizer"])
        # every binding of a wrapped function: module attributes (including
        # `from .x import y` copies) and module-level dicts such as cli.STAGES
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in replaced:
                            obj[key] = replaced[val]

    def _wrap_method(self, cls, meth, name, layer):
        raw = vars(cls)[meth]
        post = _post(layer, meth)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, layer, raw.__func__, post))
        else:
            wrapped = self.wrap(name, layer, raw, post)
        setattr(cls, meth, wrapped)

    def _wrap_cg(self, minimizer):
        """Time the solver's `cg` and count its iterations with a callback."""
        cg = minimizer.cg
        iters = [0]

        def counted_cg(*args, **kwargs):
            iters[0] = 0
            user = kwargs.pop("callback", None)

            def callback(xk):
                iters[0] += 1
                if user is not None:
                    user(xk)

            return cg(*args, callback=callback, **kwargs)

        setattr(minimizer, "cg", self.wrap("minimizer.cg", "minimizer", counted_cg,
                                           lambda args, kw, res: {"iters": iters[0]}))

    def dump(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "layer": s[LAYER],
                                     "start": s[START], "end": s[END], "parent": s[PARENT],
                                     "op": s[OP], "attrs": s[ATTRS]}, sort_keys=True) + "\n")


def _post(layer, attr):
    """Attributes recorded from a wrapped call's arguments and result."""
    if layer == "quadrature" and attr in ("disk_rule", "ball_rule", "sphere_rule"):
        return lambda args, kw, rule: {"nodes": int(rule.size),
                                       "dim": int(rule.points.shape[1])}
    if attr in FIELD_EVAL:
        return lambda args, kw, res: {"points": int(res.shape[0])}
    if layer == "minimizer" and attr == "optimize_branch_points":
        return lambda args, kw, res: {"accepted": len(res.trace) - 1}
    if layer == "cli" and attr in ("write_text", "write_json", "write_svg"):
        return lambda args, kw, res: {"bytes": os.path.getsize(args[0].path(args[1]))}
    if layer == "cli" and attr == "finalize_manifest":
        return lambda args, kw, res: {"bytes": os.path.getsize(args[0].path("manifest.json"))}
    return None


# ---------------------------------------------------------------------------
# Derived numbers


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _outermost(spans, names):
    """Spans named in `names` with no ancestor also named in `names`."""
    names = set(names)
    inside = [False] * len(spans)
    out = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        nested = p >= 0 and (inside[p] or spans[p][NAME] in names)
        inside[i] = nested
        if s[NAME] in names and not nested:
            out.append(s)
    return out


def _under(spans, ancestor_names, name):
    """Spans named `name` that descend from a span named in `ancestor_names`."""
    anc = [False] * len(spans)
    out = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        anc[i] = p >= 0 and (anc[p] or spans[p][NAME] in ancestor_names)
        if s[NAME] == name and anc[i]:
            out.append(s)
    return out


def _dur(spans):
    return sum(s[END] - s[START] for s in spans)


def _attr(spans, key):
    return sum((s[ATTRS] or {}).get(key, 0) for s in spans)


def layer_metrics(spans):
    """Per-layer counts and times of one traced pass, by metric name."""
    selfs = self_times(spans)

    def named(*names):
        return _outermost(spans, names)

    rules = named(*RULES)
    evals = named("fields.eval")
    solves = named("minimizer.solve_branched_laplace")
    cgs = named("minimizer.cg")
    searches = named("minimizer.optimize_branch_points")
    trials = len(_under(spans, {"minimizer.optimize_branch_points"},
                        "minimizer.solve_branched_laplace")) - len(searches)
    accepted = _attr(searches, "accepted")
    fit_c = named("profiles.fit_c")
    writes = named(*WRITES)
    m = {
        "quadrature.rule_builds": len(rules),
        "quadrature.rule_nodes": _attr(rules, "nodes"),
        "quadrature.rule_build_s": _dur(rules),
        "quadrature.rule_bytes_computed": sum(
            s[ATTRS]["nodes"] * (s[ATTRS]["dim"] + 1) * 8 for s in rules),
        "fields.eval_calls": len(evals),
        "fields.eval_points": _attr(evals, "points"),
        "fields.eval_s": _dur(evals),
        "fields.propagate_signs_calls": len(named("fields.propagate_signs")),
        "fields.propagate_signs_s": _dur(named("fields.propagate_signs")),
        "fields.csv_io_s": _dur(named("fields.SampledField.to_csv",
                                      "fields.SampledField.from_csv")),
        "frequency.profile_calls": len(named("frequency.frequency_profile")),
        "frequency.profile_s": _dur(named("frequency.frequency_profile")),
        "frequency.at_point_s": _dur(named("frequency.frequency_at_point")),
        "minimizer.solves": len(solves),
        "minimizer.solve_s": _dur(solves),
        # solves never nest, so every solve span counts once
        "minimizer.assembly_s": sum(t for t, s in zip(selfs, spans)
                                    if s[NAME] == "minimizer.solve_branched_laplace"),
        "minimizer.cg_calls": len(cgs),
        "minimizer.cg_iters": _attr(cgs, "iters"),
        "minimizer.cg_s": _dur(cgs),
        "minimizer.energy_calls": len(named("minimizer.energy")),
        "minimizer.energy_s": _dur(named("minimizer.energy")),
        "minimizer.solve_failures": sum(
            1 for s in solves
            if (s[ATTRS] or {}).get("error") in ("BoundaryLiftError", "SolverError")),
        "minimizer.search_trials": trials,
        "minimizer.search_accepted": accepted,
        "minimizer.search_accept_ratio": accepted / trials if trials else 0.0,
        "minimizer.cover_eval_s": _dur(named("minimizer.cover_frequency",
                                             "minimizer.l2_error_vs_field",
                                             "minimizer.CoverField.to_two_valued")),
        "profiles.fit_c_calls": len(fit_c),
        "profiles.fit_c_s": _dur(fit_c),
        "profiles.fit_c_self_s": _dur(fit_c) - _dur(
            _under(spans, {"profiles.fit_c"}, "fields.propagate_signs")),
        "profiles.fit_rotation_calls": len(named("profiles.fit_rotation")),
        "profiles.fit_rotation_s": _dur(named("profiles.fit_rotation")),
        "profiles.corollary_s": _dur(named("profiles.corollary_checks")),
        "profiles.graph_decompose_s": _dur(named("profiles.graphical_decompose")),
        "spectral.project_L_s": _dur(named("spectral.project_L")),
        "spectral.decay_check_s": _dur(named("spectral.remainder_decay_check")),
        "spectral.half_case_s": _dur(named("spectral.half_case_boundary_term")),
        "decay.iterate_s": _dur(named("decay.iterate")),
        "decay.steps": len(named("decay.decay_step")),
        "decay.step_s": _dur(named("decay.decay_step")),
        "decay.tangent_s": _dur(named("decay.tangent_expansion")),
        "decay.detect_s": _dur(named("decay.detect_branch_set")),
        "cli.write_s": _dur(writes),
        # write_csv goes through write_text, which records the bytes
        "cli.bytes_written": _attr([s for s in spans if s[NAME] in WRITES], "bytes"),
    }
    for kind in STAGE_KINDS:
        m[f"cli.stage_s.{kind}"] = _dur(named(f"cli.stage_{kind}"))
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = sum(t for t, s in zip(selfs, spans) if s[LAYER] == layer)
    return m


def op_self_sums(spans):
    """Sum of span self times per operation id."""
    out = {}
    for t, s in zip(self_times(spans), spans):
        out[s[OP]] = out.get(s[OP], 0.0) + t
    return out
