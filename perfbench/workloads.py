"""The benchmark's workloads: inputs made from a seed, operations, fingerprints.

Every workload is a fixed list of operations that one process issues one
after another (a closed loop with a single client).  An operation either
runs `branchlab run <config>` in-process through `cli.main`, or calls the
library directly where the command line has no verb for the work.

The seed picks the data amplitude 2**k with k in -2..2 and, where a stage
draws random fields, that stage's seed.  Multiplying the data by a power of
two multiplies every linear result exactly and leaves the solver's
iteration path unchanged, so each run does the same work and its
fingerprints, divided by the amplitude to the power they carry, can be held
against one recorded reference per workload.  (The one exception found is
noted at the search fingerprints below.)

A fingerprint entry is `key -> (value, rule)`, where the rule is one of
`{"tol": t}` (within t of the reference), `{"max": b}` (at most b) or
`{}` (recorded for the determinism digest only).
"""

import json
import os

import numpy as np

C_NULL = [[0.7071067811865476, 0.0], [0.0, 0.7071067811865476]]  # (1, i)/sqrt(2)
THETA = 0.125

# Tolerances of the recorded references, relative to the value's own scale.
# They admit rounding-level differences from a re-ordered computation and
# reject anything a change of method or discretisation would move.
REL_TOL = {"N": 1e-6, "energy": 1e-8, "l2": 1e-6, "ratio": 1e-5, "c": 1e-6,
           "corollary": 1e-6}
CG_RESIDUAL_MAX = 1e-9


class OperationFailed(Exception):
    """An operation returned, but its outputs are wrong."""


def amplitude(seed):
    return 2.0 ** (seed % 5 - 2)


def _scaled(c, amp):
    return [[amp * re, amp * im] for re, im in c]


def _power_sum(n, terms, amp):
    return {"type": "power_sum", "n": n,
            "terms": [{"k": k, "c": _scaled(C_NULL, amp * w)} for k, w in terms]}


def _near(value, kind, scale=None):
    scale = abs(value) if scale is None else scale
    return float(value), {"tol": REL_TOL[kind] * max(scale, 1e-300)}


def _c_entries(prefix, c_re, c_im, amp):
    """Fitted coefficient c / amp, with its global sign fixed."""
    c = (np.asarray(c_re) + 1j * np.asarray(c_im)) / amp
    lead = int(np.argmax(np.abs(c)))
    if c[lead].real < 0 or (c[lead].real == 0 and c[lead].imag < 0):
        c = -c
    scale = float(np.linalg.norm(c))
    out = {}
    for i, v in enumerate(c):
        out[f"{prefix}.c{i}.re"] = _near(v.real, "c", scale)
        out[f"{prefix}.c{i}.im"] = _near(v.imag, "c", scale)
    return out


# ---------------------------------------------------------------------------
# Command-line operations


class CliRun:
    """`branchlab run <config>` issued in-process; outputs read afterwards."""

    def __init__(self, name, workdir, config, fingerprint):
        self.name = name
        self.dir = os.path.join(workdir, name)
        self.config_path = os.path.join(workdir, name + ".json")
        self.fingerprint_fn = fingerprint
        config = dict(config, schema_version=1, output_dir=name)
        with open(self.config_path, "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)

    def __call__(self):
        from branchlab import cli

        return cli.main(["run", self.config_path])

    def fingerprint(self, code):
        if code != 0:
            raise OperationFailed(f"exit code {code}")
        summary = self.read_json("summary.json")
        if summary["status"] != "ok":
            failed = [c["name"] for c in summary["checks"] if c["status"] != "pass"]
            raise OperationFailed(f"summary status {summary['status']}: {failed}")
        return self.fingerprint_fn(self, summary)

    def read_json(self, name):
        with open(os.path.join(self.dir, name)) as fh:
            return json.load(fh)

    def read_csv(self, name):
        with open(os.path.join(self.dir, name)) as fh:
            header = fh.readline().strip().split(",")
            return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def _frequency_entries(prefix, values):
    return {f"{prefix}.N[{i}]": _near(v, "N") for i, v in enumerate(values["N"])}


def _decay_entries(prefix, run, amp):
    out = {f"{prefix}.outcome": (run["outcome"], {})}
    for s in run["steps"][1:]:
        out[f"{prefix}.ratio[{s['j']}]"] = _near(s["ratio"], "ratio")
    lim = run["limit_profile"]
    out.update(_c_entries(prefix + ".limit", lim["c_re"], lim["c_im"], amp))
    return out


# ---------------------------------------------------------------------------
# cover-solve


def cover_solve(workdir, seed, toy):
    amp = amplitude(seed)
    levels = [[16, 32], [32, 64]] if toy else [[64, 128], [128, 256], [256, 512]]
    quad = ({"nr": 12, "ntheta": 24, "nsphere": 48} if toy
            else {"nr": 24, "ntheta": 48, "nsphere": 96})

    def minimize_fp(op, summary):
        out = _frequency_entries("minimize", summary["stages"]["minimize"]["values"])
        for row in op.read_csv("minimize_convergence.csv"):
            tag = f"{row['nr']}x{row['ntheta']}"
            out[f"minimize.energy.{tag}"] = _near(float(row["energy"]) / amp ** 2, "energy")
            out[f"minimize.l2.{tag}"] = _near(float(row["l2_error"]) / amp, "l2")
            out[f"minimize.cg_residual.{tag}"] = (float(row["cg_residual"]),
                                                  {"max": CG_RESIDUAL_MAX})
        return out

    def decay_fp(op, summary):
        return _decay_entries("decay", op.read_json("decay_run.json"), amp)

    minimize = CliRun("minimize", workdir, {
        "kind": "minimize",
        "field": _power_sum(2, [(1, 1.0), (3, 0.05)], amp),
        "params": {"levels": levels},
        "seed": seed,
    }, minimize_fp)
    decay = CliRun("decay", workdir, {
        "kind": "decay",
        "field": {"type": "sampled", "path": "minimize/minimizer_solution.csv"},
        "params": {"j_max": 1 if toy else 3, "quadrature": quad},
        "seed": seed,
    }, decay_fp)
    return [minimize, decay]


# ---------------------------------------------------------------------------
# branch-search


class LibraryCall:
    """A direct library call, for work the command line has no verb for."""

    def __init__(self, name, call, fingerprint):
        self.name = name
        self.call = call
        self.fingerprint = fingerprint

    def __call__(self):
        return self.call()


def _near_target(points, targets, resolution):
    """Each found point within four local cells of a true branch point."""
    for p in points:
        d = min(float(np.linalg.norm(p - t)) for t in targets)
        if d >= 4.0 * resolution:
            raise OperationFailed(f"branch point {p.tolist()} is {d:.4f} from the "
                                  f"nearest true point (limit {4.0 * resolution:.4f})")


def branch_search(workdir, seed, toy):
    # functions are looked up on the module at call time, so that a traced
    # pass sees the wrapped bindings
    from branchlab import minimizer as mmod
    from branchlab.fields import BranchPolynomialField
    from branchlab.minimizer import BranchConfiguration, CoverGridSpec

    amp = amplitude(seed)
    c = amp * np.array([1.0, -1.0j])
    t = 0.3
    two = BranchPolynomialField([-t * t, 0.0, 1.0], c=c)
    one = BranchPolynomialField([-0.2, 1.0], c=c)
    traces = {}

    def boundary(fld):
        # built inside the first operation that needs it, not during set-up
        if id(fld) not in traces:
            traces[id(fld)] = mmod.BoundaryTrace.from_field(fld, 1.0)
        return traces[id(fld)]

    cfg_two = BranchConfiguration([np.array([t, 0.0]), np.array([-t, 0.0])])
    nr0 = 16 if toy else 48
    coarse = CoverGridSpec(nr=nr0, ntheta=2 * nr0)
    solves = [coarse, CoverGridSpec(nr=2 * nr0, ntheta=4 * nr0)]
    budgets = (5, 4) if toy else (25, 16)
    errors = []

    def solve_op(grid):
        tag = f"{grid.nr}x{grid.ntheta}"

        def call():
            # solve, then evaluate as the minimize stage does
            cov = mmod.solve_branched_laplace(boundary(two), cfg_two, grid=grid)
            return cov, mmod.energy(cov), float(np.sqrt(mmod.l2_error_vs_field(cov, two)))

        def fp(result):
            cov, e, err = result
            errors.append(err)
            if len(errors) == 2 and not errors[1] < 0.6 * errors[0]:
                raise OperationFailed(f"L2 error did not shrink under refinement: {errors}")
            return {f"solve.energy.{tag}": _near(e / amp ** 2, "energy"),
                    f"solve.l2.{tag}": _near(err / amp, "l2"),
                    f"solve.cg_residual.{tag}": (cov.solve_residual, {"max": CG_RESIDUAL_MAX})}

        return LibraryCall(f"solve-{tag}", call, fp)

    def search_fp(prefix, targets, resolution):
        def fp(res):
            if res.degenerate:
                raise OperationFailed("search flagged a genuine branch set as degenerate")
            if any(b > a + 1e-14 * amp ** 2 for a, b in zip(res.trace, res.trace[1:])):
                raise OperationFailed("search energy trace increased")
            points = sorted((np.asarray(p) for p in res.config.points), key=lambda p: -p[0])
            if not toy:  # a toy grid is too coarse for the four-cell criterion
                _near_target(points, targets, resolution)
            # moves are recorded only: the search accepts a move by an absolute
            # energy margin of 1e-14, so at amplitude 4 the one-point search
            # takes one more equal-energy move than at amplitude 1
            out = {f"{prefix}.energy": _near(res.energy / amp ** 2, "energy"),
                   f"{prefix}.moves": (len(res.trace) - 1, {})}
            for i, p in enumerate(points):
                out[f"{prefix}.point{i}"] = ([float(v) for v in p], {})
            return out

        return fp

    search_two = LibraryCall(
        "search-two-point",
        lambda: mmod.optimize_branch_points(
            boundary(two), BranchConfiguration([np.array([0.33, 0.03]), np.array([-0.27, -0.03])]),
            budget=budgets[0], grid=coarse, step=0.04),
        search_fp("search2", [np.array([t, 0.0]), np.array([-t, 0.0])],
                  2.0 * np.sqrt(t) / coarse.nr))
    search_one = LibraryCall(
        "search-one-point",
        lambda: mmod.optimize_branch_points(
            boundary(one), BranchConfiguration([np.array([0.25, 0.05])]),
            budget=budgets[1], grid=coarse),
        search_fp("search1", [np.array([0.2, 0.0])], 2.0 * np.sqrt(0.2) / coarse.nr))
    return [solve_op(g) for g in solves] + [search_two, search_one]


# ---------------------------------------------------------------------------
# profile-pipeline


def profile_pipeline(workdir, seed, toy):
    amp = amplitude(seed)
    small = {"nr": 12, "ntheta": 24, "naxis": 6, "nsphere": 48, "npolar": 24}

    def pipeline_fp(prefix):
        def fp(op, summary):
            stages = summary["stages"]
            out = _frequency_entries(prefix + ".frequency", stages["frequency"]["values"])
            if "decay" in stages:
                out.update(_decay_entries(prefix + ".decay",
                                          op.read_json("decay_decay_run.json"), amp))
            if "spectral" in stages:
                out[prefix + ".spectral.exponent"] = _near(
                    stages["spectral"]["values"]["exponent"], "ratio")
            if "monotonicity" in stages:
                for row in op.read_csv("monotonicity_monotonicity.csv"):
                    out[f"{prefix}.violations.{row['field']}"] = (int(row["violations"]), {})
            if "corollaries" in stages:
                for i, row in enumerate(op.read_csv("corollaries_corollary_report.csv")):
                    out[f"{prefix}.corollary[{i}].{row['name']}"] = _near(
                        float(row["ratio"]), "corollary")
            return out

        return fp

    n2 = CliRun("pipeline-n2", workdir, {
        "kind": "full-pipeline",
        "field": _power_sum(2, [(1, 1.0), (3, 0.02)], amp),
        "params": dict({"stages": ["frequency", "monotonicity", "decay",
                                   "corollaries", "spectral"],
                        "n_random": 2 if toy else 8, "include_control": True,
                        "j_max": 1 if toy else 3, "expect_ratio": THETA ** 2},
                       **({"quadrature": small} if toy else {})),
        "seed": seed,
    }, pipeline_fp("n2"))
    n3 = CliRun("pipeline-n3", workdir, {
        "kind": "full-pipeline",
        "field": _power_sum(3, [(1, 1.0), (5, 0.01)], amp),
        # profile fits on the n = 3 cover grid have a fixed size, so the toy
        # run keeps only the frequency stage
        "params": {"stages": ["frequency"] if toy else ["frequency", "decay", "spectral"],
                   "j_max": 2,
                   "quadrature": small if toy else
                   {"nr": 24, "ntheta": 48, "naxis": 12, "nsphere": 128}},
        "seed": seed,
    }, pipeline_fp("n3"))
    return [n2, n3]


# ---------------------------------------------------------------------------
# highdim-frequency


def highdim_frequency(workdir, seed, toy):
    amp = amplitude(seed)
    small = {"nr": 12, "ntheta": 24, "naxis": 6, "nsphere": 32, "npolar": 16}

    def freq_fp(prefix):
        return lambda op, summary: _frequency_entries(
            prefix, summary["stages"]["frequency"]["values"])

    ops = []
    # The model profile has N = 1/2 at every radius.  The default n = 4 rule
    # reaches only 3e-5 of that, so n = 4 is held to its recorded reference
    # alone rather than to the stage's 1e-6 constant-frequency check.
    for n, radii in ((3, [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
                     (4, [0.25, 0.5, 1.0])):
        params = {"radii": radii}
        if n == 3 and not toy:
            params["expect_constant"] = 0.5
        if toy:
            params["quadrature"] = small
        ops.append(CliRun(f"frequency-n{n}", workdir, {
            "kind": "frequency",
            "field": _power_sum(n, [(1, 1.0)], amp),
            "params": params,
            "seed": seed,
        }, freq_fp(f"n{n}")))
    return ops


WORKLOADS = {
    "cover-solve": cover_solve,
    "branch-search": branch_search,
    "profile-pipeline": profile_pipeline,
    "highdim-frequency": highdim_frequency,
}
