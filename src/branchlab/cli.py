"""Experiment runner: config ingestion, pipeline stages, persistence.

Verbs: `branchlab run <config.json>`, `branchlab report <dir>`,
`branchlab validate <config.json>`.  Outputs are deterministic for a fixed
(config, seed): CSV/JSON files are written with repr-formatted floats and
sorted keys, and the manifest (written last) lists every produced file with
its content hash.  BRANCHLAB_THREADS caps parallelism of family sweeps.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fields as fmod
from . import frequency as qmod
from . import minimizer as mmod
from . import profiles as pmod
from . import spectral as smod
from . import decay as dmod
from .errors import BranchLabError, ConfigError
from .quadrature import QuadratureSpec, unit_ball
from .svgplot import write_loglog_svg

SCHEMA_VERSION = 1
KINDS = ("frequency", "monotonicity", "minimize", "decay", "spectral",
         "corollaries", "full-pipeline")
PIPELINE_STAGES = ("frequency", "monotonicity", "decay", "corollaries", "spectral")
QUADRATURE_COUNTS = ("nr", "ntheta", "naxis", "nsphere", "npolar")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass
class ExperimentConfig:
    kind: str
    field_spec: dict
    params: dict
    output_dir: str
    seed: int
    schema_version: int = SCHEMA_VERSION
    base_dir: str = "."

    @classmethod
    def from_json_file(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}", key="path")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON: {exc}", key="json")
        return cls.from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))

    @classmethod
    def from_dict(cls, raw, base_dir="."):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object", key="root")
        for req in ("kind", "field", "output_dir"):
            if req not in raw:
                raise ConfigError(f"missing required key: {req}", key=req)
        if raw.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError("unsupported schema_version", key="schema_version")
        kind = raw["kind"]
        if kind not in KINDS:
            raise ConfigError(f"unknown experiment kind: {kind}", key="kind")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be an object", key="params")
        for key, val in params.items():
            if key.endswith("tolerance") or key == "slack":
                if not (isinstance(val, (int, float)) and val > 0):
                    raise ConfigError(f"tolerance {key} must be positive", key=key)
        levels = params.get("levels")
        if levels is not None and not _is_level_list(levels):
            raise ConfigError("levels must be a non-empty list of [nr, ntheta] "
                              "pairs of positive integers", key="levels")
        radii = params.get("radii")
        if radii is not None and not _is_radius_list(radii):
            raise ConfigError("radii must be a non-empty list of positive finite "
                              "numbers", key="radii")
        quad = params.get("quadrature", {})
        if not isinstance(quad, dict):
            raise ConfigError("quadrature must be an object", key="quadrature")
        for name, count in quad.items():
            if name not in QUADRATURE_COUNTS or not (type(count) is int and count > 0):
                raise ConfigError(f"quadrature.{name} must be one of {QUADRATURE_COUNTS} "
                                  "with a positive integer count", key=f"quadrature.{name}")
        theta = params.get("theta")
        if theta is not None and not (_is_finite(theta) and 0 < theta < 0.25):
            raise ConfigError("theta must lie in (0, 1/4)", key="theta")
        expect = params.get("expect_constant")
        if expect is not None and not (_is_finite(expect) and expect != 0):
            raise ConfigError("expect_constant must be nonzero and finite", key="expect_constant")
        fspec = raw["field"]
        if not isinstance(fspec, dict) or "type" not in fspec:
            raise ConfigError("field spec needs a type", key="field")
        n = fspec.get("n", 2)
        if not (type(n) is int and n >= 2):
            raise ConfigError("field.n must be an integer >= 2", key="field.n")
        center = params.get("center")
        if center is not None and not _is_point(center, fspec):
            raise ConfigError("center must list one finite number per coordinate", key="center")
        centers = params.get("centers")
        if centers is not None and not (isinstance(centers, list) and len(centers) > 0
                                        and all(_is_point(c, fspec) for c in centers)):
            raise ConfigError("centers must be a non-empty list of points, each one finite "
                              "number per coordinate", key="centers")
        if fspec["type"] == "sampled":
            path = fspec.get("path")
            if not path:
                raise ConfigError("sampled field spec needs a path", key="field.path")
            full = path if os.path.isabs(path) else os.path.join(base_dir, path)
            if not os.path.exists(full):
                raise ConfigError(f"sampled field file missing: {full}", key="field.path")
        cfg = cls(kind=kind, field_spec=fspec, params=params,
                  output_dir=raw["output_dir"], seed=int(raw.get("seed", 0)),
                  base_dir=base_dir)
        if not (isinstance(cfg.stages, (list, tuple))
                and all(s in KINDS and s != "full-pipeline" for s in cfg.stages)):
            raise ConfigError("stages must be a list of stage kinds", key="stages")
        if "corollaries" in cfg.stages and not _has_perturbations(fspec):
            raise ConfigError("corollaries kind needs a power-sum field with a "
                              "base profile term plus perturbation terms", key="field")
        return cfg

    @property
    def stages(self):
        """The stage kinds this config runs, in order."""
        if self.kind == "full-pipeline":
            return self.params.get("stages", PIPELINE_STAGES)
        return [self.kind]


def _is_level_list(levels):
    """A non-empty list of [nr, ntheta] pairs of positive ints (bools excluded)."""
    return (isinstance(levels, list) and len(levels) > 0
            and all(isinstance(lv, list) and len(lv) == 2
                    and all(type(v) is int and v > 0 for v in lv) for lv in levels))


def _is_finite(x):
    """A finite int or float (bools excluded)."""
    return type(x) in (int, float) and math.isfinite(x)


def _is_radius_list(radii):
    """A non-empty list of positive finite numbers."""
    return (isinstance(radii, list) and len(radii) > 0
            and all(_is_finite(r) and r > 0 for r in radii))


def _is_point(center, fspec):
    """A non-empty list of finite numbers, n of them for a field that declares n."""
    return (isinstance(center, list) and len(center) > 0 and all(map(_is_finite, center))
            and (fspec["type"] not in ("power_sum", "branch_polynomial")
                 or len(center) == fspec.get("n", 2)))


def _has_perturbations(fspec):
    """Whether the field builds as a base mode plus perturbation modes."""
    terms = fspec.get("terms")
    return fspec["type"] == "non_stationary_control" or (
        fspec["type"] == "power_sum" and isinstance(terms, list) and len(terms) >= 2)


def _complex_list(pairs):
    return np.array([complex(p[0], p[1]) for p in pairs])


def build_field(spec, base_dir="."):
    ftype = spec.get("type")
    n = int(spec.get("n", 2))
    if ftype == "power_sum":
        terms = [(_complex_list(t["c"]), int(t["k"])) for t in spec["terms"]]
        return fmod.CylindricalModeField.power_sum(terms, n=n)
    if ftype == "branch_polynomial":
        coeffs = _complex_list(spec["coeffs"])
        c = _complex_list(spec["c"]) if "c" in spec else None
        return fmod.BranchPolynomialField(coeffs, c=c, n=n)
    if ftype == "non_stationary_control":
        return fmod.non_stationary_control(int(spec.get("m", 1)))
    if ftype == "sampled":
        path = spec["path"]
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        return fmod.SampledField.from_csv(full)
    raise ConfigError(f"unknown field type: {ftype}", key="field.type")


def quad_spec(params):
    return QuadratureSpec(**params.get("quadrature", {}))


def thread_count():
    raw = os.environ.get("BRANCHLAB_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _worker_count(n_items):
    """Threads for a sweep: BRANCHLAB_THREADS, capped by the items and the CPUs."""
    return min(thread_count(), n_items, os.cpu_count() or 1)


def _pmap(fn, items):
    nworkers = _worker_count(len(items))
    if nworkers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        return list(pool.map(fn, items))


class OutputWriter:
    """Serialized file writes plus the closing manifest."""

    def __init__(self, outdir):
        self.outdir = outdir
        os.makedirs(outdir, exist_ok=True)
        self.files = []

    def path(self, name):
        return os.path.join(self.outdir, name)

    def _register(self, name):
        if name not in self.files:
            self.files.append(name)

    def write_text(self, name, text):
        with open(self.path(name), "w") as fh:
            fh.write(text)
        self._register(name)

    def write_json(self, name, obj):
        with open(self.path(name), "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self._register(name)

    def write_csv(self, name, header, rows):
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        self.write_text(name, "\n".join(lines) + "\n")

    def write_svg(self, name, series, **kw):
        write_loglog_svg(self.path(name), series, **kw)
        self._register(name)

    def register_external(self, name):
        self._register(name)

    def finalize_manifest(self):
        entries = []
        for name in sorted(self.files):
            p = self.path(name)
            with open(p, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries.append({"path": name, "sha256": digest, "bytes": os.path.getsize(p)})
        with open(self.path("manifest.json"), "w") as fh:
            json.dump({"schema_version": SCHEMA_VERSION, "files": entries},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")


def check(name, ok, detail="", expect_fail=False):
    if expect_fail:
        status = "expected-fail" if not ok else "unexpected-pass"
    else:
        status = "pass" if ok else "fail"
    return {"name": name, "status": status, "detail": detail}


# ---------------------------------------------------------------------------
# Experiment stages


def stage_frequency(cfg, u, out, prefix=""):
    params = cfg.params
    spec = quad_spec(params)
    center = np.asarray(params.get("center", [0.0] * u.n), dtype=float)
    radii = np.asarray(params.get("radii", [0.25, 0.5, 1.0]), dtype=float)
    prof = qmod.frequency_profile(u, center, radii, spec)
    prof.to_csv(out.path(prefix + "frequency_profile.csv"))
    out.register_external(prefix + "frequency_profile.csv")
    checks = []
    expect = params.get("expect_constant")
    if expect is not None:
        err = float(np.max(np.abs(prof.N - expect) / abs(expect)))
        checks.append(check("frequency_constant", err <= params.get("tolerance", 1e-6),
                            f"max relative deviation {err:.3e}"))
    out.write_svg(prefix + "frequency.svg",
                  [("N(rho)", prof.radii.tolist(), np.maximum(prof.N, 1e-300).tolist())],
                  title="frequency function", xlabel="rho", ylabel="N")
    return {"checks": checks,
            "values": {"radii": prof.radii.tolist(), "N": prof.N.tolist()}}


def stage_monotonicity(cfg, u, out, prefix=""):
    params = cfg.params
    spec = quad_spec(params)
    lo, hi = params.get("radii_range", [0.05, 0.9])
    radii = np.linspace(lo, hi, int(params.get("nradii", 18)))
    slack = params.get("slack", 1e-8)
    checks = []
    rows = []
    prof = qmod.frequency_profile(u, np.zeros(u.n), radii, spec)
    rep = qmod.check_monotonicity(prof, slack)
    rows.append(("configured-field", len(rep.violations)))
    checks.append(check("monotone_configured_field", rep.ok,
                        f"{len(rep.violations)} violations"))
    rng = np.random.default_rng(cfg.seed)
    n_random = int(params.get("n_random", 0))
    rfields = [fmod.random_stationary_power_sum(rng, n=u.n) for _ in range(n_random)]

    def run_one(idx_field):
        idx, fld = idx_field
        p = qmod.frequency_profile(fld, np.zeros(fld.n), radii, spec)
        return idx, qmod.check_monotonicity(p, slack)

    for idx, r in _pmap(run_one, list(enumerate(rfields))):
        rows.append((f"random-{idx}", len(r.violations)))
        checks.append(check(f"monotone_random_{idx}", r.ok,
                            f"{len(r.violations)} violations"))
    if params.get("include_control", False):
        ctrl = fmod.non_stationary_control()
        pc = qmod.frequency_profile(ctrl, np.zeros(2), radii, spec)
        rc = qmod.check_monotonicity(pc, slack)
        rows.append(("non-stationary-control", len(rc.violations)))
        checks.append(check("control_violates", not rc.ok,
                            f"{len(rc.violations)} violations (violations are the expected outcome)"))
    out.write_csv(prefix + "monotonicity.csv", ["field", "violations"], rows)
    return {"checks": checks}


def stage_minimize(cfg, u, out, prefix=""):
    params = cfg.params
    radius = float(params.get("radius", 1.0))
    levels = params.get("levels", [[32, 64], [64, 128], [128, 256]])
    btr = mmod.BoundaryTrace.from_field(u, radius)
    rows = []
    errors = []
    cov = None
    for nr, ntheta in levels:
        cov = mmod.solve_branched_laplace(
            btr, grid=mmod.CoverGridSpec(nr=int(nr), ntheta=int(ntheta)))
        e = mmod.energy(cov)
        err = float(np.sqrt(mmod.l2_error_vs_field(cov, u)))
        errors.append(err)
        rows.append((int(nr), int(ntheta), float(e), err, cov.solve_residual))
    out.write_csv(prefix + "minimize_convergence.csv",
                  ["nr", "ntheta", "energy", "l2_error", "cg_residual"], rows)
    freq_radii = params.get("freq_radii", [0.25, 0.5])
    prof = mmod.cover_frequency(cov, freq_radii)
    checks = []
    if len(errors) >= 2:
        orders = [float(np.log(errors[i] / errors[i + 1]) / np.log(2))
                  for i in range(len(errors) - 1)]
        checks.append(check("l2_order_ge_1", all(o >= 1.0 for o in orders),
                            f"orders {orders}"))
    for rho, Nval in zip(freq_radii, prof.N):
        checks.append(check(f"frequency_at_{rho}", 0.48 <= Nval <= 0.52,
                            f"N({rho}) = {Nval:.5f}"))
    sampled = cov.to_two_valued()
    sampled.to_csv(out.path(prefix + "minimizer_solution.csv"))
    out.register_external(prefix + "minimizer_solution.csv")
    out.write_svg(prefix + "minimize_convergence.svg",
                  [("L2 error", [float(l[0]) for l in levels], errors)],
                  title="minimizer convergence", xlabel="nr", ylabel="L2 error")
    return {"checks": checks, "values": {"N": prof.N.tolist(), "errors": errors}}


def stage_decay(cfg, u, out, prefix=""):
    params = cfg.params
    spec = quad_spec(params)
    theta = float(params.get("theta", 0.125))
    k = int(params.get("k", 1))
    j_max = int(params.get("j_max", 3))
    centers = params.get("centers")
    if centers is None:
        centers = [params.get("center", [0.0] * u.n)]
    delta0 = params.get("delta0")
    checks = []
    values = {}
    for idx, center_spec in enumerate(centers):
        tag = f"{prefix}" if len(centers) == 1 else f"{prefix}center{idx}_"
        center = np.asarray(center_spec, dtype=float)
        run = dmod.iterate(u, center, k, theta=theta, j_max=j_max, spec=spec,
                           probe_gaps=bool(params.get("probe_gaps", False)),
                           delta0=None if delta0 is None else float(delta0),
                           eps0=params.get("eps0"))
        out.write_json(tag + "decay_run.json", run.to_json_dict())
        rows = [(s.j, theta ** s.j, s.excess_sq, s.ratio, s.outcome) for s in run.steps]
        out.write_csv(tag + "decay_table.csv",
                      ["j", "scale", "excess_sq", "ratio", "outcome"], rows)
        sigmas = params.get("sigmas")
        tr = dmod.tangent_expansion(u, center, run,
                                    sigmas=None if sigmas is None else np.asarray(sigmas),
                                    spec=spec)
        out.write_csv(tag + "tangent_tables.csv",
                      ["sigma", "l2_scaled", "sup_sq"],
                      [(float(s), float(a), float(b))
                       for s, a, b in zip(tr.sigmas, tr.l2_table, tr.sup_table)])
        out.write_svg(tag + "decay_loglog.svg",
                      [("normalized excess",
                        [theta ** s.j for s in run.steps if np.isfinite(s.excess_sq)],
                        [max(s.excess_sq, 1e-300) for s in run.steps if np.isfinite(s.excess_sq)]),
                       ("sigma^-n L2(eps)^2", tr.sigmas.tolist(),
                        np.maximum(tr.l2_table, 1e-300).tolist())],
                      title="decay iteration", xlabel="scale", ylabel="excess")
        expect_ratio = params.get("expect_ratio")
        if expect_ratio is not None:
            ratios = [s.ratio for s in run.steps[1:] if np.isfinite(s.ratio)]
            ok = all(abs(r - expect_ratio) <= 0.2 * expect_ratio for r in ratios)
            checks.append(check(f"excess_ratio{'' if len(centers) == 1 else f'_{idx}'}",
                                ok, f"ratios {ratios}"))
        values[f"center_{idx}"] = {"outcome": run.outcome,
                                   "exponent": run.exponent_estimate,
                                   "l2_slope": tr.l2_slope, "sup_slope": tr.sup_slope}
    return {"checks": checks, "values": values}


def stage_spectral(cfg, u, out, prefix=""):
    params = cfg.params
    spec = quad_spec(params)
    k = int(params.get("k", 1))
    alpha = k / 2.0
    prof = pmod.fit_profile(u, k, spec=spec)
    e_sq = pmod.excess(u, prof, unit_ball(u.n), spec)
    scale = float(np.sqrt(max(e_sq, 1e-300)))
    checks = []
    if scale < 1e-12:
        out.write_json(prefix + "spectral_summary.json",
                       {"note": "field coincides with its profile; no blow-up"})
        return {"checks": checks, "values": {"excess": e_sq}}
    w = smod.CoverFunction.blowup(u, prof, scale)
    proj = smod.project_L(w, 1.0, prof.c, alpha)
    checks.append(check("pythagoras", proj.pythagoras_residual <= 1e-10,
                        f"residual {proj.pythagoras_residual:.3e}"))
    scales = params.get("scales", [0.5, 0.25, 0.125])
    rep = smod.remainder_decay_check(w, theta=float(params.get("theta", 0.125)),
                               scales=scales, c0=prof.c, alpha=alpha)
    contr = rep.contractions
    checks.append(check("contractions_below_one",
                        all(c < 1.0 for c in contr), f"{contr}"))
    rows = [(r.rho, r.remainder_norm_sq, r.normalized_remainder,
             r.radial_integral_quarter, r.radial_integral_full, r.contraction)
            for r in rep.rows]
    out.write_csv(prefix + "spectral_scales.csv",
                  ["rho", "remainder_sq", "normalized_remainder",
                   "radial_quarter", "radial_full", "contraction"], rows)
    values = {"exponent": rep.exponent_estimate, "lhs": rep.lhs, "rhs": rep.rhs_norm}
    if u.n >= 3:
        limit, unc, table = smod.half_case_boundary_term(w, 0, c0=prof.c, alpha=alpha)
        ok = bool(np.max(np.abs(limit)) <= max(10 * unc, 1e-6))
        checks.append(check("half_case_limit_zero", ok,
                            f"limit {limit.tolist()} unc {unc:.2e}"))
        values["half_case"] = {"limit": limit.tolist(), "uncertainty": unc}
    out.write_json(prefix + "spectral_summary.json", values)
    return {"checks": checks, "values": values}


def stage_corollaries(cfg, u, out, prefix=""):
    params = cfg.params
    spec = quad_spec(params)
    k = int(params.get("k", 1))
    t_values = params.get("t_values", [0.1, 0.01, 0.001])
    base_mode = u.modes[0]
    prof = pmod.CylindricalProfile(base_mode.a - 1j * base_mode.b, k, n=u.n)

    def family_member(t):
        modes = [base_mode] + [
            fmod.CylindricalMode(md.beta, md.freq, md.a * t, md.b * t, md.y0, md.ylin)
            for md in u.modes[1:]
        ]
        return fmod.CylindricalModeField(modes, n=u.n)

    def run_one(t):
        ut = family_member(t)
        return t, pmod.corollary_checks(ut, prof, spec=spec)

    results = _pmap(run_one, list(t_values))
    rows = []
    by_name = {}
    for t, rws in results:
        for r in rws:
            rows.append((r.name, float(r.lhs), float(r.rhs), float(r.ratio),
                         json.dumps({**r.params, "t": t}, sort_keys=True).replace(",", ";")))
            by_name.setdefault(r.name, []).append(r.ratio)
    out.write_csv(prefix + "corollary_report.csv",
                  ["name", "lhs", "rhs", "ratio", "params"], rows)
    checks = []
    for name, ratios in sorted(by_name.items()):
        finite = [r for r in ratios if np.isfinite(r) and r > 0]
        if len(finite) >= 2:
            spread = max(finite) / min(finite)
            checks.append(check(f"ratio_stable_{name}", spread < 3.0,
                                f"spread factor {spread:.3f}"))
    return {"checks": checks}


STAGES = {
    "frequency": stage_frequency,
    "monotonicity": stage_monotonicity,
    "minimize": stage_minimize,
    "decay": stage_decay,
    "spectral": stage_spectral,
    "corollaries": stage_corollaries,
}


def run(cfg):
    """Execute the experiment; returns (exit_code, outdir)."""
    outdir = cfg.output_dir
    if not os.path.isabs(outdir):
        outdir = os.path.join(cfg.base_dir, outdir)
    out = OutputWriter(outdir)
    u = build_field(cfg.field_spec, cfg.base_dir)
    summary = {"kind": cfg.kind, "seed": cfg.seed, "schema_version": SCHEMA_VERSION,
               "checks": [], "stages": {}}
    failed_stage = False
    for name in cfg.stages:
        prefix = f"{name}_" if cfg.kind == "full-pipeline" else ""
        try:
            res = STAGES[name](cfg, u, out, prefix=prefix)
            summary["stages"][name] = {"status": "ok", **res}
            summary["checks"].extend(res.get("checks", []))
        except BranchLabError as exc:
            failed_stage = True
            summary["stages"][name] = {"status": "error", "error": str(exc)}
        except Exception as exc:  # numerical-stage failure, keep going
            failed_stage = True
            summary["stages"][name] = {"status": "error", "error": repr(exc)}
    hard_fail = any(c["status"] == "fail" for c in summary["checks"])
    summary["status"] = "error" if failed_stage else ("fail" if hard_fail else "ok")
    out.write_json("summary.json", summary)
    out.finalize_manifest()
    return (EXIT_NUMERICAL if failed_stage else EXIT_OK), outdir


def report(outdir):
    manifest_path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise BranchLabError(f"no manifest in {outdir}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    lines = [f"experiment: {summary.get('kind')}  status: {summary.get('status')}"]
    lines.append(f"{'check':44s} {'status':14s} detail")
    for c in summary.get("checks", []):
        lines.append(f"{c['name']:44s} {c['status']:14s} {c.get('detail', '')}")
    for name, st in sorted(summary.get("stages", {}).items()):
        if st.get("status") == "error":
            lines.append(f"stage {name}: ERROR {st.get('error')}")
    lines.append(f"files: {len(manifest.get('files', []))} listed in manifest")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="branchlab",
                                     description="two-valued harmonic function laboratory")
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_rep = sub.add_parser("report", help="summarize an artifact directory")
    p_rep.add_argument("directory")
    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    try:
        if args.verb == "validate":
            ExperimentConfig.from_json_file(args.config)
            print("ok")
            return EXIT_OK
        if args.verb == "run":
            cfg = ExperimentConfig.from_json_file(args.config)
            code, outdir = run(cfg)
            print(f"artifacts: {outdir}")
            return code
        if args.verb == "report":
            print(report(args.directory))
            return EXIT_OK
    except ConfigError as exc:
        err = {"error": str(exc), "key": exc.key}
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return EXIT_CONFIG
    except BranchLabError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
