"""Experiment runner: config ingestion, pipeline stages, persistence.

Verbs: `branchlab run <config.json>`, `branchlab report <dir>`,
`branchlab validate <config.json>`.  Outputs are deterministic for a fixed
(config, seed): CSV/JSON files are written with repr-formatted floats and
sorted keys, and the manifest (written last) lists every produced file with
its content hash.  Family sweeps (the random fields of `monotonicity`, the t
values of `corollaries`) run in order in one thread.
"""

import argparse
import hashlib
import json
import math
import os
import sys
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
CONFIG_KEYS = ("schema_version", "kind", "field", "params", "output_dir", "seed")
# The entries of a `field` object, by field type.
FIELD_ENTRIES = {
    "power_sum": ("type", "n", "terms"),
    "branch_polynomial": ("type", "n", "coeffs", "c"),
    "non_stationary_control": ("type", "n", "m"),
    "sampled": ("type", "n", "path"),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    output_dir: str
    seed: int
    field: fmod.Field
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
        """Check the whole config, build its field, and fill in every PARAMS default."""
        _require(isinstance(raw, dict), "root", "config root must be an object")
        for req in ("kind", "field", "output_dir"):
            _require(req in raw, req, f"missing required key: {req}")
        for key in raw:
            _require(key in CONFIG_KEYS, key, f"unknown config key: {key}")
        _require(raw.get("schema_version", SCHEMA_VERSION) == SCHEMA_VERSION, "schema_version",
                 "unsupported schema_version")
        kind, output_dir, seed = raw["kind"], raw["output_dir"], raw.get("seed", 0)
        _require(kind in KINDS, "kind", f"unknown experiment kind: {kind}")
        _require(isinstance(output_dir, str) and output_dir != "", "output_dir",
                 "output_dir must be a non-empty string")
        _require(_is_int(seed, 0), "seed", "seed must be an integer >= 0")
        given, fspec = raw.get("params", {}), raw["field"]
        _require(isinstance(given, dict), "params", "params must be an object")
        for key in given:
            _require(key in PARAMS, key, f"unknown params key: {key}")
        _require(isinstance(fspec, dict) and "type" in fspec, "field", "field spec needs a type")
        u = build_field(fspec, base_dir)
        params = {}
        for key, (default, ok, valid) in PARAMS.items():
            value = params[key] = given.get(key, default(u) if callable(default) else default)
            _require((value is None and default is None) or ok(value, params, u), key,
                     f"{key} must be {valid}")
        cfg = cls(kind, params, output_dir, seed, u, base_dir)
        _require("corollaries" not in cfg.stages or len(getattr(u, "modes", ())) >= 2, "field",
                 "corollaries needs a power-sum field with a base term plus perturbation terms")
        _require(u.n <= 3 or not {"decay", "spectral"} & set(cfg.stages), "field.n",
                 f"decay and spectral fit profiles at n = 2 and 3 only, and the field has "
                 f"n = {u.n}")
        return cfg

    @property
    def stages(self):
        """The stage kinds this config runs, in order."""
        return self.params["stages"] if self.kind == "full-pipeline" else [self.kind]


def _require(ok, key, message):
    if not ok:
        raise ConfigError(message, key=key)


def _is_finite(x):
    """A finite int or float (bools excluded)."""
    return type(x) in (int, float) and math.isfinite(x)


def _is_positive(x, *_):
    return _is_finite(x) and x > 0


def _is_int(x, lo=1):
    """An int >= lo (bools excluded)."""
    return type(x) is int and x >= lo


def _is_list(xs, ok=_is_positive):
    """A non-empty list whose every entry passes ok."""
    return isinstance(xs, list) and len(xs) > 0 and all(ok(x) for x in xs)


def _is_increasing(xs, *_):
    """At least two strictly increasing positive finite numbers."""
    return _is_list(xs) and len(xs) >= 2 and all(a < b for a, b in zip(xs, xs[1:]))


def _is_point(x, params, u):
    """One finite number per coordinate of the field u."""
    return _is_list(x, _is_finite) and len(x) == u.n


def _is_quadrature(quad, *_):
    """An object of QUADRATURE_COUNTS entries; a bad entry raises, naming itself."""
    for name, count in quad.items() if isinstance(quad, dict) else ():
        _require(name in QUADRATURE_COUNTS and _is_int(count), f"quadrature.{name}",
                 f"quadrature.{name} must be a positive integer count in {QUADRATURE_COUNTS}")
    return isinstance(quad, dict)


POSITIVE = "a positive finite number"

# The run contract: every `params` key -> (default, check, valid values).  A
# check is called as check(value, params, field), where params holds the keys
# above it, already checked.  A default that is a function is given the field;
# a key whose default is None may be given as null, the same as leaving it out.
PARAMS = {
    "stages": (list(PIPELINE_STAGES), lambda s, *_: isinstance(s, list)
               and all(k in KINDS and k != "full-pipeline" for k in s),
               "a list of stage kinds, full-pipeline excluded"),
    "quadrature": ({}, _is_quadrature, "an object mapping any of "
                   f"{', '.join(QUADRATURE_COUNTS)} to a positive integer"),
    "radii": ([0.25, 0.5, 1.0], _is_increasing, "at least two increasing positive numbers"),
    "center": (lambda u: [0.0] * u.n, _is_point, "one finite number per field coordinate"),
    "centers": (None, lambda cs, p, u: _is_list(cs, lambda c: _is_point(c, p, u)),
                "a non-empty list of points like center"),
    "expect_constant": (None, lambda x, *_: _is_finite(x) and x != 0, "a nonzero finite number"),
    "tolerance": (1e-6, _is_positive, POSITIVE),
    "radii_range": ([0.05, 0.9], lambda r, *_: _is_increasing(r) and len(r) == 2,
                    "[lo, hi] with 0 < lo < hi"),
    "nradii": (18, lambda x, *_: _is_int(x, 3), "an integer >= 3"),
    "slack": (1e-8, _is_positive, POSITIVE),
    "n_random": (0, lambda x, *_: _is_int(x, 0), "an integer >= 0"),
    "include_control": (False, lambda x, *_: type(x) is bool, "true or false"),
    "radius": (1.0, _is_positive, POSITIVE),
    "levels": ([[32, 64], [64, 128], [128, 256]],
               lambda v, *_: _is_list(v, lambda lv: _is_list(lv, _is_int) and len(lv) == 2
                                      and lv[0] >= 3),
               "a non-empty list of [nr, ntheta] pairs of positive integers, nr >= 3"),
    "freq_radii": ([0.25, 0.5], lambda r, p, u: _is_list(r) and max(r) <= p["radius"],
                   "a non-empty list of positive numbers, each <= radius"),
    "theta": (0.125, lambda x, *_: _is_finite(x) and 0 < x < 0.25, "a number in (0, 1/4)"),
    "k": (1, lambda x, *_: _is_int(x), "a positive integer"),
    "j_max": (3, lambda x, *_: _is_int(x), "a positive integer"),
    "delta0": (None, _is_positive, POSITIVE),
    "eps0": (None, _is_positive, POSITIVE),
    "probe_gaps": (False, lambda x, *_: type(x) is bool, "true or false"),
    "sigmas": (None, lambda s, *_: _is_list(s), "one or more positive numbers"),
    "expect_ratio": (None, _is_positive, POSITIVE),
    "scales": ([0.5, 0.25, 0.125], lambda s, *_: _is_list(s), "one or more positive numbers"),
    "t_values": ([0.1, 0.01, 0.001], lambda t, *_: _is_list(t, _is_finite),
                 "a non-empty list of finite numbers"),
}


def _complex_list(pairs):
    """[[re, im], ...] of finite numbers, as a complex array."""
    if not _is_list(pairs, lambda p: _is_list(p, _is_finite) and len(p) == 2):
        raise ValueError("expected a non-empty list of [re, im] pairs of finite numbers")
    return np.array([complex(p[0], p[1]) for p in pairs])


def build_field(spec, base_dir="."):
    """The field a config's `field` object describes; ConfigError names a bad entry."""
    ftype = spec.get("type")
    entries = FIELD_ENTRIES.get(ftype) if isinstance(ftype, str) else None
    _require(entries is not None, "field.type", f"unknown field type: {ftype}")
    for entry in spec:
        _require(entry in entries, f"field.{entry}", f"a {ftype} field has no entry {entry}")
    n = spec.get("n", 2)
    _require(_is_int(n, 2), "field.n", "field.n must be an integer >= 2")
    try:
        if ftype == "power_sum":
            key = "terms"
            terms = [(_complex_list(t["c"]), t["k"]) for t in spec["terms"]]
            if not all(_is_int(k) for _, k in terms):
                raise ValueError("each term needs an integer k >= 1")
            u = fmod.CylindricalModeField.power_sum(terms, n=n)
        elif ftype == "branch_polynomial":
            key = "coeffs"
            coeffs = _complex_list(spec["coeffs"])
            key = "c"
            c = _complex_list(spec["c"]) if "c" in spec else None
            u = fmod.BranchPolynomialField(coeffs, c=c, n=n)
        elif ftype == "non_stationary_control":
            key, m = "m", spec.get("m", 1)
            if not _is_int(m):
                raise ValueError(f"m = {m!r} is not a positive integer")
            u = fmod.non_stationary_control(m)
        else:
            key = "path"
            u = fmod.SampledField.from_csv(os.path.join(base_dir, spec["path"]))
    except (BranchLabError, KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        raise ConfigError(f"field.{key} cannot build the field: {type(exc).__name__}: {exc}",
                          key=f"field.{key}") from exc
    _require(spec.get("n", u.n) == u.n, "field.n",
             f"field.n is {n}, but the {ftype} field has n = {u.n}")
    return u


def quad_spec(params):
    return QuadratureSpec(**params["quadrature"])


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


def check(name, ok, detail=""):
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


# ---------------------------------------------------------------------------
# Experiment stages


def stage_frequency(cfg, u, out, prefix=""):
    params = cfg.params
    spec = quad_spec(params)
    center = np.asarray(params["center"], dtype=float)
    radii = np.asarray(params["radii"], dtype=float)
    prof = qmod.frequency_profile(u, center, radii, spec)
    out.write_csv(prefix + "frequency_profile.csv", ["rho", "D", "H", "N", "dN_drho"],
                  prof.rows())
    checks = []
    expect = params["expect_constant"]
    if expect is not None:
        err = float(np.max(np.abs(prof.N - expect) / abs(expect)))
        checks.append(check("frequency_constant", err <= params["tolerance"],
                            f"max relative deviation {err:.3e}"))
    out.write_svg(prefix + "frequency.svg",
                  [("N(rho)", prof.radii.tolist(), np.maximum(prof.N, 1e-300).tolist())],
                  title="frequency function", xlabel="rho", ylabel="N")
    return {"checks": checks,
            "values": {"radii": prof.radii.tolist(), "N": prof.N.tolist()}}


def stage_monotonicity(cfg, u, out, prefix=""):
    params = cfg.params
    spec = quad_spec(params)
    lo, hi = params["radii_range"]
    radii = np.linspace(lo, hi, params["nradii"])
    slack = params["slack"]
    checks = []
    rows = []
    prof = qmod.frequency_profile(u, np.zeros(u.n), radii, spec)
    rep = qmod.check_monotonicity(prof, slack)
    rows.append(("configured-field", len(rep.violations)))
    checks.append(check("monotone_configured_field", rep.ok,
                        f"{len(rep.violations)} violations"))
    rng = np.random.default_rng(cfg.seed)
    for idx in range(params["n_random"]):
        fld = fmod.random_stationary_power_sum(rng, n=u.n)
        p = qmod.frequency_profile(fld, np.zeros(fld.n), radii, spec)
        r = qmod.check_monotonicity(p, slack)
        rows.append((f"random-{idx}", len(r.violations)))
        checks.append(check(f"monotone_random_{idx}", r.ok,
                            f"{len(r.violations)} violations"))
    if params["include_control"]:
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
    levels = params["levels"]
    btr = mmod.BoundaryTrace.from_field(u, params["radius"])
    rows = []
    errors = []
    cov = None
    for nr, ntheta in levels:
        cov = mmod.solve_branched_laplace(btr, grid=mmod.CoverGridSpec(nr=nr, ntheta=ntheta))
        e = mmod.energy(cov)
        err = float(np.sqrt(mmod.l2_error_vs_field(cov, u)))
        errors.append(err)
        rows.append((nr, ntheta, float(e), err, cov.solve_residual))
    out.write_csv(prefix + "minimize_convergence.csv",
                  ["nr", "ntheta", "energy", "l2_error", "cg_residual"], rows)
    freq_radii = params["freq_radii"]
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
    theta = params["theta"]
    centers = params["centers"] or [params["center"]]
    checks = []
    values = {}
    for idx, center_spec in enumerate(centers):
        tag = f"{prefix}" if len(centers) == 1 else f"{prefix}center{idx}_"
        center = np.asarray(center_spec, dtype=float)
        run = dmod.iterate(u, center, params["k"], theta=theta, j_max=params["j_max"],
                           spec=spec, probe_gaps=params["probe_gaps"],
                           delta0=params["delta0"], eps0=params["eps0"])
        out.write_json(tag + "decay_run.json", run.to_json_dict())
        rows = [(s.j, theta ** s.j, s.excess_sq, s.ratio, s.outcome) for s in run.steps]
        out.write_csv(tag + "decay_table.csv",
                      ["j", "scale", "excess_sq", "ratio", "outcome"], rows)
        tr = dmod.tangent_expansion(u, center, run, sigmas=params["sigmas"], spec=spec)
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
        expect_ratio = params["expect_ratio"]
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
    k = params["k"]
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
    rep = smod.remainder_decay_check(w, theta=params["theta"], scales=params["scales"],
                                     c0=prof.c, alpha=alpha)
    pyth = rep.unit_projection.pythagoras_residual
    checks.append(check("pythagoras", pyth <= 1e-10, f"residual {pyth:.3e}"))
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
        limit, unc, _ = smod.half_case_boundary_term(w, 0, c0=prof.c, alpha=alpha)
        ok = bool(np.max(np.abs(limit)) <= max(10 * unc, 1e-6))
        checks.append(check("half_case_limit_zero", ok,
                            f"limit {limit.tolist()} unc {unc:.2e}"))
        values["half_case"] = {"limit": limit.tolist(), "uncertainty": unc}
    out.write_json(prefix + "spectral_summary.json", values)
    return {"checks": checks, "values": values}


def stage_corollaries(cfg, u, out, prefix=""):
    params = cfg.params
    spec = quad_spec(params)
    base_mode = u.modes[0]
    prof = pmod.CylindricalProfile(base_mode.a - 1j * base_mode.b, params["k"], n=u.n)

    def family_member(t):
        modes = [base_mode] + [
            fmod.CylindricalMode(md.beta, md.freq, md.a * t, md.b * t, md.y0, md.ylin)
            for md in u.modes[1:]
        ]
        return fmod.CylindricalModeField(modes, n=u.n)

    rows = []
    by_name = {}
    for t in params["t_values"]:
        for r in pmod.corollary_checks(family_member(t), prof, spec=spec):
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
    outdir = os.path.join(cfg.base_dir, cfg.output_dir)
    out = OutputWriter(outdir)
    summary = {"kind": cfg.kind, "seed": cfg.seed, "schema_version": SCHEMA_VERSION,
               "checks": [], "stages": {}}
    failed_stage = False
    for name in cfg.stages:
        prefix = f"{name}_" if cfg.kind == "full-pipeline" else ""
        try:
            res = STAGES[name](cfg, cfg.field, out, prefix=prefix)
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
        if args.verb == "report":
            print(report(args.directory))
            return EXIT_OK
        cfg = ExperimentConfig.from_json_file(args.config)
        if args.verb == "validate":
            print("ok")
            return EXIT_OK
        code, outdir = run(cfg)
        print(f"artifacts: {outdir}")
        return code
    except ConfigError as exc:
        err = {"error": str(exc), "key": exc.key}
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return EXIT_CONFIG
    except BranchLabError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
