import contextlib
import copy
import io
import json
import os
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from branchlab import cli
from branchlab import profiles as pmod
from branchlab.errors import ConfigError, SolverError

C_RE = 0.7071067811865476


def freq_config(outdir, seed=0):
    return {
        "schema_version": 1,
        "kind": "frequency",
        "field": {"type": "power_sum", "n": 2,
                  "terms": [{"k": 1, "c": [[C_RE, 0.0], [0.0, C_RE]]}]},
        "params": {"radii": [0.25, 0.5, 1.0], "expect_constant": 0.5,
                   "tolerance": 1e-6,
                   "quadrature": {"nr": 32, "ntheta": 64, "nsphere": 128}},
        "output_dir": outdir,
        "seed": seed,
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def test_validate_ok(tmp_path):
    path = write_config(tmp_path, freq_config("out"))
    assert cli.main(["validate", path]) == cli.EXIT_OK


def test_malformed_json_names_key(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["key"] == "json"


@pytest.mark.parametrize("mutate,key", [
    (lambda c: c.pop("output_dir"), "output_dir"),
    (lambda c: c.update(kind="nonsense"), "kind"),
    (lambda c: c["params"].update(theta=0.7), "theta"),
    (lambda c: c["params"].update(tolerance=-1.0), "tolerance"),
    (lambda c: c.update(field={"type": "sampled", "path": "missing.csv"}), "field.path"),
])
def test_validation_errors(tmp_path, capsys, mutate, key):
    cfg = freq_config("out")
    mutate(cfg)
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", path]) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["key"] == key


def test_run_frequency_and_report(tmp_path, capsys):
    path = write_config(tmp_path, freq_config("out"))
    assert cli.main(["run", path]) == cli.EXIT_OK
    outdir = tmp_path / "out"
    assert (outdir / "manifest.json").exists()
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert cli.main(["report", str(outdir)]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "frequency_constant" in text and "pass" in text


def test_report_missing_manifest(tmp_path, capsys):
    # an empty directory, a manifest without summary.json, a manifest that is
    # not JSON and summaries of the wrong shape each exit 3 with a JSON error
    # naming the file
    cases = [("empty", {}, "manifest.json"),
             ("no-summary", {"manifest.json": '{"files": []}'}, "summary.json"),
             ("bad-manifest", {"manifest.json": "{bad", "summary.json": "{}"}, "manifest.json"),
             ("list-summary", {"manifest.json": "{}", "summary.json": "[]"}, "summary.json"),
             ("int-check", {"manifest.json": "{}", "summary.json": '{"checks": [1]}'},
              "summary.json"),
             ("int-files", {"manifest.json": '{"files": 5}', "summary.json": "{}"},
              "manifest.json")]
    for name, files, culprit in cases:
        os.makedirs(tmp_path / name)
        for fname, text in files.items():
            (tmp_path / name / fname).write_text(text)
        assert cli.main(["report", str(tmp_path / name)]) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert culprit in json.loads(captured.err.strip())["error"]
        assert captured.out == ""


def test_manifest_complete(tmp_path):
    path = write_config(tmp_path, freq_config("out"))
    cli.main(["run", path])
    outdir = tmp_path / "out"
    manifest = json.loads((outdir / "manifest.json").read_text())
    listed = {e["path"] for e in manifest["files"]}
    on_disk = {f for f in os.listdir(outdir) if f != "manifest.json"}
    assert listed == on_disk
    import hashlib

    for entry in manifest["files"]:
        data = (outdir / entry["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]


def test_determinism_byte_identical(tmp_path):
    path = write_config(tmp_path, freq_config("out_a"))
    cli.main(["run", path])
    cfg_b = freq_config("out_b")
    path_b = write_config(tmp_path, cfg_b, "config_b.json")
    cli.main(["run", path_b])
    for name in ("frequency_profile.csv", "summary.json", "frequency.svg"):
        a = (tmp_path / "out_a" / name).read_bytes()
        b = (tmp_path / "out_b" / name).read_bytes()
        assert a == b


def test_monotonicity_kind_with_control(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "monotonicity",
        "field": {"type": "power_sum", "n": 2,
                  "terms": [{"k": 1, "c": [[C_RE, 0.0], [0.0, C_RE]]},
                            {"k": 5, "c": [[0.2, 0.0], [0.0, 0.2]]}]},
        "params": {"radii_range": [0.05, 0.9], "nradii": 12, "n_random": 2,
                   "include_control": True,
                   "quadrature": {"nr": 24, "ntheta": 48, "nsphere": 96}},
        "output_dir": "out_mono",
        "seed": 3,
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "out_mono" / "summary.json").read_text())
    names = {c["name"]: c["status"] for c in summary["checks"]}
    assert names["monotone_configured_field"] == "pass"
    assert names["control_violates"] == "pass"


def test_decay_kind(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "decay",
        "field": {"type": "power_sum", "n": 2,
                  "terms": [{"k": 1, "c": [[C_RE, 0.0], [0.0, C_RE]]},
                            {"k": 3, "c": [[0.02 * C_RE, 0.0], [0.0, 0.02 * C_RE]]}]},
        "params": {"k": 1, "theta": 0.125, "j_max": 2, "expect_ratio": 0.015625,
                   "quadrature": {"nr": 24, "ntheta": 48, "nsphere": 96}},
        "output_dir": "out_decay",
        "seed": 0,
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == cli.EXIT_OK
    outdir = tmp_path / "out_decay"
    run_data = json.loads((outdir / "decay_run.json").read_text())
    assert run_data["outcome"] == "decay"
    assert (outdir / "decay_loglog.svg").exists()


def test_full_pipeline_stage_error_exit_code(tmp_path, capsys):
    # corollaries needs a perturbation term; a single-term field is a config
    # error naming `field` in both run modes, caught before any stage runs
    cfg = {
        "schema_version": 1,
        "kind": "full-pipeline",
        "field": {"type": "power_sum", "n": 2,
                  "terms": [{"k": 1, "c": [[C_RE, 0.0], [0.0, C_RE]]}]},
        "params": {"stages": ["frequency", "corollaries"],
                   "radii": [0.25, 0.5],
                   "quadrature": {"nr": 16, "ntheta": 32, "nsphere": 64}},
        "output_dir": "out_pipe",
        "seed": 0,
    }
    for kind in ("full-pipeline", "corollaries"):
        path = write_config(tmp_path, dict(cfg, kind=kind))
        for verb in ("validate", "run"):
            assert cli.main([verb, path]) == cli.EXIT_CONFIG
            err = json.loads(capsys.readouterr().err.strip())
            assert err["key"] == "field"
    assert not (tmp_path / "out_pipe").exists()


def test_frequency_and_corollaries_run_at_n4(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "full-pipeline",
        "field": {"type": "power_sum", "n": 4,
                  "terms": [term(1, (C_RE, 0.0), (0.0, C_RE)),
                            term(3, (0.05, 0.0), (0.0, 0.05))]},
        "params": {"stages": ["frequency", "corollaries"], "radii": [0.5, 1.0],
                   "quadrature": {"nr": 12, "ntheta": 24, "naxis": 6, "nsphere": 32,
                                  "npolar": 16}},
        "output_dir": "out_n4",
        "seed": 0,
    }
    for kind in ("frequency", "corollaries"):
        assert cli.main(["validate", write_config(tmp_path, dict(cfg, kind=kind))]) == cli.EXIT_OK
    assert cli.main(["run", write_config(tmp_path, cfg)]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "out_n4" / "summary.json").read_text())
    assert {k: v["status"] for k, v in summary["stages"].items()} == {
        "frequency": "ok", "corollaries": "ok"}


@pytest.mark.parametrize("stages", [["frequncy"], "frequency", 5, [["frequency"]],
                                    ["full-pipeline"]])
def test_malformed_stages_exit_config(tmp_path, capsys, stages):
    cfg = freq_config("out")
    cfg["kind"] = "full-pipeline"
    cfg["params"]["stages"] = stages
    path = write_config(tmp_path, cfg)
    for verb in ("validate", "run"):
        assert cli.main([verb, path]) == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip())
        assert err["key"] == "stages"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("params, key", [
    ({"radii": [0.5, -1]}, "radii"),
    ({"radii": [0, 0.5]}, "radii"),
    ({"radii": []}, "radii"),
    ({"radii": "x"}, "radii"),
    ({"radii": [0.5, float("nan")]}, "radii"),
    ({"radii": [0.5, float("inf")]}, "radii"),
    ({"radii": [True, 0.5]}, "radii"),
    ({"radii": [[0.5]]}, "radii"),
    ({"quadrature": {"nr": 0}}, "quadrature.nr"),
    ({"quadrature": {"naxis": 2.5}}, "quadrature.naxis"),
    ({"quadrature": {"nsphere": "64"}}, "quadrature.nsphere"),
    ({"quadrature": {"npolar": -4}}, "quadrature.npolar"),
    ({"quadrature": {"ntheta": True}}, "quadrature.ntheta"),
    ({"quadrature": {"nr": 8, "nrr": 8}}, "quadrature.nrr"),
    ({"quadrature": [32, 64]}, "quadrature"),
    ({"center": [0.0, 0.0, 0.0]}, "center"),
    ({"center": [0.0]}, "center"),
    ({"center": []}, "center"),
    ({"center": "x"}, "center"),
    ({"center": [0.0, float("nan")]}, "center"),
    ({"center": [True, 0.0]}, "center"),
    ({"expect_constant": "x"}, "expect_constant"),
    ({"expect_constant": 0}, "expect_constant"),
    ({"expect_constant": 0.0}, "expect_constant"),
    ({"expect_constant": float("inf")}, "expect_constant"),
    ({"expect_constant": True}, "expect_constant"),
    ({"expect_constant": [0.5]}, "expect_constant"),
    ({"theta": "x"}, "theta"),
    ({"theta": [0.1]}, "theta"),
    ({"theta": True}, "theta"),
    ({"theta": float("nan")}, "theta"),
    ({"theta": 0.25}, "theta"),
    ({"centers": [[0.0, 0.0, 0.0]]}, "centers"),
    ({"centers": [[0.0, 0.0], [0.0]]}, "centers"),
    ({"centers": [0.0, 0.0]}, "centers"),
    ({"centers": []}, "centers"),
    ({"centers": "x"}, "centers"),
    ({"centers": [[0.0, float("inf")]]}, "centers"),
    ({"centers": [[True, 0.0]]}, "centers"),
])
def test_malformed_radii_and_quadrature_exit_config(tmp_path, capsys, params, key):
    cfg = freq_config("out")
    cfg["params"].update(params)
    path = write_config(tmp_path, cfg)
    for verb in ("validate", "run"):
        assert cli.main([verb, path]) == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip())
        assert err["key"] == key
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n, center, code", [
    (2, [0.1, -0.2], cli.EXIT_OK),
    (3, [0, 0, 0.5], cli.EXIT_OK),
    (3, [0.0, 0.0], cli.EXIT_CONFIG),
    (3, [0.0, 0.0, 0.0, 0.0], cli.EXIT_CONFIG),
])
def test_center_checked_against_field_dimension(tmp_path, capsys, n, center, code):
    cfg = freq_config("out")
    cfg["field"]["n"] = n
    cfg["params"]["center"] = center
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", path]) == code
    if code == cli.EXIT_CONFIG:
        assert json.loads(capsys.readouterr().err.strip())["key"] == "center"
        assert cli.main(["run", path]) == code
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", ["x", "2", 1, 0, 2.0, 2.5, True, None, [2]])
def test_malformed_field_dimension_exit_config(tmp_path, capsys, n):
    cfg = freq_config("out")
    cfg["field"]["n"] = n
    path = write_config(tmp_path, cfg)
    for verb in ("validate", "run"):
        assert cli.main([verb, path]) == cli.EXIT_CONFIG
        assert json.loads(capsys.readouterr().err.strip())["key"] == "field.n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n, centers, code", [
    (2, [[0.0, 0.0], [0.1, -0.2]], cli.EXIT_OK),
    (3, [[0, 0, 0.5]], cli.EXIT_OK),
    (2, [[0.0, 0.0, 0.0]], cli.EXIT_CONFIG),
    (3, [[0.0, 0.0, 0.0], [0.0, 0.0]], cli.EXIT_CONFIG),
])
def test_centers_checked_against_field_dimension(tmp_path, capsys, n, centers, code):
    cfg = freq_config("out")
    cfg["kind"] = "decay"
    cfg["field"]["n"] = n
    cfg["params"]["centers"] = centers
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", path]) == code
    if code == cli.EXIT_CONFIG:
        assert json.loads(capsys.readouterr().err.strip())["key"] == "centers"
        assert cli.main(["run", path]) == code
        assert not (tmp_path / "out").exists()


def test_family_sweeps_start_no_thread(tmp_path, monkeypatch):
    # family sweeps run in order in one thread, whatever the environment and
    # the CPU count say
    monkeypatch.setenv("BRANCHLAB_THREADS", "4")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def no_thread(self):
        raise RuntimeError("a family sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    field = {"type": "power_sum", "n": 2,
             "terms": [{"k": 1, "c": [[C_RE, 0.0], [0.0, C_RE]]},
                       {"k": 3, "c": [[0.05, 0.0], [0.0, 0.05]]}]}
    quad = {"nr": 16, "ntheta": 32, "nsphere": 64}
    for kind, params in (("monotonicity", {"nradii": 6, "n_random": 3, "quadrature": quad}),
                         ("corollaries", {"quadrature": quad})):
        cfg = {"schema_version": 1, "kind": kind, "field": field, "params": params,
               "output_dir": "out_" + kind, "seed": 5}
        assert cli.main(["run", write_config(tmp_path, cfg, kind + ".json")]) == cli.EXIT_OK
    rows = (tmp_path / "out_monotonicity" / "monotonicity.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[2:]] == ["random-0", "random-1", "random-2"]


def test_build_field_types(tmp_path):
    f1 = cli.build_field({"type": "power_sum", "n": 2,
                          "terms": [{"k": 2, "c": [[1.0, 0.0]]}]})
    assert f1.n == 2 and f1.m == 1
    f2 = cli.build_field({"type": "branch_polynomial", "n": 2,
                          "coeffs": [[-0.01, 0.0], [0.0, 0.0], [1.0, 0.0]]})
    assert f2.m == 2
    with pytest.raises(ConfigError):
        cli.build_field({"type": "alien"})


def minimize_config(outdir, levels):
    return {
        "schema_version": 1,
        "kind": "minimize",
        "field": {"type": "power_sum", "n": 2,
                  "terms": [{"k": 1, "c": [[C_RE, 0.0], [0.0, C_RE]]}]},
        "params": {"levels": levels},
        "output_dir": outdir,
        "seed": 0,
    }


def test_single_kind_run_exit_ok(tmp_path):
    path = write_config(tmp_path, minimize_config("out", [[12, 24], [24, 48]]))
    assert cli.main(["run", path]) == cli.EXIT_OK
    outdir = tmp_path / "out"
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["stages"]["minimize"]["status"] == "ok"
    assert (outdir / "minimizer_solution.csv").exists()


def spectral_config(outdir, n, terms):
    return {"schema_version": 1, "kind": "spectral",
            "field": {"type": "power_sum", "n": n, "terms": terms},
            "params": {"quadrature": {"nr": 12, "ntheta": 24, "naxis": 6,
                                      "nsphere": 48, "npolar": 24}},
            "output_dir": outdir, "seed": 0}


def test_spectral_n3_writes_the_half_case(tmp_path):
    # at n >= 3 the blow-up's boundary term is held to zero
    path = write_config(tmp_path, spectral_config(
        "out", 3, [term(1, (C_RE, 0.0), (0.0, C_RE)),
                   term(5, (0.01 * C_RE, 0.0), (0.0, 0.01 * C_RE))]))
    assert cli.main(["run", path]) == cli.EXIT_OK
    outdir = tmp_path / "out"
    half = json.loads((outdir / "spectral_summary.json").read_text())["half_case"]
    assert set(half) == {"limit", "uncertainty"}
    summary = json.loads((outdir / "summary.json").read_text())
    assert {c["name"]: c["status"] for c in summary["checks"]}["half_case_limit_zero"] == "pass"


def test_spectral_on_its_own_profile_writes_no_blow_up(tmp_path):
    # a single-term field is its fitted profile: zero excess, no blow-up
    path = write_config(tmp_path, spectral_config("out", 2, [term(1, (C_RE, 0.0), (0.0, C_RE))]))
    assert cli.main(["run", path]) == cli.EXIT_OK
    outdir = tmp_path / "out"
    assert json.loads((outdir / "spectral_summary.json").read_text()) == {
        "note": "field coincides with its profile; no blow-up"}
    assert not (outdir / "spectral_scales.csv").exists()


def test_validate_missing_file_names_path(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "missing.json")]) == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err.strip())["key"] == "path"


@pytest.mark.parametrize("levels", [[[4]], [], [[0, 8]], [[8, 16.5]], "8x16", [[True, 8]],
                                    [[8, 16, 32]], [[1, 8]], [[2, 8]], [[3, 1]]])
def test_malformed_levels_exit_config(tmp_path, capsys, levels):
    path = write_config(tmp_path, minimize_config("out", levels))
    for verb in ("validate", "run"):
        assert cli.main([verb, path]) == cli.EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip())
        assert err["key"] == "levels"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["frequency", "full-pipeline"])
@pytest.mark.parametrize("exc", [SolverError("forced failure"), ValueError("forced failure")])
def test_stage_exception_exit_numerical(tmp_path, monkeypatch, capsys, kind, exc):
    # a failing stage is recorded in summary.json in both run modes, and
    # report names it
    def failing_stage(cfg, u, out, prefix=""):
        raise exc

    monkeypatch.setitem(cli.STAGES, "frequency", failing_stage)
    cfg = freq_config("out")
    cfg["kind"] = kind
    cfg["params"]["stages"] = ["frequency"]
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", path]) == cli.EXIT_NUMERICAL
    outdir = tmp_path / "out"
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["status"] == "error"
    assert summary["stages"]["frequency"]["status"] == "error"
    assert "forced failure" in summary["stages"]["frequency"]["error"]
    assert (outdir / "manifest.json").exists()
    assert cli.main(["report", str(outdir)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert any(ln.startswith("stage frequency: ERROR") and "forced failure" in ln for ln in lines)


# At least one malformed value for every key of cli.PARAMS, among them each
# input that used to validate and then run on defaults or fail with exit 1/3.
MALFORMED = {
    "stages": [["frequncy"], "frequency"],
    "quadrature": ["x", [32, 64]],
    "radii": [[0.5], [0.5, 0.25], [0.5, 0.5], "x", None],
    "center": [[0.0], [0.0, "x"]],
    "centers": [[[0.0]], []],
    "expect_constant": [0, "x"],
    "tolerance": [0, -1e-6, float("inf"), True, "x"],
    "radii_range": [[0.05], [0.9, 0.05], [0.0, 0.9], [0.05, 0.5, 0.9], "x"],
    "nradii": [2, 0, 18.0, "x"],
    "slack": [0, float("nan"), "x"],
    "n_random": [-1, 1.5, "x"],
    "include_control": [1, "yes", None],
    "radius": [0, -1.0, "x"],
    "levels": [[[8]], "x", None],
    "freq_radii": [[1.5], [0.25, 1.0001], [], [0.25, -0.5], "x"],
    "theta": [0, 0.25, "x", None],
    "k": ["x", 0, 1.5, True],
    "j_max": [0, 2.5, "x"],
    "delta0": [0, "x"],
    "eps0": [-1, "x"],
    "probe_gaps": [1, "true"],
    "sigmas": [[], [0.5, -0.25], "x"],
    "expect_ratio": [0, "x"],
    "scales": [[], [0.5, 0.0], "x"],
    "t_values": [[], [0.1, "x"], [float("nan")], 0.1],
}


def assert_config_error(tmp_path, capsys, cfg, key):
    """Both verbs exit 2 naming key, and no output directory is created."""
    path = write_config(tmp_path, cfg)
    for verb in ("validate", "run"):
        assert cli.main([verb, path]) == cli.EXIT_CONFIG
        assert json.loads(capsys.readouterr().err.strip())["key"] == key
    assert not any(p.is_dir() for p in tmp_path.iterdir())


def test_malformed_rows_cover_every_params_key():
    assert set(MALFORMED) == set(cli.PARAMS)


@pytest.mark.parametrize("key, value", [(k, v) for k in MALFORMED for v in MALFORMED[k]])
def test_malformed_params_exit_config(tmp_path, capsys, key, value):
    cfg = freq_config("out")
    cfg["params"][key] = value
    assert_config_error(tmp_path, capsys, cfg, key)


def test_k_above_bound_exit_config(tmp_path, capsys):
    cfg = freq_config("out")
    cfg["params"]["k"] = pmod.K_MAX + 1
    assert_config_error(tmp_path, capsys, cfg, "k")


def term(k, *c):
    return {"k": k, "c": [list(v) for v in c]}


@pytest.mark.parametrize("mutate, key", [
    (lambda c: c["params"].update(radiii=[0.25, 0.5]), "radiii"),
    (lambda c: c["params"].update(rel_tolerance=1e-6), "rel_tolerance"),
    (lambda c: c["params"].update(radius=0.3), "freq_radii"),  # defaults are checked too
    (lambda c: c.update(seed="x"), "seed"),
    (lambda c: c.update(seed=1.7), "seed"),
    (lambda c: c.update(seed=-1), "seed"),
    (lambda c: c.update(seed=True), "seed"),
    (lambda c: c.update(output_dir=5), "output_dir"),
    (lambda c: c.update(output_dir=""), "output_dir"),
    (lambda c: c.update(field={"type": "alien"}), "field.type"),
    (lambda c: c.update(field={"type": ["power_sum"]}), "field.type"),
    (lambda c: c["field"].update(terms=[]), "field.terms"),
    (lambda c: c["field"].update(terms="x"), "field.terms"),
    (lambda c: c["field"].pop("terms"), "field.terms"),
    (lambda c: c["field"].update(terms=[{"k": 1}]), "field.terms"),
    (lambda c: c["field"].update(terms=[term("x", (1.0, 0.0))]), "field.terms"),
    (lambda c: c["field"].update(terms=[term(0, (1.0, 0.0))]), "field.terms"),
    (lambda c: c["field"].update(terms=[term(1.5, (1.0, 0.0))]), "field.terms"),
    (lambda c: c["field"].update(terms=[term(1, (1.0,))]), "field.terms"),
    (lambda c: c["field"].update(terms=[term(1, (1.0, 0.0, 2.0))]), "field.terms"),
    (lambda c: c["field"].update(terms=[term(1, (float("nan"), 0.0))]), "field.terms"),
    (lambda c: c["field"].update(terms=[term(1, (1.0, 0.0)), term(2, (1.0, 0.0))]),
     "field.terms"),
    (lambda c: c["field"].update(terms=[term(1, (1.0, 0.0)),
                                        term(3, (1.0, 0.0), (0.0, 1.0))]), "field.terms"),
    (lambda c: c.update(field={"type": "branch_polynomial"}), "field.coeffs"),
    (lambda c: c.update(field={"type": "branch_polynomial", "coeffs": []}), "field.coeffs"),
    (lambda c: c.update(field={"type": "branch_polynomial", "coeffs": "x"}), "field.coeffs"),
    (lambda c: c.update(field={"type": "branch_polynomial", "coeffs": [[-0.2, 0.0], [1.0]]}),
     "field.coeffs"),
    (lambda c: c.update(field={"type": "branch_polynomial", "coeffs": [[-0.2, 0.0], [1.0, 0.0]],
                               "c": [[1.0]]}), "field.c"),
    (lambda c: c.update(field={"type": "non_stationary_control", "m": 0}), "field.m"),
    (lambda c: c.update(field={"type": "non_stationary_control", "m": 1.5}), "field.m"),
    (lambda c: c.update(field={"type": "non_stationary_control", "m": "2"}), "field.m"),
    (lambda c: c.update(field={"type": "non_stationary_control", "m": True}), "field.m"),
    (lambda c: c.update(field={"type": "non_stationary_control", "m": [1]}), "field.m"),
    (lambda c: c.update(field={"type": "sampled"}), "field.path"),
    (lambda c: c.update(field={"type": "sampled", "path": 5}), "field.path"),
    (lambda c: c.update(field={"type": "sampled", "path": ""}), "field.path"),
    (lambda c: c.update(sed=5), "sed"),
    (lambda c: c.update(description="x"), "description"),
    (lambda c: c["field"].update(nn=3), "field.nn"),
    (lambda c: c["field"].update(coeffs=[[1.0, 0.0]]), "field.coeffs"),
    (lambda c: c.update(field={"type": "branch_polynomial", "coeffs": [[-0.2, 0.0], [1.0, 0.0]],
                               "cc": [[1.0, 0.0], [0.0, 1.0]]}), "field.cc"),
    (lambda c: c.update(field={"type": "branch_polynomial", "coeffs": [[-0.2, 0.0], [1.0, 0.0]],
                               "terms": []}), "field.terms"),
    (lambda c: c.update(field={"type": "non_stationary_control", "n": 3}), "field.n"),
    (lambda c: c.update(field={"type": "non_stationary_control", "path": "f.csv"}), "field.path"),
    (lambda c: c.update(field={"type": "sampled", "path": "f.csv", "m": 1}), "field.m"),
    # decay and spectral fit profiles on n = 2 and 3 cover grids only; explicit
    # ids keep the generated id of the field.n row above
    pytest.param(lambda c: (c.update(kind="decay"), c["field"].update(n=4)), "field.n",
                 id="decay-n4"),
    pytest.param(lambda c: (c.update(kind="spectral"), c["field"].update(n=4)), "field.n",
                 id="spectral-n4"),
    pytest.param(lambda c: (c.update(kind="full-pipeline"), c["field"].update(n=4),
                            c["params"].update(stages=["decay"])), "field.n",
                 id="stages-decay-n4"),
    pytest.param(lambda c: (c.update(kind="full-pipeline"), c["field"].update(n=4),
                            c["params"].update(stages=["frequency", "spectral"])), "field.n",
                 id="stages-spectral-n4"),
    pytest.param(lambda c: c.update(kind="spectral", field={
        "type": "branch_polynomial", "n": 5, "coeffs": [[-0.04, 0.0], [0.0, 0.0], [1.0, 0.0]]}),
        "field.n", id="spectral-branch-polynomial-n5"),
    # n is 2, 3 or 4, checked before the center default reads it
    pytest.param(lambda c: c["field"].update(n=2 ** 70), "field.n", id="n-2**70"),
    pytest.param(lambda c: c["field"].update(n=5), "field.n", id="n5"),
    pytest.param(lambda c: (c.update(kind="full-pipeline"), c["field"].update(n=3),
                            c["params"].update(stages=["frequency", "minimize"])), "field.n",
                 id="stages-minimize-n3"),
])
def test_malformed_config_exit_config(tmp_path, capsys, mutate, key):
    cfg = freq_config("out")
    mutate(cfg)
    assert_config_error(tmp_path, capsys, cfg, key)


SAMPLED_HEADER = ("# branchlab sampled-field v1\n# n=2 m=1 symmetric=1 hol=0\n# shape=2,2\n"
                  "# rs=0.5,1.0\n# thetas=0.0,3.141592653589793\nx1,x2,a1_1,a2_1\n")
SAMPLED_V2_HEADER = ("# branchlab sampled-field v2\n# n=2 m=1 symmetric=1 hol=0\n# shape=2,2\n"
                     "# rs=0.5,1.0\n# thetas=0.0,3.141592653589793\ns_1\n")
SAMPLED_V2_N3_HEADER = ("# branchlab sampled-field v2\n# n=3 m=1 symmetric=1 hol=0\n"
                        "# shape=2,2,2\n# rs=0.5,1.0\n# thetas=0.0,3.141592653589793\n# ys=-0.5,0.5\ns_1\n")


@pytest.mark.filterwarnings("ignore:loadtxt")
@pytest.mark.parametrize("content", [
    "",
    "# branchlab sampled-field v1\nx1,x2,a1_1,a2_1\n0.5,0.0,1.0,-1.0\n",
    SAMPLED_HEADER + "0.5,0.0,1.0,-1.0\n",
    SAMPLED_HEADER + "0.5,0.0,1.0,-1.0\n" * 3 + "0.5,0.0,x,y\n",
    SAMPLED_HEADER.replace("shape=2,2", "shape=1,4") + "0.5,0.0,1.0,-1.0\n" * 4,
    SAMPLED_HEADER.replace("n=2", "n=3").replace("x2,", "x2,x3,") + "0.5,0.0,0.0,1.0,-1.0\n" * 4,
    pytest.param(SAMPLED_V2_HEADER + "0.5,0.0,1.0\n" * 4, id="v2-with-coordinates"),
    pytest.param(SAMPLED_V2_HEADER + "1.0,-1.0\n" * 4, id="v2-symmetric-two-columns"),
    pytest.param(SAMPLED_V2_HEADER.replace("symmetric=1", "symmetric=0") + "1.0\n" * 4,
                 id="v2-nonsymmetric-one-column"),
    # well-formed pairs with an average part: only symmetric pairs are read
    pytest.param(SAMPLED_V2_HEADER.replace("symmetric=1", "symmetric=0").replace("s_1", "a1_1,a2_1")
                 + "1.0,-1.0\n" * 4, id="v2-nonsymmetric-two-columns"),
    pytest.param(SAMPLED_HEADER.replace("symmetric=1", "symmetric=0") + "0.5,0.0,1.0,-1.0\n" * 4,
                 id="v1-nonsymmetric"),
    pytest.param(SAMPLED_V2_HEADER + "1.0\n" * 3, id="v2-rows-below-nr-nt"),
    pytest.param(SAMPLED_V2_HEADER + "1.0\n" * 5, id="v2-rows-above-nr-nt"),
    pytest.param(SAMPLED_V2_N3_HEADER + "1.0\n" * 4, id="v2-rows-nr-nt-not-ny"),
    pytest.param(SAMPLED_V2_HEADER.replace("v2", "v3") + "1.0\n" * 4, id="v3-version-line"),
    pytest.param("x1,x2,a1_1,a2_1\n" + "0.5,0.0,1.0,-1.0\n" * 4, id="no-version-line"),
    pytest.param(SAMPLED_V2_HEADER.replace("shape=2,2", "shape=1,4") + "1.0\n" * 4,
                 id="v2-shape-disagrees"),
    pytest.param(SAMPLED_V2_HEADER.replace("n=2", "n=3") + "1.0\n" * 4, id="v2-n-disagrees"),
    pytest.param(SAMPLED_V2_N3_HEADER.replace("n=3", "n=2") + "1.0\n" * 8, id="v2-n3-lists-n2"),
    # grids that read but interpolate wrongly: swapped radii, a finer angle
    # spacing than the angle count, a nan sample
    pytest.param(SAMPLED_V2_HEADER.replace("shape=2,2", "shape=1,2").replace("rs=0.5,1.0", "rs=1.0")
                 + "1.0\n" * 2, id="v2-one-radius"),
    pytest.param(SAMPLED_V2_HEADER.replace("shape=2,2", "shape=2,1")
                 .replace("thetas=0.0,3.141592653589793", "thetas=0.0") + "1.0\n" * 2,
                 id="v2-one-angle"),
    pytest.param(SAMPLED_V2_HEADER.replace("rs=0.5,1.0", "rs=1.0,0.5") + "1.0\n" * 4,
                 id="v2-radii-swapped"),
    pytest.param(SAMPLED_V2_HEADER.replace("rs=0.5,1.0", "rs=0.0,1.0") + "1.0\n" * 4,
                 id="v2-radius-zero"),
    pytest.param(SAMPLED_V2_HEADER.replace("rs=0.5,1.0", "rs=0.5,inf") + "1.0\n" * 4,
                 id="v2-radius-inf"),
    pytest.param(SAMPLED_V2_HEADER.replace("3.141592653589793", "1.5707963267948966")
                 + "1.0\n" * 4, id="v2-thetas-half-spacing"),
    pytest.param(SAMPLED_V2_N3_HEADER.replace("ys=-0.5,0.5", "ys=0.5,-0.5") + "1.0\n" * 8,
                 id="v2-ys-decreasing"),
    pytest.param(SAMPLED_V2_HEADER + "1.0\n" * 3 + "nan\n", id="v2-nan-value"),
    pytest.param(SAMPLED_V2_HEADER.replace("hol=0", "hol=2") + "1.0\n" * 4, id="v2-hol-2"),
    pytest.param(SAMPLED_HEADER.replace("rs=0.5,1.0", "rs=1.0,0.5") + "0.5,0.0,1.0,-1.0\n" * 4,
                 id="v1-radii-swapped"),
    pytest.param(SAMPLED_HEADER + "0.5,0.0,1.0,-1.0\n" * 3 + "0.5,0.0,nan,-1.0\n",
                 id="v1-nan-value"),
])
def test_corrupt_sampled_csv_exit_config(tmp_path, capsys, content):
    (tmp_path / "field.csv").write_text(content)
    cfg = freq_config("out")
    cfg["field"] = {"type": "sampled", "path": "field.csv"}
    assert_config_error(tmp_path, capsys, cfg, "field.path")


def test_sampled_csv_loads(tmp_path):
    (tmp_path / "field.csv").write_text(SAMPLED_HEADER + "0.5,0.0,1.0,-1.0\n" * 4)
    cfg = freq_config("out")
    cfg["field"] = {"type": "sampled", "path": "field.csv"}
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == cli.EXIT_OK


@pytest.mark.parametrize("content", [SAMPLED_V2_HEADER + "1.0\n" * 4,
                                     SAMPLED_V2_N3_HEADER + "1.0\n" * 8])
def test_sampled_v2_csv_loads(tmp_path, content):
    (tmp_path / "field.csv").write_text(content)
    cfg = freq_config("out")
    cfg["field"] = {"type": "sampled", "path": "field.csv"}
    cfg["params"]["radii"] = [0.25, 0.5]  # inside both grids: the n = 3 one ends at |y| = 0.5
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == cli.EXIT_OK


@pytest.mark.parametrize("radii, code", [([0.25, 0.5, 1.0], cli.EXIT_CONFIG),
                                         ([0.25, 0.5], cli.EXIT_OK)])
def test_sampled_field_is_read_inside_its_grid(tmp_path, capsys, radii, code):
    # a solution solved at radius 0.5 is the field on B(0, 0.5); past r = 0.5
    # its interpolation would clamp to the outer ring, so a frequency run out
    # to 1.0 is a config error naming radii, and one out to 0.5 runs
    minimize = minimize_config("out_min", [[12, 24]])
    minimize["params"].update(radius=0.5, freq_radii=[0.25])
    assert cli.main(["run", write_config(tmp_path, minimize, "minimize.json")]) == cli.EXIT_OK
    cfg = dict(freq_config("out"), field={"type": "sampled", "path": "out_min/minimizer_solution.csv"},
               params={"radii": radii, "quadrature": {"nr": 16, "ntheta": 32, "nsphere": 64}})
    path = write_config(tmp_path, cfg)
    if code == cli.EXIT_CONFIG:
        for verb in ("validate", "run"):
            assert cli.main([verb, path]) == cli.EXIT_CONFIG
            assert json.loads(capsys.readouterr().err.strip())["key"] == "radii"
        assert not (tmp_path / "out").exists()
        return
    assert cli.ExperimentConfig.from_json_file(path).field.domain.radius == 0.5
    assert cli.main(["run", path]) == cli.EXIT_OK
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["status"] == "ok"


@pytest.mark.parametrize("field", [
    pytest.param({"type": "power_sum", "n": n, "terms": [term(1, (C_RE, 0.0), (0.0, C_RE))]},
                 id=f"power-sum-n{n}") for n in (3, 4)] + [
    pytest.param({"type": "sampled", "path": "field.csv"}, id="sampled-n3")])
def test_minimize_runs_at_n2_only(tmp_path, capsys, field):
    # the boundary trace and the L2 error of a solve read points of the plane
    (tmp_path / "field.csv").write_text(SAMPLED_V2_N3_HEADER + "1.0\n" * 8)
    cfg = dict(freq_config("out"), kind="minimize", field=field,
               params={"radius": 0.5, "freq_radii": [0.25]})
    assert_config_error(tmp_path, capsys, cfg, "field.n")


# v2 fields on B(0, 0.5) and B(0, 1)
SAMPLED_HALF = SAMPLED_V2_HEADER.replace("rs=0.5,1.0", "rs=0.25,0.5") + "1.0\n" * 4
SAMPLED_UNIT = SAMPLED_V2_HEADER + "1.0\n" * 4


@pytest.mark.parametrize("kind, params, key", [
    ("frequency", {"radii": [0.25, 0.6]}, "radii"),
    ("frequency", {"radii": [0.25, 0.4], "center": [0.0, 0.2]}, "radii"),
    ("monotonicity", {"radii_range": [0.05, 0.6]}, "radii_range"),
    ("minimize", {"radius": 0.6, "freq_radii": [0.25]}, "radius"),
    ("decay", {}, "center"),
    ("decay", {"centers": [[0.0, 0.0]]}, "centers"),
    ("spectral", {}, "field.path"),
    ("full-pipeline", {"stages": ["frequency", "spectral"], "radii": [0.25, 0.5]}, "field.path"),
    ("frequency", {"radii": [0.25, 0.5]}, None),
    ("frequency", {"radii": [0.25, 0.5 * (1 + 1e-13)]}, None),  # inside the 1e-12 slack
    ("frequency", {"radii": [0.25, 0.3], "center": [0.0, -0.2]}, None),
    ("monotonicity", {"radii_range": [0.05, 0.5]}, None),
    ("minimize", {"radius": 0.5, "freq_radii": [0.25]}, None),
    ("decay", {"sigmas": [0.5, 2.0]}, "sigmas"),
    ("decay", {"centers": [[0.0, 0.0]], "sigmas": [1.5]}, "sigmas"),
    ("spectral", {"scales": [2.0, 0.5]}, "scales"),
    ("decay", {"sigmas": [0.5, 1.0]}, None),
    ("decay", {"centers": [[0.0, 0.0]], "sigmas": [1.0]}, None),
    ("spectral", {"scales": [1.0, 0.5]}, None),
])
def test_stage_reach_stays_in_the_sampled_domain(tmp_path, capsys, kind, params, key):
    # each stage reads the field out to a radius its params set: frequency
    # |center| + max(radii), monotonicity radii_range[1], minimize radius,
    # decay |center| + 1 and |center| + max(sigmas) for each center, spectral
    # 1 and max(scales).  decay and spectral read the unit ball, past
    # B(0, 0.5), so the rows that set sigmas or scales read a field on B(0, 1)
    unit = not {"sigmas", "scales"}.isdisjoint(params)
    (tmp_path / "field.csv").write_text(SAMPLED_UNIT if unit else SAMPLED_HALF)
    cfg = dict(freq_config("out"), kind=kind, params=params,
               field={"type": "sampled", "path": "field.csv"})
    if key is None:
        assert cli.main(["validate", write_config(tmp_path, cfg)]) == cli.EXIT_OK
    else:
        assert_config_error(tmp_path, capsys, cfg, key)


@pytest.mark.parametrize("n, code", [(2, cli.EXIT_OK), (3, cli.EXIT_CONFIG)])
def test_sampled_field_n_is_the_csv_dimension(tmp_path, capsys, n, code):
    (tmp_path / "field.csv").write_text(SAMPLED_HEADER + "0.5,0.0,1.0,-1.0\n" * 4)
    cfg = freq_config("out")
    cfg["field"] = {"type": "sampled", "path": "field.csv", "n": n}
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == code
    if code == cli.EXIT_CONFIG:
        assert json.loads(capsys.readouterr().err.strip())["key"] == "field.n"


@pytest.mark.parametrize("n", [2, 3])
def test_params_filled_at_load(n):
    raw = freq_config("out")
    raw["field"]["n"] = n
    raw["params"].update(centers=None, sigmas=None)  # null keeps a step off
    cfg = cli.ExperimentConfig.from_dict(raw)
    assert set(cfg.params) == set(cli.PARAMS)
    assert cfg.field.n == n
    assert cfg.params["center"] == [0.0] * n
    assert cfg.params["centers"] is None and cfg.params["theta"] == 0.125
    assert cfg.params["radii"] == raw["params"]["radii"]


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_example_configs_validate(name):
    assert cli.main(["validate", os.path.join(CONFIGS, name)]) == cli.EXIT_OK


# The values a mutated leaf takes, and the keys an added leaf is given: a
# fresh name, every params key, the quadrature counts and the field entries.
LEAF_VALUES = [None, True, False, 0, -1, 1.5, float("nan"), float("inf"), float("-inf"),
               "", "x", "decay", [], [1.5], [[1.5, 0.0]], {}, {"x": 1}, 1e308, 2 ** 70]
ADDED_KEYS = ["extra", *cli.PARAMS, *cli.QUADRATURE_COUNTS,
              *sorted({e for entries in cli.FIELD_ENTRIES.values() for e in entries})]


def _nodes(obj, path=()):
    """(path, value) of obj and of everything inside it, depth first."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _blamable_keys(path):
    """The error keys that name the leaf at path or an ancestor of it: dotted
    names without list indices, params keys without their params prefix."""
    names = set()
    parts = []
    for seg in path:
        if isinstance(seg, str):
            parts.append(seg)
            names.add(".".join(parts[1:] if parts[0] == "params" and len(parts) > 1 else parts))
    return names


def _example_configs():
    configs = []
    for name in sorted(os.listdir(CONFIGS)):
        with open(os.path.join(CONFIGS, name)) as fh:
            configs.append(json.load(fh))
    return configs


# A full pipeline of the stages that read a sampled field, on the grid of
# SAMPLED_UNIT beside the config.
SAMPLED_PIPELINE = {
    "schema_version": 1, "kind": "full-pipeline",
    "field": {"type": "sampled", "n": 2, "path": "field.csv"},
    "params": {"stages": ["frequency", "monotonicity", "decay", "spectral"],
               "radii": [0.25, 0.5, 1.0], "radii_range": [0.05, 0.9], "scales": [0.5, 0.25],
               "quadrature": {"nr": 16, "ntheta": 32, "nsphere": 64}},
    "output_dir": "out", "seed": 0,
}
SAMPLED_DEFAULT_STAGES = dict(SAMPLED_PIPELINE, params={
    key: value for key, value in SAMPLED_PIPELINE["params"].items() if key != "stages"})
# The same on the B(0, 0.5) grid of SAMPLED_HALF, with radii that stay on it:
# decay and spectral read the unit ball, so the default stages leave them out.
SAMPLED_HALF_DEFAULT_STAGES = dict(
    SAMPLED_DEFAULT_STAGES, field=dict(SAMPLED_PIPELINE["field"], path="half.csv"),
    params=dict(SAMPLED_DEFAULT_STAGES["params"], radii=[0.25, 0.5], radii_range=[0.05, 0.5]))


@st.composite
def mutated_configs(draw, configs):
    """One of configs with one leaf replaced, deleted or added, and the paths
    of that leaf and of everything inside the value put there."""
    cfg = copy.deepcopy(draw(st.sampled_from(configs)))
    op = draw(st.sampled_from(["replace", "delete", "add"]))
    value = draw(st.sampled_from(LEAF_VALUES))
    if op == "add":
        path, node = draw(st.sampled_from([(p, v) for p, v in _nodes(cfg)
                                           if isinstance(v, (dict, list))]))
        if isinstance(node, list):
            node.append(value)
            path += (len(node) - 1,)
        else:
            key = draw(st.sampled_from([k for k in ADDED_KEYS if k not in node]))
            node[key] = value
            path += (key,)
        return cfg, [path + p for p, _ in _nodes(value)]
    path = draw(st.sampled_from([p for p, _ in _nodes(cfg) if p]))
    node = cfg
    for seg in path[:-1]:
        node = node[seg]
    if op == "delete":
        del node[path[-1]]
        return cfg, [path]
    node[path[-1]] = value
    return cfg, [path + p for p, _ in _nodes(value)]


def _assert_validate_contract(target, mutated):
    """validate exits 0, or 2 with one JSON line naming the mutated leaf, an
    ancestor of it, or a key inside the value put there."""
    cfg, paths = mutated
    target.write_text(json.dumps(cfg))
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli.main(["validate", str(target)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
    if code == cli.EXIT_CONFIG:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["key"] in set().union(*map(_blamable_keys, paths)), lines


@settings(max_examples=150, deadline=None)
@given(mutated_configs(_example_configs()))
def test_validate_contract_on_mutated_configs(tmp_path_factory, mutated):
    # every single-leaf mutation of an example config keeps the contract
    _assert_validate_contract(tmp_path_factory.mktemp("mutated") / "config.json", mutated)


@pytest.fixture(scope="module")
def sampled_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("sampled")
    (path / "field.csv").write_text(SAMPLED_UNIT)
    (path / "half.csv").write_text(SAMPLED_HALF)
    return path


@settings(max_examples=40, deadline=None)
@given(mutated_configs([SAMPLED_PIPELINE]))
# without stages a pipeline runs the stages its field admits: corollaries is
# not one of them on a sampled field, so leaving stages out validates
@example(mutated=(SAMPLED_DEFAULT_STAGES, [("params", "stages")]))
# nor are the stages that would read past its grid
@example(mutated=(SAMPLED_HALF_DEFAULT_STAGES, [("params", "stages")]))
def test_validate_contract_on_mutated_sampled_config(sampled_dir, mutated):
    # the same contract on a config that reads a written field: a mutation
    # may also move a stage's reach past the grid, or break the field's path
    _assert_validate_contract(sampled_dir / "config.json", mutated)


def test_readme_config_and_params_table(tmp_path):
    with open(README) as fh:
        text = fh.read()
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    rows = [line.split("`")[1] for line in text.splitlines() if line.startswith("| `")]
    assert sorted(rows) == sorted(cli.PARAMS)


NO_SCIPY_SCRIPT = """
import json, sys

import numpy as np

from branchlab import cli
from branchlab import profiles as pmod
from branchlab.fields import BranchPolynomialField
from branchlab.minimizer import (BoundaryTrace, BranchConfiguration, CoverGridSpec,
                                 solve_branched_laplace)

for path in sys.argv[1:]:
    assert cli.main(["run", path]) == cli.EXIT_OK, path
u = BranchPolynomialField([-0.09, 0.0, 1.0], c=np.array([1.0, -1.0j]))
points = [np.array([0.3, 0.0]), np.array([-0.3, 0.0])]
cov = solve_branched_laplace(BoundaryTrace.from_field(u, 1.0), BranchConfiguration(points),
                             grid=CoverGridSpec(nr=12, ntheta=24))
assert len(cov.flipped)
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_runtime_loads_no_scipy(tmp_path):
    # the lab runs on numpy alone: a fresh interpreter that runs the
    # frequency, minimize, decay and spectral stages and a two-point cut
    # solve has loaded no scipy module (the tests themselves import scipy,
    # hence the subprocess)
    import subprocess
    import sys

    quad = {"nr": 16, "ntheta": 32, "nsphere": 64}
    minimize = minimize_config("out_min", [[12, 24]])
    decay = {"schema_version": 1, "kind": "decay",
             "field": {"type": "sampled", "n": 2, "path": "out_min/minimizer_solution.csv"},
             "params": {"j_max": 1, "quadrature": quad},
             "output_dir": "out_decay", "seed": 0}
    pipeline = dict(freq_config("out_pipe"), kind="full-pipeline",
                    params={"stages": ["frequency", "decay", "spectral"], "radii": [0.5, 1.0],
                            "j_max": 1, "quadrature": quad})
    paths = [write_config(tmp_path, cfg, name) for cfg, name in
             ((minimize, "minimize.json"), (decay, "decay.json"), (pipeline, "pipeline.json"))]
    src = os.path.join(os.path.dirname(os.path.abspath(cli.__file__)), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, *paths], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
