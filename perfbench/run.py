"""The branchlab benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload cover-solve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload cover-solve --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload all

With `--trace 0` the run measures the workload untraced and reports the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it alternates
untraced and traced passes and reports the per-layer metrics, the tracing
overhead among them.  `--workload all` runs every workload both ways and
prints one table per workload plus a summary.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

Every sample is a fresh process (`worker.py`), which pins branchlab's
threads and the BLAS threads to one.  Set-up samples time interpreter start,
the imports and input generation; pass samples time one pass over the
workload's operations.  Details, spans and fingerprints go to
`.perfbench_out/` in the checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
DEADLINE_S = 170.0     # every run ends well inside the 180 s it is allowed
SETUP_SAMPLES = 5      # set-up-only processes per untraced run, besides the passes


class ProgramMissing(Exception):
    """The program cannot be started, so there is nothing to measure."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    return spec, layers


def machine():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"platform": platform.platform(), "machine": platform.machine(),
            "node": platform.node(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "git_commit": commit or "unknown (not a git checkout)"}


class Runner:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, workload, seed, toy, started):
        self.workload = workload
        self.seed = seed
        self.toy = toy
        self.deadline = started + DEADLINE_S
        self.count = 0

    def spawn(self, mode, trace=0):
        self.count += 1
        tag = f"{self.workload}-seed{self.seed}-{self.count}"
        out = os.path.join(OUT, f"worker-{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--trace", str(trace), "--out", out]
        if trace:
            cmd += ["--spans", os.path.join(OUT, f"spans-{tag}.jsonl")]
        if self.toy:
            cmd.append("--toy")
        if os.path.exists(out):
            os.remove(out)
        spawned = time.monotonic()
        cmd += ["--spawned-at", repr(spawned)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(self.deadline - spawned, 1.0))
            error = None if proc.returncode == 0 else (
                f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        except subprocess.TimeoutExpired:
            error = "timed out"
        if error is None:
            with open(out) as fh:
                result = json.load(fh)
            os.remove(out)
            return result
        return {"error": error}

    def time_left(self, per_pass):
        return time.monotonic() + per_pass < self.deadline


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _check_program():
    if not os.path.isfile(os.path.join(ROOT, "src", "branchlab", "__init__.py")):
        raise ProgramMissing(f"no branchlab package under {os.path.join(ROOT, 'src')}")


def measure(workload, seed, seconds, trace, toy):
    """One benchmark run; returns the details, including every pass's result."""
    started = time.monotonic()
    runner = Runner(workload, seed, toy, started)
    first = runner.spawn("setup")
    if "error" in first:
        raise ProgramMissing(f"set-up failed: {first['error']}")
    setups = [first]
    if not trace:
        setups += [s for s in (runner.spawn("setup") for _ in range(SETUP_SAMPLES - 1))
                   if "error" not in s]
    passes = []
    t0 = time.monotonic()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append((traced, runner.spawn("pass", trace=int(traced))))
        used = time.monotonic() - t0
        per_pass = used / len(passes)
        enough = len(passes) >= (2 if trace else 1) and used + per_pass > seconds
        if enough or not runner.time_left(per_pass):
            break
    return summarize(workload, seed, seconds, trace, toy, first["ops"], setups, passes)


def summarize(workload, seed, seconds, trace, toy, n_ops, setups, passes):
    ok = [(traced, p) for traced, p in passes if "error" not in p]
    failures = [f for _, p in ok for f in p["failures"]]
    failures += [{"op": "(process)", "reason": p["error"]} for _, p in passes if "error" in p]
    attempted = sum(p.get("attempted", n_ops) for _, p in passes)
    failed = sum(p["failed"] for _, p in ok) + sum(n_ops for _, p in passes if "error" in p)
    digests = sorted({p["digest"] for _, p in ok})
    if len(digests) > 1:
        failures.append({"op": "(all)", "reason": f"fingerprints differ between passes: {digests}"})
    untraced = [p for traced, p in ok if not traced]
    traced = [p for t, p in ok if t]
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "toy": toy,
        "machine": machine(), "env": setups[0]["env"],
        "attempted": attempted, "failed": failed, "failures": failures,
        "correct": failed == 0 and len(digests) <= 1 and bool(ok),
        "digest": digests[0] if len(digests) == 1 else None,
        "setup_samples": [s["setup_s"] for s in setups] + [p["setup_s"] for p in untraced],
        "untraced": untraced, "traced": traced,
    }
    e2e = {}
    if untraced:
        e2e = {"wall_s": quartiles([p["wall_s"] for p in untraced]),
               "setup_s": quartiles(details["setup_samples"]),
               "peak_rss_mb": quartiles([p["peak_rss_mb"] for p in untraced]),
               "ok_frac": (1.0 - failed / attempted,) * 3}
    details["end_to_end"] = e2e
    if trace and traced and untraced:
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["process.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
        layers["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        layers["trace.untraced_wall_s"] = e2e["wall_s"][1]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        layers["trace.spans"] = statistics.median(p["spans"] for p in traced)
        details["layers"] = layers
    return details


# ---------------------------------------------------------------------------
# Reporting


def metrics_json(details, spec):
    """The `metrics` object for the metrics this run reports."""
    if details["trace"]:
        names, values = spec["per_layer"], details.get("layers", {})
    else:
        names = spec["end_to_end"]
        values = {k: v[1] for k, v in details["end_to_end"].items()}
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        return None, missing
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}, []


def end_to_end_lines(details, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    e2e = details["end_to_end"]
    n_pass = len(details["untraced"])
    counts = {"wall_s": n_pass, "setup_s": len(details["setup_samples"]),
              "peak_rss_mb": n_pass, "ok_frac": details["attempted"]}
    lines = [f"end-to-end, untraced ({details['workload']}, seed {details['seed']}):"]
    for name, (q1, med, q3) in e2e.items():
        lines.append(f"  {name:12s} median {med:12.4f} {units[name]:6s} "
                     f"q1 {q1:.4f}  q3 {q3:.4f}  samples {counts[name]}")
    lines.append(f"  fail_frac    {details['failed']}/{details['attempted']} operations failed")
    return lines


def layer_lines(details, layer_map):
    layers = details["layers"]
    wall = layers["trace.wall_s"]
    lines = [f"per-layer, traced ({details['workload']}, seed {details['seed']}, "
             f"{len(details['traced'])} traced pass(es)):"]
    selfs = sorted(((k[:-len(".self_s")], v) for k, v in layers.items()
                    if k.endswith(".self_s")), key=lambda kv: -kv[1])
    lines.append(f"  {'layer':12s} {'self s':>10s} {'share':>7s}")
    for layer, value in selfs:
        lines.append(f"  {layer:12s} {value:10.4f} {value / wall:7.1%}")
    total = sum(v for _, v in selfs)
    lines.append(f"  {'sum':12s} {total:10.4f} {total / wall:7.1%} of traced wall "
                 f"{wall:.4f} s; untraced wall {layers['trace.untraced_wall_s']:.4f} s; "
                 f"tracing overhead {layers['trace.overhead_s']:+.4f} s "
                 f"({layers['trace.spans']:.0f} spans)")
    lines.append(f"  largest self time: {selfs[0][0]} ({selfs[0][1]:.4f} s)")
    for a, b, label in (("minimizer.cg_iters", "minimizer.cg_calls", "CG iterations per call"),
                        ("minimizer.search_accepted", "minimizer.search_trials",
                         "search moves accepted per trial solve"),
                        ("fields.eval_points", "fields.eval_calls", "points per field evaluation"),
                        ("quadrature.rule_nodes", "quadrature.rule_builds",
                         "nodes per rule build")):
        if layers[b]:
            lines.append(f"  {label}: {layers[a] / layers[b]:.4g} (base {layers[b]:.0f} {b})")
    lines.append(f"  {'metric':36s} {'value':>14s}  moves")
    for name, value in layers.items():
        if name.endswith(".self_s") or not value:
            continue
        where = ", ".join(f"{m} on {w}" for m, w in layer_map[name]["moves"])
        lines.append(f"  {name:36s} {value:14.6g}  {where}")
    return lines


def report(details, spec, layer_map):
    lines = [f"perfbench {details['workload']} seed={details['seed']} "
             f"seconds={details['seconds']} trace={details['trace']}"
             + (" toy" if details["toy"] else ""),
             "machine: " + json.dumps(details["machine"], sort_keys=True),
             "env: " + json.dumps(details["env"], sort_keys=True)]
    if details["end_to_end"]:
        lines += end_to_end_lines(details, spec)
    if details.get("layers"):
        lines += layer_lines(details, layer_map)
    first = (details["untraced"] + details["traced"] or [{}])[0]
    n_fp = sum(len(e) for e in first.get("fingerprints", {}).values())
    lines.append(f"fingerprints: {n_fp} values, sha256 {details['digest']}")
    for f in details["failures"]:
        lines.append(f"FAILED {f['op']}: {f['reason']}")
    return lines


def write_details(details):
    tag = f"{details['workload']}-seed{details['seed']}-trace{details['trace']}"
    with open(os.path.join(OUT, tag + ("-toy" if details["toy"] else "") + ".json"), "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)


def run_one(args, spec, layer_map):
    details = measure(args.workload, args.seed, args.seconds, args.trace, args.toy)
    write_details(details)
    print("\n".join(report(details, spec, layer_map)))
    metrics, missing = metrics_json(details, spec)
    if missing:
        print(f"FAILED: no value for {missing}")
        details["correct"] = False
        metrics = {}
    return {"correct": details["correct"], "attempted": details["attempted"],
            "failed": details["failed"], "metrics": metrics}


def run_all(args, spec, layer_map):
    """Every workload untraced then traced, with a summary table."""
    rows = []
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args.workload, args.trace = workload, trace
            res = run_one(args, spec, layer_map)
            print()
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            combined["metrics"].update({f"{workload}/{k}": v for k, v in res["metrics"].items()})
        m = combined["metrics"]
        selfs = [k for k in m if k.startswith(workload + "/") and k.endswith(".self_s")]
        if not selfs or f"{workload}/wall_s" not in m:
            continue  # a failed run; its failures are printed above
        top = max(selfs, key=lambda k: m[k]["value"])
        rows.append((workload, m[f"{workload}/wall_s"]["value"], m[f"{workload}/setup_s"]["value"],
                     m[f"{workload}/peak_rss_mb"]["value"], m[f"{workload}/ok_frac"]["value"],
                     m[f"{workload}/trace.overhead_s"]["value"],
                     top.split("/", 1)[1][:-len(".self_s")], m[top]["value"]))
    print(f"{'workload':18s} {'wall_s':>9s} {'setup_s':>8s} {'rss_MiB':>8s} {'ok_frac':>8s} "
          f"{'overhead':>9s}  largest self time")
    for r in rows:
        print(f"{r[0]:18s} {r[1]:9.3f} {r[2]:8.3f} {r[3]:8.1f} {r[4]:8.3f} {r[5]:+9.3f}  "
              f"{r[6]} {r[7]:.3f} s")
    return combined


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None,
                   help="measuring time per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy-size inputs, for the smoke test")
    args = p.parse_args(argv)
    try:
        spec, layer_map = load_spec()
        _check_program()
    except (OSError, ProgramMissing) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; one of {names}\n")
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    os.makedirs(OUT, exist_ok=True)
    try:
        result = (run_all if args.workload == "all" else run_one)(args, spec, layer_map)
    except ProgramMissing as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 3
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
