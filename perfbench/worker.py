"""One benchmark process: set-up alone, or set-up then one pass over a workload.

`run.py` starts a fresh process for every sample, so each pass has its own
peak resident memory and each set-up sample pays interpreter start and
imports again.  The result goes to the JSON file named by `--out`.

To record the fingerprint references of a workload (after a change that is
meant to alter its numbers, with the reason stated in the change):

    python3 perfbench/worker.py --workload cover-solve --record
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
# One thread everywhere: the machine has two cores, so wall-clock thread
# scaling is not measured, and single-threaded spans nest properly.
PINNED = {v: "1" for v in ("BRANCHLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                           "NUMEXPR_NUM_THREADS")}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("setup", "pass"), default="pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--spawned-at", type=float, default=None,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--out", default=None)
    p.add_argument("--spans", default=None, help="JSON-lines file for the pass's spans")
    p.add_argument("--record", action="store_true",
                   help="write this pass's fingerprints as the workload's references")
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in PINNED}}


def _within(value, ref):
    if "max" in ref:
        return value <= ref["max"]
    if "tol" in ref:
        return abs(value - ref["value"]) <= ref["tol"]
    return True


def check_references(name, entries, refs):
    """Reasons an operation's fingerprint differs from its references."""
    if refs is None:
        return [f"no references recorded for operation {name}"]
    problems = [f"{key}: no reference" for key in entries if key not in refs]
    problems += [f"{key}: missing from the outputs" for key in refs if key not in entries]
    for key, (value, _) in entries.items():
        if key in refs and not _within(value, refs[key]):
            problems.append(f"{key} = {value!r} outside reference {refs[key]}")
    return problems


def run_pass(ops, tracer, refs):
    """Issue every operation once; time, check and fingerprint each."""
    from workloads import OperationFailed

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    records = []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        if tracer:
            tracer.begin_op(i)
        try:
            out, error = op(), None
        except Exception:
            out, error = None, traceback.format_exc(limit=4)
        if tracer:
            tracer.end_op()
        records.append((op, out, error, time.perf_counter() - t0))
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    n_spans = len(tracer.spans) if tracer else 0
    failures = []
    fingerprints = {}
    for op, out, error, _ in records:
        if error is None:
            try:
                entries = op.fingerprint(out)
            except OperationFailed as exc:
                error = str(exc)
        if error is None:
            fingerprints[op.name] = entries
            if refs is not None:
                problems = check_references(op.name, entries, refs.get(op.name))
                error = "; ".join(problems) if problems else None
        if error is not None:
            failures.append({"op": op.name, "reason": error})
    values = {op: {k: v for k, (v, _) in e.items()} for op, e in fingerprints.items()}
    digest = hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
    result = {
        "wall_s": sum(r[3] for r in records),
        "op_walls": {r[0].name: r[3] for r in records},
        "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "digest": digest,
        "fingerprints": {op: {k: [v, rule] for k, (v, rule) in e.items()}
                         for op, e in fingerprints.items()},
    }
    if tracer:
        import spans as spanlib

        spans = tracer.spans[:n_spans]
        result["layers"] = spanlib.layer_metrics(spans)
        result["spans"] = n_spans
        sums = spanlib.op_self_sums(spans)
        result["op_self_s"] = {op.name: sums.get(i, 0.0) for i, op in enumerate(ops)}
    return result


def record_references(workload, fingerprints):
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES) as fh:
            refs = json.load(fh)
    refs[workload] = {op: {k: dict(rule, value=v) for k, (v, rule) in entries.items()}
                      for op, entries in fingerprints.items()}
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    args = parse_args(argv)
    spawned = time.monotonic() if args.spawned_at is None else args.spawned_at
    os.environ.update(PINNED)  # before numpy loads its BLAS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import branchlab.cli  # noqa: F401  (the whole package, numpy and scipy with it)
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = workloads.WORKLOADS[args.workload](workdir, args.seed, args.toy)
    result = {"setup_s": time.monotonic() - spawned, "ops": len(ops), "env": environment()}
    if args.mode == "pass":
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        refs = None
        if not (args.toy or args.record):
            with open(REFERENCES) as fh:
                refs = json.load(fh).get(args.workload, {})
        result.update(run_pass(ops, tracer, refs))
        if tracer and args.spans:
            tracer.dump(args.spans)
        if args.record:
            if result["failed"]:
                sys.exit(f"not recording: {result['failures']}")
            record_references(args.workload, result["fingerprints"])
    shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, sort_keys=True)
    else:
        print(json.dumps({k: v for k, v in result.items() if k != "fingerprints"},
                         indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
