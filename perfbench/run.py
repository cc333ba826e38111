"""proxsplit benchmark: time to a stated accuracy, end to end and by layer.

    python3 perfbench/run.py --workload ct-desk --seed 0 --seconds 50 \
        --trace 0

Runs the named workload in a fresh process with BLAS/OpenMP threads set to
1 for that process only, and prints one JSON object as its last line.
``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` makes one untraced pass and then two traced one-pass runs of
the same seed, each in its own process, and reports the per-layer metrics
of the first traced run, the tracing overhead against the untraced pass,
and whether the two traced runs counted exactly the same work.  Metric
definitions, and which end-to-end metric each layer metric should move on
which workload, are in ``perfbench/metrics.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOADS = ("ct-desk", "ct-fine", "tv-denoise")
# Every run must end within 180 s; children share this budget.
DEADLINE_S = 175
# Counts two traced runs of one seed must agree on exactly.
STEADY_COUNTS = ("solvers.iterations.dfb", "solvers.iterations.pdfb",
                 "solvers.iterations.admm", "linops.apply_calls",
                 "linops.adjoint_calls", "prox.calls", "linops.norm_matvecs")


class BenchError(Exception):
    pass


def child(args, mode, seconds, env, trace_out=None):
    """Run measure.py in a fresh process; return its JSON result."""
    cmd = [sys.executable, str(HERE / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode,
           "--workdir", str(args.workdir),
           "--run-id", f"{args.workload}-seed{args.seed}"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=args.deadline - time.monotonic())
    if proc.returncode != 0:
        raise BenchError(f"{mode} run exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True
                              ).stdout.strip()
    except OSError:
        return ""


def manifest(args, env, untraced):
    commit = _output(["git", "rev-parse", "HEAD"])
    l3 = _output(["getconf", "LEVEL3_CACHE_SIZE"])
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "inputs": untraced["inputs"],
        "versions": untraced["versions"], "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit or "unknown (not a git checkout)",
        "threads": {v: env[v] for v in THREAD_VARS},
        "l3_cache_bytes": int(l3) if l3.isdigit() else "unknown",
        "operators": untraced["operators"],
    }


def end_to_end(res):
    passes = res["passes"]
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "setup_s": statistics.median(res["setups"]),
        "solve_s": statistics.median(p["solve"] for p in passes),
        "peak_rss_mb": res["peak_rss_mb"],
        # 0.0 only when no solve passed, which also makes the run incorrect.
        "snr_db": min(res["snr_db"], default=0.0),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    args.deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "proxsplit" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {ROOT / 'src' / 'proxsplit'}")
    args.workdir = HERE / "_work"
    args.workdir.mkdir(exist_ok=True)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})

    try:
        # With --trace 1 the untraced run only gives the overhead baseline,
        # so one pass is enough and the 180 s budget goes to the traced runs.
        untraced = child(args, "untraced", 0 if args.trace else args.seconds,
                         env)
        runs = [untraced]
        if args.trace:
            traces = HERE / "_traces"
            traces.mkdir(exist_ok=True)
            runs += [child(args, "traced", 0, env,
                           traces / f"{args.workload}-seed{args.seed}-{k}.npz")
                     for k in (1, 2)]
        info = manifest(args, env, untraced)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.exit(f"error: {exc}")

    print("manifest " + json.dumps(info))
    problems = [p for r in runs for p in r["problems"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for f in r["failures"]:
            print(f"failed solve ({r['mode']}): {f}")
    for p in problems:
        print(f"PROBLEM: {p}")
    print(f"failed_frac = {failed}/{attempted}")
    for algo, gap in untraced["gaps"].items():
        print(f"largest relative gap to f* ({algo}) = {gap!r}")

    with open(HERE / "metrics.json") as fh:
        spec = json.load(fh)
    if args.trace:
        first, second = runs[1]["layers"], runs[2]["layers"]
        untraced_wall = statistics.median(
            p["wall"] for p in untraced["passes"])
        traced_wall = statistics.median(r["passes"][0]["wall"]
                                        for r in runs[1:])
        mismatched = [k for k in STEADY_COUNTS if first[k] != second[k]]
        for k in mismatched:
            print(f"UNSTEADY: {k} = {first[k]} then {second[k]}")
        metrics = dict(first)
        metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
        metrics["trace.spans"] = runs[1]["spans"]
        metrics["trace.repeat_mismatches"] = len(mismatched)
        kind = "per_layer"
    else:
        metrics = end_to_end(untraced)
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print(f"{k} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
