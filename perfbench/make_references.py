"""Record the reference optimum f* of every benchmark instance.

    python3 perfbench/make_references.py --workload ct-desk

For each scene seed of the workload (or those given with ``--seeds``) it
runs three long solves of the same objective: linearized ADMM with
rho1 = rho2 = 1 and gamma = 0.95 / bound (inside the gradient-step bound,
unlike the package default) to a relative change of 1e-10, then dfb and pdfb
at their default step sizes until their objective is within AGREE of
ADMM's, or for at most the workload's MAX_OUTER iterations.  f* is the
lowest of the three objectives, and ``agreement`` is (max - min) / min.
Entries are merged into ``perfbench/references/<workload>.json``; the
benchmark refuses to run an instance that has no entry there.
"""

import argparse
import fcntl
import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from proxsplit import linops, solvers  # noqa: E402

import workloads  # noqa: E402

AGREE = 1e-7
CHECK_EVERY = 100
# dfb/pdfb iteration caps, sized so one instance takes minutes, not hours.
MAX_OUTER = {"ct-desk": 150_000, "ct-fine": 30_000, "tv-denoise": 200_000}


class _Agreed(Exception):
    def __init__(self, x, k):
        super().__init__()
        self.x, self.k = x, k


def _until_agreed(problem, f_target):
    """metric_fn that stops a solve once its objective is within AGREE."""
    state = {"k": 0}

    def metric(x):
        state["k"] += 1
        if state["k"] % CHECK_EVERY == 0:
            f = solvers.objective(problem, x)
            if f <= f_target * (1.0 + AGREE):
                raise _Agreed(x.copy(), state["k"] - 1)
        return 0.0
    return metric


def reference(workload, s):
    composite, admm = workloads.reference_problems(workload, s)
    rows = {}
    t = time.perf_counter()
    bound = (linops.safe_norm_sq(admm.A) + linops.safe_norm_sq(admm.D1)
             + linops.safe_norm_sq(admm.D2))
    rep = solvers.solve_admm(admm, solvers.SolverConfig(
        "admm", gamma=0.95 / bound, rho1=1.0, rho2=1.0, eps=1e-10,
        max_outer=1_000_000))
    f_admm = solvers.objective(composite, rep.x_final)
    rows["admm"] = {"objective": f_admm, "iterations": rep.outer_iters,
                    "termination": rep.termination,
                    "seconds": time.perf_counter() - t}
    for algo in ("dfb", "pdfb"):
        t = time.perf_counter()
        solve = getattr(solvers, "solve_" + algo)
        try:
            rep = solve(composite, solvers.SolverConfig(
                algo, eps=1e-300, max_outer=MAX_OUTER[workload]),
                metric_fn=_until_agreed(composite, f_admm))
            x, k, how = rep.x_final, rep.outer_iters, rep.termination
        except _Agreed as stop:
            x, k, how = stop.x, stop.k, "agreed"
        rows[algo] = {"objective": solvers.objective(composite, x),
                      "iterations": k, "termination": how,
                      "seconds": time.perf_counter() - t}
    objs = [r["objective"] for r in rows.values()]
    f_star = min(objs)
    entry = {"f_star": f_star,
             "agreement": (max(objs) - f_star) / abs(f_star),
             "solves": rows}
    print(workload, s, json.dumps(entry), flush=True)
    return entry


def merge(workload, entries):
    """Add ``entries`` to the workload's reference file, under a lock."""
    path = HERE / "references" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(HERE / "references" / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        table = (json.loads(path.read_text()) if path.exists() else {
            "workload": workload,
            "command": f"python3 perfbench/make_references.py "
                       f"--workload {workload}",
            "agree": AGREE,
            "max_outer": MAX_OUTER[workload],
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "f_star": {}})
        table["f_star"].update(entries)
        table["f_star"] = dict(sorted(table["f_star"].items()))
        path.write_text(json.dumps(table, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", type=int, nargs="*")
    args = ap.parse_args()
    for s in args.seeds or workloads.WORKLOADS[args.workload].pool:
        merge(args.workload, {str(s): reference(args.workload, s)})


if __name__ == "__main__":
    main()
