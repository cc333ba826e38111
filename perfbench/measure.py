"""Run one workload in this process and print its measurements as JSON.

    python3 perfbench/measure.py --workload W --seed N --seconds R \
        --mode untraced|traced --workdir DIR [--trace-out FILE]

``run.py`` starts this in a fresh process per run.  Untraced, it repeats
the workload's pass while another pass still fits in R seconds (at least
one), then tops up the set-up measurements to SETUP_SAMPLES with passes of
one iteration per solve, whose solves are not checked; with ``--seconds 0``
it runs one pass and no more.  Traced, it runs exactly one
pass with every public call of the program wrapped, and
reports per-layer figures.  Every solve is checked against the recorded
reference optimum; checks run after the pass and outside its timing.
"""

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import proxsplit  # noqa: E402
from proxsplit import ct, solvers  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# A solve whose objective is below f* by more than this share means the
# recorded reference is wrong, not that the solve is good.
REF_SLACK = 1e-6


def load_references(wl, seeds):
    path = HERE / "references" / f"{wl.name}.json"
    table = json.loads(path.read_text())["f_star"]
    missing = [s for s in seeds if str(s) not in table]
    if missing:
        raise SystemExit(
            f"no reference optimum for {wl.name} scene seeds {missing} in "
            f"{path}; run perfbench/make_references.py --workload {wl.name}")
    return {s: table[str(s)]["f_star"] for s in seeds}


class Checker:
    """Checks each captured solve against its instance's reference."""

    def __init__(self, wl, seeds):
        self.wl = wl
        self.f_star = load_references(wl, seeds)
        self.instances = {}     # scene seed -> (composite, admm form)
        self.attempted = self.failed = 0
        self.problems_found = []
        self.failures = []
        self.snr = []
        self.gaps = {}

    def _problem(self, s):
        if s not in self.instances:
            self.instances[s] = workloads.reference_problems(self.wl.name, s)
        return self.instances[s][0]

    def operators(self):
        """Computed size of one matvec with each operator of the first
        instance: 2 flops per nonzero, and ``tracing.matvec_bytes``."""
        self._problem(self.wl.instances[0])
        admm = self.instances[self.wl.instances[0]][1]
        out = {}
        for label, op in (("A", admm.A), ("D", admm.D1)):
            nnz = int(op.matrix.nnz)
            out[label] = {"rows": op.rows, "cols": op.cols, "nnz": nnz,
                          "flops_computed": 2 * nnz,
                          "bytes_computed": tracing.matvec_bytes(
                              op.rows, op.cols, nnz)}
        return out

    def check(self, plan, solves, phantom):
        if [a for _, a in plan] != [a for a, _ in solves]:
            self.problems_found.append(
                f"solves {[a for a, _ in solves]} differ from the plan "
                f"{[a for _, a in plan]}")
            return
        for (s, algo), (_, out) in zip(plan, solves):
            self.attempted += 1
            why = gap = None
            if isinstance(out, BaseException):
                why = f"raised {type(out).__name__}: {out}"
            else:
                x = out.x_final
                if not np.all(np.isfinite(x)):
                    why = "non-finite iterate"
                elif x.min() < 0.0:
                    why = f"iterate leaves the box (min {x.min():.3g})"
                else:
                    f = solvers.objective(self._problem(s), x)
                    f_star = self.f_star[s]
                    gap = (f - f_star) / abs(f_star)
                    self.gaps[algo] = max(self.gaps.get(algo, 0.0), gap)
                    if gap < -REF_SLACK:
                        self.problems_found.append(
                            f"{algo} on seed {s} reached {f!r}, below the "
                            f"reference f* {f_star!r}")
                    if out.termination != "tolerance-met":
                        why = f"ended {out.termination}"
                    elif gap > self.wl.gate:
                        why = f"relative gap {gap:.3g} > gate {self.wl.gate}"
            if why is None:
                self.snr.append(ct.snr(phantom, out.x_final))
                continue
            self.failed += 1
            self.failures.append(f"{algo} seed {s}: {why}"
                                 + (f" (gap {gap:.4g})" if gap else ""))
            if gap is None or not self.wl.expected_failure(algo, out, gap):
                self.problems_found.append(
                    f"{algo} on seed {s} failed: {why}")


def pass_times(spans, wall):
    build = spans.outermost(spans.of(*tracing.BUILD, tracing.VALIDATE))
    solve = spans.of(*tracing.SOLVES)
    validate = spans.of(tracing.VALIDATE)
    return {
        "wall": wall,
        "setup": float(spans.dur[build].sum()),
        "solve": float(spans.dur[solve].sum() - spans.dur[validate].sum()),
    }


def layer_metrics(spans, tracer, caught, solves, bytes_written):
    """Per-layer figures of one traced pass."""
    dur, self_t = spans.dur, spans.self_time
    out = {}

    def count(*names):
        return int(spans.of(*names).sum())

    def total(*names):
        return float(dur[spans.outermost(spans.of(*names))].sum())

    projectors = [r for n, r in caught if n == tracing.PROJECTOR]
    out["ct.projector_s"] = total(tracing.PROJECTOR)
    out["ct.projector_rays"] = sum(op.rows for op in projectors)
    out["ct.projector_nnz"] = sum(op.matrix.nnz for op in projectors)
    out["ct.snr_calls"] = count("ct.snr")
    out["ct.snr_s"] = total("ct.snr")
    out["rng.gaussians_s"] = total("rng.Stream.gaussians")

    matvec = spans.of(*tracing.MATVECS)
    norm = spans.of(tracing.NORM)
    in_norm = spans.within(tracing.NORM)
    out["linops.norm_calls"] = int(norm.sum())
    out["linops.norm_matvecs"] = int((matvec & in_norm).sum())
    out["linops.norm_s"] = float(dur[spans.outermost(norm)].sum())
    out["linops.norm_reuse_ratio"] = (
        len(set(spans.tag[norm].tolist())) / max(int(norm.sum()), 1))
    out["linops.apply_calls"] = count(tracing.MATVECS[0])
    out["linops.adjoint_calls"] = count(tracing.MATVECS[1])
    out["linops.matvec_s"] = float(dur[matvec].sum())

    op_bytes = np.array([tracing.matvec_bytes(rows, cols, nnz)
                         for rows, cols, nnz, _ in tracer.ops] or [0])
    iterations = {a: 0 for a in ("dfb", "pdfb", "admm")}
    for algo, rep in solves:
        if not isinstance(rep, BaseException):
            iterations[algo] += rep.outer_iters
    in_validate = spans.within(tracing.VALIDATE)
    for span, algo in tracing.SOLVES.items():
        loop = matvec & spans.within(span) & ~in_validate
        its = iterations[algo]
        out[f"linops.matvecs_per_iter.{algo}"] = (
            int(loop.sum()) / its if its else 0.0)
        out[f"linops.bytes_per_iter.{algo}"] = (
            float(op_bytes[spans.tag[loop]].sum()) / its if its else 0.0)

    prox = spans.layer == "prox"
    out["prox.calls"] = int(spans.outermost(prox).sum())
    out["prox.s"] = float(self_t[prox].sum())

    out["product.combined_adjoint_calls"] = count(
        "product.BlockStack.combined_adjoint")
    out["product.combined_adjoint_s"] = total(
        "product.BlockStack.combined_adjoint")
    out["product.conjugate_prox_calls"] = count(
        "product.BlockStack.stacked_conjugate_prox")
    out["product.conjugate_prox_s"] = total(
        "product.BlockStack.stacked_conjugate_prox")

    validate = spans.of(tracing.VALIDATE)
    for span, algo in tracing.SOLVES.items():
        solve_s = total(span) - float(dur[validate & spans.within(span)].sum())
        its = iterations[algo]
        out[f"solvers.iterations.{algo}"] = its
        out[f"solvers.solve_s.{algo}"] = solve_s
        out[f"solvers.iter_ms.{algo}"] = 1000.0 * solve_s / its if its else 0.0
    out["solvers.self_s"] = float(self_t[spans.layer == "solvers"].sum())
    objective = spans.of("solvers.objective", "solvers.PiccsProblem.objective")
    out["solvers.objective_calls"] = int(spans.outermost(objective).sum())
    out["solvers.objective_s"] = total("solvers.objective",
                                       "solvers.PiccsProblem.objective")
    out["solvers.validate_s"] = total(tracing.VALIDATE)
    out["cli.self_s"] = float(self_t[spans.layer == "cli"].sum())
    out["cli.bytes_written"] = bytes_written
    return out


def run(args):
    if Path(proxsplit.__file__).resolve().parent != ROOT / "src" / "proxsplit":
        raise SystemExit(f"proxsplit imported from {proxsplit.__file__}, "
                         f"not from {ROOT / 'src'}")
    tracer = tracing.Tracer()
    tracer.install(full=args.mode == "traced", own=workloads)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=args.workdir))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        checker = Checker(wl, wl.instances)
        phantom = ct.shepp_logan(wl.n)
        passes, bytes_written, layers = [], 0, None
        t_run = time.perf_counter()
        while True:
            mark, n_caught = tracer.mark(), len(tracer.captured)
            t0 = time.perf_counter()
            wl.run_pass()
            wall = time.perf_counter() - t0
            end = tracer.mark()
            spans = tracer.arrays(mark, end)
            passes.append(pass_times(spans, wall))
            caught = tracer.captured[n_caught:]
            solves = [(tracing.SOLVES[n], out) for n, out in caught
                      if n in tracing.SOLVES]
            problems, bytes_written = wl.after_pass(solves)
            checker.problems_found += problems
            checker.check(wl.plan(), solves, phantom)
            if args.mode == "traced":
                layers = layer_metrics(spans, tracer, caught, solves,
                                       bytes_written)
                for algo in tracing.SOLVES.values():
                    layers[f"solvers.obj_gap.{algo}"] = checker.gaps.get(
                        algo, 0.0)
                tracer.truncate(end)
                break
            tracer.truncate(end)
            elapsed = time.perf_counter() - t_run
            typical = sorted(p["wall"] for p in passes)[len(passes) // 2]
            if elapsed + typical > args.seconds:
                break
        setups = [p["setup"] for p in passes]
        while args.seconds > 0 and len(setups) < SETUP_SAMPLES:
            mark, n_caught = tracer.mark(), len(tracer.captured)
            wl.run_pass(max_outer=1)
            setups.append(pass_times(tracer.arrays(mark), 0.0)["setup"])
            wl.discard()
            tracer.truncate(mark)
            del tracer.captured[n_caught:]
        if args.trace_out:
            tracer.write(args.trace_out, args.run_id)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "mode": args.mode,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "workload": wl.name,
        "seed": args.seed,
        "inputs": wl.inputs(),
        "passes": passes,
        "setups": setups,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "problems": checker.problems_found,
        "snr_db": checker.snr,
        "gaps": checker.gaps,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": len(tracer.start),
        "operators": checker.operators(),
    }
    if layers is not None:
        result["layers"] = layers
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("untraced", "traced"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--run-id", default="")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
