"""The three benchmark workloads and the problems their references solve.

A workload maps the benchmark's ``--seed`` to scene seeds from its pool, each
of which has a recorded reference optimum f* (see ``references/``).
``run_pass`` performs one complete user-visible run of the workload; the
solves it makes are captured by the tracer that wraps ``solve_*``.  With
``max_outer=1`` it makes the same calls with one iteration per solve, which
gives a further set-up sample through the same entry point.

The program is reached only through module attributes (``ct.build_instance``
rather than a name imported at load time), so the wrappers the tracer
installs at run time see every call.
"""

import random
import shutil

import numpy as np

from proxsplit import cli, ct, linops, prox, solvers
from proxsplit.product import BlockStack

# Scene seeds with a recorded reference optimum.  20170520 is the default
# Scene seed, the instance ROADMAP's figures were taken on.
CT_SEEDS = tuple(range(20170520, 20170524))
TV_SEEDS = tuple(range(20170520, 20170526))
# tv-denoise iteration counts vary by up to 30% between noise draws, so a
# tv-denoise pass denoises TV_BATCH images drawn from TV_SEEDS; the ct
# workloads vary by a few percent and solve one scene per pass.
TV_BATCH = 4

TV_N = 64
TV_NOISE_VAR = 0.01
TV_WEIGHT = 0.1


def fine_scene(s):
    # 96^2 keeps ct-fine set-up-dominated (power iteration on D is ~5 s of a
    # ~7.5 s pass) while leaving room for three passes in a run.
    return ct.Scene(n=96, n_views=34, n_rays=136, geometry="parallel",
                    seed=s)


def tv_problems(s):
    """TV denoising of the phantom as a CompositeProblem and in the
    explicit form the ADMM solver takes (same objective)."""
    phantom = ct.shepp_logan(TV_N)
    b = ct.add_gaussian_noise(phantom, TV_NOISE_VAR, s)
    npx = TV_N * TV_N
    ident = linops.identity(npx)
    D = linops.tv_gradient(TV_N, TV_N)
    composite = solvers.CompositeProblem(
        solvers.quadratic_data_term(ident, b),
        prox.BoxIndicator(npx),
        BlockStack([(D, prox.Scaled(prox.GroupL21(2 * npx), TV_WEIGHT))]))
    admm = solvers.PiccsProblem(
        A=ident, b=b, D1=D, D2=D, x_p=np.zeros(npx),
        phi1=prox.L1Norm(2 * npx), phi2=prox.GroupL21(2 * npx),
        lam1=0.0, lam2=TV_WEIGHT)
    return phantom, composite, admm


def reference_problems(workload, s):
    """(composite, admm form) of the instance with scene seed ``s``."""
    if workload == "tv-denoise":
        _, composite, admm = tv_problems(s)
        return composite, admm
    scene = ct.Scene(seed=s) if workload == "ct-desk" else fine_scene(s)
    inst = ct.build_instance(scene)
    return inst.composite(), inst.admm_problem()


class Workload:
    """One workload: the instances a seed selects and one pass over them."""
    known_failure = None
    batch = 1

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.instances = (rng.sample(self.pool, self.batch) if self.batch > 1
                          else [self.pool[seed % len(self.pool)]])

    def plan(self):
        """(scene seed, algorithm) of each solve a pass makes, in order."""
        return [(s, a) for s in self.instances for a in self.solvers]

    def inputs(self):
        return {"scene_seeds": self.instances, **self.describe}

    def expected_failure(self, algo, report, gap):
        """Whether a failed solve is the workload's recorded known failure."""
        known = self.known_failure
        return (known is not None and algo == known["algorithm"]
                and report.termination == known["termination"]
                and report.outer_iters == known["iterations"]
                and known["gap"][0] <= gap <= known["gap"][1])

    def after_pass(self, solves):
        """Checks on outputs other than the solves; (problems, bytes)."""
        return [], 0

    def discard(self):
        """Remove what a pass left behind, unchecked."""


class CtDesk(Workload):
    """``proxsplit run`` on the default scene, in process."""
    name = "ct-desk"
    pool = CT_SEEDS
    solvers = ("dfb", "pdfb", "admm")
    n = 64
    max_outer = 10000
    # ADMM at the package defaults ends max-iters (objective ~2454 against
    # f* ~515): the step gate admits gamma = 1.9 / bound (ROADMAP item 1).
    # That failure, and only that one, counts as failed without making the
    # run incorrect: max-iters after all max_outer iterations, with a finite
    # in-box iterate and a relative gap in the range measured on the pool
    # (3.30 to 3.76).  Any other ADMM failure makes the run incorrect; an
    # ADMM solve that passes the gate is fine.
    known_failure = {"algorithm": "admm", "termination": "max-iters",
                     "iterations": max_outer, "gap": (3.2, 3.9)}
    gate = 2e-3

    @staticmethod
    def config(max_outer):
        return ["run.solvers = dfb,pdfb,admm", "run.eps = 1e-5",
                f"run.max_outer = {max_outer}"]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.describe = {
            "scene": "Scene() defaults: 64^2, fan, 20 views x 95 rays",
            "config": self.config(self.max_outer)}
        self.cfg_paths = {}
        for max_outer in (self.max_outer, 1):
            path = workdir / f"desk-{max_outer}.cfg"
            path.write_text("\n".join(self.config(max_outer)) + "\n")
            self.cfg_paths[max_outer] = path
        self.out = workdir / "out"

    def run_pass(self, max_outer=max_outer):
        (s,) = self.instances
        self.exit_code = cli.main(["run", str(self.cfg_paths[max_outer]),
                                   "--out", str(self.out), "--seed", str(s)])

    def discard(self):
        shutil.rmtree(self.out)

    def after_pass(self, solves):
        problems = []
        if self.exit_code != 0:
            problems.append(f"proxsplit run exited {self.exit_code}")
        files = sorted(self.out.iterdir())
        written = sum(f.stat().st_size for f in files)
        rows = (self.out / "results.csv").read_text().splitlines()[1:]
        done = [(a, r) for a, r in solves if not isinstance(r, Exception)]
        for (algo, rep), row in zip(done, rows):
            got = row.split(",")
            want = [algo, repr(1e-5), str(rep.outer_iters),
                    repr(rep.objective_trace[-1]), rep.termination]
            if [got[0], got[1], got[4], got[5], got[6]] != want:
                problems.append(f"results.csv row {row!r} != {want}")
            lines = (self.out / f"trace_{algo}_eps1e-05.csv").read_text()
            if lines.count("\n") != rep.outer_iters + 1:
                problems.append(f"trace_{algo} has the wrong length")
            if not (self.out / f"recon_{algo}_eps1e-05.pgm").is_file():
                problems.append(f"recon_{algo} missing")
        if len(rows) != len(done):
            problems.append(f"results.csv has {len(rows)} rows")
        self.discard()
        return problems, written


class CtFine(Workload):
    """Library use: build, assemble and solve a 96^2 parallel-beam scene."""
    name = "ct-fine"
    pool = CT_SEEDS
    solvers = ("pdfb",)
    n = 96
    gate = 3e-2
    eps = 1e-3
    describe = {"scene": "Scene(n=96, n_views=34, n_rays=136, parallel)",
                "solver": "pdfb", "eps": eps}

    def run_pass(self, max_outer=10000):
        inst = ct.build_instance(fine_scene(self.instances[0]))
        report = solvers.solve_pdfb(inst.composite(), solvers.SolverConfig(
            "pdfb", eps=self.eps, max_outer=max_outer))
        ct.snr(inst.phantom, report.x_final)


class TvDenoise(Workload):
    """Isotropic TV denoising of TV_BATCH noisy 64^2 phantoms."""
    name = "tv-denoise"
    pool = TV_SEEDS
    batch = TV_BATCH
    solvers = ("dfb", "pdfb")
    n = TV_N
    gate = 1e-4
    eps = 1e-7
    describe = {"n": TV_N, "noise_var": TV_NOISE_VAR, "weight": TV_WEIGHT,
                "solvers": list(solvers), "eps": eps}

    def run_pass(self, max_outer=100_000):
        for s in self.instances:
            phantom, composite, _ = tv_problems(s)
            for algo in self.solvers:
                solve = getattr(solvers, "solve_" + algo)
                report = solve(composite, solvers.SolverConfig(
                    algo, eps=self.eps, max_outer=max_outer))
                ct.snr(phantom, report.x_final)


WORKLOADS = {w.name: w for w in (CtDesk, CtFine, TvDenoise)}
