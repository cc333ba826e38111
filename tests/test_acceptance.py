"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The desk-scale reconstruction fixture (64 x 64 phantom, 20 views x 95 rays,
measurement noise variance 0.01) is solved once per algorithm at eps = 1e-8
and shared by the criteria that inspect it.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from proxsplit import ct, linops, prox
from proxsplit.errors import ParameterError
from proxsplit.product import BlockStack
from proxsplit.solvers import (CompositeProblem, SmoothTerm,
                               SolverConfig, objective, solve_admm,
                               solve_dfb, solve_pdfb, validate_params)

from oracles import box_prox_oracle, problem_oracle, prox_oracle


@contextmanager
def criterion(capsys, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"[acceptance] {label}: PASS ({elapsed:.1f}s)")


# --------------------------------------------------------------- fixtures


DESK_SCENE = ct.Scene()          # 64x64, 20 views x 95 rays, var 0.01


@pytest.fixture(scope="module")
def desk_rows():
    configs = [
        SolverConfig("dfb", max_outer=60_000, eps=1e-8),
        SolverConfig("pdfb", max_outer=60_000, eps=1e-8),
        SolverConfig("admm", rho=5.0, max_outer=20_000, eps=1e-8),
    ]
    rows = ct.run_experiment(DESK_SCENE, configs)
    by_algo = {row["algorithm"]: row for row in rows}
    for algo, row in by_algo.items():
        assert "error" not in row, f"{algo}: {row.get('error')}"
        assert row["terminated_by"] == "tolerance-met", algo
    return by_algo


def sample_terms():
    return [
        prox.L1Norm(3),
        prox.GroupL21(2),
        prox.BoxIndicator(3, 0.0, 1.0),
        prox.ZeroTerm(3),
        prox.Translated(prox.L1Norm(3), np.array([1.0, -0.5, 0.0])),
        prox.Scaled(prox.L1Norm(3), 0.7),
    ]


def least_squares_smooth(b):
    b = np.asarray(b, dtype=float)
    return SmoothTerm(lambda x: 0.5 * float((x - b) @ (x - b)),
                      lambda x: x - b, 1.0)


FOUR_PIXEL_B = np.array([0.0, 0.0, 1.0, 1.0])


def four_pixel_problem():
    B = linops.first_difference(4)
    return CompositeProblem(
        least_squares_smooth(FOUR_PIXEL_B), prox.ZeroTerm(4),
        BlockStack([(B, prox.Scaled(prox.L1Norm(4), 0.5))]))


def four_pixel_objective(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * float((x - FOUR_PIXEL_B) @ (x - FOUR_PIXEL_B)) \
        + 0.5 * float(np.abs(np.diff(x)).sum())


# -------------------------------------------------------------- criteria


def test_criterion_1_prox_oracle_suite(capsys):
    with criterion(capsys, "1 prox oracle suite"):
        rng = np.random.default_rng(101)
        # closed-form proxes match the brute-force minimizer in argument
        for f in sample_terms():
            for t in (0.3, 1.0, 2.5):
                for _ in range(4):
                    u = rng.standard_normal(f.dim) * 2
                    got = f.prox(u, t)
                    if isinstance(f, prox.BoxIndicator):
                        want = box_prox_oracle(f.value, u, t, f.lo, f.hi)
                    else:
                        want = prox_oracle(f.value, u, t)
                    assert np.allclose(got, want, atol=1e-4), (f, u, t)
        # Moreau decomposition residual on 500 random cases
        cases = 0
        while cases < 500:
            for f in sample_terms():
                t = float(rng.uniform(0.1, 10.0))
                u = rng.standard_normal(f.dim) * 3
                resid = np.linalg.norm(
                    f.prox(u, t)
                    + t * prox.prox_conjugate(f, u / t, 1.0 / t) - u)
                assert resid <= 1e-12 * (1 + np.linalg.norm(u))
                cases += 1


def test_criterion_2_operator_suite(capsys):
    with criterion(capsys, "2 operator suite"):
        rng = np.random.default_rng(102)
        ops = [linops.identity(7), linops.first_difference(9),
               linops.tv_gradient(6, 5),
               linops.dense(rng.standard_normal((6, 8))),
               linops.sparse(rng.standard_normal((5, 7)))]
        for op in ops:
            for _ in range(200):
                x = rng.standard_normal(op.cols)
                y = rng.standard_normal(op.rows)
                lhs = float(op.apply(x) @ y)
                rhs = float(x @ op.adjoint_apply(y))
                assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
        for n, m in [(4, 4), (9, 6), (16, 12)]:
            d = linops.tv_gradient(n, m)
            p = n * m
            for _ in range(20):
                u = rng.standard_normal(p)
                du = d.apply(u)
                a = linops.atv(u, n, m)
                assert abs(a - np.abs(du).sum()) <= 1e-12 * (1 + a)
                i = linops.itv(u, n, m)
                l21 = float(np.hypot(du[:p], du[p:]).sum())
                assert abs(i - l21) <= 1e-12 * (1 + i)
        tol = 1e-9
        for op in [linops.first_difference(200),
                   linops.tv_gradient(10, 14),
                   linops.dense(rng.standard_normal((200, 150)))]:
            M = op.to_dense()
            exact = float(np.linalg.eigvalsh(M.T @ M).max())
            est = linops.op_norm_sq(op, tol=tol)
            assert abs(est - exact) <= 10 * tol * exact


def test_criterion_3_reduction_identities(capsys):
    with criterion(capsys, "3 single-block reduction identities"):
        b = np.array([3.0, -1.0, 2.0, 0.5])
        B = linops.first_difference(4)
        h = prox.L1Norm(4)
        problem = CompositeProblem(
            least_squares_smooth(b), prox.ZeroTerm(4), BlockStack([(B, h)]))
        S = problem.stack.norm_sq_bound()

        gamma, lam = 1.5, 0.5 / S
        rep = solve_dfb(problem, SolverConfig(
            "dfb", gamma=gamma, lam=lam, max_outer=10, eps=1e-300),
            metric_fn=lambda x: x.copy())
        x, y = np.zeros(4), np.zeros(4)
        for k in range(10):
            u = x - gamma * (x - b)
            v = u - gamma * B.adjoint_apply(y)
            y = prox.prox_conjugate(h, y + (lam / gamma) * B.apply(v),
                                    lam / gamma)
            x = u - gamma * B.adjoint_apply(y)
            err = np.linalg.norm(rep.metric_trace[k + 1] - x)
            assert err <= 1e-12 * (1 + np.linalg.norm(x))

        tau = 1.0
        sigma = 0.9 / (tau * S)
        rep = solve_pdfb(problem, SolverConfig(
            "pdfb", gamma=gamma, sigma=sigma, tau=tau, max_outer=10,
            eps=1e-300), metric_fn=lambda x: x.copy())
        sp, tp = sigma / gamma, tau * gamma / (1.0 + tau)
        x, yb = np.zeros(4), np.zeros(4)
        for k in range(10):
            x_new = x - tp * (x - b) - tp * B.adjoint_apply(yb)
            yb = prox.prox_conjugate(h, yb + sp * B.apply(2 * x_new - x), sp)
            x = x_new
            err = np.linalg.norm(rep.metric_trace[k + 1] - x)
            assert err <= 1e-12 * (1 + np.linalg.norm(x))


def test_criterion_4_weight_rescaling_equivalence(capsys):
    with criterion(capsys, "4 weighted/unweighted equivalence"):
        rng = np.random.default_rng(104)
        b = rng.standard_normal(5)
        blocks = [(linops.first_difference(5), prox.L1Norm(5)),
                  (linops.dense(rng.standard_normal((3, 5))),
                   prox.Scaled(prox.L1Norm(3), 0.4))]
        weighted = CompositeProblem(
            least_squares_smooth(b), prox.ZeroTerm(5),
            BlockStack(blocks, weights=[0.5, 0.5]))
        unweighted = CompositeProblem(
            least_squares_smooth(b), prox.ZeroTerm(5), BlockStack(blocks))
        lam = 0.5 / weighted.stack.norm_sq_bound()
        xs_w = solve_dfb(weighted, SolverConfig(
            "dfb", gamma=1.5, lam=lam, max_outer=10, eps=1e-300),
            metric_fn=lambda x: x.copy()).metric_trace
        xs_u = solve_dfb(unweighted, SolverConfig(
            "dfb", gamma=1.5, lam=0.5 * lam, max_outer=10, eps=1e-300),
            metric_fn=lambda x: x.copy()).metric_trace
        for xw, xu in zip(xs_w, xs_u):
            assert np.linalg.norm(xw - xu) <= 1e-12 * (1 + np.linalg.norm(xu))


def test_criterion_5_parameter_gate(capsys):
    with criterion(capsys, "5 parameter gate"):
        problem = four_pixel_problem()
        L = problem.smooth.lipschitz
        S = problem.stack.norm_sq_bound()
        # reference settings accepted
        validate_params(problem, SolverConfig(
            "dfb", gamma=1.9 / L, lam=0.9 / S))
        validate_params(problem, SolverConfig(
            "pdfb", gamma=1.9 / L, tau=1.0))
        # open-interval boundaries rejected
        with pytest.raises(ParameterError):
            validate_params(problem, SolverConfig("dfb", gamma=2.0 / L))
        with pytest.raises(ParameterError):
            validate_params(problem, SolverConfig("dfb", lam=1.0 / S))
        with pytest.raises(ParameterError):
            validate_params(problem, SolverConfig(
                "pdfb", sigma=1.0 / S, tau=1.0))


def test_criterion_6_small_instance_optimality(capsys):
    with criterion(capsys, "6 4-pixel optimality vs exhaustive oracle"):
        x_star = problem_oracle(four_pixel_objective, 4, lo=-0.5, hi=1.5,
                                points=9)
        best = four_pixel_objective(x_star)
        problem = four_pixel_problem()
        finals = {
            algo: objective(problem, solve(problem, SolverConfig(
                algo, max_outer=100_000, eps=1e-10)).x_final)
            for algo, solve in (("dfb", solve_dfb), ("pdfb", solve_pdfb),
                                ("admm", solve_admm))}
        for algo, val in finals.items():
            assert abs(val - best) <= 1e-6 * (1 + abs(best)), (algo, val,
                                                               best)


def test_criterion_7_desk_scale_reconstruction(capsys, desk_rows):
    with criterion(capsys, "7 desk-scale reconstruction"):
        # (a) all three final objectives agree to 1e-5 relative
        objs = {a: desk_rows[a]["final_objective"]
                for a in ("dfb", "pdfb", "admm")}
        ref = objs["dfb"]
        for algo, val in objs.items():
            assert abs(val - ref) <= 1e-5 * abs(ref), (algo, objs)
        # (b) SNR traces non-decreasing after 5% burn-in, 0.05 dB slack
        for algo in ("dfb", "pdfb"):
            trace = np.asarray(desk_rows[algo]["report"].metric_trace)
            burn = max(1, int(0.05 * trace.size))
            steps = np.diff(trace[burn:])
            assert steps.min() >= -0.05, (algo, steps.min())
        # (c) SNR and NMSD are consistent for every reported pair
        for algo, row in desk_rows.items():
            assert abs(row["snr_db"]
                       + 20.0 * math.log10(row["nmsd"])) <= 1e-10, algo
    with capsys.disabled():
        for algo, row in sorted(desk_rows.items()):
            print(f"[acceptance]   {algo}: snr={row['snr_db']:.3f} dB "
                  f"nmsd={row['nmsd']:.5f} iters={row['iterations']} "
                  f"objective={row['final_objective']:.6f}")


def test_criterion_8_iteration_ordering_report(capsys, desk_rows):
    # report-only: compare outer-iteration counts at the looser tolerance
    # 1e-6, derived from the recorded residual traces of the eps=1e-8 runs
    counts = {}
    for algo in ("dfb", "pdfb"):
        res = desk_rows[algo]["report"].residual_trace
        counts[algo] = next(i for i, r in enumerate(res, start=1)
                            if r < 1e-6)
    with capsys.disabled():
        ordered = counts["dfb"] < counts["pdfb"]
        print(f"[acceptance] 8 iteration ordering (report-only): PASS "
              f"(dfb={counts['dfb']}, pdfb={counts['pdfb']}, "
              f"dfb fewer: {ordered})")


def test_criterion_9_byte_determinism(capsys, tmp_path):
    from proxsplit import cli
    with criterion(capsys, "9 byte-identical outputs"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scene.n = 8\nscene.n_views = 6\nscene.n_rays = 12\n"
            "scene.seed = 7\nrun.solvers = dfb,admm\nrun.eps = 1e-3\n"
            "run.max_outer = 500\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(cfg), "--out", str(out1)]) == cli.EXIT_OK
        assert cli.main(["run", str(cfg), "--out", str(out2)]) == cli.EXIT_OK
        names = ["results.csv", "trace_dfb_eps0.001.csv",
                 "trace_admm_eps0.001.csv"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
