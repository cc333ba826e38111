import dataclasses

import numpy as np
import pytest

from proxsplit import linops, prox
from proxsplit.errors import (DimensionError, DivergenceError,
                              ParameterError, as_vector)
from proxsplit.product import BlockStack
from proxsplit.solvers import (OPTIONS, CompositeProblem, SmoothTerm,
                               SolverConfig, objective, quadratic_data_term,
                               solve_admm, solve_dfb, solve_pdfb,
                               validate_params)

from oracles import (CountingOperator, problem_oracle,
                     prox_weighted_conjugate)


def least_squares_smooth(b):
    b = np.asarray(b, dtype=float)
    return SmoothTerm(lambda x: 0.5 * float((x - b) @ (x - b)),
                      lambda x: x - b, 1.0)


def tv_denoise_problem(b, weight=0.5, n=None):
    """min 0.5||x - b||^2 + weight ||Bx||_1 with B the forward difference."""
    b = np.asarray(b, dtype=float)
    n = b.size if n is None else n
    B = linops.first_difference(n)
    return CompositeProblem(
        least_squares_smooth(b), prox.ZeroTerm(n),
        BlockStack([(B, prox.Scaled(prox.L1Norm(n), weight))]))


FOUR_PIXEL_B = np.array([0.0, 0.0, 1.0, 1.0])


def four_pixel_objective(x):
    x = np.asarray(x, dtype=float)
    d = np.diff(x)
    return 0.5 * float((x - FOUR_PIXEL_B) @ (x - FOUR_PIXEL_B)) \
        + 0.5 * float(np.abs(d).sum())


# ------------------------------------------------------------- SmoothTerm


def test_quadratic_data_term_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    A = linops.dense(rng.standard_normal((6, 4)))
    b = rng.standard_normal(6)
    f = quadratic_data_term(A, b)
    x = rng.standard_normal(4)
    g = f.gradient(x)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd = (f.value(x + e) - f.value(x - e)) / (2 * h)
        assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-7)


def test_quadratic_data_term_shares_residual_between_value_and_gradient():
    rng = np.random.default_rng(7)
    A = CountingOperator(linops.dense(rng.standard_normal((6, 4))))
    b = rng.standard_normal(6)
    f = quadratic_data_term(A, b)
    x = rng.standard_normal(4)
    before = A.counts()
    f.value(x)
    f.gradient(x)
    f.value(x.copy())
    assert A.applies - before[0] == 1
    # a point changed in place is a new point, not a cached one
    x[2] += 1.0
    r = A.matrix @ x - b
    assert f.value(x) == 0.5 * float(r @ r)
    assert np.array_equal(f.gradient(x), A.matrix.T @ r)
    assert A.applies - before[0] == 2


def test_quadratic_data_term_lipschitz_bound():
    rng = np.random.default_rng(6)
    A = linops.dense(rng.standard_normal((5, 5)))
    f = quadratic_data_term(A, rng.standard_normal(5))
    for _ in range(50):
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        lhs = np.linalg.norm(f.gradient(x) - f.gradient(y))
        rhs = f.lipschitz * np.linalg.norm(x - y)
        assert lhs <= rhs + 1e-9 * rhs


def test_smooth_term_rejects_bad_lipschitz():
    # L = 0 stays valid; the step gates read only a finite L >= 0
    SmoothTerm(lambda x: 0.0, np.zeros_like, 0.0)
    for bad in (np.nan, np.inf, -1.0, "1", True):
        with pytest.raises(ParameterError, match="lipschitz"):
            SmoothTerm(lambda x: 0.0, np.zeros_like, bad)


def test_quadratic_data_term_rejects_bad_rhs():
    A = linops.identity(3)
    with pytest.raises(DimensionError):
        quadratic_data_term(A, np.zeros(4))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="non-finite"):
            quadratic_data_term(A, [0.0, bad, 1.0])


# --------------------------------------------------------- validate_params


def test_validate_accepts_reference_settings():
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    L = problem.smooth.lipschitz
    S = problem.stack.norm_sq_bound()
    cfg = validate_params(problem, SolverConfig(
        "dfb", gamma=1.9 / L, lam=0.9 / S))
    assert cfg.gamma == 1.9 / L and cfg.lam == 0.9 / S
    validate_params(problem, SolverConfig("pdfb", gamma=1.9 / L, tau=1.0))


def test_validate_fills_defaults():
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    cfg = validate_params(problem, SolverConfig("dfb"))
    assert cfg.gamma == pytest.approx(1.9 / problem.smooth.lipschitz)
    assert cfg.lam == pytest.approx(0.99 / problem.stack.norm_sq_bound())
    cfg = validate_params(problem, SolverConfig("pdfb"))
    assert cfg.tau == 1.0
    assert cfg.sigma == pytest.approx(0.99 / problem.stack.norm_sq_bound())
    cfg = validate_params(problem, SolverConfig("admm", rho=2.0))
    assert cfg.gamma == pytest.approx(1.9 / (
        problem.smooth.lipschitz + 4.0 * problem.stack.norm_sq_bound()))
    assert cfg.rho == 2.0 and cfg.lam is None and cfg.inner_iters == 1


def test_validate_rejects_boundary_gamma():
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    with pytest.raises(ParameterError):
        validate_params(problem, SolverConfig(
            "dfb", gamma=2.0 / problem.smooth.lipschitz))


def test_validate_rejects_boundary_lambda_strict_weak():
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    S = problem.stack.norm_sq_bound()
    with pytest.raises(ParameterError):
        validate_params(problem, SolverConfig("dfb", lam=1.0 / S))


def test_validate_rejects_boundary_sigma_tau_product():
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    S = problem.stack.norm_sq_bound()
    with pytest.raises(ParameterError):
        validate_params(problem, SolverConfig("pdfb", sigma=1.0 / S, tau=1.0))


def test_validate_rejects_unknown_algorithm():
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    for algorithm in ("newton", ["dfb"]):
        with pytest.raises(ParameterError):
            validate_params(problem, SolverConfig(algorithm))


def test_sigma_tau_gate_implies_condat_balance():
    # pdfb is Condat-Vu with tau' = tau gamma/(1 + tau) and
    # sigma' = sigma/gamma, whose balance 1/tau' - sigma' S > L/2 reads
    # sigma tau S < 1 + tau (1 - gamma L/2): gamma < 2/L and
    # sigma tau S < 1 imply it, so validate_params need not check it.
    rng = np.random.default_rng(61)
    L, S, tau = 10.0 ** rng.uniform(-3.0, 3.0, size=(3, 100_000))
    gamma = rng.uniform(0.0, 1.0, L.size) * 2.0 / L
    sigma = rng.uniform(0.0, 1.0, L.size) / (tau * S)
    tau_p, sigma_p = tau * gamma / (1.0 + tau), sigma / gamma
    assert np.all(1.0 / tau_p - sigma_p * S > L / 2.0)


def test_config_rejects_non_integer_counts():
    for bad in (dict(max_outer=2.5), dict(max_outer=float("nan")),
                dict(max_outer=10.0), dict(max_outer=True),
                dict(inner_iters=1.5), dict(inner_iters=True)):
        with pytest.raises(ParameterError, match=next(iter(bad))):
            SolverConfig("dfb", **bad)
    cfg = SolverConfig("dfb", max_outer=np.int64(3), inner_iters=np.int32(2))
    report = solve_dfb(tv_denoise_problem(FOUR_PIXEL_B), cfg)
    assert report.outer_iters == 3


@pytest.mark.parametrize("algorithm, name, value", [
    ("dfb", "eps", np.inf), ("dfb", "eps", np.nan), ("dfb", "gamma", np.inf),
    ("dfb", "lam", np.inf), ("pdfb", "sigma", np.inf), ("pdfb", "tau", np.inf),
    ("admm", "rho", np.inf), ("admm", "rho", np.nan),
    ("dfb", "eps", None), ("admm", "rho", None), ("dfb", "gamma", "1"),
    ("pdfb", "sigma", True)])
def test_config_rejects_non_finite_settings(algorithm, name, value):
    with pytest.raises(ParameterError, match=f"{name} must be positive and "
                                             f"finite"):
        SolverConfig(algorithm, **{name: value})


# Every (algorithm, SolverConfig field it does not read), with a value away
# from the field's default.
UNREAD = [("dfb", "sigma", 0.1), ("dfb", "tau", 2.0), ("dfb", "rho", 7.0),
          ("pdfb", "lam", 0.5), ("pdfb", "rho", 7.0),
          ("admm", "lam", 0.5), ("admm", "sigma", 0.1), ("admm", "tau", 2.0),
          ("admm", "inner_iters", 3)]


def test_unread_list_is_the_complement_of_options():
    fields = [f.name for f in dataclasses.fields(SolverConfig)]
    assert sorted((a, f) for a, f, _ in UNREAD) == sorted(
        (a, f) for a, reads in OPTIONS.items() for f in fields
        if f not in reads + ("algorithm", "max_outer", "eps"))


@pytest.mark.parametrize("algorithm, name, value", UNREAD)
def test_config_rejects_a_field_its_algorithm_does_not_read(algorithm, name,
                                                            value):
    with pytest.raises(ParameterError, match=name):
        SolverConfig(algorithm, **{name: value})


def test_config_accepts_defaults_in_fields_it_does_not_read():
    SolverConfig("dfb", sigma=None, tau=None, rho=1.0)
    SolverConfig("pdfb", lam=None, rho=1.0)
    SolverConfig("admm", lam=None, sigma=None, tau=None, inner_iters=1)


def test_validate_admm_gamma_bound():
    # Condat-Vu: gamma (L/2 + rho*S) < 1, i.e. gamma < 2/(L + 2 rho S)
    n = 4
    A = linops.identity(n)
    D = linops.first_difference(n)
    problem = CompositeProblem(
        quadratic_data_term(A, np.zeros(n)), prox.ZeroTerm(n),
        BlockStack([(D, prox.Scaled(prox.L1Norm(n), 0.4)),
                    (D, prox.Scaled(prox.L1Norm(n), 0.5))]))
    L = linops.safe_norm_sq(A)
    S = problem.stack.norm_sq_bound()
    assert S == 2 * linops.safe_norm_sq(D)
    cap = 2.0 / (L + 2.0 * S)
    validate_params(problem, SolverConfig("admm", gamma=0.999 * cap))
    with pytest.raises(ParameterError):
        validate_params(problem, SolverConfig("admm", gamma=cap))
    # 1.9/(L + rho S) lies above the cap
    with pytest.raises(ParameterError):
        validate_params(problem, SolverConfig("admm", gamma=1.9 / (L + S)))
    with pytest.raises(ParameterError):
        validate_params(problem, SolverConfig("admm", rho=-1.0))
    # the penalty scales the stack's share of the bound
    for rho in (1.0, 5.0):
        cfg = validate_params(problem, SolverConfig("admm", rho=rho))
        assert cfg.gamma == 1.9 / (L + 2 * rho * S)


SOLVERS = {"dfb": solve_dfb, "pdfb": solve_pdfb, "admm": solve_admm}


@pytest.mark.parametrize("solver, algorithm", [
    (s, a) for s in SOLVERS for a in SOLVERS if s != a])
def test_solver_rejects_config_for_another_algorithm(solver, algorithm):
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    with pytest.raises(ParameterError):
        SOLVERS[solver](problem, SolverConfig(algorithm, max_outer=100))


def zero_operator_problem(lipschitz=1.0):
    """f = (L/2)||x||^2 and a one-block stack whose only operator is zero,
    so S = 0."""
    n = 4
    smooth = SmoothTerm(lambda x: 0.5 * lipschitz * float(x @ x),
                        lambda x: lipschitz * x, lipschitz)
    return CompositeProblem(smooth, prox.ZeroTerm(n),
                            BlockStack([(linops.zero(n, n), prox.L1Norm(n))]))


@pytest.mark.parametrize("cfg", [
    SolverConfig("dfb"), SolverConfig("dfb", gamma=1.0, lam=0.5),
    SolverConfig("pdfb"), SolverConfig("pdfb", gamma=1.0, sigma=0.5, tau=1.0),
])
def test_validate_rejects_zero_stack_bound_dfb_pdfb(cfg):
    problem = zero_operator_problem()
    assert problem.stack.norm_sq_bound() == 0.0
    with pytest.raises(ParameterError):
        validate_params(problem, cfg)


@pytest.mark.parametrize("algorithm", ["dfb", "pdfb"])
def test_validate_leaves_gamma_uncapped_without_curvature(algorithm):
    # L = 0 and S > 0: gamma defaults to 1 and any gamma > 0 passes
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    problem = CompositeProblem(SmoothTerm(lambda x: 0.0, np.zeros_like, 0.0),
                               problem.simple, problem.stack)
    assert problem.stack.norm_sq_bound() > 0
    assert validate_params(problem, SolverConfig(algorithm)).gamma == 1.0
    cfg = validate_params(problem, SolverConfig(algorithm, gamma=1e3))
    assert cfg.gamma == 1e3


def test_validate_accepts_zero_stack_for_admm_with_curvature():
    # S = 0 and L > 0: L + 2 rho S = L caps gamma
    problem = zero_operator_problem(lipschitz=1.0)
    cfg = validate_params(problem, SolverConfig("admm"))
    assert cfg.gamma == 1.9 / 1.0


def test_validate_rejects_zero_admm_bound():
    # L + 2 rho S = 0: no smooth curvature and a zero stack
    problem = zero_operator_problem(lipschitz=0.0)
    for cfg in (SolverConfig("admm"), SolverConfig("admm", gamma=1.0)):
        with pytest.raises(ParameterError):
            validate_params(problem, cfg)


# --------------------------------------------------------------- objective


def test_objective_zero_at_clean_point():
    problem = tv_denoise_problem(np.zeros(3))
    assert objective(problem, np.zeros(3)) == 0.0


def test_objective_infinite_outside_indicator():
    b = np.array([1.0, 1.0])
    problem = CompositeProblem(
        least_squares_smooth(b), prox.BoxIndicator(2, 0.0, np.inf),
        BlockStack([(linops.identity(2), prox.ZeroTerm(2))]))
    assert objective(problem, [-0.1, 1.0]) == np.inf
    # a block term that is an indicator, with B x outside its box
    problem = CompositeProblem(
        least_squares_smooth(b), prox.ZeroTerm(2),
        BlockStack([(linops.identity(2), prox.BoxIndicator(2, 0.0, 1.0))]))
    assert objective(problem, [0.5, 1.5]) == np.inf


def test_objective_matches_termwise_sum():
    rng = np.random.default_rng(9)
    problem = tv_denoise_problem(rng.standard_normal(5), weight=0.3)
    x = rng.standard_normal(5)
    want = problem.smooth.value(x) + 0.3 * np.abs(np.diff(x)).sum()
    assert objective(problem, x) == pytest.approx(want, rel=1e-12)


def test_objective_dimension_mismatch():
    problem = tv_denoise_problem(np.zeros(3))
    with pytest.raises(DimensionError):
        objective(problem, np.zeros(4))


def test_composite_problem_rejects_g_of_another_dim():
    with pytest.raises(DimensionError):
        CompositeProblem(
            least_squares_smooth(np.zeros(4)), prox.ZeroTerm(3),
            BlockStack([(linops.identity(4), prox.L1Norm(4))]))


# ------------------------------------------------------------- solve_dfb


def test_dfb_unconstrained_least_squares_converges_to_b():
    b = np.array([3.0, -1.0, 0.5])
    problem = CompositeProblem(
        least_squares_smooth(b), prox.ZeroTerm(3),
        BlockStack([(linops.identity(3), prox.ZeroTerm(3))]))
    rep = solve_dfb(problem, SolverConfig("dfb", max_outer=5000, eps=1e-12))
    assert rep.termination == "tolerance-met"
    assert np.allclose(rep.x_final, b, atol=1e-8)


def test_dfb_scalar_soft_threshold_problem():
    # min 0.5 (x - 3)^2 + |x|  ->  x* = 2
    problem = CompositeProblem(
        least_squares_smooth([3.0]), prox.ZeroTerm(1),
        BlockStack([(linops.identity(1), prox.L1Norm(1))]))
    rep = solve_dfb(problem, SolverConfig("dfb", max_outer=20000, eps=1e-12))
    assert abs(rep.x_final[0] - 2.0) <= 1e-6


def test_dfb_four_pixel_tv_denoise_matches_oracle():
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    rep = solve_dfb(problem, SolverConfig("dfb", max_outer=50000, eps=1e-12))
    want = problem_oracle(four_pixel_objective, 4, lo=-0.5, hi=1.5, points=9)
    assert np.allclose(rep.x_final, want, atol=1e-4)


def test_dfb_stops_at_first_tolerance_crossing():
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    rep = solve_dfb(problem, SolverConfig("dfb", max_outer=50000, eps=1e-6))
    res = rep.residual_trace
    assert rep.termination == "tolerance-met"
    assert res[-1] < 1e-6
    assert all(r >= 1e-6 for r in res[:-1])
    assert rep.outer_iters == len(res)


def test_dfb_objective_trace_finite_after_first_iteration():
    b = np.array([1.0, -2.0, 0.5])
    problem = CompositeProblem(
        least_squares_smooth(b), prox.BoxIndicator(3, 0.0, np.inf),
        BlockStack([(linops.first_difference(3), prox.L1Norm(3))]))
    rep = solve_dfb(problem, SolverConfig("dfb", max_outer=20, eps=1e-300),
                    metric_fn=lambda x: 0.0)
    assert len(rep.objective_trace) == 21
    assert all(np.isfinite(v) for v in rep.objective_trace[1:])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dfb_divergence_detection():
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    smooth = SmoothTerm(problem.smooth.value,
                        lambda x: (x - FOUR_PIXEL_B) * 1e30,
                        problem.smooth.lipschitz)
    bad = CompositeProblem(smooth, problem.simple, problem.stack)
    with pytest.raises(DivergenceError):
        solve_dfb(bad, SolverConfig("dfb", max_outer=100, eps=1e-12))


def injecting_problem(k, bad):
    """A 4-pixel problem whose gradient is the constant ``bad`` at its k-th
    call (outer iteration k of every solver) and x - b otherwise."""
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    calls = [0]

    def gradient(x):
        calls[0] += 1
        return np.full(4, bad) if calls[0] == k else x - FOUR_PIXEL_B

    smooth = SmoothTerm(problem.smooth.value, gradient,
                        problem.smooth.lipschitz)
    return CompositeProblem(smooth, problem.simple, problem.stack)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solver", [solve_dfb, solve_pdfb, solve_admm])
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_iterate_raises_at_its_iteration(solver, bad):
    algorithm = solver.__name__.removeprefix("solve_")
    cfg = SolverConfig(algorithm, max_outer=20, eps=1e-300)
    with pytest.raises(DivergenceError) as info:
        solver(injecting_problem(7, bad), cfg)
    assert info.value.iteration == 7


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solver", [solve_dfb, solve_pdfb, solve_admm])
def test_finite_iterate_with_overflowing_change_does_not_raise(solver):
    # the change norm of an iterate near 1e200 overflows to inf, yet every
    # entry is finite, so the solve goes on
    algorithm = solver.__name__.removeprefix("solve_")
    cfg = SolverConfig(algorithm, max_outer=7, eps=1e-300)
    rep = solver(injecting_problem(7, -1e200), cfg)
    assert rep.outer_iters == 7
    assert rep.residual_trace[-1] == np.inf
    assert np.all(np.isfinite(rep.x_final))
    assert np.abs(rep.x_final).max() > 1e199


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solver", [solve_dfb, solve_pdfb, solve_admm])
def test_overflowing_start_norm_is_no_zero_change(solver):
    # ||x0|| overflows to inf, so the change relative to it is NaN, not 0,
    # and no solver stops there
    algorithm = solver.__name__.removeprefix("solve_")
    rep = solver(tv_denoise_problem(FOUR_PIXEL_B),
                 SolverConfig(algorithm, eps=1e-8), x0=np.full(4, 1e154))
    assert rep.termination == "tolerance-met"
    assert np.isnan(rep.residual_trace[0])
    assert rep.objective_trace[-1] == pytest.approx(0.375, rel=1e-6)


def test_residual_trace_holds_python_floats():
    rep = solve_dfb(tv_denoise_problem(FOUR_PIXEL_B),
                    SolverConfig("dfb", max_outer=5, eps=1e-300))
    assert [type(r) for r in rep.residual_trace] == [float] * 5


# ------------------------------------------------------------- solve_pdfb


def test_pdfb_unconstrained_least_squares_converges_to_b():
    b = np.array([3.0, -1.0, 0.5])
    problem = CompositeProblem(
        least_squares_smooth(b), prox.ZeroTerm(3),
        BlockStack([(linops.identity(3), prox.ZeroTerm(3))]))
    rep = solve_pdfb(problem, SolverConfig("pdfb", max_outer=5000, eps=1e-12))
    assert np.allclose(rep.x_final, b, atol=1e-8)


def test_pdfb_scalar_soft_threshold_problem():
    problem = CompositeProblem(
        least_squares_smooth([3.0]), prox.ZeroTerm(1),
        BlockStack([(linops.identity(1), prox.L1Norm(1))]))
    rep = solve_pdfb(problem,
                     SolverConfig("pdfb", max_outer=20000, eps=1e-12))
    assert abs(rep.x_final[0] - 2.0) <= 1e-6


def test_pdfb_four_pixel_agrees_with_dfb_objective():
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    r1 = solve_dfb(problem, SolverConfig("dfb", max_outer=50000, eps=1e-12))
    r2 = solve_pdfb(problem,
                    SolverConfig("pdfb", max_outer=50000, eps=1e-12))
    o1, o2 = objective(problem, r1.x_final), objective(problem, r2.x_final)
    assert abs(o1 - o2) <= 1e-6 * (1 + abs(o1))


# ------------------------------------------------------------- solve_admm


def test_admm_pure_least_squares():
    # both penalties act through zero operators, so only the data term moves
    n = 3
    b = np.array([1.0, -2.0, 0.5])
    problem = CompositeProblem(
        quadratic_data_term(linops.identity(n), b), prox.ZeroTerm(n),
        BlockStack([(linops.zero(n, n), prox.Scaled(prox.L1Norm(n), 0.3)),
                    (linops.zero(n, n), prox.Scaled(prox.L1Norm(n), 0.7))]))
    rep = solve_admm(problem, SolverConfig("admm", max_outer=5000, eps=1e-12))
    assert np.allclose(rep.x_final, b, atol=1e-8)


def test_admm_zero_weights_projected_least_squares():
    n = 3
    b = np.array([1.0, -2.0, 0.5])
    D = linops.first_difference(n)
    problem = CompositeProblem(
        quadratic_data_term(linops.identity(n), b),
        prox.BoxIndicator(n, 0.0, np.inf),
        BlockStack([(D, prox.ZeroTerm(n)), (D, prox.ZeroTerm(n))]))
    rep = solve_admm(problem, SolverConfig("admm", max_outer=5000, eps=1e-12))
    assert np.allclose(rep.x_final, np.clip(b, 0.0, None), atol=1e-6)


# ------------------------------------------------------ reduction identities


def capture_iterates(solve, problem, cfg, **kw):
    rep = solve(problem, cfg, metric_fn=lambda x: x.copy(), **kw)
    return rep.metric_trace


def dfb_fixed_point_step(problem, gamma, lam, x, y):
    """One dfb outer step, by hand, on a single block with g = 0:
    v = x - gamma grad - gamma B'y; y+ = conj-prox(y + (lam/gamma) B v);
    x+ = x - gamma grad - gamma B'y+."""
    (B, h), = problem.stack.blocks
    u = x - gamma * problem.smooth.gradient(x)
    v = u - gamma * B.adjoint_apply(y)
    y = prox.prox_conjugate(h, y + (lam / gamma) * B.apply(v), lam / gamma)
    return u - gamma * B.adjoint_apply(y), y


def pdfb_primal_dual_step(problem, gamma, sigma, tau, x, yb):
    """One pdfb outer step, by hand, on a single block with g = 0, in the
    rescaled variables s' = sigma/gamma, t' = tau*gamma/(1+tau), yb = y/gamma:
    x+ = x - t' grad - t' B' yb; yb+ = conj-prox_{s'}(yb + s' B (2x+ - x))."""
    (B, h), = problem.stack.blocks
    sp, tp = sigma / gamma, tau * gamma / (1.0 + tau)
    x_new = x - tp * problem.smooth.gradient(x) - tp * B.adjoint_apply(yb)
    yb = prox.prox_conjugate(h, yb + sp * B.apply(2 * x_new - x), sp)
    return x_new, yb


def linearized_admm_step(problem, gamma, rho, x, ys, vs):
    """One linearized ADMM step, by hand, with penalties rho_i = rho*w_i:
    x+  = prox_g(x - gamma (grad f(x) + sum_i rho_i B_i'(B_i x - y_i + v_i)));
    y_i = prox_{h_i/rho_i}(B_i x+ + v_i);  v_i += B_i x+ - y_i."""
    blocks = problem.stack.blocks
    rhos = [rho * w for w in problem.stack.weights]
    grad = problem.smooth.gradient(x) + sum(
        r * B.adjoint_apply(B.apply(x) - y + v)
        for (B, _), r, y, v in zip(blocks, rhos, ys, vs))
    x = problem.simple.prox(x - gamma * grad, gamma)
    bxs = [B.apply(x) for B, _ in blocks]
    ys = [h.prox(bx + v, 1.0 / r)
          for (_, h), bx, r, v in zip(blocks, bxs, rhos, vs)]
    return x, ys, [v + bx - y for v, bx, y in zip(vs, bxs, ys)]


def shared_operator_problem(weights=None):
    """Two blocks holding the same operator object, a box on x."""
    rng = np.random.default_rng(52)
    b = rng.standard_normal(6)
    B = linops.first_difference(6)
    terms = [prox.Scaled(prox.L1Norm(6), 0.4),
             prox.Translated(prox.L1Norm(6), rng.standard_normal(6))]
    problem = CompositeProblem(
        least_squares_smooth(b), prox.BoxIndicator(6, -0.3, 1.2),
        BlockStack([(B, t) for t in terms], weights=weights))
    return problem, b, B, terms


def warm_starts(seed):
    """A cold start and a warm one (nonzero x0 and a dual y0, its two
    blocks one after the other) for the shared-operator problem."""
    rng = np.random.default_rng(seed)
    return [{"x0": None, "y0": None},
            {"x0": rng.standard_normal(6), "y0": rng.standard_normal(12)}]


def start_blocks(v):
    """The two 6-entry blocks of a starting dual; zeros when it is None."""
    return np.split(np.zeros(12) if v is None else v, 2)


@pytest.mark.parametrize("weights", [None, [0.3, 0.7]])
def test_dfb_inner_iterations_reproduce_direct_scheme(weights):
    problem, b, B, terms = shared_operator_problem(weights)
    g = problem.simple
    w = weights or [1.0, 1.0]
    gamma = 1.5
    lam = 0.5 / problem.stack.norm_sq_bound()
    cfg = SolverConfig("dfb", gamma=gamma, lam=lam, inner_iters=3,
                       max_outer=10, eps=1e-300)

    def bty(ys):
        return sum(wi * B.adjoint_apply(y) for wi, y in zip(w, ys))

    for start in warm_starts(55):
        iterates = capture_iterates(solve_dfb, problem, cfg, **start)

        x = np.zeros(6) if start["x0"] is None else start["x0"].copy()
        ys = start_blocks(start["y0"])
        for k in range(10):
            u = x - gamma * (x - b)
            for _ in range(3):
                v = g.prox(u - gamma * bty(ys), gamma)
                ys = [prox_weighted_conjugate(
                          h, wi, y + (lam / gamma) * B.apply(v), lam / gamma)
                      for h, wi, y in zip(terms, w, ys)]
            x = g.prox(u - gamma * bty(ys), gamma)
            err = np.linalg.norm(iterates[k + 1] - x)
            assert err <= 1e-12 * (1 + np.linalg.norm(x))


@pytest.mark.parametrize("weights", [None, [0.3, 0.7]])
def test_pdfb_inner_iterations_reproduce_direct_scheme(weights):
    problem, b, B, terms = shared_operator_problem(weights)
    g = problem.simple
    w = weights or [1.0, 1.0]
    gamma, tau = 1.5, 1.0
    sigma = 0.9 / (tau * problem.stack.norm_sq_bound())
    cfg = SolverConfig("pdfb", gamma=gamma, sigma=sigma, tau=tau,
                       inner_iters=3, max_outer=10, eps=1e-300)

    for start in warm_starts(56):
        iterates = capture_iterates(solve_pdfb, problem, cfg, **start)

        x = np.zeros(6) if start["x0"] is None else start["x0"].copy()
        # the scheme's dual is gamma times the solvers' common one
        ys = [gamma * y for y in start_blocks(start["y0"])]
        xbar = x.copy()
        for k in range(10):
            u = x - gamma * (x - b)
            for _ in range(3):
                bty = sum(wi * B.adjoint_apply(y) for wi, y in zip(w, ys))
                xbar_new = g.prox((xbar - tau * bty + tau * u) / (1.0 + tau),
                                  tau * gamma / (1.0 + tau))
                z = 2.0 * xbar_new - xbar
                ys = [gamma * prox_weighted_conjugate(
                          h, wi, (y + sigma * B.apply(z)) / gamma,
                          sigma / gamma)
                      for h, wi, y in zip(terms, w, ys)]
                xbar = xbar_new
            x = xbar
            err = np.linalg.norm(iterates[k + 1] - x)
            assert err <= 1e-12 * (1 + np.linalg.norm(x))


def test_admm_shared_operator_matches_distinct_copies():
    # blocks holding one operator object act as blocks on copies of it
    rng = np.random.default_rng(53)
    n = 6
    A = linops.dense(rng.standard_normal((8, n)))
    b = rng.standard_normal(8)
    x_p = rng.standard_normal(n)
    D = linops.first_difference(n)

    def problem(D1, D2):
        h1 = prox.Scaled(prox.Translated(prox.L1Norm(n), D1.apply(x_p)), 0.3)
        h2 = prox.Scaled(prox.L1Norm(n), 0.2)
        return CompositeProblem(
            quadratic_data_term(A, b), prox.BoxIndicator(n),
            BlockStack([(D1, h1), (D2, h2)]))

    shared = problem(D, D)
    distinct = problem(D, linops.first_difference(n))
    cfg = SolverConfig("admm", max_outer=50, eps=1e-300)
    xs_s = capture_iterates(solve_admm, shared, cfg)
    xs_d = capture_iterates(solve_admm, distinct, cfg)
    for xs, xd in zip(xs_s, xs_d):
        assert np.linalg.norm(xs - xd) <= 1e-12 * (1 + np.linalg.norm(xd))
    rep = solve_admm(shared, cfg)
    assert rep.objective_trace[-1] == objective(shared, rep.x_final)


@pytest.mark.parametrize("weights", [None, [0.3, 0.7]])
def test_admm_reproduces_linearized_admm_scheme(weights):
    problem, *_ = shared_operator_problem(weights)
    rho = 2.5
    gamma = 0.9 / (problem.smooth.lipschitz
                   + rho * problem.stack.norm_sq_bound())
    cfg = SolverConfig("admm", gamma=gamma, rho=rho, max_outer=10,
                       eps=1e-300)
    rng = np.random.default_rng(54)
    cold = {"x0": None, "y0": None}
    warm = {"x0": rng.standard_normal(6), "y0": rng.standard_normal(12)}
    for start in (cold, warm):
        iterates = capture_iterates(solve_admm, problem, cfg, **start)

        x = np.zeros(6) if start["x0"] is None else start["x0"].copy()
        # the split starts at B x0 and the scaled dual at y0 / rho
        ys = np.split(problem.stack.op.apply(x), 2)
        vs = [y / rho for y in start_blocks(start["y0"])]
        for k in range(10):
            x, ys, vs = linearized_admm_step(problem, gamma, rho, x, ys, vs)
            err = np.linalg.norm(iterates[k + 1] - x)
            assert err <= 1e-12 * (1 + np.linalg.norm(x))


def test_admm_rejects_wrong_length_starting_duals():
    # a dual is one vector of length 12; a ragged sequence, a string or a
    # bool is no vector at all, even where numpy would read it as numbers
    problem, *_ = shared_operator_problem()
    cfg = SolverConfig("admm", max_outer=10)
    for y0 in (np.zeros(11), [np.zeros(6)], [np.zeros(6), np.zeros(5)]):
        with pytest.raises(DimensionError):
            solve_admm(problem, cfg, y0=y0)
    with pytest.raises(DimensionError, match="vector"):
        prox.L1Norm(3).prox([[1.0, 2.0], [3.0]], 1.0)
    for bad in ("abc", "3.0", ["1", "2"], True, np.array([True, False]),
                [1j], np.array([1 + 2j]), [10**400]):
        with pytest.raises(DimensionError, match="vector"):
            as_vector(bad)
    with pytest.raises(DimensionError, match="vector"):
        prox.L1Norm(2).prox(["1.5", "-2"], 1.0)
    # an object array is read entry by entry: reals pass, nothing else
    # does, and an integer no float holds is no real vector either
    for bad in (["1"], [1.0, "2"], [True], [-10**400, 1]):
        with pytest.raises(DimensionError, match="vector"):
            as_vector(np.array(bad, dtype=object))
    with pytest.raises(DimensionError, match="vector"):
        prox.L1Norm(1).prox(np.array(["1"], dtype=object), 1.0)
    assert np.array_equal(
        as_vector(np.array([1, 2.5, np.float32(-1)], dtype=object)),
        [1.0, 2.5, -1.0])


def per_iteration_counts(solve, problem, cfg, ops, **kw):
    """(applies, adjoints) per outer iteration of each operator in ops."""
    def run(iters):
        before = [op.counts() for op in ops]
        solve(problem, dataclasses.replace(cfg, max_outer=iters), **kw)
        return [np.subtract(op.counts(), c) for op, c in zip(ops, before)]
    solve(problem, cfg)         # norms are computed once, here
    short, long = run(2), run(5)
    return [tuple(int(v) for v in (lo - sh) // 3)
            for sh, lo in zip(short, long)]


def counted_problem():
    """A data term on A and one block on D with the CT model's two
    penalties, both operators counted."""
    rng = np.random.default_rng(54)
    n = 9
    A = CountingOperator(linops.dense(rng.standard_normal((12, n))))
    D = CountingOperator(linops.tv_gradient(3, 3))
    b = rng.standard_normal(12)
    composite = CompositeProblem(
        quadratic_data_term(A, b), prox.BoxIndicator(n),
        BlockStack([(D, prox.L1Pair(1.0, 0.5,
                                    0.1 * rng.standard_normal(2 * n)))]))
    return composite, A, D


def test_matvecs_per_iteration():
    # dfb and pdfb: A and A^T for the gradient and one D and one D^T per
    # inner step.  pdfb's D x serves any objective; dfb's D v is not D x,
    # so dfb makes one more D for the objective when a metric is traced
    # (its Ax is the gradient's).  ADMM: A^T, one D^T, one D (shared by
    # the y-step and any objective), one A.
    composite, A, D = counted_problem()
    for traced in (False, True):
        kw = {"metric_fn": lambda x: 0.0} if traced else {}
        for solve, algo in [(solve_dfb, "dfb"), (solve_pdfb, "pdfb")]:
            for inner in (1, 2):
                cfg = SolverConfig(algo, max_outer=1, eps=1e-300,
                                   inner_iters=inner)
                got = per_iteration_counts(solve, composite, cfg, [A, D],
                                           **kw)
                extra = traced and algo == "dfb"
                assert got == [(1, 1), (inner + extra, inner)], (
                    algo, inner, traced)
        cfg = SolverConfig("admm", max_outer=1, eps=1e-300)
        assert per_iteration_counts(solve_admm, composite, cfg, [A, D],
                                    **kw) == [(1, 1), (1, 1)], traced


@pytest.mark.parametrize("algorithm, explicit", [
    pytest.param("dfb", False, id="dfb"),
    pytest.param("pdfb", False, id="pdfb"),
    pytest.param("admm", False, id="admm"),
    pytest.param("pdfb", True, id="pdfb-explicit")])
def test_objective_is_traced_only_with_a_metric(algorithm, explicit):
    # The objective costs products the iteration does not need, so it is
    # evaluated at every iterate only when a metric is traced; the iterates,
    # the stop and the residuals must not depend on it.  Where the solver
    # yields B x, the objective reads it, balanced or at the caller's steps.
    problem, *_ = counted_problem()
    solve = SOLVERS[algorithm]
    cfg = SolverConfig(algorithm, max_outer=400, eps=1e-5)
    if explicit:
        L, S = problem.smooth.lipschitz, problem.stack.norm_sq_bound()
        cfg = dataclasses.replace(cfg, gamma=1.0 / L, tau=0.5,
                                  sigma=0.9 / (0.5 * S))
    x0 = np.full(problem.dim, 0.5)
    traced = solve(problem, cfg, x0=x0, metric_fn=lambda x: x.copy())
    plain = solve(problem, cfg, x0=x0)
    assert traced.termination == plain.termination == "tolerance-met"
    assert traced.outer_iters == plain.outer_iters
    assert np.array_equal(traced.x_final, plain.x_final)
    assert traced.residual_trace == plain.residual_trace
    assert plain.metric_trace == []
    xs = traced.metric_trace
    assert len(xs) == traced.outer_iters + 1
    assert np.array_equal(xs[0], x0) and np.array_equal(xs[-1],
                                                        traced.x_final)
    assert plain.residual_trace == [
        np.linalg.norm(x - x_old) / np.linalg.norm(x_old)
        for x_old, x in zip(xs, xs[1:])]
    assert traced.objective_trace == [objective(problem, x) for x in xs]
    assert plain.objective_trace == [objective(problem, x0),
                                     objective(problem, plain.x_final)]


def test_fixed_point_stays_fixed():
    # x* = (0.25, 0.25, 0.75, 0.75) solves the 4-pixel problem and y* is
    # its dual, 0 = grad f(x*) + B^T y*; every solver started from (x*, y*)
    # stays within 1e-8 for 100 iterations at any admissible steps
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    x_star = np.array([0.25, 0.25, 0.75, 0.75])
    y_star = np.array([0.25, 0.5, 0.25, 0.0])
    assert np.allclose(FOUR_PIXEL_B - x_star,
                       problem.stack.op.adjoint_apply(y_star))
    S = problem.stack.norm_sq_bound()
    for solve, cfg in [
            (solve_dfb, SolverConfig("dfb", gamma=0.5, lam=0.5 / S)),
            (solve_pdfb, SolverConfig("pdfb", gamma=0.5, tau=2.0,
                                      sigma=0.25 / S)),
            (solve_admm, SolverConfig("admm", rho=2.0))]:
        cfg = dataclasses.replace(cfg, max_outer=100, eps=1e-300)
        xs = capture_iterates(solve, problem, cfg, x0=x_star + 1e-10,
                              y0=y_star)
        assert all(np.linalg.norm(x - x_star) <= 1e-8 for x in xs), \
            cfg.algorithm


@pytest.mark.parametrize("algorithm", ["dfb", "pdfb", "admm"])
def test_non_finite_start_is_refused_at_entry(algorithm):
    # a NaN or inf start is the caller's error, not a divergence of the
    # iteration, and no arithmetic on it runs
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    cfg = SolverConfig(algorithm, max_outer=10)
    for start in ({"x0": [np.nan, 0, 0, 0]}, {"x0": [np.inf, 0, 0, 0]},
                  {"y0": [0, np.nan, 0, 0]}):
        with pytest.raises(ParameterError, match="start point has non-"):
            SOLVERS[algorithm](problem, cfg, **start)


@pytest.mark.parametrize("algorithm", ["dfb", "pdfb", "admm"])
def test_starts_stay_the_callers(algorithm):
    # a solve reads x0 and y0 and works on its own copies: neither changes,
    # and no iterate it reports is, or views, the caller's x0
    problem, *_ = shared_operator_problem([0.3, 0.7])
    start = warm_starts(53)[1]
    kept = {name: v.copy() for name, v in start.items()}
    seen = []
    rep = SOLVERS[algorithm](problem, SolverConfig(algorithm, max_outer=10),
                             metric_fn=lambda x: seen.append(x) or 0.0,
                             **start)
    for name, v in start.items():
        assert v.dtype == np.float64
        assert v.tobytes() == kept[name].tobytes()
    assert len(seen) == rep.outer_iters + 1
    assert not any(np.shares_memory(x, start["x0"])
                   for x in [rep.x_final] + seen)


def test_residual_uses_absolute_change_at_zero():
    # starting from the zero vector the first residual divides by ||x0|| = 0;
    # the absolute change is used instead, so no NaN appears
    problem = tv_denoise_problem(FOUR_PIXEL_B)
    rep = solve_dfb(problem, SolverConfig("dfb", max_outer=5, eps=1e-300))
    assert all(np.isfinite(r) for r in rep.residual_trace)


# ---------------------------------------------------- spectral step gates


class HalfSquaredNorm(prox.ProxTerm):
    """h(y) = (c/2) ||y||^2 with c >= 0; c = 0 is the zero function."""

    def __init__(self, dim, c):
        super().__init__(dim)
        self.c = c

    def _value(self, y):
        return 0.5 * self.c * float(y @ y)

    def _prox(self, u, t):
        return u / (1.0 + t * self.c)


def quadratic_problem(A, B, c):
    """f = 0.5||Ax||^2, g = 0 and one block h(Bx) = (c/2)||Bx||^2."""
    return CompositeProblem(
        quadratic_data_term(linops.dense(A), np.zeros(A.shape[0])),
        prox.ZeroTerm(A.shape[1]),
        BlockStack([(linops.dense(B), HalfSquaredNorm(B.shape[0], c))]))


# (A, B) of the quadratic problems: random ones, and B = sqrt(3) I on 5
# rows after an A with L = 1 and a null space, where dfb diverges at
# lam = 1.9/S.
_rng = np.random.default_rng(60)
QUADRATIC_PAIRS = {
    "random-3x4": (_rng.standard_normal((3, 4)), _rng.standard_normal((5, 4))),
    "random-6x4": (_rng.standard_normal((6, 4)), _rng.standard_normal((2, 4))),
    "sqrt3-identity": (np.eye(3, 4), np.sqrt(3.0) * np.eye(5, 4))}


def largest_accepted(problem, algorithm, name, **steps):
    """The largest value of the step ``name`` that validate_params accepts
    with the other ``steps`` fixed, by bisection to adjacent floats."""
    def accepts(value):
        try:
            validate_params(problem, SolverConfig(algorithm, **steps,
                                                  **{name: value}))
        except ParameterError:
            return False
        return True

    lo = hi = 1.0
    while not accepts(lo):
        lo /= 2.0
    while accepts(hi):
        hi *= 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    return lo


def spectral_radius(step, sizes):
    """Spectral radius of the linear map ``step`` on states split into
    vectors of ``sizes``, from its matrix built column by column."""
    cuts = np.cumsum(sizes)[:-1]
    columns = [np.concatenate(step(*np.split(e, cuts)))
               for e in np.eye(sum(sizes))]
    return np.abs(np.linalg.eigvals(np.array(columns).T)).max()


@pytest.mark.parametrize("c", [0.0, 1e-2, 1.0, 1e2, 1e6])
@pytest.mark.parametrize("pair", QUADRATIC_PAIRS)
def test_gates_admit_no_expanding_step(pair, c):
    # On these instances each solver's outer step is linear, so a step that
    # converges has spectral radius <= 1.  At 0.999 of each cap that
    # validate_params enforces, no solver's radius may exceed 1.
    A, B = QUADRATIC_PAIRS[pair]
    problem = quadratic_problem(A, B, c)
    n, m = A.shape[1], B.shape[0]
    radii = []
    for fraction in (0.5, 0.999):
        gamma = fraction * largest_accepted(problem, "dfb", "gamma")
        lam = 0.999 * largest_accepted(problem, "dfb", "lam", gamma=gamma)
        radii.append(spectral_radius(
            lambda x, y: dfb_fixed_point_step(problem, gamma, lam, x, y),
            (n, m)))
        gamma = fraction * largest_accepted(problem, "pdfb", "gamma")
        for tau in (0.1, 1.0, 10.0):
            sigma = 0.999 * largest_accepted(problem, "pdfb", "sigma",
                                             gamma=gamma, tau=tau)
            radii.append(spectral_radius(
                lambda x, y: pdfb_primal_dual_step(problem, gamma, sigma,
                                                   tau, x, y), (n, m)))
    for rho in (0.1, 1.0, 10.0):
        gamma = 0.999 * largest_accepted(problem, "admm", "gamma", rho=rho)

        def admm_step(x, y, v):
            x, ys, vs = linearized_admm_step(problem, gamma, rho, x, [y], [v])
            return x, ys[0], vs[0]

        radii.append(spectral_radius(admm_step, (n, m, m)))
    assert max(radii) <= 1.0 + 1e-9


def test_spectral_radius_shows_a_dfb_step_past_its_gate():
    # lam = 1.9/S, which a gate of lam < 2/S would admit, expands the
    # sqrt(3) I instance: its iterates grow like 2.21^k
    problem = quadratic_problem(*QUADRATIC_PAIRS["sqrt3-identity"], 1e6)
    gamma = 1.9 / problem.smooth.lipschitz
    lam = 1.9 / problem.stack.norm_sq_bound()
    radius = spectral_radius(
        lambda x, y: dfb_fixed_point_step(problem, gamma, lam, x, y), (4, 5))
    assert radius > 2.2
    with pytest.raises(ParameterError):
        validate_params(problem, SolverConfig("dfb", gamma=gamma, lam=lam))
