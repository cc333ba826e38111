"""Splitting solvers for min f(x) + g(x) + sum_i h_i(B_i x).

Three families:

* ``solve_dfb``  -- dual forward-backward: a gradient step on f, then dual
  ascent on the conjugates of the h_i, then a prox step on g.  With one
  inner iteration per outer step this is the primal-dual fixed point
  iteration.
* ``solve_pdfb`` -- primal-dual forward-backward: a gradient step on f,
  then alternating primal/dual prox steps.  With one inner iteration it is
  the Condat-Vu iteration after a change of variables.
* ``solve_admm`` -- alternating direction method of multipliers specialized
  to the prior-image-regularized reconstruction model, with a single
  gradient-projection step for the x-subproblem.

Step-size validation enforces the strict inequalities required for
convergence; every solve stops at the first iteration whose relative
change ||x+ - x|| / ||x|| drops below the configured tolerance.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DivergenceError, ParameterError
from .linops import safe_norm_sq
from .prox import prox_translated

__all__ = [
    "SmoothTerm", "CompositeProblem", "PiccsProblem",
    "SolverConfig", "SolveReport",
    "validate_params", "objective",
    "solve_dfb", "solve_pdfb", "solve_admm",
]


@dataclass(frozen=True)
class SmoothTerm:
    """Differentiable term: value, gradient, Lipschitz constant of grad."""
    value: callable
    gradient: callable
    lipschitz: float


def quadratic_data_term(A, b):
    """SmoothTerm for 0.5 ||Ax - b||^2 with gradient A^T(Ax - b).

    ``value`` and ``gradient`` share the residual Ax - b of the last point
    they saw (kept with a copy of that point and matched by content), so
    evaluating both at one x costs one product with A, not two.
    """
    b = np.asarray(b, dtype=float).ravel()
    if b.size != A.rows:
        raise DimensionError(f"b length {b.size} != operator rows {A.rows}")
    last = [None, None]         # [x, A x - b]

    def residual(x):
        x = np.asarray(x, dtype=float).ravel()
        if last[0] is None or not np.array_equal(x, last[0]):
            last[1] = A.apply(x) - b
            last[0] = x.copy()
        return last[1]

    def value(x):
        r = residual(x)
        return 0.5 * float(r @ r)

    def gradient(x):
        return A.adjoint_apply(residual(x))

    return SmoothTerm(value, gradient, safe_norm_sq(A))


@dataclass(frozen=True)
class CompositeProblem:
    """f (smooth) + g (simple prox) + stack of h_i(B_i x)."""
    smooth: SmoothTerm
    simple: object          # ProxTerm
    stack: object           # BlockStack

    def __post_init__(self):
        if self.simple.dim != self.stack.primal_dim:
            raise DimensionError(
                f"g dim {self.simple.dim} != stack primal dim "
                f"{self.stack.primal_dim}")

    @property
    def dim(self):
        return self.stack.primal_dim


@dataclass(frozen=True)
class PiccsProblem:
    """Explicit data for the regularized prior-image reconstruction model.

    minimize 0.5||Ax - b||^2 + lam1 phi1(D1(x - x_p)) + lam2 phi2(D2 x)
    subject to lo <= x <= hi, with phi1/phi2 given as ProxTerms.
    """
    A: object
    b: np.ndarray
    D1: object
    D2: object
    x_p: np.ndarray
    phi1: object
    phi2: object
    lam1: float
    lam2: float
    lo: float = 0.0
    hi: float = np.inf

    def objective(self, x):
        x = np.asarray(x, dtype=float).ravel()
        return _piccs_objective(
            self, x, self.A.apply(x) - self.b, self.D1.apply(x),
            self.D1.apply(self.x_p), self.D2.apply(x))


def _piccs_objective(p, x, r, d1x, d1xp, d2x):
    """PiccsProblem objective at x from the products r = Ax - b, D1 x,
    D1 x_p and D2 x."""
    if np.any(x < p.lo) or np.any(x > p.hi):
        return np.inf
    val = 0.5 * float(r @ r)
    if p.lam1 > 0:
        val += p.lam1 * p.phi1.value(d1x - d1xp)
    if p.lam2 > 0:
        val += p.lam2 * p.phi2.value(d2x)
    return val


ALGORITHMS = ("dfb", "pdfb", "admm")
MODES = ("strict-weak", "relaxed-finite")


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str
    gamma: float = None
    lam: float = None            # dual step (dfb)
    sigma: float = None          # dual step (pdfb)
    tau: float = None            # primal step (pdfb)
    rho1: float = None           # penalty (admm)
    rho2: float = None           # penalty (admm)
    inner_iters: int = 1
    max_outer: int = 10_000
    eps: float = 1e-8
    convergence_mode: str = "strict-weak"


@dataclass
class SolveReport:
    x_final: np.ndarray
    outer_iters: int
    objective_trace: list
    residual_trace: list
    termination: str                  # "tolerance-met" | "max-iters"
    metric_trace: list = field(default_factory=list)
    notes: str = ""


def validate_params(problem, config):
    """Check step sizes against the convergence bounds; fill defaults.

    Returns a resolved copy of ``config``.  Raises ParameterError naming
    the violated bound.
    """
    if config.algorithm not in ALGORITHMS:
        raise ParameterError(
            f"unknown algorithm {config.algorithm!r}; valid: {ALGORITHMS}")
    if config.convergence_mode not in MODES:
        raise ParameterError(
            f"unknown convergence_mode {config.convergence_mode!r}; "
            f"valid: {MODES}")
    if not config.eps > 0:
        raise ParameterError(f"eps must be positive, got {config.eps}")
    if config.inner_iters < 1 or config.max_outer < 1:
        raise ParameterError("inner_iters and max_outer must be >= 1")

    if config.algorithm == "admm":
        return _validate_admm(problem, config)

    L = problem.smooth.lipschitz
    S = problem.stack.norm_sq_bound()
    gamma = config.gamma
    if gamma is None:
        gamma = 1.9 / L if L > 0 else 1.0
    if L > 0 and not 0 < gamma < 2.0 / L:
        raise ParameterError(
            f"gamma={gamma} violates the smooth-step bound "
            f"gamma in (0, 2/L) with L={L}")
    if L == 0 and not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")

    if config.algorithm == "dfb":
        lam = config.lam
        if lam is None:
            lam = 0.9 / S
        cap = 2.0 / S if config.convergence_mode == "relaxed-finite" else 1.0 / S
        if not 0 < lam < cap:
            raise ParameterError(
                f"lambda={lam} violates the dual-step bound "
                f"lambda in (0, {cap}) for S={S} "
                f"({config.convergence_mode} mode)")
        return dataclasses.replace(config, gamma=gamma, lam=lam)

    # pdfb
    tau = config.tau if config.tau is not None else 1.0
    sigma = config.sigma
    if sigma is None:
        sigma = 0.9 / (tau * S)
    if not tau > 0 or not sigma > 0:
        raise ParameterError(
            f"sigma and tau must be positive, got sigma={sigma}, tau={tau}")
    if not sigma * tau < 1.0 / S:
        raise ParameterError(
            f"sigma*tau={sigma * tau} violates the strict product bound "
            f"sigma*tau < 1/S with S={S}")
    tau_p = tau * gamma / (1.0 + tau)
    sigma_p = sigma / gamma
    if not 1.0 / tau_p - sigma_p * S > L / 2.0:
        raise ParameterError(
            f"derived primal-dual balance 1/tau' - sigma'*S > L/2 fails: "
            f"tau'={tau_p}, sigma'={sigma_p}, S={S}, L={L}")
    return dataclasses.replace(config, gamma=gamma, sigma=sigma, tau=tau)


def _validate_admm(problem, config):
    rho1 = config.rho1 if config.rho1 is not None else 1.0
    rho2 = config.rho2 if config.rho2 is not None else 1.0
    if not rho1 > 0 or not rho2 > 0:
        raise ParameterError(
            f"penalties must be positive, got rho1={rho1}, rho2={rho2}")
    bound = (safe_norm_sq(problem.A)
             + rho1 * safe_norm_sq(problem.D1)
             + rho2 * safe_norm_sq(problem.D2))
    gamma = config.gamma
    if gamma is None:
        gamma = 1.9 / bound
    if not 0 < gamma < 2.0 / bound:
        raise ParameterError(
            f"gamma={gamma} violates the gradient-projection bound "
            f"gamma in (0, 2/(|A|^2 + rho1|D1|^2 + rho2|D2|^2)) = "
            f"(0, {2.0 / bound})")
    return dataclasses.replace(config, gamma=gamma, rho1=rho1, rho2=rho2)


def objective(problem, x):
    """f(x) + g(x) + sum_i h_i(B_i x); +inf if an indicator is violated."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != problem.dim:
        raise DimensionError(
            f"expected length {problem.dim}, got {x.size}")
    val = problem.smooth.value(x) + problem.simple.value(x)
    if not np.isfinite(val):
        return np.inf
    stack = problem.stack
    for (_, term), bx in zip(stack.blocks, stack.apply_blocks(x)):
        val += term.value(bx)
        if not np.isfinite(val):
            return np.inf
    return val


def _check_finite(x, k):
    if not np.all(np.isfinite(x)):
        raise DivergenceError(
            f"non-finite iterate at outer iteration {k}", iteration=k)


def _residual(x_new, x_old):
    denom = np.linalg.norm(x_old)
    change = np.linalg.norm(x_new - x_old)
    return change / denom if denom > 0 else change


def _init_duals(stack, y0):
    if y0 is None:
        return [np.zeros(op.rows) for op, _ in stack.blocks]
    ys = [np.asarray(y, dtype=float).ravel().copy() for y in y0]
    if len(ys) != stack.m:
        raise DimensionError(f"expected {stack.m} dual blocks, got {len(ys)}")
    return ys


def solve_dfb(problem, config, x0=None, y0=None, metric_fn=None):
    """Dual forward-backward splitting (weighted or unweighted stack)."""
    cfg = validate_params(problem, config)
    stack = problem.stack
    gamma, lam = cfg.gamma, cfg.lam
    x = (np.zeros(problem.dim) if x0 is None
         else np.asarray(x0, dtype=float).ravel().copy())
    ys = _init_duals(stack, y0)
    g = problem.simple

    obj_trace = [objective(problem, x)]
    res_trace = []
    metric_trace = [] if metric_fn is None else [metric_fn(x)]
    termination = "max-iters"
    k = 0
    # sum_i w_i B_i^T y_i of the current duals: the final step of one outer
    # iteration and the first inner step of the next use the same ys.
    bty = stack.combined_adjoint(ys)
    for k in range(1, cfg.max_outer + 1):
        u = x - gamma * problem.smooth.gradient(x)
        for _ in range(cfg.inner_iters):
            v = g.prox(u - gamma * bty, gamma)
            args = [y + (lam / gamma) * bv
                    for y, bv in zip(ys, stack.apply_blocks(v))]
            ys = stack.stacked_conjugate_prox(args, lam / gamma)
            bty = stack.combined_adjoint(ys)
        x_new = g.prox(u - gamma * bty, gamma)
        _check_finite(x_new, k)
        res = _residual(x_new, x)
        x = x_new
        res_trace.append(res)
        obj_trace.append(objective(problem, x))
        if metric_fn is not None:
            metric_trace.append(metric_fn(x))
        if res < cfg.eps:
            termination = "tolerance-met"
            break
    notes = ("finite-dimensional convergence only"
             if cfg.convergence_mode == "relaxed-finite" else "")
    return SolveReport(x, k, obj_trace, res_trace, termination,
                       metric_trace, notes)


def solve_pdfb(problem, config, x0=None, y0=None, xbar0=None, metric_fn=None):
    """Primal-dual forward-backward splitting."""
    cfg = validate_params(problem, config)
    stack = problem.stack
    gamma, sigma, tau = cfg.gamma, cfg.sigma, cfg.tau
    x = (np.zeros(problem.dim) if x0 is None
         else np.asarray(x0, dtype=float).ravel().copy())
    xbar = x.copy() if xbar0 is None else np.asarray(
        xbar0, dtype=float).ravel().copy()
    ys = _init_duals(stack, y0)
    g = problem.simple
    step_g = tau * gamma / (1.0 + tau)

    obj_trace = [objective(problem, x)]
    res_trace = []
    metric_trace = [] if metric_fn is None else [metric_fn(x)]
    termination = "max-iters"
    k = 0
    for k in range(1, cfg.max_outer + 1):
        u = x - gamma * problem.smooth.gradient(x)
        for _ in range(cfg.inner_iters):
            arg = (xbar - tau * stack.combined_adjoint(ys) + tau * u) \
                / (1.0 + tau)
            xbar_new = g.prox(arg, step_g)
            z = 2.0 * xbar_new - xbar
            args = [(y + sigma * bz) / gamma
                    for y, bz in zip(ys, stack.apply_blocks(z))]
            ys = [gamma * yi
                  for yi in stack.stacked_conjugate_prox(args, sigma / gamma)]
            xbar = xbar_new
        _check_finite(xbar, k)
        res = _residual(xbar, x)
        x = xbar.copy()
        res_trace.append(res)
        obj_trace.append(objective(problem, x))
        if metric_fn is not None:
            metric_trace.append(metric_fn(x))
        if res < cfg.eps:
            termination = "tolerance-met"
            break
    return SolveReport(x, k, obj_trace, res_trace, termination, metric_trace)


def solve_admm(problem, config, x0=None, y0=None, v0=None, metric_fn=None):
    """ADMM on a :class:`PiccsProblem` with a one-step gradient-projection
    x-update."""
    cfg = validate_params(problem, config)
    A, D1, D2 = problem.A, problem.D1, problem.D2
    b = np.asarray(problem.b, dtype=float).ravel()
    gamma, rho1, rho2 = cfg.gamma, cfg.rho1, cfg.rho2
    n = A.cols
    x = (np.zeros(n) if x0 is None
         else np.asarray(x0, dtype=float).ravel().copy())
    if y0 is None:
        y1, y2 = np.zeros(D1.rows), np.zeros(D2.rows)
    else:
        y1, y2 = (np.asarray(y, dtype=float).ravel().copy() for y in y0)
    if v0 is None:
        v1, v2 = np.zeros(D1.rows), np.zeros(D2.rows)
    else:
        v1, v2 = (np.asarray(v, dtype=float).ravel().copy() for v in v0)
    shared = D1 is D2
    d1xp = D1.apply(problem.x_p)
    # Products at the current x, reused by the objective and the next
    # gradient: r = Ax - b, D1 x and D2 x.
    r = A.apply(x) - b
    d1x = D1.apply(x)
    d2x = d1x if shared else D2.apply(x)

    obj_trace = [_piccs_objective(problem, x, r, d1x, d1xp, d2x)]
    res_trace = []
    metric_trace = [] if metric_fn is None else [metric_fn(x)]
    termination = "max-iters"
    k = 0
    for k in range(1, cfg.max_outer + 1):
        grad = A.adjoint_apply(r)
        if shared:
            grad += D1.adjoint_apply(rho1 * (d1x - y1 + v1)
                                     + rho2 * (d2x - y2 + v2))
        else:
            grad += rho1 * D1.adjoint_apply(d1x - y1 + v1)
            grad += rho2 * D2.adjoint_apply(d2x - y2 + v2)
        x_new = np.clip(x - gamma * grad, problem.lo, problem.hi)
        _check_finite(x_new, k)
        d1x = D1.apply(x_new)
        d2x = d1x if shared else D2.apply(x_new)
        if problem.lam1 > 0:
            y1 = prox_translated(problem.phi1, d1xp, d1x + v1,
                                 problem.lam1 / rho1)
        else:
            y1 = d1x + v1
        if problem.lam2 > 0:
            y2 = problem.phi2.prox(d2x + v2, problem.lam2 / rho2)
        else:
            y2 = d2x + v2
        v1 = v1 + d1x - y1
        v2 = v2 + d2x - y2
        res = _residual(x_new, x)
        x = x_new
        r = A.apply(x) - b
        res_trace.append(res)
        obj_trace.append(_piccs_objective(problem, x, r, d1x, d1xp, d2x))
        if metric_fn is not None:
            metric_trace.append(metric_fn(x))
        if res < cfg.eps:
            termination = "tolerance-met"
            break
    return SolveReport(x, k, obj_trace, res_trace, termination, metric_trace)
