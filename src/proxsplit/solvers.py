"""Splitting solvers for min f(x) + g(x) + sum_i h_i(B_i x).

Three families, all on a :class:`CompositeProblem`:

* ``solve_dfb``  -- dual forward-backward: a gradient step on f, then dual
  ascent on the conjugates of the h_i, then a prox step on g.  With one
  inner iteration per outer step this is the primal-dual fixed point
  iteration.
* ``solve_pdfb`` -- primal-dual forward-backward: a gradient step on f,
  then alternating primal/dual prox steps.  With one inner iteration it is
  the Condat-Vu iteration after a change of variables.
* ``solve_admm`` -- linearized ADMM: one split variable y_i = B_i x per
  block with penalty rho (rho * w_i on a weighted stack), and a single
  gradient step on f plus the augmented terms, then the prox of g, for the
  x-update.

Step-size validation enforces the strict inequalities required for
convergence.  One driver runs every solver: it keeps the objective,
residual and metric traces, stops on a non-finite iterate, and stops at the
first iteration whose relative change ||x+ - x|| / ||x|| drops below the
configured tolerance.  The iterations need no objective value, so the
driver evaluates the objective at every iterate only when a ``metric_fn``
is traced; otherwise at the start point and the returned iterate alone.

A dual is one vector of the stack's product space, its blocks in stack
order.  dfb and pdfb carry it divided by its dual step, as Chambolle & Pock
(2011) and Condat (2013) write them, so no dual step rescales a full-length
vector; their ``y0`` is taken unscaled.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionError, DivergenceError, ParameterError,
                     as_vector, check_count, check_real)
from .linops import safe_norm_sq

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

    def __post_init__(self):
        check_real("lipschitz", self.lipschitz, positive=False)


def quadratic_data_term(A, b):
    """SmoothTerm for 0.5 ||Ax - b||^2 with gradient A^T(Ax - b).

    ``value`` and ``gradient`` share the residual Ax - b of the last point
    they saw (kept with a copy of that point and matched by content), so
    evaluating both at one x costs one product with A, not two.
    """
    b = as_vector(b, A.rows, "b", finite=True)
    last = [None, None]         # [x, A x - b]

    def residual(x):
        x = as_vector(x)
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
        if self.simple.dim != self.stack.op.cols:
            raise DimensionError(
                f"g dim {self.simple.dim} != stack primal dim "
                f"{self.stack.op.cols}")

    @property
    def dim(self):
        return self.stack.op.cols


@dataclass(frozen=True)
class PiccsProblem:
    """Explicit data for the regularized prior-image reconstruction model.

    minimize 0.5||Ax - b||^2 + lam1 phi1(D1(x - x_p)) + lam2 phi2(D2 x)
    subject to lo <= x <= hi, with phi1/phi2 given as ProxTerms.  A record
    of the model's parts only; the solvers take the same model as a
    :class:`CompositeProblem`.
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


# The SolverConfig fields each algorithm reads, besides max_outer and eps.
OPTIONS = {"dfb": ("gamma", "lam", "inner_iters"),
           "pdfb": ("gamma", "sigma", "tau", "inner_iters"),
           "admm": ("gamma", "rho")}


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str
    gamma: float = None
    lam: float = None            # dual step (dfb)
    sigma: float = None          # dual step (pdfb)
    tau: float = None            # primal step (pdfb)
    rho: float = 1.0             # penalty (admm)
    inner_iters: int = 1
    max_outer: int = 10_000
    eps: float = 1e-8

    def __post_init__(self):
        """Reject values no problem admits; validate_params checks bounds."""
        if not isinstance(self.algorithm, str) \
                or self.algorithm not in OPTIONS:
            raise ParameterError(f"unknown algorithm {self.algorithm!r}; "
                                 f"valid: {tuple(OPTIONS)}")
        reads = ("algorithm", "max_outer", "eps") + OPTIONS[self.algorithm]
        unread = [f.name for f in dataclasses.fields(self) if f.name not in
                  reads and getattr(self, f.name) != f.default]
        if unread:
            raise ParameterError(f"{self.algorithm} does not read {unread}")
        for name in ("inner_iters", "max_outer"):
            check_count(name, getattr(self, name))
        for name in ("eps", "rho", "gamma", "lam", "sigma", "tau"):
            if getattr(self, name) is not None or name in ("eps", "rho"):
                check_real(name, getattr(self, name))


@dataclass
class SolveReport:
    """What a solve did.

    ``residual_trace[k-1]`` is the relative change of outer iteration k.
    With a ``metric_fn``, ``objective_trace`` and ``metric_trace`` hold one
    entry per iterate, the start point first; without one,
    ``objective_trace`` is ``[f(x0), f(x_final)]`` and ``metric_trace`` is
    empty.
    """
    x_final: np.ndarray
    outer_iters: int
    objective_trace: list
    residual_trace: list
    termination: str                  # "tolerance-met" | "max-iters"
    metric_trace: list = field(default_factory=list)


def validate_params(problem, config):
    """Check step sizes against the convergence bounds; fill defaults.

    Returns a resolved copy of ``config``.  Raises ParameterError naming
    the violated bound.  Checks that need no problem (names, eps, iteration
    counts, signs) are made when the SolverConfig is built.  S bounds
    ||B||^2, the squared norm of the stack into its weighted product space.

    dfb with one inner step is PDFP2O (Chen, Huang & Zhang 2013), which
    converges when gamma < 2/L and lam <= 1/lambda_max(B B^T); the gate
    is gamma < 2/L and lam < 1/S, and lam's default is 0.9/S.

    pdfb with one inner step is the Condat-Vu iteration with primal step
    tau' = tau gamma/(1 + tau) and dual step sigma' = sigma/gamma, which
    converges when 1/tau' - sigma' S > L/2, i.e. when
    sigma tau S < 1 + tau (1 - gamma L/2).  Under gamma < 2/L the right
    side exceeds 1, so the gate gamma < 2/L and sigma tau < 1/S implies it.

    Linearized ADMM with duals u_i = rho_i v_i is the Condat-Vu iteration
    (Condat 2013, Algorithm 3.2; Vu 2013) with primal step gamma and dual
    steps rho_i = rho * w_i, which converges when
    gamma (L/2 + sum_i rho_i ||B_i||^2) < 1, i.e. gamma < 2/(L + 2 rho S);
    its default is 1.9/(L + 2 rho S).
    """
    L = problem.smooth.lipschitz
    S = problem.stack.norm_sq_bound()
    gamma = config.gamma

    if config.algorithm == "admm":
        rho = config.rho
        bound = L + 2.0 * rho * S
        if not bound > 0:
            raise ParameterError(
                f"the linearized-ADMM bound L + 2*rho*S is {bound}: gamma "
                f"has no finite cap with L={L}, S={S}")
        if gamma is None:
            gamma = 1.9 / bound
        if not gamma < 2.0 / bound:
            raise ParameterError(
                f"gamma={gamma} violates the Condat-Vu bound "
                f"gamma in (0, 2/(L + 2*rho*S)) = (0, {2.0 / bound}) "
                f"with L={L}, S={S}, rho={rho}")
        return dataclasses.replace(config, gamma=gamma)

    if not S > 0:
        raise ParameterError(
            f"stack norm bound S={S}: every B_i is zero, so the dual step "
            f"has no finite cap")
    if gamma is None:
        gamma = 1.9 / L if L > 0 else 1.0
    if L > 0 and not gamma < 2.0 / L:
        raise ParameterError(
            f"gamma={gamma} violates the smooth-step bound "
            f"gamma in (0, 2/L) with L={L}")

    if config.algorithm == "dfb":
        lam = config.lam
        if lam is None:
            lam = 0.9 / S
        if not lam < 1.0 / S:
            raise ParameterError(
                f"lambda={lam} violates the dual-step bound "
                f"lambda in (0, {1.0 / S}) for S={S}")
        return dataclasses.replace(config, gamma=gamma, lam=lam)

    # pdfb
    tau = config.tau if config.tau is not None else 1.0
    sigma = config.sigma
    if sigma is None:
        sigma = 0.9 / (tau * S)
    if not sigma * tau < 1.0 / S:
        raise ParameterError(
            f"sigma*tau={sigma * tau} violates the strict product bound "
            f"sigma*tau < 1/S with S={S}")
    return dataclasses.replace(config, gamma=gamma, sigma=sigma, tau=tau)


def objective(problem, x):
    """f(x) + g(x) + sum_i h_i(B_i x); +inf if an indicator is violated."""
    x = as_vector(x, problem.dim)
    return _objective(problem, x, problem.stack.op.apply(x))


def _objective(problem, x, bx):
    """The objective at x given the product bx = B x."""
    val = (problem.smooth.value(x) + problem.simple.value(x)
           + problem.stack.value(bx))
    return val if np.isfinite(val) else np.inf


def _check_finite(x, k):
    if not np.all(np.isfinite(x)):
        raise DivergenceError(
            f"non-finite iterate at outer iteration {k}", iteration=k)


def _residual(x_new, x_old):
    """||x_new - x_old|| / ||x_old|| (the absolute change when x_old = 0),
    as a Python float; not finite whenever the change norm is not."""
    denom = np.linalg.norm(x_old)
    change = np.linalg.norm(x_new - x_old)
    return float(change / denom if denom > 0 else change)


def _start(v, size, scale=1.0):
    """A private copy of a starting vector divided by ``scale``; zeros when
    none is given."""
    if v is None:
        return np.zeros(size)
    return as_vector(v, size, "start point") / scale


def _validate(problem, config, algorithm):
    """validate_params for the solver of ``algorithm``, which must be the
    one the config names."""
    if config.algorithm != algorithm:
        raise ParameterError(
            f"solve_{algorithm} got a config for {config.algorithm!r}")
    return validate_params(problem, config)


def _iterate(cfg, iterates, metric_fn):
    """Run a solver's iterates to the stopping rule and report.

    ``iterates`` yields ``(x, objective_at_x)``, where ``objective_at_x()``
    evaluates the objective at x: the starting point first, then one pair
    per outer iteration.  The objective is evaluated at every iterate when
    ``metric_fn`` traces one, else only at the start and the returned
    iterate, since the stopping rule does not read it.  An iterate is
    checked for non-finite entries only when its change is not finite:
    the previous iterate is finite, so a non-finite one always shows there.
    """
    x, objective_at_x = next(iterates)
    obj_trace, res_trace = [objective_at_x()], []
    metric_trace = [] if metric_fn is None else [metric_fn(x)]
    termination = "max-iters"
    k = 0
    for k in range(1, cfg.max_outer + 1):
        x_new, objective_at_x = next(iterates)
        res = _residual(x_new, x)
        if not np.isfinite(res):
            _check_finite(x_new, k)
        x = x_new
        res_trace.append(res)
        if metric_fn is not None:
            obj_trace.append(objective_at_x())
            metric_trace.append(metric_fn(x))
        if res < cfg.eps:
            termination = "tolerance-met"
            break
    if metric_fn is None:
        obj_trace.append(objective_at_x())
    return SolveReport(x, k, obj_trace, res_trace, termination,
                       metric_trace)


def solve_dfb(problem, config, x0=None, y0=None, metric_fn=None):
    """Dual forward-backward splitting (weighted or unweighted stack).

    With t = lam / gamma, the dual y is carried as z = y / t; an outer step
    sets u = x - gamma grad f(x), makes ``inner_iters`` steps

        v   = prox_{gamma g}(u - lam B^T (w * z))
        s   = z + B v
        z_i = s_i - prox_{h_i / (t w_i)}(s_i)    for each block i

    (the last is y+ = prox_{t h*}(y + t B v) by Moreau's identity), and
    ends with x+ = prox_{gamma g}(u - lam B^T (w * z)).  ``y0`` is one
    vector of length ``stack.dual_dim``, given unscaled.
    """
    cfg = _validate(problem, config, "dfb")
    stack, g = problem.stack, problem.simple
    gamma, lam = cfg.gamma, cfg.lam
    t = lam / gamma

    def iterates(x, z):
        yield x, lambda x=x: objective(problem, x)
        # B^T (w * z) of the current dual: the final step of one outer
        # iteration and the first inner step of the next use the same z.
        btz = stack.combined_adjoint(z)
        while True:
            u = x - gamma * problem.smooth.gradient(x)
            for _ in range(cfg.inner_iters):
                v = g.prox(u - lam * btz, gamma)
                s = z + stack.op.apply(v)
                z = s - stack.stacked_prox(s, 1.0 / t)
                btz = stack.combined_adjoint(z)
            x = g.prox(u - lam * btz, gamma)
            yield x, lambda x=x: objective(problem, x)

    return _iterate(cfg, iterates(_start(x0, problem.dim),
                                  _start(y0, stack.dual_dim, t)), metric_fn)


def solve_pdfb(problem, config, x0=None, y0=None, metric_fn=None):
    """Primal-dual forward-backward splitting.

    The dual y is carried as z = y / sigma; an outer step sets
    u = x - gamma grad f(x) and makes ``inner_iters`` steps

        x+  = prox_{tau gamma g / (1 + tau)}((x - tau sigma B^T (w * z)
                  + tau u) / (1 + tau))
        s   = z + B (2 x+ - x)
        z_i = s_i - prox_{gamma h_i / (sigma w_i)}(s_i)    for each block i

    (the last is y+ = gamma prox_{(sigma/gamma) h*}((y + sigma B (2 x+ - x))
    / gamma) by Moreau's identity applied to gamma h).  ``y0`` is one
    vector of length ``stack.dual_dim``, given unscaled.
    """
    cfg = _validate(problem, config, "pdfb")
    stack, g = problem.stack, problem.simple
    gamma, sigma, tau = cfg.gamma, cfg.sigma, cfg.tau
    step_g = tau * gamma / (1.0 + tau)

    def iterates(x, z):
        yield x, lambda x=x: objective(problem, x)
        while True:
            u = x - gamma * problem.smooth.gradient(x)
            for _ in range(cfg.inner_iters):
                arg = (x - (tau * sigma) * stack.combined_adjoint(z)
                       + tau * u) / (1.0 + tau)
                x_new = g.prox(arg, step_g)
                s = z + stack.op.apply(2.0 * x_new - x)
                z = s - stack.stacked_prox(s, gamma / sigma)
                x = x_new
            yield x, lambda x=x: objective(problem, x)

    return _iterate(cfg, iterates(_start(x0, problem.dim),
                                  _start(y0, stack.dual_dim, sigma)),
                  metric_fn)


def solve_admm(problem, config, x0=None, y0=None, v0=None, metric_fn=None):
    """Linearized ADMM with scaled dual v for the split y = B x.

    Block i carries the penalty rho_i = rho * w_i (rho when unweighted):

        x+  = prox_{gamma g}(x - gamma (grad f(x)
                             + rho B^T (w * (B x - y + v))))
        y_i = prox_{h_i / rho_i}(B_i x+ + v_i)    for each block i
        v   = v + B x+ - y

    ``y0`` and ``v0`` are each one vector of length ``stack.dual_dim``.
    """
    cfg = _validate(problem, config, "admm")
    stack, g = problem.stack, problem.simple
    gamma, rho = cfg.gamma, cfg.rho

    def iterates(x, y, v):
        # B x of the current iterate, shared by the objective, the next
        # x-step and the y- and v-steps.
        bx = stack.op.apply(x)
        yield x, lambda x=x, bx=bx: _objective(problem, x, bx)
        while True:
            grad = (problem.smooth.gradient(x)
                    + rho * stack.combined_adjoint(bx - y + v))
            x = g.prox(x - gamma * grad, gamma)
            bx = stack.op.apply(x)
            s = v + bx
            y = stack.stacked_prox(s, 1.0 / rho)
            v = s - y
            yield x, lambda x=x, bx=bx: _objective(problem, x, bx)

    return _iterate(cfg, iterates(_start(x0, problem.dim),
                                  _start(y0, stack.dual_dim),
                                  _start(v0, stack.dual_dim)), metric_fn)
