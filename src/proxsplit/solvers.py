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
convergence.  Each solver is its recurrence and its dual step; one driver
runs them all.  It validates the config, makes the starts, keeps the
objective, residual and metric traces, stops on a non-finite iterate, and
stops at the first iteration whose relative change ||x+ - x|| / ||x||
drops below the configured tolerance.  The iterations need no objective
value, so the driver evaluates the objective at every iterate only when a
``metric_fn`` is traced; otherwise at the start point and the returned
iterate alone.

A dual is one vector y of the stack's product space, its blocks in stack
order, scaled as Condat (2013) writes it: 0 in grad f(x) + dg(x) +
B^T (w * y) at a solution.  Every solver's ``y0`` is this y.  A solver
carries z = y / t for its dual step t (lam/gamma in dfb, sigma/gamma in
pdfb, rho in ADMM), so the driver divides ``y0`` by t once.  Only a
balanced step (below) rescales z afterwards, and only when t changes.

Steps the caller leaves unset in dfb and pdfb are balanced while the solve
runs; steps the caller sets stay fixed.  The balance is residual balancing
(Goldstein, Li, Yuan, Esser & Baraniuk 2013, 2015): after each outer step
it compares the relative primal and dual residuals and, when one exceeds
1.5 times the other, moves the primal step by a factor 1 - alpha, keeping
the product of the primal and dual steps at its gate.  alpha starts at 0.5
and shrinks by 0.95 at each change, and balancing ends once alpha < 1e-3,
so the steps change at most 122 times, each time to steps inside the gate
that validate_params enforces.  After the last change the solve is the
fixed-step iteration, PDFP2O (Chen, Huang & Zhang 2013) for dfb and
Condat-Vu (Condat 2013) for pdfb, from the point the balance reached, and
the theorems for those iterations give its convergence.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionError, DivergenceError, ParameterError,
                     as_vector, check_count, check_real)
from .linops import safe_norm_sq

__all__ = [
    "SmoothTerm", "quadratic_data_term", "CompositeProblem", "PiccsProblem",
    "SolverConfig", "SolveReport", "validate_params", "objective",
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
    empty.  ``config`` is the validated config with the steps that made
    ``x_final``: the caller's, or where dfb or pdfb balanced them, the
    balanced steps of the last iteration.
    """
    x_final: np.ndarray
    outer_iters: int
    objective_trace: list
    residual_trace: list
    termination: str                  # "tolerance-met" | "max-iters"
    config: SolverConfig
    metric_trace: list = field(default_factory=list)


def validate_params(problem, config):
    """Check step sizes against the convergence bounds; fill defaults.

    Returns a resolved copy of ``config``.  Raises ParameterError naming
    the algorithm, the violated bound and its value.  Checks that need no
    problem (names, eps, iteration counts, signs) are made when the
    SolverConfig is built.  S bounds ||B||^2, the squared norm of the stack
    into its weighted product space.  Two rules gate all three solvers:

    * gradient step: gamma < 2/B, default 1.9/B, where B is L for dfb and
      pdfb and L + 2 rho S for ADMM; when B = 0, gamma has no cap and
      defaults to 1;
    * step product: P < 1/S, default 0.99/S, where P is lam for dfb and
      sigma tau for pdfb, whose tau defaults to 1 and sigma to 0.99/(tau S);
      ADMM has none.

    With no finite cap on any step, that is S = 0, or for ADMM B = 0, the
    config is refused.  Each solver's theorem, for one inner step:

    * dfb, PDFP2O (Chen, Huang & Zhang 2013): gamma < 2/L and
      lam <= 1/lambda_max(B B^T).
    * pdfb, Condat-Vu (Condat 2013) with tau' = tau gamma/(1 + tau) and
      sigma' = sigma/gamma: 1/tau' - sigma' S > L/2.
    * ADMM, Condat-Vu (Condat 2013, Algorithm 3.2; Vu 2013) with primal
      step gamma and dual steps rho_i = rho w_i:
      gamma (L/2 + sum_i rho_i ||B_i||^2) < 1.

    pdfb's condition reads sigma tau S < 1 + tau (1 - gamma L/2), whose
    right side exceeds 1 under gamma < 2/L, so sigma tau < 1/S implies it.
    """
    L = problem.smooth.lipschitz
    S = problem.stack.norm_sq_bound()
    algo, admm = config.algorithm, config.algorithm == "admm"
    B = L + 2.0 * config.rho * S if admm else L
    b_rule = "L + 2*rho*S" if admm else "L"
    if not (B if admm else S) > 0:
        raise ParameterError(
            f"{algo}: {b_rule if admm else 'S'} = {B if admm else S} with "
            f"L={L}, S={S}, so no step has a finite cap")
    gamma = config.gamma
    if gamma is None:
        gamma = 1.9 / B if B > 0 else 1.0
    if B > 0 and not gamma < 2.0 / B:
        raise ParameterError(
            f"{algo}: gamma={gamma} violates gamma < 2/B = {2.0 / B} with "
            f"B = {b_rule} = {B}")
    steps = {"gamma": gamma}
    if algo == "dfb":
        product = steps["lam"] = 0.99 / S if config.lam is None else config.lam
    elif algo == "pdfb":
        tau = 1.0 if config.tau is None else config.tau
        sigma = 0.99 / (tau * S) if config.sigma is None else config.sigma
        steps.update(sigma=sigma, tau=tau)
        product = sigma * tau
    if not admm and not product < 1.0 / S:
        p_rule = "lam" if algo == "dfb" else "sigma*tau"
        raise ParameterError(
            f"{algo}: {p_rule}={product} violates {p_rule} < 1/S = {1.0 / S} "
            f"with S={S}")
    return dataclasses.replace(config, **steps)


def objective(problem, x):
    """f(x) + g(x) + sum_i h_i(B_i x); +inf if an indicator is violated."""
    x = as_vector(x, problem.dim)
    return _objective(problem, x, problem.stack.op.apply(x))


def _objective(problem, x, bx):
    """The objective at x given the product bx = B x."""
    val = (problem.smooth.value(x) + problem.simple.value(x)
           + problem.stack.value(bx))
    return val if np.isfinite(val) else np.inf


def _relative(v, scale):
    """||v|| / scale (||v|| itself when scale is 0) as a Python float; not
    finite whenever ||v|| is not."""
    size = np.linalg.norm(v)
    return float(size / scale if scale > 0 else size)


class _Balance:
    """Residual balancing of a primal step p in (0, cap] against its dual
    step t, in Condat's variables (see the module docstring).

    ``step`` reads the outer step just made, from the arguments of its
    last proxes.  Its x is prox_{p g}(arg), so (arg - x)/p is in dg(x) and
    the primal residual is (arg - x)/p + grad f(x) + B^T (w * y), taken
    relative to max(||grad f(x)||, ||B^T (w * y)||).  Its dual step left
    q = (y_prev - y)/t + B xbar, the point its proxes returned, where xbar
    is the point the dual step read, and the dual residual is q - b, taken
    relative to ||B x||, where b is B x (pdfb) or the B v of the step
    before (dfb, which never forms B x).  With y_prev, x_prev and the
    gradient and dual that the x-step read, these are

        (x_prev - x)/p - B^T (w * (y_prev - y)) - (grad f(x_prev) - grad f(x))
        (y_prev - y)/t - B (x_prev - x)

    for pdfb, and for dfb the same without the B^T term (its x-step reads
    the updated dual) and with v in place of x in the second.
    """

    def __init__(self, cap, on):
        self.cap = cap
        self.alpha = 0.5 if on else 0.0

    @property
    def on(self):
        """Whether p may still change; once it may not, no residual is
        formed."""
        return self.alpha >= 1e-3

    def step(self, p, x, arg, grad, bty, q, b, bx):
        """The primal step of the next outer step."""
        primal = arg - x
        primal /= p
        primal += grad
        primal += bty
        rp = _relative(primal, max(np.linalg.norm(grad), np.linalg.norm(bty)))
        rd = _relative(q - b, np.linalg.norm(bx))
        if rp > 1.5 * rd:
            new = min(p / (1.0 - self.alpha), self.cap)
        elif rp < rd / 1.5:
            new = p * (1.0 - self.alpha)
        else:
            return p
        if new != p:
            self.alpha *= 0.95
        return new


def _solve(problem, config, algorithm, dual_step, iterates, x0, y0,
           metric_fn):
    """Run the solver of ``algorithm`` from (x0, y0) to the stopping rule
    and report.

    The config must name ``algorithm``; it is checked by validate_params.
    ``iterates(cfg, x, z)`` starts from private copies of x0 and of
    z = y0 / dual_step(cfg), zeros when not given, and yields its state
    ``(x, bx, cfg)`` by reference: the start first, then one per outer
    iteration, with bx = B x when the solver made it, else None, and cfg
    the validated config with the steps that made x.  The objective is
    evaluated at every iterate when ``metric_fn`` traces one, else only at
    the start and the returned iterate, since the stopping rule does not
    read it.  An iterate is checked for non-finite entries only when its
    change is not finite: the previous iterate is finite, so a non-finite
    one always shows there.
    """
    if config.algorithm != algorithm:
        raise ParameterError(
            f"solve_{algorithm} got a config for {config.algorithm!r}")
    cfg = validate_params(problem, config)
    x, z = (np.zeros(size) if v is None
            else as_vector(v, size, "start point", finite=True) / scale
            for v, size, scale in ((x0, problem.dim, 1.0),
                                   (y0, problem.stack.op.rows,
                                    dual_step(cfg))))

    def objective_at(x, bx):
        return objective(problem, x) if bx is None \
            else _objective(problem, x, bx)

    states = iterates(cfg, x, z)
    x, bx, used = next(states)
    obj_trace, res_trace = [objective_at(x, bx)], []
    metric_trace = [] if metric_fn is None else [metric_fn(x)]
    termination = "max-iters"
    k = 0
    for k in range(1, cfg.max_outer + 1):
        x_new, bx, used = next(states)
        res = _relative(x_new - x, np.linalg.norm(x))
        if not np.isfinite(res) and not np.isfinite(x_new).all():
            raise DivergenceError(
                f"non-finite iterate at outer iteration {k}", iteration=k)
        x = x_new
        res_trace.append(res)
        if metric_fn is not None:
            obj_trace.append(objective_at(x, bx))
            metric_trace.append(metric_fn(x))
        if res < cfg.eps:
            termination = "tolerance-met"
            break
    if metric_fn is None:
        obj_trace.append(objective_at(x, bx))
    return SolveReport(x, k, obj_trace, res_trace, termination, used,
                       metric_trace)


def solve_dfb(problem, config, x0=None, y0=None, metric_fn=None):
    """Dual forward-backward splitting (weighted or unweighted stack).

    With t = lam / gamma, the dual y is carried as z = y / t; an outer step
    sets u = x - gamma grad f(x), makes ``inner_iters`` steps

        v   = prox_{gamma g}(u - lam B^T (w * z))
        s   = z + B v
        z_i = s_i - prox_{h_i / (t w_i)}(s_i)    for each block i

    (the last is y+ = prox_{t h*}(y + t B v) by Moreau's identity), and
    ends with x+ = prox_{gamma g}(u - lam B^T (w * z)).

    An unset gamma is balanced in (0, 1.9/L], from 1.9/L, with lam fixed,
    so t moves against it.  The x-step reads the updated dual, and the
    dual residual reads B v, of the last inner step, in place of B x,
    which dfb never forms.
    """
    stack, g = problem.stack, problem.simple

    def iterates(cfg, x, z):
        gamma, lam = cfg.gamma, cfg.lam
        t = lam / gamma
        cap = gamma if problem.smooth.lipschitz > 0 else np.inf
        rule = _Balance(cap, on=config.gamma is None)
        # B^T (w * z) of the current dual: the final step of one outer
        # iteration and the first inner step of the next use the same z.
        btz = stack.combined_adjoint(z)
        bv = bv_prev = None
        while True:
            yield x, None, cfg
            grad = problem.smooth.gradient(x)
            if rule.on and bv_prev is not None:
                new = rule.step(gamma, x, arg, grad, t * btz, q, bv_prev, bv)
                if new != gamma:
                    # y = t z stays: z scales by t / t+ = gamma+ / gamma
                    z, btz = z * (new / gamma), btz * (new / gamma)
                    gamma, t = new, lam / new
                    cfg = dataclasses.replace(cfg, gamma=gamma)
            u = x - gamma * grad
            bv_prev = bv
            for _ in range(cfg.inner_iters):
                v = g.prox(u - lam * btz, gamma)
                bv = stack.op.apply(v)
                s = z + bv
                q = stack.stacked_prox(s, 1.0 / t)
                z = s - q
                btz = stack.combined_adjoint(z)
            arg = u - lam * btz
            x = g.prox(arg, gamma)

    return _solve(problem, config, "dfb", lambda cfg: cfg.lam / cfg.gamma,
                  iterates, x0, y0, metric_fn)


def solve_pdfb(problem, config, x0=None, y0=None, metric_fn=None):
    """Primal-dual forward-backward splitting.

    With sigma' = sigma / gamma, the dual y is carried as z = y / sigma';
    an outer step sets u = x - gamma grad f(x) and makes ``inner_iters`` steps

        x+  = prox_{tau gamma g / (1 + tau)}((x - tau gamma B^T (w * y)
                  + tau u) / (1 + tau))
        s   = z + 2 B x+ - B x
        z_i = s_i - prox_{h_i / (sigma' w_i)}(s_i)    for each block i

    (the last is y+ = prox_{sigma' h*}(y + sigma' B (2 x+ - x)) by
    Moreau's identity, the Condat-Vu dual step).

    When gamma, sigma and tau are all unset, Condat's primal step
    tau' = tau gamma/(1 + tau) is balanced in (0, tau'0], from its default
    tau'0, with gamma fixed: tau = tau'/(gamma - tau') and sigma tau stays
    at its default.  The x-step reads the dual before its update, and the
    one B x+ of each inner step serves the dual step, the balance and the
    objective.
    """
    stack, g = problem.stack, problem.simple

    def iterates(cfg, x, z):
        gamma, sigma, tau = cfg.gamma, cfg.sigma, cfg.tau
        step_g = tau * gamma / (1.0 + tau)
        product = sigma * tau
        rule = _Balance(step_g, on=all(
            v is None for v in (config.gamma, config.sigma, config.tau)))
        bx, btz = stack.op.apply(x), stack.combined_adjoint(z)
        arg = None
        while True:
            yield x, bx, cfg
            grad = problem.smooth.gradient(x)
            if rule.on and arg is not None:
                t = sigma / gamma
                new = rule.step(step_g, x, arg, grad, t * btz, q, bx, bx)
                if new != step_g:
                    tau = new / (gamma - new)
                    sigma, old = product / tau, sigma
                    # y = sigma' z stays: z scales by sigma / sigma+
                    z, btz = z * (old / sigma), btz * (old / sigma)
                    step_g = tau * gamma / (1.0 + tau)
                    cfg = dataclasses.replace(cfg, sigma=sigma, tau=tau)
            u = x - gamma * grad
            for _ in range(cfg.inner_iters):
                arg = (x - (tau * sigma) * btz + tau * u) / (1.0 + tau)
                x = g.prox(arg, step_g)
                bx, bx_old = stack.op.apply(x), bx
                s = z + (2.0 * bx - bx_old)
                q = stack.stacked_prox(s, gamma / sigma)
                z = s - q
                btz = stack.combined_adjoint(z)

    return _solve(problem, config, "pdfb", lambda cfg: cfg.sigma / cfg.gamma,
                  iterates, x0, y0, metric_fn)


def solve_admm(problem, config, x0=None, y0=None, metric_fn=None):
    """Linearized ADMM with split variable y = B x and scaled dual v.

    Block i carries the penalty rho_i = rho * w_i (rho when unweighted):

        x+  = prox_{gamma g}(x - gamma (grad f(x)
                             + rho B^T (w * (B x - y + v))))
        y_i = prox_{h_i / rho_i}(B_i x+ + v_i)    for each block i
        v   = v + B x+ - y

    The dual is rho v, so v starts at ``y0`` / rho; y starts at B x0.
    """
    stack, g = problem.stack, problem.simple

    def iterates(cfg, x, v):
        gamma, rho = cfg.gamma, cfg.rho
        # B x of the current iterate, shared by the objective, the next
        # x-step and the y- and v-steps.
        y = bx = stack.op.apply(x)
        while True:
            yield x, bx, cfg
            grad = (problem.smooth.gradient(x)
                    + rho * stack.combined_adjoint(bx - y + v))
            x = g.prox(x - gamma * grad, gamma)
            bx = stack.op.apply(x)
            s = v + bx
            y = stack.stacked_prox(s, 1.0 / rho)
            v = s - y

    return _solve(problem, config, "admm", lambda cfg: cfg.rho, iterates,
                  x0, y0, metric_fn)
