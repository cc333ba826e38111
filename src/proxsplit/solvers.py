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
"""

import dataclasses
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DivergenceError, ParameterError
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


def quadratic_data_term(A, b):
    """SmoothTerm for 0.5 ||Ax - b||^2 with gradient A^T(Ax - b).

    ``value`` and ``gradient`` share the residual Ax - b of the last point
    they saw (kept with a copy of that point and matched by content), so
    evaluating both at one x costs one product with A, not two.
    """
    b = np.asarray(b, dtype=float).ravel()
    if b.size != A.rows:
        raise DimensionError(f"b length {b.size} != operator rows {A.rows}")
    if not np.all(np.isfinite(b)):
        raise ParameterError("b has non-finite entries")
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
OPTIONS = {"dfb": ("gamma", "lam", "inner_iters", "convergence_mode"),
           "pdfb": ("gamma", "sigma", "tau", "inner_iters"),
           "admm": ("gamma", "rho")}
MODES = ("strict-weak", "relaxed-finite")


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
    convergence_mode: str = "strict-weak"

    def __post_init__(self):
        """Reject values no problem admits; validate_params checks bounds."""
        if self.algorithm not in OPTIONS:
            raise ParameterError(f"unknown algorithm {self.algorithm!r}; "
                                 f"valid: {tuple(OPTIONS)}")
        reads = ("algorithm", "max_outer", "eps") + OPTIONS[self.algorithm]
        unread = [f.name for f in dataclasses.fields(self) if f.name not in
                  reads and getattr(self, f.name) != f.default]
        if unread:
            raise ParameterError(f"{self.algorithm} does not read {unread}")
        if self.convergence_mode not in MODES:
            raise ParameterError(
                f"unknown convergence_mode {self.convergence_mode!r}; "
                f"valid: {MODES}")
        for name in ("inner_iters", "max_outer"):
            count = getattr(self, name)
            if not (isinstance(count, numbers.Integral) and count >= 1):
                raise ParameterError(
                    f"{name} must be an integer >= 1, got {count}")
        for name in ("eps", "rho", "gamma", "lam", "sigma", "tau"):
            value = getattr(self, name)
            if (value is not None or name in ("eps", "rho")) \
                    and not 0 < value < np.inf:
                raise ParameterError(
                    f"{name} must be positive and finite, got {value}")


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
    notes: str = ""


def validate_params(problem, config):
    """Check step sizes against the convergence bounds; fill defaults.

    Returns a resolved copy of ``config``.  Raises ParameterError naming
    the violated bound.  Checks that need no problem (names, eps, iteration
    counts, signs) are made when the SolverConfig is built.

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
        cap = 2.0 / S if config.convergence_mode == "relaxed-finite" else 1.0 / S
        if not lam < cap:
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


def objective(problem, x):
    """f(x) + g(x) + sum_i h_i(B_i x); +inf if an indicator is violated."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != problem.dim:
        raise DimensionError(
            f"expected length {problem.dim}, got {x.size}")
    return _objective(problem, x, problem.stack.apply_blocks(x))


def _objective(problem, x, bxs):
    """The objective at x given the block products bxs = [B_i x]."""
    val = problem.smooth.value(x) + problem.simple.value(x)
    if not np.isfinite(val):
        return np.inf
    for (_, term), bx in zip(problem.stack.blocks, bxs):
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


def _start(v, size):
    """A private copy of a starting vector; zeros when none is given."""
    if v is None:
        return np.zeros(size)
    return np.asarray(v, dtype=float).ravel().copy()


def _init_duals(stack, y0):
    if y0 is None:
        return [np.zeros(op.rows) for op, _ in stack.blocks]
    return [y.copy() for y in stack._check_ys(y0)]


def _validate(problem, config, algorithm):
    """validate_params for the solver of ``algorithm``, which must be the
    one the config names."""
    if config.algorithm != algorithm:
        raise ParameterError(
            f"solve_{algorithm} got a config for {config.algorithm!r}")
    return validate_params(problem, config)


def _iterate(cfg, iterates, metric_fn, notes=""):
    """Run a solver's iterates to the stopping rule and report.

    ``iterates`` yields ``(x, objective_at_x)``, where ``objective_at_x()``
    evaluates the objective at x: the starting point first, then one pair
    per outer iteration.  The objective is evaluated at every iterate when
    ``metric_fn`` traces one, else only at the start and the returned
    iterate, since the stopping rule does not read it.
    """
    x, objective_at_x = next(iterates)
    obj_trace, res_trace = [objective_at_x()], []
    metric_trace = [] if metric_fn is None else [metric_fn(x)]
    termination = "max-iters"
    k = 0
    for k in range(1, cfg.max_outer + 1):
        x_new, objective_at_x = next(iterates)
        _check_finite(x_new, k)
        res = _residual(x_new, x)
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
                       metric_trace, notes)


def solve_dfb(problem, config, x0=None, y0=None, metric_fn=None):
    """Dual forward-backward splitting (weighted or unweighted stack)."""
    cfg = _validate(problem, config, "dfb")
    stack, g = problem.stack, problem.simple
    gamma, lam = cfg.gamma, cfg.lam

    def iterates(x, ys):
        yield x, lambda x=x: objective(problem, x)
        # sum_i w_i B_i^T y_i of the current duals: the final step of one
        # outer iteration and the first inner step of the next use the same
        # ys.
        bty = stack.combined_adjoint(ys)
        while True:
            u = x - gamma * problem.smooth.gradient(x)
            for _ in range(cfg.inner_iters):
                v = g.prox(u - gamma * bty, gamma)
                args = [y + (lam / gamma) * bv
                        for y, bv in zip(ys, stack.apply_blocks(v))]
                ys = stack.stacked_conjugate_prox(args, lam / gamma)
                bty = stack.combined_adjoint(ys)
            x = g.prox(u - gamma * bty, gamma)
            yield x, lambda x=x: objective(problem, x)

    notes = ("finite-dimensional convergence only"
             if cfg.convergence_mode == "relaxed-finite" else "")
    return _iterate(cfg, iterates(_start(x0, problem.dim),
                                  _init_duals(stack, y0)), metric_fn, notes)


def solve_pdfb(problem, config, x0=None, y0=None, metric_fn=None):
    """Primal-dual forward-backward splitting."""
    cfg = _validate(problem, config, "pdfb")
    stack, g = problem.stack, problem.simple
    gamma, sigma, tau = cfg.gamma, cfg.sigma, cfg.tau
    step_g = tau * gamma / (1.0 + tau)

    def iterates(x, ys):
        yield x, lambda x=x: objective(problem, x)
        while True:
            u = x - gamma * problem.smooth.gradient(x)
            for _ in range(cfg.inner_iters):
                arg = (x - tau * stack.combined_adjoint(ys) + tau * u) \
                    / (1.0 + tau)
                x_new = g.prox(arg, step_g)
                z = 2.0 * x_new - x
                args = [(y + sigma * bz) / gamma
                        for y, bz in zip(ys, stack.apply_blocks(z))]
                ys = [gamma * yi for yi in
                      stack.stacked_conjugate_prox(args, sigma / gamma)]
                x = x_new
            yield x, lambda x=x: objective(problem, x)

    return _iterate(cfg, iterates(_start(x0, problem.dim),
                                  _init_duals(stack, y0)), metric_fn)


def solve_admm(problem, config, x0=None, y0=None, v0=None, metric_fn=None):
    """Linearized ADMM with scaled duals v_i for the splits y_i = B_i x.

    Block i carries the penalty rho_i = rho * w_i (rho when unweighted):

        x+  = prox_{gamma g}(x - gamma (grad f(x)
                             + sum_i rho_i B_i^T (B_i x - y_i + v_i)))
        y_i = prox_{h_i / rho_i}(B_i x+ + v_i)
        v_i = v_i + B_i x+ - y_i
    """
    cfg = _validate(problem, config, "admm")
    stack, g = problem.stack, problem.simple
    gamma, rho = cfg.gamma, cfg.rho

    def iterates(x, ys, vs):
        # B x of the current iterate, shared by the objective, the next
        # x-step and the y- and v-steps.
        bxs = stack.apply_blocks(x)
        yield x, lambda x=x, bxs=bxs: _objective(problem, x, bxs)
        while True:
            aug = stack.combined_adjoint(
                [bx - y + v for bx, y, v in zip(bxs, ys, vs)])
            grad = problem.smooth.gradient(x) + rho * aug
            x = g.prox(x - gamma * grad, gamma)
            bxs = stack.apply_blocks(x)
            ys = stack.stacked_prox(
                [bx + v for bx, v in zip(bxs, vs)], 1.0 / rho)
            vs = [v + bx - y for v, bx, y in zip(vs, bxs, ys)]
            yield x, lambda x=x, bxs=bxs: _objective(problem, x, bxs)

    return _iterate(cfg, iterates(_start(x0, problem.dim),
                                  _init_duals(stack, y0),
                                  _init_duals(stack, v0)), metric_fn)
