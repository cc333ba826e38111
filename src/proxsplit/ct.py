"""Desk-scale CT reconstruction harness.

Builds a Shepp-Logan phantom, a sparse Siddon line-length projector (fan or
parallel geometry over the square [-1, 1]^2), noisy measurements, a noisy
prior image, and the prior-image-regularized reconstruction problem
0.5||Ax-b||^2 + lam1 ||D(x - x_p)||_1 + lam2 ||Dx||_1 + {x >= 0} (one block
on D, with one dual: ``prox.L1Pair``), with SNR/NMSD quality metrics.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (ParameterError, ProxsplitError, as_vector, check_count,
                     check_real)
from .linops import LinearOperator, tv_gradient
from .prox import BoxIndicator, L1Norm, L1Pair
from .product import BlockStack
from .rng import Stream, substream_seed
from .solvers import (CompositeProblem, PiccsProblem, quadratic_data_term,
                      solve_admm, solve_dfb, solve_pdfb)

__all__ = [
    "Scene", "shepp_logan", "build_projector", "add_gaussian_noise",
    "snr", "nmsd", "PiccsInstance", "build_instance", "run_experiment",
]

# Stream tags for per-purpose substreams split from the scene seed.
MEASUREMENT_NOISE_TAG = 1
PRIOR_NOISE_TAG = 2

# Fan-beam source distance from the centre, outside the [-1, 1]^2 square.
SOURCE_RADIUS = 2.0

# Classical ten-ellipse Shepp-Logan table with the high-contrast
# ("modified") intensities: (intensity, a, b, x0, y0, angle_deg).
SHEPP_LOGAN_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.8740, 0.0, -0.0184, 0.0),
    (-0.2, 0.1100, 0.3100, 0.22, 0.0, -18.0),
    (-0.2, 0.1600, 0.4100, -0.22, 0.0, 18.0),
    (0.1, 0.2100, 0.2500, 0.0, 0.35, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, 0.1, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, -0.1, 0.0),
    (0.1, 0.0460, 0.0230, -0.08, -0.605, 0.0),
    (0.1, 0.0230, 0.0230, 0.0, -0.606, 0.0),
    (0.1, 0.0230, 0.0460, 0.06, -0.605, 0.0),
)


@dataclass(frozen=True)
class Scene:
    n: int = 64
    n_views: int = 20
    n_rays: int = 95
    geometry: str = "fan"           # "fan" | "parallel"
    noise_var_b: float = 0.01
    noise_var_prior: float = 0.01
    seed: int = 20170520
    lambda1: float = 0.4
    lambda2: float = 0.5

    def __post_init__(self):
        if self.geometry not in ("fan", "parallel"):
            raise ParameterError(
                f"geometry must be 'fan' or 'parallel', got {self.geometry!r}")
        for name, least in (("n", 8), ("n_views", 1), ("n_rays", 1),
                            ("seed", None)):
            check_count(name, getattr(self, name), least)
        for name in ("noise_var_b", "noise_var_prior", "lambda1", "lambda2"):
            check_real(name, getattr(self, name), positive=False)


def shepp_logan(n):
    """Shepp-Logan phantom on an n x n grid over [-1, 1]^2.

    Ellipse intensities are summed at pixel centers and the result is
    clamped to [0, 1].  Returned as the column-major vectorization used by
    the TV operators; row index runs top (y=+1) to bottom (y=-1).
    """
    check_count("n", n, least=8)
    h = 2.0 / n
    xs = -1.0 + (np.arange(n) + 0.5) * h
    ys = 1.0 - (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(xs, ys)          # X[r, c], Y[r, c]
    img = np.zeros((n, n))
    for inten, a, b, x0, y0, ang in SHEPP_LOGAN_ELLIPSES:
        phi = math.radians(ang)
        c, s = math.cos(phi), math.sin(phi)
        dx, dy = X - x0, Y - y0
        u = (dx * c + dy * s) / a
        v = (-dx * s + dy * c) / b
        img[u * u + v * v <= 1.0] += inten
    np.clip(img, 0.0, 1.0, out=img)
    return img.ravel(order="F")


def _hypot(x, y):
    """math.hypot per entry (np.hypot may round differently)."""
    pairs = zip(x.ravel().tolist(), y.ravel().tolist())
    return np.array([math.hypot(a, b) for a, b in pairs]).reshape(x.shape)


def build_projector(scene):
    """Sparse line-integral system matrix, rows = n_views * n_rays.

    Fan geometry: views equally spaced over [0, 360); the source sits at
    distance ``SOURCE_RADIUS`` from the center and each ray aims at one of
    n_rays detector cell centers on the line through the origin
    perpendicular to the source direction, spanning [-1, 1].  Parallel
    geometry: views over [0, 180), rays offset across [-1, 1].

    Siddon's exact traversal runs as array passes, with the same
    elementwise arithmetic as a ray-by-ray loop, so the CSR arrays match
    the per-ray form bit for bit.  Each ray p0 + t*d (t in R) gets its
    length per unit t and its entry and exit (tmin, tmax) on [-1, 1]^2
    once.  Each view's table of tmin, tmax and grid-line crossings per ray
    is then clamped to [tmin, tmax] and sorted: a clamped copy or a grid
    corner makes a zero-length step, and each other step is one pixel's
    intersection.  Indices are int32 when n * n fits, as scipy keeps them.
    """
    n, rays = scene.n, scene.n_rays
    offsets = -1.0 + (np.arange(rays) + 0.5) * 2.0 / rays
    turn = 2.0 * math.pi if scene.geometry == "fan" else math.pi
    angles = (np.arange(scene.n_views) * turn / scene.n_views).tolist()
    # (cos, sin) of each view, shape (2, n_views, 1)
    axis = np.array([(math.cos(a), math.sin(a)) for a in angles]).T[:, :, None]
    perp = np.stack([offsets * -axis[1], offsets * axis[0]])
    if scene.geometry == "fan":
        p0 = SOURCE_RADIUS * axis
        d = perp - p0
        d /= _hypot(d[0], d[1])
    else:
        p0, d = perp, axis          # a view's rays share d
    speed = _hypot(d[0], d[1])
    shape = perp.shape[1:]
    tmin, tmax = np.full(shape, -np.inf), np.full(shape, np.inf)
    hit = np.ones(shape, dtype=bool)
    for p, v in zip(p0, d):
        moving = v != 0.0
        # a ray parallel to this axis's grid lines must lie between them
        hit &= moving | ((-1.0 <= p) & (p <= 1.0))
        t1 = np.divide(-1.0 - p, v, out=np.full(shape, -np.inf), where=moving)
        t2 = np.divide(1.0 - p, v, out=np.full(shape, np.inf), where=moving)
        tmin = np.maximum(tmin, np.minimum(t1, t2))
        tmax = np.minimum(tmax, np.maximum(t1, t2))
    hit &= tmin < tmax
    tmin, tmax = np.where(hit, tmin, 0.0), np.where(hit, tmax, 0.0)
    planes = np.linspace(-1.0, 1.0, n + 1)
    index_dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    counts, indices, data = [], [], []
    for view in range(scene.n_views):
        ts = np.full((rays, 2 * n + 4), np.inf)
        ts[:, 0], ts[:, 1] = tmin[view], tmax[view]
        for out, p, v in zip((ts[:, 2:n + 3], ts[:, n + 3:]),
                             p0[:, view], d[:, view]):
            np.divide(planes - p[:, None], v[:, None], out=out,
                      where=(v != 0.0)[:, None])
        np.clip(ts, tmin[view, :, None], tmax[view, :, None], out=ts)
        ts.sort(axis=1)
        seg = ts[:, 1:] - ts[:, :-1]
        keep = seg > 0
        mid_t = (ts[:, :-1] + ts[:, 1:]) / 2.0
        (px, py), (dx, dy) = p0[:, view, :, None], d[:, view, :, None]
        cols = ((px + mid_t * dx + 1.0) / 2.0 * n)[keep].astype(index_dtype)
        rows = ((1.0 - (py + mid_t * dy)) / 2.0 * n)[keep].astype(index_dtype)
        counts.append(keep.sum(axis=1))
        indices.append(np.clip(rows, 0, n - 1) + np.clip(cols, 0, n - 1) * n)
        data.append((seg * speed[view, :, None])[keep])
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    # one list at a time, each freed as it is joined
    data = np.concatenate(data)
    indices = np.concatenate(indices)
    return LinearOperator(sp.csr_matrix(
        (data, indices, indptr), shape=(scene.n_views * scene.n_rays, n * n)))


def add_gaussian_noise(v, variance, seed):
    """v plus i.i.d. N(0, variance) noise from the portable stream."""
    check_real("variance", variance, positive=False)
    check_count("seed", seed, least=None)
    v = as_vector(v)
    if variance == 0:
        return v.copy()
    return v + math.sqrt(variance) * Stream(seed).gaussians(v.size)


def snr(x, x_r):
    """10 log10(||x - mean(x)||^2 / ||x_r - x||^2) in dB; +inf if exact or
    only the power overflows, -inf if only the error does."""
    return _snr_metric(x)(x_r)


def _snr_metric(x):
    """The map x_r -> snr(x, x_r) for reconstructions x_r of x's length,
    with the reference's checks and centred power made once.  Both squared
    norms, with the mean and the subtraction under them, are inf without a
    warning when they overflow."""
    x = as_vector(x, what="reference image", finite=True)
    if not x.size or x.min() == x.max():
        raise ParameterError("reference image is constant")
    with np.errstate(over="ignore"):
        centred = x - x.mean()
        power = float(centred @ centred)
    if power == 0.0:
        raise ParameterError("reference image's centred power underflows")

    def metric(x_r):
        x_r = as_vector(x_r, x.size, "reconstruction")
        with np.errstate(over="ignore"):
            err = x_r - x
            err_sq = float(err @ err)
        if err_sq == 0.0:
            return np.inf
        ratio = power / err_sq
        return -np.inf if ratio == 0.0 else 10.0 * math.log10(ratio)
    return metric


def nmsd(x, x_r):
    """||x - x_r|| / ||x - mean(x)||, which is 10^(-snr(x, x_r)/20): 0 where
    the SNR is +inf, inf where it is -inf."""
    return _nmsd(snr(x, x_r))


def _nmsd(snr_db):
    return 10.0 ** (-snr_db / 20.0)


@dataclass(frozen=True)
class PiccsInstance:
    """A fully simulated scene plus its optimization problem views."""
    scene: Scene
    A: LinearOperator
    b: np.ndarray
    phantom: np.ndarray
    x_p: np.ndarray
    D: LinearOperator

    def composite(self):
        """The model for the solvers; its two penalties on D are one block."""
        s = self.scene
        h = L1Pair(s.lambda1, s.lambda2, self.D.apply(self.x_p))
        return CompositeProblem(smooth=quadratic_data_term(self.A, self.b),
                                simple=BoxIndicator(s.n * s.n, 0.0, np.inf),
                                stack=BlockStack([(self.D, h)]))

    def admm_problem(self):
        """The same model as an explicit :class:`PiccsProblem` record."""
        scene = self.scene
        return PiccsProblem(
            A=self.A, b=self.b, D1=self.D, D2=self.D, x_p=self.x_p,
            phi1=L1Norm(self.D.rows), phi2=L1Norm(self.D.rows),
            lam1=scene.lambda1, lam2=scene.lambda2, lo=0.0, hi=np.inf)


def build_instance(scene):
    """Simulate the scene deterministically from its seed."""
    phantom = shepp_logan(scene.n)
    A = build_projector(scene)
    b = add_gaussian_noise(A.apply(phantom), scene.noise_var_b,
                           substream_seed(scene.seed, MEASUREMENT_NOISE_TAG))
    x_p = add_gaussian_noise(phantom, scene.noise_var_prior,
                             substream_seed(scene.seed, PRIOR_NOISE_TAG))
    D = tv_gradient(scene.n, scene.n)
    return PiccsInstance(scene, A, b, phantom, x_p, D)


def run_experiment(scene, configs):
    """Build the scene's instance and solve its reconstruction problem once
    per config.

    Returns one result dict per config with SNR/NMSD/iteration counts and
    the full objective/metric traces.  Package errors and floating-point
    errors of a solver are captured in its row; any other exception is a
    bug and propagates.
    """
    instance = build_instance(scene)
    composite = instance.composite()
    metric = _snr_metric(instance.phantom)
    # Looked up per call, not at import, so a solver rebound on this module
    # is the one that runs.
    solvers = {"dfb": solve_dfb, "pdfb": solve_pdfb, "admm": solve_admm}
    rows = []
    for cfg in configs:
        row = {"algorithm": cfg.algorithm, "eps": cfg.eps}
        try:
            report = solvers[cfg.algorithm](
                composite, cfg, metric_fn=metric)
        except (ProxsplitError, FloatingPointError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
            continue
        row.update(
            snr_db=report.metric_trace[-1],
            nmsd=_nmsd(report.metric_trace[-1]),
            iterations=report.outer_iters,
            final_objective=report.objective_trace[-1],
            terminated_by=report.termination,
            report=report,
        )
        rows.append(row)
    return rows
