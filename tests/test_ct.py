import math
import tracemalloc
import warnings

import numpy as np
import pytest

from proxsplit import ct
from proxsplit.errors import DimensionError, ParameterError
from proxsplit.rng import substream_seed
from proxsplit.solvers import (SolverConfig, objective, solve_admm,
                               solve_dfb, solve_pdfb)

from oracles import siddon_projector_oracle


def small_scene(**kw):
    defaults = dict(n=8, n_views=6, n_rays=12, noise_var_b=0.0,
                    noise_var_prior=0.01, seed=7)
    defaults.update(kw)
    return ct.Scene(**defaults)


# ------------------------------------------------------------- shepp_logan


def test_phantom_corner_is_background():
    n = 32
    img = ct.shepp_logan(n).reshape((n, n), order="F")
    assert img[0, 0] == 0.0
    assert img[0, -1] == 0.0
    assert img[-1, 0] == 0.0
    assert img[-1, -1] == 0.0


def test_phantom_values_in_unit_interval():
    p = ct.shepp_logan(64)
    assert p.min() >= 0.0 and p.max() <= 1.0


def test_phantom_has_expected_structure():
    n = 64
    img = ct.shepp_logan(n).reshape((n, n), order="F")
    # center of the head: inside the two big ellipses, intensity 0.2
    assert img[n // 2, n // 2] == pytest.approx(0.2)
    # skull ring near the top of the head ellipse keeps intensity 1.0
    assert img.max() == 1.0


def test_phantom_rejects_tiny_grids():
    for n in (7, 8.5):
        with pytest.raises(ParameterError):
            ct.shepp_logan(n)


# --------------------------------------------------------- build_projector


def test_projector_central_parallel_ray_has_chord_length_two():
    scene = small_scene(n=16, n_views=1, n_rays=1, geometry="parallel")
    A = ct.build_projector(scene)
    got = A.apply(np.ones(16 * 16))
    assert got[0] == pytest.approx(2.0, abs=1e-9)


def test_projector_zero_image_gives_zero_sinogram():
    scene = small_scene(n=16)
    A = ct.build_projector(scene)
    assert np.array_equal(A.apply(np.zeros(256)), np.zeros(A.rows))


def test_projector_row_sums_bounded_by_diagonal():
    for geometry in ("fan", "parallel"):
        scene = small_scene(n=16, n_views=8, n_rays=15, geometry=geometry)
        A = ct.build_projector(scene)
        row_sums = np.asarray(A.matrix.sum(axis=1)).ravel()
        assert row_sums.max() <= 2.0 * math.sqrt(2.0) + 1e-9


def test_projector_shape_and_sparsity():
    scene = small_scene(n=16, n_views=8, n_rays=15)
    A = ct.build_projector(scene)
    assert (A.rows, A.cols) == (120, 256)
    density = A.matrix.nnz / (A.rows * A.cols)
    assert density < 0.2


@pytest.mark.parametrize("scene", [
    ct.Scene(),
    # the ct-fine benchmark scene
    ct.Scene(n=96, n_views=34, n_rays=136, geometry="parallel"),
    # odd n_rays put a ray through the centre
    ct.Scene(n=8, n_views=6, n_rays=7),
    ct.Scene(n=17, n_views=9, n_rays=15),
    # theta = 0 gives d[1] == 0, with rays along the grid lines
    ct.Scene(n=16, n_views=3, n_rays=8, geometry="parallel"),
    # theta = pi/2, where cos is 6e-17 and not 0
    ct.Scene(n=12, n_views=2, n_rays=10, geometry="parallel"),
], ids=["desk", "fine", "fan-8", "fan-17", "grid-lines", "two-views"])
def test_projector_matches_per_ray_oracle_bit_for_bit(scene):
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ct.build_projector(scene).matrix
    want = siddon_projector_oracle(scene)
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


@pytest.mark.parametrize("scene", [
    ct.Scene(),
    ct.Scene(n=96, n_views=34, n_rays=136, geometry="parallel"),
], ids=["desk", "fine"])
def test_projector_build_peaks_at_the_arrays_it_keeps(scene):
    # No per-view list outlives the CSR matrix, so the build's traced peak
    # is the data, indices and indptr of A and A^T: 1.00 times under
    # scipy 1.17, and 1.67 when the lists stayed alive while A^T was made.
    # Fixed overheads keep scenes much smaller than these above 1.2.
    tracemalloc.start()
    try:
        A = ct.build_projector(scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(getattr(mat, name).nbytes for mat in (A.matrix, A._matT)
               for name in ("data", "indices", "indptr"))
    assert peak <= 1.2 * kept


def test_scene_validates_geometry():
    with pytest.raises(ParameterError):
        ct.Scene(geometry="cone")
    with pytest.raises(ParameterError):
        ct.Scene(noise_var_b=-1.0)
    for bad in (dict(lambda1=-0.1), dict(lambda2=-1.0),
                dict(lambda1=float("nan")), dict(n=7)):
        with pytest.raises(ParameterError):
            ct.Scene(**bad)
    for name, value in (("lambda1", True), ("noise_var_b", False),
                        ("lambda1", "0.4"), ("lambda1", None)):
        with pytest.raises(ParameterError, match=name):
            ct.Scene(**{name: value})
    for name in ("noise_var_b", "noise_var_prior", "lambda1", "lambda2"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ParameterError, match=name):
                ct.Scene(**{name: value})


def test_scene_counts_must_be_integers():
    for name, value in (("n", 8.5), ("n", 8.0), ("n_views", 2.5),
                        ("n_rays", 3.5), ("n_rays", float("nan")),
                        ("n_views", True), ("n_rays", True), ("seed", True)):
        with pytest.raises(ParameterError, match=name):
            ct.Scene(**{name: value})
    scene = ct.Scene(n=np.int64(8), n_views=np.int32(2), n_rays=3)
    assert ct.build_instance(scene).A.rows == 6


# ------------------------------------------------------- noise and prior


def test_scene_seed_must_be_an_integer():
    for seed in (3, -3):
        want = ct.build_instance(small_scene(noise_var_b=0.01, seed=seed))
        got = ct.build_instance(small_scene(noise_var_b=0.01,
                                            seed=np.int64(seed)))
        assert got.b.tobytes() == want.b.tobytes()
        assert got.x_p.tobytes() == want.x_p.tobytes()
    for bad in (1.5, 3.0, float("nan"), "3"):
        with pytest.raises(ParameterError, match="seed"):
            small_scene(seed=bad)


def test_noise_seed_must_be_an_integer():
    # checked before a zero variance returns, and a bool is no count
    for bad in (1.5, "3", None, True):
        for variance in (0.0, 0.01):
            with pytest.raises(ParameterError, match="seed"):
                ct.add_gaussian_noise(np.arange(5.0), variance, bad)


def test_noise_variance_zero_is_identity():
    v = np.arange(5.0)
    assert np.array_equal(ct.add_gaussian_noise(v, 0.0, 1), v)


def test_noise_is_deterministic_under_fixed_seed():
    v = np.zeros(100)
    a = ct.add_gaussian_noise(v, 0.25, 42)
    b = ct.add_gaussian_noise(v, 0.25, 42)
    assert np.array_equal(a, b)
    c = ct.add_gaussian_noise(v, 0.25, 43)
    assert not np.array_equal(a, c)
    assert ct.add_gaussian_noise(v, 0.25, np.int64(42)).tobytes() \
        == a.tobytes()


def test_noise_variance_must_be_finite_and_nonnegative():
    for bad in (float("nan"), float("inf"), -1.0, "0.1", None, True):
        with pytest.raises(ParameterError, match="variance"):
            ct.add_gaussian_noise(np.zeros(3), bad, 1)


def test_noise_sample_variance_matches_request():
    eta = ct.add_gaussian_noise(np.zeros(1_000_000), 0.04, 3)
    assert abs(eta.var() / 0.04 - 1.0) < 0.02


def test_prior_error_energy_matches_variance():
    n = 32
    phantom = ct.shepp_logan(n)
    var = 0.01
    energies = [
        np.sum((ct.add_gaussian_noise(phantom, var, seed) - phantom) ** 2)
        for seed in range(30)]
    assert abs(np.mean(energies) / (n * n * var) - 1.0) < 0.05


def test_prior_variance_zero_returns_phantom():
    phantom = ct.shepp_logan(16)
    assert np.array_equal(ct.add_gaussian_noise(phantom, 0.0, 5), phantom)


# ------------------------------------------------------------- snr / nmsd


def test_snr_of_constant_mean_image_is_zero():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    x_bar = np.full(4, x.mean())
    assert ct.snr(x, x_bar) == pytest.approx(0.0, abs=1e-12)
    assert ct.nmsd(x, x_bar) == pytest.approx(1.0, abs=1e-12)


def test_snr_hand_example():
    x = np.array([0.0, 2.0])
    x_r = np.array([0.0, 1.0])
    assert ct.snr(x, x_r) == pytest.approx(10.0 * math.log10(2.0))
    assert ct.nmsd(x, x_r) == pytest.approx(1.0 / math.sqrt(2.0))


def test_snr_exact_reconstruction_is_infinite():
    x = np.array([0.0, 1.0])
    assert ct.snr(x, x) == np.inf
    assert ct.nmsd(x, x) == 0.0


def test_snr_rejects_constant_reference():
    with pytest.raises(ParameterError):
        ct.snr(np.ones(4), np.zeros(4))


def test_snr_and_nmsd_reject_length_mismatch():
    for metric in (ct.snr, ct.nmsd):
        with pytest.raises(DimensionError):
            metric(np.arange(4.0), np.zeros(3))


def test_snr_nmsd_consistency():
    rng = np.random.default_rng(61)
    for _ in range(20):
        x = rng.standard_normal(50)
        x_r = x + rng.standard_normal(50) * 0.1
        assert ct.snr(x, x_r) == pytest.approx(
            -20.0 * math.log10(ct.nmsd(x, x_r)), abs=1e-10)


def test_snr_metric_matches_snr_bit_for_bit():
    rng = np.random.default_rng(62)
    for _ in range(20):
        x = rng.standard_normal(50)
        metric = ct._snr_metric(x)
        for x_r in (x + rng.standard_normal(50) * 0.1,
                    rng.standard_normal(50)):
            assert metric(x_r) == ct.snr(x, x_r)
    phantom = ct.shepp_logan(8)
    assert ct._snr_metric(phantom)(phantom) == np.inf


# ---------------------------------------------------------------- composite


def test_objective_zero_at_phantom_without_noise_or_regularization():
    scene = small_scene(lambda1=0.0, lambda2=0.0, noise_var_b=0.0)
    inst = ct.build_instance(scene)
    problem = inst.composite()
    assert objective(problem, inst.phantom) == pytest.approx(0.0, abs=1e-20)
    assert np.linalg.norm(inst.A.apply(inst.phantom) - inst.b) == 0.0


def test_data_term_gradient_matches_finite_differences():
    scene = small_scene()
    problem = ct.build_instance(scene).composite()
    rng = np.random.default_rng(67)
    x = rng.uniform(0.0, 1.0, scene.n * scene.n)
    g = problem.smooth.gradient(x)
    h = 1e-6
    for i in rng.choice(x.size, size=8, replace=False):
        e = np.zeros(x.size)
        e[i] = h
        fd = (problem.smooth.value(x + e) - problem.smooth.value(x - e)) \
            / (2 * h)
        assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-6)


def test_objective_infinite_for_negative_pixels():
    scene = small_scene()
    inst = ct.build_instance(scene)
    problem = inst.composite()
    x = inst.phantom.copy()
    x[0] = -0.1
    assert objective(problem, x) == np.inf


def test_composite_objective_matches_written_out_model():
    # 0.5||Ax - b||^2 + lam1 ||D(x - x_p)||_1 + lam2 ||Dx||_1 on x >= 0
    scene = small_scene()
    inst = ct.build_instance(scene)
    composite = inst.composite()
    A, D = inst.A.to_dense(), inst.D.to_dense()
    rng = np.random.default_rng(71)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, scene.n * scene.n)
        r = A @ x - inst.b
        want = (0.5 * float(r @ r)
                + scene.lambda1 * float(np.abs(D @ (x - inst.x_p)).sum())
                + scene.lambda2 * float(np.abs(D @ x).sum()))
        assert objective(composite, x) == pytest.approx(want, rel=1e-12)


def test_composite_is_one_block_on_d():
    inst = ct.build_instance(small_scene())
    stack = inst.composite().stack
    assert len(stack.blocks) == 1
    assert stack.blocks[0][0] is inst.D


def test_solvers_agree_on_criterion_9_scene():
    # As two blocks on D, the model's two penalties took 4202, 4191 and 900
    # iterations here, and the three solvers stopped 1.1e-6 apart.
    problem = ct.build_instance(
        ct.Scene(n=8, n_views=6, n_rays=12, seed=7)).composite()
    landed = {"dfb": 893, "pdfb": 862, "admm": 461}
    solvers = {"dfb": solve_dfb, "pdfb": solve_pdfb, "admm": solve_admm}
    objs = {}
    for algo, solve in solvers.items():
        report = solve(problem, SolverConfig(algo, eps=1e-10))
        assert report.termination == "tolerance-met", algo
        assert report.outer_iters <= 1.1 * landed[algo], (
            algo, report.outer_iters)
        objs[algo] = report.objective_trace[-1]
    for algo, val in objs.items():
        assert abs(val - objs["dfb"]) <= 1e-8 * objs["dfb"], objs


def test_instance_uses_named_substreams():
    scene = small_scene(noise_var_b=0.04)
    inst = ct.build_instance(scene)
    clean = inst.A.apply(inst.phantom)
    want_b = ct.add_gaussian_noise(
        clean, scene.noise_var_b,
        substream_seed(scene.seed, ct.MEASUREMENT_NOISE_TAG))
    want_xp = ct.add_gaussian_noise(
        inst.phantom, scene.noise_var_prior,
        substream_seed(scene.seed, ct.PRIOR_NOISE_TAG))
    assert np.array_equal(inst.b, want_b)
    assert np.array_equal(inst.x_p, want_xp)


# ----------------------------------------------------------- run_experiment


def test_unregularized_noiseless_recovery_is_near_exact():
    # square-ish, full-rank system with no noise and no regularization:
    # the projected least-squares solution recovers the phantom
    scene = small_scene(n=8, n_views=16, n_rays=16, noise_var_b=0.0,
                        lambda1=0.0, lambda2=0.0)
    cfg = SolverConfig("dfb", max_outer=200_000, eps=1e-12)
    rows = ct.run_experiment(scene, [cfg])
    assert "error" not in rows[0]
    assert rows[0]["snr_db"] >= 100.0


def test_default_admm_converges_on_small_scene():
    # The default step 1.9/(L + 2 rho S) meets the tolerance; the step
    # 1.9/(L + rho S), above the Condat-Vu cap, runs all 5000 iterations
    # and ends 13% above dfb's objective.
    problem = ct.build_instance(
        ct.Scene(n=32, n_views=12, n_rays=48)).composite()
    admm = solve_admm(problem, SolverConfig("admm", eps=1e-6, max_outer=5000))
    assert admm.termination == "tolerance-met"
    assert admm.outer_iters <= 3000
    dfb = solve_dfb(problem, SolverConfig("dfb", eps=1e-6, max_outer=20000))
    assert dfb.termination == "tolerance-met"
    assert admm.objective_trace[-1] == pytest.approx(
        dfb.objective_trace[-1], rel=1e-4)


def test_run_experiment_rows_are_table_shaped():
    scene = small_scene()
    cfg = SolverConfig("dfb", max_outer=300, eps=1e-4)
    row = ct.run_experiment(scene, [cfg])[0]
    for key in ("algorithm", "eps", "snr_db", "nmsd", "iterations",
                "final_objective", "terminated_by", "report"):
        assert key in row
    assert row["algorithm"] == "dfb"
    assert row["snr_db"] == pytest.approx(
        -20.0 * math.log10(row["nmsd"]), abs=1e-10)


def test_run_experiment_traces_snr_of_each_iterate():
    scene = small_scene()
    (row,) = ct.run_experiment(
        scene, [SolverConfig("dfb", eps=1e-300, max_outer=5)])
    phantom = ct.build_instance(scene).phantom
    report = row["report"]
    assert len(report.metric_trace) == 6
    assert report.metric_trace[-1] == ct.snr(phantom, report.x_final)
    assert report.metric_trace[-1] == row["snr_db"]


def test_run_experiment_is_deterministic():
    scene = small_scene(noise_var_b=0.01)
    cfgs = [SolverConfig("dfb", max_outer=200, eps=1e-4),
            SolverConfig("admm", max_outer=200, eps=1e-4)]
    a = ct.run_experiment(scene, cfgs)
    b = ct.run_experiment(scene, cfgs)
    for ra, rb in zip(a, b):
        assert ra["snr_db"] == rb["snr_db"]
        assert ra["final_objective"] == rb["final_objective"]
        assert np.array_equal(ra["report"].x_final, rb["report"].x_final)


def test_run_experiment_collects_solver_errors():
    scene = small_scene()
    bad = SolverConfig("dfb", gamma=1e9, max_outer=10, eps=1e-4)
    good = SolverConfig("admm", max_outer=10, eps=1e-4)
    rows = ct.run_experiment(scene, [bad, good])
    assert "error" in rows[0]
    assert "error" not in rows[1]


def test_run_experiment_propagates_non_package_errors(monkeypatch):
    # only package and floating-point errors become "error" rows; anything
    # else is a bug and must not be recorded as a solver failure
    def broken(*args, **kwargs):
        raise IndexError("broken solver")
    monkeypatch.setattr(ct, "solve_dfb", broken)
    with pytest.raises(IndexError):
        ct.run_experiment(small_scene(),
                          [SolverConfig("dfb", max_outer=10, eps=1e-4)])
