"""Desk-scale CT reconstruction with a prior image.

Simulates a fan-beam scan of a 64 x 64 Shepp-Logan phantom (20 views x 95
rays, Gaussian measurement noise), builds the prior-image-regularized
model

    min_x  0.5 ||Ax - b||^2 + 0.4 ||D(x - x_p)||_1 + 0.5 ||Dx||_1
    s.t.   x >= 0

and reconstructs with each solver, reporting SNR, NMSD, and iteration
counts.  A looser tolerance keeps the run under a minute; tighten eps to
1e-8 to see all three objectives agree to several digits.

Run:  python3 demos/ct_reconstruction.py
"""

from proxsplit import Scene, SolverConfig, run_experiment


def main():
    scene = Scene()                 # 64x64, 20 views x 95 rays, noise 0.01
    eps = 1e-5
    configs = [
        SolverConfig("dfb", max_outer=40_000, eps=eps),
        SolverConfig("pdfb", max_outer=40_000, eps=eps),
        SolverConfig("admm", max_outer=40_000, eps=eps),
    ]
    rows = run_experiment(scene, configs)

    print(f"{'solver':6s} {'snr(dB)':>8s} {'nmsd':>8s} {'iters':>7s} "
          f"{'objective':>12s}")
    for row in rows:
        if "error" in row:
            print(f"{row['algorithm']:6s} failed: {row['error']}")
            continue
        print(f"{row['algorithm']:6s} {row['snr_db']:8.3f} "
              f"{row['nmsd']:8.5f} {row['iterations']:7d} "
              f"{row['final_objective']:12.4f}")


if __name__ == "__main__":
    main()
