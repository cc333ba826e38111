"""1-D total-variation denoising with the two splitting solvers.

A noisy piecewise-constant signal is cleaned by solving

    min_x  0.5 ||x - b||^2 + w ||Bx||_1

where B is the forward-difference operator.  The dual forward-backward and
primal-dual forward-backward solvers both consume the generic composite
form and land on the same objective value.  (``solve_admm`` takes the same
form; on denoising problems like this one it is much slower, see
demos/ct_reconstruction.py for it on the reconstruction model.)

Run:  python3 demos/tv_denoising.py
"""

import numpy as np

from proxsplit import (BlockStack, CompositeProblem, L1Norm, Scaled,
                       SmoothTerm, SolverConfig, ZeroTerm, first_difference,
                       objective, solve_dfb, solve_pdfb)
from proxsplit.rng import Stream


def main():
    n, weight = 200, 1.0
    clean = np.zeros(n)
    clean[40:90] = 1.0
    clean[120:160] = -0.5
    b = clean + 0.2 * Stream(7).gaussians(n)

    B = first_difference(n)
    smooth = SmoothTerm(lambda x: 0.5 * float((x - b) @ (x - b)),
                        lambda x: x - b, 1.0)
    problem = CompositeProblem(
        smooth, ZeroTerm(n), BlockStack([(B, Scaled(L1Norm(n), weight))]))

    reports = {
        "dfb": solve_dfb(problem, SolverConfig(
            "dfb", max_outer=20_000, eps=1e-10)),
        "pdfb": solve_pdfb(problem, SolverConfig(
            "pdfb", max_outer=20_000, eps=1e-10)),
    }

    print(f"{'solver':6s} {'iters':>6s} {'objective':>12s} {'rmse':>8s}")
    for name, rep in reports.items():
        obj = objective(problem, rep.x_final)
        rmse = float(np.sqrt(np.mean((rep.x_final - clean) ** 2)))
        print(f"{name:6s} {rep.outer_iters:6d} {obj:12.6f} {rmse:8.4f}")

    noisy_rmse = float(np.sqrt(np.mean((b - clean) ** 2)))
    print(f"(noisy input rmse: {noisy_rmse:.4f})")


if __name__ == "__main__":
    main()
