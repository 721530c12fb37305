"""Per-sample solves through the low-rank update formula.

The mean solution is computed once.  Each sample's matrix differs from
it by the compressed update U V_m^T, so Z = Abar^{-1} U is solved once
per factor family, by block elimination on U's nonzero rows, and each
sample then costs one dense LU of the k_s x k_s capacitance matrix of
the update formula (k_s <= k: the retained directions that can touch
the perturbations) and a product with Z.  At k equal to the numerical
rank of the perturbation family the answers match per-sample direct
factorizations to solver precision; truncating below the rank trades
accuracy for smaller k.

Run with:  python3 demos/solver_accuracy.py
"""

import time

import numpy as np

from sdlowrank import (
    CovarianceKernel,
    PhysicalParams,
    assemble_family,
    build_gram,
    build_kl,
    build_mesh,
    build_xnorm_weights,
    draw_samples,
    factor_mean,
    factorize,
    numerical_rank,
    solve_sample_direct,
    solve_sample_smw,
    xnorm,
)


def main():
    mesh = build_mesh(n=8)
    params = PhysicalParams()
    kl = build_kl(CovarianceKernel(correlation_length_sq=0.2), mesh,
                  epsilon=0.01)
    M = 40
    samples = draw_samples(kl, M, seed=11)
    system = assemble_family(mesh, params, kl, samples.coefficients)
    weights = build_xnorm_weights(mesh)

    t0 = time.perf_counter()
    direct = [solve_sample_direct(system, m) for m in range(M)]
    t_direct = time.perf_counter() - t0
    print(f"direct path: {M} sparse factorizations in {t_direct:.2f}s")
    print()

    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    rank = numerical_rank(gram)
    mean_factor = factor_mean(system)  # factorized once, reused below

    print("  k (directions)   update-path time   max energy-norm gap")
    for k in (10, rank // 2, rank):
        factors = factorize(gram, system.A_tildes, k / gram.n_full)
        t0 = time.perf_counter()
        sols = [solve_sample_smw(mean_factor, factors, m) for m in range(M)]
        t_smw = time.perf_counter() - t0
        gap = max(
            xnorm(s.x - d.x, weights) / xnorm(d.x, weights)
            for s, d in zip(sols, direct)
        )
        tag = "   <- numerical rank, exact" if factors.k == rank else ""
        print(f"  {factors.k:14d}   {t_smw:14.2f}s   {gap:.3e}{tag}")
    print()

    a0 = system.A_bar + system.A_tildes[0]
    resid = np.linalg.norm(a0 @ direct[0].x - system.b)
    resid /= np.linalg.norm(system.b)
    print(f"sample 0 direct-solve residual: {resid:.3e}")
    print("the update path reproduces the direct answers once k reaches")
    print("the family rank; below it the gap is the price of truncation.")


if __name__ == "__main__":
    main()
