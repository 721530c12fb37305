"""Compressing a family of perturbation matrices.

Every Monte Carlo sample perturbs the same mean operator, and all of
the perturbation matrices touch the same small set of rows and columns:
the porous-side pressure couplings and the interface slip terms.  Such
a family is compressible.  The top eigenvectors of the family Gram
matrix G = sum_m A_m A_m^T give one shared orthonormal left factor U;
V_m = A_m^T U is exact per sample, so A_m ~ U V_m^T with an error that
the retained spectrum predicts in closed form.

Run with:  python3 demos/compression_pipeline.py
"""

import numpy as np

from sdlowrank import (
    CovarianceKernel,
    PhysicalParams,
    assemble_family,
    build_gram,
    build_kl,
    build_mesh,
    draw_samples,
    factorize,
    numerical_rank,
    rmsre,
    select_theta,
)


def main():
    mesh = build_mesh(n=8)
    params = PhysicalParams()
    kl = build_kl(CovarianceKernel(correlation_length_sq=0.2), mesh,
                  epsilon=0.01)
    samples = draw_samples(kl, 50, seed=7)
    system = assemble_family(mesh, params, kl, samples.coefficients)

    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    rank = numerical_rank(gram)
    w = gram.eigenvalues
    print(f"family size          : M = {len(system.A_tildes)}")
    print(f"matrix dimension     : {gram.n_full}")
    print(f"active block         : {system.n_flow}")
    print(f"numerical rank of G  : {rank}")
    print(f"spectral cliff       : lambda_{rank + 1}/lambda_1 = "
          f"{w[rank] / w[0]:.2e}")
    print()

    theta_sel, k_sel = select_theta(gram)
    print(f"energy rule (target 1 - 1e-9) picks theta = {theta_sel:.4f}, "
          f"i.e. k = {k_sel} retained directions")
    print()

    print("  theta      k    predicted err   measured err   storage ratio")
    for theta in (0.05, 0.10, theta_sel, 0.75, 1.00):
        factors = factorize(gram, system.A_tildes, theta)
        measured = rmsre(gram, factors)
        print(f"  {theta:.4f}  {factors.k:4d}     {factors.rmsre:.4e}"
              f"      {measured:.4e}       {factors.storage_reduction:.4f}")
    print()
    print("from the rank on both columns are exactly zero: the formula sums")
    print("the discarded spectrum, which is empty there, and U spans the")
    print("family's support, so the measured error vanishes too.")


if __name__ == "__main__":
    main()
