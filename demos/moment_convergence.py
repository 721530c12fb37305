"""Monte Carlo moment estimates and their convergence.

Nested subsets of one master sample set give mean and variance
estimates at increasing sample counts M.  An independent, larger run
through the per-sample direct path serves as the reference.  The
energy-norm error of the mean decays like M^(-1/2), the statistical
rate, and the error splits into porous-side and free-flow parts.

Run with:  python3 demos/moment_convergence.py
"""

from sdlowrank import (
    CovarianceKernel,
    PhysicalParams,
    assemble_family,
    build_gram,
    build_kl,
    build_mesh,
    build_xnorm_weights,
    draw_samples,
    estimate_moments,
    factor_mean,
    factorize,
    loglog_slope,
    select_theta,
    solve_sample_direct,
    solve_sample_smw,
    xnorm,
    xnorm_components,
)


def main():
    mesh = build_mesh(n=8)
    params = PhysicalParams()
    kl = build_kl(CovarianceKernel(correlation_length_sq=0.2), mesh,
                  epsilon=0.01)
    weights = build_xnorm_weights(mesh)
    seed = 5

    # reference: an independent stream of 400 samples, each solved with
    # its own direct factorization
    m_ref = 400
    ref_system = assemble_family(
        mesh, params, kl, draw_samples(kl, m_ref, seed + 1_000_003).coefficients
    )
    reference = estimate_moments(
        [solve_sample_direct(ref_system, m) for m in range(m_ref)],
        theta=1.0, mesh=mesh,
    )
    print(f"reference: {m_ref} direct solves, "
          f"|mean|_X = {xnorm(reference.mean, weights):.6f}")
    print()

    # estimates: nested subsets of one master draw, solved through the
    # compressed update path at the energy-selected ratio
    m_list = (10, 20, 40, 80)
    master = draw_samples(kl, max(m_list), seed)
    system = assemble_family(mesh, params, kl, master.coefficients)
    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    theta, k = select_theta(gram)
    factors = factorize(gram, system.A_tildes, theta)
    mean_factor = factor_mean(system)
    solutions = [solve_sample_smw(mean_factor, factors, m)
                 for m in range(max(m_list))]
    print(f"estimates: update path at theta = {theta:.4f} (k = {k})")
    print()

    print("     M    mean error    porous part   free-flow part")
    errors = []
    for m in m_list:
        est = estimate_moments(solutions[:m], theta=theta, mesh=mesh,
                               reference_mean=reference.mean)
        total, darcy, stokes = xnorm_components(est.mean - reference.mean,
                                                weights)
        errors.append(total)
        print(f"  {m:4d}    {total:.4e}    {darcy:.4e}     {stokes:.4e}")
    print()
    slope = loglog_slope(m_list, errors)
    print(f"fitted decay rate: M^({slope:.3f})   (statistical rate: -1/2;")
    print("short sample streams wander around it)")


if __name__ == "__main__":
    main()
