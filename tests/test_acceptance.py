"""Acceptance gate: ten end-to-end criteria for the low-rank pipeline.

Each test evaluates one headline claim of the package against an
independent oracle and appends a single ``[PASS]``/``[FAIL]`` line (with
the measured values and the pinned tolerance) to the terminal summary.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

import conftest
from _oracles import (dense_u, exact_segment_integral,
                      exact_triangle_integral, map_segment, map_triangle,
                      random_triangle, right_factor)

from sdlowrank import (
    CovarianceKernel,
    assemble_family,
    assemble_mean,
    build_gram,
    build_kl,
    build_mesh,
    build_xnorm_weights,
    draw_samples,
    edge_rule_3pt,
    estimate_moments,
    factor_mean,
    factorize,
    loglog_slope,
    numerical_rank,
    realize_conductivity,
    rmsre,
    select_theta,
    solve_sample_direct,
    solve_sample_smw,
    triangle_rule_7pt,
    xnorm,
    xnorm_components,
)
from sdlowrank.cli import RunConfig, cmd_convergence


def _report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def plateau(mesh8, params, kl8):
    """One M=200 run on the h=1/8 grid, swept over compression ratios."""
    samples = draw_samples(kl8, 200, 1234)
    system = assemble_family(mesh8, params, kl8, samples.coefficients)
    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    weights = build_xnorm_weights(mesh8)
    direct = [solve_sample_direct(system, m) for m in range(200)]
    ref = estimate_moments(direct, theta=1.0, mesh=mesh8)
    mean_factor = factor_mean(system)
    theta_sel, k_sel = select_theta(gram)

    sweeps, factors_by = {}, {}
    for label, theta in [("1.0", 1.0), ("0.7", 0.7), ("0.5", 0.5),
                         ("select", theta_sel), ("0.05", 0.05)]:
        factors = factorize(gram, system.A_tildes, theta)
        sols = [solve_sample_smw(mean_factor, factors, m) for m in range(200)]
        moments = estimate_moments(sols, theta=factors.theta_effective,
                                   mesh=mesh8)
        sweeps[label] = xnorm_components(moments.mean - ref.mean, weights)
        factors_by[label] = factors
    return {
        "gram": gram,
        "sweeps": sweeps,
        "factors": factors_by,
        "theta_sel": theta_sel,
        "k_sel": k_sel,
        "rank": numerical_rank(gram),
        # solver noise level of the mean-error metric
        "floor": 1e-8 * (1.0 + xnorm(ref.mean, weights)),
    }


def test_criterion_01_shared_factor_minimizes_family_error():
    # the top-k Gram eigenvectors beat 10^4 random orthonormal left
    # factors on every instance, and the M=1 case reproduces the SVD tail
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst_margin = -np.inf   # candidate captured energy minus optimal
    worst_eig_rel = 0.0      # captured energy vs spectrum partial sum
    for _ in range(20):
        dense = [rng.normal(size=(6, 6)) for _ in range(4)]
        fam = [sp.csr_matrix(d) for d in dense]
        gram = build_gram(fam)
        stacked = np.hstack(dense)
        for k in (1, 2, 3):
            factors = factorize(gram, fam, theta=k / 6)
            u = dense_u(factors, gram)
            captured_star = float(np.sum((u.T @ stacked) ** 2))
            partial = float(np.sum(gram.eigenvalues[:k]))
            worst_eig_rel = max(
                worst_eig_rel, abs(captured_star - partial) / partial
            )
            q, _ = np.linalg.qr(rng.normal(size=(10_000, 6, k)))
            captured = np.matmul(np.transpose(q, (0, 2, 1)), stacked)
            captured = np.sum(captured ** 2, axis=(1, 2))
            worst_margin = max(
                worst_margin,
                (float(captured.max()) - captured_star) / captured_star,
            )

    worst_svd_rel = 0.0
    single = rng.normal(size=(6, 6))
    fam1 = [sp.csr_matrix(single)]
    gram1 = build_gram(fam1)
    sigma = np.linalg.svd(single, compute_uv=False)
    for k in (1, 2, 4):
        factors = factorize(gram1, fam1, theta=k / 6)
        tail = math.sqrt(float(np.sum(sigma[k:] ** 2)))
        worst_svd_rel = max(worst_svd_rel,
                            abs(rmsre(gram1, factors) - tail) / tail)
    elapsed = time.perf_counter() - t0

    ok = (worst_margin <= 1e-10 and worst_eig_rel <= 1e-10
          and worst_svd_rel <= 1e-10 and elapsed <= 10.0)
    _report(
        1, "shared-factor optimality", ok,
        f"best random candidate margin {worst_margin:+.2e} (tol 1e-10), "
        f"captured-energy vs spectrum rel {worst_eig_rel:.2e}, "
        f"M=1 SVD-tail rel {worst_svd_rel:.2e} (tol 1e-10), "
        f"{elapsed:.1f}s (budget 10s)",
    )


def test_criterion_02_spectrum_formula_matches_direct_error(problem20, gram20):
    # closed-form reconstruction error against direct evaluation; past
    # the rank both read roundoff, which sets the floor
    tildes = problem20["system"].A_tildes
    floor = 2.0 * math.sqrt(np.finfo(float).eps * gram20.trace / gram20.M)
    worst_gap = 0.0
    for theta in (0.05, 0.2, 0.5, 1.0):
        factors = factorize(gram20, tildes, theta)
        direct = rmsre(gram20, factors)
        formula = factors.rmsre
        worst_gap = max(
            worst_gap,
            abs(direct - formula) - 1e-8 * max(direct, formula),
        )
    ok = worst_gap <= floor
    _report(
        2, "reconstruction-error formula", ok,
        f"max |direct - formula| {worst_gap:.2e} vs roundoff floor "
        f"{floor:.2e} over theta in (0.05, 0.2, 0.5, 1.0), M=20, h=1/8",
    )


def test_criterion_03_full_rank_update_solves_match_direct(
        problem20, gram20, weights8):
    # with k at the Gram numerical rank the update-formula path must
    # reproduce every direct solve
    t0 = time.perf_counter()
    system = problem20["system"]
    rank = numerical_rank(gram20)
    factors = factorize(gram20, system.A_tildes, rank / gram20.n_full)
    mean_factor = factor_mean(system)
    worst = 0.0
    for m in range(20):
        x_smw = solve_sample_smw(mean_factor, factors, m).x
        x_dir = solve_sample_direct(system, m).x
        worst = max(worst, xnorm(x_smw - x_dir, weights8)
                    / xnorm(x_dir, weights8))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 60.0
    _report(
        3, "full-rank update equals direct", ok,
        f"max relative energy-norm gap {worst:.2e} (tol 1e-8) over 20 "
        f"samples at k=rank={rank}, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_04_mean_plus_perturbation_splitting_is_exact(
        problem20, mesh8, params, kl8):
    # assembling at the sampled conductivity with the slip coefficient
    # frozen at the mean field must equal mean matrix + perturbation
    raw = problem20["raw"]
    totals, _ = realize_conductivity(kl8, problem20["samples"].coefficients)
    worst = 0.0
    for m in range(5):
        a_full, _ = assemble_mean(mesh8, params, totals[m],
                                  delta_from=kl8.mean_nodal)
        split = raw.A_bar + raw.A_tildes[m]
        gap = abs(a_full - split).max()
        worst = max(worst, gap / abs(a_full).max())
    ok = worst <= 1e-12
    _report(
        4, "additive matrix splitting", ok,
        f"max entrywise relative gap {worst:.2e} (tol 1e-12) over 5 "
        f"sampled conductivities, h=1/8",
    )


def test_criterion_05_field_truncation_on_refined_grid():
    # pinned truncation length and retained-energy ratio on the h=1/16
    # grid at tolerance 0.01
    t0 = time.perf_counter()
    mesh16 = build_mesh(n=16)
    kl16 = build_kl(CovarianceKernel(correlation_length_sq=0.2), mesh16,
                    epsilon=0.01)
    elapsed = time.perf_counter() - t0
    ok = (kl16.T == 9
          and abs(kl16.energy_ratio - 0.9918) <= 5e-3
          and elapsed <= 30.0)
    _report(
        5, "field truncation at h=1/16", ok,
        f"T={kl16.T} (expect 9), retained energy {kl16.energy_ratio:.6f} "
        f"(expect 0.9918 +/- 0.005), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_06_moment_accuracy_plateau_over_theta(plateau):
    # mean-estimate error is flat across generous ratios (all of them at
    # or below solver noise) and two orders worse at theta = 0.05, where
    # the porous-side error dominates the free-flow error
    sweeps, floor = plateau["sweeps"], plateau["floor"]
    errs = [sweeps[lbl][0] for lbl in ("1.0", "0.7", "0.5", "select")]
    hi, lo = max(errs), min(errs)
    plateau_ok = hi <= floor or hi <= 1.05 * lo
    rough_total, rough_darcy, rough_stokes = sweeps["0.05"]
    separation_ok = rough_total >= 100.0 * hi
    darcy_ok = rough_total <= floor or rough_darcy >= rough_stokes
    ok = plateau_ok and separation_ok and darcy_ok
    _report(
        6, "accuracy plateau over theta", ok,
        f"plateau errors {lo:.2e}..{hi:.2e} (within 5% or under noise "
        f"floor {floor:.2e}); theta=0.05 error {rough_total:.2e} "
        f">= 100x plateau; porous {rough_darcy:.2e} >= free-flow "
        f"{rough_stokes:.2e}; M=200, h=1/8",
    )


def test_criterion_07_energy_selected_theta_diagnostics(plateau):
    # the energy rule lands at or below the numerical rank, just above a
    # genuine spectral cliff, and its solves stay on the plateau
    k_sel, rank = plateau["k_sel"], plateau["rank"]
    w = np.clip(plateau["gram"].eigenvalues, 0.0, None)
    cliff = float(w[k_sel] / w[0]) if k_sel < w.size else 0.0
    select_err = plateau["sweeps"]["select"][0]
    ok = (k_sel <= rank and cliff <= 1e-10
          and select_err <= plateau["floor"])
    _report(
        7, "energy-based theta selection", ok,
        f"k={k_sel} <= rank={rank}, lambda_(k+1)/lambda_1 = {cliff:.2e} "
        f"(tol 1e-10), selected-theta mean error {select_err:.2e} under "
        f"noise floor {plateau['floor']:.2e}",
    )


def test_criterion_08_monte_carlo_convergence_rate(tmp_path):
    # nested estimates against an independent 800-sample direct
    # reference: mean error decays near M^(-1/2), variance error shrinks
    cfg = RunConfig(M_ref=800, m_list=(50, 100, 200, 400), seed=1234,
                    output_dir=str(tmp_path)).validate()
    t0 = time.perf_counter()
    rc = cmd_convergence(cfg)
    elapsed = time.perf_counter() - t0
    rows = [ln.split(",") for ln in
            (tmp_path / "convergence.csv").read_text(
                encoding="utf-8").splitlines()[1:] if ln]
    ms = [int(r[0]) for r in rows]
    err_mean = [float(r[1]) for r in rows]
    err_var = [float(r[2]) for r in rows]
    slope = loglog_slope(ms, err_mean)
    var_decreasing = all(b < a for a, b in zip(err_var, err_var[1:]))
    ok = (rc == 0 and ms == [50, 100, 200, 400]
          and abs(slope - (-0.5)) <= 0.15
          and var_decreasing and elapsed <= 600.0)
    var_word = "strictly decreasing" if var_decreasing else "NOT decreasing"
    _report(
        8, "Monte Carlo convergence rate", ok,
        f"mean-error slope {slope:.4f} (expect -0.5 +/- 0.15), variance "
        f"errors {var_word} over M={ms}, {elapsed:.0f}s (budget 600s)",
    )


def test_criterion_09_storage_reduction_formula(plateau):
    # reported storage ratio equals theta_effective * (1 + 1/M) and
    # matches a direct count of the floats of an N x k U and M N x k V_m
    # (the oracle's arrays: the factors hold only their nonzero blocks)
    worst_count_rel = 0.0
    formula_exact = True
    gram = plateau["gram"]
    for factors in plateau["factors"].values():
        expected = factors.theta_effective * (1.0 + 1.0 / factors.M)
        formula_exact &= factors.storage_reduction == expected
        stored = dense_u(factors, gram).size + sum(
            right_factor(factors, m, gram).size for m in range(factors.M))
        counted = stored / (factors.M * factors.n_full ** 2)
        worst_count_rel = max(
            worst_count_rel,
            abs(factors.storage_reduction - counted) / counted,
        )
    ok = formula_exact and worst_count_rel <= 1e-12
    _report(
        9, "storage reduction formula", ok,
        f"storage_reduction == theta_eff*(1+1/M) exactly: {formula_exact}; "
        f"vs counted array sizes rel {worst_count_rel:.2e} (tol 1e-12) "
        f"over 5 factorizations at M=200",
    )


def test_criterion_10_quadrature_degree_five_exactness():
    # both rules integrate every monomial through degree 5 exactly on 50
    # random triangles and 50 random segments, against exact rational
    # integrals
    rng = np.random.default_rng(11)
    tri, edge = triangle_rule_7pt(), edge_rule_3pt()
    worst_viol = -np.inf
    worst_rel = 0.0
    for _ in range(50):
        verts = random_triangle(rng)
        pts, w = map_triangle(tri, verts)
        p0, p1 = rng.uniform(-2.0, 2.0, size=(2, 2))
        spts, sw = map_segment(edge, p0, p1)
        for p in range(6):
            for q in range(6 - p):
                for points, wts, exact in (
                    (pts, w, exact_triangle_integral(verts, p, q)),
                    (spts, sw, exact_segment_integral(p0, p1, p, q)),
                ):
                    exact = float(exact)
                    approx = float(np.sum(
                        wts * points[:, 0] ** p * points[:, 1] ** q))
                    gap = abs(approx - exact)
                    worst_viol = max(
                        worst_viol, gap - (1e-12 * abs(exact) + 1e-14)
                    )
                    if abs(exact) > 1e-10:
                        worst_rel = max(worst_rel, gap / abs(exact))
    ok = worst_viol <= 0.0
    _report(
        10, "degree-5 quadrature exactness", ok,
        f"100 random elements x 21 monomials: worst relative error "
        f"{worst_rel:.2e} (tol 1e-12, absolute floor 1e-14 near zero "
        f"integrals), worst tolerance violation {worst_viol:+.2e}",
    )
