"""Truncated KL expansion: Nystrom discretization, truncation, sampling."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from sdlowrank import (
    CovarianceKernel,
    TRUNCATION_BOUND,
    build_kl,
    build_mesh,
    draw_samples,
    nystrom_eigenpairs,
    realize_conductivity,
)
from sdlowrank import randfield


def test_kernel_values():
    cov = CovarianceKernel(correlation_length_sq=0.2)
    pts = np.array([[0.0, 0.0], [0.3, 0.4]])
    mat = cov(pts, pts)
    assert mat.shape == (2, 2)
    assert mat[0, 0] == mat[1, 1] == 1.0
    # |x-y|^2 = 0.25 -> exp(-0.25/0.2)
    assert mat[0, 1] == pytest.approx(np.exp(-1.25), rel=1e-15)
    assert mat[1, 0] == mat[0, 1]


@pytest.mark.parametrize("n", [8, 16, 24])
def test_kernel_distances_match_cdist(n):
    # the broadcast sum of squares is cdist's "sqeuclidean", bit for bit
    from scipy.spatial.distance import cdist

    pts = build_mesh(n=n).darcy_vertices
    cov = CovarianceKernel(correlation_length_sq=0.2)
    ref = np.exp(-cdist(pts, pts, metric="sqeuclidean") / 0.2)
    assert np.array_equal(cov(pts, pts), ref)
    assert np.array_equal(cov(pts[:5], pts), ref[:5])


def test_nystrom_two_node_oracle():
    # two nodes with equal weights w: the symmetrised operator is
    # w*[[1, c], [c, 1]] with eigenvalues w*(1 +/- c), derivable by hand
    c, w = 0.37, 0.25
    cov = np.array([[1.0, c], [c, 1.0]])
    lam, funcs = nystrom_eigenpairs(cov, np.array([w, w]))
    assert lam == pytest.approx([w * (1 + c), w * (1 - c)], rel=1e-14)
    # eigenfunctions are (1, 1) and (1, -1) up to weighted normalisation
    assert abs(funcs[0, 0]) == pytest.approx(abs(funcs[1, 0]), rel=1e-12)
    assert funcs[0, 1] == pytest.approx(-funcs[1, 1], rel=1e-12)


def test_nystrom_trace_and_det_with_unequal_weights():
    # trace and determinant of W^(1/2) C W^(1/2) are hand-computable even
    # when the closed-form eigenvalues are not
    c, w1, w2 = 0.6, 0.2, 0.7
    cov = np.array([[1.0, c], [c, 1.0]])
    lam, _ = nystrom_eigenpairs(cov, np.array([w1, w2]))
    assert lam.sum() == pytest.approx(w1 + w2, rel=1e-14)
    assert lam[0] * lam[1] == pytest.approx(w1 * w2 * (1 - c * c), rel=1e-13)


def test_nystrom_validation():
    cov = np.eye(3)
    with pytest.raises(ValueError):
        nystrom_eigenpairs(cov, np.ones(2))
    with pytest.raises(ValueError):
        nystrom_eigenpairs(cov, np.array([1.0, -1.0, 1.0]))


def test_modes_weighted_orthonormal(kl8):
    gram = kl8.modes.T @ (kl8.weights[:, None] * kl8.modes)
    assert np.allclose(gram, np.eye(kl8.T), atol=1e-10)


def test_truncation_minimality(kl8):
    # T is the smallest truncation reaching the energy target
    total = kl8.spectrum.sum()
    cum = np.cumsum(kl8.spectrum) / total
    assert cum[kl8.T - 1] >= 0.99
    assert cum[kl8.T - 2] < 0.99
    assert kl8.energy_ratio == pytest.approx(cum[kl8.T - 1], rel=1e-14)
    assert np.all(np.diff(kl8.eigenvalues) <= 0)
    assert np.all(kl8.eigenvalues > 0)
    assert kl8.modes.shape == (kl8.nodes.shape[0], kl8.T)


def test_weights_sum_to_domain_area(kl8):
    assert kl8.weights.sum() == pytest.approx(0.5, rel=1e-13)


def test_build_kl_epsilon_validation(mesh8):
    cov = CovarianceKernel()
    with pytest.raises(ValueError, match="epsilon"):
        build_kl(cov, mesh8, epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        build_kl(cov, mesh8, epsilon=1.0)
    # a near-constant kernel is numerically rank deficient, so a demand
    # beyond its positive spectrum must be refused rather than padded
    flat = CovarianceKernel(correlation_length_sq=1e6)
    with pytest.raises(ValueError, match="unreachable"):
        build_kl(flat, mesh8, epsilon=1e-15)


def test_draw_samples_deterministic(kl8):
    a = draw_samples(kl8, M=6, seed=77)
    b = draw_samples(kl8, M=6, seed=77)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.rejected_fields == b.rejected_fields
    c = draw_samples(kl8, M=6, seed=78)
    assert not np.array_equal(a.coefficients, c.coefficients)


def test_draw_samples_validation(kl8):
    with pytest.raises(ValueError):
        draw_samples(kl8, M=0, seed=1)


def test_coefficients_respect_truncation_bound(kl8):
    s = draw_samples(kl8, M=50, seed=3)
    assert s.coefficients.shape == (50, kl8.T)
    assert np.all(np.abs(s.coefficients) <= TRUNCATION_BOUND)


def test_unconstrained_moments_match_truncated_normal(kl8):
    # before the positivity guard the coefficients are i.i.d. standard
    # normal conditioned on [-3, 3] with no renormalisation
    coeffs = randfield._truncated_normal(np.random.default_rng(11),
                                         (4000, kl8.T))
    pool = coeffs.ravel()
    dist = stats.truncnorm(-TRUNCATION_BOUND, TRUNCATION_BOUND)
    n = pool.size
    assert pool.mean() == pytest.approx(0.0, abs=4 * dist.std() / np.sqrt(n))
    assert pool.var() == pytest.approx(dist.var(), rel=0.02)
    # tail mass just inside the bound must be populated: renormalising the
    # variance instead of plain rejection would shrink it noticeably
    assert np.abs(pool).max() > 2.5


def test_positivity_guard(kl8):
    s = draw_samples(kl8, M=20, seed=1234)
    total, _ = realize_conductivity(kl8, s.coefficients)
    assert total.min() > 0.0
    assert s.rejected_fields >= 0


def test_positivity_retry_exhaustion(kl8, monkeypatch):
    # every perturbation is below 3 * sum_t sqrt(lambda_t) |r_t| < 10 in
    # magnitude, so no field of mean -10 is positive: all rounds run out
    negative = replace(kl8, mean_nodal=-10.0 * kl8.mean_nodal)
    with pytest.raises(RuntimeError, match="after 1000 rounds"):
        draw_samples(negative, M=50, seed=5)
    # with a mean this close to zero most fields are non-positive
    # somewhere; held to one round, the guard must give up
    kl = replace(kl8, mean_nodal=np.full_like(kl8.mean_nodal, 1e-9))
    monkeypatch.setattr(randfield, "_POSITIVITY_ROUNDS", 1)
    with pytest.raises(RuntimeError, match="positivity"):
        draw_samples(kl, M=50, seed=5)


def test_realize_batch_matches_single(kl8):
    s = draw_samples(kl8, M=4, seed=21)
    total_b, tilde_b = realize_conductivity(kl8, s.coefficients)
    assert total_b.shape == tilde_b.shape == (4, kl8.nodes.shape[0])
    for m in range(4):
        # batched and single evaluations use different BLAS kernels, so
        # agreement is to rounding, not bitwise
        total_1, tilde_1 = realize_conductivity(kl8, s.coefficients[m])
        assert np.allclose(total_1, total_b[m], rtol=1e-13, atol=1e-15)
        assert np.allclose(tilde_1, tilde_b[m], rtol=1e-13, atol=1e-15)
    assert np.allclose(total_b, kl8.mean_nodal + tilde_b)


def test_realize_shape_validation(kl8):
    with pytest.raises(ValueError):
        realize_conductivity(kl8, np.zeros(kl8.T + 1))
    with pytest.raises(ValueError):
        realize_conductivity(kl8, np.zeros((2, 3, kl8.T)))


def test_realize_warns_on_nonpositive_field(kl8):
    # drive the field negative at node 0 by aiming the coefficients along
    # that node's row of the scaled mode matrix
    row = kl8.scaled_modes[0]
    coeffs = -2.0 * kl8.mean_nodal[0] * row / np.dot(row, row)
    with pytest.warns(RuntimeWarning, match="non-positive"):
        total, _ = realize_conductivity(kl8, coeffs)
    assert total[0] == pytest.approx(-kl8.mean_nodal[0], rel=1e-10)
