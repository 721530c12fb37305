"""Moment estimation and combined norms."""

import numpy as np
import pytest

from sdlowrank import (
    SampleSolution,
    estimate_moments,
    loglog_slope,
    p1_pressure_mass,
    p2_mass,
    p2_stiffness,
    write_moments,
    xnorm,
    xnorm_components,
)

from _oracles import two_pass_moments


# ---------------------------------------------------------------------------
# moment estimation
# ---------------------------------------------------------------------------

def test_single_sample_moments():
    x = np.array([1.0, -2.0, 3.0])
    est = estimate_moments([x])
    assert np.array_equal(est.mean, x)
    assert np.array_equal(est.variance_self, np.zeros(3))
    assert est.M == 1
    ref = np.array([0.5, 0.5, 0.5])
    est_ref = estimate_moments([x], reference_mean=ref)
    assert np.allclose(est_ref.variance, (x - ref) ** 2)
    assert np.array_equal(est_ref.variance_self, np.zeros(3))


def test_opposite_pair_moments():
    x = np.array([2.0, -4.0])
    est = estimate_moments([x, -x])
    assert np.allclose(est.mean, 0.0)
    # denominator-M variance about the zero mean
    assert np.allclose(est.variance, x * x)
    assert np.allclose(est.variance_self, x * x)


def test_moments_match_two_pass_oracle():
    rng = np.random.default_rng(17)
    samples = rng.normal(size=(100, 12)) * 3.0 + 1.0
    est = estimate_moments(list(samples))
    mean, var = two_pass_moments(samples)
    assert np.allclose(est.mean, mean, rtol=1e-13, atol=1e-13)
    assert np.allclose(est.variance_self, var, rtol=1e-12, atol=1e-13)
    assert np.allclose(est.variance, var, rtol=1e-12, atol=1e-13)

    ref = rng.normal(size=12)
    est_ref = estimate_moments(list(samples), reference_mean=ref)
    _, var_ref = two_pass_moments(samples, center=ref)
    assert np.allclose(est_ref.variance, var_ref, rtol=1e-12, atol=1e-13)
    # the self-centered diagnostic is unchanged by the reference
    assert np.allclose(est_ref.variance_self, var, rtol=1e-12, atol=1e-13)


def test_accepts_solution_objects():
    rng = np.random.default_rng(23)
    xs = rng.normal(size=(5, 4))
    plain = estimate_moments(list(xs))
    wrapped = estimate_moments(
        [SampleSolution(x=x, sample_index=i) for i, x in enumerate(xs)]
    )
    assert np.array_equal(plain.mean, wrapped.mean)
    assert np.array_equal(plain.variance, wrapped.variance)


def test_moment_validation():
    with pytest.raises(ValueError, match="no samples"):
        estimate_moments([])
    with pytest.raises(ValueError, match="shape"):
        estimate_moments([np.ones(3), np.ones(4)])
    with pytest.raises(ValueError, match="reference"):
        estimate_moments([np.ones(3)], reference_mean=np.ones(2))


# ---------------------------------------------------------------------------
# combined norm
# ---------------------------------------------------------------------------

def test_xnorm_weights_are_the_norm_matrices(mesh8, weights8):
    # one geometry table per space gives the matrices each helper builds
    # from its own tables, bit for bit
    expect = [p2_stiffness(mesh8, "head") + p2_mass(mesh8, "head"),
              p2_stiffness(mesh8, "velocity") + p2_mass(mesh8, "velocity"),
              p1_pressure_mass(mesh8)]
    got = [weights8.h1_head, weights8.h1_vel, weights8.l2_pres]
    for g, e in zip(got, expect):
        e = e.tocsr()
        for a, b in ((g.indptr, e.indptr), (g.indices, e.indices),
                     (g.data, e.data)):
            assert np.array_equal(a, b)


def test_xnorm_zero_vector(mesh8, weights8):
    total, head, flow = xnorm_components(np.zeros(mesh8.N), weights8)
    assert total == head == flow == 0.0


def test_xnorm_constant_blocks(mesh8, weights8):
    # a constant c on one scalar block has zero gradient energy and mass
    # energy c^2 * area, area = 1/2 for every block's domain
    c = 3.0
    v = np.zeros(mesh8.N)
    v[mesh8.sl_head] = c
    total, head, flow = xnorm_components(v, weights8)
    assert head == pytest.approx(c * np.sqrt(0.5), rel=1e-12)
    assert flow == 0.0
    assert total == pytest.approx(head, rel=1e-14)

    v = np.zeros(mesh8.N)
    v[mesh8.sl_u1] = c
    total, head, flow = xnorm_components(v, weights8)
    assert flow == pytest.approx(c * np.sqrt(0.5), rel=1e-12)
    assert head == 0.0

    v = np.zeros(mesh8.N)
    v[mesh8.sl_pres] = c
    total, head, flow = xnorm_components(v, weights8)
    assert flow == pytest.approx(c * np.sqrt(0.5), rel=1e-12)

    v = np.full(mesh8.N, c)
    total, _, _ = xnorm_components(v, weights8)
    assert total == pytest.approx(c * np.sqrt(2.0), rel=1e-12)


def test_xnorm_homogeneity_and_pythagoras(mesh8, weights8):
    rng = np.random.default_rng(31)
    v = rng.normal(size=mesh8.N)
    total, head, flow = xnorm_components(v, weights8)
    assert total == pytest.approx(np.hypot(head, flow), rel=1e-13)
    assert xnorm(-2.5 * v, weights8) == pytest.approx(2.5 * total, rel=1e-13)
    with pytest.raises(ValueError):
        xnorm(np.zeros(mesh8.N + 1), weights8)


# ---------------------------------------------------------------------------
# convergence-rate fitting and output
# ---------------------------------------------------------------------------

def test_loglog_slope_exact_power_law():
    ms = np.array([25, 50, 100, 200, 400])
    errors = 3.0 * ms ** -0.5
    assert loglog_slope(ms, errors) == pytest.approx(-0.5, abs=1e-12)
    errors = 7.0 / ms
    assert loglog_slope(ms, errors) == pytest.approx(-1.0, abs=1e-12)


def test_loglog_slope_validation():
    with pytest.raises(ValueError):
        loglog_slope([10.0], [1.0])
    with pytest.raises(ValueError):
        loglog_slope([10.0, 20.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        loglog_slope([10.0, 20.0], [1.0, 1.0, 1.0])
    # one distinct M leaves the slope undetermined
    with pytest.raises(ValueError, match="two distinct M"):
        loglog_slope([10.0, 10.0], [1.0, 0.5])


def test_write_moments(tmp_path, mesh8):
    rng = np.random.default_rng(47)
    est = estimate_moments(list(rng.normal(size=(3, mesh8.N))), mesh=mesh8)
    path = tmp_path / "moments.csv"
    write_moments(path, est)
    lines = path.read_text().splitlines()
    assert lines[0] == "dof,block,x,y,mean,variance,variance_self"
    assert len(lines) == 1 + mesh8.N
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "head"
    last = lines[-1].split(",")
    assert last[1] == "pressure"
    assert float(last[4]) == pytest.approx(est.mean[-1], rel=1e-11)


def test_write_moments_without_mesh(tmp_path):
    est = estimate_moments([np.ones(4), 3.0 * np.ones(4)])
    path = tmp_path / "bare.csv"
    write_moments(path, est)
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    assert lines[1].split(",")[1] == "dof"
