"""Sample solvers: Woodbury updates against direct sparse solves."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs

from sdlowrank import (
    GlramFactors,
    IllConditionedUpdateError,
    SampleSolution,
    SingularSystemError,
    SplitSystem,
    factor_mean,
    factorize,
    load_solutions,
    pin_pressure_dof,
    save_solutions,
    solve_sample_direct,
    solve_sample_smw,
)


def _toy_system(a, b, n1=1, n2=1, n3=0, tildes=()):
    return SplitSystem(A_bar=sp.csr_matrix(a), b=np.asarray(b, dtype=float),
                       A_tildes=list(tildes), N1=n1, N2=n2, N3=n3)


def _toy_factors(u, v_list, col_dim=None):
    u = np.atleast_2d(np.asarray(u, dtype=float))
    k = u.shape[1]
    return GlramFactors(
        U=u, V=[np.asarray(v, dtype=float) for v in v_list], k=k,
        theta=k / u.shape[0], eigenvalues=np.ones(k), rmsre=0.0,
        energy_ratio=1.0, block_dim=u.shape[0], n_full=u.shape[0],
        col_dim=col_dim,
    )


def _full_row_smw(mean, factors, m):
    """Oracle: the Woodbury solve over all N rows of V_m.

    Returns (x, capacitance condition estimate).
    """
    v = factors.V[m]
    z = mean.z_for(factors)
    c = np.eye(factors.k) + v.T @ z
    lu, piv = scipy.linalg.lu_factor(c)
    gecon = get_lapack_funcs(("gecon",), (lu,))[0]
    rcond, _ = gecon(lu, np.linalg.norm(c, 1), norm="1")
    y = scipy.linalg.lu_solve((lu, piv), v.T @ mean.x_bar)
    return mean.x_bar - z @ y, 1.0 / rcond


# ---------------------------------------------------------------------------
# Woodbury identity
# ---------------------------------------------------------------------------

def test_rank_one_update_hand_case():
    # Abar = I, U = e1, V = 2*e1: the sample matrix is diag(3, 1, 1), so
    # only the first solution entry changes, to b1/3
    b = np.array([6.0, -1.5, 2.0])
    system = _toy_system(np.eye(3), b)
    mean = factor_mean(system)
    factors = _toy_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.array([[2.0], [0.0], [0.0]])])
    sol = solve_sample_smw(mean, factors, 0)
    assert sol.x == pytest.approx([2.0, -1.5, 2.0], rel=1e-14)
    assert sol.sample_index == 0
    assert sol.capacitance_cond == pytest.approx(1.0, rel=1e-12)


def test_zero_right_factor_returns_mean_solution():
    b = np.array([1.0, 2.0, 3.0])
    system = _toy_system(np.diag([2.0, 4.0, 5.0]), b)
    mean = factor_mean(system)
    factors = _toy_factors(np.array([[1.0], [1.0], [0.0]]),
                           [np.zeros((3, 1))])
    sol = solve_sample_smw(mean, factors, 0)
    assert np.array_equal(sol.x, mean.x_bar)


def test_shared_solve_cached_per_family():
    system = _toy_system(np.eye(3), np.ones(3))
    mean = factor_mean(system)
    factors = _toy_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.zeros((3, 1)), np.zeros((3, 1))])
    z1 = mean.z_for(factors)
    z2 = mean.z_for(factors)
    assert z1 is z2
    # identity mean matrix: Z must reproduce U itself
    assert np.allclose(z1, factors.U, atol=1e-14)

    # switching to another family yields that family's own Z, and
    # switching back recomputes Abar^{-1} U_1
    other = _toy_factors(np.array([[0.0], [0.6], [0.8]]),
                         [np.zeros((3, 1)), np.zeros((3, 1))])
    z_other = mean.z_for(other)
    assert np.allclose(z_other, other.U, atol=1e-14)
    assert not np.allclose(z_other, z1)
    assert np.allclose(mean.z_for(factors), factors.U, atol=1e-14)


def test_matches_dense_woodbury_on_random_system():
    rng = np.random.default_rng(8)
    n, k = 8, 2
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=n)
    u, _ = np.linalg.qr(rng.normal(size=(n, k)))
    v_list = [rng.normal(size=(n, k)) * 0.3 for _ in range(3)]
    system = _toy_system(a, b, n1=3, n2=2, n3=1)
    mean = factor_mean(system)
    factors = _toy_factors(u, v_list)
    for m, v in enumerate(v_list):
        expect = np.linalg.solve(a + u @ v.T, b)
        sol = solve_sample_smw(mean, factors, m)
        err = np.linalg.norm(sol.x - expect) / np.linalg.norm(expect)
        assert err <= 1e-10, f"sample {m}: {err:.3e}"
        assert np.isfinite(sol.capacitance_cond)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 10), st.data())
def test_smw_matches_dense_solve_on_random_column_support(n, data):
    # V_m vanishes below a random col_dim < N; the solve over the first
    # col_dim rows and the one over all rows (col_dim=None) must both
    # reproduce the dense solve of (Abar + U V_m^T) x = b
    k = data.draw(st.integers(1, n), label="k")
    col_dim = data.draw(st.integers(0, n - 1), label="col_dim")
    M = data.draw(st.integers(1, 3), label="M")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=n)
    u, _ = np.linalg.qr(rng.normal(size=(n, k)))
    v_list = [0.3 * rng.normal(size=(n, k)) for _ in range(M)]
    for v in v_list:
        v[col_dim:] = 0.0
    mean = factor_mean(_toy_system(a, b, n1=n, n2=0))
    for rows in (col_dim, None):
        factors = _toy_factors(u, v_list, col_dim=rows)
        for m, v in enumerate(v_list):
            expect = np.linalg.solve(a + u @ v.T, b)
            x = solve_sample_smw(mean, factors, m).x
            err = np.linalg.norm(x - expect) / np.linalg.norm(expect)
            assert err <= 1e-10, f"col_dim={rows}, sample {m}: {err:.3e}"


@pytest.mark.parametrize("theta", [0.3, 1.0])
def test_column_support_solve_matches_full_row_formula(problem20, gram20,
                                                       theta):
    # k = 152 and 459 both exceed the column support c = 135
    system = problem20["system"]
    factors = factorize(gram20, system.A_tildes, theta)
    assert factors.col_dim < factors.k
    mean = factor_mean(system)
    for m in range(factors.M):
        sol = solve_sample_smw(mean, factors, m)
        x, cond = _full_row_smw(mean, factors, m)
        err = np.linalg.norm(sol.x - x) / np.linalg.norm(x)
        assert err <= 1e-12, f"sample {m}: {err:.3e}"
        assert sol.capacitance_cond == pytest.approx(cond, rel=1e-12)


def test_full_rank_update_matches_direct_on_coupled_problem(problem20,
                                                            gram20):
    system = problem20["system"]
    factors = factorize(gram20, system.A_tildes, theta=1.0)
    mean = factor_mean(system)
    for m in (0, 9, 19):
        smw = solve_sample_smw(mean, factors, m)
        direct = solve_sample_direct(system, m)
        err = (np.linalg.norm(smw.x - direct.x)
               / np.linalg.norm(direct.x))
        assert err <= 1e-8, f"sample {m}: {err:.3e}"


def test_smw_deterministic(problem20, gram20):
    system = problem20["system"]
    factors = factorize(gram20, system.A_tildes, theta=0.3)
    mean = factor_mean(system)
    a = solve_sample_smw(mean, factors, 5)
    b = solve_sample_smw(mean, factors, 5)
    assert np.array_equal(a.x, b.x)
    # fresh factorization objects reproduce the same numbers
    mean2 = factor_mean(system)
    factors2 = factorize(gram20, system.A_tildes, theta=0.3)
    c = solve_sample_smw(mean2, factors2, 5)
    assert np.array_equal(a.x, c.x)


def test_singular_capacitance_rejected():
    # U = e1, V = -e1 drives the sample matrix to diag(0, 1, 1)
    system = _toy_system(np.eye(3), np.ones(3))
    mean = factor_mean(system)
    factors = _toy_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.array([[-1.0], [0.0], [0.0]])])
    with pytest.raises(IllConditionedUpdateError, match="sample 0"):
        solve_sample_smw(mean, factors, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_right_factor_is_a_singular_system(bad):
    system = _toy_system(np.eye(3), np.ones(3))
    mean = factor_mean(system)
    factors = _toy_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.array([[bad], [0.0], [0.0]])])
    with pytest.raises(SingularSystemError, match="sample 0: non-finite"):
        solve_sample_smw(mean, factors, 0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_mean_solution_is_a_singular_system():
    mean = factor_mean(_toy_system(np.eye(3), np.ones(3)))
    mean.x_bar = np.array([np.inf, 1.0, 1.0])
    factors = _toy_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.array([[2.0], [0.0], [0.0]])])
    with pytest.raises(SingularSystemError, match="sample 0: non-finite"):
        solve_sample_smw(mean, factors, 0)


def test_sample_index_validation(problem20, gram20):
    system = problem20["system"]
    factors = factorize(gram20, system.A_tildes, theta=0.05)
    mean = factor_mean(system)
    with pytest.raises(IndexError):
        solve_sample_smw(mean, factors, -1)
    with pytest.raises(IndexError):
        solve_sample_smw(mean, factors, 20)
    with pytest.raises(IndexError):
        solve_sample_direct(system, 20)


# ---------------------------------------------------------------------------
# mean factorization and the direct path
# ---------------------------------------------------------------------------

def test_mean_solution_satisfies_system(problem20):
    system = problem20["system"]
    mean = factor_mean(system)
    resid = np.linalg.norm(system.A_bar @ mean.x_bar - system.b)
    assert resid <= 1e-10 * np.linalg.norm(system.b)
    assert mean.N == system.N


def test_direct_solve_with_zero_perturbation(problem20):
    system = problem20["system"]
    zero = sp.csr_matrix(system.A_bar.shape)
    probe = SplitSystem(A_bar=system.A_bar, b=system.b, A_tildes=[zero],
                        N1=system.N1, N2=system.N2, N3=system.N3)
    mean = factor_mean(system)
    sol = solve_sample_direct(probe, 0)
    assert np.allclose(sol.x, mean.x_bar, rtol=1e-12, atol=1e-14)


def test_direct_solve_residual(problem20):
    system = problem20["system"]
    sol = solve_sample_direct(system, 3)
    a = system.A_bar + system.A_tildes[3]
    resid = np.linalg.norm(a @ sol.x - system.b)
    assert resid <= 1e-9 * np.linalg.norm(system.b)


def test_structurally_singular_mean_is_diagnosed():
    a = sp.coo_matrix(([1.0, 1.0], ([0, 2], [0, 2])), shape=(3, 3)).tocsr()
    system = _toy_system(a, np.ones(3))
    with pytest.raises(SingularSystemError, match="DOF 1"):
        factor_mean(system)


def test_pin_pressure_recovers_floating_pressure_level():
    # head and velocity blocks regular, pressure row/column empty: the
    # factorization must fail with a hint, and pinning must fix it
    a = sp.diags([1.0, 1.0, 1.0, 0.0]).tocsr()
    system = _toy_system(a, np.array([1.0, 2.0, 3.0, 0.0]),
                         n1=1, n2=1, n3=1)
    with pytest.raises(SingularSystemError, match="pin_pressure"):
        factor_mean(system)
    mean = factor_mean(system, pin_pressure=True)
    assert mean.x_bar == pytest.approx([1.0, 2.0, 3.0, 0.0])


def test_pin_pressure_dof_mechanics(problem20):
    system = problem20["system"]
    pinned = pin_pressure_dof(system)
    dof = system.N1 + 2 * system.N2
    row = pinned.A_bar[dof].toarray().ravel()
    expect = np.zeros(system.N)
    expect[dof] = 1.0
    assert np.array_equal(row, expect)
    assert np.array_equal(pinned.A_bar[:, dof].toarray().ravel(), expect)
    assert pinned.b[dof] == 0.0
    assert (dof, 0.0) in pinned.constraints
    # the original system is untouched
    assert (dof, 0.0) not in system.constraints
    assert len(pinned.constraints) == len(system.constraints) + 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_save_load_solutions_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    sols = [SampleSolution(x=rng.normal(size=6), sample_index=i)
            for i in (0, 3, 4)]
    path = tmp_path / "solutions.csv"
    save_solutions(path, sols)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample," + ",".join(f"x{j}" for j in range(6))
    loaded = load_solutions(path)
    assert [s.sample_index for s in loaded] == [0, 3, 4]
    for a, b in zip(sols, loaded):
        assert np.array_equal(a.x, b.x)
