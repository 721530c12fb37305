"""Sample solvers: Woodbury updates against direct sparse solves."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import norm as spla_norm
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs

from _oracles import (direct_oracle, mean_solve, read_solutions,
                      right_factor, smw_reference)
from sdlowrank import (
    CovarianceKernel,
    Geometry,
    GlramFactors,
    IllConditionedUpdateError,
    PhysicalParams,
    SampleSolution,
    SingularSystemError,
    SplitSystem,
    assemble_family,
    build_gram,
    build_kl,
    build_mesh,
    draw_samples,
    factor_mean,
    factorize,
    numerical_rank,
    save_solutions,
    select_theta,
    solve_sample_direct,
    solve_sample_smw,
)
from sdlowrank.lowrank_solver import CAPACITANCE_COND_LIMIT


def _toy_system(a, b, n1=1, n2=1, n3=0, tildes=()):
    return SplitSystem(A_bar=sp.csr_matrix(a), b=np.asarray(b, dtype=float),
                       A_tildes=list(tildes), N1=n1, N2=n2, N3=n3)


# (darcy_rect, stokes_rect) of the porous rectangle below the free flow,
# and of a porous layer shallower than half its width
POROUS_BELOW = ((0.0, 1.0, -0.5, 0.0), (0.0, 1.0, 0.0, 0.5))
SHALLOW_POROUS = ((0.0, 1.0, 0.0, 0.25), (0.0, 1.0, -0.5, 0.0))


# physics off every default: nonzero elevation head, nu, g, alpha != 1
OTHER_PHYSICS = PhysicalParams(nu=2.0, g=1.5, alpha=0.25, z=1.0)


def _family(darcy_rect, stokes_rect, params=PhysicalParams()):
    """An n=8, M=20 constrained family on another geometry."""
    mesh = build_mesh(Geometry(darcy_rect=darcy_rect,
                               stokes_rect=stokes_rect), n=8)
    kl = build_kl(CovarianceKernel(correlation_length_sq=0.2), mesh,
                  epsilon=0.01)
    samples = draw_samples(kl, M=20, seed=1234)
    return assemble_family(mesh, params, kl, samples.coefficients)


def _toy_factors(u, v_list, col_dim=None):
    """Hand-built factors: sample m is basis element m (Y = I_M), and
    B_m, stored on the nonzero rows of U and the first col_dim columns
    (all when None), is pinv(U)^T V_m[:col_dim]^T there, so that
    B_m^T U = V_m[:col_dim] for U of full column rank."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    n, k = u.shape
    col_dim = n if col_dim is None else col_dim
    on_u = np.flatnonzero(u.any(axis=1))
    left = np.linalg.pinv(u)[:, on_u].T
    basis = np.array([(left @ np.asarray(v, dtype=float)[:col_dim].T).ravel()
                      for v in v_list])
    rows, cols = np.divmod(np.arange(on_u.size * col_dim), max(col_dim, 1))
    return GlramFactors(
        U=u, basis=basis.reshape(len(v_list), -1), rows=on_u[rows],
        cols=cols, col_dim=col_dim, Y=np.eye(len(v_list)), k=k, k_s=k,
        rmsre=0.0, energy_ratio=1.0, n_full=n,
    )


def _full_row_smw(mean, factors, m):
    """Oracle: the k x k Woodbury solve over all N rows and k columns
    of V_m, with its own Z = Abar^{-1} U from a fresh LU of Abar."""
    v = right_factor(factors, m)
    z = mean_solve(mean, factors.U)
    c = np.eye(factors.k) + v.T @ z
    y = scipy.linalg.solve(c, v.T @ mean.x_bar)
    return mean.x_bar - z @ y


def _cond_estimate(c, transposed=False):
    """Oracle: LAPACK's 1-norm condition estimate of a square matrix, from
    the LU of its transpose (gecon's infinity-norm estimate for c^T) when
    ``transposed``, as the package factors a row-major C_S."""
    lu, _ = scipy.linalg.lu_factor(c.T if transposed else c)
    gecon = get_lapack_funcs(("gecon",), (lu,))[0]
    rcond, _ = gecon(lu, np.linalg.norm(c, 1),
                     norm="I" if transposed else "1")
    return 1.0 / rcond


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


def test_empty_column_support_returns_mean_solution():
    # c = 0 < k = 2: W_0 has no rows, so the 2 x 2 capacitance matrix
    # is the identity, with condition 1, and the update vanishes
    system = _toy_system(np.diag([2.0, 4.0, 5.0]), np.array([1.0, 2.0, 3.0]))
    mean = factor_mean(system)
    u = np.eye(3)[:, :2]
    factors = _toy_factors(u, [np.zeros((3, 2))], col_dim=0)
    sol = solve_sample_smw(mean, factors, 0)
    assert np.array_equal(sol.x, mean.x_bar)
    assert sol.capacitance_cond == 1.0


def _state_bytes(state):
    """Z on its rows, X, the right sides, the CSR pattern of A_m[S, :c]
    and its entry order, plus U[S, :k_s] below |S|."""
    p = state.pattern
    held = [state.z, state.x, state.rhs, p.data, p.indices, p.indptr,
            state.order]
    if state.u_s is not None:
        held.append(state.u_s)
    return sum(a.nbytes for a in held)


def test_shared_solve_cached_per_family(problem20, gram20):
    # one Woodbury state per family: reused within it, rebuilt on a
    # switch (k_s = |S| = 135 in the coordinate basis, then a truncated
    # k_s in the basis of U, on the same support and pattern), and after
    # f0 -> f1 -> f0 the solutions are those of the first f0 pass, bit for
    # bit; the mean holds the live state's arrays only
    system = problem20["system"]
    f0 = factorize(gram20, system.A_tildes, select_theta(gram20)[0])
    f1 = factorize(gram20, system.A_tildes, theta=0.05)
    assert f1.k_s < f0.k_s == 135
    mean = factor_mean(system)
    passes, states = [], []
    for f in (f0, f1, f0):
        passes.append([solve_sample_smw(mean, f, m).x for m in range(f.M)])
        state = mean.woodbury(f)
        assert state.factors is f and mean.woodbury(f) is state
        assert all(state is not s for s in states)
        assert mean.nbytes == _state_bytes(state)
        states.append(state)
    assert states[0].u_s is None
    assert states[1].u_s.shape == (135, f1.k_s)
    assert np.array_equal(states[0].pattern.indices,
                          states[1].pattern.indices)
    assert _state_bytes(states[1]) < _state_bytes(states[0])
    assert all(np.array_equal(a, b) for a, b in zip(passes[0], passes[2]))
    assert not np.array_equal(passes[0][0], passes[1][0])


def _assembled_z(state, n):
    """Z = Abar^{-1} U[:, :k_s] from the state's Z[S] and X, with
    Z[T] = -X Z[S][I]."""
    z = np.empty((n, state.z_s.shape[1]))
    z[state.support] = state.z_s
    z[state.rest] = -(state.x @ state.z_s[state.coupled])
    return z


# ---------------------------------------------------------------------------
# Z by block elimination on the support of U
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("geometry", [None, POROUS_BELOW, SHALLOW_POROUS],
                         ids=["default", "porous-below", "shallow-porous"])
def test_block_elimination_matches_the_mean_solve(problem20, geometry):
    # at k_s = |S|, Z[S] from the Schur complement and Z[T] = -X Z[S][I]
    # reproduce an LU solve of Abar for the k_s identity columns on S; S
    # couples to T through the 2(2n - 1) = 30 interface columns I only
    system = (problem20["system"] if geometry is None
              else _family(*geometry))
    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    factors = factorize(gram, system.A_tildes, select_theta(gram)[0])
    mean = factor_mean(system)
    z = mean.woodbury(factors)
    assert np.array_equal(z.support, gram.support)
    assert z.z_s.shape == (gram.support.size, factors.k_s)
    assert z.x.shape == (mean.N - gram.support.size, 30)
    assert factors.k_s == gram.support.size
    ref = mean_solve(mean, np.eye(mean.N)[:, gram.support])
    assert (np.linalg.norm(_assembled_z(z, mean.N) - ref)
            <= 1e-12 * np.linalg.norm(ref))


def test_singular_rest_block_is_named():
    # U = e1, so S = {0} and T = {1, 2}; Abar[T, T] = diag(0, 1) is
    # singular, while Abar itself (determinant -1) is not
    a = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    mean = factor_mean(_toy_system(a, np.ones(3)))
    factors = _toy_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.zeros((3, 1))])
    with pytest.raises(SingularSystemError,
                       match=r"factorization of Abar\[T, T\] failed"):
        mean.woodbury(factors)


def _edge_case(case):
    """(Abar, U) with k_s = 0, with T empty, or with I empty."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 8.0 * np.eye(4)
    if case == "k_s=0":
        return a, np.zeros((4, 0))
    if case == "T empty":   # every row of U is nonzero
        return a, np.linalg.qr(rng.normal(size=(4, 2)))[0]
    a[2:, :2] = 0.0         # Abar[T, S] holds no entry: I is empty
    return a, np.eye(4)[:, :2]


@pytest.mark.parametrize("case", ["k_s=0", "T empty", "I empty"])
def test_block_elimination_edge_cases(case):
    a, u = _edge_case(case)
    b = np.arange(1.0, 5.0)
    mean = factor_mean(_toy_system(a, b, n1=4, n2=0))
    v = 0.3 * np.ones((4, u.shape[1]))
    factors = _toy_factors(u, [v])
    z = mean.woodbury(factors)
    expect = {"k_s=0": (0, 4, 0), "T empty": (4, 0, 0),
              "I empty": (2, 2, 0)}[case]
    assert (z.support.size, z.rest.size, z.coupled.size) == expect
    ref = mean_solve(mean, u)
    assert _assembled_z(z, 4).shape == u.shape
    assert np.allclose(_assembled_z(z, 4), ref, rtol=0.0, atol=1e-14)
    x = solve_sample_smw(mean, factors, 0).x
    dense = np.linalg.solve(a + u @ v.T, b)
    assert np.allclose(x, dense, rtol=1e-13, atol=0.0)


def test_non_finite_shared_factor_column_is_named():
    # U on two of three rows (k_s = |S|: the coordinate basis, which does
    # not solve with U) or on all three (k_s < |S|): either way a NaN in
    # U is rejected, naming its column, before any solve
    mean = factor_mean(_toy_system(np.eye(3), np.ones(3)))
    for u in (np.eye(3)[:, :2],
              np.linalg.qr(np.random.default_rng(2).normal(size=(3, 2)))[0]):
        factors = _toy_factors(u, [np.zeros((3, 2))])
        factors.U[0, 1] = np.nan
        with pytest.raises(SingularSystemError,
                           match="column 1 of the shared factor holds "
                                 "non-finite entries"):
            mean.woodbury(factors)


def test_held_bytes_at_n8(problem20, gram20):
    # the factors hold U, the span values (shared with the Gram matrix)
    # and Y; at k_s = |S| the mean holds Z[S], X, the r right sides and
    # the CSR pattern of A_m[S, :c] with its entry order, and no N x k_s
    # Z, no W_j = B_j^T U, no U[S, :k_s] and no capacitance blocks
    system = problem20["system"]
    factors = factorize(gram20, system.A_tildes, select_theta(gram20)[0])
    assert factors.basis is gram20._span[0]
    r, p = factors.basis.shape
    n, k_s = factors.n_full, factors.k_s
    assert (n, k_s, r, p, factors.M) == (504, 135, 10, 1161, 20)
    assert factors.nbytes == 8 * (n * k_s + r * p + 20 * r) == 638_800
    mean = factor_mean(system)
    assert mean.nbytes == 0
    solve_sample_smw(mean, factors, 0)
    s, t, i = 135, n - 135, 30
    state = mean.woodbury(factors)
    assert state.u_s is None
    assert (state.pattern.indices.dtype, state.order.dtype) == (np.int32,
                                                                np.int64)
    # doubles: Z[S], X, the right sides, the pattern's values and order;
    # 4-byte indices and row pointers
    assert mean.nbytes == (8 * (s * k_s + t * i + r * k_s + 2 * p)
                           + 4 * (p + s + 1))
    assert mean.nbytes == 268_924


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


def _span_family(rng, n, M, r):
    """A_m = sum_t Y[m, t] B_t over r random sparse n x n B_t, with zeros
    in Y so that the samples' sparsity patterns differ."""
    basis = [sp.random(n, n, density=rng.uniform(0.1, 0.6),
                       random_state=rng, data_rvs=rng.standard_normal)
             for _ in range(r)]
    y = rng.normal(size=(M, r)) * (rng.random((M, r)) < 0.7)
    return [sum((y[m, t] * basis[t] for t in range(r) if y[m, t]),
                sp.csr_matrix((n, n))).tocsr() for m in range(M)]


@settings(deadline=None, max_examples=100)
@given(st.integers(3, 10), st.data())
def test_span_solve_matches_dense_solve_on_random_families(n, data):
    # A_m = sum_t Y[m, t] B_t over r <= 4 random sparse B_t, with zeros in
    # Y so the samples' sparsity patterns differ; r = 0 is the all-zero
    # family, r = M a family of independent samples, and one sample may
    # sit off the span by 1e-8 relative
    M = data.draw(st.integers(1, 8), label="M")
    r = data.draw(st.integers(0, min(4, M)), label="r")
    off_span = data.draw(st.booleans(), label="off_span")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tildes = _span_family(rng, n, M, r)
    if off_span:
        j = int(rng.integers(M))
        e = sp.random(n, n, density=0.3, random_state=rng,
                      data_rvs=rng.standard_normal)
        scale = 1e-8 * spla_norm(tildes[j]) / spla_norm(e)
        tildes[j] = (tildes[j] + scale * e).tocsr()
    a = rng.normal(size=(n, n)) + 2 * n * np.eye(n)
    b = rng.normal(size=n)
    gram = build_gram(tildes)
    # the off-span direction's eigenvalue, 1e-16 of the largest, is under
    # the rank cutoff, so that family keeps every direction of the block
    k = gram.block_dim if off_span else max(numerical_rank(gram), 1)
    factors = factorize(gram, tildes, k / n)
    assert factors.k == k
    flat = np.array([t.toarray().ravel() for t in tildes])
    assert factors.span_dim == np.linalg.matrix_rank(flat)
    mean = factor_mean(_toy_system(a, b, n1=n, n2=0))
    for m, t in enumerate(tildes):
        expect_v = t.toarray().T @ factors.U
        assert (np.linalg.norm(right_factor(factors, m) - expect_v)
                <= 1e-13 * spla_norm(t)), f"V_{m}"
        expect = np.linalg.solve(a + t.toarray(), b)
        x = solve_sample_smw(mean, factors, m).x
        err = np.linalg.norm(x - expect) / np.linalg.norm(expect)
        assert err <= 1e-10, f"sample {m}: {err:.3e}"


@settings(deadline=None, max_examples=100)
@given(st.integers(3, 10), st.data())
def test_lapack_solve_matches_the_reference_on_random_span_families(n, data):
    # k_s = 0 (the all-zero family), a truncated k_s (k from 1 to
    # |S| - 1, in the basis of U; k = 1 when |S| = 1) and k_s = |S| (k
    # from |S| up to the block dimension, in the coordinate basis of S);
    # the sparse product and the direct LAPACK calls must give the
    # reference's r-block sum x and condition estimate, or reject the
    # sample where the reference's estimate exceeds the limit
    kind = data.draw(st.sampled_from(["zero", "truncated", "support"]),
                     label="kind")
    M = data.draw(st.integers(1, 6), label="M")
    r = 0 if kind == "zero" else data.draw(st.integers(1, min(4, M)),
                                           label="r")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tildes = _span_family(rng, n, M, r)
    a = rng.normal(size=(n, n)) + 2 * n * np.eye(n)
    b = rng.normal(size=n)
    gram = build_gram(tildes)
    s = gram.support.size
    k = (data.draw(st.integers(max(s, 1), gram.block_dim), label="k")
         if kind == "support" else
         data.draw(st.integers(1, max(s - 1, 1)), label="k"))
    factors = factorize(gram, tildes, k / n)
    assert factors.k_s == min(k, s)
    mean = factor_mean(_toy_system(a, b, n1=n, n2=0))
    for m in range(M):
        x, cond = smw_reference(mean, factors, m)
        if cond > CAPACITANCE_COND_LIMIT:
            with pytest.raises(IllConditionedUpdateError):
                solve_sample_smw(mean, factors, m)
            continue
        sol = solve_sample_smw(mean, factors, m)
        err = np.linalg.norm(sol.x - x) / np.linalg.norm(x)
        assert err <= 1e-14, f"sample {m}: {err:.3e}"
        assert sol.capacitance_cond == pytest.approx(cond, rel=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.0])
def test_column_support_solve_matches_full_row_formula(problem20, gram20,
                                                       theta):
    # k = 152 and 459 both exceed the Gram support |S| = c = 135, so the
    # last k - 135 columns of U are unit vectors with zero V_m columns;
    # the solve matches the Woodbury solve over all N rows and k columns,
    # and reports the condition of the k_s x k_s coordinate capacitance
    # C_S = I + A_m[S, :c] Z'[:c], Z' = Abar^{-1}[:, S], with k_s = 135
    system = problem20["system"]
    factors = factorize(gram20, system.A_tildes, theta)
    c, k_s, s = factors.col_dim, factors.k_s, gram20.support
    assert k_s == c == s.size < factors.k
    mean = factor_mean(system)
    z = mean_solve(mean, np.eye(mean.N)[:, s])
    for m in range(factors.M):
        sol = solve_sample_smw(mean, factors, m)
        x = _full_row_smw(mean, factors, m)
        err = np.linalg.norm(sol.x - x) / np.linalg.norm(x)
        assert err <= 1e-12, f"sample {m}: {err:.3e}"
        a_m = right_factor(dataclasses.replace(
            factors, U=np.eye(mean.N)), m).T
        cond = _cond_estimate(np.eye(k_s) + a_m[s, :c] @ z[:c],
                              transposed=True)
        assert sol.capacitance_cond == pytest.approx(cond, rel=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.0])
def test_columns_past_the_gram_support_leave_the_solve_unchanged(
        problem20, gram20, theta):
    # U stays N x k, but W, Z and the capacitance matrix stop at the
    # k_s = |S| columns that are not unit vectors on zero Gram rows, so
    # the solutions are those of the factorization at k = |S|
    system = problem20["system"]
    s = gram20.support.size
    factors = factorize(gram20, system.A_tildes, theta)
    at_s = factorize(gram20, system.A_tildes, s / gram20.n_full)
    assert factors.U.shape == (gram20.n_full, factors.k)
    assert at_s.k == s < factors.k
    assert factors.k_s == s <= factors.col_dim
    mean = factor_mean(system)
    xs = [solve_sample_smw(mean, factors, m).x for m in range(factors.M)]
    for m, x in enumerate(xs):
        ref = solve_sample_smw(mean, at_s, m).x
        err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        assert err <= 1e-13, f"sample {m}: {err:.3e}"


def test_full_rank_solve_does_not_depend_on_the_basis_of_the_support(
        problem20, gram20):
    # at k_s = |S|, U[S, :k_s] and U[S, :k_s] Q for an orthogonal Q span
    # the same support, and the coordinate-basis solve reads neither, so x
    # and the condition estimate are equal bit for bit
    system = problem20["system"]
    f0 = factorize(gram20, system.A_tildes, select_theta(gram20)[0])
    s = gram20.support
    assert f0.k_s == s.size
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(s.size,
                                                              s.size)))
    u = f0.U.copy()
    u[s, :f0.k_s] = f0.U[s, :f0.k_s] @ q
    f1 = dataclasses.replace(f0, U=u)
    mean = factor_mean(system)
    first, second = ([solve_sample_smw(mean, f, m) for m in range(f.M)]
                     for f in (f0, f1))
    for a, b in zip(first, second):
        assert np.array_equal(a.x, b.x), f"sample {a.sample_index}"
        assert a.capacitance_cond == b.capacitance_cond


def test_shallow_porous_layer_gram_support_exceeds_column_support():
    # a porous layer shallower than half its width: the Gram support
    # |S| = 75 exceeds the column support c = 67, so the capacitance
    # matrix (k_s = 75) is larger than the rank bound c of the update
    system = _family(*SHALLOW_POROUS)
    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    assert gram.support.size == 75
    mean = factor_mean(system)
    direct = [solve_sample_direct(system, m).x for m in range(20)]
    for theta in (select_theta(gram)[0], 1.0):
        factors = factorize(gram, system.A_tildes, theta)
        assert (factors.k_s, factors.col_dim) == (75, 67)
        for m, d in enumerate(direct):
            x = solve_sample_smw(mean, factors, m).x
            err = np.linalg.norm(x - d) / np.linalg.norm(d)
            assert err <= 1e-10, f"theta={theta}, sample {m}: {err:.3e}"


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


@pytest.mark.parametrize("physics", [PhysicalParams(), OTHER_PHYSICS],
                         ids=["default_physics", "other_physics"])
def test_porous_below_rank_update_matches_direct(problem20, gram20,
                                                 physics):
    # the porous rectangle below the free flow: the head numbering runs
    # upward, so the constrained outer lid now comes first and the free
    # interface row last, and the column support c nearly fills the head
    # block (152 of N1 = 153) instead of 135 with the porous rectangle
    # on top
    system = _family(*POROUS_BELOW, physics)
    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    rank = numerical_rank(gram)
    factors = factorize(gram, system.A_tildes, rank / gram.n_full)
    assert factors.k == rank
    assert (factors.col_dim, system.N1) == (152, 153)
    on_top = factorize(gram20, problem20["system"].A_tildes, 1.0)
    assert on_top.col_dim == 135
    mean = factor_mean(system)
    for m in range(factors.M):
        x = solve_sample_smw(mean, factors, m).x
        direct = solve_sample_direct(system, m).x
        err = np.linalg.norm(x - direct) / np.linalg.norm(direct)
        assert err <= 1e-10, f"sample {m}: {err:.3e}"


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


def test_capacitance_cond_does_not_move_with_eigenvector_signs(
        problem20, monkeypatch):
    # an eigensolver that flips every other eigenvector leaves U, Z[S],
    # U[S, :k_s] (k_s < |S|; at k_s = |S| there is none), the right sides
    # and each sample's condition estimate bit for bit as they were
    system = problem20["system"]
    grams = [build_gram(system.A_tildes, block_dim=system.n_flow)
             for _ in range(2)]
    grams[0].eigenpairs()
    eigh = scipy.linalg.eigh

    def flipped(a, *args, **kwargs):
        w, v = eigh(a, *args, **kwargs)
        return w, v * np.where(np.arange(v.shape[1]) % 2, -1.0, 1.0)

    monkeypatch.setattr(scipy.linalg, "eigh", flipped)
    grams[1].eigenpairs()
    monkeypatch.undo()
    mean = factor_mean(system)
    for theta in (select_theta(grams[0])[0], 0.1):
        f0, f1 = (factorize(g, system.A_tildes, theta) for g in grams)
        assert np.array_equal(f0.U, f1.U)
        s0, s1 = mean.woodbury(f0), mean.woodbury(f1)
        assert (s0.u_s is None) == (f0.k_s == grams[0].support.size)
        assert np.array_equal(s0.u_s, s1.u_s)
        assert np.array_equal(s0.z, s1.z)
        assert np.array_equal(s0.rhs, s1.rhs)
        for m in range(f0.M):
            assert (solve_sample_smw(mean, f0, m).capacitance_cond
                    == solve_sample_smw(mean, f1, m).capacitance_cond)


def test_singular_capacitance_rejected():
    # U = e1, V = -e1 drives the sample matrix to diag(0, 1, 1)
    system = _toy_system(np.eye(3), np.ones(3))
    mean = factor_mean(system)
    factors = _toy_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.array([[-1.0], [0.0], [0.0]])])
    with pytest.raises(IllConditionedUpdateError, match="sample 0"):
        solve_sample_smw(mean, factors, 0)


def test_singular_column_support_capacitance_rejected():
    # the same singular update at k = 2 > c = 1: W_0 keeps V_0's one
    # leading row, and the 2 x 2 capacitance matrix I + W_0^T Z[:1] is
    # diag(0, 1), singular
    system = _toy_system(np.eye(3), np.ones(3))
    mean = factor_mean(system)
    v = np.zeros((3, 2))
    v[0, 0] = -1.0
    factors = _toy_factors(np.eye(3)[:, :2], [v], col_dim=1)
    with pytest.raises(IllConditionedUpdateError, match="sample 0"):
        solve_sample_smw(mean, factors, 0)


def test_exactly_singular_capacitance_rejected_without_a_warning():
    # Abar = I and U = [e1, e2], so C = I + V_0[:2]^T = [[1, 1], [1, 1]]:
    # LU meets an exactly zero pivot, the condition estimate is infinite
    system = _toy_system(np.eye(3), np.ones(3))
    mean = factor_mean(system)
    v = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    factors = _toy_factors(np.eye(3)[:, :2], [v])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedUpdateError,
                           match="sample 0: capacitance matrix condition "
                                 "estimate inf exceeds"):
            solve_sample_smw(mean, factors, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_right_factor_is_a_singular_system(bad):
    system = _toy_system(np.eye(3), np.ones(3))
    mean = factor_mean(system)
    factors = _toy_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.array([[bad], [0.0], [0.0]])])
    with pytest.raises(SingularSystemError, match="sample 0: non-finite"):
        solve_sample_smw(mean, factors, 0)


# two orthonormal columns on three rows: k_s = 2 < |S| = 3
_TRUNCATED_U = np.array([[1.0, 0.0], [0.0, 0.5**0.5], [0.0, 0.5**0.5]])


def _cached_state(u):
    """A mean (Abar = I, so Z = U) and factors on ``u`` whose Woodbury
    state is cached: U = I is the coordinate basis (k_s = |S| = 3, where
    C_S = I + A_0), ``_TRUNCATED_U`` the basis of U (C = I + U^T A_0 U).
    A_0 sits on the 3 x 3 pattern, entry (i, j) at basis[0, 3 i + j]."""
    mean = factor_mean(_toy_system(np.eye(3), np.ones(3)))
    rng = np.random.default_rng(5)
    factors = _toy_factors(u, [0.1 * rng.normal(size=(3, u.shape[1]))])
    mean.woodbury(factors)
    return mean, factors


# an infinite A_0 times a zero of U is nan: numpy warns in the product
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_one_non_finite_capacitance_entry_is_a_singular_system(bad):
    # A_0[2, 1], poisoned once the state is cached, reaches the
    # capacitance matrix in either basis: its norm is nan or inf, and the
    # scan that follows finds the entry
    for u in (np.eye(3), _TRUNCATED_U):
        mean, factors = _cached_state(u)
        factors.basis[0, 7] = bad
        with pytest.raises(SingularSystemError,
                           match="sample 0: non-finite capacitance matrix"):
            solve_sample_smw(mean, factors, 0)


def test_finite_capacitance_whose_norm_overflows_is_ill_conditioned():
    # every entry of C - I is h = 1e308, finite, but a column sums to
    # 2h or more, so the norm overflows to inf: the condition estimate is
    # infinite, not a non-finite matrix.  Coordinate basis: A_0 = h.
    # Basis of U: A_0 = h p p^T for p = (1, a, a), a = 1/sqrt(2), so
    # U^T p = (1, 1) and U^T A_0 U = h, with every partial sum at most h
    h = 1e308
    p = np.array([1.0, 0.5**0.5, 0.5**0.5])
    for u, a_0 in ((np.eye(3), np.full(9, h)),
                   (_TRUNCATED_U, h * np.outer(p, p).ravel())):
        mean, factors = _cached_state(u)
        factors.basis[0] = a_0
        with pytest.raises(IllConditionedUpdateError,
                           match="sample 0: capacitance matrix condition "
                                 "estimate inf exceeds"):
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
    # S is empty: x = Abar^{-1} b, all from the LU of Abar[T, T] = Abar
    assert probe._direct.s.size == 0
    assert np.allclose(sol.x, mean.x_bar, rtol=1e-12, atol=1e-14)


def test_direct_solve_residual(problem20):
    system = problem20["system"]
    sol = solve_sample_direct(system, 3)
    a = system.A_bar + system.A_tildes[3]
    resid = np.linalg.norm(a @ sol.x - system.b)
    assert resid <= 1e-9 * np.linalg.norm(system.b)


def _assert_direct_matches_oracle(system, m, rtol=1e-12):
    x = solve_sample_direct(system, m).x
    ref = direct_oracle(system, m)
    err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
    assert err <= rtol, f"sample {m}: {err:.3e}"


@pytest.mark.parametrize("geometry", [None, POROUS_BELOW, SHALLOW_POROUS],
                         ids=["problem20", "porous_below", "shallow_porous"])
def test_direct_solve_matches_a_fresh_colamd_splu_to_1e12(problem20,
                                                          geometry):
    # one pattern for the whole family: the rest of Abar is eliminated and
    # the column order taken once, and every sample's solution is the
    # fresh splu's of the full matrix to roundoff
    system = (problem20["system"] if geometry is None
              else _family(*geometry))
    for m in range(len(system.A_tildes)):
        _assert_direct_matches_oracle(system, m)


def test_direct_solve_follows_a_family_of_mixed_patterns(problem20):
    # two perturbation patterns (the second lacks one stored entry) and
    # the zero perturbation, interleaved and solved in order: each change
    # of pattern rebuilds the column order instead of reusing a stale one
    system = problem20["system"]
    full = system.A_tildes[1]
    cut = full.copy()
    cut.data[0] = 0.0
    cut.eliminate_zeros()
    assert cut.nnz == full.nnz - 1
    zero = sp.csr_matrix(system.A_bar.shape)
    tildes = [system.A_tildes[0], cut, full, zero, cut, zero,
              system.A_tildes[2]]
    mixed = SplitSystem(A_bar=system.A_bar, b=system.b, A_tildes=tildes,
                        N1=system.N1, N2=system.N2, N3=system.N3)
    for m in range(len(tildes)):
        _assert_direct_matches_oracle(mixed, m, rtol=1e-13)


def test_direct_solve_follows_a_new_mean_matrix(problem20):
    system = problem20["system"]
    solve_sample_direct(system, 0)
    doubled = dataclasses.replace(system, A_bar=2 * system.A_bar)
    for m in (0, 1):
        _assert_direct_matches_oracle(doubled, m)
    # a mean matrix assigned in place, without its last stored entry (a
    # divergence entry of the last pressure row), on a system that
    # already holds a column order
    probe = dataclasses.replace(system)
    solve_sample_direct(probe, 0)
    cut = system.A_bar.copy()
    cut.data[-1] = 0.0
    cut.eliminate_zeros()
    assert cut.nnz == system.A_bar.nnz - 1
    probe.A_bar = cut
    _assert_direct_matches_oracle(probe, 0)


def test_direct_solve_follows_values_edited_in_place(problem20):
    # the same Abar and b objects, edited in place between two solves:
    # the state kept from the first solve must not answer the second
    system = dataclasses.replace(problem20["system"])
    system.A_bar = system.A_bar.copy()
    system.b = system.b.copy()
    before = solve_sample_direct(system, 0).x
    system.A_bar.data *= 2.0
    _assert_direct_matches_oracle(system, 0)
    system.b[system.b != 0] *= 3.0
    _assert_direct_matches_oracle(system, 0)
    system.A_bar.data /= 2.0
    system.b[system.b != 0] /= 3.0
    assert np.allclose(solve_sample_direct(system, 0).x, before,
                       rtol=1e-12, atol=1e-14)


def test_direct_solve_rejects_a_perturbation_of_another_shape():
    # the second perturbation stores its entries where the first does
    system = _toy_system(np.eye(3), np.ones(3), tildes=[
        sp.csr_matrix(([0.5], ([0], [0])), shape=(3, 3)),
        sp.csr_matrix(([0.5], ([0], [0])), shape=(3, 4))])
    solve_sample_direct(system, 0)
    with pytest.raises(ValueError, match="shape"):
        solve_sample_direct(system, 1)


def test_direct_solve_with_a_perturbation_in_every_column():
    # the perturbation's support is every DOF: nothing is eliminated
    a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    tilde = sp.csr_matrix(([0.5, 0.25, -0.5], ([0, 2, 1], [0, 1, 2])),
                          shape=(3, 3))
    system = _toy_system(a, [1.0, 2.0, 3.0], tildes=[tilde])
    x = solve_sample_direct(system, 0).x
    assert system._direct.t.size == 0
    assert x == pytest.approx(np.linalg.solve(a + tilde.toarray(),
                                              system.b), rel=1e-14)


def test_direct_solve_names_a_singular_rest_block():
    # Abar is nonsingular, but with S = {0} the rest Abar[T, T] is the
    # zero 1 x 1 block
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    tilde = sp.csr_matrix(([0.5], ([0], [0])), shape=(2, 2))
    system = _toy_system(a, [1.0, 1.0], tildes=[tilde])
    with pytest.raises(SingularSystemError,
                       match=r"factorization of Abar\[T, T\] failed"):
        solve_sample_direct(system, 0)


def test_direct_solve_checks_each_residual():
    # Wilkinson's matrix (1 on the diagonal, -1 below it, 1 in the last
    # column) doubles its last column at every step of an LU with partial
    # pivoting: at 64 DOFs the growth 2^63 leaves the solution far from
    # solving the system, and the sample is named.  Its upper triangle is
    # stored as 1e-300, so the pattern is dense and COLAMD keeps the
    # order that grows
    k = 64
    w = np.eye(k) - np.tril(np.ones((k, k)), -1)
    w[:, -1] = 1.0
    w[np.triu_indices(k, 1)] += 1e-300
    system = _toy_system(np.eye(k), np.arange(1.0, k + 1),
                         tildes=[sp.csr_matrix(w - np.eye(k))])
    with pytest.raises(SingularSystemError,
                       match="sample 0: direct solve residual"):
        solve_sample_direct(system, 0)


def test_singular_sample_is_diagnosed():
    # samples 0 and 2 cancel the first diagonal entry of Abar = I, which
    # leaves row 0 empty; sample 0 fails while the column order is taken,
    # sample 2 in the numeric LU on the order that sample 1 left
    singular = sp.csr_matrix(([-1.0], ([0], [0])), shape=(3, 3))
    benign = sp.csr_matrix(([0.5], ([0], [0])), shape=(3, 3))
    system = _toy_system(np.eye(3), np.ones(3),
                         tildes=[singular, benign, singular])
    for m in (0, 2):
        with pytest.raises(SingularSystemError,
                           match=f"sample {m}: matrix factorization failed "
                                 r".*suspect DOF 0 \(structurally empty row\)"):
            solve_sample_direct(system, m)
        assert solve_sample_direct(system, 1).x == pytest.approx(
            [2 / 3, 1.0, 1.0], rel=1e-15)


def test_structurally_singular_mean_is_diagnosed():
    a = sp.coo_matrix(([1.0, 1.0], ([0, 2], [0, 2])), shape=(3, 3)).tocsr()
    system = _toy_system(a, np.ones(3))
    with pytest.raises(SingularSystemError, match="DOF 1"):
        factor_mean(system)


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
    loaded = read_solutions(path)
    assert [s.sample_index for s in loaded] == [0, 3, 4]
    for a, b in zip(sols, loaded):
        assert np.array_equal(a.x, b.x)
