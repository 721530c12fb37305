"""Sample solvers: Woodbury updates against direct sparse solves."""

import dataclasses
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import norm as spla_norm
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs

from _oracles import (dense_u, direct_oracle, hand_factors, mean_solve,
                      perturbation, read_solutions, right_factor,
                      smw_reference)
from sdlowrank import (
    CovarianceKernel,
    Geometry,
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
from sdlowrank import lowrank_solver
from sdlowrank.lowrank_solver import CAPACITANCE_COND_LIMIT


def _toy_system(a, b, n1=1, n2=1, n3=0, tildes=(), factors=None):
    """A system on the family ``tildes``, or on the family of ``factors``:
    A_m = sum_j Y[m, j] B_j on the pattern they hold."""
    if factors is not None:
        tildes = [perturbation(factors, m) for m in range(factors.M)]
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


def _full_row_smw(mean, factors, m, gram):
    """Oracle: the k x k Woodbury solve over all N rows and k columns
    of V_m, with its own Z = Abar^{-1} U from a fresh LU of Abar, for the
    N x k U of ``dense_u``."""
    v = right_factor(factors, m, gram)
    z = mean_solve(mean, dense_u(factors, gram))
    c = np.eye(factors.k) + v.T @ z
    y = scipy.linalg.solve(c, v.T @ mean.x_bar)
    return mean.x_bar - z @ y


def _cond_estimate(c):
    """Oracle: LAPACK's 1-norm condition estimate of a square matrix."""
    lu, _ = scipy.linalg.lu_factor(c)
    gecon = get_lapack_funcs(("gecon",), (lu,))[0]
    rcond, _ = gecon(lu, np.linalg.norm(c, 1), norm="1")
    return 1.0 / rcond


# ---------------------------------------------------------------------------
# Woodbury identity
# ---------------------------------------------------------------------------

def test_rank_one_update_hand_case():
    # Abar = I, U = e1, V = 2*e1: the sample matrix is diag(3, 1, 1), so
    # only the first solution entry changes, to b1/3.  k_s = 1 is the
    # size of U's support {0}, and the pattern holds row 0 in all three
    # columns J, the system's S, so the capacitance matrix is
    # C_J = I + A_0[0, J] on J = {0, 1, 2}, diag(3, 1, 1), whose 1-norm
    # condition is 3
    b = np.array([6.0, -1.5, 2.0])
    factors = hand_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.array([[2.0], [0.0], [0.0]])])
    system = _toy_system(np.eye(3), b, factors=factors)
    mean = factor_mean(system)
    sol = solve_sample_smw(mean, factors, 0)
    assert sol.x == pytest.approx([2.0, -1.5, 2.0], rel=1e-14)
    assert sol.sample_index == 0
    assert sol.capacitance_cond == pytest.approx(3.0, rel=1e-12)
    assert mean.woodbury(factors).dim == 3


def test_zero_right_factor_returns_mean_solution():
    b = np.array([1.0, 2.0, 3.0])
    factors = hand_factors(np.array([[1.0], [1.0], [0.0]]),
                           [np.zeros((3, 1))])
    system = _toy_system(np.diag([2.0, 4.0, 5.0]), b, factors=factors)
    mean = factor_mean(system)
    sol = solve_sample_smw(mean, factors, 0)
    assert np.array_equal(sol.x, mean.x_bar)


def test_empty_column_support_returns_mean_solution():
    # c = 0 < k = 2 = |S|: the system's family stores zeros on the
    # diagonal of S = {0, 1}, where U lives, but the factors' pattern
    # holds no entry, so J is empty, the capacitance matrix has order 0,
    # with condition 1, and the update vanishes
    zeros = sp.csr_matrix(([0.0, 0.0], ([0, 1], [0, 1])), shape=(3, 3))
    system = _toy_system(np.diag([2.0, 4.0, 5.0]), np.array([1.0, 2.0, 3.0]),
                         tildes=[zeros])
    mean = factor_mean(system)
    u = np.eye(3)[:, :2]
    factors = hand_factors(u, [np.zeros((3, 2))], col_dim=0)
    sol = solve_sample_smw(mean, factors, 0)
    assert np.array_equal(sol.x, mean.x_bar)
    assert sol.capacitance_cond == 1.0
    state = mean.woodbury(factors)
    assert (state.dim, state.j.size, state.k.size) == (0, 0, 2)


def _state_bytes(state):
    """At k_s = |S|, W, Abar^{-1}[K, R], J, K and x_bar[J], else Z on its
    rows, the right sides and U[S, :k_s] when the factors' rows were
    placed on S; the CSR pattern.  X is the elimination's, U[S, :k_s]
    on the factors' support S the factors', and the transposed pattern
    shares the pattern's arrays."""
    p = state.pattern
    held = [state.z, p.data, p.indices, p.indptr]
    held += ([state.w, state.j, state.k, state.x_j] if state.u_s is None
             else [state.rhs])
    if state.u_s is not None and state.u_s is not state.factors.U:
        held.append(state.u_s)
    return sum(a.nbytes for a in held)


def test_shared_solve_cached_per_family(problem20, gram20):
    # one Woodbury state per family: reused within it, rebuilt on a
    # switch (k_s = |S| = 135 on the pattern's 120 columns J, then a
    # truncated k_s in the basis of U, on the same support and pattern),
    # and after
    # f0 -> f1 -> f0 the solutions are those of the first f0 pass, bit for
    # bit; the mean holds the live state's arrays only, and below |S| the
    # state reads the factors' U[S, :k_s] without a copy
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
    assert states[1].u_s is f1.U
    assert f1.U.shape == (135, f1.k_s)
    assert states[0].pattern.shape == (135, 120)
    assert states[1].pattern.shape == (135, 135)
    assert states[0].pattern.nnz == states[1].pattern.nnz
    assert np.shares_memory(states[0].pattern_t.data, states[0].pattern.data)
    assert _state_bytes(states[1]) < _state_bytes(states[0])
    assert all(np.array_equal(a, b) for a, b in zip(passes[0], passes[2]))
    assert not np.array_equal(passes[0][0], passes[1][0])


def _assembled_z(mean, state):
    """Z = Abar^{-1} U[:, :k_s] below |S|, or Abar^{-1}[:, R] at |S|, from
    the state's Z[S] (there, Abar^{-1}[K, R] and W^T = Abar^{-1}[J, R])
    and the S, T, I and X of the mean it was solved through, with
    Z[T] = -X Z[S][I]."""
    z_s = state.z
    if state.u_s is None:
        z = np.empty((mean.N, state.w.shape[0]))
        z[state.j], z[state.k] = state.w.T, state.z
        z_s = z[mean.s]
    z = np.empty((mean.N, z_s.shape[1]))
    z[mean.s] = z_s
    z[mean.t] = -(mean.x @ z_s[mean.coupled])
    return z


# ---------------------------------------------------------------------------
# Z by block elimination on the support of U
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("geometry", [None, POROUS_BELOW, SHALLOW_POROUS],
                         ids=["default", "porous-below", "shallow-porous"])
def test_block_elimination_matches_the_mean_solve(problem20, geometry):
    # at k_s = |S|, W = Abar^{-1}[J, R]^T and Abar^{-1}[K, R] from the
    # Schur complement, |S|^2 doubles together (R = S), and
    # Z[T] = -X Z[S][I] reproduce an LU solve of Abar for the identity
    # columns on S; S couples to T through the 2(2n - 1) = 30 interface
    # columns I only
    system = (problem20["system"] if geometry is None
              else _family(*geometry))
    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    factors = factorize(gram, system.A_tildes, select_theta(gram)[0])
    mean = factor_mean(system)
    z = mean.woodbury(factors)
    assert np.array_equal(mean.s, gram.support)
    s, j = gram.support.size, z.j.size
    assert (z.w.shape, z.z.shape) == ((s, j), (s - j, s))
    assert mean.x.shape == (mean.N - gram.support.size, 30)
    assert factors.k_s == gram.support.size
    ref = mean_solve(mean, np.eye(mean.N)[:, gram.support])
    assert (np.linalg.norm(_assembled_z(mean, z) - ref)
            <= 1e-12 * np.linalg.norm(ref))


def test_one_elimination_serves_every_solver_of_a_family(problem20, gram20,
                                                        monkeypatch):
    # the direct loop eliminates Abar onto the family's support once;
    # factor_mean returns that elimination, and the Woodbury states at
    # k_s = |S| and below are solved through it and keep no other: no
    # second one, and no LU of the whole N x N Abar
    system = dataclasses.replace(problem20["system"])
    f0 = factorize(gram20, system.A_tildes, select_theta(gram20)[0])
    f1 = factorize(gram20, system.A_tildes, theta=0.05)
    assert f1.k_s < f0.k_s == 135
    calls = {"eliminations": 0, "full splu": 0}
    init = lowrank_solver.MeanFactorization.__init__
    splu = lowrank_solver.spla.splu

    def counted_init(self, *args, **kwargs):
        calls["eliminations"] += 1
        init(self, *args, **kwargs)

    def counted_splu(a, *args, **kwargs):
        calls["full splu"] += a.shape == system.A_bar.shape
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(lowrank_solver.MeanFactorization, "__init__",
                        counted_init)
    monkeypatch.setattr(lowrank_solver.spla, "splu", counted_splu)
    for m in range(len(system.A_tildes)):
        solve_sample_direct(system, m)
    mean = factor_mean(system)
    states = [mean.woodbury(f) for f in (f0, f1)]
    assert calls == {"eliminations": 1, "full splu": 0}
    assert mean is system._direct
    assert all(state.factors is f for state, f in zip(states, (f0, f1)))


def test_a_family_with_zero_samples_is_one_pattern(mesh8, params, kl8,
                                                   monkeypatch):
    # n=8, M=6 with coefficient rows 1 and 3 zero: those samples are all
    # zero, and their zeros stay stored, so the constrained family is one
    # pattern and one elimination serves a direct loop, factor_mean and
    # a second direct loop (11 when the zero samples dropped theirs)
    coefficients = draw_samples(kl8, M=6, seed=1234).coefficients.copy()
    coefficients[[1, 3]] = 0.0
    system = assemble_family(mesh8, params, kl8, coefficients)
    first = system.A_tildes[0]
    assert all(t.indices is first.indices and t.indptr is first.indptr
               for t in system.A_tildes)
    assert not system.A_tildes[1].data.any() and first.data.all()
    calls = {"eliminations": 0}
    init = lowrank_solver.MeanFactorization.__init__

    def counted_init(self, *args, **kwargs):
        calls["eliminations"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(lowrank_solver.MeanFactorization, "__init__",
                        counted_init)
    direct = [solve_sample_direct(system, m).x for m in range(6)]
    mean = factor_mean(system)
    for m, x in enumerate(direct):
        assert np.array_equal(solve_sample_direct(system, m).x, x)
    assert calls == {"eliminations": 1}
    assert mean is system._direct
    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    factors = factorize(gram, system.A_tildes, select_theta(gram)[0])
    for m, x in enumerate(direct):
        got = solve_sample_smw(mean, factors, m).x
        assert np.linalg.norm(got - x) <= 1e-12 * np.linalg.norm(x)


def test_factor_mean_names_the_first_perturbation_off_the_pattern(
        problem20):
    system = problem20["system"]
    cut = system.A_tildes[1].copy()
    cut.data[0] = 0.0
    cut.eliminate_zeros()
    mixed = dataclasses.replace(
        system, A_tildes=[system.A_tildes[0], system.A_tildes[2], cut, cut])
    with pytest.raises(ValueError, match="matrix 2 is not on the sparsity "
                                         "pattern of matrix 0"):
        factor_mean(mixed)


@pytest.mark.parametrize("geometry", [None, POROUS_BELOW, SHALLOW_POROUS],
                         ids=["default", "porous-below", "shallow-porous"])
def test_mean_solution_comes_from_the_shared_elimination(problem20,
                                                         geometry):
    # x_bar, from the elimination onto the family's support and one step
    # of refinement, is a fresh LU solve of Abar to 1e-13; the direct
    # solutions are the same bits whether factor_mean took the
    # elimination first or the direct loop did
    system = (problem20["system"] if geometry is None
              else _family(*geometry))
    first, second = (dataclasses.replace(system) for _ in range(2))
    mean = factor_mean(first)
    ref = mean_solve(mean, system.b)
    assert np.linalg.norm(mean.x_bar - ref) <= 1e-13 * np.linalg.norm(ref)
    for m in range(len(system.A_tildes)):
        assert np.array_equal(solve_sample_direct(first, m).x,
                              solve_sample_direct(second, m).x)
    assert first._direct is mean


def test_factor_mean_returns_the_systems_elimination(problem20):
    # one mean object per family: no copy of x_bar, which is read-only, so
    # nothing can write into the inputs of a cached Woodbury state
    system = dataclasses.replace(problem20["system"])
    mean = factor_mean(system)
    assert factor_mean(system) is mean is system._direct
    with pytest.raises(ValueError, match="read-only"):
        mean.x_bar[0] = 1.0


def test_mean_outlives_the_elimination_the_system_replaces(problem20,
                                                           gram20):
    # a direct sample on another pattern (here an empty one, appended to
    # the family after factor_mean took its mean) replaces
    # system._direct; the mean returned before keeps its Woodbury state
    # and solves bit for bit as before.  The state keeps no reference
    # back to the mean, so dropping the mean frees both at once
    base = problem20["system"]
    system = dataclasses.replace(base, A_tildes=list(base.A_tildes))
    factors = factorize(gram20, base.A_tildes, 0.05)
    mean = factor_mean(system)
    before = [solve_sample_smw(mean, factors, m).x for m in range(3)]
    state = mean.woodbury(factors)
    system.A_tildes.append(sp.csr_matrix(base.A_bar.shape))
    solve_sample_direct(system, 20)
    assert system._direct is not mean and system._direct.s.size == 0
    assert mean.woodbury(factors) is state
    assert all(np.array_equal(solve_sample_smw(mean, factors, m).x, x)
               for m, x in enumerate(before))
    gone = weakref.ref(mean)
    del mean, state
    assert gone() is None


def test_singular_rest_block_is_named():
    # U = e1 on the first column, so S = {0} and T = {1, 2};
    # Abar[T, T] = diag(0, 1) is singular, while Abar itself (determinant
    # -1) is not: the one elimination, which factor_mean takes, names it
    a = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    factors = hand_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.zeros((3, 1))], col_dim=1)
    with pytest.raises(SingularSystemError,
                       match=r"factorization of Abar\[T, T\] failed"):
        factor_mean(_toy_system(a, np.ones(3), factors=factors))


def _edge_case(case):
    """(Abar, U, col_dim) with k_s = 0, with T empty, or with I empty."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 8.0 * np.eye(4)
    if case == "k_s=0":
        return a, np.zeros((4, 0)), None
    if case == "T empty":   # every row of U is nonzero
        return a, np.linalg.qr(rng.normal(size=(4, 2)))[0], None
    a[2:, :2] = 0.0         # Abar[T, S] holds no entry: I is empty
    return a, np.eye(4)[:, :2], 2


@pytest.mark.parametrize("case", ["k_s=0", "T empty", "I empty"])
def test_block_elimination_edge_cases(case):
    a, u, col_dim = _edge_case(case)
    b = np.arange(1.0, 5.0)
    v = 0.3 * np.ones((4, u.shape[1]))
    if col_dim is not None:   # B_m^T U = V_m[:col_dim]: the rest is 0
        v[col_dim:] = 0.0
    factors = hand_factors(u, [v], col_dim=col_dim)
    mean = factor_mean(_toy_system(a, b, n1=4, n2=0, factors=factors))
    z = mean.woodbury(factors)
    # the capacitance order: |J| = 0 (no U, so no pattern and S empty),
    # k_s = 2 below |S| = 4, and |J| = 2 at |S| = 2
    expect = {"k_s=0": (0, 4, 0, 0), "T empty": (4, 0, 0, 2),
              "I empty": (2, 2, 0, 2)}[case]
    assert (mean.s.size, mean.t.size, mean.coupled.size, z.dim) == expect
    ref = mean_solve(mean, u)
    assert _assembled_z(mean, z).shape == u.shape
    assert np.allclose(_assembled_z(mean, z), ref, rtol=0.0, atol=1e-14)
    sol = solve_sample_smw(mean, factors, 0)
    dense = np.linalg.solve(a + u @ v.T, b)
    assert np.allclose(sol.x, dense, rtol=1e-13, atol=0.0)
    if case == "k_s=0":
        assert np.array_equal(sol.x, mean.x_bar)
        assert sol.capacitance_cond == 1.0
    else:   # a nonzero update, so the dense solve checks it
        assert np.linalg.norm(sol.x - mean.x_bar) > 1e-3


def test_non_finite_shared_factor_column_is_named():
    # U on two of three rows (k_s = |S|: the coordinate basis, which does
    # not solve with U) or on all three (k_s < |S|): either way a NaN in
    # U is rejected, naming its column, before any solve
    for u in (np.eye(3)[:, :2],
              np.linalg.qr(np.random.default_rng(2).normal(size=(3, 2)))[0]):
        factors = hand_factors(u, [np.zeros((3, 2))])
        mean = factor_mean(_toy_system(np.eye(3), np.ones(3),
                                       factors=factors))
        factors.U[0, 1] = np.nan
        with pytest.raises(SingularSystemError,
                           match="column 1 of the shared factor holds "
                                 "non-finite entries"):
            mean.woodbury(factors)


def test_woodbury_rejects_a_span_pattern_out_of_row_major_order():
    # a sample's y @ B goes straight into the state's CSR values, so the
    # span's entries must be in strictly row-major order, as build_gram
    # and hand_factors store them; the same family reversed, or with one
    # entry stored twice, is rejected
    factors = hand_factors(np.eye(3)[:, :2], [np.ones((3, 2))])
    mean = factor_mean(_toy_system(4.0 * np.eye(3), np.ones(3),
                                   factors=factors))
    twice = np.r_[0, np.arange(factors.rows.size)]
    for order in (np.arange(factors.rows.size)[::-1], twice):
        moved = dataclasses.replace(
            factors, rows=factors.rows[order], cols=factors.cols[order],
            basis=factors.basis[:, order])
        with pytest.raises(ValueError, match="strictly row-major"):
            mean.woodbury(moved)
    mean.woodbury(factors)


def test_held_bytes_at_n8(problem20, gram20):
    # the factors hold U[S, :k_s] (no N x k U), the span values (shared
    # with the Gram matrix) and Y; at k_s = |S| the mean holds W and
    # Abar^{-1}[K, R] (|S|^2 doubles together), J, K, x_bar[J] and the
    # CSR pattern of A_m[R, J], and no N x k_s Z, no
    # right sides, no W_j = B_j^T U, no U[S, :k_s], no capacitance blocks
    # and no copy of X, which the mean, the system's elimination, holds
    # for both solvers.  A fresh system: the shared one may hold an
    # earlier test's state
    system = dataclasses.replace(problem20["system"])
    factors = factorize(gram20, system.A_tildes, select_theta(gram20)[0])
    assert factors.basis is gram20._span[0]
    r, p = factors.basis.shape
    n, k_s = factors.n_full, factors.k_s
    assert (n, k_s, r, p, factors.M) == (504, 135, 10, 1161, 20)
    assert factors.U.shape == (135, k_s)
    assert factors.nbytes == 8 * (135 * k_s + r * p + 20 * r) == 240_280
    mean = factor_mean(system)
    assert mean.nbytes == 0
    solve_sample_smw(mean, factors, 0)
    s, t, i, j = 135, n - 135, 30, 120
    state = mean.woodbury(factors)
    assert state.u_s is None and state.j.size == j
    assert state.pattern.indices.dtype == np.int32
    assert mean is system._direct
    assert mean.x.shape == (t, i)
    # doubles or 8-byte indices: W and Abar^{-1}[K, R], x_bar[J], J, K
    # and the pattern's values; 4-byte indices and row pointers
    assert mean.nbytes == (8 * (s * s + 2 * j + (s - j) + p)
                           + 4 * (p + s + 1)) == 162_316


@pytest.mark.parametrize("theta", [1.0, 0.1])
def test_arrays_a_cached_state_is_built_from_are_read_only(problem20,
                                                           gram20, theta):
    # the Woodbury state is cached on the factors object, so nothing it
    # was built from may change under it: U[S, :k_s] (a copy below |S|),
    # S and the span's B, rows, cols, Y and C all refuse a write, and the
    # next sample is the one a fresh state gives
    system = problem20["system"]
    factors = factorize(gram20, system.A_tildes, theta)
    assert (factors.k_s == gram20.support.size) == (theta == 1.0)
    mean = factor_mean(system)
    solve_sample_smw(mean, factors, 0)
    for a in (factors.U, factors.support, factors.basis, factors.rows,
              factors.cols, factors.Y, gram20._span[5]):   # C = R B
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] += 1
    fresh = factor_mean(dataclasses.replace(system))
    assert np.array_equal(solve_sample_smw(mean, factors, 1).x,
                          solve_sample_smw(fresh, factors, 1).x)


def test_truncated_state_holds_no_copy_of_u_at_n16():
    # fine_select's family (n=16, M=60) at theta = 0.1: k_s = 184 below
    # |S| = 527.  The state reads the factors' U[S, :k_s] itself, so the
    # mean holds Z[S], the right sides and the pattern only, 775,744
    # bytes (the 527 x 184 U[S, :k_s]) less than when it kept a copy
    mesh = build_mesh(n=16)
    kl = build_kl(CovarianceKernel(correlation_length_sq=0.2), mesh,
                  epsilon=0.01)
    system = assemble_family(mesh, PhysicalParams(), kl,
                             draw_samples(kl, M=60, seed=1234).coefficients)
    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    factors = factorize(gram, system.A_tildes, 0.1)
    s, k_s = gram.support.size, factors.k_s
    r, p = factors.basis.shape
    assert (s, k_s, factors.col_dim, r, p) == (527, 184, 527, 9, 5129)
    assert factors.U.nbytes == 8 * s * k_s == 775_744
    mean = factor_mean(system)
    solve_sample_smw(mean, factors, 0)
    state = mean.woodbury(factors)
    assert state.u_s is factors.U
    assert mean.nbytes == _state_bytes(state)
    # 1,628,396 bytes with the copy
    assert mean.nbytes == (8 * (s * k_s + r * k_s + p)
                           + 4 * (p + s + 1)) == 852_652


def test_matches_dense_woodbury_on_random_system():
    rng = np.random.default_rng(8)
    n, k = 8, 2
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=n)
    u, _ = np.linalg.qr(rng.normal(size=(n, k)))
    v_list = [rng.normal(size=(n, k)) * 0.3 for _ in range(3)]
    factors = hand_factors(u, v_list)
    mean = factor_mean(_toy_system(a, b, n1=3, n2=2, n3=1, factors=factors))
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
    # reproduce the dense solve of (Abar + U V_m^T) x = b.  Both factor
    # sets hold the one family of the system, whose pattern is the second
    # set's: the first stores its first col_dim columns only
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
    mean = factor_mean(_toy_system(a, b, n1=n, n2=0,
                                   factors=hand_factors(u, v_list)))
    for rows in (col_dim, None):
        factors = hand_factors(u, v_list, col_dim=rows)
        for m, v in enumerate(v_list):
            expect = np.linalg.solve(a + u @ v.T, b)
            x = solve_sample_smw(mean, factors, m).x
            err = np.linalg.norm(x - expect) / np.linalg.norm(expect)
            assert err <= 1e-10, f"col_dim={rows}, sample {m}: {err:.3e}"


def _span_family(rng, n, M, r):
    """A_m = sum_t Y[m, t] B_t over r random sparse n x n B_t, with zeros
    in Y, each sample stored on the family's union pattern with zeros
    where its own sum vanishes."""
    basis = [sp.random(n, n, density=rng.uniform(0.1, 0.6),
                       random_state=rng, data_rvs=rng.standard_normal)
             for _ in range(r)]
    y = rng.normal(size=(M, r)) * (rng.random((M, r)) < 0.7)
    return _on_union_pattern([
        sum((y[m, t] * basis[t] for t in range(r) if y[m, t]),
            sp.csr_matrix((n, n))).tocsr() for m in range(M)])


def _on_union_pattern(mats):
    """The CSR matrices stored on the union of their patterns, one
    family: zeros where a matrix has no entry."""
    union = sum(abs(a) for a in mats).tocsr()
    rows = np.repeat(np.arange(union.shape[0]), np.diff(union.indptr))
    return [sp.csr_matrix((a.toarray()[rows, union.indices], union.indices,
                           union.indptr), shape=union.shape) for a in mats]


@settings(deadline=None, max_examples=100)
@given(st.integers(3, 10), st.data())
def test_span_solve_matches_dense_solve_on_random_families(n, data):
    # A_m = sum_t Y[m, t] B_t over r <= 4 random sparse B_t, with zeros in
    # Y, on the family's union pattern; r = 0 is the all-zero
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
        tildes = _on_union_pattern(tildes)
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
    mean = factor_mean(_toy_system(a, b, n1=n, n2=0, tildes=tildes))
    for m, t in enumerate(tildes):
        expect_v = t.toarray().T @ dense_u(factors, gram)
        assert (np.linalg.norm(right_factor(factors, m, gram) - expect_v)
                <= 1e-13 * spla_norm(t)), f"V_{m}"
        expect = np.linalg.solve(a + t.toarray(), b)
        x = solve_sample_smw(mean, factors, m).x
        err = np.linalg.norm(x - expect) / np.linalg.norm(expect)
        assert err <= 1e-10, f"sample {m}: {err:.3e}"


@settings(deadline=None, max_examples=100)
@given(st.integers(3, 10), st.data())
def test_lapack_solve_matches_the_reference_on_random_span_families(n, data):
    # k_s = 0 (the all-zero family), a truncated k_s (k from 1 to
    # |S| - 1 for the Gram support S, in the basis of U; k = 1 when
    # |S| = 1) and k_s = |S| (k from |S| up to the block dimension, in
    # the coordinate basis of S), all solved through the one elimination
    # onto the family's pattern, which holds S and may hold more columns (then U's rows are placed on it below |S|).  The sparse
    # product and the direct LAPACK calls must give the reference's x and
    # condition estimate, or reject the sample where the reference's
    # estimate exceeds the limit
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
    mean = factor_mean(_toy_system(a, b, n1=n, n2=0, tildes=tildes))
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
    # and reports the condition of the capacitance matrix on the
    # pattern's columns J, C_J = I + Abar^{-1}[J, S] A_m[S, J], with
    # |J| = 120 of k_s = 135
    system = problem20["system"]
    factors = factorize(gram20, system.A_tildes, theta)
    c, k_s, s = factors.col_dim, factors.k_s, gram20.support
    assert k_s == c == s.size < factors.k
    mean = factor_mean(system)
    z = mean_solve(mean, np.eye(mean.N)[:, s])
    j = mean.woodbury(factors).j
    assert j.size == 120
    for m in range(factors.M):
        sol = solve_sample_smw(mean, factors, m)
        x = _full_row_smw(mean, factors, m, gram20)
        err = np.linalg.norm(sol.x - x) / np.linalg.norm(x)
        assert err <= 1e-12, f"sample {m}: {err:.3e}"
        a_m = perturbation(factors, m).toarray()
        cond = _cond_estimate(np.eye(j.size) + z[j] @ a_m[s][:, j])
        assert sol.capacitance_cond == pytest.approx(cond, rel=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.0])
def test_columns_past_the_gram_support_leave_the_solve_unchanged(
        problem20, gram20, theta):
    # U is N x k, but the factors hold U[S, :k_s], the Gram matrix's
    # eigenvector array itself (read-only, so no writer can change the
    # Gram matrix's cache), and Z and the capacitance matrix stop at
    # the k_s = |S| columns that are not unit vectors on zero Gram rows,
    # so the solutions are those of the factorization at k = |S|
    system = problem20["system"]
    s = gram20.support.size
    factors = factorize(gram20, system.A_tildes, theta)
    at_s = factorize(gram20, system.A_tildes, s / gram20.n_full)
    assert factors.U.shape == (s, s)
    assert factors.U.base is gram20.eigenpairs()[1]
    assert not factors.U.flags.writeable
    assert np.array_equal(factors.U, at_s.U)
    assert at_s.k == s < factors.k
    assert factors.k_s == s <= factors.col_dim
    mean = factor_mean(system)
    xs = [solve_sample_smw(mean, factors, m).x for m in range(factors.M)]
    for m, x in enumerate(xs):
        ref = solve_sample_smw(mean, at_s, m).x
        err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        assert err <= 1e-13, f"sample {m}: {err:.3e}"


@pytest.mark.parametrize("n", [8, 16])
def test_full_rank_capacitance_order_is_the_free_porous_heads(n):
    # at k_s = |S| = (2n - 1)(n + 1) the capacitance matrix is taken on
    # the pattern's columns J, the n(2n - 1) free porous heads (120 and
    # 496), not on S; the interface-velocity rows of S are rows of the
    # update only.  x[J] is the capacitance solve y itself, with
    # C_J y = x_bar[J] for C_J = I + Abar^{-1}[J, S] A_m[S, J]
    mesh = build_mesh(n=n)
    kl = build_kl(CovarianceKernel(correlation_length_sq=0.2), mesh,
                  epsilon=0.01)
    system = assemble_family(mesh, PhysicalParams(), kl,
                             draw_samples(kl, M=3, seed=1234).coefficients)
    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    factors = factorize(gram, system.A_tildes, 1.0)
    s = gram.support
    assert factors.k_s == s.size == (2 * n - 1) * (n + 1)
    mean = factor_mean(system)
    state = mean.woodbury(factors)
    assert state.dim == state.j.size == n * (2 * n - 1)
    assert np.all(state.j < system.N1) and np.all(np.isin(state.j, s))
    assert state.w.shape == (s.size, state.j.size)
    z = mean_solve(mean, np.eye(mean.N)[:, s])[state.j]
    for m in range(factors.M):
        sol = solve_sample_smw(mean, factors, m)
        a_m = perturbation(factors, m)[s][:, state.j].toarray()
        y = np.linalg.solve(np.eye(state.j.size) + z @ a_m,
                            mean.x_bar[state.j])
        err = np.linalg.norm(sol.x[state.j] - y) / np.linalg.norm(y)
        assert err <= 1e-13, f"sample {m}: {err:.3e}"
        direct = solve_sample_direct(system, m).x
        err = np.linalg.norm(sol.x - direct) / np.linalg.norm(direct)
        assert err <= 1e-12, f"sample {m}: {err:.3e}"


def test_factors_from_another_family_name_the_dof_outside_the_support():
    # a 6 x 6 system whose family lives on the rows {1, 3} and the first
    # four columns, so S = {0, 1, 2, 3}.  Factors of that family on U's
    # support {1, 3} are solved through its one elimination: at k_s = 2,
    # the support's size, on the pattern's four columns J; at k_s = 1 in
    # the basis of U, its rows placed on S in a copy the state counts.
    # Both match the dense solve of (Abar + U V_m^T) x = b.  Factors with
    # a pattern column (4) or a support row (5) outside S come from
    # another family: each is a ValueError naming the first such DOF
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    b = rng.normal(size=6)
    u = np.zeros((6, 2))
    u[[1, 3]] = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    v_list = [0.3 * rng.normal(size=(6, 2)) for _ in range(3)]
    for v in v_list:
        v[4:] = 0.0
    full = hand_factors(u, v_list, col_dim=4)
    mean = factor_mean(_toy_system(a, b, n1=6, n2=0, factors=full))
    assert np.array_equal(mean.s, [0, 1, 2, 3])
    one = hand_factors(u[:, :1], [v[:, :1] for v in v_list], col_dim=4)
    for factors in (full, one):
        for m in range(factors.M):
            x = solve_sample_smw(mean, factors, m).x
            update = perturbation(factors, m).toarray()
            expect = np.linalg.solve(a + update, b)
            err = np.linalg.norm(x - expect) / np.linalg.norm(expect)
            assert err <= 1e-12, f"k_s={factors.k_s}, sample {m}: {err:.3e}"
            ref, _ = smw_reference(mean, factors, m)
            assert np.allclose(x, ref, rtol=1e-13, atol=0.0)
        state = mean.woodbury(factors)
        if factors is full:
            assert state.u_s is None and state.dim == 4
    assert state.dim == 1 and state.u_s.shape == (4, 1)
    assert np.array_equal(state.u_s[[1, 3]], one.U)
    assert mean.nbytes == _state_bytes(state)
    moved = u.copy()
    moved[[3, 5]] = moved[[5, 3]]
    for factors, dof in ((hand_factors(u, v_list), 4),
                         (hand_factors(moved, v_list, col_dim=4), 5)):
        with pytest.raises(ValueError,
                           match=f"DOF {dof} of the factors lies outside"):
            mean.woodbury(factors)


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
    f1 = dataclasses.replace(f0, U=f0.U @ q)
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
        for name in ("z", "w" if s0.u_s is None else "rhs"):
            assert np.array_equal(getattr(s0, name), getattr(s1, name))
        for m in range(f0.M):
            assert (solve_sample_smw(mean, f0, m).capacitance_cond
                    == solve_sample_smw(mean, f1, m).capacitance_cond)


def test_singular_capacitance_rejected():
    # U = e1, V = -e1 drives the sample matrix to diag(0, 1, 1)
    factors = hand_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.array([[-1.0], [0.0], [0.0]])])
    mean = factor_mean(_toy_system(np.eye(3), np.ones(3), factors=factors))
    with pytest.raises(IllConditionedUpdateError, match="sample 0"):
        solve_sample_smw(mean, factors, 0)


def test_singular_column_support_capacitance_rejected():
    # the same singular update at k = 2 = |S| > c = 1: the pattern holds
    # V_0's one leading row, so J = {0} and C_J = 1 + A_0[0, 0] = 0
    v = np.zeros((3, 2))
    v[0, 0] = -1.0
    factors = hand_factors(np.eye(3)[:, :2], [v], col_dim=1)
    mean = factor_mean(_toy_system(np.eye(3), np.ones(3), factors=factors))
    with pytest.raises(IllConditionedUpdateError, match="sample 0"):
        solve_sample_smw(mean, factors, 0)


def test_exactly_singular_capacitance_rejected_without_a_warning():
    # Abar = I and U = [e1, e2], so C = I + V_0[:2]^T = [[1, 1], [1, 1]]:
    # LU meets an exactly zero pivot, the condition estimate is infinite
    v = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    factors = hand_factors(np.eye(3)[:, :2], [v])
    mean = factor_mean(_toy_system(np.eye(3), np.ones(3), factors=factors))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedUpdateError,
                           match="sample 0: capacitance matrix condition "
                                 "estimate inf exceeds"):
            solve_sample_smw(mean, factors, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_right_factor_is_a_singular_system(bad):
    factors = hand_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.array([[bad], [0.0], [0.0]])])
    mean = factor_mean(_toy_system(np.eye(3), np.ones(3), factors=factors))
    with pytest.raises(SingularSystemError, match="sample 0: non-finite"):
        solve_sample_smw(mean, factors, 0)


# two orthonormal columns on three rows: k_s = 2 < |S| = 3
_TRUNCATED_U = np.array([[1.0, 0.0], [0.0, 0.5**0.5], [0.0, 0.5**0.5]])


def _cached_state(u):
    """A mean (Abar = I, so Z = U) and factors on ``u`` whose Woodbury
    state is cached: U = I is the coordinate basis (k_s = |S| = 3, where
    C_S = I + A_0), ``_TRUNCATED_U`` the basis of U (C = I + U^T A_0 U).
    A_0 sits on the 3 x 3 pattern, entry (i, j) at basis[0, 3 i + j]."""
    rng = np.random.default_rng(5)
    factors = hand_factors(u, [0.1 * rng.normal(size=(3, u.shape[1]))])
    mean = factor_mean(_toy_system(np.eye(3), np.ones(3), factors=factors))
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


class _LastColumnDoubled:
    """An inaccurate solve with Sigma: the LU's, last column doubled."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        x = self.lu.solve(rhs)
        x[:, -1] *= 2.0
        return x


@pytest.mark.parametrize("u, col_dim, what", [
    (np.eye(4)[:, [0, 2, 3]], 1, "the unit column on DOF 3"),
    (_TRUNCATED_U, None, "column 1 of the shared factor")],
    ids=["at |S|", "below |S|"])
def test_inaccurate_solve_in_the_woodbury_build_is_named(u, col_dim, what):
    # Abar = I and a Sigma solve that doubles its last column, whose
    # residual is then 1: at k_s = |S| = 3 (S = R = {0, 2, 3}) that is the
    # unit column on DOF 3, R's last; below, k_s = 2 < |S| = 3, the last
    # column of U.  No factors of an assembled family reach this check
    n, k = u.shape
    factors = hand_factors(u, [np.ones((n, k))], col_dim=col_dim)
    mean = factor_mean(_toy_system(np.eye(n), np.ones(n), factors=factors))
    assert (factors.k_s == mean.s.size) == (col_dim == 1)
    mean.schur_lu = _LastColumnDoubled(mean.schur_lu)
    with pytest.raises(SingularSystemError,
                       match=f"inaccurate solve for {what}: residual "
                             f"1.000e\\+00"):
        mean.woodbury(factors)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_mean_solution_is_a_singular_system():
    factors = hand_factors(np.array([[1.0], [0.0], [0.0]]),
                           [np.array([[2.0], [0.0], [0.0]])])
    mean = factor_mean(_toy_system(np.eye(3), np.ones(3), factors=factors))
    mean.x_bar = np.array([np.inf, 1.0, 1.0])
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
    # S is empty: x = Abar^{-1} b, all from the LU of Abar[T, T] = Abar,
    # the oracle's; x_bar comes from the elimination onto the family's S
    assert probe._direct.s.size == 0
    assert np.array_equal(sol.x, mean_solve(mean, system.b))
    assert (np.linalg.norm(sol.x - mean.x_bar)
            <= 1e-13 * np.linalg.norm(sol.x))


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


def _lu_branches(monkeypatch):
    """Sets the cutoff of the dense direct LU so that a new elimination
    takes each branch in turn: the dense LAPACK LU, then SuperLU's."""
    for branch, cutoff in (("dense", 10**9), ("sparse", 0)):
        monkeypatch.setattr(lowrank_solver, "_DENSE_LU_MAX", cutoff)
        yield branch


def _assert_took(system, branch):
    # the per-pattern part says which LU ran: no column order when dense
    assert system._direct.direct_lu == branch
    assert (system._direct._order[0] is None) == (branch == "dense")


@pytest.mark.parametrize("geometry", [None, POROUS_BELOW, SHALLOW_POROUS],
                         ids=["problem20", "porous_below", "shallow_porous"])
def test_direct_solve_matches_a_fresh_colamd_splu_to_1e12(problem20,
                                                          geometry,
                                                          monkeypatch):
    # one pattern for the whole family: the rest of Abar is eliminated and
    # the per-pattern part (Sigma held dense, or SuperLU's column order)
    # taken once, and every sample's solution on either LU is the fresh
    # splu's of the full matrix to roundoff
    family = (problem20["system"] if geometry is None
              else _family(*geometry))
    for branch in _lu_branches(monkeypatch):
        system = dataclasses.replace(family)
        for m in range(len(system.A_tildes)):
            _assert_direct_matches_oracle(system, m)
        _assert_took(system, branch)


def test_direct_loop_at_n8_takes_no_superlu_of_the_condensed_matrix(
        problem20, monkeypatch):
    # at |S| = 135 every direct sample factors Sigma + A_m[S, S] with one
    # dense LAPACK LU: past the elimination, which factors Sigma once for
    # x_bar, splu sees no |S| x |S| matrix, where forced onto SuperLU the
    # loop takes the column order and one numeric LU per sample; the two
    # solutions agree to 1e-13
    splu = lowrank_solver.spla.splu
    solved, calls = {}, {}
    for branch in _lu_branches(monkeypatch):
        system = dataclasses.replace(problem20["system"])
        k = factor_mean(system).s.size
        calls[branch] = 0

        def counted_splu(a, *args, **kwargs):
            calls[branch] += a.shape == (k, k)
            return splu(a, *args, **kwargs)

        monkeypatch.setattr(lowrank_solver.spla, "splu", counted_splu)
        solved[branch] = [solve_sample_direct(system, m).x
                          for m in range(len(system.A_tildes))]
        monkeypatch.setattr(lowrank_solver.spla, "splu", splu)
        _assert_took(system, branch)
    monkeypatch.undo()
    assert k == 135 and lowrank_solver._DENSE_LU_MAX >= k
    assert calls == {"dense": 0, "sparse": len(system.A_tildes) + 1}
    for dense, sparse in zip(solved["dense"], solved["sparse"]):
        assert (np.linalg.norm(dense - sparse)
                <= 1e-13 * np.linalg.norm(sparse))


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


def test_direct_solve_follows_values_edited_in_place(problem20,
                                                    monkeypatch):
    # the same Abar and b objects, edited in place between two solves:
    # the state kept from the first solve must not answer the second,
    # on either LU
    for branch in _lu_branches(monkeypatch):
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
        _assert_took(system, branch)


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


def test_direct_solve_checks_each_residual(monkeypatch):
    # Wilkinson's matrix (1 on the diagonal, -1 below it, 1 in the last
    # column) doubles its last column at every step of an LU with partial
    # pivoting: at 64 DOFs the growth 2^63 leaves the solution far from
    # solving the system, and the sample is named.  Its upper triangle is
    # stored as 1e-300, so the pattern is dense, COLAMD keeps the order
    # that grows, and the dense LU runs in that order too
    k = 64
    w = np.eye(k) - np.tril(np.ones((k, k)), -1)
    w[:, -1] = 1.0
    w[np.triu_indices(k, 1)] += 1e-300
    for branch in _lu_branches(monkeypatch):
        system = _toy_system(np.eye(k), np.arange(1.0, k + 1),
                             tildes=[sp.csr_matrix(w - np.eye(k))])
        with pytest.raises(SingularSystemError,
                           match="sample 0: direct solve residual"):
            solve_sample_direct(system, 0)
        _assert_took(system, branch)


def test_singular_sample_is_diagnosed(monkeypatch):
    # samples 0 and 2 cancel the first diagonal entry of Abar = I, which
    # leaves row 0 empty.  On SuperLU sample 0 fails while the column
    # order is taken, sample 2 in the numeric LU on the order that sample
    # 1 left; on the dense LU both fail at getrf's zero pivot
    singular = sp.csr_matrix(([-1.0], ([0], [0])), shape=(3, 3))
    benign = sp.csr_matrix(([0.5], ([0], [0])), shape=(3, 3))
    for branch in _lu_branches(monkeypatch):
        system = _toy_system(np.eye(3), np.ones(3),
                             tildes=[singular, benign, singular])
        for m in (0, 2):
            with pytest.raises(SingularSystemError,
                               match=f"sample {m}: matrix factorization "
                                     r"failed .*suspect DOF 0 "
                                     r"\(structurally empty row\)"):
                solve_sample_direct(system, m)
            assert solve_sample_direct(system, 1).x == pytest.approx(
                [2 / 3, 1.0, 1.0], rel=1e-15)
        _assert_took(system, branch)


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
