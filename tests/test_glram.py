"""Shared-factor compression: Gram accumulation, spectra, error formulas."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import dense_u, right_factor, rmsre_per_sample
from sdlowrank import (
    CovarianceKernel,
    EigensolverError,
    Geometry,
    GramMatrix,
    NonFiniteFamilyError,
    PhysicalParams,
    apply_dirichlet,
    assemble_family,
    build_gram,
    build_kl,
    build_mesh,
    draw_samples,
    energy_ratio,
    factorize,
    numerical_rank,
    rmsre,
    rmsre_closed_form,
    select_theta,
    write_report,
)
from sdlowrank.glram import RANK_RTOL, _pattern_rows


def _random_family(rng, n, block_rows, block_cols, M, rank=None):
    """Sparse matrices supported on the leading block_rows x block_cols."""
    out = []
    for _ in range(M):
        if rank is None:
            dense = rng.normal(size=(block_rows, block_cols))
        else:
            dense = rng.normal(size=(block_rows, rank)) @ rng.normal(
                size=(rank, block_cols)
            )
        a = np.zeros((n, n))
        a[:block_rows, :block_cols] = dense
        out.append(sp.csr_matrix(a))
    return out


def _assert_block_is_the_dense_sum_on_its_support(gram, full):
    """gram holds the dense sum ``full`` of A_m A_m^T on S, its nonzero rows.

    So the dense sum is exactly zero off S, and S is found by build_gram.
    """
    s = gram.support
    assert np.array_equal(s, np.flatnonzero(full.any(axis=1)))
    assert gram.block.shape == (s.size, s.size)
    assert (np.linalg.norm(gram.block - full[np.ix_(s, s)])
            <= 1e-12 * np.linalg.norm(full))


# ---------------------------------------------------------------------------
# Gram accumulation
# ---------------------------------------------------------------------------

def test_build_gram_single_hand_case():
    a = np.zeros((4, 4))
    a[0, 0], a[0, 1] = 1.0, 2.0
    # the same matrix with zeros stored past its last nonzero row and
    # column: stored zeros are not support and must not widen the block
    stored = sp.csr_matrix(
        ([1.0, 2.0, 0.0, 0.0], ([0, 0, 2, 3], [0, 1, 3, 2])), shape=(4, 4))
    assert stored.nnz == 4
    for matrix in (sp.csr_matrix(a), stored):
        gram = build_gram([matrix])
        # support: one nonzero row, two nonzero columns -> auto block of 2
        assert gram.block_dim == 2
        assert gram.n_full == 4
        # G = [[5, 0], [0, 0]] is held on its support S = {0}
        assert np.array_equal(gram.support, [0])
        assert np.array_equal(gram.block, [[5.0]])
        _assert_block_is_the_dense_sum_on_its_support(gram, a @ a.T)
        assert gram.trace == 5.0


def test_build_gram_matches_naive_sum():
    rng = np.random.default_rng(0)
    fam = _random_family(rng, n=9, block_rows=5, block_cols=3, M=4)
    gram = build_gram(fam)
    assert gram.block_dim == 5
    assert np.array_equal(gram.support, np.arange(5))
    naive = np.zeros((9, 9))
    for a in fam:
        d = a.toarray()
        naive += d @ d.T
    assert np.allclose(gram.block, naive[:5, :5], atol=1e-13)
    assert np.abs(naive[5:, :]).max() == 0.0
    assert np.array_equal(gram.block, gram.block.T)
    frob = sum(sp.linalg.norm(a) ** 2 for a in fam)
    assert gram.trace == pytest.approx(frob, rel=1e-13)


def test_build_gram_declared_block(problem20):
    system = problem20["system"]
    tildes = system.A_tildes
    auto = build_gram(tildes)
    declared = build_gram(tildes, block_dim=system.n_flow)
    # constrained interface rows may end before the declared bound, but
    # the declared block must contain the detected one; both hold the
    # same support
    assert auto.block_dim <= declared.block_dim
    assert np.array_equal(auto.support, declared.support)
    assert np.allclose(auto.block, declared.block, atol=1e-13)


def test_build_gram_allocates_less_than_one_dense_block():
    # n=16, M=20: only |S| = 527 of the block_dim = 1683 rows are nonzero,
    # and no block_dim x block_dim array is formed on the way to G[S, S]
    mesh = build_mesh(n=16)
    kl = build_kl(CovarianceKernel(correlation_length_sq=0.2), mesh,
                  epsilon=0.01)
    system = assemble_family(mesh, PhysicalParams(), kl,
                             draw_samples(kl, M=20, seed=1234).coefficients)
    tracemalloc.start()
    try:
        gram = build_gram(system.A_tildes, block_dim=system.n_flow)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (gram.block_dim, gram.support.size) == (1683, 527)
    assert peak < gram.block_dim ** 2 * 8


def test_eigenpairs_peak_stays_near_the_eigensolver_at_n16():
    # |S| = 527: the eigenvectors held are 2.24 MB and eigh alone needs
    # 4.61 MB (its copy of G[S, S] and its output); the residuals and
    # signs are taken 64 columns at a time on eigh's output and the signs
    # set in place on the row-major copy, so nothing |S| x |S| is added
    mesh = build_mesh(n=16)
    kl = build_kl(CovarianceKernel(correlation_length_sq=0.2), mesh,
                  epsilon=0.01)
    system = assemble_family(mesh, PhysicalParams(), kl,
                             draw_samples(kl, M=3, seed=1234).coefficients)
    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, v = gram.eigenpairs()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert v.shape == (527, 527) and v.flags.c_contiguous
    assert peak < 4.8e6


def test_build_gram_holds_one_copy_of_the_family(raw200):
    raw, constraints = raw200
    system = apply_dirichlet(raw, constraints)
    tracemalloc.start()
    try:
        gram = build_gram(system.A_tildes, block_dim=system.n_flow)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, p = gram._span[4].shape[0], gram._span[0].shape[1]
    assert (m, p) == (200, system.A_tildes[0].nnz)
    # the M x p rows once, not their copy and two residual temporaries
    assert peak < 1.5 * m * p * 8


def test_build_gram_validation():
    with pytest.raises(ValueError):
        build_gram([])
    a = sp.eye(3, format="csr")
    b = sp.eye(4, format="csr")
    with pytest.raises(ValueError, match="shape"):
        build_gram([a, b])
    c = np.zeros((5, 5))
    c[3, 0] = 1.0
    with pytest.raises(ValueError, match="outside"):
        build_gram([sp.csr_matrix(c)], block_dim=2)
    with pytest.raises(ValueError, match="exceeds"):
        build_gram([sp.csr_matrix(c)], block_dim=6)


@st.composite
def _sparse_families(draw):
    """(n, dense arrays, sparse family) of random sparse n x n matrices.

    Some members are all zero, and every member stores the one pattern
    of the family, which may hold explicit zeros anywhere, so also
    outside the true support.
    """
    n = draw(st.integers(1, 8))
    value = st.just(0.0) | st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)
    dense = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(hnp.arrays(np.float64, (n, n), elements=value))
        if draw(st.booleans()):
            d[:] = 0.0
        dense.append(d)
    stored = (np.stack(dense) != 0.0).any(axis=0) | draw(
        hnp.arrays(np.bool_, (n, n)))
    rows, cols = np.nonzero(stored)
    family = [sp.coo_matrix((d[rows, cols], (rows, cols)), shape=(n, n))
              .asformat(draw(st.sampled_from(["csr", "csc", "coo"])))
              for d in dense]
    return n, dense, family, None


@st.composite
def _span_families(draw):
    """(n, dense arrays, sparse family, r) with A_m = sum_j Y[m, j] B_j.

    The r < M random B_j share one pattern, stored in every member also
    where the sum vanishes, so the family spans exactly r matrices.
    """
    n = draw(st.integers(1, 8))
    stored = draw(hnp.arrays(np.bool_, (n, n)))
    r = draw(st.integers(0, min(3, int(stored.sum()))))
    M = draw(st.integers(r + 1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = np.zeros((r, n, n))
    basis[:, stored] = rng.normal(size=(r, int(stored.sum())))
    dense = list(np.tensordot(rng.normal(size=(M, r)), basis, axes=1))
    rows, cols = np.nonzero(stored)
    family = [sp.csr_matrix((d[rows, cols], (rows, cols)), shape=(n, n))
              for d in dense]
    return n, dense, family, r


@settings(deadline=None, max_examples=100)
@given(_sparse_families() | _span_families())
def test_build_gram_matches_dense_sum_on_random_families(case):
    n, dense, family, r = case
    full = sum(d @ d.T for d in dense)
    support = np.any(np.stack(dense) != 0.0, axis=0)
    last_row = np.flatnonzero(support.any(axis=1)).max(initial=-1)
    last_col = np.flatnonzero(support.any(axis=0)).max(initial=-1)
    dim = max(last_row + 1, last_col + 1, 1)

    auto = build_gram(family)
    assert auto.block_dim == dim
    _assert_block_is_the_dense_sum_on_its_support(auto, full)
    declared = build_gram(family, block_dim=n)
    assert declared.block_dim == n
    _assert_block_is_the_dense_sum_on_its_support(declared, full)
    if r is not None:
        assert factorize(auto, family, 1.0).span_dim == r


@st.composite
def _csr_families(draw):
    """(n, family) of n x n CSR matrices on one pattern built from raw
    arrays, so rows may hold unsorted and repeated column indices.  Each
    matrix holds its own copy of the pattern's arrays."""
    n = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    indices = np.array(draw(st.lists(st.integers(0, n - 1),
                                     min_size=sum(counts),
                                     max_size=sum(counts))), dtype=np.int32)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    value = st.just(0.0) | st.floats(-2.0, 2.0, allow_subnormal=False)
    family = []
    for _ in range(draw(st.integers(1, 6))):
        data = draw(hnp.arrays(np.float64, indices.size, elements=value))
        family.append(sp.csr_matrix((data, indices.copy(), indptr.copy()),
                                    shape=(n, n)))
    return n, family


@settings(deadline=None, max_examples=100)
@given(_csr_families())
def test_pattern_rows_matches_a_bincount_per_matrix(case):
    # each matrix scattered on its own, duplicates summed in storage
    # order; the stored zeros stay in the pattern
    n, family = case
    col_dim = max((int(a.indices.max()) + 1 for a in family if a.nnz),
                  default=0)
    flats = [np.repeat(np.arange(n) * col_dim, np.diff(a.indptr))
             + a.indices for a in family]
    dense = [np.bincount(f, weights=a.data, minlength=n * col_dim)
             for f, a in zip(flats, family)]
    pattern = np.unique(np.concatenate(flats)).astype(int)
    h, rows, cols, got_col_dim = _pattern_rows(family, n)
    assert got_col_dim == col_dim
    assert np.array_equal(h, np.array([d[pattern] for d in dense])
                          .reshape(len(family), pattern.size))
    assert np.array_equal(rows * max(col_dim, 1) + cols, pattern)


def test_build_gram_names_the_first_matrix_off_the_pattern():
    # a family is one pattern: a member storing one entry less, or the
    # same entries unsorted behind a canonical first member, is off it.
    # Behind an unsorted first member every member is sorted first
    a = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
    cut = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 3.0]]))
    unsorted = sp.csr_matrix(([2.0, 1.0, 3.0], [1, 0, 1], [0, 2, 3]),
                             shape=(2, 2))
    for family, m in (([a, a, cut], 2), ([a, unsorted], 1)):
        with pytest.raises(ValueError, match=f"matrix {m} is not on the "
                                             f"sparsity pattern of matrix 0"):
            build_gram(family)
    assert np.array_equal(build_gram([unsorted, a]).block,
                          build_gram([a, a]).block)


def test_eigenpairs_cached_and_descending(gram20):
    w1, v1 = gram20.eigenpairs()
    w2, v2 = gram20.eigenpairs()
    assert w1 is w2 and v1 is v2
    assert np.all(np.diff(w1) <= 0)
    assert w1[0] > 0


def test_indefinite_gram_rejected():
    gram = GramMatrix(block=np.diag([1.0, -1.0]), n_full=2, block_dim=2, M=1,
                      support=np.arange(2))
    with pytest.raises(EigensolverError, match="indefinite"):
        gram.eigenpairs()


@pytest.mark.parametrize("block, dim", [
    # G = diag(1, 0, -1, 0) on S = {0, 2}
    (np.diag([1.0, -1.0]), 4),
    # a zero diagonal: G = [[0, 0, 1], [0, 0, 0], [1, 0, 0]] on S = {0, 2}
    (np.array([[0.0, 1.0], [1.0, 0.0]]), 3),
], ids=["diagonal", "off-diagonal"])
def test_indefinite_gram_with_zero_rows_rejected(block, dim):
    # the support block is checked before the zero rows are added
    gram = GramMatrix(block=block, n_full=dim, block_dim=dim, M=1,
                      support=np.array([0, 2]))
    with pytest.raises(EigensolverError, match="indefinite"):
        gram.eigenpairs()


def test_all_zero_gram_block():
    # no support: the spectrum is all zeros, the factors hold no U, and
    # U is unit vectors, in the order the full-block eigensolve used to
    # give
    zero = sp.csr_matrix((5, 5))
    gram = build_gram([zero], block_dim=3)
    assert gram.block.shape == (0, 0)
    _assert_block_is_the_dense_sum_on_its_support(gram, np.zeros((5, 5)))
    assert numerical_rank(gram) == 0
    assert select_theta(gram) == (0.2, 1)
    factors = factorize(gram, [zero], 1.0)
    assert factors.k == 3
    assert np.array_equal(gram.eigenvalues[:3], np.zeros(3))
    assert factors.U.shape == (0, 0) and factors.k_s == 0
    assert np.array_equal(dense_u(factors, gram), np.eye(5)[:, [2, 1, 0]])
    assert not right_factor(factors, 0, gram).any()
    assert (factors.rmsre, factors.energy_ratio, factors.col_dim) == \
        (0.0, 1.0, 0)
    assert factors.span_dim == 0
    # r = 0: the direct error sums no residual
    assert rmsre(gram, factors) == 0.0


def test_non_finite_gram_block_is_an_eigensolver_failure():
    # build_gram rejects a non-finite family, so the NaN is put in the
    # block by hand: G = diag(1, 0, nan) on S = {0, 2}
    gram = GramMatrix(block=np.diag([1.0, np.nan]), n_full=4,
                      block_dim=3, M=1, support=np.array([0, 2]))
    with pytest.raises(EigensolverError,
                       match="non-finite entries in the 2x2 support of "
                             "the 3x3 Gram block"):
        gram.eigenpairs()


def test_non_finite_perturbation_is_named_by_build_gram():
    # the span must not stop at r = 0 and solve every sample as x_bar
    a = sp.csr_matrix(np.diag([1.0, 2.0, 0.0]))
    b = a.copy()
    b.data[1] = np.nan
    with pytest.raises(NonFiniteFamilyError,
                       match="perturbation 1 has non-finite entries"):
        build_gram([a, b])


def test_factorize_rejects_a_gram_matrix_build_gram_did_not_make():
    # a hand-built Gram matrix carries no span to take W and Y from
    gram = GramMatrix(block=np.eye(2), n_full=2, block_dim=2, M=1,
                      support=np.arange(2))
    with pytest.raises(ValueError, match="build_gram"):
        factorize(gram, [sp.eye(2, format="csr")], 1.0)


@st.composite
def _psd_blocks_with_zero_rows(draw):
    """(gram, family, zero rows, rank): one matrix whose rows vanish at random.

    The nonzero rows hold Q diag(s) with orthonormal Q and s^2 in
    [1e-6, 1], so the Gram block Q diag(s^2) Q^T has a known rank, clear
    of the cutoff, and zero rows and columns scattered through it.
    """
    dim = draw(st.integers(1, 12))
    rows = draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
    rank = draw(st.integers(0, len(rows)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(len(rows), rank)))
    n = dim + draw(st.integers(0, 3))
    a = np.zeros((n, n))
    a[np.ix_(sorted(rows), range(rank))] = q * 10.0 ** rng.uniform(-3, 0, rank)
    zero_rows = np.flatnonzero(~a[:dim].any(axis=1))
    family = [sp.csr_matrix(a)]
    return build_gram(family, block_dim=dim), family, zero_rows, rank


def _select_k(w, target):
    """select_theta's k computed from a given spectrum."""
    w = np.clip(w, 0.0, None)
    if w.sum() == 0.0:
        return 1
    return int(np.searchsorted(np.cumsum(w) / w.sum(), target)) + 1


@settings(deadline=None, max_examples=100)
@given(_psd_blocks_with_zero_rows())
def test_support_eigensolve_matches_the_dense_block(case):
    gram, family, zero_rows, rank = case
    a = family[0].toarray()
    full = (a @ a.T)[:gram.block_dim, :gram.block_dim]
    _assert_block_is_the_dense_sum_on_its_support(gram, full)
    dense = scipy.linalg.eigh(full, eigvals_only=True)[::-1]
    assert np.array_equal(np.setdiff1d(np.arange(gram.block_dim),
                                       gram.support), zero_rows)
    w = gram.eigenvalues
    assert np.all(np.diff(w) <= 0)
    assert np.abs(w - dense).max() <= 1e-12 * max(dense[0], 0.0)

    dense_rank = (int(np.count_nonzero(dense > RANK_RTOL * dense[0]))
                  if dense[0] > 0.0 else 0)
    assert numerical_rank(gram) == dense_rank == rank
    for target in (1.0 - 1e-9, 0.9):
        assert select_theta(gram, target)[1] == \
            min(_select_k(dense, target), gram.block_dim)

    factors = factorize(gram, family, 1.0)
    u, v = dense_u(factors, gram), right_factor(factors, 0, gram)
    assert factors.k == gram.block_dim
    assert np.abs(u.T @ u - np.eye(factors.k)).max() <= 1e-12
    assert not u[zero_rows, :rank].any()
    assert not u[gram.block_dim:].any()
    # columns on the zero rows are unit vectors with exactly zero V_m
    on_zero = ~u[gram.support].any(axis=0)
    units = u[:, on_zero]
    assert np.array_equal(np.sort(units.nonzero()[0]), zero_rows)
    assert np.all(units.sum(axis=0) == 1.0)
    assert not v[:, on_zero].any()
    assert rmsre(gram, factors) <= 1e-12


@settings(deadline=None, max_examples=100)
@given(_psd_blocks_with_zero_rows())
def test_support_eigenvectors_have_a_positive_largest_entry(case):
    # eigh's eigenvectors of G[S, S], each signed by its largest-magnitude
    # entry
    gram, family = case[:2]
    a = family[0].toarray()
    _assert_block_is_the_dense_sum_on_its_support(gram, a @ a.T)
    s = gram.support
    _, v = gram.eigenpairs()
    ref = scipy.linalg.eigh(gram.block)[1][:, ::-1]
    assert np.array_equal(np.abs(v), np.abs(ref))
    if s.size:
        peak = v[np.argmax(np.abs(v), axis=0), np.arange(s.size)]
        assert np.all(peak > 0.0)


@settings(deadline=None, max_examples=60)
@given(_psd_blocks_with_zero_rows(), st.integers(0, 2**32 - 1))
def test_shared_factor_captures_the_top_gram_energy(case, seed):
    # for every k, U^T H with H = [A_1 ... A_M] captures the top-k Gram
    # spectrum, no orthonormal N x k factor captures more, and the
    # factors and V stop at the k_s = min(k, |S|) columns of U that are
    # not unit vectors on zero rows
    gram, family, _, _ = case
    rng = np.random.default_rng(seed)
    h = sp.hstack(family, format="csr")
    n, w = gram.n_full, gram.eigenvalues
    for k in range(1, gram.block_dim + 1):
        factors = factorize(gram, family, k / n)
        assert factors.k == k
        captured = float(np.sum(np.square(h.T @ dense_u(factors, gram))))
        assert captured == pytest.approx(float(np.sum(w[:k])), rel=1e-10)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(n, k)))
            other = float(np.sum(np.square(h.T @ q)))
            assert other <= captured * (1.0 + 1e-10)
        k_s = factors.k_s
        assert k_s == min(k, gram.support.size)
        assert factors.U.shape == (gram.support.size, k_s)
        for m, v in enumerate(factors.V):
            assert v.shape == (factors.col_dim, k_s)
            assert not right_factor(factors, m, gram)[:, k_s:].any()


# ---------------------------------------------------------------------------
# factorization and reconstruction error
# ---------------------------------------------------------------------------

def test_full_rank_factorization_is_lossless():
    rng = np.random.default_rng(1)
    fam = _random_family(rng, n=10, block_rows=6, block_cols=4, M=3)
    gram = build_gram(fam)
    factors = factorize(gram, fam, theta=1.0)
    assert factors.k == 6  # ceil(1.0 * 10) capped at the block dimension
    assert factors.U.shape == (gram.support.size, 6)
    u = dense_u(factors, gram)
    assert u.shape == (10, 6)
    assert np.abs(u[6:]).max() == 0.0
    assert np.allclose(u.T @ u, np.eye(6), atol=1e-12)
    scale = math.sqrt(gram.trace)
    assert rmsre(gram, factors) <= 1e-9 * scale


def test_full_ratio_factors_hold_u_on_its_support_at_n8(mesh8, params,
                                                       kl8):
    # coarse_fullrank's shape: n=8, M=300, theta = 1, so k = 459 is far
    # past k_s = |S| = c = 135.  factorize forms no N x k array (the
    # eigensolve is done first, as the rank and the selection do it): the
    # factors hold the Gram matrix's 135 x 135 eigenvector array, not the
    # 504 x 459 U of 1,850,688 bytes, and V yields each V_m[:c, :k_s],
    # outside which the oracle's N x k V_m is zero
    system = assemble_family(mesh8, params, kl8,
                             draw_samples(kl8, M=300, seed=1234).coefficients)
    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    gram.eigenpairs()
    tracemalloc.start()
    try:
        factors = factorize(gram, system.A_tildes, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, k, k_s, c = factors.n_full, factors.k, factors.k_s, factors.col_dim
    assert (n, k, k_s, c, gram.support.size) == (504, 459, 135, 135, 135)
    assert peak < n * k * 8 / 4
    assert factors.U.base is gram.eigenpairs()[1]
    r, p = factors.basis.shape
    assert (r, p) == (10, 1161)
    # 1,967,568 bytes while U was held as N x k
    assert factors.nbytes == 8 * (k_s * k_s + r * p + 300 * r) == 262_680
    for m, v in enumerate(factors.V):
        expect = right_factor(factors, m, gram)
        assert v.shape == (c, k_s)
        assert np.array_equal(v, expect[:c, :k_s]), f"V_{m}"
        assert not expect[c:].any() and not expect[:, k_s:].any()


def test_right_factors_are_projections(problem20, gram20):
    # V yields the nonzero block V_m[:c, :k_s] of each A_m^T U
    tildes = problem20["system"].A_tildes
    factors = factorize(gram20, tildes, theta=0.1)
    c, k_s = factors.col_dim, factors.k_s
    vs = list(factors.V)
    assert len(vs) == factors.M == len(tildes)
    for m, (a, v) in enumerate(zip(tildes, vs)):
        expect = a.toarray().T @ dense_u(factors, gram20)
        assert expect.shape == (gram20.n_full, factors.k)
        assert v.shape == (c, k_s)
        assert np.allclose(v, expect[:c, :k_s], atol=1e-12)
        assert not expect[c:].any() and not expect[:, k_s:].any()
        assert np.allclose(right_factor(factors, m, gram20), expect,
                           atol=1e-12)
    # V is a generator: it holds no V_m, so it has no index and no length
    with pytest.raises(TypeError):
        factors.V[0]
    with pytest.raises(TypeError):
        len(factors.V)


def test_single_matrix_error_matches_svd_tail():
    rng = np.random.default_rng(2)
    fam = _random_family(rng, n=8, block_rows=6, block_cols=6, M=1)
    gram = build_gram(fam)
    sing = np.linalg.svd(fam[0].toarray(), compute_uv=False)
    for k in (1, 2, 4):
        factors = factorize(gram, fam, theta=k / 8)
        assert factors.k == k
        tail = math.sqrt(float(np.sum(sing[k:] ** 2)))
        assert rmsre(gram, factors) == pytest.approx(tail, rel=1e-10)
        assert rmsre_closed_form(gram, k) == pytest.approx(tail, rel=1e-8)


def test_repeated_matrix_family_matches_single():
    # M identical copies: the mean-square error over the family equals
    # the single-matrix error, and the Gram spectrum scales by M
    rng = np.random.default_rng(3)
    one = _random_family(rng, n=7, block_rows=5, block_cols=5, M=1)
    fam = one * 4
    g1 = build_gram(one)
    g4 = build_gram(fam)
    assert np.allclose(g4.block, 4.0 * g1.block, atol=1e-12)
    f1 = factorize(g1, one, theta=2 / 7)
    f4 = factorize(g4, fam, theta=2 / 7)
    assert rmsre(g4, f4) == pytest.approx(rmsre(g1, f1), rel=1e-10)


def test_shared_factor_beats_random_candidates():
    # the top-k Gram eigenvectors minimise the family reconstruction
    # error over all orthonormal left factors; no random candidate may
    # do better
    rng = np.random.default_rng(4)
    fam = _random_family(rng, n=5, block_rows=5, block_cols=5, M=3)
    gram = build_gram(fam)
    dense = [a.toarray() for a in fam]
    k = 2
    factors = factorize(gram, fam, theta=k / 5)
    best = rmsre(gram, factors)
    for _ in range(200):
        q, _ = np.linalg.qr(rng.normal(size=(5, k)))
        err2 = 0.0
        for d in dense:
            diff = d - q @ (q.T @ d)
            err2 += float(np.sum(diff * diff))
        assert best <= math.sqrt(err2 / len(dense)) + 1e-12


def test_error_formula_matches_direct_evaluation(problem20, gram20):
    # identity between the direct reconstruction error and the spectrum
    # formula; past the rank both read roundoff, which sets the
    # comparison floor
    tildes = problem20["system"].A_tildes
    floor = 2.0 * math.sqrt(
        np.finfo(float).eps * gram20.trace / gram20.M
    )
    for theta in (0.05, 0.15, 0.3, 0.6, 1.0):
        factors = factorize(gram20, tildes, theta)
        direct = rmsre(gram20, factors)
        formula = rmsre_closed_form(gram20, factors.k)
        assert abs(direct - formula) <= 1e-8 * max(direct, formula) + floor


def _assert_rmsre_matches_the_per_sample_oracle(gram, factors, tildes):
    # where the per-sample error is roundoff, only the floor is checked
    floor = 2.0 * math.sqrt(np.finfo(float).eps * gram.trace / gram.M)
    direct, oracle = rmsre(gram, factors), rmsre_per_sample(factors, tildes)
    if oracle > floor:
        assert direct == pytest.approx(oracle, rel=1e-10)
    else:
        assert direct < floor


@pytest.mark.parametrize("theta", [0.05, 0.1, 0.2, 0.5, 1.0])
def test_rmsre_matches_the_per_sample_oracle(problem20, gram20, theta):
    tildes = problem20["system"].A_tildes
    factors = factorize(gram20, tildes, theta)
    if theta == 1.0:
        # k = 459 past k_s = |S| = 135: U has unit-vector columns, which
        # the factors do not hold
        assert (factors.k, factors.k_s) == (459, 135)
    _assert_rmsre_matches_the_per_sample_oracle(gram20, factors, tildes)


def test_rmsre_is_exactly_zero_when_u_spans_the_gram_support(problem20,
                                                            gram20):
    # at k_s = |S| the rows S of U[:, :k_s] form a square orthogonal
    # matrix, so no residual is left on S and the family has none off S
    tildes = problem20["system"].A_tildes
    for theta in (1.0, select_theta(gram20)[0]):
        factors = factorize(gram20, tildes, theta)
        assert factors.k_s == gram20.support.size
        assert rmsre(gram20, factors) == 0.0


_OTHER_GEOMETRIES = pytest.mark.parametrize("darcy_rect, stokes_rect", [
    ((0.0, 1.0, -0.5, 0.0), (0.0, 1.0, 0.0, 0.5)),
    # |S| = 75 exceeds the column support c = 67
    ((0.0, 1.0, 0.0, 0.25), (0.0, 1.0, -0.5, 0.0)),
], ids=["porous_below", "shallow_porous"])


def _system_and_gram(darcy_rect, stokes_rect):
    """An n=8, M=20 family on another geometry and its Gram matrix."""
    mesh = build_mesh(Geometry(darcy_rect=darcy_rect,
                               stokes_rect=stokes_rect), n=8)
    kl = build_kl(CovarianceKernel(correlation_length_sq=0.2), mesh,
                  epsilon=0.01)
    samples = draw_samples(kl, M=20, seed=1234)
    system = assemble_family(mesh, PhysicalParams(), kl,
                             samples.coefficients)
    return system, build_gram(system.A_tildes, block_dim=system.n_flow)


@_OTHER_GEOMETRIES
def test_rmsre_matches_the_per_sample_oracle_on_other_geometries(
        darcy_rect, stokes_rect):
    system, gram = _system_and_gram(darcy_rect, stokes_rect)
    for theta in (0.1, select_theta(gram)[0], 1.0):
        factors = factorize(gram, system.A_tildes, theta)
        _assert_rmsre_matches_the_per_sample_oracle(gram, factors,
                                                    system.A_tildes)


def _assert_span_holds_the_family(gram, family):
    # every sample is Y B to within the cutoff that stopped the span
    # search: rmsre reads C = R B in place of the family
    h, _, _, _ = _pattern_rows(family, gram.n_full)
    basis, _, _, _, y, _ = gram._span
    cutoff = (max(h.shape) * np.finfo(float).eps
              * np.linalg.norm(h, axis=1).max())
    assert np.linalg.norm(h - y @ basis, axis=1).max() <= cutoff


def test_build_gram_span_holds_the_family(problem20, gram20):
    _assert_span_holds_the_family(gram20, problem20["system"].A_tildes)


@_OTHER_GEOMETRIES
def test_build_gram_span_holds_the_family_on_other_geometries(
        darcy_rect, stokes_rect):
    system, gram = _system_and_gram(darcy_rect, stokes_rect)
    _assert_span_holds_the_family(gram, system.A_tildes)


def _assert_support_is_the_nonzero_rows_of_the_family_sum(gram, family):
    # sum_m A_m A_m^T formed from the family itself, not from its span
    h = sp.hstack(family, format="csr")
    _assert_block_is_the_dense_sum_on_its_support(gram, (h @ h.T).toarray())


def test_build_gram_support_is_the_nonzero_rows_of_the_family_sum(
        problem20, gram20):
    _assert_support_is_the_nonzero_rows_of_the_family_sum(
        gram20, problem20["system"].A_tildes)


@_OTHER_GEOMETRIES
def test_build_gram_support_is_the_nonzero_rows_on_other_geometries(
        darcy_rect, stokes_rect):
    system, gram = _system_and_gram(darcy_rect, stokes_rect)
    _assert_support_is_the_nonzero_rows_of_the_family_sum(gram,
                                                          system.A_tildes)


def test_rmsre_rejects_factors_of_another_gram_matrix(problem20, gram20):
    # the same family in reverse order has the same span, another Y
    tildes = problem20["system"].A_tildes[::-1]
    other = build_gram(tildes, block_dim=gram20.block_dim)
    factors = factorize(other, tildes, 0.3)
    with pytest.raises(ValueError, match="not made from this Gram matrix"):
        rmsre(gram20, factors)
    with pytest.raises(ValueError, match="not made from this Gram matrix"):
        rmsre(other, factorize(gram20, tildes, 0.3))
    # a hand-built Gram matrix carries no span
    bare = GramMatrix(block=gram20.block, n_full=gram20.n_full,
                      block_dim=gram20.block_dim, M=gram20.M,
                      support=gram20.support)
    with pytest.raises(ValueError, match="not made from this Gram matrix"):
        rmsre(bare, factors)


def test_rmsre_of_entries_off_the_gram_support():
    # a = diag(2, 1, 0) with the zero stored: S = {0, 1}.  At k = 1 the
    # entry on row 1 is off the rows of U[:, :1] and all residual; at
    # k = 2 and at k = 3, whose unit-vector column sits on the zero row
    # 2, nothing is left
    a = sp.csr_matrix(([2.0, 1.0, 0.0], ([0, 1, 2], [0, 1, 2])),
                      shape=(3, 3))
    gram = build_gram([a], block_dim=3)
    assert list(gram.support) == [0, 1]
    assert rmsre(gram, factorize(gram, [a], 1 / 3)) == 1.0
    assert rmsre(gram, factorize(gram, [a], 2 / 3)) == 0.0
    assert rmsre(gram, factorize(gram, [a], 1.0)) == 0.0


def test_factorize_col_dim_is_the_stored_column_support(problem20, gram20):
    tildes = problem20["system"].A_tildes
    support = max(int(a.tocsr().indices.max()) + 1 for a in tildes if a.nnz)
    # the perturbations only couple head columns, a fraction of N
    assert support <= problem20["mesh"].N1 < gram20.n_full
    for theta in (0.1, 1.0):
        factors = factorize(gram20, tildes, theta)
        assert factors.col_dim == support
        for m, v in enumerate(factors.V):
            assert v.shape == (support, factors.k_s)
            assert not np.any(right_factor(factors, m, gram20)[support:])
    # a stored zero widens the support, also in a family whose other
    # member is zero on the same pattern, and an empty family has none
    a = sp.csr_matrix(([1.0, 0.0], ([0, 1], [0, 3])), shape=(5, 5))
    zero = sp.csr_matrix((0.0 * a.data, a.indices, a.indptr), a.shape)
    empty = sp.csr_matrix((5, 5))
    assert factorize(build_gram([a, zero]), [a, zero], 1.0).col_dim == 4
    assert factorize(build_gram([empty]), [empty], 1.0).col_dim == 0


def test_factorize_validation(gram20, problem20):
    tildes = problem20["system"].A_tildes
    with pytest.raises(ValueError, match="matrices"):
        factorize(gram20, tildes[:3], theta=0.5)
    with pytest.raises(ValueError, match="theta"):
        factorize(gram20, tildes, theta=0.0)
    with pytest.raises(ValueError, match="theta"):
        factorize(gram20, tildes, theta=1.5)


# ---------------------------------------------------------------------------
# energy ratio and compression selection
# ---------------------------------------------------------------------------

def test_energy_ratio_endpoints_and_monotonicity(gram20):
    assert energy_ratio(gram20, 0.0) == 0.0
    assert energy_ratio(gram20, 1.0) == pytest.approx(1.0, rel=1e-12)
    grid = np.linspace(0.0, 1.0, 41)
    vals = [energy_ratio(gram20, t) for t in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        energy_ratio(gram20, -0.1)
    with pytest.raises(ValueError):
        energy_ratio(gram20, 1.1)


def test_select_theta_spectrum_with_negligible_tail():
    # G = diag(10, 5, 1e-14, 0) on S = {0, 1, 2}
    gram = GramMatrix(block=np.diag([10.0, 5.0, 1e-14]),
                      n_full=10, block_dim=4, M=1, support=np.arange(3))
    theta, k = select_theta(gram)
    assert k == 2
    assert theta == pytest.approx(0.2)


def test_select_theta_exact_rank_at_target_one():
    # G = diag(4, 3, 0, 0) on S = {0, 1}
    gram = GramMatrix(block=np.diag([4.0, 3.0]),
                      n_full=8, block_dim=4, M=1, support=np.arange(2))
    theta, k = select_theta(gram, energy_target=1.0)
    assert k == 2
    assert theta == pytest.approx(0.25)


def test_select_theta_stops_at_the_rank_at_target_one():
    # n=4, M=5: the cumulative energy ends a few ulps below 1, where an
    # uncapped search ran off the end to block_dim = 135
    mesh = build_mesh(n=4)
    kl = build_kl(CovarianceKernel(correlation_length_sq=0.2), mesh,
                  epsilon=0.01)
    system = assemble_family(mesh, PhysicalParams(), kl,
                             draw_samples(kl, M=5, seed=1234).coefficients)
    gram = build_gram(system.A_tildes, block_dim=system.n_flow)
    assert gram.block_dim == 135
    theta, k = select_theta(gram, energy_target=1.0)
    assert k == numerical_rank(gram) == 35
    assert theta == k / gram.n_full


def test_select_theta_minimality(gram20):
    target = 1.0 - 1e-9
    theta, k = select_theta(gram20, energy_target=target)
    n = gram20.n_full
    assert theta == k / n
    assert energy_ratio(gram20, k / n) >= target
    assert energy_ratio(gram20, (k - 1) / n) < target


@pytest.mark.parametrize("n", [84, 150, 504, 1836, 6996])
def test_theta_of_k_reads_back_as_k(n):
    # select_theta reports theta = k/N; energy_ratio must read it back as
    # the same k, also where theta*N rounds up past the integer k, and
    # one ulp above k/N as k+1, also where theta*N rounds down to k
    dim = min(n, 600)
    gram = GramMatrix(block=np.eye(dim), n_full=n, block_dim=dim, M=1,
                      support=np.arange(dim))
    for k in range(dim + 1):
        assert energy_ratio(gram, k / n) == k / dim, f"k={k}"
        above = min(float(np.nextafter(k / n, 2.0)), 1.0)
        assert energy_ratio(gram, above) == min(k + 1, dim) / dim, f"k={k}"


def test_factorize_keeps_k_of_theta_k_over_n():
    # 23/84 * 84 rounds to 23.000000000000004
    a = sp.diags(np.arange(84.0, 0.0, -1.0), format="csr")
    gram = build_gram([a])
    factors = factorize(gram, [a], 23 / 84)
    assert factors.k == 23
    w = gram.eigenvalues
    assert factors.energy_ratio == float(np.sum(w[:23])) / float(np.sum(w))


def test_select_theta_validation(gram20):
    with pytest.raises(ValueError):
        select_theta(gram20, energy_target=0.0)
    with pytest.raises(ValueError):
        select_theta(gram20, energy_target=1.0 + 1e-12)


def test_numerical_rank():
    # G = diag(1, 1e-5, 1e-11, 0) on S = {0, 1, 2}
    gram = GramMatrix(block=np.diag([1.0, 1e-5, 1e-11]),
                      n_full=4, block_dim=4, M=1, support=np.arange(3))
    assert numerical_rank(gram) == 2
    zero = GramMatrix(block=np.zeros((0, 0)), n_full=3, block_dim=3, M=1,
                      support=np.arange(0))
    assert numerical_rank(zero) == 0


def test_coupled_problem_rank_and_cliff(gram20, rank20):
    # the perturbations are linear images of a 10-mode field, but their
    # joint left range is far richer; past it the spectrum collapses
    w = gram20.eigenvalues
    assert rank20 == 135
    assert w[rank20] / w[0] < 1e-12
    assert w[rank20 - 1] / w[0] > 1e-10


def test_selected_theta_tracks_rank(gram20, rank20):
    theta, k = select_theta(gram20)
    assert k == rank20
    assert theta == pytest.approx(rank20 / gram20.n_full)


# ---------------------------------------------------------------------------
# bookkeeping and serialization
# ---------------------------------------------------------------------------

def test_storage_reduction_identity(problem20, gram20):
    tildes = problem20["system"].A_tildes
    for theta in (0.1, 0.5):
        factors = factorize(gram20, tildes, theta)
        assert factors.theta_effective == factors.k / factors.n_full
        expect = factors.theta_effective * (1.0 + 1.0 / factors.M)
        assert factors.storage_reduction == expect


def test_report_round_trip(tmp_path, problem20, gram20):
    tildes = problem20["system"].A_tildes
    factors = factorize(gram20, tildes, theta=0.3)
    direct = rmsre(gram20, factors)
    txt = tmp_path / "report.txt"
    csv = tmp_path / "spectrum.csv"
    write_report(gram20, factors, direct, txt, csv)
    values = dict(ln.split(" = ") for ln in txt.read_text().splitlines())
    # at theta=0.3 k exceeds the rank, so the two errors differ only by
    # roundoff, which test_error_formula_matches_direct_evaluation bounds;
    # here the report must carry each evaluation unchanged
    assert values["rmsre_direct"] == f"{direct:.12e}"
    assert values["rmsre_formula"] == \
        f"{rmsre_closed_form(gram20, factors.k):.12e}"
    assert values["storage_reduction"] == \
        f"{factors.storage_reduction:.12e}"
    assert values["selected_theta"] == f"{factors.theta_effective:.12e}"
    assert int(values["selected_k"]) == factors.k
    assert int(values["samples"]) == 20
    assert int(values["dimension"]) == gram20.n_full
    curve = {key: val for key, val in values.items()
             if key.startswith("energy[")}
    assert len(curve) == 21
    assert curve["energy[0.300000]"] == f"{energy_ratio(gram20, 0.3):.12e}"
    lines = csv.read_text().splitlines()
    assert lines[0] == "index,eigenvalue,cumulative_energy"
    assert len(lines) == 1 + gram20.eigenvalues.size
    last = lines[-1].split(",")
    assert float(last[2]) == pytest.approx(1.0, abs=1e-9)
