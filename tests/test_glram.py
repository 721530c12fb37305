"""Shared-factor compression: Gram accumulation, spectra, error formulas."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sdlowrank import (
    EigensolverError,
    GramMatrix,
    build_gram,
    build_report,
    energy_ratio,
    factorize,
    numerical_rank,
    rmsre,
    rmsre_closed_form,
    select_theta,
    write_report,
)


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


def _dense_block(a, block_dim):
    return np.asarray(sp.csr_matrix(a).todense())[:block_dim, :block_dim]


# ---------------------------------------------------------------------------
# Gram accumulation
# ---------------------------------------------------------------------------

def test_build_gram_single_hand_case():
    a = np.zeros((4, 4))
    a[0, 0], a[0, 1] = 1.0, 2.0
    gram = build_gram([sp.csr_matrix(a)])
    # support: one nonzero row, two nonzero columns -> auto block of 2
    assert gram.block_dim == 2
    assert gram.n_full == 4
    assert np.array_equal(gram.block, [[5.0, 0.0], [0.0, 0.0]])
    assert gram.trace == 5.0


def test_build_gram_matches_naive_sum():
    rng = np.random.default_rng(0)
    fam = _random_family(rng, n=9, block_rows=5, block_cols=3, M=4)
    gram = build_gram(fam)
    assert gram.block_dim == 5
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
    mesh = problem20["mesh"]
    tildes = problem20["system"].A_tildes
    auto = build_gram(tildes)
    declared = build_gram(tildes, block_dim=mesh.N1 + 2 * mesh.N2)
    # constrained interface rows may end before the declared bound, but
    # the declared block must contain the detected one
    assert auto.block_dim <= declared.block_dim
    d = declared.block[: auto.block_dim, : auto.block_dim]
    assert np.allclose(auto.block, d, atol=1e-13)


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

    Some members are all zero, and every member may store explicit zeros
    anywhere its dense array vanishes, so also outside the true support.
    """
    n = draw(st.integers(1, 8))
    value = st.just(0.0) | st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)
    dense, family = [], []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(hnp.arrays(np.float64, (n, n), elements=value))
        if draw(st.booleans()):
            d[:] = 0.0
        stored = (d != 0.0) | draw(hnp.arrays(np.bool_, (n, n)))
        rows, cols = np.nonzero(stored)
        a = sp.coo_matrix((d[rows, cols], (rows, cols)), shape=(n, n))
        dense.append(d)
        family.append(a.asformat(draw(st.sampled_from(["csr", "csc", "coo"]))))
    return n, dense, family


@settings(deadline=None, max_examples=100)
@given(_sparse_families())
def test_build_gram_matches_dense_sum_on_random_families(case):
    n, dense, family = case
    full = sum(d @ d.T for d in dense)
    scale = np.linalg.norm(full)
    support = np.any(np.stack(dense) != 0.0, axis=0)
    last_row = np.flatnonzero(support.any(axis=1)).max(initial=-1)
    last_col = np.flatnonzero(support.any(axis=0)).max(initial=-1)
    dim = max(last_row + 1, last_col + 1, 1)

    auto = build_gram(family)
    assert auto.block_dim == dim
    assert np.linalg.norm(auto.block - full[:dim, :dim]) <= 1e-12 * scale
    declared = build_gram(family, block_dim=n)
    assert declared.block.shape == (n, n)
    assert np.linalg.norm(declared.block - full) <= 1e-12 * scale


def test_eigenpairs_cached_and_descending(gram20):
    w1, v1 = gram20.eigenpairs()
    w2, v2 = gram20.eigenpairs()
    assert w1 is w2 and v1 is v2
    assert np.all(np.diff(w1) <= 0)
    assert w1[0] > 0


def test_indefinite_gram_rejected():
    gram = GramMatrix(block=np.diag([1.0, -1.0]), n_full=2, block_dim=2, M=1)
    with pytest.raises(EigensolverError, match="indefinite"):
        gram.eigenpairs()


# ---------------------------------------------------------------------------
# factorization and reconstruction error
# ---------------------------------------------------------------------------

def test_full_rank_factorization_is_lossless():
    rng = np.random.default_rng(1)
    fam = _random_family(rng, n=10, block_rows=6, block_cols=4, M=3)
    gram = build_gram(fam)
    factors = factorize(gram, fam, theta=1.0)
    assert factors.k == 6  # ceil(1.0 * 10) capped at the block dimension
    assert factors.U.shape == (10, 6)
    assert np.abs(factors.U[6:]).max() == 0.0
    assert np.allclose(factors.U.T @ factors.U, np.eye(6), atol=1e-12)
    scale = math.sqrt(gram.trace)
    assert rmsre(factors, fam) <= 1e-9 * scale


def test_right_factors_are_projections(problem20, gram20):
    tildes = problem20["system"].A_tildes
    factors = factorize(gram20, tildes, theta=0.1)
    for a, v in zip(tildes[:3], factors.V):
        expect = a.toarray().T @ factors.U
        assert np.allclose(v, expect, atol=1e-12)


def test_single_matrix_error_matches_svd_tail():
    rng = np.random.default_rng(2)
    fam = _random_family(rng, n=8, block_rows=6, block_cols=6, M=1)
    gram = build_gram(fam)
    sing = np.linalg.svd(fam[0].toarray(), compute_uv=False)
    for k in (1, 2, 4):
        factors = factorize(gram, fam, theta=k / 8)
        assert factors.k == k
        tail = math.sqrt(float(np.sum(sing[k:] ** 2)))
        assert rmsre(factors, fam) == pytest.approx(tail, rel=1e-10)
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
    assert rmsre(f4, fam) == pytest.approx(rmsre(f1, one), rel=1e-10)


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
    best = rmsre(factors, fam)
    for _ in range(200):
        q, _ = np.linalg.qr(rng.normal(size=(5, k)))
        err2 = 0.0
        for d in dense:
            diff = d - q @ (q.T @ d)
            err2 += float(np.sum(diff * diff))
        assert best <= math.sqrt(err2 / len(dense)) + 1e-12


def test_error_formula_matches_direct_evaluation(problem20, gram20):
    # identity between the direct reconstruction error and the spectrum
    # formula; the subtraction in the formula loses accuracy near the
    # rank, which sets the comparison floor
    tildes = problem20["system"].A_tildes
    floor = 2.0 * math.sqrt(
        np.finfo(float).eps * gram20.trace / gram20.M
    )
    for theta in (0.05, 0.15, 0.3, 0.6, 1.0):
        factors = factorize(gram20, tildes, theta)
        direct = rmsre(factors, tildes)
        formula = rmsre_closed_form(gram20, factors.k)
        assert abs(direct - formula) <= 1e-8 * max(direct, formula) + floor


def test_factorize_col_dim_is_the_stored_column_support(problem20, gram20):
    tildes = problem20["system"].A_tildes
    support = max(int(a.tocsr().indices.max()) + 1 for a in tildes if a.nnz)
    # the perturbations only couple head columns, a fraction of N
    assert support <= problem20["mesh"].N1 < gram20.n_full
    for theta in (0.1, 1.0):
        factors = factorize(gram20, tildes, theta)
        assert factors.col_dim == support
        for v in factors.V:
            assert v.shape == (gram20.n_full, factors.k)
            assert not np.any(v[support:])
    # a stored zero widens the support, and an empty family has none
    a = sp.csr_matrix(([1.0, 0.0], ([0, 1], [0, 3])), shape=(5, 5))
    empty = sp.csr_matrix((5, 5))
    assert factorize(build_gram([a, empty]), [a, empty], 1.0).col_dim == 4
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
    gram = GramMatrix(block=np.diag([10.0, 5.0, 1e-14, 0.0]),
                      n_full=10, block_dim=4, M=1)
    theta, k = select_theta(gram)
    assert k == 2
    assert theta == pytest.approx(0.2)


def test_select_theta_exact_rank_at_target_one():
    gram = GramMatrix(block=np.diag([4.0, 3.0, 0.0, 0.0]),
                      n_full=8, block_dim=4, M=1)
    theta, k = select_theta(gram, energy_target=1.0)
    assert k == 2
    assert theta == pytest.approx(0.25)


def test_select_theta_minimality(gram20):
    target = 1.0 - 1e-9
    theta, k = select_theta(gram20, energy_target=target)
    n = gram20.n_full
    assert theta == k / n
    assert energy_ratio(gram20, k / n) >= target
    assert energy_ratio(gram20, (k - 1) / n) < target


def test_select_theta_validation(gram20):
    with pytest.raises(ValueError):
        select_theta(gram20, energy_target=0.0)
    with pytest.raises(ValueError):
        select_theta(gram20, energy_target=1.0 + 1e-12)


def test_numerical_rank():
    gram = GramMatrix(block=np.diag([1.0, 1e-5, 1e-11, 0.0]),
                      n_full=4, block_dim=4, M=1)
    assert numerical_rank(gram) == 2
    zero = GramMatrix(block=np.zeros((3, 3)), n_full=3, block_dim=3, M=1)
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
    report = build_report(gram20, tildes, factors)
    assert report.M == 20
    assert report.selected_k == factors.k
    # at theta=0.3 k exceeds the rank, so the two errors differ only by
    # roundoff, which test_error_formula_matches_direct_evaluation bounds;
    # here the report must carry each evaluation unchanged
    assert report.rmsre_direct == rmsre(factors, tildes)
    assert report.rmsre_formula == rmsre_closed_form(gram20, factors.k)
    txt = tmp_path / "report.txt"
    csv = tmp_path / "spectrum.csv"
    write_report(report, txt, csv)
    body = txt.read_text()
    assert "rmsre_direct" in body and "storage_reduction" in body
    lines = csv.read_text().splitlines()
    assert lines[0] == "index,eigenvalue,cumulative_energy"
    assert len(lines) == 1 + gram20.eigenvalues.size
    last = lines[-1].split(",")
    assert float(last[2]) == pytest.approx(1.0, abs=1e-9)
