"""Shared-factor low-rank approximation of a family of sparse matrices.

Given perturbation matrices A_1..A_M with a common sparsity footprint
(nonzero only in a leading principal block of rows and a leading set of
columns), the family is compressed as A_m ~ U V_m^T with one shared
orthonormal left factor U and small per-sample right factors.  U is the
matrix of top-k eigenvectors of the Gram matrix

    G = sum_m A_m A_m^T,

which solves min_U sum_m ||A_m - U U^T A_m||_F^2 over orthonormal U, and
the optimal right factors are V_m = A_m^T U.  The reconstruction quality
admits a closed form: the squared root-mean-square reconstruction error
equals (trace(G) - sum of the retained eigenvalues)/M, which doubles as a
cheap cross-check of the direct evaluation.

The retained dimension is k = ceil(theta * N) for a compression ratio
theta in (0, 1], capped at the Gram block dimension.  Because the
perturbations vanish outside their leading block, the eigenproblem is
solved on that dense block only and U is embedded back with zero rows.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

__all__ = [
    "GramMatrix",
    "GlramFactors",
    "GlramReport",
    "EigensolverError",
    "build_gram",
    "factorize",
    "rmsre",
    "rmsre_closed_form",
    "energy_ratio",
    "select_theta",
    "numerical_rank",
    "build_report",
    "write_report",
]

RANK_RTOL = 1e-10          # eigenvalue cutoff, relative to the largest
PSD_RTOL = 1e-10           # tolerated negative-eigenvalue magnitude


class EigensolverError(np.linalg.LinAlgError):
    """Symmetric eigensolve failed or produced inconsistent pairs."""


@dataclass
class GramMatrix:
    """Dense symmetric PSD block of sum_m A_m A_m^T plus embedding data."""

    block: np.ndarray        # (block_dim, block_dim) dense symmetric
    n_full: int              # dimension of the original matrices
    block_dim: int           # rows 0..block_dim-1 carry all nonzeros
    M: int                   # number of matrices accumulated
    _evals: np.ndarray = field(default=None, repr=False)
    _evecs: np.ndarray = field(default=None, repr=False)

    @property
    def trace(self):
        """trace(G) = sum_m ||A_m||_F^2."""
        return float(np.trace(self.block))

    def eigenpairs(self):
        """All eigenpairs of the block, sorted by descending eigenvalue.

        Results are cached.  Raises EigensolverError if the solver fails,
        if residuals ||G v - lambda v|| exceed 1e-8 * lambda_max, or if
        the matrix is indefinite beyond roundoff.
        """
        if self._evals is None:
            try:
                w, v = scipy.linalg.eigh(self.block)
            except np.linalg.LinAlgError as exc:
                raise EigensolverError(
                    f"symmetric eigensolver failed on "
                    f"{self.block_dim}x{self.block_dim} Gram block: {exc}"
                ) from exc
            order = np.argsort(w)[::-1]
            w = w[order]
            v = v[:, order]
            lam_max = max(float(w[0]), 0.0)
            resid = np.linalg.norm(self.block @ v - v * w[None, :], axis=0)
            tol = 1e-8 * max(lam_max, 1.0)
            if np.any(resid > tol):
                worst = float(resid.max())
                raise EigensolverError(
                    f"eigenpair residual {worst:.3e} exceeds {tol:.3e}"
                )
            if w[-1] < -PSD_RTOL * max(lam_max, 1.0):
                raise EigensolverError(
                    f"Gram matrix indefinite: lambda_min = {w[-1]:.3e} "
                    f"with lambda_max = {lam_max:.3e}"
                )
            self._evals = w
            self._evecs = v
        return self._evals, self._evecs

    @property
    def eigenvalues(self):
        return self.eigenpairs()[0]


@dataclass
class GlramFactors:
    """Shared left factor and per-sample right factors."""

    U: np.ndarray            # (N, k), orthonormal columns
    V: list                  # M arrays of shape (N, k), V_m = A_m^T U
    k: int
    theta: float             # requested compression ratio
    eigenvalues: np.ndarray  # retained top-k spectrum of the Gram matrix
    rmsre: float             # closed-form reconstruction error
    energy_ratio: float      # e(theta) of the retained spectrum
    block_dim: int
    n_full: int
    # rows 0..col_dim-1 of every V_m may be nonzero, the rest are exactly
    # zero; None means all n_full rows
    col_dim: int = None

    @property
    def M(self):
        return len(self.V)

    @property
    def theta_effective(self):
        """Actual compression ratio k/N carried by the factors."""
        return self.k / self.n_full

    @property
    def storage_reduction(self):
        """Storage of (U, V_1..V_M) relative to the M full matrices."""
        return self.theta_effective * (1.0 + 1.0 / self.M)


@dataclass
class GlramReport:
    """Diagnostics bundle for one factorization."""

    rmsre_direct: float
    rmsre_formula: float
    energy_curve: list       # (theta, e(theta)) pairs
    storage_reduction: float
    selected_theta: float
    selected_k: int
    eigenvalues: np.ndarray  # full spectrum of the Gram block
    M: int
    n_full: int


def _row_col_support(a, width):
    """Last nonzero row + 1 and last nonzero column (mod width) + 1.

    ``a`` is CSR; explicitly stored zeros are not support.
    """
    nz = np.flatnonzero(a.data)
    if nz.size == 0:
        return 0, 0
    # rows are stored in order, so the last nonzero entry is in the last row
    nrow = int(np.searchsorted(a.indptr, nz[-1], side="right"))
    return nrow, int(np.max(a.indices[nz] % width)) + 1


def build_gram(A_tildes, block_dim=None):
    """Form G = sum_m A_m A_m^T on its nonzero principal block.

    G = H H^T is one sparse product of the stacked H = [A_1 ... A_M].
    All matrices must share the same dimension.  ``block_dim`` bounds the
    nonzero rows; when omitted it is detected from the nonzeros of H,
    read in one pass.
    The block is explicitly symmetrized to remove accumulation roundoff.
    """
    if len(A_tildes) < 1:
        raise ValueError("need at least one perturbation matrix")
    n = A_tildes[0].shape[0]
    for m, a in enumerate(A_tildes):
        if a.shape != (n, n):
            raise ValueError(
                f"matrix {m} has shape {a.shape}, expected ({n}, {n})"
            )
    h = sp.hstack(A_tildes, format="csr")
    max_row, max_col = _row_col_support(h, n)
    if block_dim is None:
        block_dim = max(max_row, max_col, 1)
    elif max_row > block_dim:
        raise ValueError(
            f"nonzero row {max_row - 1} outside declared block of "
            f"dimension {block_dim}"
        )
    elif block_dim > n:
        raise ValueError(f"declared block {block_dim} exceeds dimension {n}")
    h = h[:block_dim]
    gram = (h @ h.T).toarray()
    gram = 0.5 * (gram + gram.T)
    return GramMatrix(block=gram, n_full=n, block_dim=block_dim,
                      M=len(A_tildes))


def _k_from_theta(theta, gram):
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    return min(math.ceil(theta * gram.n_full), gram.block_dim)


def numerical_rank(gram, rtol=RANK_RTOL):
    """Number of eigenvalues above rtol times the largest."""
    w = gram.eigenvalues
    if w.size == 0 or w[0] <= 0.0:
        return 0
    return int(np.count_nonzero(w > rtol * w[0]))


def factorize(gram, A_tildes, theta):
    """Compute shared factors at compression ratio theta.

    k = ceil(theta*N) capped at the Gram block dimension; U holds the
    top-k eigenvectors embedded into full dimension with zero rows
    outside the block; V_m = A_m^T U exactly.  ``col_dim`` is one more
    than the largest stored column index of the family, so the rows of
    every V_m from ``col_dim`` on are exactly zero.
    """
    if len(A_tildes) != gram.M:
        raise ValueError(
            f"factorize got {len(A_tildes)} matrices, Gram was built "
            f"from {gram.M}"
        )
    k = _k_from_theta(theta, gram)
    w, v = gram.eigenpairs()
    u_full = np.zeros((gram.n_full, k))
    u_full[: gram.block_dim] = v[:, :k]
    csrs = [sp.csr_matrix(a) for a in A_tildes]
    v_list = [np.asarray(a.T @ u_full) for a in csrs]
    col_dim = max((int(a.indices.max()) + 1 for a in csrs if a.nnz), default=0)
    retained = w[:k].copy()
    return GlramFactors(
        U=u_full,
        V=v_list,
        k=k,
        theta=theta,
        eigenvalues=retained,
        rmsre=rmsre_closed_form(gram, k),
        energy_ratio=energy_ratio(gram, theta),
        block_dim=gram.block_dim,
        n_full=gram.n_full,
        col_dim=col_dim,
    )


def rmsre(factors, A_tildes):
    """Direct root-mean-square reconstruction error.

    sqrt( (1/M) * sum_m ||A_m - U V_m^T||_F^2 ), evaluated on the dense
    nonzero block of each matrix.
    """
    if len(A_tildes) != len(factors.V):
        raise ValueError("factors do not cover the given matrix family")
    u = factors.U
    total = 0.0
    for a, v in zip(A_tildes, factors.V):
        a = sp.csr_matrix(a)
        nrow, ncol = _row_col_support(a, a.shape[1])
        nrow = max(nrow, factors.block_dim)
        ncol = max(ncol, 1)
        diff = np.asarray(a[:nrow, :ncol].todense())
        diff -= u[:nrow] @ v[:ncol].T
        # rows below the block are zero in A_m and in U V_m^T alike
        total += float(np.sum(diff * diff))
    return math.sqrt(total / len(A_tildes))


def rmsre_closed_form(gram, k):
    """Reconstruction error from the retained spectrum alone.

    sqrt( (1/M) (sum_m ||A_m||_F^2 - sum_{i<=l} lambda_i) ) with
    l = min(k, numerical rank); the trace of the Gram matrix supplies
    sum_m ||A_m||_F^2.
    """
    w = np.clip(gram.eigenvalues, 0.0, None)
    l = min(k, numerical_rank(gram))
    residual = gram.trace - float(np.sum(w[:l]))
    return math.sqrt(max(residual, 0.0) / gram.M)


def energy_ratio(gram, theta):
    """Fraction e(theta) of eigenvalue mass retained by the top k."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    k = min(math.ceil(theta * gram.n_full), gram.block_dim)
    if k == 0:
        return 0.0
    w = np.clip(gram.eigenvalues, 0.0, None)
    total = float(np.sum(w))
    if total == 0.0:
        return 1.0
    return float(np.sum(w[:k])) / total


def select_theta(gram, energy_target=1.0 - 1e-9):
    """Smallest k whose cumulative energy reaches the target.

    Returns (theta, k) with theta = k/N.  The minimality property holds
    by construction: e((k-1)/N) < energy_target <= e(k/N).
    """
    if not 0.0 < energy_target <= 1.0:
        raise ValueError(
            f"energy target must lie in (0, 1], got {energy_target}"
        )
    w = np.clip(gram.eigenvalues, 0.0, None)
    total = float(np.sum(w))
    if total == 0.0:
        return 1.0 / gram.n_full, 1
    cum = np.cumsum(w) / total
    k = int(np.searchsorted(cum, energy_target, side="left")) + 1
    k = min(k, gram.block_dim)
    return k / gram.n_full, k


def build_report(gram, A_tildes, factors, theta_grid=None):
    """Assemble the diagnostics bundle around one factorization."""
    if theta_grid is None:
        theta_grid = [i / 20.0 for i in range(21)]
    curve = [(t, energy_ratio(gram, t)) for t in theta_grid]
    return GlramReport(
        rmsre_direct=rmsre(factors, A_tildes),
        rmsre_formula=factors.rmsre,
        energy_curve=curve,
        storage_reduction=factors.storage_reduction,
        selected_theta=factors.theta_effective,
        selected_k=factors.k,
        eigenvalues=gram.eigenvalues.copy(),
        M=gram.M,
        n_full=gram.n_full,
    )


def write_report(report, txt_path, csv_path):
    """Serialize a report as key-value text plus an eigenvalue CSV."""
    with open(txt_path, "w", encoding="utf-8") as f:
        f.write(f"rmsre_direct = {report.rmsre_direct:.12e}\n")
        f.write(f"rmsre_formula = {report.rmsre_formula:.12e}\n")
        f.write(f"storage_reduction = {report.storage_reduction:.12e}\n")
        f.write(f"selected_theta = {report.selected_theta:.12e}\n")
        f.write(f"selected_k = {report.selected_k}\n")
        f.write(f"samples = {report.M}\n")
        f.write(f"dimension = {report.n_full}\n")
        for t, e in report.energy_curve:
            f.write(f"energy[{t:.6f}] = {e:.12e}\n")
    w = np.clip(report.eigenvalues, 0.0, None)
    total = float(np.sum(w))
    cum = np.cumsum(w) / total if total > 0.0 else np.zeros_like(w)
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("index,eigenvalue,cumulative_energy\n")
        for i, (lam, c) in enumerate(zip(report.eigenvalues, cum), start=1):
            f.write(f"{i},{lam:.12e},{c:.12e}\n")
