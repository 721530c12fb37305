"""Shared-factor low-rank approximation of a family of sparse matrices.

Given perturbation matrices A_1..A_M with a common sparsity footprint
(nonzero only in a leading principal block of rows and a leading set of
columns), the family is compressed as A_m ~ U V_m^T with one shared
orthonormal left factor U and small per-sample right factors.  U is the
matrix of top-k eigenvectors of the Gram matrix

    G = sum_m A_m A_m^T,

which solves min_U sum_m ||A_m - U U^T A_m||_F^2 over orthonormal U, and
the optimal right factors are V_m = A_m^T U.  The squared root-mean-square
reconstruction error has a closed form, the sum of the discarded
eigenvalues over M, and a direct evaluation, ``rmsre``, that forms the
residuals of the family's span directions; each checks the other.

The retained dimension is the smallest k with k/N >= theta for a
compression ratio theta in (0, 1], capped at the Gram block dimension:
the perturbations vanish outside their leading block, so every nonzero
row of G lies in it.  Inside it, a row of G is zero exactly when every
A_m has a zero row there, and each such row i carries the exact
eigenpair (0, e_i).  G is therefore formed only as G[S, S] on the
support S of nonzero rows, which the eigensolver sees as it is.  Past
|S| the columns of U are unit vectors on zero rows, whose right factors
vanish, so the factors hold only the |S| x k_s block U[S, :k_s],
k_s = min(k, |S|), and no N x k array is formed.

The family is read once, in ``build_gram``: an orthonormal basis
B_1..B_r of its span (r = T, the number of KL modes, for the Monte Carlo
family) and coefficients Y with A_m = sum_j Y[m, j] B_j are found in
O(M r p) for p entries in the union sparsity pattern, and G = sum_j C_j
C_j^T is an r-term sum whatever M, with C = R B for the thin QR Y = Q R.
The Gram matrix keeps B, Y and C; nothing after it reads the family.
The factors hold U[S, :k_s] and Y and share the Gram matrix's B, whose
values the Woodbury solver sums into one sparse A_m per sample; no
W_j = B_j^T U and no V_m is held.  ``rmsre`` sums the residuals of
C_1..C_r, not of M matrices.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

__all__ = [
    "GramMatrix",
    "GlramFactors",
    "EigensolverError",
    "NonFiniteFamilyError",
    "build_gram",
    "factorize",
    "rmsre",
    "rmsre_closed_form",
    "energy_ratio",
    "select_theta",
    "numerical_rank",
    "write_report",
]

RANK_RTOL = 1e-10          # eigenvalue cutoff, relative to the largest
PSD_RTOL = 1e-10           # tolerated negative-eigenvalue magnitude
# span cutoff per dimension: a residual at most max(M, p) * SPAN_EPS times
# the largest sample's norm is roundoff (numpy's matrix_rank default)
SPAN_EPS = np.finfo(float).eps
_REFRESH_ROWS = 64      # rows of d per residual refresh in _span_basis


class EigensolverError(np.linalg.LinAlgError):
    """Symmetric eigensolve failed or produced inconsistent pairs."""


class NonFiniteFamilyError(np.linalg.LinAlgError):
    """A perturbation matrix holds a NaN or an infinity."""


@dataclass
class GramMatrix:
    """G = sum_m A_m A_m^T held on its support, plus embedding data.

    Rows 0..block_dim-1 of G carry all its nonzeros, and of those only the
    ascending rows S in ``support`` are nonzero; ``block`` is the dense
    symmetric PSD |S| x |S| block G[S, S].
    """

    block: np.ndarray        # (|S|, |S|) dense symmetric G[S, S]
    n_full: int              # dimension of the original matrices
    block_dim: int           # rows 0..block_dim-1 carry all nonzeros
    M: int                   # number of matrices accumulated
    support: np.ndarray      # ascending indices S of the nonzero rows
    _evals: np.ndarray = field(default=None, repr=False)
    _evecs: np.ndarray = field(default=None, repr=False)
    # the family's span (B on the pattern, rows, cols, col_dim, Y, C = R B)
    _span: tuple = field(default=None, repr=False)

    @property
    def trace(self):
        """trace(G) = sum_m ||A_m||_F^2."""
        return float(np.trace(self.block))

    def eigenpairs(self):
        """Spectrum of G and eigenvectors of its support block.

        Only G[S, S] goes through the eigensolver; each zero row i of the
        block_dim rows adds the exact eigenpair (0, e_i).  Returns (w, v):
        w holds all block_dim eigenvalues in descending order, clipped at
        zero, the |S| of G[S, S] first; v holds the |S| x |S|
        eigenvectors of G[S, S] in the order of w[:|S|], each signed so
        that its largest-magnitude entry (the first of equal ones) is
        positive, so the factors do not depend on the eigensolver's
        choice of signs.  No block_dim x block_dim eigenvector matrix is
        formed; ``factorize`` takes the leading ones.  Results are
        cached.  Raises EigensolverError if G[S, S] holds a NaN or an
        infinity, if the solver fails, if residuals
        ||G_SS v - lambda v|| exceed 1e-8 * lambda_max, or if G_SS is
        indefinite beyond roundoff.
        """
        if self._evals is None:
            g = self.block
            where = (f"the {g.shape[0]}x{g.shape[0]} support of the "
                     f"{self.block_dim}x{self.block_dim} Gram block")
            if not np.all(np.isfinite(g)):
                raise EigensolverError(f"non-finite entries in {where}")
            try:
                # an empty support has nothing to solve
                w, v = scipy.linalg.eigh(g) if g.size else (np.zeros(0), g)
            except np.linalg.LinAlgError as exc:
                raise EigensolverError(
                    f"symmetric eigensolver failed on {where}: {exc}"
                ) from exc
            lam_max = float(w.max(initial=0.0))
            # 64 columns of eigh's column-major output at a time: the
            # residuals and the sign of each largest-magnitude entry
            resid, sign = np.empty(w.size), np.empty(w.size)
            for j in range(0, w.size, 64):
                at = slice(j, j + 64)
                part = v[:, at]
                resid[at] = np.linalg.norm(g @ part - part * w[at], axis=0)
                peak = part[np.argmax(np.abs(part), axis=0),
                            np.arange(part.shape[1])]
                sign[at] = np.where(peak < 0, -1.0, 1.0)
            tol = 1e-8 * max(lam_max, 1.0)
            if np.any(resid > tol):
                worst = float(resid.max())
                raise EigensolverError(
                    f"eigenpair residual {worst:.3e} exceeds {tol:.3e}"
                )
            lam_min = float(w.min(initial=0.0))
            if lam_min < -PSD_RTOL * max(lam_max, 1.0):
                raise EigensolverError(
                    f"Gram matrix indefinite: lambda_min = {lam_min:.3e} "
                    f"with lambda_max = {lam_max:.3e}"
                )
            # eigh returns ascending pairs; the zero rows add zeros last
            self._evals = np.concatenate([np.clip(w[::-1], 0.0, None),
                                          np.zeros(self.block_dim - w.size)])
            # row-major, signed in place and read-only: at k_s = |S|
            # every factorization's U is this array, uncopied
            v = np.ascontiguousarray(v[:, ::-1])
            v *= sign[::-1]
            v.flags.writeable = False
            self._evecs = v
        return self._evals, self._evecs

    @property
    def eigenvalues(self):
        return self.eigenpairs()[0]


@dataclass
class GlramFactors:
    """Shared left factor and the family's span, which the right factors
    are read from.

    The family spans r matrices B_1..B_r, orthonormal in the Frobenius
    inner product, with A_m = sum_j Y[m, j] B_j, so the right factors are
    V_m = A_m^T U = sum_j Y[m, j] B_j^T U.  The factors hold U[S, :k_s]
    (``U``, S in ``support``), the M x r coefficients Y and, shared with
    the Gram matrix that ``factorize`` read them from, the values of the
    B_j on the family's sparsity pattern (``basis``, r x p, at ``rows``
    and ``cols``).  No B_j^T U and no V_m is stored.  Every B_j is zero
    in the columns from ``col_dim`` on, and so are the rows of V_m.  The
    N x k U is zero off S in its first k_s = min(k, |S|) columns, and the
    others are unit vectors on zero rows of the Gram matrix, where every
    B_j vanishes, so nothing reads them and they are not held.
    """

    U: np.ndarray            # (|S|, k_s) U[S, :k_s], C-contiguous
    support: np.ndarray      # S, ascending: the rows U is held on
    basis: np.ndarray        # (r, p), B_j on the pattern (the Gram's array)
    rows: np.ndarray         # (p,) row of each pattern entry
    cols: np.ndarray         # (p,) column of each pattern entry
    col_dim: int             # every column index of the pattern is below it
    Y: np.ndarray            # (M, r), A_m = sum_j Y[m, j] B_j
    k: int
    rmsre: float             # closed-form reconstruction error
    energy_ratio: float      # e(theta) of the retained spectrum
    n_full: int

    @property
    def k_s(self):
        return self.U.shape[1]

    @property
    def M(self):
        return self.Y.shape[0]

    @property
    def span_dim(self):
        """r, the dimension of the family's span."""
        return self.basis.shape[0]

    @property
    def V(self):
        """Yield each V_m = A_m^T U in order, nothing cached, as its only
        block that can be nonzero: V_m[:col_dim, :k_s] =
        A_m[S, :col_dim]^T U[S, :k_s], col_dim x k_s."""
        for y in self.Y:
            a_t = sp.csr_matrix((y @ self.basis, (self.cols, self.rows)),
                                shape=(self.col_dim, self.n_full))
            yield a_t[:, self.support] @ self.U

    @property
    def nbytes(self):
        """Bytes of U[S, :k_s], the span values and Y (S and the
        pattern's indices are not counted here)."""
        return self.U.nbytes + self.basis.nbytes + self.Y.nbytes

    @property
    def theta_effective(self):
        """Actual compression ratio k/N carried by the factors."""
        return self.k / self.n_full

    @property
    def storage_reduction(self):
        """Storage of (U, V_1..V_M) relative to the M full matrices."""
        return self.theta_effective * (1.0 + 1.0 / self.M)


def build_gram(A_tildes, block_dim=None):
    """Form G = sum_m A_m A_m^T on its support, the block G[S, S].

    The family is read once, as the rows of an M x p matrix on its union
    sparsity pattern, whose orthonormal row basis B_1..B_r and
    coefficients Y give A_m = sum_j Y[m, j] B_j to roundoff, in O(M r p).
    With the thin QR Y = Q R, G = sum_j C_j C_j^T for C = R B: one sparse
    product of r matrices.  B and Y are kept for ``factorize``, C for
    ``rmsre``, read-only like S and the pattern.  Since G_ii = sum_j
    ||C_j[i, :]||^2, the support S is the set of rows where some C_j has a
    nonzero entry, and only the rows S of the C_j enter the product.
    All matrices must share the same dimension.  ``block_dim`` bounds the
    nonzero rows; when omitted it is detected from the nonzeros of C.
    The block is explicitly symmetrized to remove accumulation roundoff.
    Raises NonFiniteFamilyError naming the first perturbation that holds
    a NaN or an infinity.
    """
    if len(A_tildes) < 1:
        raise ValueError("need at least one perturbation matrix")
    n = A_tildes[0].shape[0]
    h, rows, cols, col_dim = _pattern_rows(A_tildes, n)
    bad = np.flatnonzero(~np.isfinite(h).all(axis=1))
    if bad.size:
        raise NonFiniteFamilyError(
            f"perturbation {bad[0]} has non-finite entries")
    basis = _span_basis(h)
    y = h @ basis.T
    del h   # the family's one copy; the Gram block is formed without it
    c = np.linalg.qr(y, mode="r") @ basis
    span = (basis, rows, cols, col_dim, y, c)
    # explicitly stored zeros are not support
    nonzero = (c != 0.0).any(axis=0)
    support = np.unique(rows[nonzero])
    # read-only: a solver's state, cached per family, is built from them
    for a in (basis, rows, cols, y, c, support):
        a.flags.writeable = False
    max_row = int(support.max(initial=-1)) + 1
    max_col = int(cols[nonzero].max(initial=-1)) + 1
    if block_dim is None:
        block_dim = max(max_row, max_col, 1)
    elif max_row > block_dim:
        raise ValueError(
            f"nonzero row {max_row - 1} outside declared block of "
            f"dimension {block_dim}"
        )
    elif block_dim > n:
        raise ValueError(f"declared block {block_dim} exceeds dimension {n}")
    c = _stacked(c, rows, cols, col_dim, n)[support]
    gram = (c @ c.T).toarray()
    gram = 0.5 * (gram + gram.T)
    return GramMatrix(block=gram, n_full=n, block_dim=block_dim,
                      M=len(A_tildes), support=support, _span=span)


def _k_from_theta(theta, gram):
    """Smallest k with k/N >= theta, capped at the Gram block dimension.

    Unlike ceil(theta*N), whose product can round across an integer, this
    reads theta = k/N (as select_theta returns it) back as k.
    """
    n = gram.n_full
    k = bisect.bisect_left(range(n + 1), theta, key=lambda j: j / n)
    return min(k, gram.block_dim)


def numerical_rank(gram):
    """Number of eigenvalues above RANK_RTOL times the largest."""
    w = gram.eigenvalues
    if w.size == 0 or w[0] <= 0.0:
        return 0
    return int(np.count_nonzero(w > RANK_RTOL * w[0]))


def _pattern_rows(A_tildes, n):
    """The n x n family as an M x p matrix on its union sparsity pattern.

    Returns (h, rows, cols, col_dim): h[m, e] is entry (rows[e], cols[e])
    of A_m (duplicates summed), and col_dim is one more than the largest
    stored column index.  Each run of matrices on one pattern
    (:func:`_pattern_runs`) shares one flat index array, and each value
    array is written straight into its row of h, the one copy of the
    family held; the Monte Carlo family is one run, on one read-only
    pattern.  Costs O(nnz log nnz) over the distinct patterns.  Each A_m
    must be n x n.
    """
    for m, a in enumerate(A_tildes):
        if a.shape != (n, n):
            raise ValueError(
                f"matrix {m} has shape {a.shape}, expected ({n}, {n})"
            )
    csrs = [a.tocsr() for a in A_tildes]
    runs = _pattern_runs(csrs)
    col_dim = max((int(csrs[m].indices.max()) + 1 for m, _ in runs
                   if csrs[m].nnz), default=0)
    # entry (i, j) has the flat index i * col_dim + j
    flats = [np.repeat(np.arange(n) * col_dim, np.diff(csrs[m].indptr))
             + csrs[m].indices for m, _ in runs]
    pattern = np.unique(np.concatenate(flats))
    h = np.zeros((len(csrs), pattern.size))
    for (start, stop), flat in zip(runs, flats):
        at = np.searchsorted(pattern, flat)
        unique = np.all(np.diff(flat) > 0)
        for m in range(start, stop):
            if unique:
                h[m, at] = csrs[m].data
            else:   # duplicates add up, in stored order
                np.add.at(h[m], at, csrs[m].data)
    rows, cols = np.divmod(pattern, max(col_dim, 1))
    return h, rows, cols, col_dim


def _pattern_runs(csrs):
    """(start, stop) of each run of consecutive CSR matrices with equal
    ``indptr`` and ``indices``; an array two matrices share is not read."""
    def same(x, y):
        return x is y or x.tobytes() == y.tobytes()
    starts = [m for m, a in enumerate(csrs) if m == 0
              or not (same(a.indptr, csrs[m - 1].indptr)
                      and same(a.indices, csrs[m - 1].indices))]
    return list(zip(starts, starts[1:] + [len(csrs)]))


def _span_basis(d):
    """Orthonormal rows spanning the rows of d (M x p), up to roundoff.

    Gram-Schmidt with pivoting on the largest residual row, as in
    column-pivoted QR, stopped once every residual is at most
    max(M, p) * SPAN_EPS times the largest row norm.  The residual norms
    are downdated by one product d @ b per basis row b, and recomputed
    from d, _REFRESH_ROWS rows at a time in one buffer, once the
    downdate has lost its accuracy, so the cost is O(M r p) for r basis
    rows and no M x p temporary is formed.  Each pivot row is
    projected off the basis twice, so the rows stay orthonormal when a
    residual is small.  Returns the r x p basis.
    """
    norms2 = np.einsum("ij,ij->i", d, d)
    tol = max(d.shape) * SPAN_EPS * math.sqrt(norms2.max(initial=0.0))
    basis = np.zeros((0, d.shape[1]))
    exact = True
    while basis.shape[0] < min(d.shape):
        i = int(np.argmax(norms2))
        b = d[i]
        for _ in range(2):
            b = b - basis.T @ (basis @ b)
        norm = np.linalg.norm(b)
        if not exact and (norm <= tol or norm * norm < 0.5 * norms2[i]):
            buf = np.empty((min(_REFRESH_ROWS, d.shape[0]), d.shape[1]))
            for start in range(0, d.shape[0], _REFRESH_ROWS):
                part = d[start:start + _REFRESH_ROWS]
                resid = np.matmul(part @ basis.T, basis, out=buf[:len(part)])
                np.subtract(part, resid, out=resid)
                norms2[start:start + len(part)] = np.einsum("ij,ij->i",
                                                            resid, resid)
            exact = True
            continue
        if not norm > tol:
            break
        basis = np.vstack([basis, b / norm])
        norms2 -= np.square(d @ basis[-1])
        exact = False
    return basis


def _stacked(x, rows, cols, col_dim, n):
    """[X_1 ... X_r], n x (r col_dim) CSR, from X_j on the pattern in x[j]."""
    r = x.shape[0]
    return sp.csr_matrix(
        (x.ravel(), (np.tile(rows, r),
                     (np.arange(r)[:, None] * col_dim + cols).ravel())),
        shape=(n, r * col_dim))


def factorize(gram, A_tildes, theta):
    """Compute shared factors at compression ratio theta.

    k is the smallest integer with k/N >= theta, capped at the Gram block
    dimension; U holds the top-k eigenvectors of G: the first
    k_s = min(k, |S|) columns are eigenvectors of the support block
    G[S, S] on the rows S, and the k - k_s others are unit vectors on
    the zero rows of G, last row first, with exactly zero V_m columns.
    The factors hold only U[S, :k_s], read-only, at k_s = |S| the Gram
    matrix's eigenvector array itself.

    The family is not read: B_1..B_r (on the pattern) and Y are the
    arrays of the span that ``build_gram`` kept, shared, not copied, and
    nothing is formed from them here.  ``A_tildes`` is only checked to
    hold gram.M matrices.  ``col_dim`` is one more than the largest
    stored column index of the family, so the rows of every V_m from
    ``col_dim`` on are exactly zero.  Raises ValueError for a GramMatrix
    that ``build_gram`` did not make: it has no span.
    """
    if gram._span is None:
        raise ValueError("factorize needs the span kept by build_gram")
    if len(A_tildes) != gram.M:
        raise ValueError(
            f"factorize got {len(A_tildes)} matrices, Gram was built "
            f"from {gram.M}"
        )
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    k = _k_from_theta(theta, gram)
    _, v = gram.eigenpairs()
    basis, rows, cols, col_dim, y, _ = gram._span
    u = np.ascontiguousarray(v[:, :k])   # k_s = min(k, |S|) columns
    u.flags.writeable = False
    return GlramFactors(
        U=u,
        support=gram.support,
        basis=basis,
        rows=rows,
        cols=cols,
        col_dim=col_dim,
        Y=y,
        k=k,
        rmsre=rmsre_closed_form(gram, k),
        energy_ratio=energy_ratio(gram, theta),
        n_full=gram.n_full,
    )


def rmsre(gram, factors):
    """Direct root-mean-square reconstruction error.

    sqrt( (1/M) * sum_m ||A_m - U U^T A_m||_F^2 ) over r matrices, not M:
    the family is Q C with orthonormal Q (Y = Q R, C = R B, as
    ``build_gram`` kept them), so C_1..C_r carry its sum of squares.
    Each residual C_i - U (U^T C_i) is formed densely on the rows S of
    the factors' support with the k_s columns of U[S, :k_s] only.  Off S
    the residual is the entry itself: past k_s the columns of U are unit
    vectors on zero Gram rows, where every C_i is zero.  At k_s = |S|
    U[S, :k_s] is orthogonal and nothing is left on S.  Raises ValueError
    unless the factors carry the Gram matrix's Y, i.e. were made from it.
    """
    if gram._span is None or not np.array_equal(factors.Y, gram._span[4]):
        raise ValueError("factors were not made from this Gram matrix")
    _, rows, cols, col_dim, _, c = gram._span
    s, u_s = factors.support, factors.U
    local = np.full(factors.n_full, -1)
    local[s] = np.arange(s.size)
    on_s = local[rows] >= 0
    off = c[:, ~on_s]
    total = float(np.vdot(off, off))
    if s.size == factors.k_s:
        return math.sqrt(total / gram.M)
    rows_s, cols_s = local[rows[on_s]], cols[on_s]
    for c_i in c:
        x = np.zeros((s.size, col_dim))
        x[rows_s, cols_s] = c_i[on_s]
        x -= u_s @ (u_s.T @ x)
        total += float(np.vdot(x, x))
    return math.sqrt(total / gram.M)


def rmsre_closed_form(gram, k):
    """Reconstruction error from the discarded spectrum alone.

    sqrt( (1/M) sum_{i>k} lambda_i ), which equals
    sqrt( (1/M) (sum_m ||A_m||_F^2 - sum_{i<=k} lambda_i) ) but sums the
    discarded eigenvalues directly, with no trace - sum(lambda)
    cancellation.
    """
    return math.sqrt(float(np.sum(gram.eigenvalues[k:])) / gram.M)


def energy_ratio(gram, theta):
    """Fraction e(theta) of eigenvalue mass retained by the top k."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    k = _k_from_theta(theta, gram)
    if k == 0:
        return 0.0
    w = gram.eigenvalues
    total = float(np.sum(w))
    if total == 0.0:
        return 1.0
    return float(np.sum(w[:k])) / total


def select_theta(gram, energy_target=1.0 - 1e-9):
    """Smallest k whose cumulative energy reaches the target.

    Returns (theta, k) with theta = k/N.  The minimality property holds
    by construction: e((k-1)/N) < energy_target <= e(k/N).  Where
    roundoff leaves the cumulative energy a few ulps below a target of 1,
    k is capped at the count of nonzero (clipped) eigenvalues.
    """
    if not 0.0 < energy_target <= 1.0:
        raise ValueError(
            f"energy target must lie in (0, 1], got {energy_target}"
        )
    w = gram.eigenvalues
    total = float(np.sum(w))
    if total == 0.0:
        return 1.0 / gram.n_full, 1
    cum = np.cumsum(w) / total
    k = int(np.searchsorted(cum, energy_target, side="left")) + 1
    k = min(k, gram.block_dim, np.count_nonzero(w))
    return k / gram.n_full, k


def write_report(gram, factors, rmsre_direct, txt_path, csv_path):
    """Serialize one factorization as key-value text plus an eigenvalue CSV.

    ``rmsre_direct`` is ``rmsre(gram, factors)``; the text also holds
    e(theta) on the grid theta = 0, 0.05, ..., 1.
    """
    with open(txt_path, "w", encoding="utf-8") as f:
        f.write(f"rmsre_direct = {rmsre_direct:.12e}\n")
        f.write(f"rmsre_formula = {factors.rmsre:.12e}\n")
        f.write(f"storage_reduction = {factors.storage_reduction:.12e}\n")
        f.write(f"selected_theta = {factors.theta_effective:.12e}\n")
        f.write(f"selected_k = {factors.k}\n")
        f.write(f"samples = {gram.M}\n")
        f.write(f"dimension = {gram.n_full}\n")
        for t in (i / 20.0 for i in range(21)):
            f.write(f"energy[{t:.6f}] = {energy_ratio(gram, t):.12e}\n")
    w = gram.eigenvalues
    total = float(np.sum(w))
    cum = np.cumsum(w) / total if total > 0.0 else np.zeros_like(w)
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("index,eigenvalue,cumulative_energy\n")
        for i, (lam, c) in enumerate(zip(w, cum), start=1):
            f.write(f"{i},{lam:.12e},{c:.12e}\n")
