"""Per-sample solvers: one sparse factorization plus low-rank updates.

The mean matrix is factorized once.  Each sample's matrix differs from it
by a low-rank perturbation U V_m^T, so the sample solution follows from
the Woodbury identity

    x_m = x_bar - Z (I + V_m^T Z)^{-1} (V_m^T x_bar),   Z = Abar^{-1} U.

x_bar is computed once.  Z and what forms the capacitance matrices below
are one Woodbury state per factor family, built in one pass and cached
for the family asked for last (``MeanFactorization.woodbury``).  Only the
leading c = ``GlramFactors.col_dim`` rows and k_s = ``GlramFactors.k_s``
columns of V_m can be nonzero, so U and V_m are cut to their first k_s
columns and the row products run over c rows; the capacitance matrix is
k_s x k_s.

Z is held on the support.  U[:, :k_s] is zero off its nonzero rows S,
and S couples to the other rows T only through the few columns I of
Abar[T, S] that hold entries (the interface: |I| = 2(2n-1) of |S| = 527
at n=16).  With X = Abar[T, T]^{-1} Abar[T, I], block elimination gives
Z[S] from the Schur complement Abar[S, S] - Abar[S, T] X, which is
sparse plus one dense block on the rows of Abar[S, T] that hold entries,
and Z[T] = -X Z[S][I].  Only Z[S] (|S| x k_s) and X (|T| x |I|) are held;
this is the algebraic form of the Steklov-Poincare substructuring of the
coupled problem.

At full support rank, k_s = |S|, U[S, :k_s] is orthogonal, so
A_m = U U^T A_m and the update does not depend on the basis of S (Hager
1989): it runs in the coordinate basis, Z = Abar^{-1}[:, S], with the
capacitance matrix C_S = I + A_m[S, :c] Z[:c] (C = U[S]^T C_S U[S]), one
sparse product per sample on a shared CSR pattern of A_m[S, :c], in
O(p k_s + k_s^3 + N k_s) for the p entries of the family's pattern.
Below |S|, V_m = sum_j Y[m, j] B_j^T U (see ``GlramFactors``) and C is an
r-term sum of blocks P_j = U^T B_j Z[:c], built once per family in
O(r c k_s^2) and stored flattened, one row per j, so a sample's sum is
one matrix-vector product, in O(r k_s^2 + k_s^3 + N k_s).  Either way a
sample is then three LAPACK calls (LU, condition estimate,
back-substitution) on its capacitance matrix in place, not a fresh
N-dimensional sparse solve, and never forms V_m.

A direct sparse solve of (Abar + A_m) x = b is kept as the reference
baseline.  A_m stores entries only in the rows and columns S of its
pattern, which every sample of a Monte Carlo family shares, so the block
elimination above, taken on that S, removes the rest T of Abar once per
pattern: one LU of Abar[T, T], the Schur complement Sigma of Abar on S
and SuperLU's COLAMD column order of Sigma + A_m[S, S].  Each sample is
then a numeric LU of that |S| x |S| matrix (135 of 504 DOFs at n=8, 527
of 1,836 at n=16) and one product with X, and its residual on the full
matrix is checked against 1e-10 ((||Abar||_F + ||A_m||_F) ||x|| + ||b||).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

__all__ = [
    "MeanFactorization",
    "SampleSolution",
    "SingularSystemError",
    "IllConditionedUpdateError",
    "factor_mean",
    "solve_sample_smw",
    "solve_sample_direct",
    "save_solutions",
]

CAPACITANCE_COND_LIMIT = 1e12

# looked up once: every capacitance matrix is a float64 Fortran array
_GETRF, _GECON, _GETRS, _LANGE = get_lapack_funcs(
    ("getrf", "gecon", "getrs", "lange"), dtype=np.float64)


class SingularSystemError(np.linalg.LinAlgError):
    """A system matrix could not be factorized."""


class IllConditionedUpdateError(np.linalg.LinAlgError):
    """The capacitance matrix of one sample is near-singular."""


@dataclass
class SampleSolution:
    """Coefficient vector of one sample, ordered (head, u1, u2, pressure)."""

    x: np.ndarray
    sample_index: int
    capacitance_cond: float = float("nan")


class MeanFactorization:
    """The mean matrix, its solution and the cached Woodbury state.

    Holds Abar, the deterministic solution x_bar = Abar^{-1} b and the
    Woodbury state (``woodbury``) of the factor family asked for last:
    the block Z = Abar^{-1} U[:, :k_s] (Abar^{-1}[:, S] at k_s = |S|) on
    its support and what forms every sample's capacitance matrix for that
    family.  The LU of Abar that gave x_bar is not kept.
    """

    def __init__(self, A_bar, x_bar):
        self.A_bar = A_bar
        self.x_bar = x_bar
        self._woodbury = None

    @property
    def N(self):
        return self.x_bar.shape[0]

    @property
    def nbytes(self):
        """Bytes of the cached Woodbury state (0 before a solve)."""
        held = self._woodbury
        return 0 if held is None else held.nbytes

    def woodbury(self, factors):
        """The Woodbury state of ``factors``, built in one pass and cached
        until another family is asked for (the old state goes first).

        A non-finite column of U[:, :k_s] raises SingularSystemError
        naming it.  Block elimination on the nonzero rows S of U[:, :k_s]
        gives Z = Abar^{-1} B for B = U[:, :k_s], or B = I[:, S] at
        k_s = |S| (see the module docstring); a failed LU of Abar[T, T] or
        of the Schur complement raises SingularSystemError naming the
        block.  One loop assembles Z a few columns at a time and checks
        each: a residual ||Abar Z_j - B_j|| above 1e-8 (||B_j|| + 1), or
        not finite, raises SingularSystemError naming the column.  At
        k_s = |S| the state then keeps a CSR pattern of A_m[S, :c]; below,
        the loop keeps Z[:c] for the r blocks P (r x k_s^2) and their
        right sides w: P[j] is W_j^T Z[:c] flattened in Fortran order and
        w[j] = W_j^T x_bar[:c], for W_j = B_j^T U[:, :k_s], so y @ P
        reshapes without a copy to sum_j y_j W_j^T Z[:c], which LAPACK
        factors in place.  Each W_j is formed from the sparse B_j and
        used in one BLAS product with Z[:c], so one W_j is held at a
        time, in O(r c k_s^2).
        """
        if self._woodbury is not None and self._woodbury.factors is factors:
            return self._woodbury
        self._woodbury = None
        c, k_s = factors.col_dim, factors.k_s
        u = factors.U[:, :k_s]
        bad = np.flatnonzero(~np.isfinite(u).all(axis=0))
        if bad.size:
            raise SingularSystemError(f"column {bad[0]} of the shared "
                                      f"factor holds non-finite entries")
        s, t, coupled, x, schur, _ = _eliminate(sp.csr_matrix(self.A_bar),
                                                u.any(axis=1))
        full = k_s == s.size
        b_s = np.eye(k_s) if full else u[s]
        z_s = np.zeros((s.size, k_s))
        if s.size:
            lu = _splu(schur, "the Schur complement on the support of U")
            # the inverse is the transpose of the inverse of schur^T,
            # row-major as the sparse products of the samples read it
            z_s = lu.solve(b_s, trans="T").T if full else lu.solve(b_s)
        z_c, resid = None if full else np.empty((c, k_s)), np.empty(k_s)
        for j in range(0, k_s, _CHECK_COLUMNS):
            cols = slice(j, j + _CHECK_COLUMNS)
            z = np.empty((self.N, z_s[:, cols].shape[1]))
            z[s] = z_s[:, cols]
            z[t] = -(x @ z_s[coupled, cols])
            if not full:
                z_c[:, cols] = z[:c]
            r = self.A_bar @ z
            r[s] -= b_s[:, cols]
            resid[cols] = np.linalg.norm(r, axis=0)
        tol = 1e-8 * (np.linalg.norm(b_s, axis=0) + 1.0)
        bad = np.flatnonzero(~(resid <= tol))   # a NaN is bad
        if bad.size:
            j = bad[np.argmax(np.nan_to_num(resid[bad], nan=np.inf))]
            raise SingularSystemError(
                f"inaccurate solve for column {j} of the shared "
                f"factor: residual {resid[j]:.3e}"
            )
        state = _Woodbury(factors, s, t, coupled, z_s, x)
        if full:
            state.build_pattern(self.x_bar)
        else:
            # scipy copies a strided dense operand per sparse product; at
            # k > k_s this copies U[:, :k_s] once instead
            u = np.ascontiguousarray(u)
            r = factors.span_dim
            state.blocks = np.empty((r, k_s * k_s))
            state.rhs = np.empty((r, k_s))
            for j in range(r):
                w_j = factors.transposed(factors.basis[j], c) @ u
                # row-major Z[:c]^T W_j is column-major W_j^T Z[:c]
                np.matmul(z_c.T, w_j, out=state.blocks[j].reshape(k_s, k_s))
                state.rhs[j] = w_j.T @ self.x_bar[:c]
        self._woodbury = state
        return state


# columns of Z assembled at a time by the residual check
_CHECK_COLUMNS = 64


@dataclass(eq=False)
class _Woodbury:
    """The Woodbury state of one factor family.

    Z = Abar^{-1} U[:, :k_s] (Abar^{-1}[:, S] at k_s = |S|) is held on
    the nonzero rows S of U: since U[T] = 0 on the other rows T,
    Z[T] = -X Z[S][I]; it is never stored.  A sample's right side is
    y @ rhs, for rhs[j] = W_j^T x_bar[:c], B_j[S, :c] x_bar[:c] at |S|.
    """

    factors: object          # the GlramFactors it was built from
    support: np.ndarray      # S, ascending
    rest: np.ndarray         # T, ascending
    coupled: np.ndarray      # I: positions in S of Abar[T, S]'s columns
    z: np.ndarray            # Z[S], then Z at the pattern's columns off S
    x: np.ndarray            # X = Abar[T, T]^{-1} Abar[T, I], |T| x |I|
    rhs: np.ndarray = None       # r x k_s
    blocks: np.ndarray = None    # P, r x k_s^2, below |S|
    pattern: object = None       # A_m[S, :c] in CSR, at |S|
    order: np.ndarray = None     # span pattern index of each stored entry

    @property
    def z_s(self):
        return self.z[:self.support.size]

    @property
    def nbytes(self):
        p = self.pattern
        held = [self.z, self.x, self.rhs, self.blocks, self.order]
        held += [] if p is None else [p.data, p.indices, p.indptr]
        return sum(a.nbytes for a in held if a is not None)

    def build_pattern(self, x_bar):
        """The CSR pattern of A_m[S, :c], with read-only indices, and the
        right sides; a column j off S appends Z[j] = -X[j] Z[S][I] to z."""
        f, s = self.factors, self.support
        local = np.full(x_bar.size, -1)
        local[s] = np.arange(s.size)
        keep = np.flatnonzero(local[f.rows] >= 0)
        off = np.setdiff1d(f.cols[keep], s)
        if off.size:
            local[off] = s.size + np.arange(off.size)
            x_off = self.x[np.searchsorted(self.rest, off)]
            self.z = np.vstack((self.z, -(x_off @ self.z[self.coupled])))
        rows, cols = local[f.rows[keep]], local[f.cols[keep]]
        by_row = np.lexsort((cols, rows))
        self.order = keep[by_row]
        self.pattern = a = sp.csr_matrix(
            (np.empty(by_row.size), cols[by_row],
             np.append(0, np.cumsum(np.bincount(rows, minlength=s.size)))),
            shape=(s.size, self.z.shape[0]))
        a.indices.flags.writeable = a.indptr.flags.writeable = False
        x_c = x_bar[np.concatenate((s, off))]
        self.rhs = np.empty((f.span_dim, s.size))
        for j, b_j in enumerate(f.basis):
            self.rhs[j] = self.holding(b_j) @ x_c

    def holding(self, values):
        """The pattern holding ``values``, given on the span's pattern."""
        # mode="clip" writes straight into the data; "raise" buffers
        np.take(values, self.order, out=self.pattern.data, mode="clip")
        return self.pattern

    def subtract_from(self, x_bar, y):
        """x_bar - Z y."""
        zy = self.z_s @ y
        x = x_bar.copy()
        x[self.support] -= zy
        x[self.rest] += self.x @ zy[self.coupled]
        return x


def _splu(a, block):
    """SuperLU of the sparse matrix ``a``; SingularSystemError naming
    ``block`` if it fails."""
    try:
        return spla.splu(sp.csc_matrix(a))
    except RuntimeError as exc:
        raise SingularSystemError(
            f"factorization of {block} failed ({exc})") from exc


def _eliminate(a, on_s, b=None):
    """Block elimination of the CSR matrix ``a`` onto the rows and columns
    S where ``on_s`` holds, T the rest.

    Returns (S, T, I, X, Schur, y): I are the columns of a[T, S] that
    hold entries (positions in S), X = a[T, T]^{-1} a[T, I] and the Schur
    complement a[S, S] - a[S, T] X, sparse plus a dense block on the rows
    of a[S, T] that hold entries (None when S is empty).  Given ``b``, y
    is y_T = a[T, T]^{-1} b[T] and the condensed right side
    b[S] - a[S, T] y_T; else None.  a[T, T] is factored only when a solve
    needs it; a failed LU raises SingularSystemError naming it.
    """
    s, t = np.flatnonzero(on_s), np.flatnonzero(~on_s)
    a_s, a_t = a[s], a[t]
    a_ts, a_st = a_t[:, s], a_s[:, t]
    coupled = np.unique(a_ts.indices)
    x, y, lu = np.zeros((t.size, coupled.size)), None, None
    if coupled.size or (b is not None and t.size):
        lu = _splu(a_t[:, t], "Abar[T, T]")
    if coupled.size:
        x = lu.solve(a_ts[:, coupled].toarray())
    if b is not None:
        y_t = lu.solve(b[t]) if t.size else np.zeros(0)
        y = y_t, b[s] - a_st @ y_t
    schur = None
    if s.size:
        rows = np.flatnonzero(np.diff(a_st.indptr))
        dense = a_st[rows] @ x
        schur = a_s[:, s] - sp.csr_matrix(
            (dense.ravel(), (np.repeat(rows, coupled.size),
                             np.tile(coupled, rows.size))),
            shape=(s.size, s.size))
    return s, t, coupled, x, schur, y


def _diagnose_singularity(a):
    """Best-effort DOF blamed for a failed factorization."""
    csr = sp.csr_matrix(a)
    nnz_per_row = np.diff(csr.indptr)
    empty = np.flatnonzero(nnz_per_row == 0)
    if empty.size:
        return int(empty[0]), "structurally empty row"
    diag = np.abs(csr.diagonal())
    return int(np.argmin(diag)), f"smallest |diagonal| = {diag.min():.3e}"


def factor_mean(system):
    """Factorize the constrained mean matrix and solve for x_bar.

    Raises SingularSystemError naming the suspect DOF if the
    factorization fails.
    """
    a_csc = sp.csc_matrix(system.A_bar)
    try:
        lu = spla.splu(a_csc)
    except RuntimeError as exc:
        dof, why = _diagnose_singularity(system.A_bar)
        raise SingularSystemError(
            f"mean matrix factorization failed ({exc}); suspect DOF {dof} "
            f"({why})"
        ) from exc
    x_bar = lu.solve(system.b)
    a_norm = spla.norm(system.A_bar)
    resid = np.linalg.norm(system.A_bar @ x_bar - system.b)
    bound = 1e-10 * (a_norm * np.linalg.norm(x_bar)
                     + np.linalg.norm(system.b))
    if not np.isfinite(resid) or resid > bound:
        raise SingularSystemError(
            f"mean solve residual {resid:.3e} exceeds {bound:.3e}; "
            f"the constrained mean matrix is numerically singular"
        )
    return MeanFactorization(system.A_bar, x_bar)


def solve_sample_smw(mean, factors, m):
    """Sample solution through the low-rank update of the mean solve.

    Forms the k_s x k_s capacitance matrix from the family's cached state
    (``MeanFactorization.woodbury``) and the sample's span coefficients
    y = Y[m], with the identity added on a strided view of its diagonal:
    at k_s = |S|, C_S = I + A_m[S, :c] Z[:c] as one sparse product, in
    row-major order, after y @ B is swapped into the cached pattern;
    below, C = I + sum_j y_j P_j (= I + V_m[:c, :k_s]^T Z[:c]) as one
    matrix-vector product, in Fortran order.  Three LAPACK calls follow
    in place, on C_S^T or C: the LU (``getrf``), the 1-norm condition
    estimate of C_S or C (``gecon``, reported as ``capacitance_cond``)
    and the back-substitution (``getrs``) of the right side w = y @ rhs;
    then x = x_bar - Z C^{-1} w from Z[S] and X.  When k_s = 0 the update
    vanishes and x = x_bar with condition 1.  No N x N inverse and no V_m
    is ever formed.  An exactly singular capacitance matrix has condition
    infinity; a condition above CAPACITANCE_COND_LIMIT raises
    IllConditionedUpdateError, and non-finite capacitance entries or x
    raise SingularSystemError, each naming the sample; the entries are
    scanned only when the 1-norm is not finite.
    """
    if not 0 <= m < factors.M:
        raise IndexError(f"sample index {m} outside 0..{factors.M - 1}")
    y_m = factors.Y[m]
    state = mean.woodbury(factors)
    k_s = state.z.shape[1]
    if state.pattern is None:
        flat, norm, trans = y_m @ state.blocks, "1", 0
    else:   # C_S^T in Fortran order; its infinity norm is C_S's 1-norm
        a = state.holding(y_m @ factors.basis)
        flat, norm, trans = (a @ state.z).ravel(), "I", 1
    w = y_m @ state.rhs
    flat[::k_s + 1] += 1.0
    if k_s:
        c = flat.reshape(k_s, k_s, order="F")
        anorm = _LANGE(norm, c)
        # the norm is nan or inf when an entry is; finite entries whose
        # norm overflows go on to rcond 0 below
        if not math.isfinite(anorm) and not np.all(np.isfinite(flat)):
            raise SingularSystemError(
                f"sample {m}: non-finite capacitance matrix entries"
            )
        # an exactly zero pivot leaves getrf's info > 0 and rcond = 0
        lu, piv, _ = _GETRF(c, overwrite_a=1)
        rcond, info = _GECON(lu, anorm, norm=norm)
        if info != 0 or rcond == 0.0 or not np.isfinite(rcond):
            cond = math.inf
        else:
            cond = 1.0 / rcond
        if cond > CAPACITANCE_COND_LIMIT:
            raise IllConditionedUpdateError(
                f"sample {m}: capacitance matrix condition estimate "
                f"{cond:.3e} exceeds {CAPACITANCE_COND_LIMIT:.1e}; the "
                f"low-rank perturbation drives the sample matrix toward "
                f"singularity"
            )
        # a non-finite w (from x_bar) reaches x, which is checked below
        y, _ = _GETRS(lu, piv, w, trans=trans, overwrite_b=1)
    else:  # k_s = 0: no update, and LAPACK rejects an empty matrix
        cond, y = 1.0, w
    x = state.subtract_from(mean.x_bar, y)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"sample {m}: non-finite solution entries")
    return SampleSolution(x=x, sample_index=m, capacitance_cond=cond)


class _Condensed:
    """The direct solve's state for one Abar, b and perturbation pattern.

    Holds what ``_eliminate`` gives on the support S of the pattern (T,
    I, X, y_T and the condensed right side) and the union CSC pattern of
    its Schur complement Sigma and A_m[S, S], with the columns permuted by
    the order ``perm_c`` (COLAMD plus SuperLU's postorder) of one ``splu``
    of the first sample's condensed matrix, Sigma's values summed into it
    (``base``) and ``slot``, where each stored entry of A_m lands.
    ``serves`` compares a call's inputs with the copies kept here.
    """

    def __init__(self, a_bar, a, t, b):
        if t.shape != a.shape:
            raise ValueError(f"perturbation shape {t.shape} does not match "
                             f"the mean matrix shape {a.shape}")
        n = a.shape[0]
        self.a_bar, self.a, self.b = a_bar, a.copy(), np.array(b)
        self.pattern = self._pattern(t)
        self.a_norm = spla.norm(a)
        t_rows = np.repeat(np.arange(n), np.diff(t.indptr))
        on_s = np.zeros(n, dtype=bool)
        on_s[t_rows] = on_s[t.indices] = True
        self.s, self.t, self.coupled, self.x, schur, (self.y_t, self.rhs) = (
            _eliminate(a, on_s, self.b))
        k = self.s.size
        if not k:
            return
        local = np.full(n, -1)
        local[self.s] = np.arange(k)
        sigma = schur.tocoo()
        rows = np.concatenate((sigma.row, local[t_rows]))
        cols = np.concatenate((sigma.col, local[t.indices])).astype(np.int64)
        # column-major keys order the union pattern as CSC
        keys, slot = np.unique(cols * k + rows, return_inverse=True)
        cols, rows = np.divmod(keys, k)
        data = np.bincount(slot, np.concatenate((sigma.data, t.data)),
                           keys.size)
        union = sp.csc_matrix(
            (data, rows, np.searchsorted(keys, np.arange(k + 1) * k)),
            shape=(k, k))
        self.perm_c = spla.splu(union).perm_c.astype(np.int64)
        # column perm_c[j] of the permuted matrix is column j of the sum
        keys, where = np.unique(self.perm_c[cols] * k + rows,
                                return_inverse=True)
        slot = where[slot]
        self.base = np.bincount(slot[:sigma.nnz], sigma.data, keys.size)
        self.slot = slot[sigma.nnz:]
        self.indices = (keys % k).astype(np.intc)
        self.indptr = np.searchsorted(keys, np.arange(k + 1) * k).astype(
            np.intc)

    @staticmethod
    def _pattern(t):
        return t.shape, t.indptr.tobytes(), t.indices.tobytes()

    def serves(self, a_bar, a, t, b):
        return (a_bar is self.a_bar and self._pattern(t) == self.pattern
                and all(np.array_equal(getattr(a, f), getattr(self.a, f))
                        for f in ("data", "indices", "indptr"))
                and np.array_equal(b, self.b))

    def solve(self, t):
        """x with (Abar + t) x = b: the numeric LU of the condensed matrix
        in the stored column order gives x[S], then
        x[T] = y_T - X x[S][I]."""
        k = self.s.size
        x_s = np.zeros(0)
        if k:
            data = np.bincount(self.slot, t.data, self.base.size)
            data += self.base
            lu = spla.splu(sp.csc_matrix((data, self.indices, self.indptr),
                                         shape=(k, k)), permc_spec="NATURAL")
            x_s = lu.solve(self.rhs)[self.perm_c]
        x = np.empty(self.b.size)
        x[self.s] = x_s
        x[self.t] = self.y_t - self.x @ x_s[self.coupled]
        return x


def solve_sample_direct(system, m):
    """Reference path: sparse direct solve of (Abar + A_m) x = b.

    A_m stores entries only in the rows and columns S of its pattern, so
    the rest T is eliminated once per (``A_bar``, b, perturbation
    pattern) and kept on ``system`` (see ``_Condensed``): one LU of
    Abar[T, T], the Schur complement of Abar on S and SuperLU's COLAMD
    column order of the condensed matrix.  Each sample then sums its
    values into that |S| x |S| pattern, runs SuperLU's numeric LU in the
    stored order, solves for x[S] and forms x[T] = y_T - X x[S][I].  The
    state is rebuilt when ``system.A_bar`` is another object, when its
    stored entries or b differ from the copies kept, or when A_m's shape,
    ``indptr`` or ``indices`` differ from the stored ones.  A failed LU of
    Abar[T, T] raises SingularSystemError naming that block, a failed
    factorization of the sample's matrix names the sample and the DOF
    suspected on Abar + A_m, and a non-finite x, or a residual
    ||(Abar + A_m) x - b|| above 1e-10 ((||Abar||_F + ||A_m||_F) ||x||
    + ||b||), the bound ``factor_mean`` applies, names the sample.
    """
    if not 0 <= m < len(system.A_tildes):
        raise IndexError(
            f"sample index {m} outside 0..{len(system.A_tildes) - 1}"
        )
    a, t = system.A_bar.tocsr(), system.A_tildes[m].tocsr()
    try:
        if system._direct is None or not system._direct.serves(
                system.A_bar, a, t, system.b):
            system._direct = None   # the old state goes first
            system._direct = _Condensed(system.A_bar, a, t, system.b)
        x = system._direct.solve(t)
    except RuntimeError as exc:
        dof, why = _diagnose_singularity(system.A_bar + system.A_tildes[m])
        raise SingularSystemError(
            f"sample {m}: matrix factorization failed ({exc}); suspect "
            f"DOF {dof} ({why})"
        ) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"sample {m}: non-finite solution entries")
    resid = np.linalg.norm(a @ x + t @ x - system.b)
    bound = 1e-10 * ((system._direct.a_norm + np.linalg.norm(t.data))
                     * np.linalg.norm(x) + np.linalg.norm(system.b))
    if not resid <= bound:
        raise SingularSystemError(
            f"sample {m}: direct solve residual {resid:.3e} exceeds "
            f"{bound:.3e}"
        )
    return SampleSolution(x=x, sample_index=m)


def save_solutions(path, solutions):
    """Write sample solutions as CSV rows (index, coefficients...)."""
    with open(path, "w", encoding="utf-8") as f:
        first = True
        for sol in solutions:
            if first:
                n = sol.x.shape[0]
                cols = ",".join(f"x{j}" for j in range(n))
                f.write(f"sample,{cols}\n")
                first = False
            coeffs = ",".join(f"{v:.17e}" for v in sol.x)
            f.write(f"{sol.sample_index},{coeffs}\n")
