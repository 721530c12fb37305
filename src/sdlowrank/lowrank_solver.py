"""Per-sample solvers: one block elimination of the mean, low-rank updates.

A family is one CSR pattern (``glram._one_pattern`` checks it), and
every perturbation A_m stores entries only in the rows and columns S of
that pattern; S couples to the other rows T only through the few columns
I of Abar[T, S] that hold entries (the interface: |I| = 2(2n-1) of
|S| = 527 at n=16).  So Abar is eliminated onto S once per (Abar, b,
pattern) into the one mean object of the family, a ``MeanFactorization``
that the system keeps and ``factor_mean`` returns: one LU of Abar[T, T]
gives X = Abar[T, T]^{-1} Abar[T, I] and y_T = Abar[T, T]^{-1} b[T], and
the Schur complement Sigma = Abar[S, S] - Abar[S, T] X is sparse plus one
dense block (the algebraic Steklov-Poincare substructuring of the coupled
problem).  Its ``expand`` forms every x from x[S], x[T] = y_T - X x[S][I]:
x_bar through the LU of Sigma, the update of the Woodbury state it caches
from columns solved through the same LU (y_T = 0), and the direct
reference solve of (Abar + A_m) x = b, which factors Sigma + A_m[S, S]
per sample: one dense LAPACK LU up to _DENSE_LU_MAX DOFs in S (135 at
n=8), where SuperLU's fixed cost per factorization outweighs its
sparsity, and SuperLU's numeric LU above (527 at n=16).

A low-rank sample follows from the Woodbury identity

    x_m = x_bar - Z (I + V_m^T Z)^{-1} (V_m^T x_bar),   Z = Abar^{-1} U,

with one state per factor family, cached for the family asked for last
(``MeanFactorization.woodbury``).  U is held on its support, within S
(S itself on an assembled family).  When k_s is the support's size, U
there is square orthogonal, so the update A_m[R, J] (rows R, columns J
of the pattern) does not depend on its basis and has rank at most |J|:
the identity is taken on that side (Hager 1989), C_J = I +
Abar^{-1}[J, R] A_m[R, J] of order |J| = n(2n-1), the free porous heads,
on the default geometry.  Below, C = I + U[S, :k_s]^T (A_m[S, S] Z[S]).
A sample sums its span coefficients into one CSR pattern that the family
shares, makes one sparse product (and one dense product below) and
three LAPACK calls on its capacitance matrix in place.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from .glram import _one_pattern

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

# largest |S| whose direct samples take one dense LU of Sigma + A_m[S, S]:
# per sample (one BLAS thread) dense beat SuperLU at |S| = 135 and 209
# (n=8, 10), tied at 299 (n=12) and lost at 405 (n=14, 2.0 against 1.2 ms)
_DENSE_LU_MAX = 256

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


# columns of Z solved or assembled at a time by the residual check
_CHECK_COLUMNS = 64


class _Woodbury:
    """The Woodbury state of one factor family, complete once built.

    It is solved through the elimination it is built from (S, T, I, X and
    the LU of Sigma) and keeps no reference to it.  R and J are the rows
    and columns of the span's pattern, all in S, and K = S minus J.  When
    k_s is the support's size (``u_s`` None) ``w`` is the row-major
    W = Abar^{-1}[J, R]^T, ``z`` is Abar^{-1}[K, R], ``pattern`` is
    A_m[R, J] and ``pattern_t`` its transpose on the same arrays; ``j``,
    ``k`` and ``x_j`` hold J, K and x_bar[J].  Below, ``u_s`` is
    U[S, :k_s] (the factors' U, or a copy placing its rows on S), ``z``
    is Z[S] for Z = Abar^{-1} U[:, :k_s], ``pattern`` is A_m[S, S] and
    rhs[j] = U[S, :k_s]^T B_j[S, S] x_bar[S].  The span's pattern is
    row-major, so ``pattern`` stores its entries in the span's order and
    a sample's values go straight into it; its indices are read-only.
    A column of Z (Abar^{-1}[:, R], named by its DOF in R, or Z_j, by
    its column j) whose residual ||Abar Z_j - B_j|| exceeds
    1e-8 (||B_j|| + 1), or is not finite, raises SingularSystemError
    naming it.
    """

    def __init__(self, factors, elim):
        f, s, x_bar = factors, elim.s, elim.x_bar
        self.factors = factors
        local = np.full(x_bar.size, -1)
        local[s] = np.arange(s.size)
        if f.k_s == f.support.size:
            self.u_s = None
            r, rows = np.unique(f.rows, return_inverse=True)
            self.j, cols = np.unique(f.cols, return_inverse=True)
            self.k, self.x_j = np.setdiff1d(s, self.j), x_bar[self.j]
            self.w = np.empty((r.size, self.j.size))
            self.z = np.empty((self.k.size, r.size))
            shape = self.w.shape
        else:
            self.u_s = f.U
            if f.support.size < s.size:
                self.u_s = np.zeros((s.size, f.k_s))
                self.u_s[local[f.support]] = f.U
            self.z = np.ascontiguousarray(elim.schur_lu.solve(self.u_s))
            rows, cols = local[f.rows], local[f.cols]
            shape = (s.size, s.size)
        n, self.dim = shape if self.u_s is None else (f.k_s, f.k_s)
        for j in range(0, n, _CHECK_COLUMNS):
            at = slice(j, j + _CHECK_COLUMNS)
            if self.u_s is None:   # unit columns on R
                b = (local[r[at]] == np.arange(s.size)[:, None]) * 1.0
                z = elim.expand(elim.schur_lu.solve(b), 0.0)
                self.w[at], self.z[:, at] = z[self.j].T, z[self.k]
            else:
                b, z = self.u_s[:, at], elim.expand(self.z[:, at], 0.0)
            res = elim.A_bar @ z
            res[s] -= b
            resid = np.linalg.norm(res, axis=0)
            tol = 1e-8 * (np.linalg.norm(b, axis=0) + 1.0)
            bad = np.flatnonzero(~(resid <= tol))   # a NaN is bad
            if bad.size:
                i = bad[np.argmax(np.nan_to_num(resid[bad], nan=np.inf))]
                what = (f"the unit column on DOF {r[j + i]}"
                        if self.u_s is None
                        else f"column {j + i} of the shared factor")
                raise SingularSystemError(f"inaccurate solve for {what}: "
                                          f"residual {resid[i]:.3e}")
        self.pattern = a = sp.csr_matrix(
            (np.empty(cols.size), cols,
             np.append(0, np.cumsum(np.bincount(rows, minlength=shape[0])))),
            shape=shape)
        a.indices.flags.writeable = a.indptr.flags.writeable = False
        if self.u_s is None:
            self.pattern_t = a.T
            return
        self.rhs = np.empty((f.span_dim, s.size))
        for j, b_j in enumerate(f.basis):
            a.data[:] = b_j
            self.rhs[j] = a @ x_bar[s]
        self.rhs = self.rhs @ self.u_s

    @property
    def nbytes(self):
        """Bytes of the arrays the state owns, U[S, :k_s] among them only
        when it placed the factors' rows on S; S, T, I and X are the
        elimination's."""
        p = self.pattern
        held = [self.z, p.data, p.indices, p.indptr]
        held += ([self.w, self.j, self.k, self.x_j] if self.u_s is None
                 else [self.rhs, self.u_s])
        return sum(a.nbytes for a in held if a is not self.factors.U)


def _splu(a, block):
    """SuperLU of the sparse matrix ``a``; SingularSystemError naming
    ``block`` if it fails."""
    try:
        return spla.splu(sp.csc_matrix(a))
    except RuntimeError as exc:
        raise SingularSystemError(
            f"factorization of {block} failed ({exc})") from exc


class MeanFactorization:
    """Abar eliminated onto S: the mean solve of every solver of a family.

    S holds the rows and columns where ``on_s`` does, T the rest, and I
    the columns of Abar[T, S] that hold entries (positions in S).  One LU
    of Abar[T, T] gives X = Abar[T, T]^{-1} Abar[T, I], and the Schur
    complement Sigma = Abar[S, S] - Abar[S, T] X is sparse plus a dense
    block on the rows of Abar[S, T] that hold entries (None when S is
    empty); a failed LU raises SingularSystemError naming Abar[T, T].
    It holds y_T = Abar[T, T]^{-1} b[T], the condensed right side
    b[S] - Abar[S, T] y_T, the read-only x_bar = Abar^{-1} b after one
    step of iterative refinement, the direct path's part, taken on its
    first sample (``direct_lu`` says which: Sigma as a dense array up to
    _DENSE_LU_MAX DOFs in S, SuperLU's column order above), and the
    Woodbury state (``woodbury``) of the factor family asked for last.
    ``serves`` compares a call's Abar, its stored entries, b and pattern
    with the copies kept.  Only ``_system_mean`` builds one.
    """

    def __init__(self, A_bar, on_s, b, pattern):
        self.A_bar, self.on_s, self.pattern = A_bar, on_s, pattern
        self.b = np.array(b)
        self.a = a = sp.csr_matrix(A_bar, copy=True)
        self.a_norm = spla.norm(a)
        self.s, self.t = s, t = np.flatnonzero(on_s), np.flatnonzero(~on_s)
        a_s, a_t = a[s], a[t]
        a_ts, a_st = a_t[:, s], a_s[:, t]
        self.coupled = coupled = np.unique(a_ts.indices)
        lu_t = _splu(a_t[:, t], "Abar[T, T]") if t.size else None
        self.x = (lu_t.solve(a_ts[:, coupled].toarray()) if coupled.size
                  else np.zeros((t.size, 0)))
        self.schur = None
        if s.size:
            rows = np.flatnonzero(np.diff(a_st.indptr))
            dense = a_st[rows] @ self.x
            self.schur = a_s[:, s] - sp.csr_matrix(
                (dense.ravel(), (np.repeat(rows, coupled.size),
                                 np.tile(coupled, rows.size))),
                shape=(s.size, s.size))
        self._order = self._woodbury = None

        def mean_solve(r):
            """y_T, the condensed right side and Abar^{-1} r."""
            y_t = lu_t.solve(r[self.t]) if self.t.size else np.zeros(0)
            r_s = r[self.s] - a_st @ y_t
            return y_t, r_s, self.expand(
                self.schur_lu.solve(r_s) if self.s.size else r_s, y_t)

        self.y_t, self.rhs, x_bar = mean_solve(self.b)
        # one step of iterative refinement through the same factors
        self.x_bar = x_bar + mean_solve(self.b - self.a @ x_bar)[2]
        self.x_bar.flags.writeable = False

    @property
    def N(self):
        return self.on_s.size

    @property
    def nbytes(self):
        """Bytes of the cached Woodbury state, 0 before a solve."""
        return 0 if self._woodbury is None else self._woodbury.nbytes

    def woodbury(self, factors):
        """The Woodbury state of ``factors``, built in one pass through
        this elimination's LU of Sigma and cached until another family is
        asked for (the old state goes first).  Factors from another
        family, with a DOF of their support or span pattern outside S,
        raise ValueError naming the first, and so do factors whose span
        pattern is not in strictly row-major order, as ``build_gram``
        gives it; a non-finite column of their U[S, :k_s] raises
        SingularSystemError naming it.
        """
        if self._woodbury is not None and self._woodbury.factors is factors:
            return self._woodbury
        self._woodbury = None
        off = np.setdiff1d(np.concatenate(
            (factors.support, factors.rows, factors.cols)), self.s)
        if off.size:
            raise ValueError(f"DOF {off[0]} of the factors lies outside the "
                             f"support S of the system's perturbations")
        flat = factors.rows * factors.n_full + factors.cols
        if np.any(np.diff(flat) <= 0):
            raise ValueError("the span pattern of the factors is not in "
                             "strictly row-major order")
        bad = np.flatnonzero(~np.isfinite(factors.U).all(axis=0))
        if bad.size:
            raise SingularSystemError(f"column {bad[0]} of the shared "
                                      f"factor holds non-finite entries")
        self._woodbury = _Woodbury(factors, self)
        return self._woodbury

    def serves(self, A_bar, pattern, b):
        a = A_bar.tocsr()
        return (A_bar is self.A_bar and pattern == self.pattern
                and all(np.array_equal(getattr(a, f), getattr(self.a, f))
                        for f in ("data", "indices", "indptr"))
                and np.array_equal(b, self.b))

    @cached_property
    def schur_lu(self):
        """The sparse LU of Sigma (S not empty), taken once."""
        return _splu(self.schur, "the Schur complement on S")

    def expand(self, x_s, y_t):
        """The x with x[S] = x_s and x[T] = y_T - X x_s[I]."""
        x = np.empty(self.on_s.shape + x_s.shape[1:])
        x[self.s] = x_s
        x[self.t] = y_t - self.x @ x_s[self.coupled]
        return x

    @property
    def direct_lu(self):
        """How a direct sample factors Sigma + A_m[S, S]: ``"dense"``, one
        LAPACK LU, up to _DENSE_LU_MAX DOFs in S, else ``"sparse"``,
        SuperLU's numeric LU."""
        return "dense" if self.s.size <= _DENSE_LU_MAX else "sparse"

    def _take_order(self, t):
        """The direct path's part for t's pattern: Sigma's values (base)
        and the slot of each of t's stored entries in Sigma + t[S, S].
        Dense, the slots are flat positions of an |S| x |S| Fortran array
        and the rest None; sparse, they are slots of the union CSC
        pattern with its columns in the order perm_c (COLAMD plus
        SuperLU's postorder) of one ``splu`` of the sum, whose row
        indices and indptr follow."""
        n, k = self.on_s.size, self.s.size
        t_rows = np.repeat(np.arange(n), np.diff(t.indptr))
        local = np.full(n, -1)
        local[self.s] = np.arange(k)
        if self.direct_lu == "dense":
            base = self.schur.toarray(order="F").ravel(order="F")
            return (None, base, local[t.indices] * k + local[t_rows],
                    None, None)
        sigma = self.schur.tocoo()
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
        perm_c = spla.splu(union).perm_c.astype(np.int64)
        # column perm_c[j] of the permuted matrix is column j of the sum
        keys, where = np.unique(perm_c[cols] * k + rows, return_inverse=True)
        slot = where[slot]
        base = np.bincount(slot[:sigma.nnz], sigma.data, keys.size)
        return (perm_c, base, slot[sigma.nnz:], (keys % k).astype(np.intc),
                np.searchsorted(keys, np.arange(k + 1) * k).astype(np.intc))

    def solve_perturbed(self, t):
        """x with (Abar + t) x = b, from an LU of Sigma + t[S, S]: dense
        in place (``getrf``, ``getrs``) or SuperLU's numeric LU in the
        stored order.  A zero pivot raises RuntimeError."""
        k = self.s.size
        x_s = np.zeros(0)
        if k:
            if self._order is None:
                self._order = self._take_order(t)
            perm_c, base, slot, indices, indptr = self._order
            data = np.bincount(slot, t.data, base.size)
            data += base
            if perm_c is None:
                lu, piv, info = _GETRF(data.reshape(k, k, order="F"),
                                       overwrite_a=1)
                if info > 0:
                    raise RuntimeError("Factor is exactly singular")
                x_s, _ = _GETRS(lu, piv, self.rhs)
            else:
                lu = spla.splu(sp.csc_matrix((data, indices, indptr),
                                             shape=(k, k)),
                               permc_spec="NATURAL")
                x_s = lu.solve(self.rhs)[perm_c]
        return self.expand(x_s, self.y_t)


def _system_mean(system, t):
    """``system._direct``, rebuilt (the old one goes first) unless it is
    the elimination of ``system.A_bar``, its stored entries and b onto the
    support S of the pattern of the CSR ``t`` (its indptr and indices):
    the rows and columns where it stores an entry."""
    if t.shape != system.A_bar.shape:
        raise ValueError(f"perturbation shape {t.shape} does not match "
                         f"the mean matrix shape {system.A_bar.shape}")
    key = (t.indptr.tobytes(), t.indices.tobytes())
    if system._direct is None or not system._direct.serves(
            system.A_bar, key, system.b):
        system._direct = None
        on_s = np.diff(t.indptr) > 0
        on_s[t.indices] = True
        system._direct = MeanFactorization(system.A_bar, on_s, system.b, key)
    return system._direct


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
    """The system's elimination (``system._direct``), which gave x_bar,
    onto the support S of the family's one pattern, which every direct
    sample of the family shares.

    S is empty for an empty family, so Abar[T, T] is Abar: x_bar[S] =
    Sigma^{-1} b~[S] for the condensed right side b~ and x_bar[T] =
    y_T - X x_bar[S][I], refined once.  A direct sample on another
    pattern replaces ``system._direct`` and leaves the mean as it was.

    Raises ValueError naming the first perturbation off the first one's
    pattern (``glram._one_pattern``), and SingularSystemError naming the
    suspect DOF if a factorization fails, or if ||Abar x_bar - b||
    exceeds 1e-10 (||Abar||_F ||x_bar|| + ||b||).
    """
    n = system.A_bar.shape[0]
    csrs = _one_pattern(system.A_tildes, n) or [sp.csr_matrix((n, n))]
    try:
        mean = _system_mean(system, csrs[0])
    except SingularSystemError as exc:
        dof, why = _diagnose_singularity(system.A_bar)
        raise SingularSystemError(
            f"mean matrix factorization failed ({exc}); suspect DOF {dof} "
            f"({why})"
        ) from exc
    resid = np.linalg.norm(system.A_bar @ mean.x_bar - system.b)
    bound = 1e-10 * (mean.a_norm * np.linalg.norm(mean.x_bar)
                     + np.linalg.norm(system.b))
    if not np.isfinite(resid) or resid > bound:
        raise SingularSystemError(
            f"mean solve residual {resid:.3e} exceeds {bound:.3e}; "
            f"the constrained mean matrix is numerically singular"
        )
    return mean


def solve_sample_smw(mean, factors, m):
    """Sample solution through the low-rank update of the mean solve.

    Forms the capacitance matrix from the family's cached state
    (``MeanFactorization.woodbury``): y @ B, for the sample's span
    coefficients y = Y[m], is written into the values of the cached CSR
    pattern.  When k_s is the support's size one sparse product gives
    C^T = I + A_m[R, J]^T W, which is C_J in Fortran order, and
    w = x_bar[J]; below, C = I + U[S, :k_s]^T (A_m[S, S] Z[S]) is
    row-major, LAPACK takes C^T and w = y @ rhs.  The identity goes on a
    strided view of the diagonal; then, in place, the LU (``getrf``), the
    1-norm condition estimate of C (``gecon``, reported as
    ``capacitance_cond``) and the solve (``getrs``) of C y = w.  Then
    x[J] = y and x[K] = x_bar[K] - Abar^{-1}[K, R] (A_m[R, J] y), or
    below x[S] = x_bar[S] - Z[S] y; the elimination's ``expand`` gives
    x[T].  An empty capacitance matrix leaves x = x_bar with condition 1,
    an exactly singular one has condition infinity; a condition above
    CAPACITANCE_COND_LIMIT raises IllConditionedUpdateError, and
    non-finite capacitance entries or x raise SingularSystemError, each
    naming the sample; the entries are scanned only when the norm is not
    finite.
    """
    if not 0 <= m < factors.M:
        raise IndexError(f"sample index {m} outside 0..{factors.M - 1}")
    y_m = factors.Y[m]
    state = mean.woodbury(factors)
    a = state.pattern   # A_m, its values y_m @ B written in place
    np.matmul(y_m, factors.basis, out=a.data)
    if state.u_s is None:   # C^T = I + A_m[R, J]^T W, so C in Fortran order
        c, w, norm = state.pattern_t @ state.w, np.array(state.x_j), "1"
    else:   # C = I + U[S, :k_s]^T (A_m[S, S] Z[S]) row-major, so C^T
        c, w, norm = state.u_s.T @ (a @ state.z), y_m @ state.rhs, "I"
    k = c.shape[0]
    flat = c.ravel()
    flat[::k + 1] += 1.0
    if k:
        # Fortran order; below |S| the infinity norm of C^T is C's 1-norm
        c = flat.reshape(k, k, order="F")
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
        y, _ = _GETRS(lu, piv, w, trans=int(norm == "I"), overwrite_b=1)
    else:  # no update, and LAPACK rejects an empty matrix
        cond, y = 1.0, w
    if state.u_s is None:   # x[J] = y, as x_J = x_bar_J - (C_J - I) y
        d = np.empty(mean.N)   # Abar^{-1}[:, R] A_m[R, J] y on S
        d[state.j], d[state.k] = state.x_j - y, state.z @ (a @ y)
        x = mean.x_bar - mean.expand(d[mean.s], 0.0)
        x[state.j] = y
    else:
        x = mean.x_bar - mean.expand(state.z @ y, 0.0)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"sample {m}: non-finite solution entries")
    return SampleSolution(x=x, sample_index=m, capacitance_cond=cond)


def solve_sample_direct(system, m):
    """Reference path: direct solve of (Abar + A_m) x = b.

    Reads the system's elimination onto the support S of A_m's pattern,
    which ``factor_mean`` returns for a family on one pattern.  Up to
    _DENSE_LU_MAX DOFs in S (``MeanFactorization.direct_lu``) each sample
    adds its values to a dense copy of Sigma, taken on the first sample,
    and runs LAPACK's LU (``getrf``) and solve (``getrs``) in place;
    above, the first sample takes SuperLU's COLAMD column order of
    Sigma + A_m[S, S], and each sample sums its values into that
    |S| x |S| pattern and runs the numeric LU in the stored order.  Both
    solve for x[S] and form x[T] = y_T - X x[S][I].  A failed LU of
    Abar[T, T] or of Sigma raises SingularSystemError naming that block,
    a failed factorization of the sample's matrix (a zero pivot of
    either LU) names the sample and the DOF suspected on Abar + A_m,
    and a non-finite x, or a residual ||(Abar + A_m) x - b|| above 1e-10
    ((||Abar||_F + ||A_m||_F) ||x|| + ||b||), the bound ``factor_mean``
    applies, names the sample.
    """
    if not 0 <= m < len(system.A_tildes):
        raise IndexError(
            f"sample index {m} outside 0..{len(system.A_tildes) - 1}"
        )
    t = system.A_tildes[m].tocsr()
    try:
        elim = _system_mean(system, t)
        x = elim.solve_perturbed(t)
    except RuntimeError as exc:
        dof, why = _diagnose_singularity(system.A_bar + system.A_tildes[m])
        raise SingularSystemError(
            f"sample {m}: matrix factorization failed ({exc}); suspect "
            f"DOF {dof} ({why})"
        ) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"sample {m}: non-finite solution entries")
    resid = np.linalg.norm(elim.a @ x + t @ x - system.b)
    bound = 1e-10 * ((elim.a_norm + np.linalg.norm(t.data))
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
        for i, sol in enumerate(solutions):
            if i == 0:
                f.write("sample," + ",".join(
                    f"x{j}" for j in range(sol.x.shape[0])) + "\n")
            coeffs = ",".join(f"{v:.17e}" for v in sol.x)
            f.write(f"{sol.sample_index},{coeffs}\n")
