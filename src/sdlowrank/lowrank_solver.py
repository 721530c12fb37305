"""Per-sample solvers: one sparse factorization plus low-rank updates.

The mean matrix is factorized once.  Each sample's matrix differs from it
by a low-rank perturbation U V_m^T, so the sample solution follows from
the Woodbury identity

    x_m = x_bar - Z (I_k + V_m^T Z)^{-1} (V_m^T x_bar),   Z = Abar^{-1} U.

Z and x_bar are computed once and shared across samples.  Rows of V_m at
and beyond the family's column support c (``GlramFactors.col_dim``) are
exactly zero, so V_m^T Z and V_m^T x_bar only read the first c rows, and
a sample costs O(c k^2 + k^3 + N k) instead of a fresh N-dimensional
sparse solve.  A direct sparse solve of (Abar + A_m) x = b is kept as the
reference baseline.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

__all__ = [
    "MeanFactorization",
    "SampleSolution",
    "SingularSystemError",
    "IllConditionedUpdateError",
    "factor_mean",
    "pin_pressure_dof",
    "solve_sample_smw",
    "solve_sample_direct",
    "save_solutions",
    "load_solutions",
]

CAPACITANCE_COND_LIMIT = 1e12


class SingularSystemError(np.linalg.LinAlgError):
    """A system matrix could not be factorized."""


class IllConditionedUpdateError(np.linalg.LinAlgError):
    """The k x k capacitance matrix of one sample is near-singular."""


@dataclass
class SampleSolution:
    """Coefficient vector of one sample, ordered (head, u1, u2, pressure)."""

    x: np.ndarray
    sample_index: int
    capacitance_cond: float = float("nan")


class MeanFactorization:
    """Sparse LU of the mean matrix with cached derived data.

    Holds the deterministic solution x_bar = Abar^{-1} b and, for the
    factor family asked for last, the block Z = Abar^{-1} U reused by
    every sample solve of that family.
    """

    def __init__(self, lu, A_bar, b, x_bar):
        self._lu = lu
        self.A_bar = A_bar
        self.b = b
        self.x_bar = x_bar
        self._factors = None
        self._z = None

    @property
    def N(self):
        return self.b.shape[0]

    def solve(self, rhs):
        return self._lu.solve(rhs)

    def z_for(self, factors):
        """Abar^{-1} U for ``factors``, recomputed when the family changes."""
        if factors is not self._factors:
            u = factors.U
            z = self._lu.solve(u)
            resid = np.linalg.norm(self.A_bar @ z - u, axis=0)
            scale = np.linalg.norm(u, axis=0)
            bad = resid > 1e-8 * (scale + 1.0)
            if np.any(bad):
                j = int(np.argmax(resid))
                raise SingularSystemError(
                    f"inaccurate solve for column {j} of the shared "
                    f"factor: residual {resid[j]:.3e}"
                )
            self._factors, self._z = factors, z
        return self._z


def _diagnose_singularity(a):
    """Best-effort DOF blamed for a failed factorization."""
    csr = sp.csr_matrix(a)
    nnz_per_row = np.diff(csr.indptr)
    empty = np.flatnonzero(nnz_per_row == 0)
    if empty.size:
        return int(empty[0]), "structurally empty row"
    diag = np.abs(csr.diagonal())
    return int(np.argmin(diag)), f"smallest |diagonal| = {diag.min():.3e}"


def factor_mean(system, pin_pressure=False):
    """Factorize the constrained mean matrix and solve for x_bar.

    Raises SingularSystemError naming the suspect DOF if the
    factorization fails; the error suggests retrying with
    ``pin_pressure=True``, which grounds the first pressure DOF (useful
    when boundary conditions leave the pressure level free).
    """
    if pin_pressure:
        system = pin_pressure_dof(system)
    a_csc = sp.csc_matrix(system.A_bar)
    try:
        lu = spla.splu(a_csc)
    except RuntimeError as exc:
        dof, why = _diagnose_singularity(system.A_bar)
        raise SingularSystemError(
            f"mean matrix factorization failed ({exc}); suspect DOF {dof} "
            f"({why}); if the pressure level is unconstrained, retry with "
            f"pin_pressure=True"
        ) from exc
    x_bar = lu.solve(system.b)
    a_norm = spla.norm(system.A_bar)
    resid = np.linalg.norm(system.A_bar @ x_bar - system.b)
    bound = 1e-10 * (a_norm * np.linalg.norm(x_bar)
                     + np.linalg.norm(system.b))
    if not np.isfinite(resid) or resid > bound:
        raise SingularSystemError(
            f"mean solve residual {resid:.3e} exceeds {bound:.3e}; "
            f"the constrained mean matrix is numerically singular "
            f"(consider pin_pressure=True)"
        )
    return MeanFactorization(lu, system.A_bar, system.b.copy(), x_bar)


def pin_pressure_dof(system):
    """Ground pressure DOF 0: identity row/column, zero right-hand side."""
    from dataclasses import replace

    n = system.N
    dof = system.N1 + 2 * system.N2
    free = np.ones(n)
    free[dof] = 0.0
    d_free = sp.diags(free)
    pinned = sp.coo_matrix(([1.0], ([dof], [dof])), shape=(n, n))
    a_bar = sp.csr_matrix(d_free @ system.A_bar @ d_free + pinned)
    b = system.b.copy()
    b[dof] = 0.0
    constraints = list(system.constraints) + [(dof, 0.0)]
    return replace(system, A_bar=a_bar, b=b, constraints=constraints)


def solve_sample_smw(mean, factors, m):
    """Sample solution through the rank-k update of the mean solve.

    Forms the k x k capacitance matrix C = I_k + V_m^T Z, factorizes it,
    estimates its condition number, and applies
    x = x_bar - Z C^{-1} (V_m^T x_bar).  Both products with V_m run over
    its first ``factors.col_dim`` rows only, the rest being zero.  No
    N x N inverse is ever formed.  A non-finite C or x raises
    SingularSystemError naming the sample.
    """
    if not 0 <= m < len(factors.V):
        raise IndexError(f"sample index {m} outside 0..{len(factors.V) - 1}")
    rows = slice(factors.col_dim)
    v = factors.V[m][rows]
    z = mean.z_for(factors)
    w = v.T @ mean.x_bar[rows]
    c = v.T @ z[rows]
    c[np.diag_indices_from(c)] += 1.0
    if not np.all(np.isfinite(c)):
        raise SingularSystemError(
            f"sample {m}: non-finite capacitance matrix entries"
        )
    anorm = np.linalg.norm(c, 1)
    with warnings.catch_warnings():
        # an exactly singular factor is caught by the condition estimate
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(c, overwrite_a=True,
                                         check_finite=False)
    gecon = get_lapack_funcs(("gecon",), (lu,))[0]
    rcond, info = gecon(lu, anorm, norm="1")
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
    y = scipy.linalg.lu_solve((lu, piv), w, check_finite=False)
    x = mean.x_bar - z @ y
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"sample {m}: non-finite solution entries")
    return SampleSolution(x=x, sample_index=m, capacitance_cond=cond)


def solve_sample_direct(system, m):
    """Reference path: sparse direct solve of (Abar + A_m) x = b."""
    if not 0 <= m < len(system.A_tildes):
        raise IndexError(
            f"sample index {m} outside 0..{len(system.A_tildes) - 1}"
        )
    a = sp.csc_matrix(system.A_bar + system.A_tildes[m])
    try:
        lu = spla.splu(a)
    except RuntimeError as exc:
        dof, why = _diagnose_singularity(a)
        raise SingularSystemError(
            f"sample {m}: matrix factorization failed ({exc}); suspect "
            f"DOF {dof} ({why})"
        ) from exc
    x = lu.solve(system.b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"sample {m}: non-finite solution entries")
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


def load_solutions(path):
    """Read solutions written by :func:`save_solutions`."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return [
        SampleSolution(x=row[1:].copy(), sample_index=int(row[0]))
        for row in data
    ]
