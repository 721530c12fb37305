"""Independent reference computations used by the tests.

The integrals are derived from first principles with exact rational
arithmetic (binary floats are rationals, so Fraction keeps vertex
coordinates exact) and never touch the package's quadrature or
assembly code paths.  The one exception is ``k_linear_blocks``: a
per-element reference for the conductivity-linear blocks that reuses the
package's geometry tables but not its precomputed conductivity map, and
builds all four slip blocks I9..I12 from each edge's unit tangent,
taken from its endpoints: the general-frame form the package assembled
before it dropped the three that a flat interface zeroes.
``rmsre_per_sample`` is the per-matrix reconstruction error that
``glram.rmsre`` evaluated before it summed over the family's span, and
``smw_reference`` the per-sample Woodbury solve that
``lowrank_solver.solve_sample_smw`` ran before it called LAPACK directly
on flattened capacitance blocks, and ``direct_oracle`` the direct solve
that ``lowrank_solver.solve_sample_direct`` ran before it kept its
column order across a family's samples.  ``mean_solve`` is the solve
through the mean's LU that ``lowrank_solver.MeanFactorization`` offered
while it kept that LU.  ``read_solutions`` reads back the CSV that
``lowrank_solver.save_solutions`` writes.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from sdlowrank import SampleSolution
from sdlowrank.assembly import (PerturbationAssembler, _csr, _nodal_field,
                                _spread)


def _factorial_bary_integral(c0, c1, c2):
    """integral over the reference triangle of l0^c0 l1^c1 l2^c2,
    divided by the doubled area: c0! c1! c2! / (c0+c1+c2+2)! * 2
    returned as the factor multiplying the physical area."""
    num = math.factorial(c0) * math.factorial(c1) * math.factorial(c2)
    den = math.factorial(c0 + c1 + c2 + 2)
    return Fraction(2 * num, den)


def _multinomial_terms(power, values):
    """Expansion of (v0*l0 + v1*l1 + v2*l2)**power as a dict
    {(c0, c1, c2): coefficient} with exact Fraction coefficients."""
    terms = {}
    for c0 in range(power + 1):
        for c1 in range(power - c0 + 1):
            c2 = power - c0 - c1
            coef = Fraction(
                math.factorial(power),
                math.factorial(c0) * math.factorial(c1) * math.factorial(c2),
            )
            coef *= values[0] ** c0 * values[1] ** c1 * values[2] ** c2
            terms[(c0, c1, c2)] = coef
    return terms


def exact_triangle_integral(verts, p, q):
    """integral of x^p y^q over the triangle with the given vertices.

    Exact rational arithmetic: x and y are expanded in barycentric
    coordinates and integrated with the factorial formula.
    """
    vx = [Fraction(float(verts[i][0])) for i in range(3)]
    vy = [Fraction(float(verts[i][1])) for i in range(3)]
    area2 = abs(
        (vx[1] - vx[0]) * (vy[2] - vy[0]) - (vx[2] - vx[0]) * (vy[1] - vy[0])
    )
    tx = _multinomial_terms(p, vx)
    ty = _multinomial_terms(q, vy)
    total = Fraction(0)
    for cx, ax in tx.items():
        for cy, ay in ty.items():
            c = (cx[0] + cy[0], cx[1] + cy[1], cx[2] + cy[2])
            total += ax * ay * _factorial_bary_integral(*c)
    # the factorial formula integrates over the reference element; the
    # affine map contributes |det J| = 2*area
    return float(total * area2 / 2)


def exact_segment_integral(p0, p1, p, q):
    """integral of x^p y^q along the straight segment p0 -> p1 (arc length).

    The in-parameter polynomial is integrated exactly; only the final
    multiplication by the segment length is floating point.
    """
    x0, y0 = Fraction(float(p0[0])), Fraction(float(p0[1]))
    dx = Fraction(float(p1[0])) - x0
    dy = Fraction(float(p1[1])) - y0
    # (x0 + t dx)^p (y0 + t dy)^q expanded in powers of t
    coeffs = {}
    for i in range(p + 1):
        a = Fraction(math.comb(p, i)) * x0 ** (p - i) * dx ** i
        for j in range(q + 1):
            b = Fraction(math.comb(q, j)) * y0 ** (q - j) * dy ** j
            coeffs[i + j] = coeffs.get(i + j, Fraction(0)) + a * b
    integral_t = sum(c / (k + 1) for k, c in coeffs.items())
    length = math.hypot(float(p1[0]) - float(p0[0]),
                        float(p1[1]) - float(p0[1]))
    return float(integral_t) * length


def triangle_area(verts):
    verts = np.asarray(verts, dtype=float)
    e1 = verts[..., 1, :] - verts[..., 0, :]
    e2 = verts[..., 2, :] - verts[..., 0, :]
    return 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])


def random_triangle(rng, scale=2.0, min_area=0.05):
    """A non-degenerate triangle with vertices in [-scale, scale]^2."""
    while True:
        verts = rng.uniform(-scale, scale, size=(3, 2))
        if triangle_area(verts) > min_area:
            return verts


def two_pass_moments(samples, center=None):
    """Mean and denominator-M variance via a plain two-pass computation."""
    samples = np.asarray(samples, dtype=float)
    mean = samples.sum(axis=0) / samples.shape[0]
    c = mean if center is None else np.asarray(center, dtype=float)
    dev = samples - c
    return mean, (dev * dev).sum(axis=0) / samples.shape[0]


def _k_dependent_triplets(asm, field_nodal):
    """Triplet blocks linear in the conductivity field: P and I9..I12."""
    mesh = asm.mesh
    sp_p = asm.space_p
    # volume head stiffness weighted by the interpolated field
    kq = np.einsum("qc,tc->tq", asm.p1val, field_nodal[mesh.tri3_darcy])
    w = sp_p.scale * kq
    ent = np.einsum("tq,tqic,tqjc->tij", w, sp_p.grad, sp_p.grad)
    blocks = [_spread(sp_p.tri6, sp_p.tri6, ent)]

    # interface slip blocks carrying the conductivity, in each edge's
    # unit tangent tau = (t1, t2), from its first endpoint to its second
    ed = asm.edges
    ends = mesh.darcy_vertices[mesh.iface_darcy_vpair]     # (ne, 2, 2)
    tangent = ends[:, 1] - ends[:, 0]
    t1, t2 = (tangent / np.hypot(*tangent.T)[:, None]).T
    kq_e = ed.edge_field(field_nodal)
    base = ed.wl * asm.delta * kq_e                      # (ne, nq)
    u1, u2 = mesh.sl_u1.start, mesh.sl_u2.start
    for coeff, row_off in (
        (t1 * t1, u1),   # I9: tangential-squared, u1 rows
        (t1 * t2, u1),   # I11: mixed tangent, u1 rows
        (t2 * t2, u2),   # I10: tangential-squared, u2 rows
        (t1 * t2, u2),   # I12: mixed tangent, u2 rows
    ):
        ent = np.einsum(
            "eq,eqi,eqj->eij", base * coeff[:, None], ed.bval, ed.dax
        )
        blocks.append(_spread(ed.vel_dofs + row_off, ed.head_dofs, ent))
    return blocks


def k_linear_blocks(mesh, params, kbar, field_nodal):
    """P and I9..I12 of ``field_nodal`` (slip coefficient at ``kbar``),
    assembled element by element: the field is interpolated to every
    quadrature point, the products are integrated per element and the
    triplets are summed by a COO to CSR conversion.  Only the
    assembler's geometry tables are read, never its map ``L``."""
    asm = PerturbationAssembler(mesh, params, kbar=kbar)
    blocks = _k_dependent_triplets(asm, _nodal_field(mesh, field_nodal))
    return _csr(blocks, (mesh.N, mesh.N))


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


def rmsre_per_sample(factors, A_tildes):
    """Direct root-mean-square reconstruction error, one sample at a time.

    sqrt( (1/M) * sum_m ||A_m - U V_m^T||_F^2 ), evaluated on the dense
    nonzero block of each matrix with the N x k V_m of ``factors.V``.
    """
    if len(A_tildes) != factors.M:
        raise ValueError("factors do not cover the given matrix family")
    u = factors.U
    # U vanishes below its last nonzero row
    u_rows = int(np.flatnonzero(u.any(axis=1)).max(initial=-1)) + 1
    total = 0.0
    for a, v in zip(A_tildes, factors.V):
        a = sp.csr_matrix(a)
        nrow, ncol = _row_col_support(a, a.shape[1])
        nrow = max(nrow, u_rows)
        ncol = max(ncol, 1)
        diff = np.asarray(a[:nrow, :ncol].todense())
        diff -= u[:nrow] @ v[:ncol].T
        # rows below the block are zero in A_m and in U V_m^T alike
        total += float(np.sum(diff * diff))
    return math.sqrt(total / len(A_tildes))


def smw_reference(mean, factors, m):
    """Woodbury solve of sample m through scipy's LU wrappers.

    Returns (x, condition estimate).  Z = Abar^{-1} U[:, :k_s] is solved
    afresh through ``mean_solve``, each W_j = B_j^T U[:, :k_s] is formed
    from the span values of ``factors`` as a COO matrix B_j, the r blocks
    (W_j^T Z[:c])^T are summed by ``tensordot`` into the capacitance
    matrix C, and C goes through ``lu_factor``, LAPACK's ``gecon`` 1-norm
    estimate and ``lu_solve``.  An exactly singular C has condition
    infinity; k_s = 0 gives x_bar with condition 1.
    """
    c, k_s, n = factors.col_dim, factors.k_s, factors.n_full
    u = factors.U[:, :k_s]
    z = mean_solve(mean, u)
    w = np.zeros((factors.span_dim, c, k_s))
    for j, b_j in enumerate(factors.basis):
        b = sp.coo_matrix((b_j, (factors.rows, factors.cols)), shape=(n, n))
        w[j] = (b.T @ u)[:c]
    blocks = z[:c].T @ w
    rhs = w.transpose(0, 2, 1) @ mean.x_bar[:c]
    y_m = factors.Y[m]
    cap = np.tensordot(y_m, blocks, axes=1).T
    w = y_m @ rhs
    cap[np.diag_indices_from(cap)] += 1.0
    if not cap.size:
        return mean.x_bar - z @ w, 1.0
    anorm = np.linalg.norm(cap, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(cap, check_finite=False)
    gecon = get_lapack_funcs(("gecon",), (lu,))[0]
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or rcond == 0.0 or not np.isfinite(rcond):
        return None, math.inf
    y = scipy.linalg.lu_solve((lu, piv), w, check_finite=False)
    return mean.x_bar - z @ y, 1.0 / rcond


def mean_solve(mean, rhs):
    """Abar^{-1} rhs from a fresh ``splu`` of the mean's matrix in CSC, as
    ``factor_mean`` factors it."""
    return spla.splu(sp.csc_matrix(mean.A_bar)).solve(rhs)


def direct_oracle(system, m):
    """Solution of sample m from a fresh COLAMD ``splu`` of the CSC sum
    Abar + A_m."""
    a = sp.csc_matrix(system.A_bar + system.A_tildes[m])
    return spla.splu(a).solve(system.b)


def read_solutions(path):
    """The SampleSolution rows of a CSV written by ``save_solutions``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return [SampleSolution(x=row[1:].copy(), sample_index=int(row[0]))
            for row in data]
