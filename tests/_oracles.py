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
``smw_reference`` the per-sample Woodbury solve of
``lowrank_solver.solve_sample_smw`` through scipy's LU wrappers, with
its own solves of Abar, and ``direct_oracle`` the direct solve
that ``lowrank_solver.solve_sample_direct`` ran before it kept its
column order across a family's samples.  ``mean_solve`` is the solve
through the mean's LU that ``lowrank_solver.MeanFactorization`` offered
while it kept that LU.  ``read_solutions`` reads back the CSV that
``lowrank_solver.save_solutions`` writes.  ``dense_u`` is the N x k
shared factor that ``glram.factorize`` wrote before the factors held it
on its support only, and ``right_factor`` forms one N x k
V_m = A_m^T U from it, of which ``glram.GlramFactors.V`` yields the
nonzero block in order.  ``hand_factors`` builds factors on a given
dense U, as no package constructor does.
``map_triangle`` and ``map_segment`` place a reference ``QuadRule`` on
one physical element; the package maps its rules only through the
assembler's geometry tables.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from sdlowrank import GlramFactors, SampleSolution
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


def map_triangle(rule, verts):
    """Physical points of ``rule`` on the triangle ``verts`` (3, 2) and
    its weights scaled by the triangle's area."""
    verts = np.asarray(verts, dtype=float)
    pts = rule.points @ verts
    j = np.array([verts[1] - verts[0], verts[2] - verts[0]])
    area = 0.5 * abs(np.linalg.det(j))
    return pts, rule.weights * area


def map_segment(rule, p0, p1):
    """Physical points of ``rule`` on the segment ``p0`` -> ``p1`` and its
    weights scaled by the segment's length."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    t = rule.points[:, 0]
    pts = np.outer(1.0 - t, p0) + np.outer(t, p1)
    length = float(np.hypot(*(p1 - p0)))
    return pts, rule.weights * length


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
    nonzero block of each matrix with U[:, :k_s] (the factors' U[S, :k_s]
    embedded in N x k_s zeros) and the blocks V_m[:col_dim, :k_s] that
    ``factors.V`` yields: U V_m^T has no other nonzero entries.
    """
    if len(A_tildes) != factors.M:
        raise ValueError("factors do not cover the given matrix family")
    u = np.zeros((factors.n_full, factors.k_s))
    u[factors.support] = factors.U
    # U vanishes below its last nonzero row
    u_rows = int(np.flatnonzero(u.any(axis=1)).max(initial=-1)) + 1
    total = 0.0
    for a, v in zip(A_tildes, factors.V):
        a = sp.csr_matrix(a)
        nrow, ncol = _row_col_support(a, a.shape[1])
        nrow = max(nrow, u_rows)
        ncol = max(ncol, 1)
        diff = np.asarray(a[:nrow, :ncol].todense())
        v = v[:ncol]
        diff[:, :v.shape[0]] -= u[:nrow] @ v.T
        # rows below the block are zero in A_m and in U V_m^T alike
        total += float(np.sum(diff * diff))
    return math.sqrt(total / len(A_tildes))


def dense_u(factors, gram=None):
    """The N x k U of ``factors``: the U[S, :k_s] they hold on the rows S,
    zero elsewhere, and past k_s unit vectors on the zero rows of the
    Gram matrix below its block dimension, last row first, as
    ``factorize`` once wrote it.  Those need ``gram`` when k > k_s."""
    n, k, k_s = factors.n_full, factors.k, factors.k_s
    u = np.zeros((n, k))
    u[factors.support, :k_s] = factors.U
    if k > k_s:
        zero_rows = np.setdiff1d(np.arange(gram.block_dim), factors.support)
        u[zero_rows[::-1][:k - k_s], np.arange(k_s, k)] = 1.0
    return u


def perturbation(factors, m):
    """A_m = sum_j Y[m, j] B_j (N x N CSR) from the span values the
    factors hold."""
    return sp.csr_matrix(
        (factors.Y[m] @ factors.basis, (factors.rows, factors.cols)),
        shape=(factors.n_full, factors.n_full))


def right_factor(factors, m, gram=None):
    """V_m = A_m^T U (N x k) over all N rows and k columns, for the U of
    ``dense_u`` (which reads ``gram`` when k > k_s)."""
    return perturbation(factors, m).T @ dense_u(factors, gram)


def hand_factors(u, v_list, col_dim=None):
    """Factors on a dense N x k ``u`` of full column rank, held on its
    nonzero rows S as ``factorize`` holds U[S, :k_s] (here k_s = k).
    Sample m is basis element m (Y = I_M), and B_m, stored on S and the
    first col_dim columns (all when None), is pinv(U)^T V_m[:col_dim]^T
    there, so that B_m^T U = V_m[:col_dim]; the error fields read a
    lossless factorization."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    n, k = u.shape
    col_dim = n if col_dim is None else col_dim
    on_u = np.flatnonzero(u.any(axis=1))
    left = np.linalg.pinv(u)[:, on_u].T
    basis = np.array([(left @ np.asarray(v, dtype=float)[:col_dim].T).ravel()
                      for v in v_list])
    rows, cols = np.divmod(np.arange(on_u.size * col_dim), max(col_dim, 1))
    return GlramFactors(
        U=np.ascontiguousarray(u[on_u]), support=on_u,
        basis=basis.reshape(len(v_list), -1), rows=on_u[rows], cols=cols,
        col_dim=col_dim, Y=np.eye(len(v_list)), k=k, rmsre=0.0,
        energy_ratio=1.0, n_full=n,
    )


def smw_reference(mean, factors, m):
    """Woodbury solve of sample m through scipy's LU wrappers.

    Returns (x, condition estimate).  Below |S|, for the support S the
    factors hold U on, Z = Abar^{-1} U[:, :k_s] is solved afresh through
    ``mean_solve``, each W_j = B_j^T U[:, :k_s] is formed from the span
    values of ``factors`` as a COO matrix B_j, and the r blocks
    (W_j^T Z[:c])^T are summed by ``tensordot`` into the capacitance
    matrix C.  At k_s = |S| the update is A_m[R, J] on the rows R and
    columns J of the pattern, as the package takes it, and
    C = I + Abar^{-1}[J, R] A_m[R, J], from A_m = sum_j Y[m, j] B_j
    summed on the pattern first, with the right side x_bar[J].  C goes
    through ``lu_factor``, LAPACK's ``gecon`` 1-norm estimate and
    ``lu_solve``.  An exactly singular C has condition infinity; an
    empty C gives x_bar with condition 1.
    """
    c, k_s, n = factors.col_dim, factors.k_s, factors.n_full
    rows, cols = factors.rows, factors.cols
    y_m = factors.Y[m]
    if factors.support.size == k_s:
        r, j = np.unique(rows), np.unique(cols)
        a_m = sp.coo_matrix((y_m @ factors.basis, (rows, cols)),
                            shape=(n, n)).tocsr()[r][:, j].toarray()
        z = mean_solve(mean, np.eye(n)[:, r])
        cap = np.eye(j.size) + z[j] @ a_m
        z, w = z @ a_m, mean.x_bar[j]
    else:   # k = k_s below |S|: U has no unit columns
        u = dense_u(factors)
        z = mean_solve(mean, u)
        w = np.zeros((factors.span_dim, c, k_s))
        for j, b_j in enumerate(factors.basis):
            b = sp.coo_matrix((b_j, (rows, cols)), shape=(n, n))
            w[j] = (b.T @ u)[:c]
        blocks = z[:c].T @ w
        rhs = w.transpose(0, 2, 1) @ mean.x_bar[:c]
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
