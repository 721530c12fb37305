"""Block finite-element assembly of the coupled flow system.

The discrete unknown is ordered x = [head; u1; u2; pressure].  With P2
head/velocity and P1 pressure spaces, the system matrix has the block
layout

    [ P      -I1         -I2         0  ]
    [ I3+I9  2F1+F2+I5   F3+I7       F5 ]
    [ I4+I10 F4+I8       F1+2F2+I6   F6 ]
    [ 0      F5^T        F6^T        0  ]

where P is the conductivity-weighted head stiffness, F1..F6 the viscous
and divergence blocks of the free-flow rectangle, I1..I4 the mass-flux
and normal-stress interface couplings, I5..I8 the slip-penalty blocks of
the tangential interface condition, and I9..I12 its conductivity-carrying
counterparts; b = (b1, b2, b3, 0).  The interface is flat, with tangent
tau = (1, 0) and the free flow's outward normal n = (0, n2), n2 = 1 when
the porous rectangle lies above and -1 below, so I1, I3, I6..I8, I10..I12
and b2, which carry a factor n1 or tau2, are not assembled.

The random conductivity enters linearly, only through P and I9, so the
matrix splits additively into a deterministic part (assembled once from
the mean field) and a per-sample perturbation supported on the first N1
columns of the first N1+N2 rows.  The slip coefficient delta is
evaluated at the mean field everywhere, which keeps that splitting exact.
Those conductivity blocks are a fixed linear map of the porous-vertex
field, so :class:`PerturbationAssembler` builds their CSR pattern and a
sparse map L from vertex values to stored entries once; a sample then
costs one sparse mat-vec, and :func:`assemble_mean` takes the mean's
conductivity blocks from the same map.  :func:`apply_dirichlet` zeroes
the stored entries of constrained rows and columns and drops them.

Every block (mean, map L, norm matrices) takes one path: :func:`_spread`
flattens it into (row, column, coefficient) triplets and :func:`_csr`
sums a list of such blocks in order with one COO to CSR conversion.

All volume integrals use the seven-point degree-5 triangle rule and all
interface integrals the three-point Gauss rule.
"""

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .mesh import TAG_GAMMA_F_BOTTOM, TAG_GAMMA_F_WALL, TAG_GAMMA_P
from .quadrature import edge_rule_3pt, triangle_rule_7pt
from .randfield import realize_conductivity

__all__ = [
    "PhysicalParams",
    "SplitSystem",
    "bj_delta",
    "assemble_mean",
    "PerturbationAssembler",
    "assemble_family",
    "dirichlet_constraints",
    "apply_dirichlet",
    "p2_stiffness",
    "p2_mass",
    "p1_pressure_mass",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of the coupled model."""

    nu: float = 1.0      # kinematic viscosity
    g: float = 1.0       # gravitational acceleration
    alpha: float = 1.0   # slip (Beavers-Joseph) coefficient
    z: float = 0.0       # elevation head

    def __post_init__(self):
        for name in ("nu", "g", "alpha", "z"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.nu > 0.0 and self.g > 0.0 and self.alpha > 0.0):
            raise ValueError("nu, g and alpha must be positive")


@dataclass
class SplitSystem:
    """Assembled system split into mean and per-sample perturbation parts.

    ``A_bar + A_tildes[m]`` is the full matrix of sample m.  After
    :func:`apply_dirichlet` the constrained rows/columns of ``A_bar`` are
    identity and the same rows/columns of every perturbation are zero.
    """

    A_bar: sp.csr_matrix
    b: np.ndarray
    A_tildes: list = field(default_factory=list)
    constraints: list = field(default_factory=list)  # (dof, value) pairs
    N1: int = 0
    N2: int = 0
    N3: int = 0
    # column order and pattern of the direct solve, for the A_bar and the
    # perturbation pattern it last saw (see lowrank_solver)
    _direct: object = field(default=None, init=False, repr=False,
                            compare=False)

    @property
    def N(self):
        return self.N1 + 2 * self.N2 + self.N3

    @property
    def n_flow(self):
        """Head and velocity DOFs: the rows a perturbation may occupy, and
        the index of the first pressure DOF."""
        return self.N1 + 2 * self.N2


_DIM = 2   # spatial dimension of the model


def bj_delta(params, kbar_values):
    """Slip coefficient delta = alpha*nu*sqrt(d)/sqrt(tr(Pi)), d = 2.

    ``Pi = (K*nu/g) * I`` is the intrinsic permeability evaluated at the
    mean conductivity, so ``tr(Pi) = d*K*nu/g`` and d cancels:
    ``delta = alpha*sqrt(nu*g/K)``.
    """
    kbar_values = np.asarray(kbar_values, dtype=float)
    if np.any(kbar_values <= 0.0):
        raise ValueError("mean conductivity must be positive on the interface")
    tr_pi = _DIM * kbar_values * params.nu / params.g
    return params.alpha * params.nu * np.sqrt(_DIM) / np.sqrt(tr_pi)


# ---------------------------------------------------------------------------
# reference bases
# ---------------------------------------------------------------------------

def p2_values(xi, eta):
    """Quadratic basis values; node order (v0, v1, v2, m12, m20, m01)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    l0 = 1.0 - xi - eta
    return np.stack(
        [
            l0 * (2.0 * l0 - 1.0),
            xi * (2.0 * xi - 1.0),
            eta * (2.0 * eta - 1.0),
            4.0 * xi * eta,
            4.0 * eta * l0,
            4.0 * l0 * xi,
        ],
        axis=-1,
    )


def p2_grads(xi, eta):
    """Reference gradients of the quadratic basis, shape (..., 6, 2)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    l0 = 1.0 - xi - eta
    zero = np.zeros_like(xi)
    gx = np.stack(
        [
            1.0 - 4.0 * l0,
            4.0 * xi - 1.0,
            zero,
            4.0 * eta,
            -4.0 * eta,
            4.0 * (l0 - xi),
        ],
        axis=-1,
    )
    gy = np.stack(
        [
            1.0 - 4.0 * l0,
            zero,
            4.0 * eta - 1.0,
            4.0 * xi,
            4.0 * (l0 - eta),
            -4.0 * xi,
        ],
        axis=-1,
    )
    return np.stack([gx, gy], axis=-1)


# ---------------------------------------------------------------------------
# per-subdomain geometry tables
# ---------------------------------------------------------------------------

class _Space:
    """Affine maps and quadrature tables for one triangulated subdomain."""

    def __init__(self, coords, tri6, rule):
        self.coords = coords
        self.tri6 = tri6
        verts = coords[tri6[:, :3]]              # (nt, 3, 2)
        self.v0 = verts[:, 0, :]
        jac = np.stack(
            [verts[:, 1, :] - verts[:, 0, :], verts[:, 2, :] - verts[:, 0, :]],
            axis=-1,
        )                                        # (nt, 2, 2), columns = edges
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        if np.any(np.abs(det) < 1e-300):
            raise RuntimeError("degenerate triangle in mesh")
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= det[:, None, None]
        self.inv = inv
        self.area = 0.5 * np.abs(det)

        bary = rule.points                        # (nq, 3)
        xi, eta = bary[:, 1], bary[:, 2]
        self.val = p2_values(xi, eta)             # (nq, 6)
        gref = p2_grads(xi, eta)                  # (nq, 6, 2)
        self.grad = np.einsum("qid,tdc->tqic", gref, inv)
        self.scale = self.area[:, None] * rule.weights[None, :]   # (nt, nq)
        used = np.bincount(tri6.ravel(), minlength=coords.shape[0])
        if np.any(used == 0):
            raise RuntimeError("unassembled DOF: node never referenced")

    def ref_coords(self, tri_ids, points):
        """Reference coordinates of physical ``points`` inside given triangles."""
        rel = points - self.v0[tri_ids][:, None, :]
        return np.einsum("ecd,eqd->eqc", self.inv[tri_ids], rel)


def _spread(row_dofs, col_dofs, coefs):
    """Flat (row, column, coefficient) triplets of a block whose entry
    coefs[t, i, j, ...] sits at (row_dofs[t, i], col_dofs[t, j]); the
    DOFs repeat over any trailing axes of ``coefs``."""
    t, ni, nj, *tail = coefs.shape
    ones = (1,) * len(tail)
    rows = np.broadcast_to(row_dofs.reshape(t, ni, 1, *ones), coefs.shape)
    cols = np.broadcast_to(col_dofs.reshape(t, 1, nj, *ones), coefs.shape)
    return rows.ravel(), cols.ravel(), coefs.ravel()


def _csr(blocks, shape):
    """CSR sum of :func:`_spread` blocks; duplicates add in block order."""
    rows, cols, vals = (np.concatenate(b) for b in zip(*blocks))
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def _nodal_field(mesh, value):
    """Porous-vertex nodal values from an array of them or one scalar."""
    nodes = mesh.darcy_vertices
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(nodes.shape[0], float(arr))
    if arr.shape != (nodes.shape[0],):
        raise ValueError(
            f"nodal field has {arr.shape}, expected ({nodes.shape[0]},)"
        )
    return arr


class _EdgeTables:
    """Interface-edge quadrature data shared by all interface blocks."""

    def __init__(self, mesh, space_p, space_f):
        rule = edge_rule_3pt()
        self.s = rule.points[:, 0]                # (nq,)
        self.vpair = mesh.iface_darcy_vpair
        va = mesh.darcy_vertices[self.vpair[:, 0]]
        vb = mesh.darcy_vertices[self.vpair[:, 1]]
        lengths = np.hypot(*(vb - va).T)
        self.wl = lengths[:, None] * rule.weights[None, :]   # (ne, nq)
        pts = va[:, None, :] * (1.0 - self.s)[None, :, None] + \
            vb[:, None, :] * self.s[None, :, None]

        tp = mesh.iface_darcy_tri
        tf = mesh.iface_stokes_tri
        ref_p = space_p.ref_coords(tp, pts)
        ref_f = space_f.ref_coords(tf, pts)
        self.aval = p2_values(ref_p[..., 0], ref_p[..., 1])  # (ne, nq, 6)
        agref = p2_grads(ref_p[..., 0], ref_p[..., 1])
        agphys = np.einsum("eqid,edc->eqic", agref, space_p.inv[tp])
        self.dax = agphys[..., 0]                             # d(head)/dx
        self.bval = p2_values(ref_f[..., 0], ref_f[..., 1])
        self.head_dofs = space_p.tri6[tp]                     # (ne, 6)
        self.vel_dofs = space_f.tri6[tf]

        # the free flow's outward normal is (0, n2)
        self.n2 = 1.0 if mesh.darcy_above else -1.0

    def edge_field(self, nodal):
        """Linear interpolation of a porous nodal field along the edges."""
        return (
            nodal[self.vpair[:, 0]][:, None] * (1.0 - self.s)[None, :]
            + nodal[self.vpair[:, 1]][:, None] * self.s[None, :]
        )


def _deterministic_triplets(asm):
    """Triplet blocks of everything independent of the sampled
    conductivity, on the tables of the assembler ``asm``."""
    mesh, ed, nu = asm.mesh, asm.edges, asm.params.nu
    gx, gy = asm.space_f.grad[..., 0], asm.space_f.grad[..., 1]
    w = asm.space_f.scale
    f1 = nu * np.einsum("tq,tqi,tqj->tij", w, gx, gx)
    f2 = nu * np.einsum("tq,tqi,tqj->tij", w, gy, gy)
    f3 = nu * np.einsum("tq,tqi,tqj->tij", w, gy, gx)   # rows d/dy, cols d/dx
    f5 = -np.einsum("tq,tqi,qj->tij", w, gx, asm.p1val)
    f6 = -np.einsum("tq,tqi,qj->tij", w, gy, asm.p1val)
    u1 = asm.space_f.tri6 + mesh.sl_u1.start
    u2 = asm.space_f.tri6 + mesh.sl_u2.start
    pres = mesh.tri3_pres + mesh.sl_pres.start
    # interface: -I2 (head rows), g*I4 (u2 rows) and slip penalty I5
    heads = ed.head_dofs
    iface_u1 = ed.vel_dofs + mesh.sl_u1.start
    iface_u2 = ed.vel_dofs + mesh.sl_u2.start
    mass_ab = np.einsum("eq,eqi,eqj->eij", ed.wl, ed.aval, ed.bval)
    return [
        _spread(u1, u1, 2.0 * f1 + f2),
        _spread(u2, u2, f1 + 2.0 * f2),
        _spread(u1, u2, f3),
        _spread(u2, u1, np.swapaxes(f3, 1, 2)),         # F4 = F3^T
        _spread(u1, pres, f5),
        _spread(u2, pres, f6),
        _spread(pres, u1, np.swapaxes(f5, 1, 2)),       # F5^T
        _spread(pres, u2, np.swapaxes(f6, 1, 2)),       # F6^T
        _spread(heads, iface_u2, -ed.n2 * mass_ab),
        _spread(iface_u2, heads,
                asm.params.g * ed.n2 * np.swapaxes(mass_ab, 1, 2)),
        _spread(iface_u1, iface_u1, np.einsum(
            "eq,eqi,eqj->eij", ed.wl * asm.delta, ed.bval, ed.bval)),
    ]


def _load_vector(asm):
    """The elevation-head term g*z on the interface; no volume sources."""
    mesh, ed = asm.mesh, asm.edges
    b = np.zeros(mesh.N)
    gz = asm.params.g * asm.params.z
    ent = np.einsum("eq,eqi->ei", ed.wl * (gz * ed.n2), ed.bval)
    np.add.at(b, ed.vel_dofs + mesh.sl_u2.start, ent)
    return b


def assemble_mean(mesh, params, kl_mean=1.0, *, delta_from=None):
    """Assemble the deterministic matrix and load vector.

    Parameters
    ----------
    mesh : CoupledMesh
    params : PhysicalParams
    kl_mean : array of porous-vertex values, or one scalar for all
        Conductivity field entering the head stiffness and the
        conductivity-carrying interface blocks.
    delta_from : array or scalar, optional
        Field the slip coefficient is evaluated at; defaults to
        ``kl_mean``.  Passing the mean field here while giving a full
        realization as ``kl_mean`` reproduces a complete per-sample matrix
        in one shot (the from-scratch route used to validate the
        mean/perturbation splitting).

    Returns
    -------
    (A_bar, b) : csr matrix of dimension N and load vector.  The flow has
    no volume sources: b holds only the elevation-head term g*z on the
    interface, zero for the default z = 0.
    """
    kbar = _nodal_field(mesh, kl_mean)
    dfield = kbar if delta_from is None else _nodal_field(mesh, delta_from)
    return _mean_system(PerturbationAssembler(mesh, params, kbar=dfield), kbar)


def _mean_system(asm, kbar):
    """(A_bar, b) of :func:`assemble_mean` on the tables of ``asm``."""
    n = asm.mesh.N
    a_det = _csr(_deterministic_triplets(asm), (n, n))
    return a_det + asm.assemble(kbar), _load_vector(asm)


class PerturbationAssembler:
    """Assembler of the blocks linear in the conductivity: P and I9.

    Built once: the geometry tables (``space_p``, ``space_f``, ``p1val``,
    ``edges``) and the slip coefficient ``delta``, which the mean blocks
    read too, the CSR pattern of P and I9 and a sparse map ``L`` (one row
    per stored entry, one column per porous vertex).  A volume entry of
    P weights each triangle vertex by
    sum_q scale*p1val[q, c]*grad(phi_i).grad(phi_j); an interface entry
    weights the two edge endpoints by the quadrature of (1 - s) and s.
    A sample then costs one sparse mat-vec, ``data = L @ k``, on the
    fixed pattern.  Every returned matrix shares that pattern's
    ``indices`` and ``indptr``, which are read-only: copy a matrix before
    editing its structure in place.

    Each perturbation is stored only in the first N1 columns of the
    head rows (P) and the u1 rows (I9), never in the u2 rows.  The slip
    coefficient inside I9 is evaluated at the mean field ``kbar``, never
    at the sampled field, keeping the mean + perturbation split exactly
    additive.
    """

    def __init__(self, mesh, params, kbar=1.0):
        rule = triangle_rule_7pt()
        self.mesh = mesh
        self.params = params
        self.space_p = sp_p = _Space(mesh.head_coords, mesh.tri6_p, rule)
        self.space_f = _Space(mesh.vel_coords, mesh.tri6_f, rule)
        self.p1val = rule.points                   # barycentric = P1 basis
        self.edges = ed = _EdgeTables(mesh, sp_p, self.space_f)
        self.delta = bj_delta(params, ed.edge_field(_nodal_field(mesh, kbar)))
        # volume head stiffness P; the field is linear on each triangle
        grads = np.einsum("tqid,tqjd->tqij", sp_p.grad, sp_p.grad)
        weights = sp_p.scale[:, :, None] * self.p1val        # (nt, nq, 3)
        p_coefs = np.einsum("tqc,tqij->tijc", weights, grads)
        # interface slip block I9; the field is linear along each edge
        ends = np.stack([1.0 - ed.s, ed.s], axis=-1)       # (nq, 2)
        i9_coefs = np.einsum("eq,eqi,eqj,qv->eijv", ed.wl * self.delta,
                             ed.bval, ed.dax, ends)
        # (rows, cols, the vertex each coefficient weights, coefficients)
        blocks = ((sp_p.tri6, sp_p.tri6, mesh.tri3_darcy, p_coefs),
                  (ed.vel_dofs + mesh.sl_u1.start, ed.head_dofs, ed.vpair,
                   i9_coefs))
        spread = [(*_spread(r, c, k),
                   np.broadcast_to(v[:, None, None], k.shape).ravel())
                  for r, c, v, k in blocks]
        rows, cols, coefs, verts = (np.concatenate(b) for b in zip(*spread))
        # the P2 couplings that vanish on right triangles vanish for every
        # field: leave them out of the pattern, as A_bar does
        keep = coefs != 0.0
        rows, cols, verts, coefs = (a[keep] for a in (rows, cols, verts, coefs))
        n = mesh.N
        keys, slot = np.unique(rows.astype(np.int64) * n + cols,
                               return_inverse=True)
        # numpy 2.0.x gave the inverse the input's shape, not 1-D
        slot = slot.ravel()
        self._L = _csr([(slot, verts, coefs)],
                       (keys.size, mesh.darcy_vertices.shape[0]))
        self._indices = (keys % n).astype(np.int32)
        self._indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(
            np.int32)
        self._indices.setflags(write=False)
        self._indptr.setflags(write=False)

    def assemble(self, k_tilde):
        n = self.mesh.N
        data = self._L @ _nodal_field(self.mesh, k_tilde)
        return sp.csr_matrix((data, self._indices, self._indptr),
                             shape=(n, n))


def assemble_family(mesh, params, kl, coefficients):
    """Constrained mean system plus one perturbation per coefficient row.

    The mean matrix and every perturbation are assembled with the KL mean
    field ``kl.mean_nodal``, so ``A_bar + A_tildes[m]`` is exactly sample
    m's matrix; the constraints are :func:`dirichlet_constraints` of
    ``mesh``.
    """
    _, tildes = realize_conductivity(kl, coefficients)
    asm = PerturbationAssembler(mesh, params, kbar=kl.mean_nodal)
    a_bar, b = _mean_system(asm, kl.mean_nodal)
    system = SplitSystem(
        A_bar=a_bar, b=b, A_tildes=[asm.assemble(t) for t in tildes],
        N1=mesh.N1, N2=mesh.N2, N3=mesh.N3,
    )
    return apply_dirichlet(system, dirichlet_constraints(mesh))


# ---------------------------------------------------------------------------
# Dirichlet treatment
# ---------------------------------------------------------------------------

def dirichlet_constraints(mesh):
    """Constraint list (dof, value) of the model's boundary conditions.

    Head is 0 on the outer porous boundary; velocity is (1, 0) on the
    side walls and (0, 0) on the floor of the free-flow rectangle.
    Interface nodes stay free; at corners the Dirichlet tag wins (wall
    value at the two interface corners).  The list is sorted by DOF.
    """
    cons = [(int(i), 0.0)
            for i in np.flatnonzero(mesh.head_tags == TAG_GAMMA_P)]
    wall = mesh.vel_tags == TAG_GAMMA_F_WALL
    fixed = np.flatnonzero(wall | (mesh.vel_tags == TAG_GAMMA_F_BOTTOM))
    cons += [(int(mesh.N1 + i), float(wall[i])) for i in fixed]
    cons += [(int(mesh.N1 + mesh.N2 + i), 0.0) for i in fixed]
    return cons


def apply_dirichlet(system, constraints):
    """Impose Dirichlet constraints on a SplitSystem.

    Nonhomogeneous values are lifted through the mean matrix
    (``b <- b - A_bar @ g``), then constrained rows/columns of ``A_bar``
    become identity rows/columns with the prescribed values in ``b``, and
    the same rows/columns of every perturbation matrix are zeroed.

    The lift is exact for the whole sample family because perturbations
    have no columns outside the head block and prescribed head values are
    required to be homogeneous.
    """
    n = system.N
    dofs = np.array([c[0] for c in constraints], dtype=np.int64)
    vals = np.array([c[1] for c in constraints], dtype=float)
    if dofs.size != np.unique(dofs).size:
        raise ValueError("duplicate constraint DOFs")
    if np.any(dofs < 0):
        raise ValueError(f"negative constraint DOF {int(dofs.min())}")
    if np.any(dofs >= system.n_flow):
        raise ValueError("constraints on pressure DOFs are not allowed")
    head_cons = dofs < system.N1
    if np.any(vals[head_cons] != 0.0):
        raise ValueError(
            "prescribed head values must be homogeneous for the split lift"
        )

    lift = np.zeros(n)
    lift[dofs] = vals
    b = system.b - system.A_bar @ lift
    b[dofs] = vals

    free = np.ones(n, dtype=bool)
    free[dofs] = False
    pinned = np.zeros(n)
    pinned[dofs] = 1.0
    a_bar = _zero_constrained(system.A_bar, free) + sp.diags(pinned)
    a_tildes = [_zero_constrained(t, free) for t in system.A_tildes]
    return replace(
        system,
        A_bar=a_bar,
        b=b,
        A_tildes=a_tildes,
        constraints=list(constraints),
    )


def _zero_constrained(mat, free):
    """CSR copy of ``mat`` without the entries of rows or columns where
    ``free`` is False and without explicit zeros.

    The copy is canonical (sorted, no duplicates) and holds the entries
    of ``D @ mat @ D`` for D = diag(free), bit for bit: a kept entry is
    unchanged, a removed one is dropped.  It owns its arrays, because
    ``eliminate_zeros`` works in place.
    """
    out = sp.csr_matrix(mat, copy=True)
    out.sum_duplicates()
    keep = np.repeat(free, np.diff(out.indptr)) & free[out.indices]
    out.data[~keep] = 0.0
    out.eliminate_zeros()
    return out


# ---------------------------------------------------------------------------
# norm-matrix helpers (used by the statistics module)
# ---------------------------------------------------------------------------

def _space_for(mesh, domain):
    rule = triangle_rule_7pt()
    if domain == "head":
        return _Space(mesh.head_coords, mesh.tri6_p, rule)
    if domain == "velocity":
        return _Space(mesh.vel_coords, mesh.tri6_f, rule)
    raise ValueError("domain must be 'head' or 'velocity'")


def p2_stiffness(mesh, domain):
    """H1-seminorm (stiffness) matrix of one quadratic scalar space."""
    space = _space_for(mesh, domain)
    n = space.coords.shape[0]
    ent = np.einsum("tq,tqic,tqjc->tij", space.scale, space.grad, space.grad)
    return _csr([_spread(space.tri6, space.tri6, ent)], (n, n))


def p2_mass(mesh, domain):
    """L2 mass matrix of one quadratic scalar space."""
    space = _space_for(mesh, domain)
    n = space.coords.shape[0]
    ent = np.einsum("tq,qi,qj->tij", space.scale, space.val, space.val)
    return _csr([_spread(space.tri6, space.tri6, ent)], (n, n))


def p1_pressure_mass(mesh):
    """L2 mass matrix of the linear pressure space.

    The pressure triangles are the velocity triangles (same order, same
    vertices), so the velocity space supplies the quadrature scale.
    """
    p1v = triangle_rule_7pt().points
    scale = _space_for(mesh, "velocity").scale
    ent = np.einsum("tq,qi,qj->tij", scale, p1v, p1v)
    return _csr([_spread(mesh.tri3_pres, mesh.tri3_pres, ent)],
                (mesh.N3, mesh.N3))
