"""Block assembly: signs, flat-interface structure, splitting, constraints."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from _oracles import k_linear_blocks
from sdlowrank import (
    Geometry,
    PerturbationAssembler,
    PhysicalParams,
    SplitSystem,
    apply_dirichlet,
    assemble_family,
    assemble_mean,
    bj_delta,
    build_mesh,
    dirichlet_constraints,
    p1_pressure_mass,
    p2_mass,
    p2_stiffness,
)


def _blocks(mesh, a):
    """Dense 4x4 block view of a sparse system matrix."""
    sls = {"h": mesh.sl_head, "u1": mesh.sl_u1, "u2": mesh.sl_u2,
           "p": mesh.sl_pres}
    a = sp.csr_matrix(a)
    return {(r, c): a[sr, sc].toarray()
            for r, sr in sls.items() for c, sc in sls.items()}


# ---------------------------------------------------------------------------
# parameters and slip coefficient
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(nu=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(alpha=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(g=-2.0)
    for name in ("nu", "g", "alpha", "z"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                PhysicalParams(**{name: bad})


def test_bj_delta_hand_values():
    p = PhysicalParams()  # nu = g = alpha = 1
    # delta = alpha*nu*sqrt(d)/sqrt(d*K*nu/g) = alpha*sqrt(nu*g/K)
    assert bj_delta(p, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert bj_delta(p, np.array([1.0, 4.0])) == pytest.approx([1.0, 0.5],
                                                              rel=1e-15)
    q = PhysicalParams(nu=2.0, g=1.0, alpha=3.0)
    assert bj_delta(q, 4.0) == pytest.approx(3.0 * np.sqrt(2.0) / 2.0,
                                             rel=1e-14)
    with pytest.raises(ValueError):
        bj_delta(p, 0.0)
    with pytest.raises(ValueError):
        bj_delta(p, np.array([1.0, -0.5]))


# ---------------------------------------------------------------------------
# deterministic matrix structure at the flat interface
# ---------------------------------------------------------------------------

def test_head_block_equals_weighted_stiffness(mesh8, params):
    a, _ = assemble_mean(mesh8, params, kl_mean=1.0)
    blk = _blocks(mesh8, a)
    stiff = p2_stiffness(mesh8, "head").toarray()
    assert np.allclose(blk[("h", "h")], stiff, atol=1e-13)
    a2, _ = assemble_mean(mesh8, params, kl_mean=2.0)
    blk2 = _blocks(mesh8, a2)
    assert np.allclose(blk2[("h", "h")], 2.0 * stiff, atol=1e-13)


def test_stiffness_annihilates_constants(mesh8):
    for domain in ("head", "velocity"):
        s = p2_stiffness(mesh8, domain)
        assert np.abs(s @ np.ones(s.shape[0])).max() < 1e-12


def test_mass_matrices_integrate_to_area(mesh8):
    for m in (p2_mass(mesh8, "head"), p2_mass(mesh8, "velocity"),
              p1_pressure_mass(mesh8)):
        ones = np.ones(m.shape[0])
        assert ones @ (m @ ones) == pytest.approx(0.5, rel=1e-13)


def test_empty_blocks(mesh8, params):
    a, _ = assemble_mean(mesh8, params)
    blk = _blocks(mesh8, a)
    for key in (("h", "p"), ("p", "h"), ("p", "p")):
        assert np.abs(blk[key]).max() == 0.0


def test_divergence_blocks_are_transposes(mesh8, params):
    a, _ = assemble_mean(mesh8, params)
    blk = _blocks(mesh8, a)
    assert np.array_equal(blk[("p", "u1")], blk[("u1", "p")].T)
    assert np.array_equal(blk[("p", "u2")], blk[("u2", "p")].T)
    # divergence of a constant velocity field vanishes
    ones = np.ones(mesh8.N2)
    assert np.abs(blk[("p", "u1")] @ ones).max() < 1e-13
    assert np.abs(blk[("p", "u2")] @ ones).max() < 1e-13


def test_flat_interface_vanishing_blocks(mesh8, params):
    # with normal (0,1) and tangent (1,0) the normal-flux coupling into u1
    # and every mixed-tangent slip block integrate to exactly zero
    a, _ = assemble_mean(mesh8, params)
    blk = _blocks(mesh8, a)
    assert np.abs(blk[("h", "u1")]).max() == 0.0       # mass flux, u1 part
    assert np.abs(blk[("h", "u2")]).max() > 0.0        # mass flux, u2 part
    # sum over a partition of unity on both traces: total mass-flux weight
    # is the interface length
    assert blk[("h", "u2")].sum() == pytest.approx(-1.0, rel=1e-13)


def test_normal_stress_balances_mass_flux(mesh8, params):
    # the normal-stress coupling is g times the transposed mass-flux
    # coupling with opposite sign
    a, _ = assemble_mean(mesh8, params)
    blk = _blocks(mesh8, a)
    assert np.allclose(blk[("u2", "h")], -params.g * blk[("h", "u2")].T,
                       atol=1e-14)
    assert blk[("u2", "h")].sum() == pytest.approx(params.g, rel=1e-13)


def test_slip_blocks_isolated_by_alpha_difference(mesh8):
    # the slip coefficient is linear in alpha, so differencing two
    # assemblies removes every other term and leaves the alpha=1 slip
    # blocks; on the flat interface only the u1 row survives
    a1, _ = assemble_mean(mesh8, PhysicalParams(alpha=1.0))
    a2, _ = assemble_mean(mesh8, PhysicalParams(alpha=2.0))
    d = _blocks(mesh8, a2 - a1)
    assert np.abs(d[("u2", "u2")]).max() == 0.0
    assert np.abs(d[("u1", "u2")]).max() == 0.0
    assert np.abs(d[("u2", "u1")]).max() == 0.0
    assert np.abs(d[("u2", "h")]).max() == 0.0
    assert np.abs(d[("h", "u1")]).max() == 0.0
    assert np.abs(d[("h", "u2")]).max() == 0.0
    for key in (("p", "u1"), ("u1", "p"), ("h", "h")):
        assert np.abs(d[key]).max() == 0.0

    slip = d[("u1", "u1")]
    assert np.abs(slip).max() > 0.0
    assert np.allclose(slip, slip.T, atol=1e-15)
    # entries sum to the integral of delta over the interface (delta = 1)
    assert slip.sum() == pytest.approx(1.0, rel=1e-13)

    # conductivity-carrying slip block: present in the u1 row only, and
    # its head-column sums vanish because the basis gradients sum to zero
    bj_head = d[("u1", "h")]
    assert np.abs(bj_head).max() > 0.0
    assert np.abs(bj_head.sum(axis=1)).max() < 1e-13
    # at alpha=1 the whole (u1, head) block IS that slip term: the
    # normal-flux contribution to u1 vanishes on the flat interface
    blk1 = _blocks(mesh8, a1)
    assert np.allclose(blk1[("u1", "h")], bj_head, atol=1e-14)


def test_viscous_blocks_sum_to_vector_stiffness(mesh8):
    # (2F1+F2) + (F1+2F2) = 3*nu*(full scalar stiffness); the slip part of
    # the u1 diagonal is removed via the alpha difference
    params = PhysicalParams()
    a1, _ = assemble_mean(mesh8, params)
    a2, _ = assemble_mean(mesh8, PhysicalParams(alpha=2.0))
    blk = _blocks(mesh8, a1)
    slip = _blocks(mesh8, a2 - a1)[("u1", "u1")]
    total = (blk[("u1", "u1")] - slip) + blk[("u2", "u2")]
    stiff = 3.0 * params.nu * p2_stiffness(mesh8, "velocity").toarray()
    assert np.allclose(total, stiff, atol=1e-12)


def test_shear_coupling_blocks_are_transposes(mesh8, params):
    a, _ = assemble_mean(mesh8, params)
    blk = _blocks(mesh8, a)
    assert np.array_equal(blk[("u2", "u1")], blk[("u1", "u2")].T)
    assert np.abs(blk[("u1", "u2")]).max() > 0.0


# ---------------------------------------------------------------------------
# load vector
# ---------------------------------------------------------------------------

def test_load_vector_zero_by_default(mesh8, params):
    _, b = assemble_mean(mesh8, params)
    assert np.abs(b).max() == 0.0


def test_load_vector_elevation_head(mesh8):
    params = PhysicalParams(z=2.0, g=1.5)
    _, b = assemble_mean(mesh8, params)
    assert np.abs(b[mesh8.sl_head]).max() == 0.0
    assert np.abs(b[mesh8.sl_pres]).max() == 0.0
    # u1 rows carry the n1 = 0 factor; u2 rows integrate g*z over the
    # interface against a partition of unity
    assert np.abs(b[mesh8.sl_u1]).max() == 0.0
    assert b[mesh8.sl_u2].sum() == pytest.approx(1.5 * 2.0, rel=1e-13)
    onif = np.isclose(mesh8.vel_coords[:, 1], 0.0)
    assert np.abs(b[mesh8.sl_u2][~onif]).max() == 0.0


# ---------------------------------------------------------------------------
# mean / perturbation splitting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "physics",
    [PhysicalParams(), PhysicalParams(nu=2.0, g=1.5, alpha=0.25, z=1.0)],
    ids=["default_physics", "other_physics"])
def test_split_matches_from_scratch_assembly(problem20, physics):
    # assembling the full sampled conductivity in one shot (slip
    # coefficient still at the mean) must reproduce mean + perturbation,
    # also with an elevation-head load and nu, g, alpha off 1
    mesh, kl = problem20["mesh"], problem20["kl"]
    a_bar, b = assemble_mean(mesh, physics, kl.mean_nodal)
    asm = PerturbationAssembler(mesh, physics, kbar=kl.mean_nodal)
    scale = np.abs(a_bar.data).max()
    for m in (0, 7, 19):
        tilde = problem20["tildes_nodal"][m]
        scratch, b_scratch = assemble_mean(mesh, physics,
                                           kl_mean=kl.mean_nodal + tilde,
                                           delta_from=kl.mean_nodal)
        diff = scratch - (a_bar + asm.assemble(tilde))
        err = 0.0 if diff.nnz == 0 else np.abs(diff.data).max()
        assert err <= 1e-12 * scale, f"sample {m}: {err:.3e}"
        assert np.array_equal(b_scratch, b)
    assert (np.abs(b).max() > 0.0) == (physics.z != 0.0)


def test_assemble_family_matches_the_piecewise_build(mesh8, params, kl8,
                                                     problem20):
    # problem20 builds the same family piece by piece
    ref = problem20["system"]
    system = assemble_family(mesh8, params, kl8,
                             problem20["samples"].coefficients)

    def same(a, b):
        return (np.array_equal(a.indptr, b.indptr)
                and np.array_equal(a.indices, b.indices)
                and np.array_equal(a.data, b.data))

    assert same(system.A_bar, ref.A_bar)
    assert np.array_equal(system.b, ref.b)
    assert len(system.A_tildes) == len(ref.A_tildes) == 20
    assert all(same(t, r) for t, r in zip(system.A_tildes, ref.A_tildes))
    assert system.constraints == ref.constraints
    assert (system.N1, system.N2, system.N3) == (ref.N1, ref.N2, ref.N3)
    assert system.n_flow == ref.n_flow == mesh8.sl_pres.start


def test_perturbation_support(problem20):
    raw = problem20["raw"]
    for t in raw.A_tildes[:5]:
        coo = t.tocoo()
        live = coo.data != 0.0
        assert np.all(coo.col[live] < raw.N1)
        assert np.all(coo.row[live] < raw.n_flow)


def test_perturbation_linearity(mesh8, params, kl8):
    rng = np.random.default_rng(5)
    fa = rng.normal(size=kl8.nodes.shape[0])
    fb = rng.normal(size=kl8.nodes.shape[0])
    asm = PerturbationAssembler(mesh8, params, kbar=kl8.mean_nodal)
    combo = asm.assemble(2.0 * fa + 3.0 * fb)
    parts = 2.0 * asm.assemble(fa) + 3.0 * asm.assemble(fb)
    scale = np.abs(combo.data).max()
    assert np.abs((combo - parts).toarray()).max() <= 1e-13 * scale


def test_perturbation_zero_field(mesh8, params):
    asm = PerturbationAssembler(mesh8, params)
    t = asm.assemble(np.zeros(mesh8.darcy_vertices.shape[0]))
    assert np.abs(t.toarray()).max() == 0.0
    with pytest.raises(ValueError):
        asm.assemble(np.zeros(7))


def test_perturbation_scalar_and_array_fields_agree(mesh8, params):
    asm = PerturbationAssembler(mesh8, params)
    t_scalar = asm.assemble(0.5)
    t_array = asm.assemble(np.full(mesh8.darcy_vertices.shape[0], 0.5))
    assert np.abs((t_scalar - t_array).toarray()).max() == 0.0
    assert np.abs(t_scalar.toarray()).max() > 0.0


# the meshes of the solver tests: the porous rectangle on top at n = 8
# and n = 16, below the free flow, and a porous layer shallower than
# half its width
_ORACLE_MESHES = pytest.mark.parametrize("geometry, n", [
    (None, 8),
    (None, 16),
    (Geometry(darcy_rect=(0.0, 1.0, -0.5, 0.0),
              stokes_rect=(0.0, 1.0, 0.0, 0.5)), 8),
    (Geometry(darcy_rect=(0.0, 1.0, 0.0, 0.25),
              stokes_rect=(0.0, 1.0, -0.5, 0.0)), 8),
], ids=["n8", "n16", "porous_below", "shallow_porous"])


def _stored_keys(a):
    """row * ncols + col of every stored entry of a canonical CSR."""
    rows = np.repeat(np.arange(a.shape[0], dtype=np.int64), np.diff(a.indptr))
    return rows * a.shape[1] + a.indices


@_ORACLE_MESHES
def test_perturbation_matches_per_element_oracle(geometry, n, params):
    mesh = build_mesh(geometry, n=n)
    xy = mesh.darcy_vertices
    # a mean varying along the interface, so delta varies too
    kbar = 1.0 + 0.5 * np.sin(3.0 * xy[:, 0]) * np.cos(2.0 * xy[:, 1])
    rng = np.random.default_rng(11)
    asm = PerturbationAssembler(mesh, params, kbar=kbar)
    for field in (rng.normal(size=xy.shape[0]), kbar):
        got = asm.assemble(field)
        ref = k_linear_blocks(mesh, params, kbar, field)
        # the oracle assembles I9..I12 in the general frame; what it
        # stores outside the assembler's pattern is exactly zero
        got_keys, ref_keys = _stored_keys(got), _stored_keys(ref)
        kept = np.isin(ref_keys, got_keys)
        assert np.array_equal(ref_keys[kept], got_keys)
        assert np.all(ref.data[~kept] == 0.0)
        scale = np.abs(ref.data).max()
        assert np.abs(got.data - ref.data[kept]).max() <= 1e-13 * scale


@_ORACLE_MESHES
def test_perturbation_stores_nothing_in_the_u2_rows(geometry, n, params):
    # on the flat interface tau2 = 0, so I10..I12 are not assembled
    mesh = build_mesh(geometry, n=n)
    t = PerturbationAssembler(mesh, params).assemble(1.0)
    assert t.nnz > 0
    u2_rows = t.indptr[mesh.N1 + mesh.N2:mesh.N1 + 2 * mesh.N2 + 1]
    assert np.all(u2_rows == u2_rows[0])


@_ORACLE_MESHES
def test_perturbation_stores_no_entry_zero_for_every_field(geometry, n,
                                                           params):
    # the P2 couplings that vanish on right triangles vanish for every
    # field, so the pattern leaves them out: each stored position is
    # nonzero for some field
    mesh = build_mesh(geometry, n=n)
    asm = PerturbationAssembler(mesh, params)
    fields = np.random.default_rng(2).normal(
        size=(3, mesh.darcy_vertices.shape[0]))
    live = np.zeros(asm.assemble(0.0).nnz, dtype=bool)
    for field in fields:
        live |= asm.assemble(field).data != 0.0
    assert live.all(), f"{np.count_nonzero(~live)} of {live.size} zero"


@pytest.mark.parametrize("n", [8, 16, 40, 48])
def test_constrained_pattern_support_is_the_free_heads_and_interface(n,
                                                                     params):
    # the rows and columns the constrained perturbations touch are the
    # (2n - 1) n free head DOFs and the 2n - 1 free u1 DOFs on the
    # interface.  I9 sits in the rows of the free-flow nodes on each
    # interface edge only: at n = 40 the basis functions of the nodes one
    # element row off it, which vanish on the edge, left roundoff entries
    mesh = build_mesh(n=n)
    a_bar, b = assemble_mean(mesh, params, 1.0)
    field = 1.0 + np.random.default_rng(4).random(
        mesh.darcy_vertices.shape[0])
    system = apply_dirichlet(
        SplitSystem(A_bar=a_bar, b=b,
                    A_tildes=[PerturbationAssembler(mesh, params)
                              .assemble(field)],
                    N1=mesh.N1, N2=mesh.N2, N3=mesh.N3),
        dirichlet_constraints(mesh))
    t = system.A_tildes[0].tocoo()
    assert np.union1d(t.row, t.col).size == (2 * n - 1) * (n + 1)


def test_perturbations_share_a_read_only_pattern(mesh8, params):
    asm = PerturbationAssembler(mesh8, params)
    a = asm.assemble(0.5)
    b = asm.assemble(2.0)
    assert np.shares_memory(a.indices, b.indices)
    assert np.shares_memory(a.indptr, b.indptr)
    assert not np.shares_memory(a.data, b.data)
    # an in-place structural edit of one would corrupt the other
    with pytest.raises(ValueError):
        a.eliminate_zeros()
    assert np.array_equal(b.toarray(), 4.0 * a.toarray())


def test_nodal_field_size_validation(mesh8, params):
    with pytest.raises(ValueError):
        assemble_mean(mesh8, params, kl_mean=np.ones(11))


def test_unassembled_node_rejected(mesh8, params):
    broken = replace(
        mesh8,
        head_coords=np.vstack([mesh8.head_coords, [0.77, 0.33]]),
    )
    with pytest.raises(RuntimeError, match="unassembled"):
        assemble_mean(broken, params)


# ---------------------------------------------------------------------------
# Dirichlet treatment
# ---------------------------------------------------------------------------

def test_dirichlet_constraint_list(mesh8, problem20):
    cons = problem20["constraints"]
    dofs = np.array([c[0] for c in cons])
    vals = np.array([c[1] for c in cons])
    assert np.array_equal(dofs, np.unique(dofs))
    # outer head boundary of the 17 x 9 quadratic lattice: two side
    # columns (2*9) plus the top row without its corners (15)
    n_head = (dofs < mesh8.N1).sum()
    assert n_head == 2 * 9 + 15
    assert np.all(vals[dofs < mesh8.N1] == 0.0)
    # wall u1 values are 1, everything else 0
    u1 = (dofs >= mesh8.N1) & (dofs < mesh8.N1 + mesh8.N2)
    wall_x = mesh8.vel_coords[dofs[u1] - mesh8.N1][:, 0]
    is_wall = np.isclose(wall_x, 0.0) | np.isclose(wall_x, 1.0)
    assert np.array_equal(vals[u1] == 1.0, is_wall)
    assert np.all(vals[dofs >= mesh8.N1 + mesh8.N2] == 0.0)


def test_apply_dirichlet_validation(problem20):
    raw = problem20["raw"]
    with pytest.raises(ValueError, match="duplicate"):
        apply_dirichlet(raw, [(3, 0.0), (3, 0.0)])
    with pytest.raises(ValueError, match="pressure"):
        apply_dirichlet(raw, [(raw.n_flow, 0.0)])
    with pytest.raises(ValueError, match="homogeneous"):
        apply_dirichlet(raw, [(0, 1.0)])


def test_apply_dirichlet_rejects_negative_dofs(problem20):
    # numpy would wrap -1 to the last pressure DOF, which is itself not
    # a valid constraint
    raw = problem20["raw"]
    with pytest.raises(ValueError, match="pressure"):
        apply_dirichlet(raw, [(raw.N - 1, 0.0)])
    with pytest.raises(ValueError, match="negative constraint DOF -1"):
        apply_dirichlet(raw, [(3, 0.0), (-1, 0.0)])


def test_apply_dirichlet_rows_and_columns(problem20):
    system = problem20["system"]
    dofs = np.array([c[0] for c in system.constraints])
    vals = np.array([c[1] for c in system.constraints])
    a = system.A_bar.toarray()
    expect = np.zeros_like(a[dofs])
    expect[np.arange(dofs.size), dofs] = 1.0
    assert np.array_equal(a[dofs, :], expect)
    assert np.array_equal(a[:, dofs].T, expect)
    assert np.array_equal(system.b[dofs], vals)
    for t in system.A_tildes[:4]:
        td = t.toarray()
        assert np.abs(td[dofs, :]).max() == 0.0
        assert np.abs(td[:, dofs]).max() == 0.0


def test_constrained_solution_satisfies_free_equations(problem20):
    # the lifted right-hand side must make the constrained solution solve
    # the original equations at every unconstrained DOF, for the mean
    # system and for a perturbed sample alike
    system, raw = problem20["system"], problem20["raw"]
    dofs = np.array([c[0] for c in system.constraints])
    vals = np.array([c[1] for c in system.constraints])
    free = np.setdiff1d(np.arange(system.N), dofs)
    for m in (None, 0, 11):
        a_c = system.A_bar if m is None else system.A_bar + system.A_tildes[m]
        a_r = raw.A_bar if m is None else raw.A_bar + raw.A_tildes[m]
        x = spla.spsolve(sp.csc_matrix(a_c), system.b)
        assert np.array_equal(x[dofs], vals)
        resid = (a_r @ x - raw.b)[free]
        scale = np.abs(a_r.data).max() * np.abs(x).max()
        assert np.abs(resid).max() <= 1e-11 * scale


def _masked_by_product(system, constraints):
    """A_bar and the perturbations constrained by products with D = the
    diagonal of the free DOFs, indices sorted."""
    n = system.N
    dofs = [c[0] for c in constraints]
    free = np.ones(n)
    free[dofs] = 0.0
    d_free = sp.diags(free)
    pinned = np.zeros(n)
    pinned[dofs] = 1.0
    out = [sp.csr_matrix(d_free @ system.A_bar @ d_free + sp.diags(pinned))]
    out += [sp.csr_matrix(d_free @ t @ d_free) for t in system.A_tildes]
    for m in out:
        m.sort_indices()
    return out


def _assert_bitwise(got, ref):
    assert got.has_sorted_indices
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


def _assert_own_buffers(mats):
    arrays = [a for m in mats for a in (m.indices, m.indptr, m.data)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def _assert_shares_a_read_only_pattern(run, raw):
    """The matrices of ``run`` share one read-only pattern, each holds
    its own values, and no array of theirs aliases one of ``raw``."""
    first = run[0]
    for m in run[1:]:
        assert np.shares_memory(m.indices, first.indices)
        assert np.shares_memory(m.indptr, first.indptr)
    datas = [m.data for m in run]
    for i, a in enumerate(datas):
        for b in datas[i + 1:]:
            assert not np.shares_memory(a, b)
    inputs = [a for m in raw for a in (m.indices, m.indptr, m.data)]
    for a in (first.indices, first.indptr, *datas):
        assert not any(np.shares_memory(a, b) for b in inputs)
    # an in-place structural edit of one would corrupt the others; a
    # copy may be edited
    first.copy().eliminate_zeros()
    with pytest.raises(ValueError):
        first.eliminate_zeros()


def test_apply_dirichlet_matches_masking_by_product(problem20):
    raw, system = problem20["raw"], problem20["system"]
    ref = _masked_by_product(raw, problem20["constraints"])
    got = [system.A_bar] + system.A_tildes
    assert len(got) == len(ref) == 21
    for g, r in zip(got, ref):
        _assert_bitwise(g, r)
    # the raw perturbations share one pattern, and so do the constrained
    # ones: one read-only pattern, the values of each their own
    _assert_shares_a_read_only_pattern(system.A_tildes,
                                       [raw.A_bar] + raw.A_tildes)
    assert not np.shares_memory(system.A_bar.data, system.A_tildes[0].data)


def test_apply_dirichlet_on_a_mixed_family(problem20):
    # one pattern whose members mix raw samples, a member with an exact
    # zero at a kept entry and a zero perturbation: the zeros stay
    # stored, so every member is a shallow copy on one read-only
    # constrained pattern and holds the product's values at its kept
    # entries.  A member on a second pattern is a ValueError naming it
    raw, constraints = problem20["raw"], problem20["constraints"]
    free = np.ones(raw.N, dtype=bool)
    free[[c[0] for c in constraints]] = False
    t0, t1, t2 = raw.A_tildes[:3]
    rows = np.repeat(np.arange(raw.N), np.diff(t0.indptr))
    kept = np.flatnonzero(free[rows] & free[t0.indices])
    zeroed = t0.data.copy()
    zeroed[kept[3]] = 0.0
    family = [t0, t1,
              sp.csr_matrix((zeroed, t0.indices, t0.indptr), t0.shape),
              sp.csr_matrix((0.0 * t2.data, t2.indices, t2.indptr),
                            t2.shape),
              t2]
    mixed = replace(raw, A_tildes=family)
    system = apply_dirichlet(mixed, constraints)
    got = system.A_tildes
    ref = _masked_by_product(mixed, constraints)
    _assert_bitwise(system.A_bar, ref[0])
    assert got[0].has_sorted_indices
    assert np.array_equal(got[0].indices, t0.indices[kept])
    for g, t, r in zip(got, family, ref[1:]):
        assert np.array_equal(g.data, t.data[kept])
        assert np.array_equal(g.toarray(), r.toarray())
    assert [np.count_nonzero(g.data) for g in got] == [
        kept.size, kept.size, kept.size - 1, 0, kept.size]
    _assert_shares_a_read_only_pattern(got, family)
    other = t1.copy()            # own, writable arrays
    other.data[kept[5]] = 0.0
    other.eliminate_zeros()      # the second pattern: one entry less
    with pytest.raises(ValueError, match="matrix 2 is not on the sparsity "
                                         "pattern of matrix 0"):
        apply_dirichlet(replace(raw, A_tildes=[t0, t1, other, t2]),
                        constraints)


def test_apply_dirichlet_holds_one_copy_of_the_family(raw200):
    raw, constraints = raw200
    tracemalloc.start()
    try:
        system = apply_dirichlet(raw, constraints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    first = system.A_tildes[0]
    assert all(m.indices is first.indices for m in system.A_tildes)
    held = (sum(m.data.nbytes for m in system.A_tildes)
            + first.indices.nbytes + first.indptr.nbytes)
    # one block of constrained values and one pattern, not a copy of
    # each raw matrix besides
    assert peak < 1.5 * held


def test_apply_dirichlet_unsorted_duplicate_input():
    # N1 = N2 = 2, N3 = 1: DOF 1 is a head, 3 a u1 and 6 the pressure DOF
    indptr = np.array([0, 3, 5, 7, 10, 11, 13, 14])
    indices = np.array([2, 0, 2,  1, 0,  3, 2,  4, 3, 0,  4,  5, 1,  6])
    data = np.array([1.5, 4.0, 0.25, 2.0, -1.0, 0.5, 3.0, 0.75, 5.0, 0.0,
                     6.0, 7.0, 2.5, 0.0])
    a = sp.csr_matrix((data, indices, indptr), shape=(7, 7))
    # a cancelling duplicate pair and an explicit zero at free positions
    t = sp.csr_matrix((np.array([1.0, 0.5, -0.5, 2.0, 0.0]),
                       np.array([2, 0, 0, 1, 5]),
                       np.array([0, 3, 3, 3, 3, 3, 5, 5])), shape=(7, 7))
    snapshot = [m.copy() for m in (a, t)]
    raw = SplitSystem(A_bar=a, b=np.zeros(7), A_tildes=[t], N1=2, N2=2,
                      N3=1)
    constraints = [(1, 0.0), (3, 1.0)]
    system = apply_dirichlet(raw, constraints)
    ref = _masked_by_product(raw, constraints)
    got = [system.A_bar] + system.A_tildes
    _assert_bitwise(system.A_bar, ref[0])
    # the cancelling pair sums to a zero that stays stored, as the
    # explicit one at (5, 5) does; the product drops both
    t_c = system.A_tildes[0]
    assert t_c.has_sorted_indices
    assert np.array_equal(t_c.indptr, [0, 2, 2, 2, 2, 2, 3, 3])
    assert np.array_equal(t_c.indices, [0, 2, 5])
    assert np.array_equal(t_c.data, [0.0, 1.0, 0.0])
    assert np.array_equal(t_c.toarray(), ref[1].toarray())
    # the inputs are left as they were
    for m, before in zip((a, t), snapshot):
        assert np.array_equal(m.indptr, before.indptr)
        assert np.array_equal(m.indices, before.indices)
        assert np.array_equal(m.data, before.data)
    _assert_own_buffers(got + [a, t])
