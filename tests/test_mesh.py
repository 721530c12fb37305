"""Coupled mesh: dimension bookkeeping, nestedness, boundary tags."""

import numpy as np
import pytest
import scipy.sparse as sp

from sdlowrank import (
    TAG_GAMMA_F_BOTTOM,
    TAG_GAMMA_F_WALL,
    TAG_GAMMA_I,
    TAG_GAMMA_P,
    Geometry,
    PhysicalParams,
    assemble_mean,
    build_mesh,
)

# the porous rectangle below the free flow instead of on top of it
POROUS_BELOW = Geometry(darcy_rect=(0.0, 1.0, -0.5, 0.0),
                        stokes_rect=(0.0, 1.0, 0.0, 0.5))


def test_dof_counts_n8(mesh8):
    assert mesh8.N1 == 153
    assert mesh8.N2 == 153
    assert mesh8.N3 == 45
    assert mesh8.N == mesh8.N1 + 2 * mesh8.N2 + mesh8.N3 == 504


def test_dof_counts_n32():
    mesh = build_mesh(n=32)
    # quadratic scalar space on an n x (n/2) grid of split squares:
    # (2n+1)(n+1) nodes; linear pressure space: (n+1)(n/2+1)
    assert mesh.N1 == 65 * 33 == 2145
    assert mesh.N2 == 2145
    assert mesh.N3 == 33 * 17 == 561
    assert mesh.N == 6996


def test_odd_n_rejected():
    with pytest.raises(ValueError):
        build_mesh(n=7)
    with pytest.raises(ValueError):
        build_mesh(n=0)


def test_block_slices_partition(mesh8):
    slices = [mesh8.sl_head, mesh8.sl_u1, mesh8.sl_u2, mesh8.sl_pres]
    covered = []
    for sl in slices:
        covered.extend(range(sl.start, sl.stop))
    assert covered == list(range(mesh8.N))


def test_quadratic_nodes_nested_under_refinement(mesh8):
    # halving h refines the lattice in place: every coarse quadratic node
    # must appear verbatim among the fine ones (moment transfer relies on
    # this geometric nesting)
    fine = build_mesh(n=16)
    for coords_c, coords_f in ((mesh8.head_coords, fine.head_coords),
                               (mesh8.vel_coords, fine.vel_coords)):
        fine_set = {(round(x, 12), round(y, 12)) for x, y in coords_f}
        for x, y in coords_c:
            assert (round(x, 12), round(y, 12)) in fine_set


def test_domain_extents(mesh8):
    assert mesh8.head_coords[:, 0].min() == 0.0
    assert mesh8.head_coords[:, 0].max() == 1.0
    assert mesh8.head_coords[:, 1].min() == 0.0
    assert mesh8.head_coords[:, 1].max() == 0.5
    assert mesh8.vel_coords[:, 1].min() == -0.5
    assert mesh8.vel_coords[:, 1].max() == 0.0
    # the pressure nodes are the vertices of the velocity triangles
    assert np.array_equal(mesh8.pres_coords[mesh8.tri3_pres],
                          mesh8.vel_coords[mesh8.tri6_f[:, :3]])
    assert np.unique(mesh8.tri3_pres).size == mesh8.N3


def test_head_tags(mesh8):
    x, y = mesh8.head_coords[:, 0], mesh8.head_coords[:, 1]
    outer = np.isclose(x, 0) | np.isclose(x, 1) | np.isclose(y, 0.5)
    assert np.array_equal(mesh8.head_tags == TAG_GAMMA_P, outer)
    iface_interior = np.isclose(y, 0) & ~outer
    assert np.array_equal(mesh8.head_tags == TAG_GAMMA_I, iface_interior)


def test_velocity_tags_and_corner_priority(mesh8):
    x, y = mesh8.vel_coords[:, 0], mesh8.vel_coords[:, 1]
    walls = np.isclose(x, 0) | np.isclose(x, 1)
    bottom = np.isclose(y, -0.5)
    assert np.array_equal(mesh8.vel_tags == TAG_GAMMA_F_WALL, walls)
    # bottom corners belong to the walls: the wall tag wins there
    assert np.array_equal(mesh8.vel_tags == TAG_GAMMA_F_BOTTOM,
                          bottom & ~walls)
    iface = np.isclose(y, 0) & ~walls
    assert np.array_equal(mesh8.vel_tags == TAG_GAMMA_I, iface)


def test_interface_edges_lie_on_interface(mesh8):
    assert mesh8.iface_darcy_vpair.shape == (8, 2)
    pts = mesh8.darcy_vertices[mesh8.iface_darcy_vpair]
    assert np.all(pts[:, :, 1] == 0.0)
    # ordered left to right, consecutive, spanning [0, 1]
    assert np.all(pts[:, 1, 0] - pts[:, 0, 0] == mesh8.h)
    assert pts[0, 0, 0] == 0.0 and pts[-1, 1, 0] == 1.0


def _assert_interface_triangles_touch_the_interface(mesh):
    # each interface triangle has two vertices on the interface: the
    # endpoints of its edge
    ends = mesh.darcy_vertices[mesh.iface_darcy_vpair]
    for tris, tri6, coords in (
            (mesh.iface_darcy_tri, mesh.tri6_p, mesh.head_coords),
            (mesh.iface_stokes_tri, mesh.tri6_f, mesh.vel_coords)):
        for e, t in enumerate(tris):
            verts = coords[tri6[t, :3]]
            on = verts[np.isclose(verts[:, 1], 0.0)]
            assert on.shape == (2, 2), f"edge {e}"
            assert np.array_equal(on[np.argsort(on[:, 0])], ends[e])


def test_interface_triangles_touch_the_interface(mesh8):
    _assert_interface_triangles_touch_the_interface(mesh8)


def _interface_couplings(mesh, g):
    """-I2 (head rows, u2 columns) and g*I4 (u2 rows, head columns) of
    the mean matrix on the interface nodes, each ordered by x."""
    a = sp.csr_matrix(assemble_mean(mesh, PhysicalParams(g=g))[0])
    heads, vels = (np.flatnonzero(c[:, 1] == 0.0)
                   for c in (mesh.head_coords, mesh.vel_coords))
    heads = heads[np.argsort(mesh.head_coords[heads, 0])] + mesh.sl_head.start
    vels = vels[np.argsort(mesh.vel_coords[vels, 0])] + mesh.sl_u2.start
    return a[heads][:, vels].toarray(), a[vels][:, heads].toarray()


def test_interface_coupling_flips_sign_with_the_porous_side(mesh8):
    # the free flow's outward normal is (0, 1) with the pores above and
    # (0, -1) with them below; -I2 and g*I4 carry its sign, nothing else
    # about them changes
    g = 2.0
    above = _interface_couplings(mesh8, g)
    below = _interface_couplings(build_mesh(POROUS_BELOW, n=8), g)
    minus_i2, g_i4 = above
    assert minus_i2.shape == (17, 17)
    assert minus_i2.sum() == pytest.approx(-1.0, rel=1e-13)
    assert np.allclose(g_i4, -g * minus_i2.T, rtol=0.0, atol=1e-15)
    for a, b in zip(above, below):
        assert np.allclose(b, -a, rtol=0.0, atol=1e-15)


def test_porous_below_tags():
    mesh = build_mesh(POROUS_BELOW, n=8)
    assert not mesh.darcy_above
    assert (mesh.N1, mesh.N2, mesh.N3) == (153, 153, 45)

    x, y = mesh.head_coords[:, 0], mesh.head_coords[:, 1]
    outer = np.isclose(x, 0) | np.isclose(x, 1) | np.isclose(y, -0.5)
    assert np.array_equal(mesh.head_tags == TAG_GAMMA_P, outer)
    assert np.array_equal(mesh.head_tags == TAG_GAMMA_I,
                          np.isclose(y, 0) & ~outer)

    x, y = mesh.vel_coords[:, 0], mesh.vel_coords[:, 1]
    walls = np.isclose(x, 0) | np.isclose(x, 1)
    assert np.array_equal(mesh.vel_tags == TAG_GAMMA_F_WALL, walls)
    # the outer horizontal edge of the free flow is now its lid at y=0.5
    assert np.array_equal(mesh.vel_tags == TAG_GAMMA_F_BOTTOM,
                          np.isclose(y, 0.5) & ~walls)
    assert np.array_equal(mesh.vel_tags == TAG_GAMMA_I,
                          np.isclose(y, 0) & ~walls)
    _assert_interface_triangles_touch_the_interface(mesh)


def test_triangle_areas_tile_each_domain(mesh8):
    from _oracles import triangle_area

    for tri6, coords in ((mesh8.tri6_p, mesh8.head_coords),
                         (mesh8.tri6_f, mesh8.vel_coords)):
        areas = triangle_area(coords[tri6[:, :3]])
        assert np.all(areas > 0)
        assert abs(areas.sum() - 0.5) < 1e-13


# a porous layer shallower than half its width; n must be a multiple of 4
SHALLOW_POROUS = Geometry(darcy_rect=(0.0, 1.0, 0.0, 0.25))


@pytest.mark.parametrize("geometry, n", [
    (Geometry(), 2), (Geometry(), 8), (POROUS_BELOW, 2), (POROUS_BELOW, 8),
    (SHALLOW_POROUS, 4), (SHALLOW_POROUS, 8),
], ids=["default-2", "default-8", "porous_below-2", "porous_below-8",
        "shallow_porous-4", "shallow_porous-8"])
def test_triangles_follow_the_documented_order(geometry, n):
    mesh = build_mesh(geometry, n=n)
    # the tri3 rows are the vertices of the tri6 rows of the same
    # rectangle; the perturbation assembler relies on it
    assert np.array_equal(mesh.darcy_vertices[mesh.tri3_darcy],
                          mesh.head_coords[mesh.tri6_p[:, :3]])
    assert np.array_equal(mesh.pres_coords[mesh.tri3_pres],
                          mesh.vel_coords[mesh.tri6_f[:, :3]])
    h = mesh.h
    lower = np.array([[0.0, 0.0], [h, 0.0], [h, h]])
    upper = np.array([[0.0, 0.0], [h, h], [0.0, h]])
    for tri6, coords, rect in (
            (mesh.tri6_p, mesh.head_coords, geometry.darcy_rect),
            (mesh.tri6_f, mesh.vel_coords, geometry.stokes_rect)):
        v0, v1, v2, m0, m1, m2 = coords[tri6].transpose(1, 0, 2)
        e1, e2 = v1 - v0, v2 - v0
        assert np.all(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0)
        # local node order: three vertices then the midpoint opposite each
        for mid, a, b in ((m0, v1, v2), (m1, v2, v0), (m2, v0, v1)):
            assert np.allclose(mid, 0.5 * (a + b), rtol=0.0, atol=1e-15)
        # triangle 2(j nx + i) is the lower half of cell (i, j), the next
        # one its upper half, both starting at the lower-left corner
        nx = round((rect[1] - rect[0]) * n)
        j, i = np.divmod(np.arange(tri6.shape[0] // 2), nx)
        corner = np.column_stack([rect[0] + i * h, rect[2] + j * h])
        verts = np.stack([v0, v1, v2], axis=1)
        for half, offsets in ((0, lower), (1, upper)):
            assert np.allclose(verts[half::2], corner[:, None] + offsets,
                               rtol=0.0, atol=1e-15)
