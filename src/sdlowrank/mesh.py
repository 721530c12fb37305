"""Two-rectangle coupled geometry and nested structured triangulations.

The computational domain is a porous-media rectangle stacked on top of a
free-flow rectangle, glued along one shared horizontal edge (the
interface).  Each rectangle is meshed with a uniform right-triangle grid
(every square cell split along the diagonal from its lower-left to its
upper-right corner), which is nested under n -> 2n refinement.

Discrete spaces and degree-of-freedom layout:

* head (porous rectangle): quadratic Lagrange nodes (vertices plus edge
  midpoints), N1 of them, global indices [0, N1);
* velocity (free-flow rectangle): one shared scalar quadratic node map,
  N2 nodes, used by both components: u1 occupies [N1, N1+N2) and u2
  occupies [N1+N2, N1+2*N2);
* pressure (free-flow rectangle): linear nodes at the vertices, N3 of
  them, indices [N1+2*N2, N1+2*N2+N3).

The total system dimension is N = N1 + 2*N2 + N3.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Geometry",
    "CoupledMesh",
    "build_mesh",
    "TAG_INTERIOR_P",
    "TAG_GAMMA_P",
    "TAG_GAMMA_I",
    "TAG_INTERIOR_F",
    "TAG_GAMMA_F_WALL",
    "TAG_GAMMA_F_BOTTOM",
]

# node classification tags
TAG_INTERIOR_P = 0
TAG_GAMMA_P = 1
TAG_GAMMA_I = 2
TAG_INTERIOR_F = 3
TAG_GAMMA_F_WALL = 4
TAG_GAMMA_F_BOTTOM = 5


@dataclass(frozen=True)
class Geometry:
    """Axis-aligned two-rectangle domain sharing one horizontal edge.

    Rectangles are (xmin, xmax, ymin, ymax) tuples.  The porous rectangle
    must sit directly on top of the free-flow rectangle (or directly
    below it); both must span the same x interval.
    """

    darcy_rect: tuple = (0.0, 1.0, 0.0, 0.5)
    stokes_rect: tuple = (0.0, 1.0, -0.5, 0.0)
    interface_y: float = 0.0

    def validate(self):
        dx0, dx1, dy0, dy1 = self.darcy_rect
        sx0, sx1, sy0, sy1 = self.stokes_rect
        if not (dx1 > dx0 and dy1 > dy0 and sx1 > sx0 and sy1 > sy0):
            raise ValueError("rectangles must have positive area")
        if abs(dx0 - sx0) > 1e-12 or abs(dx1 - sx1) > 1e-12:
            raise ValueError(
                "rectangles must span the same x interval to share a full edge"
            )
        darcy_above = abs(dy0 - self.interface_y) < 1e-12 and abs(
            sy1 - self.interface_y
        ) < 1e-12
        darcy_below = abs(dy1 - self.interface_y) < 1e-12 and abs(
            sy0 - self.interface_y
        ) < 1e-12
        if not (darcy_above or darcy_below):
            raise ValueError(
                "rectangles must meet exactly at interface_y (one above, one below)"
            )
        return darcy_above


@dataclass
class CoupledMesh:
    """Structured conforming mesh of the coupled two-rectangle domain."""

    h: float
    darcy_above: bool
    # one node lattice per discrete space, numbered from its rectangle's
    # lower-left corner, x fastest; tri3 rows follow the tri6 rows of the
    # same rectangle
    head_coords: np.ndarray       # (N1, 2) quadratic head nodes
    vel_coords: np.ndarray        # (N2, 2) quadratic velocity nodes
    pres_coords: np.ndarray       # (N3, 2) free-flow vertices
    tri6_p: np.ndarray            # (nt_p, 6) head-node indices
    tri6_f: np.ndarray            # (nt_f, 6) velocity-node indices
    tri3_pres: np.ndarray         # (nt_f, 3) pressure-node indices
    # conductivity space: porous vertices, interface row included
    darcy_vertices: np.ndarray    # (n_dv, 2)
    tri3_darcy: np.ndarray        # (nt_p, 3) indices into darcy_vertices
    # interface edges ordered by x
    iface_darcy_tri: np.ndarray     # (ne,) row of tri6_p / tri3_darcy
    iface_stokes_tri: np.ndarray    # (ne,) row of tri6_f / tri3_pres
    iface_darcy_vpair: np.ndarray   # (ne, 2) endpoints, into darcy_vertices
    # node classification
    head_tags: np.ndarray         # (N1,)
    vel_tags: np.ndarray          # (N2,)

    @property
    def N1(self):
        return self.head_coords.shape[0]

    @property
    def N2(self):
        return self.vel_coords.shape[0]

    @property
    def N3(self):
        return self.pres_coords.shape[0]

    @property
    def N(self):
        return self.N1 + 2 * self.N2 + self.N3

    # global block slices in the [head, u1, u2, pressure] layout
    @property
    def sl_head(self):
        return slice(0, self.N1)

    @property
    def sl_u1(self):
        return slice(self.N1, self.N1 + self.N2)

    @property
    def sl_u2(self):
        return slice(self.N1 + self.N2, self.N1 + 2 * self.N2)

    @property
    def sl_pres(self):
        return slice(self.N1 + 2 * self.N2, self.N)


def _lattice(nx, ny, x0, y0, step):
    """Coordinates of the (nx+1) x (ny+1) point lattice, x fastest."""
    A, C = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="xy")
    return np.column_stack([x0 + A.ravel() * step, y0 + C.ravel() * step])


# vertices of each cell's two triangles, (x, y) in cells from its
# lower-left corner: lower half (ll, lr, ur), upper half (ll, ur, ul)
_HALVES = np.array([[[0, 0], [1, 0], [1, 1]],
                    [[0, 0], [1, 1], [0, 1]]], dtype=np.int64)


def _triangles(nx, ny, quadratic):
    """Connectivity for the structured grid, one row per triangle.

    Triangle 2*(j*nx+i) is the lower half of cell (i, j) (vertices
    lower-left, lower-right, upper-right) and 2*(j*nx+i)+1 the upper half
    (lower-left, upper-right, upper-left).  Linear rows index the
    (nx+1) x (ny+1) vertex lattice and hold the three vertices; quadratic
    rows index the (2nx+1) x (2ny+1) node lattice and hold the three
    vertices followed by the midpoints opposite each vertex.
    """
    step = 2 if quadratic else 1
    offsets = step * _HALVES
    if quadratic:
        # the midpoint opposite a vertex, in half cells, is the sum of the
        # other two vertices in cells
        offsets = np.concatenate(
            [offsets, _HALVES.sum(axis=1, keepdims=True) - _HALVES], axis=1)
    stride = step * nx + 1
    j = np.arange(ny, dtype=np.int64)[:, None]
    i = np.arange(nx, dtype=np.int64)
    corner = step * (j * stride + i)  # lower-left node of cell (i, j)
    rows = corner[..., None, None] + offsets[..., 1] * stride + offsets[..., 0]
    return rows.reshape(-1, offsets.shape[1])


def _tags(nx, ny, iface_on_top, interior, outer, side):
    """Tags of the (2nx+1) x (2ny+1) quadratic lattice, x fastest.

    The interface row, then the outer horizontal edge, then the two side
    columns are tagged, each overriding the one before it.
    """
    tags = np.full((2 * ny + 1, 2 * nx + 1), interior, dtype=np.int8)
    iface = 2 * ny * iface_on_top
    tags[iface] = TAG_GAMMA_I
    tags[2 * ny - iface] = outer
    tags[:, [0, -1]] = side
    return tags.ravel()


def build_mesh(geometry=None, n=8):
    """Build the conforming coupled mesh with mesh size h = 1/n.

    Parameters
    ----------
    geometry : Geometry, optional
        Domain description; defaults to the unit-width stacked rectangles.
    n : int
        Subdivision count per unit length.  Must place an integer number
        of cells in every direction of both rectangles, which for the
        default geometry means n even and >= 2.

    Raises
    ------
    ValueError
        If the geometry is invalid or n does not align the interface and
        rectangle edges with mesh lines.
    """
    if geometry is None:
        geometry = Geometry()
    darcy_above = geometry.validate()
    if n < 2:
        raise ValueError("n must be at least 2")
    h = 1.0 / n

    dx0, dx1, dy0, dy1 = geometry.darcy_rect
    sx0, sx1, sy0, sy1 = geometry.stokes_rect
    width = dx1 - dx0

    def cells(extent, what):
        count = extent * n
        rounded = round(count)
        if rounded < 1 or abs(count - rounded) > 1e-9:
            raise ValueError(
                f"n={n} does not put an integer cell count across the {what} "
                f"(needs {count:g} cells of size 1/{n})"
            )
        return rounded

    nx = cells(width, "rectangle width")
    ny_p = cells(dy1 - dy0, "porous rectangle height")
    ny_f = cells(sy1 - sy0, "free-flow rectangle height")

    # the rectangle under the interface starts its lattice ny cells below it
    y_if = geometry.interface_y
    below = not darcy_above
    darcy_y0 = y_if - below * ny_p * h
    stokes_y0 = y_if - darcy_above * ny_f * h
    # interface edges ordered by x.  The upper rectangle touches the
    # interface with the lower halves of its cell row 0 (triangles 2i), the
    # lower one with the upper halves of its last cell row
    # (2((ny-1)nx+i)+1).
    i = np.arange(nx)
    first = below * ny_p * (nx + 1) + i

    return CoupledMesh(
        h=h,
        darcy_above=darcy_above,
        # quadratic lattices (local per subdomain); the pressure nodes are
        # the Stokes vertices, local numbering
        head_coords=_lattice(2 * nx, 2 * ny_p, dx0, darcy_y0, h / 2.0),
        vel_coords=_lattice(2 * nx, 2 * ny_f, dx0, stokes_y0, h / 2.0),
        pres_coords=_lattice(nx, ny_f, dx0, stokes_y0, h),
        tri6_p=_triangles(nx, ny_p, quadratic=True),
        tri6_f=_triangles(nx, ny_f, quadratic=True),
        tri3_pres=_triangles(nx, ny_f, quadratic=False),
        # conductivity field support: porous vertices including the
        # interface row
        darcy_vertices=_lattice(nx, ny_p, dx0, darcy_y0, h),
        tri3_darcy=_triangles(nx, ny_p, quadratic=False),
        iface_darcy_tri=2 * (below * (ny_p - 1) * nx + i) + below,
        iface_stokes_tri=2 * (darcy_above * (ny_f - 1) * nx + i) + darcy_above,
        iface_darcy_vpair=np.column_stack([first, first + 1]),
        # Dirichlet boundaries win ties against the interface; side walls
        # win at the bottom corners of the free-flow rectangle.
        head_tags=_tags(nx, ny_p, below, TAG_INTERIOR_P, TAG_GAMMA_P,
                        TAG_GAMMA_P),
        vel_tags=_tags(nx, ny_f, darcy_above, TAG_INTERIOR_F,
                       TAG_GAMMA_F_BOTTOM, TAG_GAMMA_F_WALL),
    )
