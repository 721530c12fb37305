"""Monte Carlo moments and discrete error norms for the coupled system.

The estimator of the quantity of interest is the plain sample mean of the
per-sample coefficient vectors.  The sample variance follows the
convention of comparing against a reference mean when one is supplied
(denominator M, deviations about the reference estimator); the
self-centered variance is always carried along as a diagnostic.

Errors are measured in the combined X-norm

    ||x||_X = ( |head|_{H1(porous)}^2 + |velocity|_{H1(free)}^2
                + |pressure|_{L2(free)}^2 )^{1/2},

assembled from the stiffness and mass matrices of the three blocks.
Solutions on a mesh of size h can be compared with solutions on h/2 by
prolonging the coarse finite-element function onto the fine degrees of
freedom (exact for nested lattices) and taking the fine-mesh X-norm.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import p1_pressure_mass, p2_mass, p2_stiffness, p2_values

__all__ = [
    "MomentEstimate",
    "MomentAccumulator",
    "XNormWeights",
    "build_xnorm_weights",
    "estimate_moments",
    "xnorm",
    "xnorm_components",
    "prolong",
    "cross_mesh_error",
    "loglog_slope",
    "write_moments",
]


@dataclass
class MomentEstimate:
    """Sample mean and variance of the coefficient vectors."""

    mean: np.ndarray
    variance: np.ndarray        # reference-centered when a reference is given
    variance_self: np.ndarray   # centered on the running mean (diagnostic)
    M: int
    theta: float = 1.0
    mesh: object = None


class MomentAccumulator:
    """Streaming accumulator; partial accumulators merge associatively."""

    def __init__(self, reference_mean=None):
        self.count = 0
        self._sum = None
        self._mean = None
        self._m2 = None
        self._ref = None if reference_mean is None else np.asarray(
            reference_mean, dtype=float
        )
        self._ref_sq = None

    def add(self, x):
        x = np.asarray(x, dtype=float)
        if self.count == 0:
            self._sum = np.zeros_like(x)
            self._mean = np.zeros_like(x)
            self._m2 = np.zeros_like(x)
            if self._ref is not None:
                if self._ref.shape != x.shape:
                    raise ValueError(
                        f"reference mean has shape {self._ref.shape}, "
                        f"samples have {x.shape}"
                    )
                self._ref_sq = np.zeros_like(x)
        elif x.shape != self._sum.shape:
            raise ValueError(
                f"sample shape {x.shape} does not match {self._sum.shape}"
            )
        self.count += 1
        self._sum += x
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if self._ref is not None:
            d = x - self._ref
            self._ref_sq += d * d

    def merge(self, other):
        if other.count == 0:
            return self
        if self.count == 0:
            for name in ("count", "_sum", "_mean", "_m2", "_ref", "_ref_sq"):
                setattr(self, name, getattr(other, name))
            return self
        n1, n2 = self.count, other.count
        delta = other._mean - self._mean
        total = n1 + n2
        self._sum += other._sum
        self._mean += delta * (n2 / total)
        self._m2 += other._m2 + delta * delta * (n1 * n2 / total)
        if self._ref is not None:
            self._ref_sq += other._ref_sq
        self.count = total
        return self

    def finalize(self, theta=1.0, mesh=None):
        if self.count == 0:
            raise ValueError("no samples accumulated")
        mean = self._sum / self.count
        var_self = np.maximum(self._m2 / self.count, 0.0)
        if self._ref is not None:
            variance = self._ref_sq / self.count
        else:
            variance = var_self
        return MomentEstimate(
            mean=mean,
            variance=variance,
            variance_self=var_self,
            M=self.count,
            theta=theta,
            mesh=mesh,
        )


def estimate_moments(solutions, theta=1.0, mesh=None, reference_mean=None):
    """One-pass mean/variance over a stream of sample solutions.

    ``solutions`` yields either SampleSolution objects or raw vectors.
    With ``reference_mean`` given, the variance is the mean squared
    deviation about that reference (denominator M); otherwise it is
    centered on the sample mean itself.
    """
    acc = MomentAccumulator(reference_mean=reference_mean)
    for sol in solutions:
        acc.add(getattr(sol, "x", sol))
    return acc.finalize(theta=theta, mesh=mesh)


# ---------------------------------------------------------------------------
# X-norm
# ---------------------------------------------------------------------------

@dataclass
class XNormWeights:
    """Symmetric PSD block matrices defining the combined norm."""

    h1_head: object      # stiffness + mass on the porous head space
    h1_vel: object       # stiffness + mass on one velocity component
    l2_pres: object      # mass on the pressure space
    N1: int
    N2: int
    N3: int


def build_xnorm_weights(mesh):
    h1_head = p2_stiffness(mesh, "head") + p2_mass(mesh, "head")
    h1_vel = p2_stiffness(mesh, "velocity") + p2_mass(mesh, "velocity")
    return XNormWeights(
        h1_head=h1_head.tocsr(),
        h1_vel=h1_vel.tocsr(),
        l2_pres=p1_pressure_mass(mesh),
        N1=mesh.N1,
        N2=mesh.N2,
        N3=mesh.N3,
    )


def xnorm_components(delta, weights):
    """(total, porous, free-flow) norms of one coefficient vector."""
    delta = np.asarray(delta, dtype=float)
    sizes = (weights.N1, weights.N2, weights.N2, weights.N3)
    if delta.shape != (sum(sizes),):
        raise ValueError(
            f"vector has shape {delta.shape}, expected ({sum(sizes)},)"
        )
    phi, u1, u2, p = np.split(delta, np.cumsum(sizes[:3]))
    sq_head = float(phi @ (weights.h1_head @ phi))
    sq_flow = float(u1 @ (weights.h1_vel @ u1)) \
        + float(u2 @ (weights.h1_vel @ u2)) \
        + float(p @ (weights.l2_pres @ p))
    sq_head = max(sq_head, 0.0)
    sq_flow = max(sq_flow, 0.0)
    return (
        math.sqrt(sq_head + sq_flow),
        math.sqrt(sq_head),
        math.sqrt(sq_flow),
    )


def xnorm(delta, weights):
    """Combined norm of a full coefficient vector."""
    return xnorm_components(delta, weights)[0]


# ---------------------------------------------------------------------------
# nested-mesh prolongation
# ---------------------------------------------------------------------------

def _locate(points, rect, nx, ny):
    """Cell indices and the containing triangle for points in a rectangle."""
    x0, x1, y0, y1 = rect
    hx = (x1 - x0) / nx
    hy = (y1 - y0) / ny
    fx = (points[:, 0] - x0) / hx
    fy = (points[:, 1] - y0) / hy
    i = np.clip(np.floor(fx).astype(np.int64), 0, nx - 1)
    j = np.clip(np.floor(fy).astype(np.int64), 0, ny - 1)
    lx = fx - i
    ly = fy - j
    lower = lx >= ly                      # lower triangle spans lx >= ly
    return 2 * (j * nx + i) + np.where(lower, 0, 1)


def _barycentric(coords, tri_vertices, tri_ids, points):
    verts = coords[tri_vertices[tri_ids]]          # (np, 3, 2)
    v0 = verts[:, 0, :]
    e1 = verts[:, 1, :] - v0
    e2 = verts[:, 2, :] - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    rel = points - v0
    xi = (rel[:, 0] * e2[:, 1] - rel[:, 1] * e2[:, 0]) / det
    eta = (e1[:, 0] * rel[:, 1] - e1[:, 1] * rel[:, 0]) / det
    return xi, eta


def eval_p2(coords, tri6, rect, nx, ny, nodal, points):
    """Evaluate a quadratic FE function at arbitrary points of its domain."""
    points = np.asarray(points, dtype=float)
    t = _locate(points, rect, nx, ny)
    xi, eta = _barycentric(coords, tri6[:, :3], t, points)
    vals = p2_values(xi, eta)                      # (np, 6)
    return np.einsum("pi,pi->p", vals, nodal[tri6[t]])


def eval_p1(coords, tri3, rect, nx, ny, nodal, points):
    """Evaluate a linear FE function at arbitrary points of its domain."""
    points = np.asarray(points, dtype=float)
    t = _locate(points, rect, nx, ny)
    xi, eta = _barycentric(coords, tri3, t, points)
    vals = np.stack([1.0 - xi - eta, xi, eta], axis=-1)
    return np.einsum("pi,pi->p", vals, nodal[tri3[t]])


def prolong(coarse_mesh, fine_mesh, vec):
    """Interpolate a coarse coefficient vector onto the fine DOF lattice."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (coarse_mesh.N,):
        raise ValueError(
            f"vector has shape {vec.shape}, expected ({coarse_mesh.N},)"
        )
    g = coarse_mesh.geometry
    out = np.empty(fine_mesh.N)
    sl_c = coarse_mesh
    out[fine_mesh.sl_head] = eval_p2(
        coarse_mesh.head_coords, coarse_mesh.tri6_p, g.darcy_rect,
        coarse_mesh.nx, coarse_mesh.ny_p, vec[sl_c.sl_head],
        fine_mesh.head_coords,
    )
    for sl_from, sl_to in ((sl_c.sl_u1, fine_mesh.sl_u1),
                           (sl_c.sl_u2, fine_mesh.sl_u2)):
        out[sl_to] = eval_p2(
            coarse_mesh.vel_coords, coarse_mesh.tri6_f, g.stokes_rect,
            coarse_mesh.nx, coarse_mesh.ny_f, vec[sl_from],
            fine_mesh.vel_coords,
        )
    out[fine_mesh.sl_pres] = eval_p1(
        coarse_mesh.pres_coords, coarse_mesh.tri3_pres, g.stokes_rect,
        coarse_mesh.nx, coarse_mesh.ny_f, vec[sl_c.sl_pres],
        fine_mesh.pres_coords,
    )
    return out


def cross_mesh_error(coarse, fine, field="mean", weights=None):
    """X-norm distance between moment vectors on nested meshes.

    The coarse-mesh vector is prolonged onto the fine mesh and the
    difference is measured in the fine mesh's X-norm.  Requires the same
    geometry and fine subdivisions exactly twice the coarse ones.
    """
    if coarse.mesh is None or fine.mesh is None:
        raise ValueError("moment estimates must carry their meshes")
    if coarse.mesh.geometry != fine.mesh.geometry:
        raise ValueError("meshes do not share a geometry")
    if fine.mesh.n != 2 * coarse.mesh.n:
        raise ValueError(
            f"meshes are not nested: fine n={fine.mesh.n} is not twice "
            f"coarse n={coarse.mesh.n}"
        )
    vec_c = getattr(coarse, field)
    vec_f = getattr(fine, field)
    if weights is None:
        weights = build_xnorm_weights(fine.mesh)
    return xnorm(prolong(coarse.mesh, fine.mesh, vec_c) - vec_f, weights)


def loglog_slope(ms, errors):
    """Least-squares slope of log(error) against log(M)."""
    ms = np.asarray(ms, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ms.shape != errors.shape or ms.size < 2:
        raise ValueError("need at least two (M, error) pairs")
    if np.any(ms <= 0.0) or np.any(errors <= 0.0):
        raise ValueError("slope fit requires positive values")
    return float(np.polyfit(np.log(ms), np.log(errors), 1)[0])


def write_moments(path, est):
    """Dump a moment estimate as CSV keyed by DOF index and block label."""
    mesh = est.mesh
    n = est.mean.shape[0]
    labels = np.empty(n, dtype=object)
    coords = np.zeros((n, 2))
    if mesh is not None:
        labels[mesh.sl_head] = "head"
        labels[mesh.sl_u1] = "u1"
        labels[mesh.sl_u2] = "u2"
        labels[mesh.sl_pres] = "pressure"
        coords[mesh.sl_head] = mesh.head_coords
        coords[mesh.sl_u1] = mesh.vel_coords
        coords[mesh.sl_u2] = mesh.vel_coords
        coords[mesh.sl_pres] = mesh.pres_coords
    else:
        labels[:] = "dof"
    with open(path, "w", encoding="utf-8") as f:
        f.write("dof,block,x,y,mean,variance,variance_self\n")
        for j in range(n):
            f.write(
                f"{j},{labels[j]},{coords[j, 0]:.12e},{coords[j, 1]:.12e},"
                f"{est.mean[j]:.12e},{est.variance[j]:.12e},"
                f"{est.variance_self[j]:.12e}\n"
            )
