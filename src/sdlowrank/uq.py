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
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import p1_pressure_mass, p2_mass, p2_stiffness

__all__ = [
    "MomentEstimate",
    "MomentAccumulator",
    "XNormWeights",
    "build_xnorm_weights",
    "estimate_moments",
    "xnorm",
    "xnorm_components",
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
    """Streaming accumulator of the sample mean and variance."""

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
