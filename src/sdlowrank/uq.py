"""Monte Carlo moments and discrete error norms for the coupled system.

The estimator of the quantity of interest is the plain sample mean of the
per-sample coefficient vectors.  The sample variance follows the
convention of comparing against a reference mean when one is supplied
(denominator M, deviations about the reference estimator); the
self-centered variance is always carried along as a diagnostic.
``estimate_moments`` forms all three in one pass over the solutions of
one run; no partial estimate is kept or merged between calls.

Errors are measured in the combined X-norm

    ||x||_X = ( |head|_{H1(porous)}^2 + |velocity|_{H1(free)}^2
                + |pressure|_{L2(free)}^2 )^{1/2},

assembled from the stiffness and mass matrices of the three blocks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import _space_for, p1_pressure_mass, p2_mass, p2_stiffness

__all__ = [
    "MomentEstimate",
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


def estimate_moments(solutions, theta=1.0, mesh=None, reference_mean=None):
    """Mean and variances of sample solutions, in one pass over them.

    ``solutions`` holds SampleSolution objects or raw vectors.  The mean
    is the running sum over M; the self-centered variance is Welford's
    update.  With ``reference_mean`` given, the variance is the mean
    squared deviation about that reference (denominator M); otherwise it
    is the self-centered one.  Raises ValueError for no samples, for a
    sample whose shape differs from the first, and for a reference whose
    shape differs from the samples'.
    """
    xs = [np.asarray(getattr(s, "x", s), dtype=float) for s in solutions]
    if not xs:
        raise ValueError("no samples to estimate moments from")
    shape = xs[0].shape
    ref = reference_mean
    if ref is not None:
        ref = np.asarray(ref, dtype=float)
        if ref.shape != shape:
            raise ValueError(
                f"reference mean has shape {ref.shape}, samples have {shape}")
    total, mean, m2, ref_sq = (np.zeros(shape) for _ in range(4))
    for count, x in enumerate(xs, start=1):
        if x.shape != shape:
            raise ValueError(f"sample shape {x.shape} does not match {shape}")
        total += x
        delta = x - mean
        mean += delta / count
        m2 += delta * (x - mean)
        if ref is not None:
            d = x - ref
            ref_sq += d * d
    var_self = np.maximum(m2 / len(xs), 0.0)
    return MomentEstimate(
        mean=total / len(xs),
        variance=var_self if ref is None else ref_sq / len(xs),
        variance_self=var_self,
        M=len(xs),
        theta=theta,
        mesh=mesh,
    )


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
    head, vel = (_space_for(mesh, d) for d in ("head", "velocity"))
    return XNormWeights(
        h1_head=(p2_stiffness(mesh, head) + p2_mass(mesh, head)).tocsr(),
        h1_vel=(p2_stiffness(mesh, vel) + p2_mass(mesh, vel)).tocsr(),
        l2_pres=p1_pressure_mass(mesh, vel),
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
    if ms.shape != errors.shape or np.unique(ms).size < 2:
        raise ValueError("need (M, error) pairs at two distinct M at least")
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
