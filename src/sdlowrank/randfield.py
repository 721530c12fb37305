"""Truncated Karhunen-Loeve expansion of the random conductivity field.

The hydraulic conductivity on the porous rectangle is modelled as

    K(x, omega) = Kbar(x) + sum_t sqrt(lambda_t) * r_t(x) * Y_t(omega)

with the mean Kbar = 1, (lambda_t, r_t) the leading eigenpairs of the
covariance operator for a squared-exponential kernel, and Y_t i.i.d.
standard normal random variables truncated to [-3, 3].

The Fredholm eigenproblem is discretised by the Nystrom method at the
porous-side mesh vertices with lumped-mass quadrature weights.  Writing
W = diag(w), the symmetrised problem

    W^(1/2) C W^(1/2) psi = lambda psi,   r = W^(-1/2) psi

yields eigenfunctions orthonormal in the weighted discrete inner product
<r, s> = sum_i w_i r_i s_i.  Off-node values use linear interpolation on
the triangulation, which is consistent with how the field enters the
assembly (vertex values interpolated to quadrature points).
"""

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CovarianceKernel",
    "KlExpansion",
    "SampleSet",
    "TRUNCATION_BOUND",
    "nystrom_eigenpairs",
    "build_kl",
    "draw_samples",
    "realize_conductivity",
]

TRUNCATION_BOUND = 3.0
# rounds of redrawing non-positive fields before draw_samples gives up
_POSITIVITY_ROUNDS = 1000


@dataclass(frozen=True)
class CovarianceKernel:
    """Squared-exponential covariance Cov(x, x') = exp(-|x-x'|^2 / L2)."""

    correlation_length_sq: float = 0.2

    def __call__(self, pts_a, pts_b):
        a, b = np.atleast_2d(pts_a), np.atleast_2d(pts_b)
        d = a[:, None, :] - b[None, :, :]
        d2 = (d * d).sum(-1)
        return np.exp(-d2 / self.correlation_length_sq)


@dataclass
class KlExpansion:
    """Truncated KL expansion discretised at porous-side vertices."""

    mean_nodal: np.ndarray      # (n_nodes,) mean field at the nodes
    eigenvalues: np.ndarray     # (T,) retained, non-increasing, positive
    modes: np.ndarray           # (n_nodes, T) eigenfunction nodal values
    T: int
    energy_ratio: float         # rho_T of the retained truncation
    spectrum: np.ndarray        # full non-negative discrete spectrum
    nodes: np.ndarray           # (n_nodes, 2) vertex coordinates
    weights: np.ndarray         # (n_nodes,) lumped-mass quadrature weights

    @property
    def scaled_modes(self):
        """Columns sqrt(lambda_t) * r_t, ready to multiply coefficients."""
        return self.modes * np.sqrt(self.eigenvalues)


@dataclass
class SampleSet:
    """Monte Carlo coefficient draws Y_t^m for the KL expansion."""

    coefficients: np.ndarray    # (M, T)
    rejected_fields: int = 0    # draws discarded by the positivity guard

    @property
    def M(self):
        return self.coefficients.shape[0]

    @property
    def T(self):
        return self.coefficients.shape[1]


def nystrom_eigenpairs(cov, weights):
    """Eigenpairs of the weighted covariance operator.

    Solves the symmetrised problem W^(1/2) C W^(1/2) and maps the
    eigenvectors back to nodal eigenfunction values.  Returns
    (eigenvalues, nodal eigenfunctions) sorted by descending eigenvalue;
    eigenvalues are clipped at zero (roundoff can produce tiny negative
    values for a positive-definite kernel).
    """
    cov = np.asarray(cov, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if cov.shape[0] != cov.shape[1] or cov.shape[0] != weights.size:
        raise ValueError("covariance/weight dimensions do not match")
    if np.any(weights <= 0.0):
        raise ValueError("quadrature weights must be positive")
    sw = np.sqrt(weights)
    sym = cov * np.outer(sw, sw)
    sym = 0.5 * (sym + sym.T)
    lam, psi = np.linalg.eigh(sym)
    order = np.argsort(lam)[::-1]
    lam = np.clip(lam[order], 0.0, None)
    funcs = psi[:, order] / sw[:, None]
    return lam, funcs


def _lumped_weights(mesh):
    """Lumped linear-element mass weights at the porous-side vertices."""
    verts = mesh.darcy_vertices
    p = verts[mesh.tri3_darcy]                   # (nt, 3, 2)
    area = 0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )
    w = np.zeros(verts.shape[0])
    np.add.at(w, mesh.tri3_darcy, (area / 3.0)[:, None])
    return w


def build_kl(kernel, mesh, epsilon):
    """Build the truncated KL expansion on the porous side of ``mesh``.

    The mean conductivity is 1 at every node.

    Parameters
    ----------
    kernel : CovarianceKernel
    mesh : CoupledMesh
    epsilon : float
        Truncation tolerance in (0, 1); the expansion keeps the smallest
        T with cumulative energy ratio rho_T >= 1 - epsilon.

    Raises
    ------
    ValueError
        If epsilon is out of range or unreachable with the available
        discrete spectrum.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    nodes = mesh.darcy_vertices
    weights = _lumped_weights(mesh)
    lam, funcs = nystrom_eigenpairs(kernel(nodes, nodes), weights)

    total = lam.sum()
    if total <= 0.0:
        raise ValueError("covariance matrix has no positive spectrum")
    cum = np.cumsum(lam) / total
    # positive part of the spectrum is all that is available
    floor = 1e-14 * lam[0]
    n_pos = int(np.count_nonzero(lam > floor))
    if cum[n_pos - 1] < 1.0 - epsilon:
        raise ValueError(
            f"epsilon={epsilon:g} unreachable: achievable energy ratio is "
            f"{cum[n_pos - 1]:.12f} with {n_pos} positive eigenvalues"
        )
    T = int(np.searchsorted(cum, 1.0 - epsilon) + 1)

    return KlExpansion(
        mean_nodal=np.ones(nodes.shape[0]),
        eigenvalues=lam[:T].copy(),
        modes=funcs[:, :T].copy(),
        T=T,
        energy_ratio=float(cum[T - 1]),
        spectrum=lam,
        nodes=nodes,
        weights=weights,
    )


def _truncated_normal(rng, size):
    """Standard normal draws conditioned on [-3, 3] via rejection."""
    out = rng.standard_normal(size)
    bad = np.abs(out) > TRUNCATION_BOUND
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > TRUNCATION_BOUND
    return out


def draw_samples(kl, M, seed):
    """Draw M coefficient vectors for the KL expansion.

    Coefficients are i.i.d. standard normal conditioned on [-3, 3] (plain
    rejection, no variance renormalisation).  Any draw whose conductivity
    realization is non-positive somewhere on the porous rectangle is
    discarded and redrawn, keeping the strong ellipticity assumption
    intact; the number of discarded fields is recorded on the returned
    SampleSet.  Raises RuntimeError if non-positive fields remain after
    1000 rounds of redrawing.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    rng = np.random.default_rng(seed)
    coeffs = _truncated_normal(rng, (M, kl.T))
    rejected = 0
    scaled = kl.scaled_modes
    for _ in range(_POSITIVITY_ROUNDS):
        fields = kl.mean_nodal[:, None] + scaled @ coeffs.T
        bad = fields.min(axis=0) <= 0.0
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        rejected += n_bad
        coeffs[bad] = _truncated_normal(rng, (n_bad, kl.T))
    else:
        raise RuntimeError(
            f"positivity resampling did not settle after "
            f"{_POSITIVITY_ROUNDS} rounds; the mean field is likely too "
            "close to zero"
        )
    return SampleSet(coefficients=coeffs, rejected_fields=rejected)


def realize_conductivity(kl, coeffs):
    """Evaluate conductivity realizations at the porous-side nodes.

    ``coeffs`` is one coefficient vector of length T or a batch of shape
    (M, T).  Returns the pair (total field, perturbation part), each of
    shape (n_nodes,) or (M, n_nodes) accordingly; the total is the mean
    plus the perturbation.  Issues a warning if any realization is
    non-positive anywhere (strong ellipticity violated).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1:] != (kl.T,) or coeffs.ndim not in (1, 2):
        raise ValueError(f"expected {kl.T} coefficients, got {coeffs.shape}")
    tilde = coeffs @ kl.scaled_modes.T
    total = kl.mean_nodal + tilde
    if total.min() <= 0.0:
        warnings.warn(
            f"conductivity realization non-positive at {int((total <= 0).sum())}"
            " node(s); strong ellipticity is violated",
            RuntimeWarning,
            stacklevel=2,
        )
    return total, tilde
