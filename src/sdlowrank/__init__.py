"""Monte Carlo finite elements for a coupled free-flow/porous-media system
with random hydraulic conductivity, accelerated by a shared-factor low-rank
compression of the per-sample stiffness perturbations and Woodbury updates
of a single mean-matrix factorization.
"""

from .mesh import (
    Geometry,
    CoupledMesh,
    build_mesh,
    TAG_INTERIOR_P,
    TAG_GAMMA_P,
    TAG_GAMMA_I,
    TAG_INTERIOR_F,
    TAG_GAMMA_F_WALL,
    TAG_GAMMA_F_BOTTOM,
)
from .quadrature import QuadRule, triangle_rule_7pt, edge_rule_3pt
from .randfield import (
    CovarianceKernel,
    KlExpansion,
    SampleSet,
    TRUNCATION_BOUND,
    nystrom_eigenpairs,
    build_kl,
    draw_samples,
    realize_conductivity,
)
from .assembly import (
    PhysicalParams,
    SplitSystem,
    PerturbationAssembler,
    bj_delta,
    assemble_mean,
    assemble_family,
    dirichlet_constraints,
    apply_dirichlet,
    p2_stiffness,
    p2_mass,
    p1_pressure_mass,
)
from .glram import (
    GramMatrix,
    GlramFactors,
    EigensolverError,
    NonFiniteFamilyError,
    build_gram,
    factorize,
    rmsre,
    rmsre_closed_form,
    energy_ratio,
    select_theta,
    numerical_rank,
    write_report,
)
from .lowrank_solver import (
    MeanFactorization,
    SampleSolution,
    SingularSystemError,
    IllConditionedUpdateError,
    factor_mean,
    solve_sample_smw,
    solve_sample_direct,
    save_solutions,
)
from .uq import (
    MomentEstimate,
    XNormWeights,
    build_xnorm_weights,
    estimate_moments,
    xnorm,
    xnorm_components,
    loglog_slope,
    write_moments,
)
from .cli import RunConfig, ConfigError, main

__version__ = "0.1.0"

__all__ = [
    "Geometry", "CoupledMesh", "build_mesh",
    "TAG_INTERIOR_P", "TAG_GAMMA_P", "TAG_GAMMA_I", "TAG_INTERIOR_F",
    "TAG_GAMMA_F_WALL", "TAG_GAMMA_F_BOTTOM",
    "QuadRule", "triangle_rule_7pt", "edge_rule_3pt",
    "CovarianceKernel", "KlExpansion", "SampleSet", "TRUNCATION_BOUND",
    "nystrom_eigenpairs", "build_kl",
    "draw_samples", "realize_conductivity",
    "PhysicalParams", "SplitSystem", "PerturbationAssembler", "bj_delta",
    "assemble_mean", "assemble_family", "dirichlet_constraints",
    "apply_dirichlet", "p2_stiffness", "p2_mass", "p1_pressure_mass",
    "GramMatrix", "GlramFactors", "EigensolverError", "NonFiniteFamilyError",
    "build_gram", "factorize", "rmsre", "rmsre_closed_form", "energy_ratio",
    "select_theta", "numerical_rank", "write_report",
    "MeanFactorization", "SampleSolution", "SingularSystemError",
    "IllConditionedUpdateError", "factor_mean",
    "solve_sample_smw", "solve_sample_direct", "save_solutions",
    "MomentEstimate", "XNormWeights", "build_xnorm_weights",
    "estimate_moments", "xnorm", "xnorm_components", "loglog_slope",
    "write_moments",
    "RunConfig", "ConfigError", "main",
    "__version__",
]
