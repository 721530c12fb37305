"""The paper's Monte Carlo pipeline, called through the package's public
functions in the order ``sdlowrank.cli.cmd_theta_sweep`` calls them.

``setup`` builds the constrained ``SplitSystem`` that both solver paths
share.  ``solve`` then runs the Gram build, the direct path, and the
rest of the low-rank path, checks every low-rank sample against the
direct solution of the same sample, and returns the measurements of one
run.  Each call into the package sits in a layer span of the tracer;
the phases ``setup``, ``lowrank`` and ``direct`` are the end-to-end
timers.
"""

import math
import os
import platform
import resource
import statistics

import numpy as np
import scipy
import scipy.sparse.linalg as spla

import sdlowrank as sd
from tracing import coverage, durations, total

ELL2 = 0.2                  # squared correlation length of the covariance
EPSILON = 0.01              # truncation tolerance of the random field
ENERGY_TARGET = 1.0 - 1e-9  # the CLI's default for an energy-selected theta

# A low-rank sample fails when it is further than this from the direct
# solution of the same sample, relative to the direct solution's norm.
# The package reaches about 6e-13 at n=16 and 2e-13 at n=8.
REL_TOL = 1e-10
# A direct sample fails when ||(A_bar + A_tilde_m) x - b|| exceeds this
# share of (||A_bar||_F + ||A_tilde_m||_F) ||x|| + ||b||, the form of the
# bound factor_mean applies to the mean solve.
RESIDUAL_TOL = 1e-10


def setup(spec, seed, tracer):
    """Mesh, random field, samples and the constrained split system."""
    n, M = spec["n"], spec["M"]
    with tracer.span("mesh.build_mesh"):
        mesh = sd.build_mesh(n=n)
    with tracer.span("randfield.build_kl"):
        kernel = sd.CovarianceKernel(correlation_length_sq=ELL2)
        kl = sd.build_kl(kernel, mesh, EPSILON)
    with tracer.span("randfield.draw_samples"):
        samples = sd.draw_samples(kl, M, seed)
    with tracer.span("randfield.realize_conductivity"):
        _, tildes = sd.realize_conductivity(kl, samples.coefficients)
    params = sd.PhysicalParams()
    with tracer.span("assembly.assemble_mean"):
        a_bar, b = sd.assemble_mean(mesh, params, kl.mean_nodal)
    with tracer.span("assembly.PerturbationAssembler"):
        assembler = sd.PerturbationAssembler(mesh, params,
                                             kbar=kl.mean_nodal)
    a_tildes = []
    for t in tildes:
        with tracer.span("assembly.perturbation"):
            a_tildes.append(assembler.assemble(t))
    with tracer.span("assembly.apply_dirichlet"):
        system = sd.apply_dirichlet(
            sd.SplitSystem(A_bar=a_bar, b=b, A_tildes=a_tildes,
                           N1=mesh.N1, N2=mesh.N2, N3=mesh.N3),
            sd.dirichlet_constraints(mesh),
        )
    return {"mesh": mesh, "kl": kl, "samples": samples, "system": system}


def _solve_each(tracer, name, solve, M):
    """Solve samples 0..M-1 one after another; None marks a failure."""
    out = []
    for m in range(M):
        with tracer.span(name):
            try:
                out.append(solve(m))
            except (sd.IllConditionedUpdateError,
                    sd.SingularSystemError):
                out.append(None)
    return out


def _moments(solutions, theta, mesh):
    ok = [s for s in solutions if s is not None]
    return sd.estimate_moments(ok, theta=theta, mesh=mesh) if ok else None


def solve(state, spec, tracer):
    """Both solver paths on the shared system, then the checks."""
    mesh, system = state["mesh"], state["system"]
    M = spec["M"]
    with tracer.span("uq.build_xnorm_weights"):
        weights = sd.build_xnorm_weights(mesh)

    with tracer.phase("lowrank"):
        with tracer.span("glram.build_gram"):
            gram = sd.build_gram(system.A_tildes,
                                 block_dim=mesh.N1 + 2 * mesh.N2)

    with tracer.phase("direct"):
        direct = _solve_each(
            tracer, "lowrank_solver.solve_sample_direct",
            lambda m: sd.solve_sample_direct(system, m), M)
        with tracer.span("uq.estimate_moments"):
            ref = _moments(direct, 1.0, mesh)

    with tracer.phase("lowrank"):
        with tracer.span("lowrank_solver.factor_mean"):
            mean = sd.factor_mean(system)
        with tracer.span("glram.eigenpairs"):
            gram.eigenpairs()
        with tracer.span("glram.factorize"):
            theta = spec["theta"]
            if theta == "select":
                theta, _ = sd.select_theta(gram, ENERGY_TARGET)
            factors = sd.factorize(gram, system.A_tildes, theta)
        lowrank = _solve_each(
            tracer, "lowrank_solver.solve_sample_smw",
            lambda m: sd.solve_sample_smw(mean, factors, m), M)
        with tracer.span("uq.estimate_moments"):
            moments = _moments(lowrank, factors.theta_effective, mesh)

    with tracer.phase("check"):
        return _check(state, gram, factors, direct, lowrank, ref, moments,
                      weights)


def _check(state, gram, factors, direct, lowrank, ref, moments, weights):
    """Correctness checks, accuracy, counts and computed memory."""
    system = state["system"]
    a_norm = spla.norm(system.A_bar)
    b_norm = np.linalg.norm(system.b)

    direct_failed = 0
    for m, d in enumerate(direct):
        if d is None:
            direct_failed += 1
            continue
        x_norm = np.linalg.norm(d.x)
        a_m = system.A_tildes[m]
        resid = np.linalg.norm(system.A_bar @ d.x + a_m @ d.x - system.b)
        bound = RESIDUAL_TOL * ((a_norm + spla.norm(a_m)) * x_norm + b_norm)
        if not resid <= bound:
            direct_failed += 1

    smw_failed = 0
    rel_errs = []
    for s, d in zip(lowrank, direct):
        if s is None or d is None:
            smw_failed += 1
            continue
        err = np.linalg.norm(s.x - d.x) / np.linalg.norm(d.x)
        rel_errs.append(err)
        if not err <= REL_TOL:
            smw_failed += 1

    if ref is not None and moments is not None:
        errs = sd.xnorm_components(moments.mean - ref.mean, weights)
    else:
        errs = (math.nan,) * 3
    conds = [s.capacitance_cond for s in lowrank if s is not None]
    M = len(direct)
    correct = (direct_failed == 0 and smw_failed == 0
               and all(math.isfinite(e) for e in errs))
    a_tilde_bytes = sum(a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
                        for a in system.A_tildes)
    return {
        "attempted": 2 * M,
        "failed": direct_failed + smw_failed,
        "correct": correct,
        "counts": {
            "randfield.T": state["kl"].T,
            "randfield.rejected_fields": state["samples"].rejected_fields,
            "glram.k": factors.k,
            "glram.rank": sd.numerical_rank(gram),
            "glram.rmsre_formula": factors.rmsre,
            "lowrank_solver.smw_failed": smw_failed,
            "lowrank_solver.direct_failed": direct_failed,
            "lowrank_solver.cond.p50": (statistics.median(conds)
                                        if conds else math.nan),
            "lowrank_solver.cond.max": max(conds, default=math.nan),
            "lowrank_solver.max_rel_err": max(rel_errs, default=math.nan),
            "uq.err_total": errs[0],
            "uq.err_darcy": errs[1],
            "uq.err_stokes": errs[2],
        },
        "memory": {
            "glram.U_bytes": factors.U.nbytes,
            "glram.V_bytes": sum(v.nbytes for v in factors.V),
            "glram.gram_bytes": gram.block.nbytes,
            "assembly.perturbation_bytes": a_tilde_bytes,
        },
    }


def _p(values, q):
    """Percentile q in (0, 100) by linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans):
    """Per-layer seconds and milliseconds read from one traced run."""
    pert = durations(spans, "assembly.perturbation")
    smw = durations(spans, "lowrank_solver.solve_sample_smw")
    direct = durations(spans, "lowrank_solver.solve_sample_direct")
    rest = smw[1:] or smw
    return {
        "mesh.build_s": total(spans, "mesh.build_mesh"),
        "randfield.build_kl_s": total(spans, "randfield.build_kl"),
        "randfield.draw_s": total(spans, "randfield.draw_samples",
                                  "randfield.realize_conductivity"),
        "assembly.mean_s": total(spans, "assembly.assemble_mean"),
        "assembly.perturbation_s": total(
            spans, "assembly.PerturbationAssembler", "assembly.perturbation"),
        "assembly.perturbation_ms.p50": 1e3 * _p(pert, 50),
        "assembly.perturbation_ms.p90": 1e3 * _p(pert, 90),
        "assembly.dirichlet_s": total(spans, "assembly.apply_dirichlet"),
        "glram.gram_s": total(spans, "glram.build_gram"),
        "glram.eig_s": total(spans, "glram.eigenpairs"),
        "glram.factorize_s": total(spans, "glram.factorize"),
        "lowrank_solver.factor_mean_s": total(
            spans, "lowrank_solver.factor_mean"),
        "lowrank_solver.smw_first_ms": 1e3 * smw[0],
        "lowrank_solver.smw_ms.p50": 1e3 * _p(rest, 50),
        "lowrank_solver.smw_ms.p90": 1e3 * _p(rest, 90),
        "lowrank_solver.direct_ms.p50": 1e3 * _p(direct, 50),
        "lowrank_solver.direct_ms.p90": 1e3 * _p(direct, 90),
        "uq.moments_s": total(spans, "uq.estimate_moments"),
        "trace.coverage.setup": coverage(spans, "setup"),
        "trace.coverage.lowrank": coverage(spans, "lowrank"),
        "trace.coverage.direct": coverage(spans, "direct"),
    }


def environment():
    """Library versions and the BLAS build numpy reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb():
    """ru_maxrss of this process; Linux reports it in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
