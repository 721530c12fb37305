"""Session fixtures shared across the test modules.

The expensive objects (meshes, assembled systems, Gram factorizations)
are built once per session at the small desk-scale resolution n=8 with
a fixed seed, so the whole suite stays fast while every module still
exercises the real coupled problem.
"""

import numpy as np
import pytest

from sdlowrank import (
    CovarianceKernel,
    PerturbationAssembler,
    PhysicalParams,
    SplitSystem,
    apply_dirichlet,
    assemble_mean,
    build_gram,
    build_kl,
    build_mesh,
    build_xnorm_weights,
    dirichlet_constraints,
    draw_samples,
    numerical_rank,
    realize_conductivity,
)


SEED = 1234


@pytest.fixture(scope="session")
def mesh8():
    return build_mesh(n=8)


@pytest.fixture(scope="session")
def params():
    return PhysicalParams()


@pytest.fixture(scope="session")
def kl8(mesh8):
    return build_kl(CovarianceKernel(correlation_length_sq=0.2), mesh8,
                    epsilon=0.01)


@pytest.fixture(scope="session")
def problem20(mesh8, params, kl8):
    """n=8 coupled system with M=20 conductivity samples, constrained.

    Returns a dict with the unconstrained and constrained systems, the
    sample set, and the nodal perturbation fields used to build them.
    """
    samples = draw_samples(kl8, M=20, seed=SEED)
    _, tildes_nodal = realize_conductivity(kl8, samples.coefficients)

    a_bar, b = assemble_mean(mesh8, params, kl8.mean_nodal)
    asm = PerturbationAssembler(mesh8, params, kbar=kl8.mean_nodal)
    a_tildes = [asm.assemble(t) for t in tildes_nodal]
    raw = SplitSystem(A_bar=a_bar, b=b, A_tildes=a_tildes,
                      N1=mesh8.N1, N2=mesh8.N2, N3=mesh8.N3)
    constraints = dirichlet_constraints(mesh8)
    system = apply_dirichlet(raw, constraints)
    return {
        "mesh": mesh8,
        "params": params,
        "kl": kl8,
        "samples": samples,
        "tildes_nodal": tildes_nodal,
        "system": system,
        "raw": raw,
        "constraints": constraints,
    }


@pytest.fixture(scope="session")
def raw200(mesh8, params, kl8):
    """An unconstrained n=8 system with M=200 perturbations on the
    assembler's one pattern, and the model's constraints."""
    samples = draw_samples(kl8, M=200, seed=SEED)
    _, tildes_nodal = realize_conductivity(kl8, samples.coefficients)
    a_bar, b = assemble_mean(mesh8, params, kl8.mean_nodal)
    asm = PerturbationAssembler(mesh8, params, kbar=kl8.mean_nodal)
    raw = SplitSystem(A_bar=a_bar, b=b,
                      A_tildes=[asm.assemble(t) for t in tildes_nodal],
                      N1=mesh8.N1, N2=mesh8.N2, N3=mesh8.N3)
    return raw, dirichlet_constraints(mesh8)


@pytest.fixture(scope="session")
def gram20(problem20):
    system = problem20["system"]
    return build_gram(system.A_tildes, block_dim=system.n_flow)


@pytest.fixture(scope="session")
def rank20(gram20):
    return numerical_rank(gram20)


@pytest.fixture(scope="session")
def weights8(mesh8):
    return build_xnorm_weights(mesh8)


# --- acceptance reporting ---------------------------------------------------
# test_acceptance appends one "[PASS]/[FAIL] criterion NN ..." line per
# criterion; echoing them after the run keeps the gate readable even though
# pytest captures stdout of passing tests.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
