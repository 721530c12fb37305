"""The package's public surface: what it exports and what it no longer has."""

import dataclasses
import importlib
import inspect
import subprocess
import sys

import sdlowrank

SUBMODULES = ("mesh", "quadrature", "randfield", "assembly", "glram",
              "lowrank_solver", "uq", "cli")
REMOVED = ("prolong", "cross_mesh_error", "write_coo", "save_samples",
           "load_samples", "pin_pressure_dof", "MomentAccumulator",
           "load_solutions", "InterfaceFrame", "interface_frame",
           "RunLedger")
# the whole parameter list of each function whose unset inputs were cut
# (volume sources, boundary data, the KL mean, the positivity switches)
PARAMETERS = {
    "assemble_mean": ("mesh", "params", "kl_mean", "delta_from"),
    "dirichlet_constraints": ("mesh",),
    "build_kl": ("kernel", "mesh", "epsilon"),
    "draw_samples": ("kl", "M", "seed"),
    "estimate_moments": ("solutions", "theta", "mesh", "reference_mean"),
    # rmsre reads the span that build_gram kept, not the family
    "rmsre": ("gram", "factors"),
    # perfbench/pipeline.py calls these two (positionally, and build_gram's
    # block_dim by keyword): cutting one of their parameters changes the
    # benchmark too
    "build_gram": ("A_tildes", "block_dim"),
    "factorize": ("gram", "A_tildes", "theta"),
    # the mean is the system's elimination of Abar onto the perturbation
    # support S (and b, and the pattern that gave S), which both solver
    # paths read: factor_mean returns it, so no second mean object is made
    "MeanFactorization": ("A_bar", "on_s", "b", "pattern"),
}


def test_public_surface():
    for name in sdlowrank.__all__:
        assert hasattr(sdlowrank, name), name
    # every submodule export is re-exported; the CLI's command functions
    # are reached through main
    for mod_name in SUBMODULES:
        module = importlib.import_module(f"sdlowrank.{mod_name}")
        for name in module.__all__:
            if mod_name == "cli" and name.startswith("cmd_"):
                continue
            assert name in sdlowrank.__all__, f"{mod_name}.{name}"
            assert getattr(sdlowrank, name) is getattr(module, name)
    for name in REMOVED:
        assert not hasattr(sdlowrank, name), name


def test_cut_inputs_stay_cut():
    for name, expected in PARAMETERS.items():
        params = tuple(inspect.signature(getattr(sdlowrank, name)).parameters)
        assert params == expected, name
    # the retained spectrum is gram.eigenvalues[:k]; no W_j = B_j^T U is
    # formed or held: the solver sums each A_m on the span's pattern, and
    # only the V generator transposes it
    fields = {f.name for f in dataclasses.fields(sdlowrank.GlramFactors)}
    assert "eigenvalues" not in fields
    assert "W" not in fields
    assert not hasattr(sdlowrank.GlramFactors, "transposed")
    # no solve of Abar alone: x_bar is solved once, and the direct path
    # solves Abar + A_m (solve_perturbed)
    assert not hasattr(sdlowrank.MeanFactorization, "solve")
    # a rule is its reference points and weights; the element maps live
    # with the assembler's geometry tables (and the tests' oracles)
    fields = tuple(f.name for f in dataclasses.fields(sdlowrank.QuadRule))
    assert fields == ("points", "weights")
    # main replaces and validates the config itself
    assert not hasattr(sdlowrank.RunConfig, "with_overrides")


def test_import_leaves_scipy_spatial_out():
    # the covariance kernel computes its distances with numpy; importing
    # scipy.spatial for them cost about 0.1 s of every process's start
    probe = "import sys, sdlowrank; print('scipy.spatial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_the_cli_out():
    # RunConfig, ConfigError and main import the CLI module on first use,
    # so a bare import of the package does not compile it
    probe = ("import sys, sdlowrank; print('sdlowrank.cli' in sys.modules); "
             "main = sdlowrank.main; import sdlowrank.cli; "
             "print(main is sdlowrank.cli.main)")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
