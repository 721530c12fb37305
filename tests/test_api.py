"""The package's public surface: what it exports and what it no longer has."""

import importlib

import sdlowrank

SUBMODULES = ("mesh", "quadrature", "randfield", "assembly", "glram",
              "lowrank_solver", "uq", "cli")
REMOVED = ("prolong", "cross_mesh_error", "write_coo", "save_samples",
           "load_samples", "pin_pressure_dof")


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
    assert not hasattr(sdlowrank.MomentAccumulator, "merge")
