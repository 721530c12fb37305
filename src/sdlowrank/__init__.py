"""Monte Carlo finite elements for a coupled free-flow/porous-media system
with random hydraulic conductivity, accelerated by a shared-factor low-rank
compression of the per-sample stiffness perturbations and Woodbury updates
of a single mean-matrix factorization.
"""

from . import (assembly, glram, lowrank_solver, mesh, quadrature, randfield,
               uq)
from .mesh import *             # noqa: F401,F403 (each module's __all__)
from .quadrature import *       # noqa: F401,F403
from .randfield import *        # noqa: F401,F403
from .assembly import *         # noqa: F401,F403
from .glram import *            # noqa: F401,F403
from .lowrank_solver import *   # noqa: F401,F403
from .uq import *               # noqa: F401,F403

__version__ = "0.1.0"

# reached through the CLI module, which is imported on first use
_CLI = ("RunConfig", "ConfigError", "main")


def __getattr__(name):
    if name in _CLI:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# every submodule's exports; the CLI's command functions are reached
# through main
__all__ = [name for module in (mesh, quadrature, randfield, assembly, glram,
                               lowrank_solver, uq)
           for name in module.__all__] + [*_CLI, "__version__"]
