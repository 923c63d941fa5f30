"""Coupled elasto-acoustic wave propagation on general polygonal meshes.

Hybrid high-order space discretization (cell + face polynomial unknowns with
local gradient reconstruction and boundary stabilization) with explicit and
singly diagonal implicit Runge-Kutta time integration, both statically
condensed: faces are eliminated once at set-up into a fixed cell operator
for the explicit schemes (one sparse product per stage), cells per implicit
stage.
"""

from .mesh import (FLUID, SOLID, MeshError, MeshGenSpec, PolyMesh,
                   generate, load_text, dump_text, merge_nonconforming, read_msh)
from .materials import FluidMaterial, MaterialMap, SolidMaterial
from .hho import (BlockSystem, ConfigError, DofLayout, StabilizationConfig,
                  assemble, face_dof_fraction)
from .timestep import (ButcherTableau, CondensedFactorization, ExplicitStepper,
                       ImplicitStepper, InstabilityError, SolverError,
                       run_time_loop, tableau)
from .scenarios import (CflBracketConfig, CflEstimate, ManufacturedCase, RickerConfig,
                        SensorSpec, builtin_materials, cfl_bracket, coupling_errors,
                        energy, l2_error_dual, sensor_error)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
