"""lamelab: a desk-scale numerical laboratory for the parabolic elastic system
rho(x) du/dt = (mu Lap + (lam + mu) grad div) u with rough bounded density.

Subpackages by concern: grids and spectral calculus (grid), constant-
coefficient operators and semigroups (operators), Littlewood-Paley/Besov
machinery (besov), the rough-coefficient stepper and its dense oracle
(varcoef), kernel extraction and pointwise-bound fits (kernels),
maximal-regularity diagnostics (maxreg), and the Lagrangian small-data
solver with Eulerian cross-checks (lagrangian).
"""

__version__ = "0.1.0"

from .grid import Grid
from .operators import LameParams
from .besov import BesovIndex, DyadicPartition
from .varcoef import Coefficient, StepperConfig
from .lagrangian import LagrangianState, PicardConfig

__all__ = [
    "Grid",
    "LameParams",
    "BesovIndex",
    "DyadicPartition",
    "Coefficient",
    "StepperConfig",
    "LagrangianState",
    "PicardConfig",
    "__version__",
]
