"""Synthesis and verification of linear quantum stochastic system
transfer-function realizations."""

from .dusvd import bogoliubov_svd, symplectic_svd
from .errors import (
    DegeneracyError,
    LqssError,
    NumericalError,
    ParameterError,
    PoleError,
    StructureError,
    UnitEigenvalueError,
    UnsupportedStructureError,
    ValidationError,
)
from .general import synthesize, synthesize_general
from .netlist import bloch_messiah, reck_decompose, schedule_static, takagi
from .passive import synthesize_passive
from .spectral import check_degeneracy, j_gram, krein_spectrum
from .statespace import Model, verify_realization

__all__ = [
    "Model",
    "bogoliubov_svd",
    "bloch_messiah",
    "check_degeneracy",
    "j_gram",
    "krein_spectrum",
    "reck_decompose",
    "schedule_static",
    "symplectic_svd",
    "synthesize",
    "synthesize_general",
    "synthesize_passive",
    "takagi",
    "verify_realization",
    "DegeneracyError",
    "LqssError",
    "NumericalError",
    "ParameterError",
    "PoleError",
    "StructureError",
    "UnitEigenvalueError",
    "UnsupportedStructureError",
    "ValidationError",
]

__version__ = "0.1.0"
