"""Exception hierarchy shared by all toolkit modules.

The CLI maps these onto stable exit codes: validation problems exit with 2,
unsupported matrix structure with 3, and numerical failures with 4.
"""


class LqssError(Exception):
    """Base class for all toolkit errors."""


class StructureError(LqssError):
    """Input violates a structural precondition (shape, symmetry, unitarity...)."""


class ParameterError(LqssError):
    """Invalid user-supplied parameter (e.g. non-positive coupling)."""


class ValidationError(StructureError):
    """A file or schema failed validation; carries a human-readable location."""


class UnsupportedStructureError(LqssError):
    """Mathematically valid input outside the supported class (Jordan blocks
    larger than 2, J-degenerate coupling without the special property)."""


class DegeneracyError(UnsupportedStructureError):
    """J-degenerate coupling matrix whose degenerate image admits no
    J-orthonormal basis (P P-flat != 0)."""


class NumericalError(LqssError):
    """A numerically ill-posed step (singular solve, blown-up conditioning)."""


class PoleError(NumericalError):
    """Transfer function evaluated at (numerically) a pole."""

    def __init__(self, s, message=None):
        self.s = s
        super().__init__(message or f"transfer function has a pole at s = {s}")


class UnitEigenvalueError(NumericalError):
    """Cayley transform of a matrix with an eigenvalue at +1."""

    def __init__(self, eigenvalue):
        self.eigenvalue = eigenvalue
        super().__init__(f"matrix has a unit eigenvalue {eigenvalue}; "
                         "Cayley transform undefined")
