"""Exception types shared across the package.

Every failure mode that callers are expected to handle has its own class so
that scenario runners can map errors to exit codes and report names directly.
"""


class LambdaMBError(Exception):
    """Base class for all package-specific errors."""


class SpectralPole(LambdaMBError):
    """Evaluation requested at (or too close to) the lambda = Delta pole."""


class NotNormalized(LambdaMBError):
    """Pure state vector is too far from unit norm to renormalize silently."""


class DegenerateMapping(LambdaMBError):
    """Soliton-constant mapping is singular (eps0 <= Omega0)."""


class DegenerateConstants(LambdaMBError):
    """Constant combination leaves a scenario quantity undefined."""


class ParameterGuard(LambdaMBError):
    """Scenario parameters violate the regime the formula is valid in."""


class StepUnstable(LambdaMBError):
    """Density-matrix eigenvalue left the admissible band during integration."""


class BoundaryMismatch(LambdaMBError):
    """Input slice is inconsistent with the configured tau boundary rule."""


class GridMismatch(LambdaMBError):
    """Two solution grids do not share the same lattice."""


class ParseError(LambdaMBError):
    """Config text could not be parsed; carries line/column information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column else "") + f": {message}"
        super().__init__(message)
