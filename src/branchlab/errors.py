"""Exception types shared across the lab."""


class BranchLabError(Exception):
    """Base class for branchlab errors."""


class DimensionMismatchError(BranchLabError, ValueError):
    """Operands live in different ambient or value dimensions."""


class DomainError(BranchLabError):
    """A sampled field was read at a point past the grid that holds its data."""


class DegenerateHeightError(BranchLabError):
    """Boundary height integral H fell below the floor at some radius."""

    def __init__(self, radius, value, floor):
        super().__init__(f"H({radius}) = {value} below floor {floor}")
        self.radius = radius
        self.value = value
        self.floor = floor


class PairingError(BranchLabError):
    """Pairing propagation failed (inconsistent holonomy around a loop)."""

    def __init__(self, message, loop=None):
        super().__init__(message)
        self.loop = loop


class FitError(BranchLabError):
    """Least-squares or Gauss-Newton profile fit failed."""


class SolverError(BranchLabError):
    """Linear solve did not reach the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BoundaryLiftError(BranchLabError):
    """Boundary data admits no continuous lift of the requested parity."""


class ConfigError(BranchLabError):
    """Experiment configuration is invalid."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
