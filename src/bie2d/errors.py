"""Exception types shared by the whole toolkit."""


class Bie2dError(Exception):
    """Base class for all toolkit errors."""


class InvalidGeometry(Bie2dError):
    """Curve data does not describe an admissible multiply connected domain."""


class LengthMismatch(Bie2dError):
    """A grid function does not align with its mesh, or points are not (2,) or (m, 2)."""


class OutOfRange(Bie2dError):
    """A component or region index, or a grid value, is outside the valid range."""


class NearBoundary(Bie2dError):
    """Evaluation point falls inside the near-boundary quadrature band."""


class SingularSystem(Bie2dError):
    """A solve failed its residual check, did not converge, or met a singular system."""


class NonFiniteResult(Bie2dError):
    """A computed result holds NaN or infinity."""


class InvalidProbe(Bie2dError):
    """A point is non-finite or off its field's region, or no probe fits the domain."""


class NoLimit(Bie2dError):
    """Exterior field grows logarithmically; no finite value at infinity."""


class ConfigError(Bie2dError):
    """Run configuration file or CLI arguments are inconsistent."""


class IncompatibleData(Bie2dError):
    """Neumann datum violates the per-component compatibility conditions."""

    def __init__(self, message, pairings=None):
        super().__init__(message)
        self.pairings = [] if pairings is None else list(pairings)


class ConditioningWarning(UserWarning):
    """Singular-value gap of a null-space computation is suspiciously small."""
