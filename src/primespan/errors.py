"""Exception types shared across the package."""


class PrimespanError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(PrimespanError):
    """A requested computation would exceed the configured memory budget."""


class CeilingAmbiguityError(PrimespanError):
    """A ceiling argument landed too close to an integer to round safely."""


class ThresholdError(PrimespanError):
    """A claim was evaluated below the range where it is defined."""


__all__ = ["PrimespanError", "CapacityError", "CeilingAmbiguityError", "ThresholdError"]
