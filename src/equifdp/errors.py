"""Exception types shared across the package."""

__all__ = ["EquifdpError", "ParameterError", "BracketingError", "FixedPointUnderflowError",
           "DegenerateCrossingError", "RegimeError"]


class EquifdpError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(EquifdpError, ValueError):
    """Invalid model, procedure, or experiment parameters."""


class BracketingError(EquifdpError, RuntimeError):
    """Root search failed to bracket or verify a unique crossing."""


class FixedPointUnderflowError(BracketingError):
    """The BH fixed point t* lies below double range, so it cannot be bracketed."""


class DegenerateCrossingError(EquifdpError, RuntimeError):
    """Threshold functional crosses tangentially; its derivative does not exist."""


class RegimeError(EquifdpError, ValueError):
    """No normal limit exists for the requested correlation regime."""
