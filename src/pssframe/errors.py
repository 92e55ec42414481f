"""Exception types shared across the package."""

import math


class PssframeError(Exception):
    """Base class for package errors."""


class StructureGateError(PssframeError):
    """Input frame data failed the structure-equation gate."""

    def __init__(self, res1, res2, threshold):
        self.res1 = res1
        self.res2 = res2
        self.threshold = threshold
        message = "structure residuals (%.3e, %.3e) exceed gate %.3e" % (
            res1,
            res2,
            threshold,
        )
        if not math.isfinite(threshold):
            message += " (the frame data holds a non-finite coefficient)"
        super().__init__(message)


class OrthogonalityError(PssframeError, ValueError):
    """A matrix field that must be orthogonal is not, within its tolerance."""


class DegenerateFrameError(PssframeError):
    """Frame coefficient matrix is singular where a caller needs it inverted."""


class EvolutionError(PssframeError):
    """Time integration failed (blow-up or step-bound violation)."""


class ConfigError(PssframeError):
    """Run configuration is missing keys or has malformed values."""
