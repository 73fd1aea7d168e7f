"""Exception hierarchy.

Every error raised by the package derives from :class:`EthlabError` so callers
(and the CLI exit-code mapping) can distinguish our failures from genuine bugs.
"""

import numpy as np


class EthlabError(Exception):
    """Base class for all package errors."""


class ValidationError(EthlabError):
    """Invalid user input: parameters, configuration files, malformed values."""


def _positive(**values) -> None:
    # The one width rule: each value, a scalar or an array, is finite and > 0.
    for name, value in values.items():
        if not np.all((np.asarray(value, dtype=float) > 0) & np.isfinite(value)):
            raise ValidationError(f"{name} must be finite and positive, got {value}")


class DimensionError(ValidationError):
    """Array arguments with incompatible or unsupported shapes."""


class ZeroWidthSpectrumError(EthlabError):
    """A spectrum with zero spread where a density of states was requested."""


class QuadratureError(EthlabError):
    """Adaptive quadrature failed to converge.

    Carries the array of best available estimates, one per integral, so
    callers can inspect how far the integrator got before giving up.
    """

    def __init__(self, message: str, best_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate


class OutOfSupportError(EthlabError):
    """An energy argument fell outside the support of a required density."""


class DegenerateWindowError(EthlabError):
    """A microcanonical window contains no basis states (normalization is zero)."""


class EmptyWindowError(EthlabError):
    """An energy window selects no eigenstates."""


class InsufficientDataError(EthlabError):
    """Not enough binned data to run the requested analysis."""


class CacheMissError(EthlabError):
    """Cache policy forbids recomputation and no valid cache entry exists."""
