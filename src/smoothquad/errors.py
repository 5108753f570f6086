"""Exception types shared across the package.

Grouped here because several of them cross module boundaries (the
quadrature driver raises :class:`BudgetExhausted`, the CLI maps it to an
exit code, and so on).
"""


class SmoothQuadError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(SmoothQuadError):
    """A matrix expected to be symmetric positive definite is not."""


class ZeroVector(SmoothQuadError):
    """A direction vector is identically zero."""


class DimensionTooLarge(SmoothQuadError):
    """The requested dimension exceeds a documented guard."""


class OrderOutOfRange(SmoothQuadError):
    """A quadrature order or level is outside the supported range."""


class AlphaOutOfRange(SmoothQuadError):
    """Generalized-Laguerre exponent must satisfy alpha > -1."""


class NonFiniteIntegrand(SmoothQuadError):
    """An integrand returned NaN or infinity.

    The offending node is attached as the ``node`` attribute.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class BudgetExhausted(SmoothQuadError):
    """The adaptive driver ran out of evaluation budget.

    Carries the partial ``state`` so callers can inspect or report it.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class OutOfDomain(SmoothQuadError):
    """A scalar argument lies outside the function's domain."""


class OmegaUndefined(SmoothQuadError):
    """The variance-gamma martingale correction does not exist."""


class ConfigInvalid(SmoothQuadError):
    """An experiment configuration failed validation."""
