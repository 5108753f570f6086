"""Exception types shared across the package.

Grouped here because they cross module boundaries: a pricer raises
them, and the CLI writes one's name as a row's status or maps it to an
exit code.
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
    """Names the status of an adaptive run past its evaluation budget.

    Nothing raises it: the run returns its state with ``status ==
    "BudgetExhausted"``, as one at the rule-order cap returns
    ``"saturated"``.
    """


class OutOfDomain(SmoothQuadError):
    """A scalar argument lies outside the function's domain."""


class OmegaUndefined(SmoothQuadError):
    """The variance-gamma martingale correction does not exist."""


class ConfigInvalid(SmoothQuadError):
    """An experiment configuration failed validation."""
