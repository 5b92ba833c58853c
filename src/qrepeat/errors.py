"""Exception types shared across the package."""

from __future__ import annotations


class QRepeatError(Exception):
    """Base class for every package-specific error."""


class PeriodCapExceeded(QRepeatError):
    """A periodic structure grew past the configured cap.

    Raised by index-set algebra when an lcm of periods explodes, and by
    operator comparisons when the lcm of the row strides on one line of
    parallel progressions does.
    """


class CompletenessViolation(QRepeatError):
    """The measurement operators do not resolve the identity."""

    def __init__(self, message: str, position=None, deviation: float | None = None):
        super().__init__(message)
        self.position = position
        self.deviation = deviation


class ContractionViolation(QRepeatError):
    """A measurement operator has norm above one."""

    def __init__(self, message: str, outcome=None, norm: float | None = None):
        super().__init__(message)
        self.outcome = outcome
        self.norm = norm


class BadProbabilityVector(QRepeatError):
    """Probability parameters are negative, out of range, or do not sum to one."""


class CoverageViolation(QRepeatError):
    """Index sets fail to partition the basis (overlap or missing indices)."""


class UnsupportedForm(QRepeatError):
    """The operator or POVM lies outside the structural class an operation handles."""


class InvalidPovm(QRepeatError):
    """Effects are not positive or do not sum to the identity."""


class SplitInvariantViolation(QRepeatError):
    """The shift/deposit split failed verification; the input is not repeatable."""

    def __init__(self, message: str, condition: str | None = None, deviation: float | None = None):
        super().__init__(message)
        self.condition = condition
        self.deviation = deviation


class NotIsometricOnSupport(QRepeatError):
    """The operator is not a basis-aligned partial isometry into its own support."""


class DegenerateState(QRepeatError):
    """Every outcome has vanishing probability on the given state."""


class WindowInvalid(QRepeatError):
    """A truncation window cannot represent the operator faithfully."""


class PartsViolation(QRepeatError):
    """A condition on shift/deposit building blocks failed.

    ``condition`` names the failed check; ``deviation`` and ``position``
    locate the witness entry when one exists.
    """

    def __init__(self, message: str, condition: str, position=None, deviation: float | None = None):
        super().__init__(message)
        self.condition = condition
        self.position = position
        self.deviation = deviation
