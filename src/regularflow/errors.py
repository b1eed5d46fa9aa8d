"""Exception hierarchy shared by every regularflow component."""

from __future__ import annotations


class RegularFlowError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(RegularFlowError):
    """A constructor or operation argument violates a documented constraint.

    The message names the violated constraint, e.g. "f1 must be positive".
    """


class DimensionMismatch(RegularFlowError):
    """Domain, force and initial-data dimensions disagree."""


class NotMonotone(RegularFlowError):
    """A curve required to be strictly monotone is not (blow-up builder)."""


class ExpressionError(RegularFlowError):
    """Syntax or evaluation error in a scenario expression string."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class EvaluationError(RegularFlowError):
    """A scenario expression has no real value at a scalar argument:
    division by zero, overflow, or a fractional power of a negative number.

    ``text`` is the expression, ``argument`` the point it was called at.
    """

    def __init__(self, message, text=None, argument=None):
        super().__init__(message)
        self.text = text
        self.argument = argument


class ScenarioFormatError(RegularFlowError):
    """A scenario file is malformed (bad JSON, unknown keys, wrong types)."""


class QuadratureFailure(RegularFlowError):
    """An adaptive integral did not reach the requested tolerance."""


class TurningPoint(RegularFlowError):
    """The kinetic term 2(H0(x) - U(z)) vanishes strictly inside (x, y).

    The particle turns around before reaching y, so the flight time to y
    is undefined.  ``bracket`` localizes the first sign change.
    """

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class SingularBoundary(RegularFlowError):
    """A derivative route that needs v(x) > 0 was called with v(x) = 0."""


class HypothesisViolated(RegularFlowError):
    """A checker's standing hypotheses fail on the supplied scenario.

    ``criterion`` is the checker id, ``witness`` the sample point where the
    hypothesis fails (delegated from the assumptions report).
    """

    def __init__(self, message, criterion=None, witness=None):
        super().__init__(message)
        self.criterion = criterion
        self.witness = witness


class StepFailure(RegularFlowError):
    """The adaptive integrator could not keep the local error budget."""


class NeverReaches(RegularFlowError):
    """A piecewise trajectory never reaches the requested boundary."""


class OriginApproach(RegularFlowError):
    """A central-field trajectory came too close to the origin, where the
    effective potential is singular."""


class OutOfImage(RegularFlowError):
    """Requested point y lies outside the image of the flow at time t."""


class NotRegular(RegularFlowError):
    """Field reconstruction was requested at or past the first collision."""


class InternalInconsistency(RegularFlowError):
    """Two exact criteria disagreed on the same scenario; indicates a bug."""
