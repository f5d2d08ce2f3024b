"""Exception types shared across the toolkit.

The hierarchy mirrors how failures are reported at the command line:
input documents that cannot be parsed, mathematical preconditions that
the input fails to meet, and internal identities that should never
break (if one does, that is a bug in the toolkit, not in the input).
"""


class ShiftOptError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(ShiftOptError):
    """Arguments are structurally wrong: alphabet mismatch, symbol out of
    range, depth mismatch between a potential and the requested graph."""


class PotentialParseError(ShiftOptError):
    """A potential document is malformed: missing cylinders, duplicate
    keys, or literals that are not exact rationals."""


class PreconditionError(ShiftOptError):
    """The input is well-formed but does not satisfy a mathematical
    precondition of the requested analysis (e.g. the maximizing measure
    is not unique, or marginal supports have different sizes)."""


class UnsupportedInputError(PreconditionError):
    """The requested analysis is only implemented for a restricted class
    of inputs (e.g. twist certification needs a two-letter alphabet)."""


class InvariantViolation(ShiftOptError):
    """An identity that is supposed to hold exactly failed.  Reaching
    this is always a toolkit bug; it is raised instead of returning
    silently wrong numbers."""
