"""Exception types shared across the package.

Everything raised on purpose derives from RosaError so callers can catch one
base class at the CLI boundary and map it to an exit code.
"""

from __future__ import annotations


def _rebuild(cls, args: tuple, fields: dict) -> "RosaError":
    """Unpickle a RosaError: restore its args and fields without __init__."""
    error = cls.__new__(cls, *args)
    error.__dict__.update(fields)
    return error


class RosaError(Exception):
    """Base class for all errors raised by this package.

    Errors pickle with their message and fields, so one raised in a worker
    process re-raises unchanged in its parent. (The default reduction calls
    cls(*args), which fails for subclasses whose __init__ takes fields.)
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


class InvalidInputError(RosaError, ValueError):
    """An argument fails a precondition (non-finite entries, bad dimension, ...)."""


class ShapeError(InvalidInputError):
    """Two operands have incompatible shapes; the message names both."""

    def __init__(self, message: str, left: tuple, right: tuple):
        super().__init__(f"{message}: {left} vs {right}")
        self.left = left
        self.right = right


class RankTooLargeError(InvalidInputError):
    """A requested rank exceeds what the operand dimensions admit."""


class SingularMatrixError(RosaError):
    """A matrix required to have full column rank does not, numerically."""


class ContractViolationError(RosaError):
    """An internal invariant was broken (stale cache, misaligned gradients)."""


class ConfigError(RosaError):
    """A configuration field is missing, malformed, or inconsistent."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field {field!r}: {message}")
        self.field = field


class CheckpointFormatError(RosaError):
    """A checkpoint file is malformed; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class NumericError(RosaError):
    """A computation produced non-finite values or broke a numeric guarantee."""
