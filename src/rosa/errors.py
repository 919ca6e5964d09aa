"""Exception types shared across the package, and the type check of config
fields.

Everything raised on purpose derives from RosaError so callers can catch one
base class at the CLI boundary and map it to an exit code.
"""

from __future__ import annotations

import dataclasses
import sys
import types
import typing


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


def _fits(value, hint) -> bool:
    """Whether a value fits a field annotation: int but not bool, float
    also from an int within float range, str, bool, tuple of int from a
    tuple or a list, and None only where the annotation allows it."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return (isinstance(value, (tuple, list))
                and all(_fits(v, item) for v in value))
    if hint is float:
        return (isinstance(value, float)
                or _fits(value, int) and abs(value) <= sys.float_info.max)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is type(None):
        return value is None
    return isinstance(value, hint)


def check_field_types(config) -> None:
    """Raise ConfigError naming the first field of a dataclass instance
    whose value does not fit the field's annotation."""
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _fits(value, hints[f.name]):
            raise ConfigError(f.name, f"must be {f.type}, got {value!r}")


class CheckpointFormatError(RosaError):
    """A checkpoint file is malformed; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class NumericError(RosaError):
    """A computation produced non-finite values or broke a numeric guarantee."""
