"""Exception types shared across the simulator, and how their messages echo input."""

import reprlib

ABRIDGE_AT = 31  # characters; an echoed value's text this long is abridged
# reprlib's limits, but an integer keeps 12 characters, not 40, so the
# profile message that echoes one huge group size stays under 100 bytes
_ECHO = reprlib.Repr()
_ECHO.maxlong = 12


def abridged(value) -> str:
    """`value` as an error message echoes it: its text, or `reprlib`'s
    abridged repr of it when that text has `ABRIDGE_AT` or more characters."""
    text = str(value)
    return text if len(text) < ABRIDGE_AT else _ECHO.repr(value)


class FmmlError(Exception):
    """Base class for all simulator errors."""


class ConfigError(FmmlError):
    """Invalid, unknown or inconsistent configuration value."""


class ShapeMismatchError(FmmlError):
    """Array lengths or layer shapes do not line up."""


class NumericOverflowError(FmmlError):
    """A computation produced non-finite values: activations, parameters or link rates."""


class AggregationError(FmmlError):
    """A mask leaves an aggregation weight row with no weight."""


class SchedulingError(FmmlError):
    """Scheduling metric cannot be evaluated."""


class StalledLinkError(FmmlError):
    """Positive payload on a zero-rate link."""
