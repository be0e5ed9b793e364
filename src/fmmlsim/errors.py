"""Exception types shared across the simulator."""


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
