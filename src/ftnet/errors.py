"""Error categories shared across the package.

Each class maps to one CLI exit code (see cli.EXIT_CODES).
"""


class FTNetError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FTNetError):
    """Invalid configuration: bad hyperparameters, mismatched channel plans."""


class ShapeError(FTNetError):
    """Tensor geometry mismatch (shapes, lengths, kernel spans)."""


class UsageError(FTNetError):
    """Operation called outside its contract (non-scalar backward, empty data, ...)."""


class FormatError(FTNetError):
    """Malformed external data: WAV properties, checkpoint container, manifests."""


class DegenerateSignalError(FTNetError):
    """Signal with no usable energy, or a non-finite loss or sample."""
