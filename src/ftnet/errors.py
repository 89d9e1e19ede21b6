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


def _read_text(path):
    """A text file's contents; bytes that are not UTF-8 raise FormatError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
