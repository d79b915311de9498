"""Exception types raised across the package.

All errors derive from :class:`HozogError` so callers can catch the
package's failures with a single except clause while still telling the
individual failure modes apart.
"""

from __future__ import annotations


class HozogError(Exception):
    """Base class for every error raised by this package."""


class InvalidConfig(HozogError):
    """A configuration value violates its documented range or relation."""


class DimensionMismatch(HozogError):
    """A vector's length does not match the dimension the context expects."""


class NonFiniteObjective(HozogError):
    """An oracle evaluation returned NaN or infinity.

    Signals a diverging inner solve.  Carries the offending hyperparameter
    vector and, when raised from the outer loop, the meta-iteration index.
    """

    def __init__(self, message, hyperparams=None, meta_iter=None):
        super().__init__(message)
        self.hyperparams = hyperparams
        self.meta_iter = meta_iter


class NonFiniteIterate(HozogError):
    """A solve's final iterate is NaN or infinite; ``t`` is its step count."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class EmptySplit(HozogError):
    """A dataset split required to be non-empty has no rows."""


class InsufficientData(HozogError):
    """A dataset is too small for the requested splits."""


class SingleClass(HozogError):
    """Binarization needs at least two distinct labels."""


class ParseError(HozogError):
    """Strict parse failure with 1-based line and column position."""

    def __init__(self, line, column, reason):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class ConfigError(HozogError):
    """An experiment config file failed validation; names the field."""

    def __init__(self, field, reason):
        super().__init__(f"config field '{field}': {reason}")
        self.field = field
        self.reason = reason
