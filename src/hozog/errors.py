"""Exception types raised across the package.

All errors derive from :class:`HozogError` so callers can catch the
package's failures with a single except clause while still telling the
individual failure modes apart.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np


class HozogError(Exception):
    """Base class for every error raised by this package."""


class InvalidConfig(HozogError):
    """A configuration value violates its documented range or relation."""


class DimensionMismatch(HozogError):
    """A vector's length does not match the dimension the context expects."""


class NonFiniteObjective(HozogError):
    """An oracle evaluation returned NaN or infinity.

    Signals a diverging inner solve or an objective that is not finite.
    Carries the offending hyperparameter vector and, when raised from the
    outer loop, the meta-iteration index.  Raised by the oracle, it also
    carries what it evaluated: ``values``, the (k,) objectives, NaN where a
    column diverged, and ``models``, the (d, k) block of trained models.
    """

    def __init__(self, message, hyperparams=None, meta_iter=None, models=None, values=None):
        super().__init__(message)
        self.hyperparams = hyperparams
        self.meta_iter = meta_iter
        self.models = models
        self.values = values


class InsufficientData(HozogError):
    """A dataset or split has too few rows or classes."""


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
        super().__init__(f"config field {field!r}: {reason}")  # repr keeps a key's newline on one line
        self.field = field
        self.reason = reason


def array_text(arr) -> str:
    """``arr`` for an error message: past 8 entries summarised, on one line."""
    text = np.array2string(np.asarray(arr), threshold=8, max_line_width=sys.maxsize)
    return text.replace("\n", "")


def check_count(value, name: str, minimum: int) -> None:
    """Raise InvalidConfig naming ``name`` unless ``value`` is an integer of at least ``minimum``.

    The package's one count test.  A bool is not a count, though Python treats it as an int.
    """
    # the exact-type test first: it excludes bool, and the ABC test alone costs
    # about 0.5 us, which shows in a small problem's 3 us set-up
    if not (type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidConfig(f"{name} must be >= {minimum}, got {value}")


def check_positive(value, name: str) -> None:
    """Raise InvalidConfig naming ``name`` unless ``value`` is a real number, finite and > 0.

    The package's one test of a step size or radius.  A bool, NaN or ±inf is rejected.
    """
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and 0 < value < math.inf):  # real tests the exact type first, as check_count does
        raise InvalidConfig(f"{name} must be a finite number > 0, got {value!r}")
