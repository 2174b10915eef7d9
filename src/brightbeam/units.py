"""Decibel conversions and numeric-input checks used throughout the package.

All variances are kept in shot-noise units (coherent state = 1), so a
squeezing level of "x dB below shot noise" corresponds to a variance of
10**(-x/10).
"""

import math
import numbers

from .errors import DomainError


def is_finite_real(x) -> bool:
    """True for a finite int or float; bools, strings and NaN/inf are not."""
    # float and int first: they match without the slower ABC check.
    if isinstance(x, bool) or not isinstance(x, (float, int, numbers.Real)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def db_to_var(db: float) -> float:
    """Convert a relative noise level in dB to a linear variance ratio."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise DomainError(f"{db} dB is out of the representable variance range") from None


def var_to_db(v: float) -> float:
    """Convert a linear variance ratio to dB relative to shot noise."""
    if v <= 0.0:
        raise DomainError(f"variance must be positive, got {v}")
    return 10.0 * math.log10(v)
