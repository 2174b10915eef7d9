"""Decibel conversions and numeric-input checks used throughout the package.

All variances are kept in shot-noise units (coherent state = 1), so a
squeezing level of "x dB below shot noise" corresponds to a variance of
10**(-x/10).
"""

import math
import numbers

import numpy as np

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


def db_to_var(db):
    """Convert a relative noise level in dB, or an array of them, to a linear
    variance ratio."""
    try:
        with np.errstate(over="ignore"):
            v = 10.0 ** (db / 10.0)
    except OverflowError:  # a Python float
        v = math.inf
    overflow = np.isinf(v)
    if overflow.any():
        bad = db if np.ndim(db) == 0 else float(db[overflow].flat[0])
        raise DomainError(f"{bad} dB is out of the representable variance range")
    return v


def var_to_db(v):
    """Convert a linear variance ratio, or an array of them, to dB relative
    to shot noise.  NaN entries stay NaN."""
    v = np.asarray(v, dtype=float)
    bad = v <= 0.0
    if bad.any():
        raise DomainError(f"variance must be positive, got {v[bad].flat[0]}")
    db = 10.0 * np.log10(v)
    return float(db) if db.ndim == 0 else db
