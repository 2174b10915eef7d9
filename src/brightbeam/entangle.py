"""Entangled-state generation and non-separability witnesses.

Two amplitude-squeezed beams interfered on a beam splitter with relative
phase theta yield a pair of bright beams whose joint quadrature
combinations drop below the coherent-state reference.  This module
evaluates the sum/product witnesses, the gain-weighted generalized
witness with its theta-adapted bound, and optional gain optimization.
Generation, witnesses and the gain search broadcast over stacked states
(see ``states``).  Generation joins the two input specs with
``states.squeezed_inputs``, which sets their shared phase noise.

``minimize_gain`` runs a bounded Brent search (Brent, *Algorithms for
Minimization Without Derivatives*, 1973).  Its step, ``_brent_step``, is
written once in select form: a single pair runs it on Python floats, a
stack of pairs on arrays, all pairs in lockstep, and each pair gets the
same result bit for bit.  tests/test_entangle.py compares both with scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .scenario import SqueezedInputSpec
from .states import (
    BrightGaussianState,
    DetectionResult,
    apply_beamsplitter,
    bright_carriers,
    float_if_scalar,
    squeezed_inputs,
)

SUM_BOUND = 2.0


@dataclass(frozen=True)
class WitnessReport:
    """Evaluated sum/product witness for a two-mode state."""

    v_sq_plus_x: float
    v_sq_minus_y: float
    gain_used: float
    sum_value: float
    product_value: float
    bound: float
    entangled_witnessed: bool


@dataclass(frozen=True)
class GeneralizedCombination:
    """Coefficients of the joint operators h_a dX_a + h_b dX_b and
    g_a dY_a + g_b dY_b."""

    h_a: float
    h_b: float
    g_a: float
    g_b: float

    def __post_init__(self):
        if self.h_a == self.h_b == self.g_a == self.g_b == 0.0:
            raise DomainError("combination coefficients must not all be zero")


def generate_entangled(a: SqueezedInputSpec, b: SqueezedInputSpec,
                       theta: float, ratio: float = 0.5,
                       excess_correlation: float = 1.0) -> BrightGaussianState:
    """Interfere two squeezed inputs into a (potentially) entangled pair.

    ``squeezed_inputs`` sets the phase noise the inputs share.  Input
    records whose numbers are arrays (see there), and arrays of theta,
    ratio and excess_correlation, give a stack of pairs.
    """
    return apply_beamsplitter(squeezed_inputs([a, b], excess_correlation), 0, 1, ratio, theta)


def _require_bright_pair(state: BrightGaussianState):
    if state.n_modes != 2:
        raise DomainError(f"expected a two-mode state, got {state.n_modes} modes")
    bright_carriers(state, [0, 1], "both modes need a carrier for witness evaluation")


def squeezing_variances(state: BrightGaussianState, g: float = 1.0) -> tuple[float, float]:
    """Normalized joint variances (V(dX1 + g dX2), V(dY1 - g dY2)) / (1 + g^2).

    The denominator is the coherent-state variance of the same
    combination, so a coherent pair gives (1, 1) for every gain.
    """
    _require_bright_pair(state)
    return (DetectionResult.read(state, (0,), (2, g)).normalized,
            DetectionResult.read(state, (1,), (3, -1.0, g)).normalized)


def duan_simon(state: BrightGaussianState, g: float = 1.0) -> WitnessReport:
    """Evaluate the sum (< 2) and product (< 1) non-separability witnesses."""
    v_plus, v_minus = squeezing_variances(state, g)
    total = v_plus + v_minus
    return WitnessReport(
        v_sq_plus_x=v_plus,
        v_sq_minus_y=v_minus,
        gain_used=g,
        sum_value=total,
        product_value=v_plus * v_minus,
        bound=SUM_BOUND,
        entangled_witnessed=total < SUM_BOUND,
    )


def normalized_combination_variances(state: BrightGaussianState,
                                     c: GeneralizedCombination) -> tuple[float, float]:
    """Each combination variance divided by its coherent-state value."""
    _require_bright_pair(state)
    return (DetectionResult.read(state, (0, c.h_a), (2, c.h_b)).normalized,
            DetectionResult.read(state, (1, c.g_a), (3, c.g_b)).normalized)


def theta_adapted_bound(theta: float) -> float:
    """Witness bound adapted to the entangling phase: 2|sin theta|."""
    return 2.0 * abs(np.sin(theta))


def optimal_gains_for_theta(alpha: float, theta: float) -> GeneralizedCombination:
    """Gains recovering the full correlation signal for any entangling phase.

    They coincide with the classical amplitudes of the entangled pair:
    the amplitude combination is weighted by (alpha_ent, beta_ent) and the
    phase combination by (beta_ent, -alpha_ent).
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    a_ent = alpha * np.sqrt(1.0 + np.cos(theta))
    b_ent = alpha * np.sqrt(1.0 - np.cos(theta))
    return GeneralizedCombination(h_a=a_ent, h_b=b_ent, g_a=b_ent, g_b=-a_ent)


# Bounded Brent search on log g: it stops at an absolute tolerance of 1e-12
# on log g or after 500 evaluations.  Its constants are those of the scalar
# reference search, 2.2e-16 for machine epsilon included, so that the steps
# agree bit for bit.  They are Python floats, so that a lone column's
# search stays on Python floats.
GAIN_BOUNDS = (1e-3, 1e3)
_LOG_LO, _LOG_HI = float(np.log(GAIN_BOUNDS[0])), float(np.log(GAIN_BOUNDS[1]))
_GOLDEN = 0.5 * (3.0 - float(np.sqrt(5.0)))
_SQRT_EPS = float(np.sqrt(2.2e-16))
_XATOL = 1e-12
_MAXFUN = 500


def _select(c, x, y):
    return x if c else y


# The step's select, sign, maximum and division: numpy's on arrays, and on
# Python floats these, which give numpy's values: sign(0) = 1 and
# sign(nan) = nan, a maximum with nan is nan, and p / 0 is nan rather than
# ZeroDivisionError (the step takes no parabola where q == 0).
_FLOAT_OPS = (_select, lambda v: 1.0 if v >= 0.0 else -1.0 if v < 0.0 else v,
              lambda v, w: v if v >= w or v != v else w, lambda p, q: p / q if q else np.nan)
_ARRAY_OPS = (np.where, lambda v: np.sign(v) + (v == 0), np.maximum, np.divide)


def _brent_tolerances(s):
    """Brent's stopping terms at state s: the distance dxm from the best
    point to the middle of [a, b], the tolerances tol1 and tol2, and
    whether [a, b] is still too wide to stop."""
    a, b, xf = s[:3]
    dxm = 0.5 * (a + b) - xf
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    return dxm, tol1, tol2, abs(dxm) > (tol2 - 0.5 * (b - a))


def _brent_step(f, params, s, dxm, tol1, tol2, ops):
    """One step of Brent's bounded search of f(x, params), with the terms
    of ``_brent_tolerances``: it evaluates f at one new point and returns
    the new state s = (a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat).

    Each branch of the scalar reference loop is a select of ``ops`` (see
    ``_FLOAT_OPS``), so the step runs on the floats of one column or,
    elementwise, on the arrays of a stack, and gives every column the
    reference's IEEE results.  Both sides of each select are computed.
    """
    where, sign, maximum, divide = ops
    a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat = s
    da, db = a - xf, b - xf
    # A parabola through the three best points, taken where |e| > tol1
    # and it falls well inside [a, b] ...
    d_nfc, d_fulc = xf - nfc, xf - fulc
    r = d_nfc * (fx - ffulc)
    q = d_fulc * (fx - fnfc)
    p = d_fulc * q - d_nfc * r
    q = 2.0 * (q - r)
    p = where(q > 0.0, -p, p)
    q = abs(q)
    parabolic = ((abs(e) > tol1) & (abs(p) < abs(0.5 * q * e))
                 & (p > q * da) & (p < q * db))
    rat_p = divide(p + 0.0, q)
    x = xf + rat_p
    rat_p = where(((x - a) < tol2) | ((b - x) < tol2), tol1 * sign(dxm), rat_p)
    # ... otherwise a golden-section step into the larger part of [a, b].
    e_golden = where(dxm <= 0.0, da, db)  # dxm <= 0 where xf >= xm
    e = where(parabolic, rat, e_golden)
    rat = where(parabolic, rat_p, _GOLDEN * e_golden)

    x = xf + sign(rat) * maximum(abs(rat), tol1)
    fu = f(x, params)

    # Narrow [a, b] around the best point, and keep the best three points
    # seen: xf, then nfc, then fulc.
    better = fu <= fx
    right, left = x >= xf, x < xf
    a = where(better, where(right, xf, a), where(left, x, a))
    b = where(better, where(right, b, xf), where(left, b, x))
    second = better | (fu <= fnfc) | (nfc == xf)
    third = second | (fu <= ffulc) | (fulc == xf) | (fulc == nfc)
    fulc, ffulc = (where(second, nfc, where(third, x, fulc)),
                   where(second, fnfc, where(third, fu, ffulc)))
    nfc, fnfc = (where(better, xf, where(second, x, nfc)),
                 where(better, fx, where(second, fu, fnfc)))
    return a, b, where(better, x, xf), where(better, fu, fx), nfc, fnfc, fulc, ffulc, e, rat


def _scalar_brent(f, params):
    """Brent's bounded minimization of f(x, params) over x in [_LOG_LO, _LOG_HI]
    for one column, on Python floats; returns (x, f(x)).

    It runs ``_brent_step`` on ``_FLOAT_OPS``: on one column, numpy's
    per-call overhead would cost more than the whole float search.
    """
    a, b = _LOG_LO, _LOG_HI
    xf = a + _GOLDEN * (b - a)
    fx = f(xf, params)
    s = (a, b, xf, fx, xf, fx, xf, fx, 0.0, 0.0)
    num = 1
    while True:
        dxm, tol1, tol2, wide = _brent_tolerances(s)
        if not (wide and num < _MAXFUN):
            return s[2], s[3]
        s = _brent_step(f, params, s, dxm, tol1, tol2, _FLOAT_OPS)
        num += 1


def _bounded_brent(f, params):
    """Brent's bounded minimization of f(x, params) over x in [_LOG_LO, _LOG_HI]
    for every column of params at once; returns (x, f(x)) per column.

    It runs ``_brent_step`` on ``_ARRAY_OPS``, so every column takes the
    steps ``_scalar_brent`` takes on it alone, and its (x, f(x)) is
    recorded when its stopping test first holds.  A finished column rides
    along, its values discarded, until at least half the columns are
    finished; then the arrays keep only the running ones.  A stack of
    no columns gives empty results.
    """
    n = params.shape[-1]
    x_out, f_out = np.empty(n), np.empty(n)
    idx = np.arange(n)
    a, b, zero = np.full(n, _LOG_LO), np.full(n, _LOG_HI), np.zeros(n)
    xf = a + _GOLDEN * (b - a)
    fx = f(xf, params)
    s = (a, b, xf, fx, xf, fx, xf, fx, zero, zero)
    num = 1
    running, alive = None, n  # None: every column of the arrays runs
    while True:
        dxm, tol1, tol2, wide = _brent_tolerances(s)
        live = wide & (num < _MAXFUN)
        if running is not None:
            live &= running
        still = np.count_nonzero(live)
        if still < alive or not still:
            done = ~live if running is None else running & ~live
            x_out[idx[done]], f_out[idx[done]] = s[2][done], s[3][done]
            if not still:
                return x_out, f_out
            alive, running = still, live
            if 2 * still <= idx.size:
                idx, params, dxm, tol1, tol2, *s = (
                    v[..., live] for v in (idx, params, dxm, tol1, tol2, *s))
                running = None
        s = _brent_step(f, params, s, dxm, tol1, tol2, _ARRAY_OPS)
        num += 1


def minimize_gain(objective, params) -> np.ndarray:
    """Minimize objective(g, params) over a gain g in GAIN_BOUNDS, for every
    column of the 2-D array params.

    A bounded Brent search runs on log g, one ``_brent_step`` per
    evaluation.  A single column runs it on Python floats
    (``_scalar_brent``), and objective gets a float g with the column as
    a 1-D list of floats.  Any other number of columns runs it on arrays
    in one pass (``_bounded_brent``), and objective gets arrays: a 1-D g
    with the 2-D params, and a column of gains for the candidates below.
    Both give a column the same gain bit for bit.
    Brent's search settles in one local minimum; when the objective has
    an interior maximum, the lowest value may sit at the other end of the
    range, so its result and both ends compete with unit gain.  Unit gain
    wins any tie with the minimum, so a flat objective (a coherent pair)
    keeps g = 1; the others win only when strictly lower.  Floating-point
    warnings inside the search are silenced, as a search on Python floats
    never warns: an overflow gives inf, and parabolic steps that are
    computed and then discarded may divide 0 by 0.
    Returns g per column: g = 1 where the optimum is not finite or is no
    better than unit gain.
    """
    with np.errstate(all="ignore"):
        if params.shape[-1] == 1:
            params, where = params[:, 0].tolist(), _select
            x, brent = _scalar_brent(lambda log_g, p: objective(float(np.exp(log_g)), p), params)
            brent_g = float(np.exp(x))
            unit, lo, hi = (objective(g, params) for g in (1.0, *GAIN_BOUNDS))
        else:
            where = np.where
            x, brent = _bounded_brent(lambda log_g, p: objective(np.exp(log_g), p), params)
            brent_g = np.exp(x)
            unit, lo, hi = objective(np.array([1.0, *GAIN_BOUNDS])[:, None], params)
    g, best = 1.0, unit
    for candidate, value in ((brent_g, brent), (GAIN_BOUNDS[0], lo), (GAIN_BOUNDS[1], hi)):
        wins = value < best
        g, best = where(wins, candidate, g), where(wins, value, best)
    return np.atleast_1d(where(np.isfinite(brent_g) & np.isfinite(brent), g, 1.0))


def _witness_sum(g, params):
    """The sum of the two ``squeezing_variances`` readings at g' = g * params[6],
    from X entries (c00, c02, c22) params[0:3] and Y entries (c11, c13, c33)
    params[3:6].  This closed form keeps the gains the scalar reference
    search's bit for bit; the readings differ by ulps, which moves some."""
    g = g * params[6]
    g_sq, g_2 = g * g, 2 * g
    norm = 1.0 + g_sq
    return ((params[0] + g_2 * params[1] + g_sq * params[2]) / norm
            + (params[3] - g_2 * params[4] + g_sq * params[5]) / norm)


def witness_gains(state_x: BrightGaussianState, state_y: BrightGaussianState,
                  imbalance=0.0):
    """Per pair of a stack, the shared gain g minimizing the witness sum
    V(dX1 + g' dX2) of state_x plus V(dY1 - g' dY2) of state_y, at
    g' = g (1 + imbalance).

    ``minimize_gain`` searches all pairs of the stack together; a pair
    whose optimum is not finite gets g = 1.  Returns the gains, a scalar
    for unstacked states.  Its caller, ``method_a_readings``, has checked
    both paths for two bright carriers.
    """
    batch = np.broadcast_shapes(state_x.cov.shape[:-2], state_y.cov.shape[:-2],
                                np.shape(imbalance))
    cx, cy = state_x.cov, state_y.cov
    rows = (cx[..., 0, 0], cx[..., 0, 2], cx[..., 2, 2], cy[..., 1, 1], cy[..., 1, 3],
            cy[..., 3, 3], 1.0 + np.asarray(imbalance, dtype=float))
    params = np.stack([np.broadcast_to(row, batch).ravel() for row in rows])
    return float_if_scalar(minimize_gain(_witness_sum, params).reshape(batch))
