"""Entangled-state generation and non-separability witnesses.

Two amplitude-squeezed beams interfered on a beam splitter with relative
phase theta yield a pair of bright beams whose joint quadrature
combinations drop below the coherent-state reference.  This module
evaluates the sum/product witnesses, the gain-weighted generalized
witness with its theta-adapted bound, and optional gain optimization.
Generation and witnesses broadcast over stacked states (see ``states``);
the gain is optimized state by state.  Generation joins the two input
specs with ``states.squeezed_inputs``, which sets their shared phase noise.

scipy is imported only when a gain is optimized (``minimize_gain``, i.e.
a scenario with ``gain: "optimize"``), so importing this module and
evaluating fixed-gain witnesses never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateModeError, DomainError
from .states import (
    BrightGaussianState,
    SqueezedInputSpec,
    apply_beamsplitter,
    dark_modes,
    float_if_scalar,
    squeezed_inputs,
)

SUM_BOUND = 2.0
PRODUCT_BOUND = 1.0


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
    gain_fallback: bool = False

    def to_dict(self) -> dict:
        return {
            "v_sq_plus_x": self.v_sq_plus_x,
            "v_sq_minus_y": self.v_sq_minus_y,
            "gain": self.gain_used,
            "sum": self.sum_value,
            "product": self.product_value,
            "bound": self.bound,
            "witnessed": self.entangled_witnessed,
        }


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

    ``squeezed_inputs`` sets the phase noise the inputs share.  Lists of
    specs and arrays of numbers give a stack of pairs.
    """
    return apply_beamsplitter(squeezed_inputs([a, b], excess_correlation), 0, 1, ratio, theta)


def _require_bright_pair(state: BrightGaussianState):
    if state.n_modes != 2:
        raise DomainError(f"expected a two-mode state, got {state.n_modes} modes")
    if np.any(dark_modes(state.amplitudes)):
        raise DegenerateModeError("both modes need a carrier for witness evaluation")


def _pair_entries(cov: np.ndarray) -> tuple[tuple, tuple]:
    """X entries (c00, c02, c22) and Y entries (c11, c13, c33) of a pair's covariance."""
    return ((cov[..., 0, 0], cov[..., 0, 2], cov[..., 2, 2]),
            (cov[..., 1, 1], cov[..., 1, 3], cov[..., 3, 3]))


def _joint_variances(x, y, g):
    """(V(dX1 + g dX2), V(dY1 - g dY2)) / (1 + g^2) from X entries x and Y entries y."""
    norm = 1.0 + g * g
    return ((x[0] + 2 * g * x[1] + g * g * x[2]) / norm,
            (y[0] - 2 * g * y[1] + g * g * y[2]) / norm)


def squeezing_variances(state: BrightGaussianState, g: float = 1.0) -> tuple[float, float]:
    """Normalized joint variances (V(dX1 + g dX2), V(dY1 - g dY2)) / (1 + g^2).

    The denominator is the coherent-state variance of the same
    combination, so a coherent pair gives (1, 1) for every gain.
    """
    _require_bright_pair(state)
    v_plus, v_minus = _joint_variances(*_pair_entries(state.cov), g)
    return float_if_scalar(v_plus), float_if_scalar(v_minus)


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


def generalized_witness(state: BrightGaussianState,
                        c: GeneralizedCombination) -> tuple[float, float, bool]:
    """Gain-weighted witness: V(u) + V(v) against 2(|h_a g_a| + |h_b g_b|)."""
    _require_bright_pair(state)
    u = np.array([c.h_a, 0.0, c.h_b, 0.0])
    v = np.array([0.0, c.g_a, 0.0, c.g_b])
    lhs = state.combination_variance(u) + state.combination_variance(v)
    rhs = 2.0 * (abs(c.h_a * c.g_a) + abs(c.h_b * c.g_b))
    return float_if_scalar(lhs), float(rhs), lhs < rhs


def normalized_combination_variances(state: BrightGaussianState,
                                     c: GeneralizedCombination) -> tuple[float, float]:
    """Each combination variance divided by its coherent-state value."""
    _require_bright_pair(state)
    u = np.array([c.h_a, 0.0, c.h_b, 0.0])
    v = np.array([0.0, c.g_a, 0.0, c.g_b])
    vu = state.combination_variance(u) / (c.h_a ** 2 + c.h_b ** 2)
    vv = state.combination_variance(v) / (c.g_a ** 2 + c.g_b ** 2)
    return float_if_scalar(vu), float_if_scalar(vv)


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


def minimize_gain(objective) -> tuple[float, bool]:
    """Minimize objective(g) over a gain g in [1e-3, 1e3].

    1-D bounded minimization on log g.  Brent's search settles in one
    local minimum; when the objective has an interior maximum, the lowest
    value may sit at the other end of the range, so both ends and unit
    gain compete with its result.  Returns (g, fallback): g = 1 when the
    optimum is not finite (fallback is then True) or is worse than unit
    gain.
    """
    from scipy.optimize import minimize_scalar  # ~0.5 s import, paid only here

    lo, hi = 1e-3, 1e3
    res = minimize_scalar(lambda log_g: objective(float(np.exp(log_g))),
                          bounds=(np.log(lo), np.log(hi)),
                          method="bounded", options={"xatol": 1e-12})
    g = float(np.exp(res.x))
    fallback = not (np.isfinite(g) and np.isfinite(res.fun))
    if fallback:
        return 1.0, True
    # min keeps the first of equal values: Brent's g, then the ends, then 1.
    return min((g, lo, hi, 1.0), key=objective), False


def witness_gains(state_x: BrightGaussianState, state_y: BrightGaussianState,
                  imbalance=0.0):
    """Per pair of a stack, the shared gain g minimizing the witness sum
    V(dX1 + g' dX2) of state_x plus V(dY1 - g' dY2) of state_y, at
    g' = g (1 + imbalance).

    ``minimize_gain`` runs once per pair, on the covariance entries read
    as floats.  Returns (gains, fallbacks), scalars for unstacked states.
    """
    _require_bright_pair(state_x)
    _require_bright_pair(state_y)
    xs = np.stack(_pair_entries(state_x.cov)[0], -1)
    ys = np.stack(_pair_entries(state_y.cov)[1], -1)
    batch = xs.shape[:-1]
    results = []
    for x, y, imb in zip(xs.reshape(-1, 3).tolist(), ys.reshape(-1, 3).tolist(),
                         np.broadcast_to(imbalance, batch).ravel().tolist()):
        def witness_sum(g, x=x, y=y, imb=imb):
            v_plus, v_minus = _joint_variances(x, y, g * (1.0 + imb))
            return v_plus + v_minus
        results.append(minimize_gain(witness_sum))
    gains, fallbacks = (np.reshape(column, batch) for column in zip(*results))
    return float_if_scalar(gains), (fallbacks if batch else bool(fallbacks))


def optimize_gain(state: BrightGaussianState) -> tuple[float, WitnessReport]:
    """Minimize the normalized witness sum over a single shared gain.

    See ``minimize_gain``; a non-finite optimum is flagged in the report.
    """
    g_star, fallback = witness_gains(state, state)
    return g_star, replace(duan_simon(state, g_star), gain_fallback=fallback)
