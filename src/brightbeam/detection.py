"""The three measurement schemes and their loss/shot-noise accounting.

Method A: two unbalanced Mach-Zehnder interferometers measure amplitude or
phase quadratures of each beam locally; correlations are formed
electronically.  Method B: the beam pair interferes on a 50/50 splitter
and the sum/difference photocurrents deliver both correlation signals at
once.  Method C: a single output port of the same interferometer is
detected; at verification phase pi/2 its normalized variance is half the
witness sum.

Every readout is one photocurrent w . dQ, a weighted sum of quadrature
fluctuations, read by ``DetectionResult.read``: its variance is w^T V w
and its shot noise the coherent-state variance of the same photocurrent,
sum(w^2) (``shot_noise_reference``).  The weights carry the carriers,
electronic gains and signs, so each method only chooses its weights.

All physics stays in shot-noise-normalized units; absolute dBm powers
appear only in the electronic-noise subtraction utility.  Every readout
broadcasts over a stack of states (see ``states``): gains, phases and
imbalances may be arrays, and a pair of budgets may be a pair of
lists of LossBudget, one per stack element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entangle import witness_gains
from .errors import DegenerateModeError, DomainError
from .states import (
    BrightGaussianState,
    apply_beamsplitter,
    apply_loss,
    bright_carriers,
    dark_modes,
    float_if_scalar,
    stacked,
)
from .units import is_finite_real, var_to_db

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class DetectionResult:
    """A photocurrent variance with its shot-noise reference.

    A result keeps the state it was read off and the photocurrent's
    quadrature weights, so the sampling oracle can redraw the same channel.
    Read off a stack, the numbers are arrays over the stack.
    """

    variance: float
    shot_noise: float
    normalized: float
    rel_db: float
    state: BrightGaussianState = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def read(cls, state: BrightGaussianState, weights: np.ndarray) -> "DetectionResult":
        """Photocurrent with the given quadrature weights, read off a state
        and normalized to sum(w^2).  NaN weights read NaN (a port of a stack
        dark there); a reading that overflows raises DomainError."""
        with np.errstate(over="ignore", invalid="ignore"):
            shot_noise = shot_noise_reference(weights)
            variance = state.combination_variance(weights)
            normalized = variance / shot_noise
        if not np.all(np.isnan(shot_noise) | (np.isfinite(shot_noise) & np.isfinite(normalized))):
            raise DomainError("photocurrent variance overflows: carrier amplitude, "
                              "gain or noise level too large")
        return cls(variance, shot_noise, normalized, var_to_db(normalized), state, weights)

    def to_dict(self) -> dict:
        return {
            "variance": self.variance,
            "shot_noise": self.shot_noise,
            "normalized": self.normalized,
            "rel_db": self.rel_db,
        }


@dataclass(frozen=True)
class LossBudget:
    """Pre-detection efficiency budget: propagation x visibility^2 x QE."""

    propagation: float = 1.0
    visibility: float = 1.0
    quantum_efficiency: float = 1.0

    def __post_init__(self):
        for name in ("propagation", "visibility", "quantum_efficiency"):
            v = getattr(self, name)
            if not is_finite_real(v) or not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must be a number in [0, 1], got {v!r}")

    def effective(self, include_visibility: bool = True) -> float:
        eta = self.propagation * self.quantum_efficiency
        if include_visibility:
            eta *= self.visibility ** 2
        return eta


@dataclass(frozen=True)
class MzGeometry:
    """Unbalanced Mach-Zehnder delay geometry for a pulsed source."""

    repetition_rate: float
    n: int
    delta_l: float
    measurement_frequency: float


def mz_geometry(repetition_rate: float, n: int) -> MzGeometry:
    """Arm-length difference and measurement frequency for delay order n.

    Interference of a pulse train requires the delay to be a whole number
    of pulse separations: delta_l = c*n/f_rep, measured at f_rep/(2n).
    """
    if repetition_rate <= 0:
        raise DomainError("repetition_rate must be positive")
    if n < 1:
        raise DomainError("delay order n must be >= 1")
    return MzGeometry(
        repetition_rate=repetition_rate,
        n=n,
        delta_l=SPEED_OF_LIGHT * n / repetition_rate,
        measurement_frequency=repetition_rate / (2 * n),
    )


def _apply_budgets(state: BrightGaussianState, budgets: tuple[LossBudget, LossBudget],
                   include_visibility: bool = True) -> BrightGaussianState:
    """Apply each arm's pre-detection loss budget to its mode."""
    for mode, budget in enumerate(budgets):
        eta = stacked(budget, lambda b: b.effective(include_visibility))
        state = apply_loss(state, mode, eta)
    return state


def _weights(state: BrightGaussianState, *entries) -> np.ndarray:
    """Quadrature weights [dX1, dY1, dX2, dY2, ...] on the state's modes,
    set from (index, value) pairs and zero elsewhere."""
    w = np.zeros(np.broadcast_shapes(*(np.shape(v) for _, v in entries))
                 + (2 * state.n_modes,))
    for index, value in entries:
        w[..., index] = value
    return w


def method_a_measure(state: BrightGaussianState, mode: int, quadrature: str,
                     budget: LossBudget = LossBudget()) -> DetectionResult:
    """Single-beam quadrature measurement with the unbalanced Mach-Zehnder.

    Phase (Y) measurements pay the full budget including visibility;
    amplitude (X) measurements need no interference and skip it.
    """
    eta = stacked(budget, lambda b: b.effective(include_visibility=(quadrature == "Y")))
    lossy = apply_loss(state, mode, eta)
    alpha = bright_carriers(lossy, mode, "phase measurement needs a bright carrier")
    return DetectionResult.read(lossy, _weights(lossy, (lossy.quad_index(mode, quadrature), alpha)))


def method_a_joint(state: BrightGaussianState, quadrature: str,
                   budgets: tuple[LossBudget, LossBudget],
                   g: float = 1.0,
                   imbalance: float = 0.0) -> tuple[DetectionResult, DetectionResult]:
    """Joint two-beam measurement: correlation and anti-correlation channels.

    Returns (combination, anti_combination): for X the combination is the
    sum V(dX1 + g dX2), for Y the difference V(dY1 - g dY2); the anti
    channel flips the relative sign.  An electronic gain mismatch
    ``imbalance`` multiplies the second photocurrent (and enters the
    coherent reference the same way).
    """
    if state.n_modes != 2:
        raise DomainError("method A joint measurement needs a two-mode state")
    lossy = _apply_budgets(state, budgets, include_visibility=(quadrature == "Y"))
    a1 = bright_carriers(lossy, [0, 1], "joint measurement needs two bright carriers")[..., 0]
    q = 0 if quadrature == "X" else 1
    sign = 1.0 if quadrature == "X" else -1.0
    second = sign * g * (1.0 + imbalance) * a1
    return (DetectionResult.read(lossy, _weights(lossy, (q, a1), (2 + q, second))),
            DetectionResult.read(lossy, _weights(lossy, (q, a1), (2 + q, -second))))


def method_a_gain(state: BrightGaussianState, budgets: tuple[LossBudget, LossBudget],
                  imbalance: float = 0.0) -> float:
    """Shared gain g minimizing the method-A witness sum (per pair of a stack).

    The sum is V(dX1 + g' dX2) + V(dY1 - g' dY2) at g' = g (1 + imbalance),
    with the amplitude channel skipping the visibility loss as in
    ``method_a_joint``.
    """
    state_x = _apply_budgets(state, budgets, include_visibility=False)
    state_y = _apply_budgets(state, budgets)
    return witness_gains(state_x, state_y, imbalance)[0]


def _verification_interference(state: BrightGaussianState, phi: float,
                               budgets: tuple[LossBudget, LossBudget] | None = None):
    """Apply per-arm budgets, interfere at 50/50 with relative phase phi.

    Returns the output state; port 'd' is output 0 (the + combination,
    bright at phi = 0) and port 'c' is output 1 (the - combination).
    """
    if state.n_modes != 2:
        raise DomainError("verification interference needs a two-mode state")
    if budgets is not None:
        state = _apply_budgets(state, budgets)
    return apply_beamsplitter(state, 0, 1, 0.5, phi)


_PORT_INDEX = {"d": 0, "c": 1}
_DARK_PORT = "interferometer output port is dark; shot-noise normalization degenerate"


def method_b_channels(state: BrightGaussianState, phi: float,
                      budgets: tuple[LossBudget, LossBudget] | None = None,
                      imbalance: float = 0.0) -> tuple[DetectionResult, DetectionResult]:
    """Sum and difference photocurrents after interfering the beam pair.

    At phi = pi/2 the sum channel carries the amplitude correlation signal
    weighted by the entangled-beam amplitudes and the difference channel
    the phase correlation signal; both are normalized to the coherent
    value of the identical combination.
    """
    out = _verification_interference(state, phi, budgets)
    carriers = bright_carriers(out, [0, 1], _DARK_PORT)
    a_d, a_c = carriers[..., 0], (1.0 + imbalance) * carriers[..., 1]
    return (DetectionResult.read(out, _weights(out, (0, a_d), (2, a_c))),
            DetectionResult.read(out, _weights(out, (0, -a_d), (2, a_c))))


def method_c_single_port(state: BrightGaussianState, phi: float, port: str = "c",
                         budgets: tuple[LossBudget, LossBudget] | None = None
                         ) -> DetectionResult:
    """Direct detection in one interferometer output port.

    For a symmetric entangled pair the normalized variance is the convex
    blend ((1 -+ cos phi) Vplus + (1 +- cos phi) Vminus)/2; at
    phi = pi/2 it is (Vplus + Vminus)/2, half the witness sum.
    """
    if port not in _PORT_INDEX:
        raise DomainError(f"port must be 'c' or 'd', got {port!r}")
    out = _verification_interference(state, phi, budgets)
    alpha = bright_carriers(out, _PORT_INDEX[port], _DARK_PORT)
    return DetectionResult.read(out, _weights(out, (2 * _PORT_INDEX[port], alpha)))


def bright_port_readings(out: BrightGaussianState) -> dict[str, DetectionResult]:
    """Direct-detection reading of every bright port of an interferometer output.

    Keys are ``port_d`` and ``port_c``; a dark port is left out.  In a
    stack, a port that is dark at some states only reads NaN there.
    """
    dark = dark_modes(out.amplitudes)
    readings = {}
    for port, index in _PORT_INDEX.items():
        if not np.all(dark[..., index]):
            alpha = np.where(dark[..., index], np.nan, out.amplitudes[..., index])
            readings[f"port_{port}"] = DetectionResult.read(out, _weights(out, (2 * index, alpha)))
    return readings


def shot_noise_reference(weights):
    """Coherent-state variance sum(w^2) of the photocurrent sum(w_i dQ_i),
    one per stack element for weights shaped (..., k)."""
    w = np.asarray(weights, dtype=float)
    total = np.sum(w * w, axis=-1)
    if np.any(total <= 0):
        raise DegenerateModeError("all-zero weights give no shot-noise reference")
    return float_if_scalar(total)


def correct_electronic_noise(signal_dbm: float, electronic_dbm: float) -> float:
    """Subtract the electronic noise floor in linear power, back to dBm."""
    if electronic_dbm == -math.inf:
        return signal_dbm
    if signal_dbm <= electronic_dbm:
        raise DomainError(
            "signal power must exceed the electronic noise floor for subtraction"
        )
    corrected = 10.0 ** (signal_dbm / 10.0) - 10.0 ** (electronic_dbm / 10.0)
    return 10.0 * math.log10(corrected)
