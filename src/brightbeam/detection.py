"""The three measurement schemes and their loss/shot-noise accounting.

Method A: two unbalanced Mach-Zehnder interferometers measure amplitude or
phase quadratures of each beam locally; correlations are formed
electronically.  Method B: the beam pair interferes on a 50/50 splitter
and the sum/difference photocurrents deliver both correlation signals at
once.  Method C: a single output port of the same interferometer is
detected; at verification phase pi/2 its normalized variance is half the
witness sum.

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
    DARK_PORT_FACTOR,
    BrightGaussianState,
    apply_beamsplitter,
    apply_loss,
    float_if_scalar,
    stacked,
)
from .units import var_to_db

# var_to_db entry by entry: math.log10 on each, and the first entry that is
# not positive raises.
_var_to_db = np.vectorize(var_to_db, otypes=[float])

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class DetectionResult:
    """A photocurrent variance with its shot-noise reference.

    A result read off a state keeps that state and the photocurrent's
    quadrature weights, so the sampling oracle can redraw the same channel.
    Read off a stack, the numbers are arrays over the stack.
    """

    variance: float
    shot_noise: float
    normalized: float
    rel_db: float
    state: BrightGaussianState | None = field(default=None, repr=False, compare=False)
    weights: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_variance(cls, variance: float, shot_noise: float,
                      state: BrightGaussianState | None = None,
                      weights: np.ndarray | None = None) -> "DetectionResult":
        if np.any(shot_noise <= 0):
            raise DegenerateModeError("shot-noise reference must be positive")
        normalized = variance / shot_noise
        return cls(float_if_scalar(variance), float_if_scalar(shot_noise),
                   float_if_scalar(normalized), float_if_scalar(_var_to_db(normalized)),
                   state, weights)

    @classmethod
    def read(cls, state: BrightGaussianState, weights: np.ndarray,
             shot_noise: float) -> "DetectionResult":
        """Photocurrent with the given quadrature weights, read off a state."""
        return cls.from_variance(state.combination_variance(weights), shot_noise,
                                 state, weights)

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
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must be in [0, 1], got {v}")

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


def _square(x):
    """x ** 2 rounded as Python's float power (libm pow), for arrays too.

    ndarray ``**`` multiplies instead, which differs in the last bit for
    about 0.1% of inputs; this keeps shot-noise references bit-identical
    to Python float arithmetic.
    """
    return np.float_power(x, 2)


def _weights(*entries) -> np.ndarray:
    """Quadrature weights [dX1, dY1, dX2, dY2] set from (index, value) pairs."""
    w = np.zeros(np.broadcast_shapes(*(np.shape(v) for _, v in entries)) + (4,))
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
    alpha = lossy.amplitudes[..., mode]
    if np.any(alpha <= 0):
        raise DegenerateModeError("phase measurement needs a bright carrier")
    variance = _square(alpha) * lossy.variance(mode, quadrature)
    return DetectionResult.from_variance(variance, _square(alpha))


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
    a1, a2 = lossy.amplitudes[..., 0], lossy.amplitudes[..., 1]
    if np.any(a1 <= 0) or np.any(a2 <= 0):
        raise DegenerateModeError("joint measurement needs two bright carriers")
    q = 0 if quadrature == "X" else 1
    sign = 1.0 if quadrature == "X" else -1.0
    g_eff = g * (1.0 + imbalance)
    shot = _square(a1) * (1.0 + _square(g_eff))
    second = sign * g_eff * a1
    return (DetectionResult.read(lossy, _weights((q, a1), (2 + q, second)), shot),
            DetectionResult.read(lossy, _weights((q, a1), (2 + q, -second)), shot))


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


def _dark_port(out: BrightGaussianState, index: int):
    """Where the port's carrier is too weak for a shot-noise reference."""
    alpha = out.amplitudes[..., index]
    total = np.sqrt(np.sum(out.amplitudes ** 2, axis=-1))
    return (alpha ** 2 < (DARK_PORT_FACTOR ** 2) * total ** 2) | (alpha <= 0)


def _port_amplitude(out: BrightGaussianState, index: int):
    if np.any(_dark_port(out, index)):
        raise DegenerateModeError(
            "interferometer output port is dark; shot-noise normalization degenerate"
        )
    return float_if_scalar(out.amplitudes[..., index])


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
    a_d = _port_amplitude(out, 0)
    a_c = _port_amplitude(out, 1)
    gain_c = 1.0 + imbalance
    shot = _square(a_d) + _square(gain_c * a_c)
    w_sum = _weights((0, a_d), (2, gain_c * a_c))
    w_diff = _weights((0, -a_d), (2, gain_c * a_c))
    return DetectionResult.read(out, w_sum, shot), DetectionResult.read(out, w_diff, shot)


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
    index = _PORT_INDEX[port]
    return _port_reading(out, index, _port_amplitude(out, index))


def _port_reading(out: BrightGaussianState, index: int, alpha) -> DetectionResult:
    return DetectionResult.read(out, _weights((2 * index, alpha)), _square(alpha))


def bright_port_readings(out: BrightGaussianState) -> dict[str, DetectionResult]:
    """Direct-detection reading of every bright port of an interferometer output.

    Keys are ``port_d`` and ``port_c``; a dark port is left out.  In a
    stack, a port that is dark at some states only reads NaN there.
    """
    readings = {}
    for port, index in _PORT_INDEX.items():
        dark = _dark_port(out, index)
        if not np.all(dark):
            alpha = np.where(dark, np.nan, out.amplitudes[..., index])
            with np.errstate(invalid="ignore"):  # the NaN entries' positivity check
                readings[f"port_{port}"] = _port_reading(out, index, float_if_scalar(alpha))
    return readings


def shot_noise_reference(amplitudes) -> float:
    """Coherent-state variance of a multi-detector photocurrent combination."""
    amps = np.asarray(amplitudes, dtype=float)
    if np.any(amps < 0):
        raise DomainError("amplitudes must be non-negative")
    total = float(np.sum(amps ** 2))
    if total <= 0:
        raise DegenerateModeError("all-zero amplitudes give no shot-noise reference")
    return total


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
