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
The reading lives in ``states`` so that ``entangle`` reads through it too.

All physics stays in shot-noise-normalized units; absolute dBm powers
appear only in the electronic-noise subtraction utility.  Every readout
broadcasts over a stack of states (see ``states``): gains, phases and
imbalances may be arrays, and so may the fields of a budget: a budget
is a LossBudget or any record with its three fields.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .entangle import witness_gains
from .errors import DomainError
from .scenario import LossBudget, _efficiency, is_finite_real
from .states import (
    BrightGaussianState,
    DetectionResult,
    _apply_losses,
    apply_beamsplitter,
    bright_carriers,
    dark_modes,
)

SPEED_OF_LIGHT = 299_792_458.0
_LN10 = math.log(10.0)


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
    if not is_finite_real(repetition_rate) or repetition_rate <= 0:
        raise DomainError(
            f"repetition_rate must be a positive finite number, got {repetition_rate!r}")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError(f"delay order n must be an integer >= 1, got {n!r}")
    try:
        delta_l = SPEED_OF_LIGHT * n / repetition_rate
        measurement_frequency = repetition_rate / (2 * n)
    except OverflowError:  # an n beyond the float range
        delta_l = measurement_frequency = math.inf
    if not (0.0 < delta_l < math.inf and 0.0 < measurement_frequency < math.inf):
        raise DomainError(f"repetition_rate {repetition_rate!r} and delay order n = {n!r} "
                          "give no finite, positive geometry")
    return MzGeometry(
        repetition_rate=repetition_rate,
        n=n,
        delta_l=delta_l,
        measurement_frequency=measurement_frequency,
    )


def _apply_budgets(state: BrightGaussianState, budgets: tuple[LossBudget, LossBudget],
                   include_visibility: bool = True) -> BrightGaussianState:
    """Apply each arm's pre-detection loss budget to its mode, in mode order,
    as one map: ``apply_loss`` of each arm in turn, bit for bit."""
    return _apply_losses(state, [(mode, _efficiency(budget, include_visibility))
                                 for mode, budget in enumerate(budgets)])


def _joint_reading(lossy: BrightGaussianState, quadrature: str, sign: float, g,
                   imbalance) -> DetectionResult:
    """Photocurrent a1 (dQ1 + sign g (1 + imbalance) dQ2) of one lossy path,
    with Q the given quadrature and a1 mode 1's carrier, which
    ``method_a_readings`` has checked bright."""
    a1 = lossy.amplitudes[..., 0]
    q = 0 if quadrature == "X" else 1
    return DetectionResult.read(lossy, (q, a1), (2 + q, sign, g, 1.0 + imbalance, a1))


def method_a_readings(state: BrightGaussianState, budgets: tuple[LossBudget, LossBudget],
                      g=None, imbalance: float = 0.0
                      ) -> tuple[float, DetectionResult, DetectionResult]:
    """Method A's joint two-beam readings, each path's lossy state built once.

    Returns the gain, where ``g`` is None the one ``witness_gains`` picks
    for the two paths, and the correlation combinations at that gain:
    ``plus`` = V(dX1 + g dX2) and ``minus`` = V(dY1 - g dY2).  An
    electronic gain mismatch ``imbalance`` multiplies the second
    photocurrent (and enters the coherent reference the same way);
    ``method_a_anti_readings`` gives the anti-combinations.
    """
    if state.n_modes != 2:
        raise DomainError("method A joint measurement needs a two-mode state")
    # The amplitude (X) path needs no interference and skips the visibility.
    state_x = _apply_budgets(state, budgets, include_visibility=False)
    state_y = _apply_budgets(state, budgets)
    for path in (state_x, state_y):
        bright_carriers(path, [0, 1], "joint measurement needs two bright carriers")
    if g is None:
        g = witness_gains(state_x, state_y, imbalance)
    return g, _joint_reading(state_x, "X", 1.0, g, imbalance), _joint_reading(
        state_y, "Y", -1.0, g, imbalance)


def method_a_anti_readings(plus: DetectionResult, minus: DetectionResult, g,
                           imbalance: float = 0.0) -> tuple[DetectionResult, DetectionResult]:
    """The anti-combinations that go with the ``plus`` and ``minus`` of
    ``method_a_readings`` at gain g: the same lossy paths read with the
    relative sign flipped."""
    return (_joint_reading(plus.state, "X", -1.0, g, imbalance),
            _joint_reading(minus.state, "Y", 1.0, g, imbalance))


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
    a_d, a_c = carriers[..., 0], carriers[..., 1]
    return (DetectionResult.read(out, (0, a_d), (2, 1.0 + imbalance, a_c)),
            DetectionResult.read(out, (0, -a_d), (2, 1.0 + imbalance, a_c)))


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
    return DetectionResult.read(out, (2 * _PORT_INDEX[port], alpha))


def bright_port_readings(out: BrightGaussianState) -> dict[str, DetectionResult]:
    """Direct-detection reading of every bright port of an interferometer output.

    Keys are ``port_d`` and ``port_c``; a dark port is left out.  In a
    stack, a port that is dark at some states only reads NaN there.
    """
    dark = dark_modes(out.amplitudes)
    readings = {}
    for port, index in _PORT_INDEX.items():
        if not dark[..., index].all():
            alpha = np.where(dark[..., index], np.nan, out.amplitudes[..., index])
            readings[f"port_{port}"] = DetectionResult.read(out, (2 * index, alpha))
    return readings


def correct_electronic_noise(signal_dbm: float, electronic_dbm: float) -> float:
    """Subtract the electronic noise floor in linear power, back to dBm.

    Both powers must be finite; an electronic_dbm of -inf means no floor."""
    if not is_finite_real(signal_dbm):
        raise DomainError(f"signal power must be a finite number of dBm, got {signal_dbm!r}")
    if electronic_dbm == -math.inf:
        return signal_dbm
    if not is_finite_real(electronic_dbm):
        raise DomainError("electronic noise floor must be a finite number of dBm or -inf, "
                          f"got {electronic_dbm!r}")
    # 10 log10(10^(s/10) - 10^(e/10)) = s + 10 log10(1 - 10^((e - s)/10)): no
    # power overflows, and expm1 keeps the difference of close powers.
    remaining = -math.expm1(_LN10 * (electronic_dbm - signal_dbm) / 10.0)
    if signal_dbm <= electronic_dbm or remaining == 0.0:
        raise DomainError(
            "signal power must exceed the electronic noise floor for subtraction"
        )
    return signal_dbm + 10.0 * math.log10(remaining)
