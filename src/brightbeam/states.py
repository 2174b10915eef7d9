"""Bright Gaussian beams and linear-optics transformations.

A bright beam is modeled in the linearized picture: a large real classical
carrier amplitude alpha per mode plus Gaussian quadrature fluctuations
(dX, dY) whose frame is aligned along the classical excitation.  The full
n-mode fluctuation statistics live in a 2n x 2n covariance matrix with the
interleaved ordering [dX1, dY1, dX2, dY2, ...] in shot-noise units
(vacuum diagonal = 1).

All operations are pure: they validate their inputs and return new states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModeError, DomainError
from .units import db_to_var, is_finite_real

SYM_TOL = 1e-12
PSD_TOL = 1e-9
# Output ports with carrier amplitude below this fraction of the input scale
# have no well-defined carrier-aligned frame.
DARK_PORT_FACTOR = 1e-6


def rotation2(phi: float) -> np.ndarray:
    """Quadrature-plane rotation for a phase shift by phi."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class SqueezedInputSpec:
    """Parameterization of a fiber-squeezed input beam.

    squeezing_db is the amplitude-quadrature noise reduction below shot
    noise; antisqueezing_db the quantum part of the phase-quadrature noise
    above shot noise; excess_phase_db an additional classical phase-noise
    pedestal (thermal fiber noise).  Inputs sharing a correlated_group
    label carry the identical classical phase-noise realization.
    """

    amplitude: float
    squeezing_db: float = 0.0
    antisqueezing_db: float = 0.0
    excess_phase_db: float = 0.0
    correlated_group: int | None = None

    def __post_init__(self):
        for name in ("amplitude", "squeezing_db", "antisqueezing_db", "excess_phase_db"):
            value = getattr(self, name)
            if not is_finite_real(value) or value < 0:
                raise DomainError(f"{name} must be a finite number >= 0, got {value!r}")
        if db_to_var(-self.squeezing_db) * db_to_var(self.antisqueezing_db) < 1.0 - PSD_TOL:
            raise DomainError(
                "Heisenberg violation: squeezing %.3f dB needs antisqueezing >= %.3f dB"
                % (self.squeezing_db, self.squeezing_db)
            )

    @property
    def x_variance(self) -> float:
        return db_to_var(-self.squeezing_db)

    @property
    def y_variance_quantum(self) -> float:
        return db_to_var(self.antisqueezing_db)

    @property
    def y_variance_classical(self) -> float:
        """Classical phase-noise pedestal on top of the quantum part."""
        if self.excess_phase_db <= 0:
            return 0.0
        return db_to_var(self.excess_phase_db) - 1.0

    @property
    def y_variance(self) -> float:
        return self.y_variance_quantum + self.y_variance_classical


@dataclass(frozen=True)
class BrightGaussianState:
    """n-mode bright Gaussian state: real carriers + quadrature covariance.

    noise_tags records, per mode, an optional (group, classical_variance)
    pair used by ``compose`` to insert common-mode phase-noise cross terms.
    The tags are inert after composition.
    """

    amplitudes: np.ndarray
    cov: np.ndarray
    noise_tags: tuple = field(default=())

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if amps.ndim != 1:
            raise DomainError("amplitudes must be a 1-D vector")
        n = amps.size
        if cov.shape != (2 * n, 2 * n):
            raise DomainError(f"cov must be {2 * n}x{2 * n} for {n} modes, got {cov.shape}")
        if np.any(amps < 0):
            raise DomainError("amplitudes must be non-negative")
        if np.max(np.abs(cov - cov.T)) > SYM_TOL * max(1.0, np.max(np.abs(cov))):
            raise DomainError("covariance matrix is not symmetric")
        cov = 0.5 * (cov + cov.T)
        if np.linalg.eigvalsh(cov).min() < -PSD_TOL:
            raise DomainError("covariance matrix is not positive semi-definite")
        tags = tuple(self.noise_tags) if self.noise_tags else tuple([None] * n)
        if len(tags) != n:
            raise DomainError("noise_tags length must match mode count")
        amps.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "noise_tags", tags)

    @property
    def n_modes(self) -> int:
        return self.amplitudes.size

    def quad_index(self, mode: int, quadrature: str) -> int:
        if quadrature not in ("X", "Y"):
            raise DomainError(f"quadrature must be 'X' or 'Y', got {quadrature!r}")
        return 2 * mode + (0 if quadrature == "X" else 1)

    def variance(self, mode: int, quadrature: str) -> float:
        i = self.quad_index(mode, quadrature)
        return float(self.cov[i, i])

    def combination_variance(self, weights: np.ndarray) -> float:
        """Variance of a linear combination of quadrature fluctuations."""
        w = np.asarray(weights, dtype=float)
        return float(w @ self.cov @ w)

    def to_dict(self) -> dict:
        return {"amplitudes": self.amplitudes.tolist(), "cov": self.cov.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "BrightGaussianState":
        return cls(np.array(d["amplitudes"], float), np.array(d["cov"], float))


def make_coherent(amplitude: float) -> BrightGaussianState:
    """Single-mode coherent (or vacuum) state: cov = identity."""
    if amplitude < 0:
        raise DomainError(f"amplitude must be >= 0, got {amplitude}")
    return BrightGaussianState(np.array([amplitude]), np.eye(2))


def make_squeezed(spec: SqueezedInputSpec) -> BrightGaussianState:
    """Single-mode amplitude-squeezed state from its input parameterization."""
    cov = np.diag([spec.x_variance, spec.y_variance])
    tag = None
    if spec.correlated_group is not None and spec.y_variance_classical > 0:
        tag = (spec.correlated_group, spec.y_variance_classical)
    return BrightGaussianState(np.array([spec.amplitude]), cov, (tag,))


def compose(states: list[BrightGaussianState],
            excess_correlation: float = 1.0) -> BrightGaussianState:
    """Join states into one multimode state.

    The covariance is block-diagonal except for Y-Y cross terms between
    modes sharing a correlated_group tag: those get
    excess_correlation * sqrt(V_cls_i * V_cls_j), i.e. a common classical
    phase-noise realization (perfectly common-mode by default).
    """
    if not 0.0 <= excess_correlation <= 1.0:
        raise DomainError(f"excess_correlation must be in [0, 1], got {excess_correlation}")
    amps = np.concatenate([s.amplitudes for s in states]) if states else np.zeros(0)
    n = amps.size
    cov = np.zeros((2 * n, 2 * n))
    tags: list = []
    off = 0
    for s in states:
        k = s.n_modes
        cov[2 * off:2 * (off + k), 2 * off:2 * (off + k)] = s.cov
        tags.extend(s.noise_tags)
        off += k
    for i in range(n):
        for j in range(i + 1, n):
            ti, tj = tags[i], tags[j]
            if ti is not None and tj is not None and ti[0] == tj[0]:
                c = excess_correlation * np.sqrt(ti[1] * tj[1])
                cov[2 * i + 1, 2 * j + 1] = c
                cov[2 * j + 1, 2 * i + 1] = c
    return BrightGaussianState(amps, cov, tuple(tags))


def _embed(n: int, modes: tuple[int, ...], block: np.ndarray) -> np.ndarray:
    """Embed a symplectic block acting on the given modes into 2n x 2n."""
    s = np.eye(2 * n)
    idx = []
    for m in modes:
        idx.extend([2 * m, 2 * m + 1])
    s[np.ix_(idx, idx)] = block
    return s


def apply_beamsplitter(state: BrightGaussianState, i: int, j: int,
                       r: float, theta: float) -> BrightGaussianState:
    """Interfere modes i and j on a beam splitter.

    r is the intensity splitting ratio (0.5 = balanced) and theta the
    relative optical phase between the two input carriers.  Carriers
    interfere by the two-beam law; each output's fluctuation frame is
    re-aligned along its new carrier.  Dark outputs keep an arbitrary
    (identity) frame; detection on them raises later.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"splitting ratio must be in [0, 1], got {r}")
    if i == j:
        raise DomainError("beam splitter modes must be distinct")
    t, s = np.sqrt(1.0 - r), np.sqrt(r)
    a = state.amplitudes[i]
    b = state.amplitudes[j] * np.exp(1j * theta)
    g0 = t * a + s * b
    g1 = s * a - t * b
    scale = np.hypot(state.amplitudes[i], state.amplitudes[j])
    phi0 = float(np.angle(g0)) if abs(g0) > DARK_PORT_FACTOR * scale else 0.0
    phi1 = float(np.angle(g1)) if abs(g1) > DARK_PORT_FACTOR * scale else 0.0
    mix = np.block([[t * np.eye(2), s * np.eye(2)],
                    [s * np.eye(2), -t * np.eye(2)]])
    realign = np.zeros((4, 4))
    realign[:2, :2] = rotation2(-phi0)
    realign[2:, 2:] = rotation2(-phi1)
    pre = np.eye(4)
    pre[2:, 2:] = rotation2(theta)
    block = realign @ mix @ pre
    S = _embed(state.n_modes, (i, j), block)
    amps = np.array(state.amplitudes)
    amps[i], amps[j] = abs(g0), abs(g1)
    return BrightGaussianState(amps, S @ state.cov @ S.T, state.noise_tags)


def apply_phase(state: BrightGaussianState, mode: int, phi: float) -> BrightGaussianState:
    """Rotate the fluctuation frame of one mode by phi relative to its carrier."""
    S = _embed(state.n_modes, (mode,), rotation2(phi))
    return BrightGaussianState(state.amplitudes, S @ state.cov @ S.T, state.noise_tags)


def apply_loss(state: BrightGaussianState, mode: int, eta: float) -> BrightGaussianState:
    """Attenuate one mode with efficiency eta, admixing vacuum."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"efficiency must be in [0, 1], got {eta}")
    n = state.n_modes
    scaling = np.ones(2 * n)
    scaling[2 * mode:2 * mode + 2] = np.sqrt(eta)
    cov = state.cov * np.outer(scaling, scaling)
    cov = np.array(cov)
    for k in range(2):
        q = 2 * mode + k
        cov[q, q] += 1.0 - eta
    amps = np.array(state.amplitudes)
    amps[mode] *= np.sqrt(eta)
    return BrightGaussianState(amps, cov, state.noise_tags)


def direct_detect_variance(state: BrightGaussianState, mode: int) -> float:
    """Photocurrent variance in photon-number units: alpha^2 * V(dX)."""
    alpha = state.amplitudes[mode]
    if alpha <= 0:
        raise DegenerateModeError(
            f"mode {mode} has no carrier; direct detection linearization is invalid"
        )
    return float(alpha ** 2 * state.variance(mode, "X"))


def sample_fluctuations(state: BrightGaussianState, count: int, seed: int) -> np.ndarray:
    """Draw zero-mean Gaussian fluctuation samples (count x 2n).

    Deterministic for a fixed (state, count, seed).  This is the sampling
    oracle backing every analytic covariance claim in the test suite.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    w, v = np.linalg.eigh(state.cov)
    if w.min() < -PSD_TOL:
        raise DomainError("covariance matrix is not positive semi-definite")
    sqrt_cov = v * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, 2 * state.n_modes))
    return z @ sqrt_cov.T
