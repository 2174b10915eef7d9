"""Bright Gaussian beams and linear-optics transformations.

A bright beam is modeled in the linearized picture: a large real classical
carrier amplitude alpha per mode plus Gaussian quadrature fluctuations
(dX, dY) whose frame is aligned along the classical excitation.  The full
n-mode fluctuation statistics live in a 2n x 2n covariance matrix with the
interleaved ordering [dX1, dY1, dX2, dY2, ...] in shot-noise units
(vacuum diagonal = 1).

States and maps work on stacks: amplitudes shaped (..., n) and
covariances shaped (..., 2n, 2n), with map parameters that broadcast
against the leading stack axes.  A single state is the unstacked case of
the same code.  A list of input records, one per stack element,
stands for a stacked record.  All operations are pure and return new
states.  Each map checks its parameters once per stack, and each new
state checks every covariance of its stack (symmetry, then positive
semi-definiteness with one batched eigvalsh) once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModeError, DomainError
from .units import db_to_var, is_finite_real

SYM_TOL = 1e-12
PSD_TOL = 1e-9
# Carriers up to this fraction of the total carrier are dark (see dark_modes).
DARK_PORT_FACTOR = 1e-6


def float_if_scalar(x):
    """An unstacked (0-d) result as a Python float; a stacked one as is."""
    return float(x) if np.ndim(x) == 0 else x


def dark_modes(amplitudes) -> np.ndarray:
    """Where a carrier is dark: NaN or at most DARK_PORT_FACTOR times the
    total carrier sqrt(sum alpha^2) of the last axis, compared unsquared so
    huge carriers do not overflow.  A dark mode has no carrier-aligned
    frame and no shot-noise reference."""
    total = np.hypot.reduce(amplitudes, axis=-1, keepdims=True)
    return ~(amplitudes > DARK_PORT_FACTOR * total)


def bright_carriers(state: BrightGaussianState, modes, message: str):
    """Carrier amplitudes of the given modes; DegenerateModeError(message)
    where any of them is dark."""
    if np.any(dark_modes(state.amplitudes)[..., modes]):
        raise DegenerateModeError(message)
    return state.amplitudes[..., modes]


def stacked(records, value):
    """value(record) of one record, or the array of value(r) over a list
    or tuple of records, one per stack element."""
    if isinstance(records, (list, tuple)):
        return np.array([value(r) for r in records])
    return value(records)


def check_unit_range(name: str, value):
    """Raise DomainError naming the first entry of value outside [0, 1]."""
    value = np.asarray(value)
    bad = ~((0.0 <= value) & (value <= 1.0))
    if np.any(bad):
        raise DomainError(f"{name} must be in [0, 1], got {value[bad].flat[0]}")


def rotation2(phi) -> np.ndarray:
    """Quadrature-plane rotation for a phase shift by phi (stacked for an array)."""
    c, s = np.cos(phi), np.sin(phi)
    rot = np.empty(np.shape(c) + (2, 2))
    rot[..., 0, 0], rot[..., 0, 1], rot[..., 1, 0], rot[..., 1, 1] = c, -s, s, c
    return rot


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
        group = self.correlated_group
        if group is not None and (not isinstance(group, int) or isinstance(group, bool)):
            raise DomainError(f"correlated_group must be an integer or null, got {group!r}")
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

    amplitudes has shape (..., n) and cov (..., 2n, 2n); leading axes
    index a stack of states.  noise_tags records, per mode, an optional
    (group, classical_variance) pair used by ``compose`` to insert
    common-mode phase-noise cross terms; the variance may be stacked.
    The tags are inert after composition.
    """

    amplitudes: np.ndarray
    cov: np.ndarray
    noise_tags: tuple = field(default=())

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if amps.ndim < 1:
            raise DomainError("amplitudes must be a 1-D vector or a stack of them")
        n = amps.shape[-1]
        if cov.shape != amps.shape[:-1] + (2 * n, 2 * n):
            raise DomainError(f"cov must be {2 * n}x{2 * n} for {n} modes, got {cov.shape}")
        if (amps < 0).any():
            raise DomainError("amplitudes must be non-negative")
        cov_t = np.swapaxes(cov, -1, -2)
        scale = np.abs(cov).max(axis=(-2, -1), keepdims=True, initial=1.0)
        if (np.abs(cov - cov_t) > SYM_TOL * scale).any():
            raise DomainError("covariance matrix is not symmetric")
        cov = 0.5 * (cov + cov_t)
        if (np.linalg.eigvalsh(cov) < -PSD_TOL).any():
            raise DomainError("covariance matrix is not positive semi-definite")
        tags = tuple(self.noise_tags) if self.noise_tags else tuple([None] * n)
        if len(tags) != n:
            raise DomainError("noise_tags length must match mode count")
        amps.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "noise_tags", tags)

    def __getitem__(self, k) -> "BrightGaussianState":
        """State k of a stack."""
        tags = tuple(t if t is None or np.ndim(t[1]) == 0 else (t[0], t[1][k])
                     for t in self.noise_tags)
        return BrightGaussianState(self.amplitudes[k], self.cov[k], tags)

    @property
    def n_modes(self) -> int:
        return self.amplitudes.shape[-1]

    def quad_index(self, mode: int, quadrature: str) -> int:
        if quadrature not in ("X", "Y"):
            raise DomainError(f"quadrature must be 'X' or 'Y', got {quadrature!r}")
        return 2 * mode + (0 if quadrature == "X" else 1)

    def variance(self, mode: int, quadrature: str):
        i = self.quad_index(mode, quadrature)
        return float_if_scalar(self.cov[..., i, i])

    def combination_variance(self, weights: np.ndarray):
        """Variance of a linear combination of quadrature fluctuations.

        weights has shape (..., 2n) and broadcasts against the stack.
        """
        w = np.asarray(weights, dtype=float)
        return float_if_scalar((w[..., None, :] @ self.cov @ w[..., :, None])[..., 0, 0])

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


def make_squeezed(spec) -> BrightGaussianState:
    """Single-mode amplitude-squeezed state from its input parameterization.

    A list of specs gives a stack; they must share one correlated_group.
    """
    groups = set(np.ravel(stacked(spec, lambda sp: sp.correlated_group)).tolist())
    if len(groups) != 1:
        raise DomainError(f"stacked inputs must share one correlated_group, got {groups}")
    group = groups.pop()
    amplitude, x, y, classical = np.array(stacked(spec, lambda sp: (
        sp.amplitude, sp.x_variance, sp.y_variance, sp.y_variance_classical))).T
    cov = np.zeros(x.shape + (2, 2))
    cov[..., 0, 0] = x
    cov[..., 1, 1] = y
    tag = None
    if group is not None and np.any(classical > 0):
        tag = (group, float_if_scalar(classical))
    return BrightGaussianState(amplitude[..., None], cov, (tag,))


def compose(states: list[BrightGaussianState],
            excess_correlation=1.0) -> BrightGaussianState:
    """Join states into one multimode state.

    The covariance is block-diagonal except for Y-Y cross terms between
    modes sharing a correlated_group tag: those get
    excess_correlation * sqrt(V_cls_i * V_cls_j), i.e. a common classical
    phase-noise realization (perfectly common-mode by default).
    """
    check_unit_range("excess_correlation", excess_correlation)
    batch = np.broadcast_shapes(*(s.amplitudes.shape[:-1] for s in states),
                                np.shape(excess_correlation))
    n = sum(s.n_modes for s in states)
    amps = np.empty(batch + (n,))
    cov = np.zeros(batch + (2 * n, 2 * n))
    tags: list = []
    off = 0
    for s in states:
        k = s.n_modes
        amps[..., off:off + k] = s.amplitudes
        cov[..., 2 * off:2 * (off + k), 2 * off:2 * (off + k)] = s.cov
        tags.extend(s.noise_tags)
        off += k
    for i in range(n):
        for j in range(i + 1, n):
            ti, tj = tags[i], tags[j]
            if ti is not None and tj is not None and ti[0] == tj[0]:
                c = excess_correlation * np.sqrt(ti[1] * tj[1])
                cov[..., 2 * i + 1, 2 * j + 1] = c
                cov[..., 2 * j + 1, 2 * i + 1] = c
    return BrightGaussianState(amps, cov, tuple(tags))


def _embed(n: int, modes: tuple[int, ...], block: np.ndarray) -> np.ndarray:
    """Embed a (stacked) symplectic block acting on the given modes into 2n x 2n."""
    if list(modes) == list(range(n)):
        return block
    s = np.array(np.broadcast_to(np.eye(2 * n), block.shape[:-2] + (2 * n, 2 * n)))
    idx = [q for m in modes for q in (2 * m, 2 * m + 1)]
    s[(..., *np.ix_(idx, idx))] = block
    return s


def _blocks(a, b, c, d) -> np.ndarray:
    """The 4x4 matrices [[a, b], [c, d]] of (stacked) 2x2 blocks."""
    out = np.empty(np.broadcast_shapes(*(x.shape[:-2] for x in (a, b, c, d))) + (4, 4))
    out[..., :2, :2], out[..., :2, 2:], out[..., 2:, :2], out[..., 2:, 2:] = a, b, c, d
    return out


def _congruence(state: BrightGaussianState, S: np.ndarray, amps) -> BrightGaussianState:
    """State with covariance S cov S^T and the given carriers."""
    cov = S @ state.cov @ np.swapaxes(S, -1, -2)
    amps = np.broadcast_to(amps, cov.shape[:-2] + (state.n_modes,))
    return BrightGaussianState(amps, cov, state.noise_tags)


def apply_beamsplitter(state: BrightGaussianState, i: int, j: int,
                       r, theta) -> BrightGaussianState:
    """Interfere modes i and j on a beam splitter.

    r is the intensity splitting ratio (0.5 = balanced) and theta the
    relative optical phase between the two input carriers.  Carriers
    interfere by the two-beam law; each output's fluctuation frame is
    re-aligned along its new carrier.  Outputs that ``dark_modes`` calls
    dark keep an arbitrary (identity) frame; detection on them raises.
    """
    check_unit_range("splitting ratio", r)
    if i == j:
        raise DomainError("beam splitter modes must be distinct")
    r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
    t, s = np.sqrt(1.0 - r), np.sqrt(r)
    a = state.amplitudes[..., i]
    b = state.amplitudes[..., j] * np.exp(1j * theta)
    g = np.stack((t * a + s * b, s * a - t * b), axis=-1)
    # hypot of the parts is abs() of a complex scalar to the last bit;
    # abs() of a complex array is not.
    m = np.hypot(g.real, g.imag)
    phi = np.where(dark_modes(m), 0.0, np.angle(g))
    eye = np.eye(2)
    t, s = t[..., None, None], s[..., None, None]
    mix = _blocks(t * eye, s * eye, s * eye, -t * eye)
    zero = np.zeros((2, 2))
    realign = _blocks(rotation2(-phi[..., 0]), zero, zero, rotation2(-phi[..., 1]))
    pre = _blocks(eye, zero, zero, rotation2(theta))
    S = _embed(state.n_modes, (i, j), realign @ mix @ pre)
    amps = np.empty(m.shape[:-1] + (state.n_modes,))
    amps[...] = state.amplitudes
    amps[..., i], amps[..., j] = m[..., 0], m[..., 1]
    return _congruence(state, S, amps)


def apply_phase(state: BrightGaussianState, mode: int, phi) -> BrightGaussianState:
    """Rotate the fluctuation frame of one mode by phi relative to its carrier."""
    S = _embed(state.n_modes, (mode,), rotation2(phi))
    return _congruence(state, S, state.amplitudes)


def apply_loss(state: BrightGaussianState, mode: int, eta) -> BrightGaussianState:
    """Attenuate one mode with efficiency eta, admixing vacuum."""
    check_unit_range("efficiency", eta)
    eta = np.asarray(eta, dtype=float)
    n = state.n_modes
    batch = np.broadcast_shapes(state.amplitudes.shape[:-1], eta.shape)
    scaling = np.ones(batch + (2 * n,))
    scaling[..., 2 * mode:2 * mode + 2] = np.sqrt(eta)[..., None]
    cov = state.cov * (scaling[..., :, None] * scaling[..., None, :])
    for k in range(2):
        q = 2 * mode + k
        cov[..., q, q] += 1.0 - eta
    amps = np.empty(batch + (n,))
    amps[...] = state.amplitudes
    amps[..., mode] *= np.sqrt(eta)
    return BrightGaussianState(amps, cov, state.noise_tags)


def direct_detect_variance(state: BrightGaussianState, mode: int):
    """Photocurrent variance in photon-number units: alpha^2 * V(dX)."""
    alpha = bright_carriers(
        state, mode, f"mode {mode} has no carrier; direct detection linearization is invalid")
    return float_if_scalar(alpha ** 2 * state.cov[..., 2 * mode, 2 * mode])


def sample_fluctuations(state: BrightGaussianState, count: int, seed: int) -> np.ndarray:
    """Draw zero-mean Gaussian fluctuation samples (count x 2n) of one state.

    Deterministic for a fixed (state, count, seed).  This is the sampling
    oracle backing every analytic covariance claim in the test suite; for
    a stack, sample ``state[k]``.
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
