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
the same code.  A stacked input record is a list of records, one per
stack element, or one record whose numbers are arrays over the stack.
All operations are pure and return new states.  Each map checks its
parameters once per stack.

A state is checked once where it enters: the public constructor (and
so ``from_dict``, ``compose`` and ``make_coherent``) tests every
covariance of its stack for finiteness and symmetry, then for the
uncertainty relation V + i*Omega >= 0 (Simon, PRL 84, 2726 (2000)) with
one batched complex eigvalsh; the vacuum is V = I.  Physical maps (beam
splitters, phases, loss) keep a state bona fide, and inputs that meet
their own uncertainty relation join into one, so map outputs, stack
elements and such ``squeezed_inputs`` get the finiteness and symmetry
tests but no eigendecomposition unless their entries are large enough
for rounding to matter (see ``mapped_unchecked_scale``).

A state is its carriers and covariance only: ``squeezed_inputs`` sets
the classical phase noise that inputs of one correlated_group share
where it joins their specs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModeError, DomainError
from .units import db_to_var, is_finite_real, var_to_db

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
    if dark_modes(state.amplitudes)[..., modes].any():
        raise DegenerateModeError(message)
    return state.amplitudes[..., modes]


def check_unit_range(name: str, value):
    """Raise DomainError naming the first entry of value outside [0, 1]."""
    value = np.asarray(value)
    bad = ~((0.0 <= value) & (value <= 1.0))
    if bad.any():
        raise DomainError(f"{name} must be in [0, 1], got {value[bad].flat[0]}")


def rotation2(phi) -> np.ndarray:
    """Quadrature-plane rotation for a phase shift by phi (stacked for an array)."""
    c, s = np.cos(phi), np.sin(phi)
    rot = np.empty(np.shape(c) + (2, 2))
    rot[..., 0, 0], rot[..., 0, 1], rot[..., 1, 0], rot[..., 1, 1] = c, -s, s, c
    return rot


# The numeric fields of a SqueezedInputSpec.
INPUT_FIELDS = ("amplitude", "squeezing_db", "antisqueezing_db", "excess_phase_db")


def _input_uncertainty_holds(x, y_quantum):
    """Where an input's own uncertainty relation x * y_quantum >= 1 holds, to PSD_TOL."""
    return x * y_quantum >= 1.0 - PSD_TOL


@dataclass(frozen=True)
class SqueezedInputSpec:
    """Parameterization of a fiber-squeezed input beam.

    squeezing_db is the amplitude-quadrature noise reduction below shot
    noise; antisqueezing_db the quantum part of the phase-quadrature noise
    above shot noise; excess_phase_db an additional classical phase-noise
    pedestal (thermal fiber noise).  Inputs sharing a correlated_group
    label share one classical phase-noise realization, correlated by the
    excess_correlation of ``squeezed_inputs``.
    """

    amplitude: float
    squeezing_db: float = 0.0
    antisqueezing_db: float = 0.0
    excess_phase_db: float = 0.0
    correlated_group: int | None = None

    def __post_init__(self):
        for name in INPUT_FIELDS:
            value = getattr(self, name)
            if not is_finite_real(value) or value < 0:
                raise DomainError(f"{name} must be a finite number >= 0, got {value!r}")
        group = self.correlated_group
        if group is not None and (not isinstance(group, int) or isinstance(group, bool)):
            raise DomainError(f"correlated_group must be an integer or null, got {group!r}")
        if not _input_uncertainty_holds(self.x_variance, self.y_variance_quantum):
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
        return db_to_var(self.excess_phase_db) - 1.0

    @property
    def y_variance(self) -> float:
        return self.y_variance_quantum + self.y_variance_classical


def mapped_unchecked_scale(dim: int) -> float:
    """Largest covariance entry up to which a map output of dimension dim
    skips the eigendecomposition of the uncertainty relation.

    A map of a bona fide state is bona fide in exact arithmetic: beam
    splitters and phases are orthogonal symplectic congruences S V S^T, and
    loss with eta in [0, 1] is a Gaussian channel.  In floating point an
    entry of S V S^T sums dim^2 products, so rounding moves it by about
    dim^2 * eps times the input's largest entry, which is at most dim times
    the output's; an eigenvalue of V + i*Omega moves by at most dim times
    the largest entry error.  While that total, dim^4 * eps * scale, stays
    below PSD_TOL, rounding cannot break the relation.  For two modes the
    bound is about 1.76e4.
    """
    return PSD_TOL / (dim ** 4 * np.finfo(float).eps)


_LOST_TO_ROUNDING = ("covariance entries are too large for double precision: "
                     "rounding breaks positive semi-definiteness")


@functools.cache
def _i_omega(dim: int) -> np.ndarray:
    """i*Omega for dim quadratures, built once per dimension (read-only)."""
    i_omega = 1j * np.kron(np.eye(dim // 2), [[0.0, 1.0], [-1.0, 0.0]])
    i_omega.setflags(write=False)
    return i_omega


def _check_bona_fide(cov: np.ndarray, scale: np.ndarray):
    """Raise DomainError unless V + i*Omega >= 0 for every covariance V of
    the stack, to PSD_TOL: the uncertainty relation, which also makes V
    positive definite.  Omega is one [[0, 1], [-1, 0]] block per mode in
    the (x1, y1, x2, y2, ...) order; ``scale`` is each V's largest entry."""
    lowest = np.linalg.eigvalsh(cov + _i_omega(cov.shape[-1]))[..., 0]
    negative = lowest < -PSD_TOL
    if negative.any():
        # eigvalsh errs by a few ulps of the largest entry, so a negative
        # eigenvalue no larger than that may be rounding alone.
        rounding = -lowest <= cov.shape[-1] * np.finfo(float).eps * scale[..., 0, 0]
        if not (negative & ~rounding).any():
            raise DomainError(_LOST_TO_ROUNDING)
        raise DomainError("covariance matrix breaks the uncertainty relation: "
                          "V + i*Omega is not positive semi-definite")


@dataclass(frozen=True)
class BrightGaussianState:
    """n-mode bright Gaussian state: real carriers + quadrature covariance.

    amplitudes has shape (..., n) and cov (..., 2n, 2n); leading axes
    index a stack of states.
    """

    amplitudes: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self._store(self.amplitudes, self.cov, mapped=False)

    @classmethod
    def _mapped(cls, amplitudes, cov) -> "BrightGaussianState":
        """A state known to be bona fide: made by a physical map (or stack
        indexing) from checked states, or by ``squeezed_inputs`` from inputs
        that pass their own uncertainty test.  The constructor's checks,
        except that the uncertainty relation is tested only where rounding
        could break it."""
        state = object.__new__(cls)
        state._store(amplitudes, cov, mapped=True)
        return state

    def _store(self, amplitudes, cov, mapped: bool):
        amps = np.array(amplitudes, dtype=float)
        cov = np.array(cov, dtype=float)
        if amps.ndim < 1:
            raise DomainError("amplitudes must be a 1-D vector or a stack of them")
        n = amps.shape[-1]
        if cov.shape != amps.shape[:-1] + (2 * n, 2 * n):
            raise DomainError(f"cov must be {2 * n}x{2 * n} for {n} modes, got {cov.shape}")
        if not np.isfinite(amps).all():
            raise DomainError(f"amplitudes must be finite, got {amps[~np.isfinite(amps)][0]}")
        if (amps < 0).any():
            raise DomainError("amplitudes must be non-negative")
        cov_t = np.swapaxes(cov, -1, -2)
        scale = np.abs(cov).max(axis=(-2, -1), keepdims=True, initial=1.0)
        if not np.isfinite(scale).all():
            raise DomainError("covariance entries are not finite: noise levels overflow "
                              "double precision")
        if (np.abs(cov - cov_t) > SYM_TOL * scale).any():
            raise DomainError("covariance matrix is not symmetric")
        cov = 0.5 * (cov + cov_t)
        if not mapped or scale.max(initial=0.0) > mapped_unchecked_scale(2 * n):
            _check_bona_fide(cov, scale)
        amps.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "cov", cov)

    def __getitem__(self, k) -> "BrightGaussianState":
        """State k of a stack."""
        return BrightGaussianState._mapped(self.amplitudes[k], self.cov[k])

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
    state: BrightGaussianState = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def read(cls, state: BrightGaussianState, *terms) -> "DetectionResult":
        """Photocurrent sum(w_i dQ_i) on dQ = [dX1, dY1, dX2, dY2, ...],
        read off a state and normalized to sum(w^2).

        Each term (i, *factors) sets w_i to the product of its factors;
        the other weights are zero.  NaN weights read NaN (a port of a
        stack dark there); a reading that overflows, or that rounding
        leaves at or below zero, raises DomainError."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = [math.prod(factors) for _, *factors in terms]
            weights = np.zeros(np.broadcast_shapes(*map(np.shape, values)) + (2 * state.n_modes,))
            for (index, *_), value in zip(terms, values):
                weights[..., index] = value
            shot_noise = shot_noise_reference(weights)
            variance = state.combination_variance(weights)
            normalized = variance / shot_noise
        if not (np.isnan(shot_noise) | (np.isfinite(shot_noise) & np.isfinite(normalized))).all():
            raise DomainError("photocurrent variance overflows: carrier amplitude, "
                              "gain or noise level too large")
        if (np.asarray(normalized) <= 0).any():
            raise DomainError("photocurrent variance is lost to rounding: covariance "
                              "entries are too large for double precision")
        return cls(variance, shot_noise, normalized, state, weights)

    @property
    def rel_db(self) -> float:
        """The normalized variance in dB relative to shot noise."""
        return var_to_db(self.normalized)

    def to_dict(self) -> dict:
        return {
            "variance": self.variance,
            "shot_noise": self.shot_noise,
            "normalized": self.normalized,
            "rel_db": self.rel_db,
        }


def shot_noise_reference(weights):
    """Coherent-state variance sum(w^2) of the photocurrent sum(w_i dQ_i),
    one per stack element for weights shaped (..., k)."""
    w = np.asarray(weights, dtype=float)
    total = (w * w).sum(axis=-1)
    if (total <= 0).any():
        raise DegenerateModeError("all-zero weights give no shot-noise reference")
    return float_if_scalar(total)


def make_coherent(amplitude: float) -> BrightGaussianState:
    """Single-mode coherent (or vacuum) state: cov = identity."""
    if amplitude < 0:
        raise DomainError(f"amplitude must be >= 0, got {amplitude}")
    return BrightGaussianState(np.array([amplitude]), np.eye(2))


def squeezed_inputs(specs, excess_correlation=1.0) -> BrightGaussianState:
    """Joined state of squeezed inputs: mode k from specs[k], which is one
    spec, a list of specs (one per stack element) or one record with a
    spec's fields whose numbers are arrays over the stack.

    The covariance is diagonal except for Y-Y cross terms between inputs
    that share a correlated_group (not None): those get
    excess_correlation * sqrt(V_cls_i * V_cls_j), i.e. a common classical
    phase-noise realization (perfectly common-mode by default).  Groups
    are compared element by element over a stack.
    """
    check_unit_range("excess_correlation", excess_correlation)

    def column(name, dtype=float):
        """Field `name` of every input, with the input index last."""
        return np.stack(np.broadcast_arrays(*(
            np.array([getattr(r, name) for r in s], dtype) if isinstance(s, (list, tuple))
            else np.asarray(getattr(s, name), dtype) for s in specs)), -1)

    amplitude, squeezing, antisqueezing, excess = np.broadcast_arrays(*map(column, INPUT_FIELDS))
    groups = column("correlated_group", object)
    # The variances of SqueezedInputSpec, elementwise.  An overflowing sum
    # leaves inf, which the state rejects.
    x, y_quantum = db_to_var(-squeezing), db_to_var(antisqueezing)
    classical = db_to_var(excess) - 1.0
    with np.errstate(over="ignore"):
        y = y_quantum + classical
    n = amplitude.shape[-1]
    batch = np.broadcast_shapes(amplitude.shape[:-1], np.shape(excess_correlation))
    shared = ((groups[..., :, None] == groups[..., None, :]) & ~np.eye(n, dtype=bool)
              & np.not_equal(groups, None)[..., None])
    # Only shared pairs are multiplied; the others add nothing and may overflow.
    # An overflowing shared pair leaves inf or nan, which the state rejects.
    cov = np.zeros(batch + (2 * n, 2 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        classical_sq = np.multiply(classical[..., :, None], classical[..., None, :],
                                   out=np.zeros(batch + (n, n)), where=shared)
        cov[..., 1::2, 1::2] = (np.asarray(excess_correlation)[..., None, None]
                                * np.sqrt(classical_sq))
    k = np.arange(n)
    cov[..., 2 * k, 2 * k] = x
    cov[..., 2 * k + 1, 2 * k + 1] = y
    amps = np.broadcast_to(amplitude, batch + (n,))
    # Inputs that meet their own uncertainty relation make a bona fide state
    # if each pedestal c >= 0: a group's shared noise adds eps s s^T +
    # (1 - eps) diag(c) >= 0, s = sqrt(c).  Others get the full check.
    if (_input_uncertainty_holds(x, y_quantum) & (classical >= 0)).all():
        return BrightGaussianState._mapped(amps, cov)
    return BrightGaussianState(amps, cov)


def make_squeezed(spec) -> BrightGaussianState:
    """Single-mode squeezed state of one spec (a stack for a list of specs)."""
    return squeezed_inputs([spec])


def compose(states: list[BrightGaussianState]) -> BrightGaussianState:
    """Join independent states: carriers side by side, block-diagonal covariance."""
    batch = np.broadcast_shapes(*(s.amplitudes.shape[:-1] for s in states))
    n = sum(s.n_modes for s in states)
    amps = np.empty(batch + (n,))
    cov = np.zeros(batch + (2 * n, 2 * n))
    off = 0
    for s in states:
        k = s.n_modes
        amps[..., off:off + k] = s.amplitudes
        cov[..., 2 * off:2 * (off + k), 2 * off:2 * (off + k)] = s.cov
        off += k
    return BrightGaussianState(amps, cov)


def _embed(n: int, modes: tuple[int, ...], block: np.ndarray) -> np.ndarray:
    """Embed a (stacked) symplectic block acting on the given modes into 2n x 2n."""
    idx = [q for m in modes for q in (2 * m, 2 * m + 1)]
    if idx == list(range(2 * n)):
        return block  # it already acts on every mode, in order
    s = np.array(np.broadcast_to(np.eye(2 * n), block.shape[:-2] + (2 * n, 2 * n)))
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
    return BrightGaussianState._mapped(amps, cov)


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
    return BrightGaussianState._mapped(amps, cov)


def direct_detect_variance(state: BrightGaussianState, mode: int):
    """Photocurrent variance in photon-number units: alpha^2 * V(dX)."""
    alpha = bright_carriers(
        state, mode, f"mode {mode} has no carrier; direct detection linearization is invalid")
    return DetectionResult.read(state, (2 * mode, alpha)).variance


# Rows of standard normals drawn and mapped at a time by sample_fluctuations
# (see there for the size).
_CHUNK_ROWS = 16384


def sample_fluctuations(state: BrightGaussianState, count: int, seed: int,
                        weights=None, out=None) -> np.ndarray | list:
    """Draw zero-mean Gaussian fluctuation samples (count x 2n) of one state,
    or with ``weights`` (m x 2n) only their projections (m x count), row q
    being ``samples @ weights[q]``.  ``out``, if given, is filled and
    returned instead of a new array: a float64 array of the result's shape
    or, with weights, a list of m float64 arrays of count, one per
    projection.

    Deterministic for a fixed (state, count, seed).  This is the sampling
    oracle backing every analytic covariance claim in the test suite; for
    a stack, sample ``state[k]``.

    The draw is streamed: each chunk of at most ``_CHUNK_ROWS`` rows of
    standard normals goes into one reused buffer from the one seeded
    generator, whose stream is sequential, and is mapped and projected
    before the next.  So the samples and projections equal those of one
    whole draw bit for bit, and with weights no count x 2n array exists.
    A chunk never has one row unless the draw does: numpy multiplies a
    single row on its vector path, which can round differently.

    Chunks are 16 384 rows so that a two-mode chunk's (rows x 4) @ (4 x 4)
    product stays at OpenBLAS's single-thread cutoff (M*N*K <= 2**18).
    ``harness._mc_columns`` runs independent draws side by side on lanes
    (threads), each reusing its ``out`` from draw to draw; at 65 536 rows
    and two BLAS threads, each chunk's product started a BLAS thread that
    competed with the other draw, and two draws side by side took longer
    than one after the other.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    w, v = np.linalg.eigh(state.cov)
    if w.min() < -PSD_TOL:
        # A state is bona fide when it is made, so this is rounding alone.
        raise DomainError(_LOST_TO_ROUNDING)
    sqrt_cov_t = (v * np.sqrt(np.clip(w, 0.0, None))).T
    dim = 2 * state.n_modes
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
    # The result is allocated before the chunk buffers: at 1e6 samples the
    # other order peaked 2 MB higher in RSS (Linux, glibc malloc).
    if out is None:
        out = np.empty((count, dim) if weights is None else (len(weights), count))
    z = np.empty((min(count, _CHUNK_ROWS + 1), dim))
    mapped = None if weights is None else np.empty_like(z)
    rng = np.random.default_rng(seed)
    lo = 0
    while lo < count:
        # A remainder of one row joins the last full chunk.
        hi = count if count - lo <= _CHUNK_ROWS + 1 else lo + _CHUNK_ROWS
        rows = hi - lo
        rng.standard_normal(out=z[:rows])
        if weights is None:
            np.matmul(z[:rows], sqrt_cov_t, out=out[lo:hi])
        else:
            np.matmul(z[:rows], sqrt_cov_t, out=mapped[:rows])
            for q, vector in enumerate(weights):
                np.matmul(mapped[:rows], vector, out=out[q][lo:hi])
        lo = hi
    return out
