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
the same code.  A stacked input is one record whose numbers are arrays
over the stack, with one correlated_group for all of it.  All operations
are pure and return new states.  Each map checks its parameters once per
stack.

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
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModeError, DomainError
from .scenario import INPUT_FIELDS, PSD_TOL, _input_uncertainty_holds, db_to_var

SYM_TOL = 1e-12
# Carriers up to this fraction of the total carrier are dark (see dark_modes).
DARK_PORT_FACTOR = 1e-6


def float_if_scalar(x):
    """An unstacked (0-d) result as a Python float; a stacked one as is."""
    return float(x) if np.ndim(x) == 0 else x


def var_to_db(v):
    """Convert a linear variance ratio, or an array of them, to dB relative
    to shot noise.  NaN entries stay NaN."""
    v = np.asarray(v, dtype=float)
    bad = v <= 0.0
    if bad.any():
        raise DomainError(f"variance must be positive, got {v[bad].flat[0]}")
    return float_if_scalar(10.0 * np.log10(v))


def dark_modes(amplitudes) -> np.ndarray:
    """Where a carrier is dark: NaN or at most DARK_PORT_FACTOR times the
    total carrier sqrt(sum alpha^2) of the last axis, compared unsquared so
    huge carriers do not overflow.  A dark mode has no carrier-aligned
    frame and no shot-noise reference."""
    # hypot.reduce over the last axis, mode by mode: the same hypot calls in
    # the same order, without a reduction loop per stack element.
    total = amplitudes[..., 0]
    for k in range(1, amplitudes.shape[-1]):
        total = np.hypot(total, amplitudes[..., k])
    return ~(amplitudes > DARK_PORT_FACTOR * total[..., None])


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


def check_mode(state: BrightGaussianState, mode) -> None:
    """Raise DomainError unless mode is an integer in [0, n_modes)."""
    if isinstance(mode, bool) or not isinstance(mode, numbers.Integral) \
            or not 0 <= mode < state.n_modes:
        raise DomainError(f"mode must be an integer in [0, {state.n_modes}), got {mode!r}")


def rotation2(phi) -> np.ndarray:
    """Quadrature-plane rotation for a phase shift by phi (stacked for an array)."""
    return _put_rotation(np.empty(np.shape(phi) + (2, 2)), phi)


def _put_rotation(out: np.ndarray, phi) -> np.ndarray:
    """Write ``rotation2(phi)`` into the (..., 2, 2) array out; returns out."""
    c, s = np.cos(phi), np.sin(phi)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = c, -s, s, c
    return out


@functools.cache
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
_NOT_FINITE = "covariance entries are not finite: noise levels overflow double precision"
# Entries up to this size can be summed in pairs without overflow.
_LARGEST_ENTRY = np.finfo(float).max / 2


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
    try:
        lowest = np.linalg.eigvalsh(cov + _i_omega(cov.shape[-1]))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DomainError(_NOT_FINITE) from exc
    negative = lowest < -PSD_TOL
    if negative.any():
        # eigvalsh errs by a few ulps of the largest entry, so a negative
        # eigenvalue no larger than that may be rounding alone.
        rounding = -lowest <= cov.shape[-1] * np.finfo(float).eps * scale[..., 0, 0]
        if not (negative & ~rounding).any():
            raise DomainError(_LOST_TO_ROUNDING)
        raise DomainError("covariance matrix breaks the uncertainty relation: "
                          "V + i*Omega is not positive semi-definite")


@dataclass(frozen=True, eq=False)
class BrightGaussianState:
    """n-mode bright Gaussian state: real carriers + quadrature covariance.

    amplitudes has shape (..., n) and cov (..., 2n, 2n); leading axes
    index a stack of states.  Two states compare and hash by identity.
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
        # Not copied: the symmetrized covariance below is a new array.
        cov = np.asarray(cov, dtype=float)
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
        top = np.abs(cov).max(initial=1.0)
        if not top <= _LARGEST_ENTRY:  # also NaN
            raise DomainError(_NOT_FINITE)
        # Each covariance's scale is its largest entry, at least 1, so an
        # asymmetry within SYM_TOL is within SYM_TOL of every scale.
        check = not mapped or top > mapped_unchecked_scale(2 * n)
        if check or np.abs(cov - cov_t).max(initial=0.0) > SYM_TOL:
            scale = np.abs(cov).max(axis=(-2, -1), keepdims=True, initial=1.0)
            if (np.abs(cov - cov_t) > SYM_TOL * scale).any():
                raise DomainError("covariance matrix is not symmetric")
        cov = 0.5 * (cov + cov_t)
        if check:
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
        check_mode(self, mode)
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
    """Joined state of squeezed inputs: mode k from specs[k], a
    SqueezedInputSpec or a record with its fields whose numbers may be
    arrays over the stack, and one correlated_group.

    The covariance is diagonal except for Y-Y cross terms between inputs
    that share a correlated_group (not None): those get
    excess_correlation * sqrt(V_cls_i * V_cls_j), i.e. a common classical
    phase-noise realization (perfectly common-mode by default).
    """
    check_unit_range("excess_correlation", excess_correlation)
    # Each field of each input broadcast into its slot of one array shaped
    # (len(INPUT_FIELDS), ..., len(specs)).
    values = {(f, k): np.asarray(getattr(s, name), dtype=float)
              for f, name in enumerate(INPUT_FIELDS) for k, s in enumerate(specs)}
    fields = np.empty((len(INPUT_FIELDS),) + np.broadcast(*values.values()).shape
                      + (len(specs),))
    for (f, k), v in values.items():
        fields[f, ..., k] = v
    amplitude, squeezing, antisqueezing, excess = fields
    # Each input's x and y variance: SqueezedInputSpec's quantum parts plus
    # the classical pedestal, elementwise.  An overflowing sum leaves inf,
    # which the state rejects.
    x, y_quantum = db_to_var(-squeezing), db_to_var(antisqueezing)
    classical = db_to_var(excess) - 1.0
    with np.errstate(over="ignore"):
        y = y_quantum + classical
    n = amplitude.shape[-1]
    batch = np.broadcast_shapes(amplitude.shape[:-1], np.shape(excess_correlation))
    groups = [s.correlated_group for s in specs]
    shared = np.array([[i != j and g is not None and g == h for j, h in enumerate(groups)]
                       for i, g in enumerate(groups)])
    # Only shared pairs are multiplied; the others add nothing and may overflow.
    # An overflowing shared pair leaves inf or nan, which the state rejects.
    cov = np.zeros(batch + (2 * n, 2 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        classical_sq = np.multiply(classical[..., :, None], classical[..., None, :],
                                   out=np.zeros(batch + (n, n)), where=shared)
        cov[..., 1::2, 1::2] = (np.asarray(excess_correlation)[..., None, None]
                                * np.sqrt(classical_sq))
    # The diagonal of each covariance, (x1, y1, x2, y2, ...), as a view.
    diagonal = cov.reshape(batch + (4 * n * n,))[..., ::2 * n + 1]
    diagonal[..., 0::2], diagonal[..., 1::2] = x, y
    amps = np.empty(batch + (n,))
    amps[...] = amplitude
    # Inputs that meet their own uncertainty relation make a bona fide state
    # if each pedestal c >= 0: a group's shared noise adds eps s s^T +
    # (1 - eps) diag(c) >= 0, s = sqrt(c).  Others get the full check.
    if (_input_uncertainty_holds(x, y_quantum) & (classical >= 0)).all():
        return BrightGaussianState._mapped(amps, cov)
    return BrightGaussianState(amps, cov)


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
    check_mode(state, i)
    check_mode(state, j)
    if i == j:
        raise DomainError("beam splitter modes must be distinct")
    r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
    t, s = np.sqrt(1.0 - r), np.sqrt(r)
    a = state.amplitudes[..., i]
    b = state.amplitudes[..., j] * np.exp(1j * theta)
    plus, minus = t * a + s * b, s * a - t * b
    g = np.empty(plus.shape + (2,), complex)
    g[..., 0], g[..., 1] = plus, minus
    # hypot of the parts is abs() of a complex scalar to the last bit;
    # abs() of a complex array is not.  arctan2 of the parts is np.angle.
    m = np.hypot(g.real, g.imag)
    phi = np.where(dark_modes(m), 0.0, np.arctan2(g.imag, g.real))
    # The 4x4 matrices on (x_i, y_i, x_j, y_j), entry for entry those of the
    # 2x2 blocks [[t I, s I], [s I, -t I]], [[R(-phi_i), 0], [0, R(-phi_j)]]
    # and [[I, 0], [0, R(theta)]]; (-t) * I leaves -0.0 off its diagonal.
    mix = np.zeros(t.shape + (4, 4))
    mix[..., 0, 0] = mix[..., 1, 1] = t
    mix[..., 2, 2] = mix[..., 3, 3] = -t
    mix[..., 0, 2] = mix[..., 1, 3] = mix[..., 2, 0] = mix[..., 3, 1] = s
    mix[..., 2, 3] = mix[..., 3, 2] = -0.0
    realign = np.zeros(phi.shape[:-1] + (4, 4))
    _put_rotation(realign[..., :2, :2], -phi[..., 0])
    _put_rotation(realign[..., 2:, 2:], -phi[..., 1])
    pre = np.zeros(theta.shape + (4, 4))
    pre[..., 0, 0] = pre[..., 1, 1] = 1.0
    _put_rotation(pre[..., 2:, 2:], theta)
    S = _embed(state.n_modes, (i, j), realign @ mix @ pre)
    amps = np.empty(m.shape[:-1] + (state.n_modes,))
    amps[...] = state.amplitudes
    amps[..., i], amps[..., j] = m[..., 0], m[..., 1]
    return _congruence(state, S, amps)


def apply_phase(state: BrightGaussianState, mode: int, phi) -> BrightGaussianState:
    """Rotate the fluctuation frame of one mode by phi relative to its carrier."""
    check_mode(state, mode)
    S = _embed(state.n_modes, (mode,), rotation2(phi))
    return _congruence(state, S, state.amplitudes)


def apply_loss(state: BrightGaussianState, mode: int, eta) -> BrightGaussianState:
    """Attenuate one mode with efficiency eta, admixing vacuum."""
    return _apply_losses(state, ((mode, eta),))


def _apply_losses(state: BrightGaussianState, losses) -> BrightGaussianState:
    """Attenuate each (mode, eta) of losses in turn, admixing vacuum: the
    ``apply_loss`` maps one after another, bit for bit, on one covariance
    and made into one state."""
    for mode, eta in losses:
        check_unit_range("efficiency", eta)
        check_mode(state, mode)
    etas = [np.asarray(eta, dtype=float) for _, eta in losses]
    n = state.n_modes
    batch = np.broadcast_shapes(state.amplitudes.shape[:-1], *(eta.shape for eta in etas))
    amps = np.empty(batch + (n,))
    amps[...] = state.amplitudes
    cov = state.cov
    for k, ((mode, _), eta) in enumerate(zip(losses, etas)):
        if k and np.abs(cov).max() > mapped_unchecked_scale(2 * n):
            # The last loss's output, made a state as one apply_loss call
            # would make it: entries this large get the uncertainty test.
            cov = BrightGaussianState._mapped(amps, cov).cov
        root = np.sqrt(eta)
        scaling = np.ones(batch + (2 * n,))
        scaling[..., 2 * mode:2 * mode + 2] = root[..., None]
        # Each entry times the product of its two scalings, as one loss
        # alone takes it: the scalings of successive losses are not merged.
        cov = cov * (scaling[..., :, None] * scaling[..., None, :])
        vacuum = 1.0 - eta
        for q in (2 * mode, 2 * mode + 1):
            cov[..., q, q] += vacuum
        amps[..., mode] *= root
    return BrightGaussianState._mapped(amps, cov)


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
