import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from brightbeam import (
    BrightGaussianState,
    DetectionResult,
    SqueezedInputSpec,
    apply_beamsplitter,
    apply_loss,
    apply_phase,
    compose,
    db_to_var,
    make_coherent,
    sample_fluctuations,
    squeezed_inputs,
)
from brightbeam import detection
from brightbeam.entangle import generate_entangled
from brightbeam.errors import DegenerateModeError, DomainError
from brightbeam.scenario import INPUT_FIELDS
from brightbeam.states import (
    _CHUNK_ROWS,
    _apply_losses,
    dark_modes,
    mapped_unchecked_scale,
    rotation2,
)


def paper_bs_matrix(theta):
    """Balanced-splitter quadrature transform for equal input amplitudes,
    written out coefficient by coefficient (independent reference for the
    beam splitter sign convention).  Row order [Xa, Ya, Xb, Yb] -> same."""
    c, s = math.cos(theta), math.sin(theta)
    k1 = 0.5 / math.sqrt(1 + c)
    k2 = 0.5 / math.sqrt(1 - c)
    return np.array([
        [k1 * (1 + c), k1 * s, k1 * (1 + c), -k1 * s],
        [-k1 * s, k1 * (1 + c), k1 * s, k1 * (1 + c)],
        [k2 * (1 - c), -k2 * s, k2 * (1 - c), k2 * s],
        [k2 * s, k2 * (1 - c), -k2 * s, k2 * (1 - c)],
    ])


def random_two_mode_state(rng, amplitude=50.0):
    # m m^T + I is bona fide: the vacuum plus classical noise.
    m = rng.normal(size=(4, 4))
    cov = m @ m.T + np.eye(4)
    return BrightGaussianState(np.full(2, amplitude), cov)


class TestConstructors:
    def test_vacuum(self):
        st = make_coherent(0.0)
        assert st.amplitudes[0] == 0.0
        assert np.array_equal(st.cov, np.eye(2))

    def test_bright_coherent(self):
        st = make_coherent(1000.0)
        assert st.amplitudes[0] == 1000.0
        assert np.array_equal(st.cov, np.eye(2))

    def test_states_compare_and_hash_by_identity(self):
        # Value equality over the array fields would raise ValueError (an
        # array's truth value is ambiguous), and hashing them TypeError.
        st, twin = make_coherent(1.0), make_coherent(1.0)
        assert st == st and st != twin
        assert len({st, st, twin}) == 2

    def test_negative_amplitude_rejected(self):
        with pytest.raises(DomainError):
            make_coherent(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_amplitude_rejected(self, bad):
        # A NaN carrier passes "amplitude < 0", so finiteness is checked first.
        with pytest.raises(DomainError, match="amplitudes must be finite"):
            make_coherent(bad)
        with pytest.raises(DomainError, match="amplitudes must be finite"):
            BrightGaussianState(np.array([[1.0, 1.0], [1.0, bad]]),
                                np.broadcast_to(np.eye(4), (2, 4, 4)))

    def test_minimum_uncertainty_squeezed(self):
        st = squeezed_inputs([SqueezedInputSpec(100, 3.01, 3.01)])
        assert st.variance(0, "X") == pytest.approx(0.500, abs=5e-4)
        assert st.variance(0, "Y") == pytest.approx(2.000, abs=2e-3)

    def test_excess_noise_stacks_on_antisqueezing(self):
        st = squeezed_inputs([SqueezedInputSpec(100, 3.0, 3.0, excess_phase_db=23.0)])
        expected = db_to_var(3.0) + db_to_var(23.0) - 1.0
        assert st.variance(0, "Y") == pytest.approx(expected, rel=1e-12)
        # total individual noise sits at ~23 dB above shot noise
        assert 10 * math.log10(st.variance(0, "Y")) == pytest.approx(23.0, abs=0.05)

    def test_heisenberg_violation_rejected(self):
        with pytest.raises(DomainError):
            SqueezedInputSpec(100, squeezing_db=3.0, antisqueezing_db=1.0)

    def test_direct_detect_coherent_matches_sampling_oracle(self):
        # independent oracle: empirical variance of a * dX with dX ~ N(0, 1)
        a = 37.0
        rng = np.random.default_rng(12345)
        samples = a * rng.standard_normal(1_000_000)
        empirical = samples.var(ddof=1)
        analytic = DetectionResult.read(make_coherent(a), (0, a)).variance
        se = empirical * math.sqrt(2 / 999_999)
        assert abs(analytic - empirical) < 3 * se
        assert analytic == a ** 2


class TestCompose:
    def test_two_vacua(self):
        st = compose([make_coherent(0), make_coherent(0)])
        assert st.n_modes == 2
        assert np.array_equal(st.cov, np.eye(4))

    def test_independent_modes_block_diagonal(self):
        a = squeezed_inputs([SqueezedInputSpec(10, 3, 3)])
        b = squeezed_inputs([SqueezedInputSpec(10, 1, 2)])
        st = compose([a, b])
        assert np.all(st.cov[:2, 2:] == 0)

    def test_correlated_group_cross_term(self):
        spec = SqueezedInputSpec(10, 3, 3, excess_phase_db=20.0, correlated_group=1)
        st = squeezed_inputs([spec, spec])
        assert st.cov[1, 3] == pytest.approx(99.0, rel=1e-12)

    def test_correlated_group_matches_sampling_construction(self):
        # oracle: draw a shared classical phase variable and add it to two
        # independent quantum phase fluctuations, then measure covariance
        rng = np.random.default_rng(7)
        n = 500_000
        v_cls = db_to_var(20.0) - 1.0
        shared = rng.normal(scale=math.sqrt(v_cls), size=n)
        y1 = rng.normal(scale=math.sqrt(db_to_var(3.0)), size=n) + shared
        y2 = rng.normal(scale=math.sqrt(db_to_var(3.0)), size=n) + shared
        empirical = np.cov(y1, y2)[0, 1]
        se = math.sqrt((v_cls + db_to_var(3.0)) ** 2 + v_cls ** 2) / math.sqrt(n)
        assert abs(empirical - 99.0) < 3 * se

    def test_partial_correlation_scales_cross_term(self):
        spec = SqueezedInputSpec(10, 3, 3, excess_phase_db=20.0, correlated_group=1)
        st = squeezed_inputs([spec, spec], excess_correlation=0.5)
        assert st.cov[1, 3] == pytest.approx(49.5, rel=1e-12)


class TestBeamsplitter:
    def test_balanced_pi_half_mixes_squeezing(self):
        spec = SqueezedInputSpec(100, 3.0103, 3.0103)
        st = compose([squeezed_inputs([spec]), squeezed_inputs([spec])])
        out = apply_beamsplitter(st, 0, 1, 0.5, math.pi / 2)
        for mode in (0, 1):
            for q in "XY":
                assert out.variance(mode, q) == pytest.approx(1.25, abs=1e-4)
        v_sum = out.cov[0, 0] + out.cov[2, 2] + 2 * out.cov[0, 2]
        assert v_sum == pytest.approx(1.0, abs=2e-4)

    def test_constructive_port_theta_zero(self):
        st = compose([make_coherent(10), make_coherent(10)])
        out = apply_beamsplitter(st, 0, 1, 0.5, 0.0)
        assert sorted(out.amplitudes) == pytest.approx([0.0, 10 * math.sqrt(2)], abs=1e-9)

    def test_vacuum_stays_vacuum(self):
        st = compose([make_coherent(0), make_coherent(0)])
        out = apply_beamsplitter(st, 0, 1, 0.5, math.pi / 2)
        assert np.allclose(out.cov, np.eye(4), atol=1e-12)

    def test_matches_reference_coefficients(self):
        # frame consistency: balanced splitter on equal amplitudes must act
        # exactly as the reference coefficient matrix, for any input cov
        rng = np.random.default_rng(3)
        for theta in (0.3, 1.0, math.pi / 2, 2.5):
            st = random_two_mode_state(rng)
            out = apply_beamsplitter(st, 0, 1, 0.5, theta)
            m = paper_bs_matrix(theta)
            assert np.allclose(out.cov, m @ st.cov @ m.T, atol=1e-10)

    def test_photon_number_conserved(self):
        rng = np.random.default_rng(11)
        st = BrightGaussianState(np.array([30.0, 40.0]), np.eye(4))
        for theta, r in [(0.7, 0.3), (2.0, 0.5), (1.1, 0.9)]:
            out = apply_beamsplitter(st, 0, 1, r, theta)
            assert np.sum(out.amplitudes ** 2) == pytest.approx(2500.0, rel=1e-9)

    @pytest.mark.parametrize("i, j", [(0, 2), (2, 0)])
    def test_three_mode_state_equals_its_6x6_congruence(self, i, j):
        # Modes 0 and 2 share phase noise; mode 1 stays outside the splitter.
        st = squeezed_inputs([SqueezedInputSpec(30.0, 3.0, 4.0, 2.0, correlated_group=1),
                              SqueezedInputSpec(20.0, 1.0, 1.5),
                              SqueezedInputSpec(40.0, 2.0, 5.0, 3.0, correlated_group=1)])
        r, theta = 0.3, 1.1

        def rot(phi):
            return np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])

        t, s, eye, zero = math.sqrt(1 - r), math.sqrt(r), np.eye(2), np.zeros((2, 2))
        a, b = st.amplitudes[i], st.amplitudes[j] * np.exp(1j * theta)
        out_i, out_j = t * a + s * b, s * a - t * b
        pre = np.block([[eye, zero], [zero, rot(theta)]])
        mix = np.block([[t * eye, s * eye], [s * eye, -t * eye]])
        realign = np.block([[rot(-np.angle(out_i)), zero], [zero, rot(-np.angle(out_j))]])
        S = np.eye(6)
        idx = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
        S[np.ix_(idx, idx)] = realign @ mix @ pre
        amps = st.amplitudes.copy()
        amps[i], amps[j] = abs(out_i), abs(out_j)

        out = apply_beamsplitter(st, i, j, r, theta)
        assert np.allclose(out.cov, S @ st.cov @ S.T, rtol=0, atol=1e-12)
        assert out.amplitudes == pytest.approx(amps, rel=1e-12)
        assert np.array_equal(out.cov[2:4, 2:4], st.cov[2:4, 2:4])

    def test_two_mode_splitter_in_either_mode_order(self):
        # Splitting (1, 0) is splitting (0, 1) of the state with its modes swapped.
        cov = random_two_mode_state(np.random.default_rng(5)).cov
        st = BrightGaussianState(np.array([30.0, 40.0]), cov)
        swap = np.ix_([2, 3, 0, 1], [2, 3, 0, 1])
        ref = apply_beamsplitter(BrightGaussianState(st.amplitudes[::-1], cov[swap]),
                                 0, 1, 0.3, 1.1)
        out = apply_beamsplitter(st, 1, 0, 0.3, 1.1)
        assert out.amplitudes == pytest.approx(ref.amplitudes[::-1], rel=1e-12)
        assert np.allclose(out.cov, ref.cov[swap], rtol=0, atol=1e-12)

    def test_invalid_ratio_rejected(self):
        st = compose([make_coherent(1), make_coherent(1)])
        with pytest.raises(DomainError):
            apply_beamsplitter(st, 0, 1, 1.2, 0.0)


class TestLoss:
    def test_unit_efficiency_is_identity(self):
        st = squeezed_inputs([SqueezedInputSpec(10, 3, 5)])
        out = apply_loss(st, 0, 1.0)
        assert np.allclose(out.cov, st.cov, atol=1e-15)
        assert out.amplitudes[0] == st.amplitudes[0]

    def test_vacuum_fixed_point(self):
        for eta in (0.0, 0.3, 0.9):
            out = apply_loss(make_coherent(0), 0, eta)
            assert np.allclose(out.cov, np.eye(2), atol=1e-15)

    def test_matches_beamsplitter_with_vacuum_oracle(self):
        # independent route: loss channel == interference with vacuum on a
        # splitter of transmission eta, discarding the vacuum port
        eta = 0.73
        st = squeezed_inputs([SqueezedInputSpec(10, 3.0103, 3.0103)])
        direct = apply_loss(st, 0, eta)
        joint = compose([st, make_coherent(0)])
        # transmission sqrt(eta) for mode 0 -> splitting ratio r = 1 - eta
        mixed = apply_beamsplitter(joint, 0, 1, 1.0 - eta, 0.0)
        assert np.allclose(direct.cov, mixed.cov[:2, :2], atol=1e-12)
        assert direct.amplitudes[0] == pytest.approx(mixed.amplitudes[0], rel=1e-12)
        assert direct.variance(0, "X") == pytest.approx(0.73 * 0.5 + 0.27, abs=1e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            apply_loss(make_coherent(1), 0, 1.5)


# Each entry point that takes a mode index, on a two-mode state.
MODE_CALLS = {
    "quad_index": lambda st, m: st.quad_index(m, "X"),
    "variance": lambda st, m: st.variance(m, "Y"),
    "apply_loss": lambda st, m: apply_loss(st, m, 0.5),
    "apply_phase": lambda st, m: apply_phase(st, m, 0.3),
    "apply_beamsplitter_i": lambda st, m: apply_beamsplitter(st, m, 1, 0.5, 0.0),
    "apply_beamsplitter_j": lambda st, m: apply_beamsplitter(st, 0, m, 0.5, 0.0),
}


@pytest.mark.parametrize("mode", [-1, 2, 1.0, True])
@pytest.mark.parametrize("call", MODE_CALLS.values(), ids=MODE_CALLS)
def test_mode_outside_the_state_rejected(call, mode):
    # -1 once read the last mode, or attenuated nothing while adding vacuum.
    pair = compose([squeezed_inputs([SqueezedInputSpec(10, 3, 3)]), make_coherent(10)])
    with pytest.raises(DomainError, match=r"mode must be an integer in \[0, 2\)"):
        call(pair, mode)


class TestPhase:
    def test_zero_is_identity(self):
        st = squeezed_inputs([SqueezedInputSpec(10, 3, 3)])
        out = apply_phase(st, 0, 0.0)
        assert np.allclose(out.cov, st.cov, atol=1e-15)

    def test_quarter_turn_swaps_quadratures(self):
        st = squeezed_inputs([SqueezedInputSpec(10, 3.0103, 3.0103)])
        out = apply_phase(st, 0, math.pi / 2)
        assert out.variance(0, "X") == pytest.approx(2.0, abs=1e-3)
        assert out.variance(0, "Y") == pytest.approx(0.5, abs=1e-3)

    def test_eighth_turn_explicit_congruence(self):
        st = BrightGaussianState(np.array([10.0]), np.diag([0.5, 2.0]))
        out = apply_phase(st, 0, math.pi / 4)
        assert out.variance(0, "X") == pytest.approx(1.25, abs=1e-12)
        assert abs(out.cov[0, 1]) == pytest.approx(0.75, abs=1e-12)


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        st = squeezed_inputs([SqueezedInputSpec(10, 3, 3)])
        a = sample_fluctuations(st, 1000, seed=42)
        b = sample_fluctuations(st, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_vacuum_empirical_covariance(self):
        st = compose([make_coherent(0), make_coherent(0)])
        samples = sample_fluctuations(st, 1_000_000, seed=1)
        emp = np.cov(samples.T)
        assert np.all(np.abs(np.diag(emp) - 1.0) < 0.01)
        off = emp - np.diag(np.diag(emp))
        assert np.max(np.abs(off)) < 0.005

    def test_squeezed_variance_tight_bound(self):
        st = squeezed_inputs([SqueezedInputSpec(10, 3.0103, 3.0103)])
        samples = sample_fluctuations(st, 1_000_000, seed=2)
        assert 0.495 < samples[:, 0].var(ddof=1) < 0.505

    def test_count_must_be_positive(self):
        with pytest.raises(DomainError):
            sample_fluctuations(make_coherent(1), 0, 0)

    @settings(max_examples=30)
    @given(state_seed=hs.integers(0, 2 ** 32 - 1), seed=hs.integers(0, 2 ** 32 - 1),
           vectors=hs.integers(1, 5),
           count=hs.sampled_from([2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                  2 * _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 17]))
    def test_chunked_draw_is_the_whole_draw(self, state_seed, seed, vectors, count):
        # Streaming the draw in chunks changes no bit of the samples or of
        # their projections, whatever the size of the last chunk.
        rng = np.random.default_rng(state_seed)
        state = BrightGaussianState(*random_physical_pair(rng))
        weights = rng.normal(size=(vectors, 4))
        w, v = np.linalg.eigh(state.cov)
        whole = (np.random.default_rng(seed).standard_normal((count, 4))
                 @ (v * np.sqrt(np.clip(w, 0.0, None))).T)
        samples = sample_fluctuations(state, count, seed)
        assert np.array_equal(samples, whole)
        projections = sample_fluctuations(state, count, seed, weights)
        assert projections.shape == (vectors, count)
        for q, vector in enumerate(weights):
            assert np.array_equal(projections[q], samples @ vector)


class TestOracleEquivalence:
    def test_random_element_sequences(self):
        # analytic covariance vs sampling oracle after random op chains
        rng = np.random.default_rng(99)
        n_samples = 1_000_000
        for trial in range(3):
            spec_a = SqueezedInputSpec(50, rng.uniform(0, 4), rng.uniform(4, 6))
            spec_b = SqueezedInputSpec(50, rng.uniform(0, 4), rng.uniform(4, 6))
            st = compose([squeezed_inputs([spec_a]), squeezed_inputs([spec_b])])
            for _ in range(rng.integers(1, 6)):
                op = rng.integers(3)
                if op == 0:
                    st = apply_beamsplitter(st, 0, 1, rng.uniform(0.2, 0.8),
                                            rng.uniform(0.3, 2.8))
                elif op == 1:
                    st = apply_loss(st, int(rng.integers(2)), rng.uniform(0.5, 1.0))
                else:
                    st = apply_phase(st, int(rng.integers(2)), rng.uniform(0, math.pi))
            samples = sample_fluctuations(st, n_samples, seed=100 + trial)
            emp = np.cov(samples.T)
            c = st.cov
            se = np.sqrt((np.outer(np.diag(c), np.diag(c)) + c ** 2) / n_samples)
            assert np.all(np.abs(emp - c) < 3.5 * se)


class TestDirectDetection:
    """Direct detection of one beam: the photocurrent alpha dX, read off the state."""

    def test_shot_noise_level(self):
        assert DetectionResult.read(make_coherent(100), (0, 100.0)).variance == pytest.approx(1e4)

    def test_squeezed_level(self):
        st = squeezed_inputs([SqueezedInputSpec(100, 3.0103, 3.0103)])
        assert DetectionResult.read(st, (0, 100.0)).variance == pytest.approx(5e3, rel=1e-3)

    def test_dark_beam_rejected(self):
        with pytest.raises(DegenerateModeError):
            DetectionResult.read(make_coherent(0), (0, 0.0))

    def test_overflow_rejected(self):
        # The carrier's square overflows, as in every other reading.
        with pytest.raises(DomainError, match="photocurrent variance overflows"):
            DetectionResult.read(make_coherent(1e200), (0, 1e200))

    def test_stack_reads_each_element(self):
        st = make_coherent(3.7)
        stacked = BrightGaussianState(np.array([[3.7], [100.0]]), np.stack([st.cov, st.cov]))
        assert DetectionResult.read(stacked, (0, stacked.amplitudes[:, 0])).variance.tolist() == [
            DetectionResult.read(st, (0, 3.7)).variance,
            DetectionResult.read(make_coherent(100.0), (0, 100.0)).variance]


def test_correlated_inputs_survive_serialization():
    spec = SqueezedInputSpec(10, 3, 3, excess_phase_db=20.0, correlated_group=1)
    st = squeezed_inputs([spec, spec])
    back = BrightGaussianState.from_dict(st.to_dict())
    assert back.cov[1, 3] == pytest.approx(99.0, rel=1e-12)
    assert np.array_equal(back.cov, st.cov)
    one = squeezed_inputs([spec])
    assert np.array_equal(compose([BrightGaussianState.from_dict(one.to_dict())] * 2).cov,
                          compose([one, one]).cov)


def test_serialization_roundtrip():
    st = squeezed_inputs([SqueezedInputSpec(10, 3, 5, excess_phase_db=10, correlated_group=2)])
    d = st.to_dict()
    assert set(d) == {"amplitudes", "cov"}
    back = BrightGaussianState.from_dict(d)
    assert np.array_equal(back.amplitudes, st.amplitudes)
    assert np.array_equal(back.cov, st.cov)


def test_symmetry_tolerance_scales_with_each_covariance():
    # An asymmetry of 1e-8 is 1e-14 of entries of 1e6, but 1e-8 of entries of 1.
    large = np.array([[1e6, 1e-8], [0.0, 1e6]])
    state = BrightGaussianState(np.array([1.0]), large)
    assert state.cov[0, 1] == state.cov[1, 0] == 0.5e-8
    with pytest.raises(DomainError, match="not symmetric"):
        BrightGaussianState(np.array([[1.0], [1.0]]),
                            np.stack([large, [[1.0, 1e-8], [0.0, 1.0]]]))


def test_entries_above_half_the_float_range_are_not_finite():
    # The symmetrization adds each entry to its transpose's, which overflows
    # above half the float range.
    half = np.finfo(float).max / 2
    assert BrightGaussianState(np.array([1.0]), np.diag([1.0, half])).cov[1, 1] == half
    for state in (BrightGaussianState, BrightGaussianState._mapped):
        with pytest.raises(DomainError, match="covariance entries are not finite"):
            state(np.array([1.0]), np.diag([1.0, 1e308]))


def test_failed_eigendecomposition_is_a_domain_error(monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(DomainError, match="covariance entries are not finite"):
        BrightGaussianState(np.array([1.0]), np.eye(2))


def test_invalid_covariances_rejected():
    with pytest.raises(DomainError):
        BrightGaussianState(np.array([1.0]), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        BrightGaussianState(np.array([1.0]), np.array([[1.0, 0.0], [0.0, -1.0]]))


OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def plane_rotation(phi):
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


def random_physical_pair(rng):
    """A two-mode state V = S diag(nu) S^T with nu >= 1 and S symplectic."""
    cov = np.diag(np.repeat(rng.uniform(1.0, 3.0, 2), 2))
    for _ in range(3):
        r = rng.uniform(-1.0, 1.0, 2)
        squeeze = np.diag(np.exp([-r[0], r[0], -r[1], r[1]]))
        angle = rng.uniform(0, np.pi)
        c, s = np.cos(angle), np.sin(angle)
        mix = np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])
        S = mix @ np.kron(np.eye(2), plane_rotation(rng.uniform(0, 2 * np.pi))) @ squeeze
        cov = S @ cov @ S.T
    return rng.uniform(1.0, 100.0, 2), cov


def assert_physical(state):
    """PSD and the uncertainty relation: every symplectic eigenvalue >= 1."""
    for cov in state.cov.reshape(-1, 4, 4):
        assert np.linalg.eigvalsh(cov).min() >= -1e-9
        nu = np.abs(np.linalg.eigvals(1j * OMEGA @ cov))
        assert nu.min() >= 1.0 - 1e-9


def stacked_record(specs):
    """One input record whose numbers are arrays over the specs, which
    share one correlated_group."""
    (group,) = {spec.correlated_group for spec in specs}
    return SimpleNamespace(**{f: np.array([getattr(spec, f) for spec in specs])
                              for f in INPUT_FIELDS}, correlated_group=group)


def element_spec(record, k):
    """Element k of a stacked input record, as a SqueezedInputSpec."""
    return SqueezedInputSpec(*(float(getattr(record, f)[k]) for f in INPUT_FIELDS),
                             correlated_group=record.correlated_group)


def assert_slices_equal(stack, slices):
    for k, expected in enumerate(slices):
        np.testing.assert_allclose(stack.amplitudes[k], expected.amplitudes, rtol=1e-12, atol=0)
        np.testing.assert_allclose(stack.cov[k], expected.cov, rtol=1e-12, atol=1e-12)


def assert_map_output_physical(state):
    """A map output is physical, and the public constructor, which runs the
    full check, accepts it as it is."""
    assert_physical(state)
    again = BrightGaussianState(state.amplitudes, state.cov)
    assert np.array_equal(again.cov, state.cov)


@hs.composite
def bona_fide_stacks(draw):
    """A stack of random physical pairs, each scaled by a factor >= 1 (which
    keeps V + i*Omega >= 0) so that its largest covariance entry is drawn
    log-uniformly up to the scale below which map outputs skip the
    eigendecomposition."""
    size = draw(hs.integers(1, 6))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    pairs = [random_physical_pair(rng) for _ in range(size)]
    cov = np.array([c for _, c in pairs])
    top = np.array(draw(hs.lists(hs.floats(0.0, math.log10(mapped_unchecked_scale(4))),
                                 min_size=size, max_size=size)))
    factor = np.maximum(1.0, 10.0 ** top / np.abs(cov).max(axis=(1, 2)))
    return BrightGaussianState(np.array([a for a, _ in pairs]), cov * factor[:, None, None])


def columns(stack, elements):
    """A strategy for one map parameter per element of the stack."""
    n = len(stack.amplitudes)
    return hs.lists(elements, min_size=n, max_size=n).map(np.array)


UNIT = hs.floats(0.0, 1.0)
ANGLE = hs.floats(0.0, 2 * math.pi)


class TestStackedMaps:
    """Each element map on a stack equals the map applied state by state and
    keeps every state bona fide: the property that lets map outputs skip the
    eigendecomposition of the uncertainty relation."""

    N = 12

    @pytest.fixture
    def rng(self):
        return np.random.default_rng(2024)

    @pytest.fixture
    def stack(self, rng):
        pairs = [random_physical_pair(rng) for _ in range(self.N)]
        st = BrightGaussianState(np.array([a for a, _ in pairs]), np.array([c for _, c in pairs]))
        assert_physical(st)
        return st

    @settings(max_examples=40)
    @given(stack=bona_fide_stacks(), data=hs.data())
    def test_beamsplitter(self, stack, data):
        r, theta = data.draw(columns(stack, UNIT)), data.draw(columns(stack, ANGLE))
        out = apply_beamsplitter(stack, 0, 1, r, theta)
        assert_slices_equal(out, [apply_beamsplitter(stack[k], 0, 1, r[k], theta[k])
                                  for k in range(len(r))])
        assert_map_output_physical(out)

    def test_beamsplitter_to_a_dark_port(self):
        st = compose([make_coherent(10), make_coherent(10)])
        out = apply_beamsplitter(st, 0, 1, 0.5, np.array([0.0, 1.0]))
        assert_slices_equal(out, [apply_beamsplitter(st, 0, 1, 0.5, t) for t in (0.0, 1.0)])
        assert out.amplitudes[0] == pytest.approx([10 * math.sqrt(2), 0.0], abs=1e-9)

    @settings(max_examples=40)
    @given(stack=bona_fide_stacks(), data=hs.data())
    def test_loss(self, stack, data):
        eta = data.draw(columns(stack, UNIT))
        for mode in (0, 1):
            out = apply_loss(stack, mode, eta)
            assert_slices_equal(out, [apply_loss(stack[k], mode, eta[k])
                                      for k in range(len(eta))])
            assert_map_output_physical(out)

    @settings(max_examples=40)
    @given(stack=bona_fide_stacks(), data=hs.data())
    def test_phase(self, stack, data):
        phi = data.draw(columns(stack, ANGLE))
        for mode in (0, 1):
            out = apply_phase(stack, mode, phi)
            assert_slices_equal(out, [apply_phase(stack[k], mode, phi[k])
                                      for k in range(len(phi))])
            assert_map_output_physical(out)

    @settings(max_examples=60)
    @given(stack=bona_fide_stacks(), data=hs.data())
    def test_map_chains_stay_bona_fide(self, stack, data):
        # Every output of a chain of maps is physical, however many maps it
        # passed, each element equal to its own chain.
        states = [stack[k] for k in range(len(stack.amplitudes))]
        for _ in range(data.draw(hs.integers(1, 6))):
            op, mode = data.draw(hs.sampled_from("BLP")), data.draw(hs.integers(0, 1))
            if op == "B":
                r, theta = data.draw(columns(stack, UNIT)), data.draw(columns(stack, ANGLE))
                stack = apply_beamsplitter(stack, mode, 1 - mode, r, theta)
                states = [apply_beamsplitter(st, mode, 1 - mode, r[k], theta[k])
                          for k, st in enumerate(states)]
            elif op == "L":
                eta = data.draw(columns(stack, UNIT))
                stack = apply_loss(stack, mode, eta)
                states = [apply_loss(st, mode, eta[k]) for k, st in enumerate(states)]
            else:
                phi = data.draw(columns(stack, ANGLE))
                stack = apply_phase(stack, mode, phi)
                states = [apply_phase(st, mode, phi[k]) for k, st in enumerate(states)]
            assert_map_output_physical(stack)
        assert_slices_equal(stack, states)

    def test_scalar_parameters_broadcast(self, stack):
        out = apply_loss(apply_beamsplitter(stack, 1, 0, 0.3, 1.2), 1, 0.6)
        assert_slices_equal(out, [apply_loss(apply_beamsplitter(stack[k], 1, 0, 0.3, 1.2), 1, 0.6)
                                  for k in range(self.N)])

    def test_squeezed_inputs_and_compose(self, rng):
        specs = [SqueezedInputSpec(rng.uniform(1, 100), sq, sq + rng.uniform(0, 2),
                                   rng.uniform(0, 20), correlated_group=1)
                 for sq in rng.uniform(0, 5, self.N)]
        a, b = stacked_record(specs), stacked_record(specs[::-1])
        excess = rng.uniform(0, 1, self.N)
        out = squeezed_inputs([a, b], excess)
        assert_slices_equal(out, [squeezed_inputs([sa, sb], x)
                                  for sa, sb, x in zip(specs, specs[::-1], excess)])
        assert_physical(out)
        out = compose([squeezed_inputs([a]), squeezed_inputs([b])])
        assert_slices_equal(out, [compose([squeezed_inputs([sa]), squeezed_inputs([sb])])
                                  for sa, sb in zip(specs, specs[::-1])])

    @pytest.mark.parametrize("group", [True, 1.5, "x", [1], [1, 2], {"a": 1}])
    def test_correlated_group_is_an_int_or_none(self, group):
        with pytest.raises(DomainError, match="correlated_group"):
            SqueezedInputSpec(10, correlated_group=group)

    def test_stacked_inputs_of_mixed_groups(self):
        # Each pair of groups: the Y-Y cross term of every stack element is
        # 0.5 * sqrt(99 * 99) where both inputs carry the same group, else 0.
        for group_a in (1, 2, None):
            for group_b in (1, 2, None):
                specs = [[SqueezedInputSpec(10.0 + k, 1, 2 + k / self.N, excess_phase_db=20.0,
                                            correlated_group=group)
                          for k in range(self.N)] for group in (group_a, group_b)]
                out = squeezed_inputs([stacked_record(s) for s in specs], 0.5)
                assert_slices_equal(out, [squeezed_inputs([a, b], 0.5) for a, b in zip(*specs)])
                shared = group_a == group_b and group_a is not None
                assert out.cov[:, 1, 3].tolist() == [49.5 if shared else 0.0] * self.N
                assert out.cov[:, 3, 1].tolist() == [49.5 if shared else 0.0] * self.N

    def test_out_of_range_entry_named(self, stack):
        with pytest.raises(DomainError, match=r"efficiency must be in \[0, 1\], got 1.5"):
            apply_loss(stack, 0, np.array([0.5] * (self.N - 1) + [1.5]))

    def test_one_unphysical_state_rejects_the_stack(self, stack):
        cov = np.array(stack.cov)
        cov[3] = -cov[3]
        with pytest.raises(DomainError, match="positive semi-definite"):
            BrightGaussianState(stack.amplitudes, cov)

    def test_physicality_check_is_not_vacuous(self):
        # PSD, but below the vacuum level in both quadratures of both modes.
        with pytest.raises(AssertionError):
            assert_physical(SimpleNamespace(cov=0.1 * np.eye(4)))
        with pytest.raises(DomainError, match="uncertainty relation"):
            BrightGaussianState(np.full(2, 100.0), 0.1 * np.eye(4))
        with pytest.raises(DomainError, match="uncertainty relation"):
            BrightGaussianState.from_dict({"amplitudes": [100.0, 100.0],
                                           "cov": (0.1 * np.eye(4)).tolist()})
        # Squeezed below the vacuum in X, with the uncertainty relation kept in Y.
        squeezed = BrightGaussianState(np.full(2, 100.0), np.diag([0.1, 10.0, 0.1, 10.0]))
        assert_physical(squeezed)


@pytest.mark.parametrize("antisqueezing_db, excess_phase_db", [(1.0, 0.0), (3.0, -3.0)])
def test_column_record_below_the_uncertainty_bound_raises(antisqueezing_db, excess_phase_db):
    # A record of arrays is no SqueezedInputSpec, so nothing checked its
    # elements; one below the bound (or with a negative pedestal) gets the
    # constructor's full check, and its message.
    record = SimpleNamespace(amplitude=np.full(3, 100.0), squeezing_db=np.full(3, 3.0),
                             antisqueezing_db=np.array([3.0, antisqueezing_db, 3.0]),
                             excess_phase_db=np.array([0.0, excess_phase_db, 0.0]),
                             correlated_group=None)
    with pytest.raises(DomainError, match=r"^covariance matrix breaks the uncertainty "
                                          r"relation: V \+ i\*Omega is not positive "
                                          r"semi-definite$"):
        squeezed_inputs([record, record])


def stack_columns(n):
    """One record per input, each number an array of n values that make
    valid specs, with one group; then n values each of excess_correlation,
    theta and ratio."""
    def column(elements):
        return hs.lists(elements, min_size=n, max_size=n).map(np.array)
    input_record = hs.builds(
        lambda amplitude, sq, anti, excess, group: SimpleNamespace(
            amplitude=amplitude, squeezing_db=sq, antisqueezing_db=sq + anti,
            excess_phase_db=excess, correlated_group=group),
        column(hs.floats(0.1, 1e3)), column(hs.floats(0, 10)), column(hs.floats(0, 5)),
        column(hs.floats(0, 30)), hs.sampled_from([1, 2, None]))
    return hs.tuples(input_record, input_record, column(hs.floats(0, 1)),
                     column(hs.floats(0.05, 3.1)), column(hs.floats(0, 1)))


@settings(max_examples=60)
@given(hs.integers(1, 5).flatmap(stack_columns))
def test_joined_inputs_are_plain_physical_states(drawn):
    """Stacked input records equal per-point specs and are physical, and the
    entangled pair needs nothing from them but amplitudes and covariance."""
    a, b, excess, theta, ratio = drawn
    inputs = squeezed_inputs([a, b], excess)
    assert_slices_equal(inputs, [squeezed_inputs([element_spec(a, k), element_spec(b, k)], x)
                                 for k, x in enumerate(excess)])
    assert_physical(inputs)
    pair = generate_entangled(a, b, theta, ratio, excess)
    assert_physical(pair)
    again = apply_beamsplitter(BrightGaussianState.from_dict(inputs.to_dict()), 0, 1, ratio, theta)
    assert np.array_equal(again.amplitudes, pair.amplitudes)
    assert np.array_equal(again.cov, pair.cov)


def rotation_block_beamsplitter(st, i, j, r, theta):
    """``apply_beamsplitter`` written out from 2x2 ``rotation2`` blocks: the
    carriers |g| and the symmetrized S V S^T of S = realign @ mix @ pre on
    modes (i, j)."""
    r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
    t, s = np.sqrt(1.0 - r), np.sqrt(r)
    a = st.amplitudes[..., i]
    b = st.amplitudes[..., j] * np.exp(1j * theta)
    g = np.stack((t * a + s * b, s * a - t * b), axis=-1)
    m = np.hypot(g.real, g.imag)
    phi = np.where(dark_modes(m), 0.0, np.angle(g))

    def blocks(p, q, u, v):
        out = np.empty(np.broadcast_shapes(*(x.shape[:-2] for x in (p, q, u, v))) + (4, 4))
        out[..., :2, :2], out[..., :2, 2:], out[..., 2:, :2], out[..., 2:, 2:] = p, q, u, v
        return out

    eye, zero = np.eye(2), np.zeros((2, 2))
    t, s = t[..., None, None], s[..., None, None]
    mix = blocks(t * eye, s * eye, s * eye, -t * eye)
    realign = blocks(rotation2(-phi[..., 0]), zero, zero, rotation2(-phi[..., 1]))
    pre = blocks(eye, zero, zero, rotation2(theta))
    block = realign @ mix @ pre
    n = st.n_modes
    S = np.array(np.broadcast_to(np.eye(2 * n), block.shape[:-2] + (2 * n, 2 * n)))
    idx = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
    S[(..., *np.ix_(idx, idx))] = block
    cov = S @ st.cov @ np.swapaxes(S, -1, -2)
    amps = np.empty(m.shape[:-1] + (n,))
    amps[...] = st.amplitudes
    amps[..., i], amps[..., j] = m[..., 0], m[..., 1]
    return amps, 0.5 * (cov + np.swapaxes(cov, -1, -2))


def random_input_stack(rng, n_modes, size):
    """A stack of joined squeezed inputs, some of them dark, some sharing
    phase noise."""
    specs = []
    for _ in range(n_modes):
        squeezing = rng.uniform(0.0, 6.0, size)
        specs.append(SimpleNamespace(
            amplitude=rng.choice([0.0, 1.0, 30.0], size) * rng.uniform(0.5, 2.0, size),
            squeezing_db=squeezing, antisqueezing_db=squeezing + rng.uniform(0.0, 10.0, size),
            excess_phase_db=rng.uniform(0.0, 5.0, size),
            correlated_group=int(rng.integers(2)) or None))
    return squeezed_inputs(specs, rng.uniform(0.0, 1.0, size))


def assert_same_bits(state, amps, cov):
    assert np.array_equal(state.amplitudes, amps)
    assert np.array_equal(state.cov, cov)
    assert np.array_equal(np.signbit(state.cov), np.signbit(cov))


class TestMapsBitForBit:
    """The beam splitter and the one-map loss budgets give, entry for entry
    and sign bit for sign bit, what their written-out constructions give."""

    @pytest.mark.parametrize("n_modes", [2, 3])
    def test_beamsplitter_is_its_rotation_block_construction(self, n_modes):
        rng = np.random.default_rng(40 + n_modes)
        for _ in range(40):
            size = int(rng.integers(1, 20))
            st = random_input_stack(rng, n_modes, size)
            for _ in range(3):
                i, j = (int(k) for k in rng.choice(n_modes, 2, replace=False))
                # Balanced splitters at phase 0 or pi leave a port dark.
                r = [rng.uniform(0.0, 1.0, size), 0.5, 0.0, 1.0][int(rng.integers(4))]
                theta = [rng.uniform(-4.0, 4.0, size), 0.0, math.pi][int(rng.integers(3))]
                amps, cov = rotation_block_beamsplitter(st, i, j, r, theta)
                st = apply_beamsplitter(st, i, j, r, theta)
                assert_same_bits(st, amps, cov)

    @pytest.mark.parametrize("include_visibility", [True, False])
    def test_budgets_are_one_loss_after_the_other(self, include_visibility):
        rng = np.random.default_rng(7)
        for _ in range(40):
            size = int(rng.integers(1, 20))
            st = apply_beamsplitter(random_input_stack(rng, 2, size), 0, 1,
                                    rng.uniform(0.0, 1.0, size), rng.uniform(-4.0, 4.0, size))
            budgets = (SimpleNamespace(propagation=rng.uniform(0.0, 1.0, size),
                                       visibility=rng.uniform(0.5, 1.0), quantum_efficiency=0.9),
                       SimpleNamespace(propagation=rng.uniform(0.0, 1.0),
                                       visibility=rng.uniform(0.5, 1.0, size),
                                       quantum_efficiency=rng.uniform(0.0, 1.0, size)))
            one_map = detection._apply_budgets(st, budgets, include_visibility)
            etas = [detection._efficiency(b, include_visibility) for b in budgets]
            two = apply_loss(apply_loss(st, 0, etas[0]), 1, etas[1])
            assert_same_bits(one_map, two.amplitudes, two.cov)

    def test_each_loss_output_with_large_entries_is_tested(self):
        # Entries of 5e29: the uncertainty test of the first loss's output
        # fails by rounding, and the one-map losses raise as the first
        # apply_loss does, not later where the second loss leaves mode 1 dark.
        st = generate_entangled(SqueezedInputSpec(1.0, 3.0, 153.0, correlated_group=1),
                                SqueezedInputSpec(100.0, 300.0, 300.0, correlated_group=1),
                                math.pi, 0.5, 0.0)
        with pytest.raises(DomainError, match="too large for double precision"):
            apply_loss(st, 0, 0.25)
        with pytest.raises(DomainError, match="too large for double precision"):
            _apply_losses(st, [(0, 0.25), (1, 0.0)])

    def test_losses_in_any_mode_order(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            st = random_input_stack(rng, 3, 5)
            etas = rng.uniform(0.0, 1.0, (3, 5))
            one_map = _apply_losses(st, [(2, etas[0]), (0, etas[1]), (1, 0.5)])
            chained = apply_loss(apply_loss(apply_loss(st, 2, etas[0]), 0, etas[1]), 1, 0.5)
            assert_same_bits(one_map, chained.amplitudes, chained.cov)
