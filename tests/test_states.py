import math

import numpy as np
import pytest

from brightbeam import (
    BrightGaussianState,
    SqueezedInputSpec,
    apply_beamsplitter,
    apply_loss,
    apply_phase,
    compose,
    db_to_var,
    direct_detect_variance,
    make_coherent,
    make_squeezed,
    sample_fluctuations,
)
from brightbeam.errors import DegenerateModeError, DomainError


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
    m = rng.normal(size=(4, 4))
    cov = m @ m.T + 0.5 * np.eye(4)
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

    def test_negative_amplitude_rejected(self):
        with pytest.raises(DomainError):
            make_coherent(-1.0)

    def test_minimum_uncertainty_squeezed(self):
        st = make_squeezed(SqueezedInputSpec(100, 3.01, 3.01))
        assert st.variance(0, "X") == pytest.approx(0.500, abs=5e-4)
        assert st.variance(0, "Y") == pytest.approx(2.000, abs=2e-3)

    def test_excess_noise_stacks_on_antisqueezing(self):
        st = make_squeezed(SqueezedInputSpec(100, 3.0, 3.0, excess_phase_db=23.0))
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
        analytic = direct_detect_variance(make_coherent(a), 0)
        se = empirical * math.sqrt(2 / 999_999)
        assert abs(analytic - empirical) < 3 * se
        assert analytic == a ** 2


class TestCompose:
    def test_two_vacua(self):
        st = compose([make_coherent(0), make_coherent(0)])
        assert st.n_modes == 2
        assert np.array_equal(st.cov, np.eye(4))

    def test_independent_modes_block_diagonal(self):
        a = make_squeezed(SqueezedInputSpec(10, 3, 3))
        b = make_squeezed(SqueezedInputSpec(10, 1, 2))
        st = compose([a, b])
        assert np.all(st.cov[:2, 2:] == 0)

    def test_correlated_group_cross_term(self):
        spec = SqueezedInputSpec(10, 3, 3, excess_phase_db=20.0, correlated_group=1)
        st = compose([make_squeezed(spec), make_squeezed(spec)])
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
        st = compose([make_squeezed(spec), make_squeezed(spec)], excess_correlation=0.5)
        assert st.cov[1, 3] == pytest.approx(49.5, rel=1e-12)


class TestBeamsplitter:
    def test_balanced_pi_half_mixes_squeezing(self):
        spec = SqueezedInputSpec(100, 3.0103, 3.0103)
        st = compose([make_squeezed(spec), make_squeezed(spec)])
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

    def test_invalid_ratio_rejected(self):
        st = compose([make_coherent(1), make_coherent(1)])
        with pytest.raises(DomainError):
            apply_beamsplitter(st, 0, 1, 1.2, 0.0)


class TestLoss:
    def test_unit_efficiency_is_identity(self):
        st = make_squeezed(SqueezedInputSpec(10, 3, 5))
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
        st = make_squeezed(SqueezedInputSpec(10, 3.0103, 3.0103))
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


class TestPhase:
    def test_zero_is_identity(self):
        st = make_squeezed(SqueezedInputSpec(10, 3, 3))
        out = apply_phase(st, 0, 0.0)
        assert np.allclose(out.cov, st.cov, atol=1e-15)

    def test_quarter_turn_swaps_quadratures(self):
        st = make_squeezed(SqueezedInputSpec(10, 3.0103, 3.0103))
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
        st = make_squeezed(SqueezedInputSpec(10, 3, 3))
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
        st = make_squeezed(SqueezedInputSpec(10, 3.0103, 3.0103))
        samples = sample_fluctuations(st, 1_000_000, seed=2)
        assert 0.495 < samples[:, 0].var(ddof=1) < 0.505

    def test_count_must_be_positive(self):
        with pytest.raises(DomainError):
            sample_fluctuations(make_coherent(1), 0, 0)


class TestOracleEquivalence:
    def test_random_element_sequences(self):
        # analytic covariance vs sampling oracle after random op chains
        rng = np.random.default_rng(99)
        n_samples = 1_000_000
        for trial in range(3):
            spec_a = SqueezedInputSpec(50, rng.uniform(0, 4), rng.uniform(4, 6))
            spec_b = SqueezedInputSpec(50, rng.uniform(0, 4), rng.uniform(4, 6))
            st = compose([make_squeezed(spec_a), make_squeezed(spec_b)])
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
    def test_shot_noise_level(self):
        assert direct_detect_variance(make_coherent(100), 0) == pytest.approx(1e4)

    def test_squeezed_level(self):
        st = make_squeezed(SqueezedInputSpec(100, 3.0103, 3.0103))
        assert direct_detect_variance(st, 0) == pytest.approx(5e3, rel=1e-3)

    def test_dark_beam_rejected(self):
        with pytest.raises(DegenerateModeError):
            direct_detect_variance(make_coherent(0), 0)


def test_serialization_roundtrip():
    st = make_squeezed(SqueezedInputSpec(10, 3, 5, excess_phase_db=10, correlated_group=2))
    d = st.to_dict()
    assert set(d) == {"amplitudes", "cov"}
    back = BrightGaussianState.from_dict(d)
    assert np.array_equal(back.amplitudes, st.amplitudes)
    assert np.array_equal(back.cov, st.cov)


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


def assert_slices_equal(stack, slices):
    for k, expected in enumerate(slices):
        np.testing.assert_allclose(stack.amplitudes[k], expected.amplitudes, rtol=1e-12, atol=0)
        np.testing.assert_allclose(stack.cov[k], expected.cov, rtol=1e-12, atol=1e-12)


class TestStackedMaps:
    """Each element map on a stack equals the map applied state by state and
    keeps every state physical."""

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

    def test_beamsplitter(self, rng, stack):
        r, theta = rng.uniform(0, 1, self.N), rng.uniform(0, 2 * np.pi, self.N)
        out = apply_beamsplitter(stack, 0, 1, r, theta)
        assert_slices_equal(out, [apply_beamsplitter(stack[k], 0, 1, r[k], theta[k])
                                  for k in range(self.N)])
        assert_physical(out)

    def test_beamsplitter_to_a_dark_port(self):
        st = compose([make_coherent(10), make_coherent(10)])
        out = apply_beamsplitter(st, 0, 1, 0.5, np.array([0.0, 1.0]))
        assert_slices_equal(out, [apply_beamsplitter(st, 0, 1, 0.5, t) for t in (0.0, 1.0)])
        assert out.amplitudes[0] == pytest.approx([10 * math.sqrt(2), 0.0], abs=1e-9)

    def test_loss(self, rng, stack):
        eta = rng.uniform(0, 1, self.N)
        for mode in (0, 1):
            out = apply_loss(stack, mode, eta)
            assert_slices_equal(out, [apply_loss(stack[k], mode, eta[k]) for k in range(self.N)])
            assert_physical(out)

    def test_phase(self, rng, stack):
        phi = rng.uniform(0, 2 * np.pi, self.N)
        for mode in (0, 1):
            out = apply_phase(stack, mode, phi)
            assert_slices_equal(out, [apply_phase(stack[k], mode, phi[k]) for k in range(self.N)])
            assert_physical(out)

    def test_scalar_parameters_broadcast(self, stack):
        out = apply_loss(apply_beamsplitter(stack, 1, 0, 0.3, 1.2), 1, 0.6)
        assert_slices_equal(out, [apply_loss(apply_beamsplitter(stack[k], 1, 0, 0.3, 1.2), 1, 0.6)
                                  for k in range(self.N)])

    def test_squeezed_inputs_and_compose(self, rng):
        specs = [SqueezedInputSpec(rng.uniform(1, 100), sq, sq + rng.uniform(0, 2),
                                   rng.uniform(0, 20), correlated_group=1)
                 for sq in rng.uniform(0, 5, self.N)]
        excess = rng.uniform(0, 1, self.N)
        out = compose([make_squeezed(specs), make_squeezed(specs[::-1])], excess)
        assert_slices_equal(out, [compose([make_squeezed(a), make_squeezed(b)], x)
                                  for a, b, x in zip(specs, specs[::-1], excess)])
        assert_physical(out)

    @pytest.mark.parametrize("group", [True, 1.5, "x", [1], [1, 2], {"a": 1}])
    def test_correlated_group_is_an_int_or_none(self, group):
        with pytest.raises(DomainError, match="correlated_group"):
            SqueezedInputSpec(10, correlated_group=group)

    def test_stacked_inputs_share_one_group(self):
        with pytest.raises(DomainError, match="correlated_group"):
            make_squeezed([SqueezedInputSpec(10, correlated_group=1), SqueezedInputSpec(10)])

    def test_out_of_range_entry_named(self, stack):
        with pytest.raises(DomainError, match=r"efficiency must be in \[0, 1\], got 1.5"):
            apply_loss(stack, 0, np.array([0.5] * (self.N - 1) + [1.5]))

    def test_one_unphysical_state_rejects_the_stack(self, stack):
        cov = np.array(stack.cov)
        cov[3] = -cov[3]
        with pytest.raises(DomainError, match="positive semi-definite"):
            BrightGaussianState(stack.amplitudes, cov)

    def test_physicality_check_is_not_vacuous(self):
        # PSD, so the constructor accepts it, but below the vacuum level.
        with pytest.raises(AssertionError):
            assert_physical(BrightGaussianState(np.full(2, 100.0), 0.1 * np.eye(4)))
