import math

import numpy as np
import pytest

from brightbeam import (
    LossBudget,
    SqueezedInputSpec,
    apply_beamsplitter,
    compose,
    generate_entangled,
    make_coherent,
    make_squeezed,
    method_a_joint,
    method_a_measure,
    method_b_channels,
    method_c_single_port,
    mz_geometry,
    shot_noise_reference,
    squeezing_variances,
)
from brightbeam.detection import bright_port_readings
from brightbeam.errors import DegenerateModeError, DomainError
from brightbeam.states import DARK_PORT_FACTOR, dark_modes

IDEAL = LossBudget()
PAPER_BUDGET = LossBudget(propagation=0.9, visibility=0.95, quantum_efficiency=0.9)


def spec(sq=3.0103, antisq=None, amplitude=100.0):
    return SqueezedInputSpec(amplitude, sq, antisq if antisq is not None else sq)


def entangled(sq=3.0103, theta=math.pi / 2):
    s = spec(sq)
    return generate_entangled(s, s, theta)


class TestMzGeometry:
    def test_first_order(self):
        g = mz_geometry(82e6, 1)
        assert g.delta_l == pytest.approx(3.656, abs=1e-3)
        assert g.measurement_frequency == pytest.approx(41e6)

    def test_second_order(self):
        g = mz_geometry(82e6, 2)
        assert g.delta_l == pytest.approx(7.312, abs=1e-3)
        assert g.measurement_frequency == pytest.approx(20.5e6)

    def test_doubling_order_halves_frequency(self):
        assert mz_geometry(82e6, 4).measurement_frequency == pytest.approx(
            mz_geometry(82e6, 2).measurement_frequency / 2)

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            mz_geometry(0.0, 1)
        with pytest.raises(DomainError):
            mz_geometry(82e6, 0)


class TestLossBudget:
    def test_effective_stacking(self):
        assert PAPER_BUDGET.effective() == pytest.approx(0.9 * 0.95 ** 2 * 0.9)

    def test_amplitude_path_skips_visibility(self):
        assert PAPER_BUDGET.effective(include_visibility=False) == pytest.approx(0.81)

    def test_bounds(self):
        with pytest.raises(DomainError):
            LossBudget(visibility=1.1)

    @pytest.mark.parametrize("field", ["propagation", "visibility", "quantum_efficiency"])
    @pytest.mark.parametrize("value", [True, "0.5", float("nan"), None])
    def test_fields_are_numbers(self, field, value):
        with pytest.raises(DomainError, match=field):
            LossBudget(**{field: value})


class TestMethodA:
    def test_ideal_budget_is_transparent(self):
        st = make_squeezed(spec())
        res = method_a_measure(st, 0, "Y", IDEAL)
        assert res.normalized == pytest.approx(st.variance(0, "Y"), rel=1e-12)

    def test_budget_applies_loss_channel(self):
        st = make_squeezed(SqueezedInputSpec(100, 5.2288, 5.2288))  # V(Y)=3.333 -> use X
        vx = st.variance(0, "X")
        budget = LossBudget(propagation=0.9, visibility=0.95, quantum_efficiency=0.9)
        res = method_a_measure(st, 0, "Y", budget)
        eta = budget.effective()
        assert res.normalized == pytest.approx(eta * st.variance(0, "Y") + 1 - eta, rel=1e-12)
        # oracle value from the loss-channel formula on V=0.3
        eta_paper = 0.9 * 0.95 ** 2 * 0.9
        assert eta_paper * 0.3 + (1 - eta_paper) == pytest.approx(0.488, abs=5e-4)
        assert vx < 1.0

    def test_coherent_input_unaffected_by_loss(self):
        res = method_a_measure(make_coherent(100), 0, "Y", PAPER_BUDGET)
        assert res.normalized == pytest.approx(1.0, rel=1e-12)

    def test_joint_matches_squeezing_variances_when_lossless(self):
        st = entangled()
        combo, _ = method_a_joint(st, "X", (IDEAL, IDEAL), g=1.0)
        assert combo.normalized == pytest.approx(squeezing_variances(st)[0], rel=1e-12)
        combo_y, _ = method_a_joint(st, "Y", (IDEAL, IDEAL), g=1.0)
        assert combo_y.normalized == pytest.approx(squeezing_variances(st)[1], rel=1e-12)

    def test_anti_combination_matches_covariance_oracle(self):
        s = SqueezedInputSpec(100, 3.0, 5.0, excess_phase_db=23.0, correlated_group=1)
        st = generate_entangled(s, s, math.pi / 2)
        combo, anti = method_a_joint(st, "X", (IDEAL, IDEAL))
        # oracle: evaluate both linear combinations straight from the
        # covariance matrix
        weights_anti = np.zeros(4)
        weights_anti[st.quad_index(0, "X")] = 1.0
        weights_anti[st.quad_index(1, "X")] = -1.0
        assert anti.normalized == pytest.approx(
            st.combination_variance(weights_anti) / 2, rel=1e-12)
        # the anti-correlated channel carries the anti-squeezing and sits
        # far above the squeezed channel
        assert anti.normalized > 1.0 > combo.normalized

    def test_coherent_pair_both_channels_at_shot_noise(self):
        s = SqueezedInputSpec(100.0)
        st = generate_entangled(s, s, math.pi / 2)
        combo, anti = method_a_joint(st, "Y", (PAPER_BUDGET, PAPER_BUDGET))
        assert combo.normalized == pytest.approx(1.0, rel=1e-12)
        assert anti.normalized == pytest.approx(1.0, rel=1e-12)


class TestMethodB:
    def test_lossless_symmetric_recovers_input_squeezing(self):
        vs = 10 ** (-0.37)
        st = entangled(sq=3.7)
        total, diff = method_b_channels(st, math.pi / 2)
        assert total.normalized == pytest.approx(vs, rel=1e-9)
        assert diff.normalized == pytest.approx(vs, rel=1e-9)

    def test_sum_channel_flat_over_theta(self):
        # at verification phase pi/2 the amplitude-weighted channels recover
        # the input squeezing for every entangling phase
        vs = 10 ** (-0.37)
        for theta in (0.3, 1.0, 2.0, 2.8):
            st = entangled(sq=3.7, theta=theta)
            total, diff = method_b_channels(st, math.pi / 2)
            assert total.normalized == pytest.approx(vs, rel=1e-9)
            assert diff.normalized == pytest.approx(vs, rel=1e-9)

    def test_coherent_pair_any_phase(self):
        s = SqueezedInputSpec(100.0)
        st = generate_entangled(s, s, math.pi / 2)
        for phi in (0.4, math.pi / 2, 2.0):
            total, diff = method_b_channels(st, phi)
            assert total.normalized == pytest.approx(1.0, rel=1e-12)
            assert diff.normalized == pytest.approx(1.0, rel=1e-12)

    def test_energy_accounting(self):
        budgets = (LossBudget(propagation=0.9), LossBudget(propagation=0.8))
        st = entangled()
        power_in = np.sum(st.amplitudes ** 2)
        from brightbeam.detection import _verification_interference
        out = _verification_interference(st, 1.1, budgets)
        expected = 0.9 * st.amplitudes[0] ** 2 + 0.8 * st.amplitudes[1] ** 2
        assert np.sum(out.amplitudes ** 2) == pytest.approx(expected, rel=1e-9)
        assert np.sum(out.amplitudes ** 2) < power_in

    def test_dark_port_degeneracy(self):
        st = entangled()
        with pytest.raises(DegenerateModeError):
            method_b_channels(st, 0.0)


class TestMethodC:
    def test_pi_half_gives_half_witness_sum(self):
        st = entangled(sq=3.7)
        v_plus, v_minus = squeezing_variances(st)
        res = method_c_single_port(st, math.pi / 2, "c")
        assert res.normalized == pytest.approx((v_plus + v_minus) / 2, rel=1e-9)

    def test_matches_method_b_average(self):
        st = entangled(sq=2.0)
        total, diff = method_b_channels(st, math.pi / 2)
        for port in ("c", "d"):
            res = method_c_single_port(st, math.pi / 2, port)
            assert res.normalized == pytest.approx(
                (total.normalized + diff.normalized) / 2, abs=1e-12)

    def test_convex_blend_over_phi(self):
        # oracle: evaluate the convex-blend formula from the separately
        # measured squeezing variances
        s = SqueezedInputSpec(100, 2.0, 4.0)
        st = generate_entangled(s, s, math.pi / 2)
        v_plus, v_minus = squeezing_variances(st)
        for phi in (0.5, 1.0, math.pi / 2, 2.2, 2.8):
            for port, sign in (("d", 1.0), ("c", -1.0)):
                res = method_c_single_port(st, phi, port)
                cos = sign * math.cos(phi)
                expected = 0.5 * ((1 + cos) * v_plus + (1 - cos) * v_minus)
                assert res.normalized == pytest.approx(expected, rel=1e-9)
                assert min(v_plus, v_minus) - 1e-12 <= res.normalized <= max(v_plus, v_minus) + 1e-12

    def test_phi_flat_for_symmetric_states(self):
        st = entangled(sq=3.7)
        vs = 10 ** (-0.37)
        for phi in (0.3, 1.0, 2.0, 2.9):
            res = method_c_single_port(st, phi, "c")
            assert res.normalized == pytest.approx(vs, abs=1e-10)

    def test_coherent_pair_is_shot_noise(self):
        s = SqueezedInputSpec(100.0)
        st = generate_entangled(s, s, math.pi / 2)
        for phi in (0.7, math.pi / 2, 2.4):
            assert method_c_single_port(st, phi, "d").normalized == pytest.approx(1.0, rel=1e-12)

    def test_shot_noise_follows_port_power(self):
        st = entangled()
        phi = 1.0
        alpha_sq = st.amplitudes[0] ** 2  # equal beams
        res_d = method_c_single_port(st, phi, "d")
        assert res_d.shot_noise == pytest.approx(alpha_sq * (1 + math.cos(phi)), rel=1e-9)
        res_c = method_c_single_port(st, phi, "c")
        assert res_c.shot_noise == pytest.approx(alpha_sq * (1 - math.cos(phi)), rel=1e-9)

    def test_dark_port_degeneracy(self):
        st = entangled()
        with pytest.raises(DegenerateModeError):
            method_c_single_port(st, 0.0, "c")
        with pytest.raises(DomainError):
            method_c_single_port(st, 1.0, "q")


class TestShotNoiseReference:
    def test_single_mode(self):
        assert shot_noise_reference([10.0]) == 100.0

    def test_two_modes(self):
        assert shot_noise_reference([3.0, 4.0]) == 25.0

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateModeError):
            shot_noise_reference([0.0, 0.0])

    def test_stack_of_signed_weights(self):
        assert shot_noise_reference([[3.0, -4.0], [-1.0, 0.0]]).tolist() == [25.0, 1.0]
        with pytest.raises(DegenerateModeError):
            shot_noise_reference([[3.0, -4.0], [0.0, 0.0]])


def all_readings(state, phi):
    """Every DetectionResult of methods A, B and C on an entangled pair."""
    budgets = (PAPER_BUDGET, LossBudget(propagation=0.8))
    return [method_a_measure(state, 1, "Y", PAPER_BUDGET),
            *method_a_joint(state, "X", budgets, 0.7, 0.1),
            *method_a_joint(state, "Y", budgets, 0.7, 0.1),
            *method_b_channels(state, phi, budgets, -0.2),
            method_c_single_port(state, phi, "c", budgets),
            method_c_single_port(state, phi, "d", budgets)]


@pytest.mark.parametrize("phi", [1.1, np.array([0.4, 1.1, 2.5])])
def test_every_reading_is_normalized_to_the_sum_of_squared_weights(phi):
    st = entangled(sq=3.7, theta=1.2)
    for res in all_readings(st, phi):
        w = res.weights
        assert np.all(res.shot_noise == np.sum(w * w, axis=-1))
        assert np.all(res.variance == res.state.combination_variance(w))
        assert np.all(res.normalized == res.variance / res.shot_noise)


class TestOneDarkTest:
    """One dark-carrier test sets the beam splitter's frame and gates every readout.

    A pair of equal carriers through a 50/50 splitter at relative phase
    phi puts |sin(phi/2)| of the total carrier into output 1 (port c).
    """

    SPEC = SqueezedInputSpec(100.0, 3.0, 6.0)

    @staticmethod
    def phase(fraction):
        return 2 * math.asin(fraction * DARK_PORT_FACTOR)

    def pair(self):
        return compose([make_squeezed(self.SPEC), make_squeezed(self.SPEC)])

    @staticmethod
    def expected_cov(cov, phi, frame_c):
        """cov after the 50/50 splitter, with port c turned to frame_c."""
        def rot(x):
            return np.array([[math.cos(x), -math.sin(x)], [math.sin(x), math.cos(x)]])
        eye, zero, t = np.eye(2), np.zeros((2, 2)), math.sqrt(0.5)
        frame_d = np.angle(1 + np.exp(1j * phi))
        S = (np.block([[rot(-frame_d), zero], [zero, rot(-frame_c)]])
             @ np.block([[t * eye, t * eye], [t * eye, -t * eye]])
             @ np.block([[eye, zero], [zero, rot(phi)]]))
        return S @ cov @ S.T

    @pytest.mark.parametrize("fraction, dark", [(1 - 1e-3, True), (1 + 1e-3, False)])
    def test_frame_and_readouts_agree(self, fraction, dark):
        st, phi = self.pair(), self.phase(fraction)
        out = apply_beamsplitter(st, 0, 1, 0.5, phi)
        assert dark_modes(out.amplitudes).tolist() == [False, dark]
        # a bright port c is turned along its carrier, about -pi/2 here; the
        # carrier's tiny real part is a difference of near-equal numbers, so
        # its angle is known to about 1e-7 only
        frame_c = 0.0 if dark else float(np.angle(1 - np.exp(1j * phi)))
        assert np.allclose(out.cov, self.expected_cov(st.cov, phi, frame_c), rtol=0, atol=1e-8)
        assert not np.allclose(out.cov, self.expected_cov(st.cov, phi, -math.pi / 2 - frame_c),
                               rtol=0, atol=1e-3)
        assert set(bright_port_readings(out)) == ({"port_d"} if dark else {"port_d", "port_c"})
        readouts = [lambda: method_b_channels(st, phi), lambda: method_c_single_port(st, phi, "c"),
                    lambda: method_a_joint(out, "X", (IDEAL, IDEAL)),
                    lambda: method_a_measure(out, 1, "X")]
        for readout in readouts:
            if dark:
                with pytest.raises(DegenerateModeError):
                    readout()
            else:
                readout()
        method_c_single_port(st, phi, "d")

    def test_stack_across_the_threshold(self):
        st = self.pair()
        phi = np.array([self.phase(1 - 1e-3), self.phase(1 + 1e-3)])
        out = apply_beamsplitter(st, 0, 1, 0.5, phi)
        for k in range(2):
            assert np.array_equal(out.cov[k], apply_beamsplitter(st, 0, 1, 0.5, phi[k]).cov)
        port_c = bright_port_readings(out)["port_c"].normalized
        assert math.isnan(port_c[0]) and math.isfinite(port_c[1])
        with pytest.raises(DegenerateModeError):
            method_c_single_port(st, phi, "c")


def test_detection_result_consistency():
    st = entangled()
    res = method_c_single_port(st, math.pi / 2, "c")
    assert res.normalized == pytest.approx(res.variance / res.shot_noise, abs=1e-12)
    assert res.rel_db == pytest.approx(10 * math.log10(res.normalized), abs=1e-9)
    assert set(res.to_dict()) == {"variance", "shot_noise", "normalized", "rel_db"}
