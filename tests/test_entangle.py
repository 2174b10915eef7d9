import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from brightbeam import (
    GeneralizedCombination,
    LossBudget,
    SqueezedInputSpec,
    apply_loss,
    duan_simon,
    entangle,
    generate_entangled,
    make_coherent,
    normalized_combination_variances,
    optimal_gains_for_theta,
    sample_fluctuations,
    squeezing_variances,
    theta_adapted_bound,
)
from brightbeam.detection import method_a_readings
from brightbeam.entangle import (
    GAIN_BOUNDS,
    _witness_sum,
    minimize_gain,
    witness_gains,
)
from brightbeam.errors import DegenerateModeError, DomainError
from brightbeam.states import BrightGaussianState


def symmetric_spec(squeezing_db=3.0103, antisqueezing_db=None, excess=0.0, group=None):
    if antisqueezing_db is None:
        antisqueezing_db = squeezing_db
    return SqueezedInputSpec(100.0, squeezing_db, antisqueezing_db,
                             excess_phase_db=excess, correlated_group=group)


def coherent_pair():
    spec = SqueezedInputSpec(100.0)
    return generate_entangled(spec, spec, math.pi / 2)


class TestGenerateEntangled:
    def test_symmetric_joint_variances(self):
        spec = symmetric_spec()
        st = generate_entangled(spec, spec, math.pi / 2)
        v_sum_x = st.cov[0, 0] + st.cov[2, 2] + 2 * st.cov[0, 2]
        v_diff_y = st.cov[1, 1] + st.cov[3, 3] - 2 * st.cov[1, 3]
        assert v_sum_x == pytest.approx(2 * 0.5, abs=2e-4)
        assert v_diff_y == pytest.approx(2 * 0.5, abs=2e-4)

    def test_output_amplitudes(self):
        spec = symmetric_spec()
        for theta in (0.5, math.pi / 2, 2.5):
            st = generate_entangled(spec, spec, theta)
            assert st.amplitudes[0] == pytest.approx(100 * math.sqrt(1 + math.cos(theta)))
            assert st.amplitudes[1] == pytest.approx(100 * math.sqrt(1 - math.cos(theta)))

    def test_theta_zero_gives_dark_port(self):
        spec = symmetric_spec()
        st = generate_entangled(spec, spec, 0.0)
        assert st.amplitudes[1] == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(DegenerateModeError):
            squeezing_variances(st, 1.0)

    def test_theta_pi_third_against_coefficient_formula_and_oracle(self):
        vx, vy = 0.5, 2.0
        spec = SqueezedInputSpec(100.0, 3.0103, 3.0103)
        theta = math.pi / 3
        st = generate_entangled(spec, spec, theta)
        c = math.cos(theta)
        s = math.sin(theta)
        vx_in = spec.x_variance
        vy_in = spec.y_variance_quantum  # no excess phase noise
        expected = (0.25 / (1 + c)) * ((1 + c) ** 2 * 2 * vx_in + s ** 2 * 2 * vy_in)
        assert st.variance(0, "X") == pytest.approx(expected, rel=1e-12)
        samples = sample_fluctuations(st, 500_000, seed=5)
        emp = samples[:, 0].var(ddof=1)
        assert abs(emp - expected) < 3 * expected * math.sqrt(2 / 499_999)


class TestSqueezingVariances:
    def test_coherent_pair_is_unity_for_any_gain(self):
        st = coherent_pair()
        for g in (0.2, 1.0, 3.7):
            v_plus, v_minus = squeezing_variances(st, g)
            assert v_plus == pytest.approx(1.0, abs=1e-12)
            assert v_minus == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_entangled_state(self):
        spec = symmetric_spec()
        st = generate_entangled(spec, spec, math.pi / 2)
        v_plus, v_minus = squeezing_variances(st, 1.0)
        assert v_plus == pytest.approx(0.5, abs=1e-4)
        assert v_minus == pytest.approx(0.5, abs=1e-4)

    def test_oracle_cross_check(self):
        spec = symmetric_spec(2.0, 5.0)
        st = generate_entangled(spec, spec, 1.1)
        samples = sample_fluctuations(st, 500_000, seed=8)
        g = 1.3
        emp_plus = (samples[:, 0] + g * samples[:, 2]).var(ddof=1) / (1 + g * g)
        v_plus, _ = squeezing_variances(st, g)
        assert abs(emp_plus - v_plus) < 3 * v_plus * math.sqrt(2 / 499_999)


class TestDuanSimon:
    def test_coherent_boundary_exact(self):
        report = duan_simon(coherent_pair())
        assert report.sum_value == pytest.approx(2.0, abs=1e-12)
        assert report.product_value == pytest.approx(1.0, abs=1e-12)
        assert not report.entangled_witnessed

    def test_witnessed_for_squeezed_inputs(self):
        spec = symmetric_spec()
        report = duan_simon(generate_entangled(spec, spec, math.pi / 2))
        assert report.entangled_witnessed
        assert report.sum_value == pytest.approx(1.0, abs=1e-3)

    def test_product_consistent_with_components(self):
        spec = symmetric_spec(2.0, 4.0)
        report = duan_simon(generate_entangled(spec, spec, 1.3), g=0.8)
        assert report.product_value == pytest.approx(
            report.v_sq_plus_x * report.v_sq_minus_y, abs=1e-12)


class TestGeneralizedWitness:
    def test_coherent_boundary(self):
        comb = GeneralizedCombination(1, 1, 1, -1)
        vu, vv = normalized_combination_variances(coherent_pair(), comb)
        assert (vu, vv) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert not vu + vv < theta_adapted_bound(math.pi / 2)

    def test_unit_gains_match_duan_sum(self):
        spec = symmetric_spec(2.0, 5.0)
        st = generate_entangled(spec, spec, 1.2)
        vu, vv = normalized_combination_variances(st, GeneralizedCombination(1, 1, 1, -1))
        assert vu + vv == pytest.approx(duan_simon(st).sum_value, abs=1e-12)

    def test_amplitude_weighted_channels_recover_input_squeezing(self):
        # gains equal to the entangled-beam amplitudes give each joint
        # variance 2 alpha^2 Vs before normalization, for any theta
        spec = symmetric_spec(3.7, 3.7)
        vs = spec.x_variance
        for theta in (0.4, 1.0, 2.2):
            st = generate_entangled(spec, spec, theta)
            comb = optimal_gains_for_theta(100.0, theta)
            u = np.array([comb.h_a, 0, comb.h_b, 0])
            assert st.combination_variance(u) == pytest.approx(
                2 * 100.0 ** 2 * vs, rel=1e-9)

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(DomainError):
            GeneralizedCombination(0, 0, 0, 0)

    @pytest.mark.parametrize("coefficients", [(0, 0, 1, -1), (1, 1, 0, 0)])
    def test_all_zero_combination_has_no_shot_noise_reference(self, coefficients):
        # GeneralizedCombination refuses only four zero coefficients; a zero
        # combination has no coherent value to normalize by.
        st = generate_entangled(symmetric_spec(), symmetric_spec(), math.pi / 2)
        with pytest.raises(DegenerateModeError, match="no shot-noise reference"):
            normalized_combination_variances(st, GeneralizedCombination(*coefficients))


class TestThetaAdaptedBound:
    def test_standard_limit(self):
        assert theta_adapted_bound(math.pi / 2) == pytest.approx(2.0)

    def test_pi_sixth(self):
        assert theta_adapted_bound(math.pi / 6) == pytest.approx(1.0)

    def test_unwitnessable_at_zero(self):
        assert theta_adapted_bound(0.0) == 0.0


class TestOptimalGains:
    def test_pi_half_reduces_to_unit_gains(self):
        comb = optimal_gains_for_theta(1.0, math.pi / 2)
        mags = {abs(comb.h_a), abs(comb.h_b), abs(comb.g_a), abs(comb.g_b)}
        assert all(m == pytest.approx(1.0) for m in mags)

    def test_direct_formula(self):
        comb = optimal_gains_for_theta(1.0, math.pi / 3)
        assert comb.h_a == pytest.approx(math.sqrt(1.5))
        assert comb.h_b == pytest.approx(math.sqrt(0.5))
        assert comb.g_a == pytest.approx(comb.h_b)
        assert comb.g_b == pytest.approx(-comb.h_a)

    def test_theta_independence_of_normalized_variances(self):
        spec = symmetric_spec(3.7, 3.7)
        vs = spec.x_variance
        for theta in np.arange(0.1, 3.05, 0.1):
            st = generate_entangled(spec, spec, float(theta))
            comb = optimal_gains_for_theta(100.0, float(theta))
            vu, vv = normalized_combination_variances(st, comb)
            assert vu == pytest.approx(vs, abs=1e-10)
            assert vv == pytest.approx(vs, abs=1e-10)


class TestOptimizeGain:
    def test_symmetric_state_gives_unit_gain(self):
        spec = symmetric_spec()
        st = generate_entangled(spec, spec, math.pi / 2)
        g = witness_gains(st, st)
        assert g == pytest.approx(1.0, abs=1e-5)

    def test_asymmetric_loss_beats_unit_gain_and_matches_grid_search(self):
        spec = symmetric_spec(3.0, 5.0)
        st = generate_entangled(spec, spec, math.pi / 2)
        st = apply_loss(st, 0, 0.8)
        g = witness_gains(st, st)
        report = duan_simon(st, g)
        unit = duan_simon(st, 1.0)
        assert report.sum_value <= unit.sum_value
        # independent grid-search oracle
        grid = np.linspace(0.1, 10.0, 20001)
        sums = [sum(squeezing_variances(st, gg)) for gg in grid]
        assert report.sum_value <= min(sums) + 1e-9
        assert g != pytest.approx(1.0, abs=1e-3)

    def test_coherent_pair_is_flat(self):
        g = witness_gains(coherent_pair(), coherent_pair())
        assert duan_simon(coherent_pair(), g).sum_value == pytest.approx(2.0, abs=1e-9)


# Every gain the optimisers may return, 20001 points log-spaced on [1e-3, 1e3].
GAIN_GRID = np.logspace(-3.0, 3.0, 20001)
GRID_STATES = 300


def random_lossy_pair(rng) -> BrightGaussianState:
    """An entangled pair from random inputs, phase and splitting, with random loss per beam."""
    def beam():
        sq = rng.uniform(0.0, 6.0)
        return SqueezedInputSpec(rng.uniform(10.0, 1000.0), sq, sq + rng.uniform(0.0, 15.0),
                                 excess_phase_db=rng.uniform(0.0, 25.0),
                                 correlated_group=int(rng.integers(2)) or None)

    st = generate_entangled(beam(), beam(), rng.uniform(0.2, math.pi - 0.2),
                            rng.uniform(0.2, 0.8), rng.uniform(0.0, 1.0))
    for mode in (0, 1):
        st = apply_loss(st, mode, rng.uniform(0.3, 1.0))
    return st


def grid_sums(state_x, state_y, g):
    """V(dX1 + g dX2) on state_x plus V(dY1 - g dY2) on state_y, each over
    its coherent value 1 + g^2, for an array of gains g."""
    cx, cy = state_x.cov, state_y.cov
    return (cx[0, 0] + 2 * g * cx[0, 2] + g * g * cx[2, 2]
            + cy[1, 1] - 2 * g * cy[1, 3] + g * g * cy[3, 3]) / (1 + g * g)


def no_worse_than_grid(value, best):
    return value <= best + 1e-12 * max(1.0, best)


class TestGainAgainstDenseGrid:
    """The optimised witness sum is at most the minimum over GAIN_GRID.

    This pins the optimum itself, whatever method finds it.  Some of the
    random states have an interior maximum on g > 0, so the lowest sum
    sits at one end of the range.
    """

    def test_witness_gains_of_one_state(self):
        worse = []
        for seed in range(GRID_STATES):
            st = random_lossy_pair(np.random.default_rng(seed))
            g = witness_gains(st, st)
            report = duan_simon(st, g)
            assert grid_sums(st, st, g) == pytest.approx(report.sum_value, rel=1e-12)
            best = grid_sums(st, st, GAIN_GRID).min()
            if not no_worse_than_grid(report.sum_value, best):
                worse.append((seed, g, report.sum_value, best))
        assert worse == []

    def test_method_a_gain_with_imbalance(self):
        worse = []
        for seed in range(GRID_STATES):
            rng = np.random.default_rng(seed)
            st = random_lossy_pair(rng)
            budgets = tuple(LossBudget(rng.uniform(0.5, 1.0), rng.uniform(0.8, 1.0),
                                       rng.uniform(0.7, 1.0)) for _ in range(2))
            for imbalance in (0.0, rng.uniform(-0.5, 0.5)):
                g, x, y = method_a_readings(st, budgets, None, imbalance)
                total = x.normalized + y.normalized
                g_eff = g * (1.0 + imbalance)
                assert grid_sums(x.state, y.state, g_eff) == pytest.approx(total, rel=1e-12)
                best = grid_sums(x.state, y.state, GAIN_GRID * (1.0 + imbalance)).min()
                if not no_worse_than_grid(total, best):
                    worse.append((seed, imbalance, g, total, best))
        assert worse == []


def stack_of(states) -> BrightGaussianState:
    return BrightGaussianState(np.stack([s.amplitudes for s in states]),
                               np.stack([s.cov for s in states]))


def scipy_gain(minimize_scalar, state_x, state_y, imbalance):
    """The gain rule on one pair through scipy's scalar bounded Brent search."""
    cx, cy = state_x.cov, state_y.cov
    params = [float(v) for v in (cx[0, 0], cx[0, 2], cx[2, 2], cy[1, 1], cy[1, 3], cy[3, 3])]
    params.append(1.0 + imbalance)

    def witness_sum(g):
        return _witness_sum(g, params)

    lo, hi = GAIN_BOUNDS
    res = minimize_scalar(lambda log_g: witness_sum(float(np.exp(log_g))),
                          bounds=(np.log(lo), np.log(hi)),
                          method="bounded", options={"xatol": 1e-12})
    g = float(np.exp(res.x))
    if not (np.isfinite(g) and np.isfinite(res.fun)):
        return 1.0
    return min((1.0, g, lo, hi), key=witness_sum)


class TestGainAgainstScipy:
    """The lockstep search over a stack, and the scalar search of a pair
    alone, give pair by pair exactly what scipy's scalar search and the
    candidate rule give."""

    def test_stacked_gains_equal_scipy_per_pair(self):
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
        rng = np.random.default_rng(2000)
        xs = [random_lossy_pair(rng) for _ in range(400)]
        # Method A's phase channel pays the visibility too.
        ys = [apply_loss(apply_loss(st, 0, rng.uniform(0.7, 1.0)), 1, rng.uniform(0.7, 1.0))
              for st in xs]
        # A coherent pair's sum is 2 at almost every gain: candidates tie.
        xs, ys = xs + [coherent_pair()] * 4, ys + [coherent_pair()] * 4
        imbalance = np.where(np.arange(404) % 2, 0.0, rng.uniform(-0.5, 0.5, 404))
        gains = witness_gains(stack_of(xs), stack_of(ys), imbalance)
        expected = [scipy_gain(minimize_scalar, sx, sy, float(imb))
                    for sx, sy, imb in zip(xs, ys, imbalance)]
        assert gains.tolist() == expected
        # An end of the range beats Brent's local minimum only past an
        # interior maximum; both kinds of pair are in the stack.
        at_end = np.isin(gains, GAIN_BOUNDS)
        assert 0 < at_end.sum() < 400
        # A pair alone runs the search on Python floats.
        alone = [*range(40), *range(400, 404)]
        assert [witness_gains(xs[k], ys[k], float(imbalance[k])) for k in alone] == [
            expected[k] for k in alone]
        assert 0 < np.isin(gains[:40], GAIN_BOUNDS).sum() < 40

    def test_each_brent_driver_gives_scipys_minimum(self):
        """Brent's own (x, f(x)), before the candidates compete with it:
        each column alone, with scipy's count of evaluations, and the
        stack in one pass."""
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
        rng = np.random.default_rng(2003)
        xs = [random_lossy_pair(rng) for _ in range(200)]
        ys = [apply_loss(apply_loss(st, 0, rng.uniform(0.7, 1.0)), 1, rng.uniform(0.7, 1.0))
              for st in xs]
        cx, cy = stack_of(xs).cov, stack_of(ys).cov
        params = np.array([cx[:, 0, 0], cx[:, 0, 2], cx[:, 2, 2], cy[:, 1, 1], cy[:, 1, 3],
                           cy[:, 3, 3], 1.0 + rng.uniform(-0.5, 0.5, 200)])
        lo, hi = GAIN_BOUNDS
        expected, alone = [], []
        for column in params.T.tolist():
            res = minimize_scalar(lambda log_g: _witness_sum(float(np.exp(log_g)), column),
                                  bounds=(np.log(lo), np.log(hi)),
                                  method="bounded", options={"xatol": 1e-12})
            expected.append((res.x, res.fun, res.nfev))
            calls = []

            def counted(log_g, p):
                calls.append(log_g)
                return _witness_sum(float(np.exp(log_g)), p)

            alone.append((*entangle._scalar_brent(counted, column), len(calls)))
        assert alone == expected
        with np.errstate(all="ignore"):  # as in minimize_gain
            x, fx = entangle._bounded_brent(lambda log_g, p: _witness_sum(np.exp(log_g), p),
                                            params)
        assert list(zip(x.tolist(), fx.tolist())) == [e[:2] for e in expected]

    def test_non_finite_minimum_falls_back_to_unit_gain(self):
        params = np.array([[2.0, np.nan, -0.5]])
        g = minimize_gain(lambda g, p: (np.log(g) - p[0]) ** 2, params)
        assert g[1] == 1.0
        assert g[[0, 2]] == pytest.approx(np.exp([2.0, -0.5]), rel=1e-9)
        g = minimize_gain(lambda g, p: (np.log(g) - p[0]) ** 2, params[:, 1:2])
        assert g.tolist() == [1.0]


def extreme_gain_columns():
    """Columns of ``_witness_sum``'s params: a lossy pair with imbalance,
    then the same with each entry in turn nan, +-inf, +-1e300 or 0; a flat
    objective (a coherent pair); and objectives that overflow to inf or to
    nan inside the range, or everywhere."""
    c = random_lossy_pair(np.random.default_rng(2002)).cov
    base = [c[0, 0], c[0, 2], c[2, 2], c[1, 1], c[1, 3], c[3, 3], 1.2]
    columns = [base]
    for row in range(7):
        for value in (np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0):
            columns.append(base[:row] + [value] + base[row + 1:])
    columns += [
        [1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0],             # flat: the sum is 2 at every g
        [1.0, 0.0, 1e308, 1.0, 0.0, 1.0, 1.0],            # inf above g ~ 1.3
        [1.0, -1e308, 1.0, 1.0, 0.0, 1.0, 1.0],           # -inf above g ~ 0.9
        [1e300, 1e300, 1e300, 1e300, -1e300, 1e300, 1.0],  # large but finite
        [1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1.0],  # inf - inf: nan above g ~ 0.9
        [1.0, 0.5, 1.0, 1.0, -0.5, 1.0, 1e300],           # g' overflows: inf / inf
        [1.0, 0.5, 1.0, 1.0, -0.5, 1.0, 1e-300],          # g' underflows
        [np.inf] * 7,
        [np.nan] * 7,
    ]
    return np.array(columns, dtype=float).T


def test_extreme_columns_get_the_same_gain_alone_and_stacked():
    """A column searched alone, on Python floats, gets the gain of its
    column in the lockstep search; neither path raises or warns."""
    params = extreme_gain_columns()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = minimize_gain(_witness_sum, params)
        alone = [minimize_gain(_witness_sum, params[:, k:k + 1]).item()
                 for k in range(params.shape[1])]
    assert alone == stacked.tolist()
    assert np.isfinite(stacked).all()
    # The flat objective (the ninth column from the end) keeps unit gain;
    # the others are not all at unit gain.
    assert stacked[-9] == 1.0 and 0 < np.sum(stacked != 1.0) < params.shape[1]


@settings(max_examples=200)
@given(hs.integers(0, 2 ** 32 - 1), hs.floats(*GAIN_BOUNDS),
       hs.sampled_from([0.0]) | hs.floats(-0.5, 0.5))
def test_gain_objective_is_the_sum_of_method_a_readings(seed, g, imbalance):
    """The gain search's closed form equals the reading it stands for, to
    within 8 eps of the largest covariance entry."""
    rng = np.random.default_rng(seed)
    budgets = tuple(LossBudget(rng.uniform(0.5, 1.0), rng.uniform(0.8, 1.0),
                               rng.uniform(0.7, 1.0)) for _ in range(2))
    _, plus, minus = method_a_readings(random_lossy_pair(rng), budgets, g, imbalance)
    cx, cy = plus.state.cov, minus.state.cov
    params = [cx[0, 0], cx[0, 2], cx[2, 2], cy[1, 1], cy[1, 3], cy[3, 3], 1.0 + imbalance]
    scale = max(np.abs(cx).max(), np.abs(cy).max())
    gap = _witness_sum(g, params) - (plus.normalized + minus.normalized)
    assert abs(gap) <= 8 * np.finfo(float).eps * scale


@settings(max_examples=40)
@given(hs.lists(hs.tuples(hs.integers(0, 2 ** 32 - 1),
                          hs.sampled_from([0.0]) | hs.floats(-0.5, 0.5)),
                min_size=1, max_size=8))
def test_each_stacked_gain_is_the_gain_of_its_pair_alone(drawn):
    """Pairs that stop early leave the search without touching the others."""
    seeds, imbalance = zip(*drawn)
    pairs = [random_lossy_pair(np.random.default_rng(seed)) for seed in seeds]
    gains = witness_gains(stack_of(pairs), stack_of(pairs), np.array(imbalance))
    for k, (pair, imb) in enumerate(zip(pairs, imbalance)):
        assert witness_gains(pair, pair, imb) == gains[k]


def test_a_lone_pair_is_searched_on_python_floats(monkeypatch):
    """A pair alone calls the objective with a float gain and a list of
    floats; a stack, with arrays."""
    calls = []

    def recording(g, params):
        calls.append((type(g), type(params), type(params[0])))
        return _witness_sum(g, params)

    monkeypatch.setattr(entangle, "_witness_sum", recording)
    pair = random_lossy_pair(np.random.default_rng(2004))
    witness_gains(pair, pair, 0.1)
    assert set(calls) == {(float, list, float)}
    calls.clear()
    witness_gains(stack_of([pair, pair]), stack_of([pair, pair]), 0.1)
    assert set(calls) == {(np.ndarray, np.ndarray, np.ndarray)}


def test_pairs_finishing_around_a_compaction_keep_their_own_gains(monkeypatch):
    """In a 240-pair stack some pairs finish while they ride along in the
    arrays, before the first compaction, and others after it; each gets
    the gain of its pair searched alone (numpy only)."""
    widths = []

    def recording(g, params):
        widths.append(np.size(g))  # a pair alone is searched on a float g
        return _witness_sum(g, params)

    monkeypatch.setattr(entangle, "_witness_sum", recording)
    rng = np.random.default_rng(2001)
    pairs = [random_lossy_pair(rng) for _ in range(236)] + [coherent_pair()] * 4
    imbalance = np.where(np.arange(240) % 2, 0.0, rng.uniform(-0.5, 0.5, 240))
    gains = witness_gains(stack_of(pairs), stack_of(pairs), imbalance)
    stacked = widths[:-1]  # the last call scores the candidate gains
    evaluations = []
    for k, (pair, imb) in enumerate(zip(pairs, imbalance)):
        widths.clear()
        assert witness_gains(pair, pair, float(imb)) == gains[k]
        # Alone, the last three calls score the candidate gains one by one.
        evaluations.append(len(widths) - 3)
    first_compaction = next(i for i, w in enumerate(stacked) if w < 240)
    # The first pairs to finish stay in the arrays for the next evaluation.
    assert min(evaluations) < first_compaction and stacked[min(evaluations)] == 240
    assert max(evaluations) > first_compaction


class TestInvariants:
    def test_loss_monotonicity_mapping(self):
        # equal loss eta on both modes maps the witness sum s to
        # eta*s + (1-eta)*2
        rng = np.random.default_rng(21)
        for _ in range(5):
            spec_a = symmetric_spec(rng.uniform(0, 4), rng.uniform(4, 6))
            spec_b = symmetric_spec(rng.uniform(0, 4), rng.uniform(4, 6))
            st = generate_entangled(spec_a, spec_b, rng.uniform(0.5, 2.5))
            eta = rng.uniform(0.2, 0.95)
            lossy = apply_loss(apply_loss(st, 0, eta), 1, eta)
            s0 = duan_simon(st).sum_value
            s1 = duan_simon(lossy).sum_value
            assert s1 == pytest.approx(eta * s0 + (1 - eta) * 2, rel=1e-9)

    def test_witness_condition_on_vs_theta_grid(self):
        # with theta-adapted bound and amplitude gains, witnessed <=> Vs < sin(theta)
        for sq_db in (1.0, 3.7, 6.0):
            spec = symmetric_spec(sq_db, sq_db)
            vs = spec.x_variance
            for theta in np.arange(0.15, 3.0, 0.15):
                st = generate_entangled(spec, spec, float(theta))
                comb = optimal_gains_for_theta(100.0, float(theta))
                vu, vv = normalized_combination_variances(st, comb)
                witnessed = (vu + vv) < theta_adapted_bound(float(theta))
                assert witnessed == (vs < math.sin(float(theta)))

    def test_common_mode_cancellation_balanced_ratio(self):
        clean = symmetric_spec(3.0, 5.0)
        noisy = symmetric_spec(3.0, 5.0, excess=23.0, group=1)
        v_clean = squeezing_variances(generate_entangled(clean, clean, math.pi / 2))[1]
        v_noisy = squeezing_variances(generate_entangled(noisy, noisy, math.pi / 2))[1]
        assert abs(v_clean - v_noisy) < 1e-9

    def test_common_mode_leak_grows_with_excess_off_ratio(self):
        # imperfectly correlated classical noise leaks once the entangling
        # splitter is off 50/50
        values = []
        for excess in (0.0, 10.0, 17.0, 23.0):
            spec = symmetric_spec(3.0, 5.0, excess=excess, group=1)
            st = generate_entangled(spec, spec, math.pi / 2, ratio=0.48,
                                    excess_correlation=0.9)
            values.append(squeezing_variances(st)[1])
        assert all(b > a for a, b in zip(values[:-1], values[1:]))


def test_two_mode_required():
    with pytest.raises(DomainError):
        squeezing_variances(make_coherent(1.0), 1.0)


def test_bright_modes_required():
    st = BrightGaussianState(np.array([10.0, 0.0]), np.eye(4))
    with pytest.raises(DegenerateModeError):
        duan_simon(st)
