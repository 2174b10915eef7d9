import hashlib
import math
import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from brightbeam import detection, harness, states
from brightbeam.detection import method_b_channels, method_c_single_port
from brightbeam.entangle import duan_simon, generate_entangled, witness_gains
from brightbeam.errors import BrightBeamError, DegenerateModeError, DomainError, ScenarioError
from brightbeam.harness import (
    CSV_HEADER,
    SWEEP_PARAMS,
    compare_methods,
    run_scenario,
    sweep,
    sweep_csv,
    with_param,
)
from brightbeam.scenario import (Scenario, fixtures_dir, load_fixtures, load_scenario,
                                 scenario_from_dict)
from brightbeam.states import apply_loss, sample_fluctuations

SQ37 = {
    "input_a.squeezing_db": 3.7, "input_a.antisqueezing_db": 3.7,
    "input_b.squeezing_db": 3.7, "input_b.antisqueezing_db": 3.7,
}
VS37 = 10 ** (-0.37)


def make(method="A", **extra):
    return scenario_from_dict({"method": method, **SQ37, **extra})


class TestRunScenario:
    def test_coherent_inputs_sit_on_the_bound(self):
        for method in ("A", "B", "C"):
            row = run_scenario(Scenario(method=method))
            assert row.sum_value == pytest.approx(2.0, rel=1e-12)
            assert not row.witnessed

    def test_lossless_all_methods_agree(self):
        for method in ("A", "B", "C"):
            row = run_scenario(make(method))
            assert row.v_sq_plus == pytest.approx(VS37, rel=1e-9)
            assert row.v_sq_minus == pytest.approx(VS37, rel=1e-9)
            assert row.sum_value == pytest.approx(2 * VS37, rel=1e-9)
            assert row.witnessed

    def test_bounds_per_method(self):
        theta = 1.1
        assert run_scenario(make("A", theta=theta)).bound == 2.0
        assert run_scenario(make("B", theta=theta)).bound == pytest.approx(
            2 * abs(math.sin(theta)))
        assert run_scenario(make("C", theta=theta)).bound == 2.0

    def test_witnessed_flag_consistent_with_fields(self):
        for method in ("A", "B", "C"):
            for sq in (0.0, 1.5, 3.7):
                row = run_scenario(make(method, **{
                    k: sq for k in SQ37}))
                assert row.witnessed == (row.sum_value < row.bound)

    def test_method_a_loss_budget(self):
        row = run_scenario(make("A", **{
            "budget_a.prop_loss": 0.1, "budget_a.visibility": 0.95,
            "budget_a.quantum_efficiency": 0.9,
            "budget_b.prop_loss": 0.1, "budget_b.visibility": 0.95,
            "budget_b.quantum_efficiency": 0.9,
        }))
        eta_y = 0.9 * 0.95 ** 2 * 0.9
        eta_x = 0.9 * 0.9
        assert row.v_sq_minus == pytest.approx(eta_y * VS37 + 1 - eta_y, rel=1e-9)
        assert row.v_sq_plus == pytest.approx(eta_x * VS37 + 1 - eta_x, rel=1e-9)

    def test_gain_optimize_beats_unit_gain_when_asymmetric(self):
        kwargs = {"input_b.squeezing_db": 2.0, "input_b.antisqueezing_db": 2.0,
                  "budget_b.prop_loss": 0.2}
        unit = run_scenario(make("A", **kwargs))
        opt = run_scenario(make("A", gain="optimize", **kwargs))
        assert opt.gain != pytest.approx(1.0)
        assert opt.sum_value < unit.sum_value

    def test_mc_estimate_within_sampling_error(self):
        for method in ("A", "B", "C"):
            row = run_scenario(make(method, mc_samples=200_000, seed=7))
            assert row.mc_stderr is not None and row.mc_stderr > 0
            assert abs(row.mc_sum - row.sum_value) < 4 * row.mc_stderr

    def test_mc_deterministic_for_fixed_seed(self):
        a = run_scenario(make("B", mc_samples=50_000, seed=3))
        b = run_scenario(make("B", mc_samples=50_000, seed=3))
        assert a.mc_sum == b.mc_sum
        c = run_scenario(make("B", mc_samples=50_000, seed=4))
        assert c.mc_sum != a.mc_sum

    def test_report_row_dict_shape(self):
        d = run_scenario(make("C", label="x", frequency_mhz=17.5)).to_dict()
        assert d["method"] == "C"
        assert d["sum"] == pytest.approx(2 * VS37, rel=1e-9)
        assert "mc_sum" not in d
        assert d["frequency_mhz"] == 17.5
        assert "port_c" in d["raw"]


class TestSweep:
    def test_csv_deterministic(self):
        s = make("B", mc_samples=20_000)
        text1 = sweep_csv(s, "theta", 0.2, 3.0, 8)
        text2 = sweep_csv(s, "theta", 0.2, 3.0, 8)
        assert text1 == text2
        lines = text1.rstrip("\n").split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 9
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_HEADER.split(","))

    def test_theta_sweep_flat_witness_columns(self):
        # normalized combination variances do not depend on the entangling
        # phase, only the bound does
        rows = sweep(make("B"), "theta", 0.3, 2.8, 6)
        sums = [row.sum_value for _, row in rows]
        bounds = [row.bound for _, row in rows]
        assert np.ptp(sums) < 1e-9
        assert np.ptp(bounds) > 0.1

    def test_squeezing_sweep_monotone(self):
        rows = sweep(Scenario(method="A"), "squeezing_db", 0.0, 3.0, 7)
        sums = [row.sum_value for _, row in rows]
        assert sums[0] == pytest.approx(2.0, rel=1e-12)
        assert all(a > b for a, b in zip(sums, sums[1:]))

    def test_eta_sweep_degrades_toward_bound(self):
        rows = sweep(make("A"), "eta", 1.0, 0.5, 6)
        sums = [row.sum_value for _, row in rows]
        assert all(a < b for a, b in zip(sums, sums[1:]))
        assert sums[-1] < 2.0

    def test_excess_sweep_leaks_only_when_unbalanced(self):
        base = make("B", **{"excess_correlation": 0.95,
                            "input_a.correlated_group": 1,
                            "input_b.correlated_group": 1})
        balanced = sweep(base, "excess_phase_db", 0.0, 20.0, 5)
        unbalanced = sweep(scenario_from_dict({
            **SQ37, "method": "B", "excess_correlation": 0.95,
            "entangle_ratio": 0.48,
            "input_a.correlated_group": 1, "input_b.correlated_group": 1,
        }), "excess_phase_db", 0.0, 20.0, 5)
        sums_u = [row.sum_value for _, row in unbalanced]
        assert all(a < b for a, b in zip(sums_u, sums_u[1:]))
        sums_b = [row.sum_value for _, row in balanced]
        assert sums_u[-1] > sums_b[-1]

    def test_unknown_param_rejected(self):
        with pytest.raises(ScenarioError, match="sweep parameter"):
            with_param(Scenario(), "amplitude", 5.0)
        with pytest.raises(ScenarioError, match="steps"):
            sweep(Scenario(), "theta", 0.0, 1.0, 1)

    def test_out_of_range_scenario_field_names_the_sweep(self):
        with pytest.raises(ScenarioError) as exc:
            with_param(Scenario(), "entangle_ratio", 1.5)
        assert str(exc.value).startswith("cannot sweep entangle_ratio to 1.5: ")

    def test_all_declared_params_accepted(self):
        for p in SWEEP_PARAMS:
            with_param(Scenario(), p, 0.4)


class TestCompare:
    def test_fixture_table_runs_and_aligns(self):
        rows = [run_scenario(s) for s in load_fixtures()]
        table = compare_methods(rows)
        assert len(rows) == 4
        lines = table.split("\n")
        assert lines[0].startswith("method")
        assert all(r.witnessed for r in rows)
        assert "note:" in table  # A at 20.5 MHz vs B/C at 17.5 MHz

    def test_note_absent_for_matching_frequencies(self):
        rows = [run_scenario(make(m, frequency_mhz=17.5, label=m)) for m in "BC"]
        assert "note:" not in compare_methods(rows)

    def test_single_row_rejected(self):
        with pytest.raises(ScenarioError):
            compare_methods([run_scenario(Scenario())])

    def test_empty_fixture_directory_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="at least 2 fixture scenarios, found 0 in"):
            load_fixtures(tmp_path)
        (tmp_path / "a.json").write_text('{"method": "B"}\n')
        with pytest.raises(ScenarioError, match="at least 2 fixture scenarios, found 1 in"):
            load_fixtures(tmp_path)


BUDGETS = {
    "budget_a.prop_loss": 0.1, "budget_a.visibility": 0.95,
    "budget_a.quantum_efficiency": 0.9,
    "budget_b.prop_loss": 0.25, "budget_b.visibility": 0.9,
    "budget_b.quantum_efficiency": 0.85,
}
PIN_CASES = [
    {},
    {"theta": 1.1, "phi": 1.3},
    {**BUDGETS, "imbalance": 0.07},
    {**BUDGETS, "imbalance": -0.05, "theta": 1.1, "phi": 1.9, "gain": 1.4},
    {**BUDGETS, "imbalance": 0.07, "gain": "optimize"},
]


def _entangled(s):
    return generate_entangled(s.input_a, s.input_b, s.theta, s.entangle_ratio,
                              excess_correlation=s.excess_correlation)


def _assert_raw(raw, expected):
    assert set(raw) == set(expected)
    for key, fields in expected.items():
        for field, value in fields.items():
            assert raw[key][field] == pytest.approx(value, rel=1e-12), (key, field)


def _method_a_paths(s):
    """Method A's amplitude (X) and phase (Y) paths, built apart from
    ``detection``: one ``apply_loss`` per arm, the visibility on the phase
    path only."""
    paths = []
    for with_visibility in (False, True):
        lossy = _entangled(s)
        for mode, budget in enumerate((s.budget_a, s.budget_b)):
            lossy = apply_loss(lossy, mode, budget.effective(with_visibility))
        paths.append(lossy)
    return paths


def _pin(s):
    """Method A's gain and raw readings, built apart from ``detection`` on
    ``_method_a_paths``, each photocurrent's explicit weights read with
    combination_variance."""
    paths = _method_a_paths(s)
    g = witness_gains(*paths, s.imbalance) if s.gain == "optimize" else s.gain
    raw = {}
    for (key, q, sign), lossy in zip((("plus", 0, 1.0), ("minus", 1, -1.0)), paths):
        a1 = lossy.amplitudes[0]
        for name, relative in ((key, sign), (f"{key}_anti", -sign)):
            w = np.zeros(4)
            w[q], w[2 + q] = a1, relative * g * (1.0 + s.imbalance) * a1
            variance, shot_noise = lossy.combination_variance(w), w @ w
            raw[name] = {"variance": variance, "shot_noise": shot_noise,
                         "normalized": variance / shot_noise,
                         "rel_db": 10 * math.log10(variance / shot_noise)}
    return g, raw


def _assert_equals_detection(s):
    """run_scenario(s) reports what the public detection functions read, and
    for method A what ``_pin`` builds by hand."""
    budgets = (s.budget_a, s.budget_b)
    if s.method == "C":
        expected = {}
        for p in ("c", "d"):
            try:
                expected[f"port_{p}"] = method_c_single_port(
                    _entangled(s), s.phi, p, budgets).to_dict()
            except DegenerateModeError:
                pass
        if f"port_{s.port}" not in expected:
            with pytest.raises(DegenerateModeError):
                run_scenario(s)
            return
        row = run_scenario(s)
        v_plus = v_minus = expected[f"port_{s.port}"]["normalized"]
    elif s.method == "B":
        row = run_scenario(s)
        total, diff = method_b_channels(_entangled(s), s.phi, budgets, s.imbalance)
        v_plus, v_minus = total.normalized, diff.normalized
        expected = {"sum_channel": total.to_dict(), "diff_channel": diff.to_dict()}
    else:
        row = run_scenario(s)
        g, expected = _pin(s)
        assert row.gain == pytest.approx(g, rel=1e-12)
        v_plus, v_minus = expected["plus"]["normalized"], expected["minus"]["normalized"]
    assert row.v_sq_plus == pytest.approx(v_plus, rel=1e-12)
    assert row.v_sq_minus == pytest.approx(v_minus, rel=1e-12)
    _assert_raw(row.raw, expected)


class TestHarnessEqualsDetection:
    """run_scenario reports exactly what the public detection functions give."""

    @pytest.mark.parametrize("extra", PIN_CASES)
    def test_method_a(self, extra):
        _assert_equals_detection(make("A", **extra))

    @pytest.mark.parametrize("extra", PIN_CASES)
    def test_method_b(self, extra):
        _assert_equals_detection(make("B", **extra))

    @pytest.mark.parametrize("port", ["c", "d"])
    @pytest.mark.parametrize("extra", PIN_CASES + [{"phi": 0.0}])
    def test_method_c(self, extra, port):
        _assert_equals_detection(make("C", port=port, **extra))

    def test_phi_zero_leaves_port_c_dark(self):
        row = run_scenario(make("C", port="d", phi=0.0))
        assert set(row.raw) == {"port_d"}
        assert set(run_scenario(make("C", port="d")).raw) == {"port_c", "port_d"}

    def test_optimized_gain_matches_witness_gains(self):
        extra = {"budget_a.prop_loss": 0.1, "budget_b.prop_loss": 0.3,
                 "budget_b.quantum_efficiency": 0.8,
                 "input_b.squeezing_db": 2.0, "input_b.antisqueezing_db": 2.5}
        s = make("A", gain="optimize", **extra)
        lossy = _entangled(s)
        for mode, budget in enumerate((s.budget_a, s.budget_b)):
            lossy = apply_loss(lossy, mode, budget.effective())
        g = witness_gains(lossy, lossy)
        row = run_scenario(s)
        assert g != pytest.approx(1.0)
        assert row.gain == pytest.approx(g, rel=1e-12)
        assert row.sum_value == pytest.approx(duan_simon(lossy, g).sum_value, rel=1e-12)


def _record_draws(monkeypatch):
    """A list that gets (count, S_z as nested lists) of each draw the
    harness makes."""
    calls = []
    real = harness.normal_covariance

    def recording(count, seed, dim):
        s_z = real(count, seed, dim)
        calls.append((count, s_z.tolist()))
        return s_z

    monkeypatch.setattr(harness, "normal_covariance", recording)
    return calls


def _stream_draws(count, seeds):
    """(count, S_z as nested lists) of a plan's draws, in turn, the j-th from
    the random.Random(seeds[j]) stream; the draws of one plan share it."""
    streams = {seed: random.Random(seed) for seed in seeds}
    return [(count, states.normal_covariance(count, streams[seed], 4).tolist())
            for seed in seeds]


class TestMonteCarloDrawPlan:
    """One draw per measured state, in plan order, from one random.Random(seed)."""

    @pytest.mark.parametrize("method, seeds", [("A", [11, 11]), ("B", [11]), ("C", [11])])
    def test_draws_per_method(self, monkeypatch, method, seeds):
        calls = _record_draws(monkeypatch)
        run_scenario(make(method, mc_samples=1000, seed=11, **BUDGETS))
        assert calls == _stream_draws(1000, seeds)


def _random_scenario(rng, method, **extra):
    """A scenario with random inputs, asymmetric budgets and a nonzero imbalance."""
    flat = {"method": method, "theta": rng.uniform(0.3, 2.8), "phi": rng.uniform(0.4, 2.7),
            "entangle_ratio": rng.uniform(0.3, 0.7),
            "excess_correlation": rng.uniform(0.8, 1.0),
            "imbalance": rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.1)}
    for arm in ("a", "b"):
        sq = rng.uniform(0.0, 6.0)
        flat.update({f"input_{arm}.squeezing_db": sq,
                     f"input_{arm}.antisqueezing_db": sq + rng.uniform(0.0, 3.0),
                     f"input_{arm}.excess_phase_db": rng.uniform(0.0, 25.0),
                     f"input_{arm}.correlated_group": 1,
                     f"budget_{arm}.prop_loss": rng.uniform(0.0, 0.4),
                     f"budget_{arm}.visibility": rng.uniform(0.85, 1.0),
                     f"budget_{arm}.quantum_efficiency": rng.uniform(0.8, 1.0)})
    return scenario_from_dict({**flat, **extra})


# Variants of the random scenarios, and a range in which every point evaluates.
GRID_VARIANTS = {
    "A": {"method": "A"},
    "A_opt": {"method": "A", "gain": "optimize"},
    "B": {"method": "B"},
    "C_c": {"method": "C", "port": "c"},
    "C_d": {"method": "C", "port": "d"},
}
GRID_RANGES = {
    "theta": (0.05, 3.09), "phi": (0.2, 2.9), "gain": (0.2, 5.0),
    "squeezing_db": (0.0, 8.0), "eta": (0.3, 1.0), "excess_phase_db": (0.0, 30.0),
    "entangle_ratio": (0.05, 0.95),
}


def _assert_rows_match(row, expected):
    for field in ("v_sq_plus", "v_sq_minus", "sum_value", "bound", "gain"):
        assert getattr(row, field) == pytest.approx(getattr(expected, field), rel=1e-12), field
    assert row.witnessed == expected.witnessed
    assert set(row.raw) == set(expected.raw)
    for key, fields in expected.raw.items():
        for name, value in fields.items():
            assert row.raw[key][name] == pytest.approx(value, rel=1e-12), (key, name)


class TestGridEqualsPoint:
    """Every row of a sweep is what run_scenario gives for that point alone."""

    @pytest.mark.parametrize("param", SWEEP_PARAMS)
    @pytest.mark.parametrize("variant", sorted(GRID_VARIANTS))
    def test_random_scenarios(self, variant, param):
        rng = np.random.default_rng([sorted(GRID_VARIANTS).index(variant),
                                     SWEEP_PARAMS.index(param)])
        for _ in range(2):
            s = _random_scenario(rng, **GRID_VARIANTS[variant])
            lo, hi = GRID_RANGES[param]
            start, stop = sorted(rng.uniform(lo, hi, 2))
            steps = int(rng.integers(2, 9))
            rows = sweep(s, param, start, stop, steps)
            assert [v for v, _ in rows] == np.linspace(start, stop, steps).tolist()
            for value, row in rows:
                _assert_rows_match(row, run_scenario(with_param(s, param, value)))

    def test_port_dark_at_one_point_is_left_out_there(self):
        rows = sweep(make("C", port="d"), "phi", -0.5, 0.5, 3)
        assert [set(row.raw) for _, row in rows] == [
            {"port_c", "port_d"}, {"port_d"}, {"port_c", "port_d"}]
        for value, row in rows:
            _assert_rows_match(row, run_scenario(with_param(make("C", port="d"), "phi", value)))

    @pytest.mark.parametrize("method", ["A", "B", "C"])
    def test_monte_carlo_rows(self, method):
        s = make(method, mc_samples=500, seed=3, **BUDGETS)
        for value, row in sweep(s, "theta", 0.5, 2.5, 4):
            point = run_scenario(with_param(s, "theta", value))
            assert (row.mc_sum, row.mc_stderr) == (point.mc_sum, point.mc_stderr)
        # Two stacks: the first and last rows, and the rows either side of
        # the edge between the stacks.
        steps = harness._CHUNK + 3
        rows = sweep(s, "theta", 0.5, 2.5, steps)
        for k in (0, harness._CHUNK - 1, harness._CHUNK, steps - 1):
            value, row = rows[k]
            point = run_scenario(with_param(s, "theta", value))
            assert (row.mc_sum, row.mc_stderr) == (point.mc_sum, point.mc_stderr), k

    @pytest.mark.parametrize("method, seeds", [("A", [3, 3]), ("B", [3]), ("C", [3])])
    def test_gain_sweep_draws_once_per_measured_state(self, monkeypatch, method, seeds):
        # The gain weighs the photocurrents but leaves every state alone.
        calls = _record_draws(monkeypatch)
        s = make(method, mc_samples=1000, seed=3, **BUDGETS)
        rows = sweep(s, "gain", 0.5, 2.0, 10)
        assert calls == _stream_draws(1000, seeds)
        for value, row in rows:
            assert row == run_scenario(with_param(s, "gain", value))


@pytest.mark.parametrize("method, kept", [("B", [2]), ("C", [1]), ("A", [1, 1])])
def test_gain_sweep_reads_each_shared_weight_vector_once(monkeypatch, method, kept):
    # A gain sweep draws each measured state once: B's one draw serves its
    # two channels, C's its one port, and A's two draws, its amplitude path
    # then its phase path, one channel each.  Every reading of a draw is
    # read off its one state, at each of the 50 points' weights, as the
    # np.var oracle does.
    calls, seen = [], []
    real_sampler, real_columns = harness.normal_covariance, harness._mc_columns

    def recording(count, seed, dim):
        calls.append(seed)
        return real_sampler(count, seed, dim)

    def columns(draws, n, count, seed):
        seen.append((draws, real_columns(draws, n, count, seed)))
        return seen[-1][1]

    monkeypatch.setattr(harness, "normal_covariance", recording)
    monkeypatch.setattr(harness, "_mc_columns", columns)
    s = make(method, mc_samples=1000, seed=3, **BUDGETS)
    sweep_csv(s, "gain", 0.5, 2.0, 50)
    [(draws, got)] = seen
    assert len(calls) == len(kept)
    assert [len(members) for members in draws] == kept
    for members in draws:
        assert all(r.state is members[0][0].state for r, _ in members)
    if method == "A":
        for members, path in zip(draws, _method_a_paths(s), strict=True):
            assert np.allclose(members[0][0].state.cov, path.cov, rtol=1e-12, atol=0)
    _assert_oracle_columns(got, _sequential_monte_carlo(draws, 50, 1000, 3))


def test_monte_carlo_peak_memory_is_below_one_sample_array():
    # A draw is one 4 x 4 sample covariance drawn from its law, so its peak
    # stays far below the 32 MiB of one 2**20 x 4 sample array and does not
    # grow with the count.
    s = make("A", mc_samples=2, seed=3, **BUDGETS)
    run_scenario(s)
    peaks = []
    for count in (2 ** 16, 2 ** 20):
        tracemalloc.start()
        try:
            run_scenario(replace(s, mc_samples=count))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * 2 ** 20
    assert peaks[1] - peaks[0] < 64 * 2 ** 10


def test_each_stack_of_a_gain_sweep_draws_its_own_matrices(monkeypatch):
    # 10 000 steps run as 3 stacks of at most _CHUNK values; each stack
    # draws the one state of fixture B from its own random.Random(seed),
    # so all three draw the same S_z.
    calls = _record_draws(monkeypatch)
    s = replace(load_scenario(fixtures_dir() / "method_b.json"), mc_samples=1000)
    text = sweep_csv(s, "gain", 0.5, 2.0, 10_000)
    assert calls == _stream_draws(1000, [s.seed]) * 3
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "3d70023f324d36a145f3ea664a9a88cdb03b012ea070445a29385374c385af61")


def test_each_stack_of_a_method_a_sweep_draws_its_own_matrices(monkeypatch):
    # Whatever the swept parameter reaches, each stack draws method A's two
    # measured states in turn from one stream seeded 5: once for a grid of
    # one stack, and the same two matrices again for each further stack of
    # the theta grid.  The CSVs are the ones the draw per stack element gave.
    calls = _record_draws(monkeypatch)
    s = make("A", mc_samples=200, seed=5, **BUDGETS)
    digest = hashlib.sha256()
    for param in SWEEP_PARAMS:
        calls.clear()
        steps = harness._CHUNK + 3 if param == "theta" else 9
        digest.update(sweep_csv(s, param, *GRID_RANGES[param], steps).encode("utf-8"))
        stacks = 2 if param == "theta" else 1
        assert calls == _stream_draws(200, [5, 5]) * stacks, param
    assert digest.hexdigest() == (
        "a93e4296bcdf6c6968d7e61c53aed49445811bb8d6c8f500d14aa4d63af9e1c2")


def _sequential_monte_carlo(draws, n, count, seed):
    """mc_sum and mc_stderr of a draw plan, read as the np.var oracle reads
    samples.  Each state's S_z is drawn in plan order from one
    random.Random(seed) and stood in for by count rows whose ddof=1 sample
    covariance it is; at each point the rows are mapped through the
    state's sampling root, as ``sample_fluctuations`` maps its normals, and
    projected on each reading's weights.  The error is Isserlis' from the
    sample covariances of those projections."""
    def at(x, k):
        return x[k] if len(x) > 1 else x[0]

    stream = random.Random(seed)
    sums, err_sq = [0.0] * n, [0.0] * n
    for members in draws:
        state = members[0][0].state
        dim = state.cov.shape[-1]
        w, v = np.linalg.eigh(states.normal_covariance(count, stream, dim))
        # rows x dim orthonormal columns, each orthogonal to the mean and
        # scaled so that the ddof=1 sample covariance of z is S_z.
        rows = max(count, dim + 1)
        basis = np.linalg.qr(np.column_stack(
            [np.ones(rows), np.random.default_rng(0).standard_normal((rows, dim))]))[0][:, 1:]
        z = math.sqrt(rows - 1) * basis @ (v * np.sqrt(np.clip(w, 0.0, None))).T
        mult = np.array([m for _, m in members])
        stack = len(state.amplitudes)
        for k in range(n):
            samples = z @ states._sampling_root(state[k if stack > 1 else 0])
            c = np.atleast_2d(np.cov([samples @ at(r.weights, k) / math.sqrt(at(r.shot_noise, k))
                                      for r, _ in members]))
            sums[k] += float(np.diag(c) @ mult)
            err_sq[k] += float(mult @ c ** 2 @ mult) * 2.0 / (count - 1)
    return sums, [math.sqrt(e) for e in err_sq]


def _assert_oracle_columns(columns, expected):
    """MC columns that are the np.var oracle's, to 1e-12 and at "%.6g"."""
    for got, want in zip(columns, expected):
        assert got == pytest.approx(want, rel=1e-12)
        assert ["%.6g" % x for x in got] == ["%.6g" % x for x in want]


def test_mc_reads_small_channels_under_huge_excess_noise(monkeypatch):
    # 150 dB of shared excess phase noise: the sampling root spans about 15
    # orders, and method A's channels cancel its largest part.  Each channel
    # is projected through the root before it meets the sample covariance,
    # so its variance is the oracle's, not lost to rounding.
    seen = []
    real = harness._mc_columns

    def recording(draws, n, count, seed):
        seen.append(draws)
        return real(draws, n, count, seed)

    monkeypatch.setattr(harness, "_mc_columns", recording)
    s = scenario_from_dict({"method": "A", "mc_samples": 20_000, "seed": 3, **{
        f"input_{arm}.{field}": value for arm in "ab"
        for field, value in (("excess_phase_db", 150.0), ("correlated_group", 1))}})
    row = run_scenario(s)
    (mc_sum,), _ = _sequential_monte_carlo(seen[0], 1, 20_000, 3)
    assert row.mc_sum == pytest.approx(mc_sum, rel=1e-9)


# The bundled fixtures, fixture A with an optimised gain, and method B at
# phi = 0.2, where its two channels correlate at rho = -0.83, at 2000 samples.
MC_SCENARIOS = {
    **{name: replace(load_scenario(fixtures_dir() / f"{name}.json"), mc_samples=2000)
       for name in ("method_a", "method_b", "method_c_port_c", "method_c_port_d")},
    "method_a_opt": replace(load_scenario(fixtures_dir() / "method_a.json"),
                            mc_samples=2000, gain="optimize"),
    "method_b_phi_0.2": scenario_from_dict({
        "method": "B", "phi": 0.2, "theta": 1.2, "mc_samples": 2000,
        "input_a.squeezing_db": 0.0, "input_a.antisqueezing_db": 3.0,
        "input_b.squeezing_db": 1.0, "input_b.antisqueezing_db": 4.0}),
}


def _plan_and_sum(monkeypatch, s):
    """The Monte-Carlo draw plan of one run of s, and its analytic sum."""
    plans, real = [], harness._mc_columns

    def recording(draws, *args):
        plans.append(draws)
        return real(draws, *args)

    monkeypatch.setattr(harness, "_mc_columns", recording)
    total = run_scenario(s).sum_value
    return plans[0], total


@pytest.mark.parametrize("name", sorted(MC_SCENARIOS))
def test_mc_stderr_is_calibrated(monkeypatch, name):
    # z = (mc_sum - sum) / mc_stderr over 400 seeds spreads by one, to 15%.
    # Method B at phi = 0.2 spread by 1.22 while its error bar left out the
    # covariance of its two channels.
    s = MC_SCENARIOS[name]
    draws, total = _plan_and_sum(monkeypatch, s)
    z = []
    for seed in range(400):
        (mc_sum,), (mc_stderr,) = harness._mc_columns(draws, 1, s.mc_samples, seed)
        z.append((mc_sum - total) / mc_stderr)
    assert 0.85 <= np.std(z, ddof=1) <= 1.15


@pytest.mark.parametrize("name", sorted(MC_SCENARIOS))
def test_drawn_sums_are_the_sampled_sums_in_law(monkeypatch, name):
    # mc_sum from S_z drawn from its law, and from the np.var of the samples
    # sample_fluctuations draws (the j-th state of the plan with seed
    # 2 * seed + j, so no two draws share a stream), over 400 seeds: the
    # same mean to 5 standard errors, and the same spread to 15%.
    s = MC_SCENARIOS[name]
    draws, _ = _plan_and_sum(monkeypatch, s)
    drawn, sampled = [], []
    for seed in range(400):
        drawn += harness._mc_columns(draws, 1, s.mc_samples, seed)[0]
        sampled.append(sum(
            mult * float(np.var(sample_fluctuations(members[0][0].state[0], s.mc_samples,
                                                    2 * seed + j) @ r.weights[0], ddof=1))
            / float(r.shot_noise[0])
            for j, members in enumerate(draws) for r, mult in members))
    assert abs(np.mean(drawn) - np.mean(sampled)) <= 5 * math.sqrt(
        (np.var(drawn, ddof=1) + np.var(sampled, ddof=1)) / 400)
    assert 0.85 <= np.std(drawn, ddof=1) / np.std(sampled, ddof=1) <= 1.15


@pytest.mark.parametrize("gain", [1.3, "optimize"])
def test_method_a_applies_each_loss_budget_once(monkeypatch, gain):
    # Two paths (amplitude, phase), each one lossy map over both arms.
    calls = []
    real = detection._apply_losses

    def counting(state, losses):
        calls.append([mode for mode, _ in losses])
        return real(state, losses)

    monkeypatch.setattr(detection, "_apply_losses", counting)
    run_scenario(make("A", gain=gain, **BUDGETS))
    assert calls == [[0, 1], [0, 1]]


def _first_point_error(s, param, start, stop, steps):
    for value in np.linspace(start, stop, steps).tolist():
        try:
            run_scenario(with_param(s, param, value))
        except (ScenarioError, DegenerateModeError) as exc:
            return exc
    raise AssertionError("no point fails")


@pytest.mark.parametrize("s, param, start, stop, steps", [
    (make("C"), "phi", -0.5, 0.5, 3),
    (make("B"), "eta", 0.0, 2.0, 3),
    (make("B"), "eta", 2.0, 0.0, 3),
    (make("A", gain="optimize"), "eta", 0.0, 1.0, 3),
    (make("A"), "squeezing_db", 1.0, -1.0, 3),
    (make("B"), "phi", 1.0, -1.0, 5),
    (make("A"), "entangle_ratio", 0.5, 1.5, 3),
])
def test_grid_raises_what_its_first_failing_point_raises(s, param, start, stop, steps):
    expected = _first_point_error(s, param, start, stop, steps)
    with pytest.raises(type(expected)) as exc:
        sweep(s, param, start, stop, steps)
    assert str(exc.value) == str(expected)


@hs.composite
def scenarios(draw):
    """Scenarios of every variant of GRID_VARIANTS, with random inputs, budgets,
    phases and imbalance, some with a few Monte-Carlo samples."""
    flat = {**GRID_VARIANTS[draw(hs.sampled_from(sorted(GRID_VARIANTS)))],
            "theta": draw(hs.floats(0.05, 3.09)), "phi": draw(hs.floats(0.2, 2.9)),
            "entangle_ratio": draw(hs.floats(0.05, 0.95)),
            "excess_correlation": draw(hs.floats(0.0, 1.0)),
            "imbalance": draw(hs.floats(-0.1, 0.1)),
            "mc_samples": draw(hs.sampled_from([0, 50])), "seed": draw(hs.integers(0, 9))}
    if flat["method"] == "A" and "gain" not in flat:
        flat["gain"] = draw(hs.floats(0.2, 5.0))
    for arm in ("a", "b"):
        sq = draw(hs.floats(0.0, 6.0))
        flat.update({f"input_{arm}.squeezing_db": sq,
                     f"input_{arm}.antisqueezing_db": sq + draw(hs.floats(0.0, 3.0)),
                     f"input_{arm}.excess_phase_db": draw(hs.floats(0.0, 25.0)),
                     f"input_{arm}.correlated_group": draw(hs.sampled_from([1, 2, None])),
                     f"budget_{arm}.prop_loss": draw(hs.floats(0.0, 0.4)),
                     f"budget_{arm}.visibility": draw(hs.floats(0.85, 1.0)),
                     f"budget_{arm}.quantum_efficiency": draw(hs.floats(0.8, 1.0))})
    return scenario_from_dict(flat)


@settings(max_examples=80)
@given(s=scenarios())
def test_any_scenario_equals_detection(s):
    _assert_equals_detection(s)


# Sweep bounds: the edges of the unit ranges, negative values and random ones.
SWEEP_BOUNDS = hs.sampled_from([0.0, 1.0, -1.0, 0.5, 1.5]) | hs.floats(-2.0, 35.0)


# Stacks of 3 split most grids of 2 to 8 steps; the default runs each whole.
CHUNKS = (3, harness._CHUNK)


@settings(max_examples=80)
@given(s=scenarios(), param=hs.sampled_from(SWEEP_PARAMS), start=SWEEP_BOUNDS,
       stop=SWEEP_BOUNDS, steps=hs.integers(2, 8))
# Propagation 1.5 at quantum efficiency 0.5 leaves an efficiency of 0.75,
# which the loss map accepts: only the check of the largest value rejects it.
@example(s=make("B", **{"budget_a.quantum_efficiency": 0.5,
                        "budget_b.quantum_efficiency": 0.5}),
         param="eta", start=0.5, stop=1.5, steps=3)
def test_sweep_is_its_points_or_its_first_failing_point(s, param, start, stop, steps):
    """A grid gives run_scenario of each point exactly, or raises the error of
    its first failing point, in stacks of any size."""
    points, error = [], None
    for value in np.linspace(start, stop, steps).tolist():
        try:
            points.append((value, run_scenario(with_param(s, param, value))))
        except BrightBeamError as exc:
            error = exc
            break
    for chunk in CHUNKS:
        with mock.patch.object(harness, "_CHUNK", chunk):
            if error is None:
                assert sweep(s, param, start, stop, steps) == points
                continue
            with pytest.raises(type(error)) as raised:
                sweep(s, param, start, stop, steps)
            assert str(raised.value) == str(error)


@pytest.mark.parametrize("param", SWEEP_PARAMS)
def test_valid_grid_builds_no_scenario_per_point(monkeypatch, param):
    # with_param validates the two extremes only; a fall-back to the
    # point-by-point path would call it 1000 more times.
    calls = []
    real = harness.with_param

    def counting(s, name, value):
        calls.append(value)
        return real(s, name, value)

    monkeypatch.setattr(harness, "with_param", counting)
    lo, hi = GRID_RANGES[param]
    rows = sweep(make("A", **BUDGETS), param, hi, lo, 1000)
    assert len(rows) == 1000
    assert sorted(calls) == [lo, hi]


def test_overflowing_excess_column_raises_the_point_error():
    # 4000 dB of excess phase noise overflows in the column's dB conversion;
    # the sweep raises what the first point beyond the range raises.
    s = make("B")
    message = "4000.0 dB is out of the representable variance range"
    with pytest.raises(DomainError, match=message):
        run_scenario(with_param(s, "excess_phase_db", 4000.0))
    with pytest.raises(DomainError) as exc:
        sweep(s, "excess_phase_db", 0.0, 4000.0, 2)
    assert str(exc.value) == message


def _csv_of_rows(param, pairs) -> str:
    """The sweep CSV rendered row by row, each field by the rules it has
    always had: format(x, ".6g"), "true"/"false", and "" for no MC value."""
    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, bool):
            return "true" if x else "false"
        return format(x, ".6g")

    lines = [CSV_HEADER] + [",".join([
        row.method, param, fmt(value), fmt(row.v_sq_plus), fmt(row.v_sq_minus),
        fmt(row.sum_value), fmt(row.bound), fmt(row.witnessed),
        fmt(row.mc_sum), fmt(row.mc_stderr)]) for value, row in pairs]
    return "\n".join(lines) + "\n"


@settings(max_examples=60)
@given(s=scenarios(), param=hs.sampled_from(SWEEP_PARAMS), data=hs.data(),
       steps=hs.integers(2, 8))
def test_csv_is_its_rows(s, param, data, steps):
    """sweep_csv renders what sweep returns, or raises what it raises, in
    stacks of any size."""
    bounds = hs.floats(*GRID_RANGES[param]) | SWEEP_BOUNDS
    start, stop = data.draw(bounds), data.draw(bounds)
    for chunk in CHUNKS:
        with mock.patch.object(harness, "_CHUNK", chunk):
            try:
                pairs = sweep(s, param, start, stop, steps)
            except BrightBeamError as exc:
                with pytest.raises(type(exc)) as raised:
                    sweep_csv(s, param, start, stop, steps)
                assert str(raised.value) == str(exc)
                continue
            assert sweep_csv(s, param, start, stop, steps) == _csv_of_rows(param, pairs)


@pytest.mark.parametrize("method", ["A", "B", "C"])
def test_csv_of_stacks_of_one_is_the_grid_csv(monkeypatch, method):
    # A grid that only evaluates as stacks of one renders the same bytes.
    s = make(method, mc_samples=50, seed=2, **BUDGETS)
    grid = sweep_csv(s, "theta", 0.4, 2.6, 6)
    real = harness._evaluate

    def points_only(scenario, columns=None):
        if columns and len(next(iter(columns.values()))) > 1:
            raise DomainError("the grid fails as a stack")
        return real(scenario, columns)

    monkeypatch.setattr(harness, "_evaluate", points_only)
    assert sweep_csv(s, "theta", 0.4, 2.6, 6) == grid


@pytest.mark.parametrize("start, stop", [(1.0, 0.0), (0.0, 1.0)])
def test_failing_grid_evaluates_a_few_stacks(monkeypatch, start, stop):
    # Port c is dark at phi = 0, the last point or the first: halving the
    # failing stack finds it in about log2(steps) stacks, not one per point.
    s, steps = make("C", phi=0.0), 10_000
    expected = _first_point_error(s, "phi", start, stop, steps)
    calls = []
    real = harness._evaluate

    def counting(scenario, columns=None):
        calls.append(1)
        return real(scenario, columns)

    monkeypatch.setattr(harness, "_evaluate", counting)
    with pytest.raises(type(expected)) as exc:
        sweep(s, "phi", start, stop, steps)
    assert str(exc.value) == str(expected)
    assert len(calls) <= 40


@pytest.mark.parametrize("s, param", [
    (make("A", gain="optimize", **BUDGETS), "theta"),
    (make("B", **BUDGETS), "squeezing_db"),
    (make("C", **BUDGETS), "phi"),
])
def test_csv_at_chunk_boundaries_is_one_stacks_csv(s, param):
    lo, hi = GRID_RANGES[param]
    for steps in (4095, 4096, 4097, 8193):
        chunked = sweep_csv(s, param, lo, hi, steps)
        with mock.patch.object(harness, "_CHUNK", steps):
            assert sweep_csv(s, param, lo, hi, steps) == chunked


def test_sweep_csv_memory_is_bounded_per_step():
    # The stacks are at most _CHUNK values; what grows with the steps is the
    # lines and the CSV they join into, about 130 B a step.
    s = load_scenario(fixtures_dir() / "method_b.json")
    peaks = []
    for steps in (10_000, 100_000):
        tracemalloc.start()
        try:
            sweep_csv(s, "theta", 0.1, 3.0, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 90_000 < 200


def test_sweep_csv_builds_no_report_row(monkeypatch):
    built = []
    real = harness.ReportRow

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "ReportRow", counting)
    text = sweep_csv(make("A", **BUDGETS), "theta", 0.2, 3.0, 1000)
    assert text.count("\n") == 1001
    assert built == []
    run_scenario(make("A"))
    assert built == [1]


@pytest.mark.parametrize("fixture, extra, param, start, stop, inputs", [
    # The swept squeezing makes the inputs a stack of 50; the swept
    # efficiency reaches only the loss maps.
    ("method_b", {}, "squeezing_db", 0.0, 8.0, 50),
    ("method_a", {"gain": "optimize"}, "eta", 0.3, 1.0, 1),
])
def test_sweep_checks_the_uncertainty_relation_once(monkeypatch, fixture, extra, param,
                                                    start, stop, inputs):
    # The inputs are checked where they enter, as one stack, each against
    # its own uncertainty relation; that makes the joined inputs bona fide
    # without an eigendecomposition, and the entangling and verification
    # beam splitters and every loss map keep them bona fide.
    eig_calls, input_checks = [], []
    real_eig, real_check = np.linalg.eigvalsh, states._input_uncertainty_holds

    def counting_eig(a, *args, **kwargs):
        eig_calls.append(np.shape(a))
        return real_eig(a, *args, **kwargs)

    def counting_check(x, y_quantum):
        input_checks.append(np.shape(x))
        return real_check(x, y_quantum)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eig)
    monkeypatch.setattr(states, "_input_uncertainty_holds", counting_check)
    s = replace(load_scenario(fixtures_dir() / f"{fixture}.json"), **extra)
    assert sweep_csv(s, param, start, stop, 50).count("\n") == 51
    assert eig_calls == []
    # Unstacked checks are the specs of the scenario and of the grid's ends.
    assert [shape for shape in input_checks if shape] == [(inputs, 2)]
