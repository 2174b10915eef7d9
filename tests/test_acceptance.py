"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single pass/fail
line so the whole gate can be read off a verbose run at a glance.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from brightbeam import (
    LossBudget,
    SqueezedInputSpec,
    db_to_var,
    duan_simon,
    generate_entangled,
    method_b_channels,
    method_c_single_port,
    mz_geometry,
    normalized_combination_variances,
    optimal_gains_for_theta,
    sample_fluctuations,
    theta_adapted_bound,
)
from brightbeam.harness import run_scenario
from brightbeam.scenario import load_fixtures, scenario_from_dict

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from fit_fixtures import MEASUREMENTS  # noqa: E402


def _report(num, name, ok):
    print(f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _symmetric(sq_db, **extra):
    flat = {
        "input_a.squeezing_db": sq_db, "input_a.antisqueezing_db": sq_db,
        "input_b.squeezing_db": sq_db, "input_b.antisqueezing_db": sq_db,
    }
    flat.update(extra)
    return scenario_from_dict(flat)


def test_1_boundary_exactness():
    start = time.perf_counter()
    s = SqueezedInputSpec(100.0)
    state = generate_entangled(s, s, math.pi / 2)
    report = duan_simon(state)
    elapsed = time.perf_counter() - start
    ok = (abs(report.sum_value - 2.0) < 1e-9
          and abs(report.product_value - 1.0) < 1e-9
          and not report.entangled_witnessed
          and elapsed < 1.0)
    _report(1, "boundary exactness", ok)


def test_2_symmetric_identity():
    sq = 10 * math.log10(2.0)  # Vs = 0.5
    rows = {m: run_scenario(_symmetric(sq, method=m)) for m in "ABC"}
    ok = all(abs(r.v_sq_plus - 0.5) < 1e-9 and abs(r.v_sq_minus - 0.5) < 1e-9
             for r in rows.values())
    b = rows["B"]
    ok = ok and abs(rows["C"].v_sq_plus - (b.v_sq_plus + b.v_sq_minus) / 2) < 1e-12
    _report(2, "symmetric identity across methods", ok)


def test_3_theta_independence():
    vs = db_to_var(-3.7)
    s = SqueezedInputSpec(100.0, 3.7, 3.7)
    ok = True
    for theta in np.arange(0.1, 3.05, 0.1):
        state = generate_entangled(s, s, float(theta))
        combo = optimal_gains_for_theta(100.0, float(theta))
        va, vb = normalized_combination_variances(state, combo)
        ok = ok and abs(va - vs) < 1e-9 and abs(vb - vs) < 1e-9
        witnessed = va + vb < theta_adapted_bound(float(theta)) / 1.0
        ok = ok and witnessed == (math.sin(theta) > vs)
    _report(3, "theta-independent witness with adapted gains", ok)


def test_4_monte_carlo_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    hits = 0
    n = 1_000_000
    for trial in range(20):
        sq = rng.uniform(0.0, 4.0)
        s = SqueezedInputSpec(
            amplitude=rng.uniform(50.0, 200.0),
            squeezing_db=sq,
            antisqueezing_db=sq + rng.uniform(0.0, 3.0),
            excess_phase_db=rng.uniform(0.0, 10.0),
            correlated_group=1,
        )
        state = generate_entangled(s, s, rng.uniform(0.3, 2.8),
                                   rng.uniform(0.3, 0.7),
                                   excess_correlation=rng.uniform(0.8, 1.0))
        samples = sample_fluctuations(state, n, seed=trial)
        w = rng.normal(size=4)
        analytic = state.combination_variance(w)
        empirical = float(np.var(samples @ w, ddof=1))
        stderr = analytic * math.sqrt(2.0 / (n - 1))
        if abs(empirical - analytic) < 3 * stderr:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 19 and elapsed < 60.0
    _report(4, f"sampling oracle agreement ({hits}/20, {elapsed:.1f}s)", ok)


def test_5_reference_table_reproduction():
    # Each fixture's witness sum against its measured V+ + V- (twice a single
    # port's variance), and the raw sub-shot-noise levels of the two
    # interference methods against the measured variances in dB.
    rows = {r.label: r for r in map(run_scenario, load_fixtures())}
    ok = len(rows) == 4 and rows.keys() == {m["label"] for m in MEASUREMENTS.values()}
    for measured in MEASUREMENTS.values():
        row, variances = rows.get(measured["label"]), measured["variances"]
        ok = ok and abs(row.sum_value - 2 * sum(variances) / len(variances)) < 0.05
        if ok and measured["method"] != "A":
            levels = (sorted((row.raw["sum_channel"]["rel_db"], row.raw["diff_channel"]["rel_db"]))
                      if measured["method"] == "B" else [10 * math.log10(row.sum_value / 2)])
            ok = all(abs(level - 10 * math.log10(v)) < 0.3
                     for level, v in zip(levels, sorted(variances), strict=True))
    _report(5, "fitted reference-table reproduction", ok)


def test_6_loss_budget():
    eff = LossBudget(propagation=0.90, visibility=0.95,
                     quantum_efficiency=0.90).effective()
    _report(6, "phase-path detection efficiency 73%", abs(eff - 0.731) < 0.005)


def test_7_common_mode_cancellation():
    def v_minus(excess_db, ratio):
        row = run_scenario(_symmetric(
            3.0, method="A", entangle_ratio=ratio,
            excess_correlation=0.95,
            **{"input_a.excess_phase_db": excess_db,
               "input_b.excess_phase_db": excess_db},
        ))
        return row.v_sq_minus

    quiet = v_minus(0.0, 0.5)
    loud = v_minus(23.0, 0.5)
    degraded = v_minus(23.0, 0.45)
    ok = abs(loud - quiet) < 1e-9 and degraded > loud + 1e-6
    _report(7, "balanced common-mode cancellation", ok)


def test_8_geometry():
    g = mz_geometry(82e6, 2)
    ok = (abs(g.measurement_frequency - 20.5e6) < 1e3
          and 7.31 <= g.delta_l <= 7.32)
    _report(8, "interferometer geometry", ok)
