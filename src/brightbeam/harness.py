"""Scenario execution, parameter sweeps and the method-comparison table."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .detection import (
    DetectionResult,
    bright_port_readings,
    method_a_gain,
    method_a_joint,
    method_b_channels,
    method_c_single_port,
)
from .entangle import generate_entangled, theta_adapted_bound
from .errors import ScenarioError
from .scenario import Scenario, load_scenario
from .states import BrightGaussianState, sample_fluctuations

CSV_HEADER = "method,param,value,v_sq_plus,v_sq_minus,sum,bound,witnessed,mc_sum,mc_stderr"
SWEEP_PARAMS = ("theta", "phi", "gain", "squeezing_db", "eta",
                "excess_phase_db", "entangle_ratio")
FIXTURES_ENV = "BRIGHTBEAM_FIXTURES"


@dataclass(frozen=True)
class ReportRow:
    """One evaluated scenario, ready for CSV/JSON emission."""

    method: str
    label: str
    v_sq_plus: float
    v_sq_minus: float
    sum_value: float
    bound: float
    witnessed: bool
    gain: float
    raw: dict
    mc_sum: float | None = None
    mc_stderr: float | None = None
    frequency_mhz: float | None = None

    def to_dict(self) -> dict:
        d = {
            "method": self.method,
            "label": self.label,
            "v_sq_plus": self.v_sq_plus,
            "v_sq_minus": self.v_sq_minus,
            "sum": self.sum_value,
            "bound": self.bound,
            "witnessed": self.witnessed,
            "gain": self.gain,
            "raw": self.raw,
        }
        if self.mc_sum is not None:
            d["mc_sum"] = self.mc_sum
            d["mc_stderr"] = self.mc_stderr
        if self.frequency_mhz is not None:
            d["frequency_mhz"] = self.frequency_mhz
        return d


# Each evaluator returns (v_plus, v_minus, bound, gain, readings, channels):
# readings name the DetectionResults reported under "raw", and a channel is
# (DetectionResult, multiplier of its normalized variance) for the MC oracle.

def _eval_a(s: Scenario, state: BrightGaussianState, budgets):
    g = method_a_gain(state, budgets, s.imbalance) if s.gain == "optimize" else float(s.gain)
    plus, plus_anti = method_a_joint(state, "X", budgets, g, s.imbalance)
    minus, minus_anti = method_a_joint(state, "Y", budgets, g, s.imbalance)
    readings = {"plus": plus, "plus_anti": plus_anti, "minus": minus, "minus_anti": minus_anti}
    return plus.normalized, minus.normalized, 2.0, g, readings, [(plus, 1.0), (minus, 1.0)]


def _eval_b(s: Scenario, state: BrightGaussianState, budgets):
    total, diff = method_b_channels(state, s.phi, budgets, s.imbalance)
    readings = {"sum_channel": total, "diff_channel": diff}
    return (total.normalized, diff.normalized, theta_adapted_bound(s.theta), 1.0, readings,
            [(total, 1.0), (diff, 1.0)])


def _eval_c(s: Scenario, state: BrightGaussianState, budgets):
    # Only the blend (v_plus + v_minus)/2 is observable in the selected
    # port; both report fields carry the port value.  The other port of
    # the same output is reported when it is bright.
    port = method_c_single_port(state, s.phi, s.port, budgets)
    v = port.normalized
    return v, v, 2.0, 1.0, bright_port_readings(port.state), [(port, 2.0)]


_EVALUATORS = {"A": _eval_a, "B": _eval_b, "C": _eval_c}


def _mc_estimate(channels: list[tuple[DetectionResult, float]], count: int, seed: int):
    """Empirical witness sum from the sampling oracle, with a standard error.

    Channels read off the same state share one draw; each new state gets
    the next seed.
    """
    total = 0.0
    err_sq = 0.0
    state = samples = None
    draws = 0
    for result, mult in channels:
        if result.state is not state:
            state = result.state
            samples = sample_fluctuations(state, count, seed + draws)
            draws += 1
        v = float(np.var(samples @ result.weights, ddof=1)) / result.shot_noise
        total += mult * v
        err_sq += (mult * v) ** 2 * 2.0 / (count - 1)
    return total, math.sqrt(err_sq)


def run_scenario(s: Scenario) -> ReportRow:
    """Evaluate one scenario; deterministic for a fixed seed."""
    state = generate_entangled(s.input_a, s.input_b, s.theta, s.entangle_ratio,
                               excess_correlation=s.excess_correlation)
    v_plus, v_minus, bound, gain, readings, channels = _EVALUATORS[s.method](
        s, state, (s.budget_a, s.budget_b))
    mc_sum = mc_stderr = None
    if s.mc_samples > 0:
        mc_sum, mc_stderr = _mc_estimate(channels, s.mc_samples, s.seed)
    total = v_plus + v_minus
    return ReportRow(
        method=s.method,
        label=s.label,
        v_sq_plus=v_plus,
        v_sq_minus=v_minus,
        sum_value=total,
        bound=bound,
        witnessed=bool(total < bound),
        gain=gain,
        raw={key: r.to_dict() for key, r in readings.items()},
        mc_sum=mc_sum,
        mc_stderr=mc_stderr,
        frequency_mhz=s.frequency_mhz,
    )


def with_param(s: Scenario, param: str, value: float) -> Scenario:
    """Return a copy of the scenario with one sweepable parameter set."""
    if param in ("theta", "phi", "entangle_ratio"):
        return replace(s, **{param: value})
    if param == "gain":
        return replace(s, gain=float(value))
    if param == "squeezing_db":
        # Minimum-uncertainty sweep: antisqueezing tracks the squeezing.
        return replace(
            s,
            input_a=replace(s.input_a, squeezing_db=value, antisqueezing_db=value),
            input_b=replace(s.input_b, squeezing_db=value, antisqueezing_db=value),
        )
    if param == "excess_phase_db":
        return replace(
            s,
            input_a=replace(s.input_a, excess_phase_db=value),
            input_b=replace(s.input_b, excess_phase_db=value),
        )
    if param == "eta":
        return replace(
            s,
            budget_a=replace(s.budget_a, propagation=value),
            budget_b=replace(s.budget_b, propagation=value),
        )
    raise ScenarioError(f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}")


def sweep(s: Scenario, param: str, start: float, stop: float,
          steps: int) -> list[tuple[float, ReportRow]]:
    if steps < 2:
        raise ScenarioError(f"sweep needs at least 2 steps, got {steps}")
    grid = np.linspace(start, stop, steps)
    return [(float(v), run_scenario(with_param(s, param, float(v)))) for v in grid]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(x, ".6g")


def sweep_csv(s: Scenario, param: str, start: float, stop: float, steps: int) -> str:
    """Run a sweep and render the fixed-schema CSV (deterministic)."""
    lines = [CSV_HEADER]
    for value, row in sweep(s, param, start, stop, steps):
        lines.append(",".join([
            row.method, param, _fmt(value),
            _fmt(row.v_sq_plus), _fmt(row.v_sq_minus),
            _fmt(row.sum_value), _fmt(row.bound), _fmt(row.witnessed),
            _fmt(row.mc_sum), _fmt(row.mc_stderr),
        ]))
    return "\n".join(lines) + "\n"


def compare_methods(rows: list[ReportRow]) -> str:
    """Aligned comparison table of witness sums across methods."""
    if len(rows) < 2:
        raise ScenarioError("method comparison needs at least 2 scenarios")
    width = max(24, max(len(row.label) for row in rows) + 2)
    header = f"{'method':<8}{'label':<{width}}{'sum':>10}{'bound':>10}{'witnessed':>11}{'f [MHz]':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        freq = "" if row.frequency_mhz is None else _fmt(row.frequency_mhz)
        lines.append(
            f"{row.method:<8}{row.label:<{width}}{_fmt(row.sum_value):>10}"
            f"{_fmt(row.bound):>10}{_fmt(row.witnessed):>11}{freq:>10}"
        )
    freqs = {row.frequency_mhz for row in rows if row.frequency_mhz is not None}
    if len(freqs) > 1:
        lines.append("note: rows taken at different measurement frequencies "
                     "cannot be compared directly")
    return "\n".join(lines)


def fixtures_dir() -> Path:
    """Bundled fixture directory, overridable via BRIGHTBEAM_FIXTURES."""
    override = os.environ.get(FIXTURES_ENV)
    if override:
        return Path(override)
    return Path(resources.files("brightbeam") / "fixtures")


def run_fixture_table(directory: Path | None = None) -> tuple[list[ReportRow], str]:
    """Run every fixture scenario in the directory and format the table."""
    directory = Path(directory) if directory is not None else fixtures_dir()
    paths = sorted(directory.glob("*.json"))
    if len(paths) < 2:
        raise ScenarioError(f"no fixture scenarios found in {directory}")
    rows = [run_scenario(load_scenario(p)) for p in paths]
    return rows, compare_methods(rows)
