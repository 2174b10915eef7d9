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
from .errors import BrightBeamError, DomainError, ScenarioError
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


# Each evaluator takes scenarios that differ only in numbers, their stacked
# entangled pair and budgets, and returns (v_plus, v_minus, bound, gain,
# readings, channels) over the stack: readings name the DetectionResults
# reported under "raw", and a channel is (DetectionResult, multiplier of its
# normalized variance) for the MC oracle.

def _column(ss: list[Scenario], name: str) -> np.ndarray:
    return np.array([getattr(s, name) for s in ss], dtype=float)


def _eval_a(ss: list[Scenario], state: BrightGaussianState, budgets):
    imbalance = _column(ss, "imbalance")
    if ss[0].gain == "optimize":
        g = method_a_gain(state, budgets, imbalance)
    else:
        g = _column(ss, "gain")
    plus, plus_anti = method_a_joint(state, "X", budgets, g, imbalance)
    minus, minus_anti = method_a_joint(state, "Y", budgets, g, imbalance)
    readings = {"plus": plus, "plus_anti": plus_anti, "minus": minus, "minus_anti": minus_anti}
    return plus.normalized, minus.normalized, 2.0, g, readings, [(plus, 1.0), (minus, 1.0)]


def _eval_b(ss: list[Scenario], state: BrightGaussianState, budgets):
    total, diff = method_b_channels(state, _column(ss, "phi"), budgets, _column(ss, "imbalance"))
    readings = {"sum_channel": total, "diff_channel": diff}
    return (total.normalized, diff.normalized, theta_adapted_bound(_column(ss, "theta")), 1.0,
            readings, [(total, 1.0), (diff, 1.0)])


def _eval_c(ss: list[Scenario], state: BrightGaussianState, budgets):
    # Only the blend (v_plus + v_minus)/2 is observable in the selected
    # port; both report fields carry the port value.  The other port of
    # the same output is reported where it is bright.
    port = method_c_single_port(state, _column(ss, "phi"), ss[0].port, budgets)
    v = port.normalized
    return v, v, 2.0, 1.0, bright_port_readings(port.state), [(port, 2.0)]


_EVALUATORS = {"A": _eval_a, "B": _eval_b, "C": _eval_c}


def _mc_estimate(channels: list[tuple[DetectionResult, float]], k: int, count: int, seed: int):
    """Empirical witness sum of stack element k from the sampling oracle,
    with a standard error.

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
            samples = sample_fluctuations(state[k], count, seed + draws)
            draws += 1
        v = float(np.var(samples @ result.weights[k], ddof=1)) / float(result.shot_noise[k])
        total += mult * v
        err_sq += (mult * v) ** 2 * 2.0 / (count - 1)
    return total, math.sqrt(err_sq)


def _evaluate(ss: list[Scenario]) -> list[ReportRow]:
    """Evaluate scenarios that share method, port and gain mode as one stack."""
    state = generate_entangled([s.input_a for s in ss], [s.input_b for s in ss],
                               _column(ss, "theta"), _column(ss, "entangle_ratio"),
                               excess_correlation=_column(ss, "excess_correlation"))
    budgets = ([s.budget_a for s in ss], [s.budget_b for s in ss])
    v_plus, v_minus, bound, gain, readings, channels = _EVALUATORS[ss[0].method](
        ss, state, budgets)

    def per_point(x) -> list:
        return x.tolist() if np.ndim(x) else [x] * len(ss)

    v_plus, v_minus, bound, gain = map(per_point, (v_plus, v_minus, bound, gain))
    raw = {key: {name: per_point(value) for name, value in r.to_dict().items()}
           for key, r in readings.items()}
    rows = []
    for k, s in enumerate(ss):
        mc_sum = mc_stderr = None
        if s.mc_samples > 0:
            mc_sum, mc_stderr = _mc_estimate(channels, k, s.mc_samples, s.seed)
        total = v_plus[k] + v_minus[k]
        rows.append(ReportRow(
            method=s.method,
            label=s.label,
            v_sq_plus=v_plus[k],
            v_sq_minus=v_minus[k],
            sum_value=total,
            bound=bound[k],
            witnessed=bool(total < bound[k]),
            gain=gain[k],
            # A port that is dark at this point reads NaN and is left out.
            raw={key: {name: values[k] for name, values in fields.items()}
                 for key, fields in raw.items() if not math.isnan(fields["normalized"][k])},
            mc_sum=mc_sum,
            mc_stderr=mc_stderr,
            frequency_mhz=s.frequency_mhz,
        ))
    return rows


def run_scenario(s: Scenario) -> ReportRow:
    """Evaluate one scenario (a stack of one); deterministic for a fixed seed."""
    return _evaluate([s])[0]


def with_param(s: Scenario, param: str, value: float) -> Scenario:
    """Return a copy of the scenario with one sweepable parameter set."""
    try:
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
    except DomainError as exc:
        raise ScenarioError(f"cannot sweep {param} to {value!r}: {exc}") from exc
    raise ScenarioError(f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}")


def sweep(s: Scenario, param: str, start: float, stop: float,
          steps: int) -> list[tuple[float, ReportRow]]:
    """Evaluate the scenario at each of ``steps`` evenly spaced values of one
    parameter, as one stack."""
    if steps < 2:
        raise ScenarioError(f"sweep needs at least 2 steps, got {steps}")
    for name, bound in (("start", start), ("stop", stop)):
        if not math.isfinite(bound):
            raise ScenarioError(
                f"cannot sweep {param} to {bound!r}: the {name} bound must be finite")
    grid = np.linspace(start, stop, steps).tolist()
    try:
        rows = _evaluate([with_param(s, param, v) for v in grid])
    except BrightBeamError:
        # A stack fails at its first failing stage, not its first failing
        # point; point by point, the error is the first failing point's.
        rows = [run_scenario(with_param(s, param, v)) for v in grid]
    return list(zip(grid, rows))


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
