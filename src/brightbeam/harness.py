"""Scenario execution, parameter sweeps and the method-comparison table."""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import asdict, dataclass
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from .detection import (
    bright_port_readings,
    method_a_anti_readings,
    method_a_readings,
    method_b_channels,
    method_c_single_port,
)
from .entangle import SUM_BOUND, generate_entangled, theta_adapted_bound
from .errors import BrightBeamError, ScenarioError
from .scenario import (_SWEPT_FIELDS, BUDGET_FIELDS, INPUT_FIELDS, SWEEP_PARAMS, Scenario,
                       check_grid, with_fields)
from .states import BrightGaussianState, DetectionResult, _sampling_root, normal_covariance

CSV_HEADER = "method,param,value,v_sq_plus,v_sq_minus,sum,bound,witnessed,mc_sum,mc_stderr"


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
        """Every field that is set, with ``sum_value`` as "sum"."""
        return {"sum" if k == "sum_value" else k: v
                for k, v in asdict(self).items() if v is not None}


# Each evaluator takes the scenario, its columns (see ``_column``), their
# entangled pair and budgets, and returns (v_plus, v_minus, bound, gain,
# draws, raw) over the stack.  ``draws`` is the MC oracle's plan: one list
# per measured state, in plan order, of (DetectionResult read off that state,
# multiplier of its normalized variance).  raw() reads the DetectionResults
# reported under "raw", which the sweep CSV never prints.

def _column(s: Scenario, columns: dict, path: str) -> np.ndarray:
    """The field at a dotted path: its column, or the scenario's value as a
    stack of one."""
    if path in columns:
        return columns[path]
    return np.array([attrgetter(path)(s)], dtype=float)


def _eval_a(s: Scenario, columns: dict, state: BrightGaussianState, budgets):
    imbalance = _column(s, columns, "imbalance")
    g, plus, minus = method_a_readings(
        state, budgets, None if s.gain == "optimize" else _column(s, columns, "gain"), imbalance)

    def raw():
        plus_anti, minus_anti = method_a_anti_readings(plus, minus, g, imbalance)
        return {"plus": plus, "plus_anti": plus_anti, "minus": minus, "minus_anti": minus_anti}

    # The amplitude path, then the phase path.
    return plus.normalized, minus.normalized, SUM_BOUND, g, [[(plus, 1.0)], [(minus, 1.0)]], raw


def _eval_b(s: Scenario, columns: dict, state: BrightGaussianState, budgets):
    total, diff = method_b_channels(state, _column(s, columns, "phi"), budgets,
                                    _column(s, columns, "imbalance"))
    return (total.normalized, diff.normalized,
            theta_adapted_bound(_column(s, columns, "theta")), 1.0,
            [[(total, 1.0), (diff, 1.0)]], lambda: {"sum_channel": total, "diff_channel": diff})


def _eval_c(s: Scenario, columns: dict, state: BrightGaussianState, budgets):
    # Only the blend (v_plus + v_minus)/2 is observable in the selected
    # port; both report fields carry the port value.  Every bright port of
    # the same output is reported.
    port = method_c_single_port(state, _column(s, columns, "phi"), s.port, budgets)
    v = port.normalized
    return v, v, SUM_BOUND, 1.0, [[(port, 2.0)]], lambda: bright_port_readings(port.state)


_EVALUATORS = {"A": _eval_a, "B": _eval_b, "C": _eval_c}


def _per_point(x, n: int) -> list:
    """x at each of n points, from a number, a stack of one or a stack of n."""
    return [x] * n if np.ndim(x) == 0 else x.tolist() * (n // len(x))


def _mc_columns(draws: list[list[tuple[DetectionResult, float]]], n: int, count: int,
                seed: int) -> tuple[list, list]:
    """Empirical witness sum of each of n stack elements from the sampling
    oracle, with its standard error.

    ``draws`` is an evaluator's plan: per measured state, in plan order, the
    (DetectionResult, multiplier) pairs read off it.  The normals of a draw
    do not depend on the state, so a draw is their ``normal_covariance``
    S_z, one 2n x 2n matrix whatever the count; the plan's matrices are
    drawn in plan order from a new ``random.Random(seed)`` at each call, so
    they depend on (seed, count, plan) alone and every stack of a grid
    draws the ones its points draw alone.  Each reading takes its sample
    variance ``u @ S_z @ u``, u = A w, at every point at once, A being the
    root of that point's state (``_sampling_root``) and w its weights.

    The readings of one draw are sample variances of one sample, so by
    Isserlis' theorem two of them covary by 2 c_ij^2 / (count - 1), with
    c_ij = u_i S_z u_j / sqrt(shot_i shot_j); draws are independent.
    """
    rng = random.Random(seed)
    sums, err_sq = np.zeros(n), np.zeros(n)
    for members in draws:
        state = members[0][0].state
        root, s_z = _sampling_root(state), normal_covariance(count, rng, state.cov.shape[-1])
        # Each reading's u, scaled to its shot noise, as the rows of one
        # (..., k, 2n) stack.
        u = np.stack(np.broadcast_arrays(*(
            (root @ result.weights[..., None])[..., 0] / np.sqrt(result.shot_noise)[..., None]
            for result, _ in members)), axis=-2)
        c = u @ s_z @ np.swapaxes(u, -1, -2)
        mult = np.array([m for _, m in members])
        sums += np.diagonal(c, axis1=-2, axis2=-1) @ mult
        err_sq += mult @ c ** 2 @ mult * 2.0 / (count - 1)
    return sums.tolist(), np.sqrt(err_sq).tolist()


@dataclass(frozen=True)
class _Stack:
    """A scenario evaluated as one stack: its report columns as lists, one
    entry per element, and its evaluator's raw(), which reads the
    DetectionResults reported under "raw"."""

    v_plus: list
    v_minus: list
    sums: list
    bound: list
    witnessed: list
    gain: list
    raw: Callable[[], dict]
    mc_sum: list | None
    mc_stderr: list | None


def _evaluate(s: Scenario, columns: dict | None = None) -> _Stack:
    """Evaluate a scenario as one stack.

    ``columns`` maps dotted field paths (``"theta"``, ``"input_a.squeezing_db"``)
    to float64 arrays of one length that replace the scenario's values;
    without columns the stack holds the scenario alone.
    """
    columns = columns or {}
    n = len(next(iter(columns.values()))) if columns else 1

    def record(name: str, fields: tuple, **extra) -> SimpleNamespace:
        """The input or budget record ``name`` with its numbers as columns."""
        return SimpleNamespace(**{f: _column(s, columns, f"{name}.{f}") for f in fields},
                               **extra)

    state = generate_entangled(
        record("input_a", INPUT_FIELDS, correlated_group=s.input_a.correlated_group),
        record("input_b", INPUT_FIELDS, correlated_group=s.input_b.correlated_group),
        _column(s, columns, "theta"), _column(s, columns, "entangle_ratio"),
        excess_correlation=_column(s, columns, "excess_correlation"))
    budgets = (record("budget_a", BUDGET_FIELDS), record("budget_b", BUDGET_FIELDS))
    v_plus, v_minus, bound, gain, draws, raw = _EVALUATORS[s.method](
        s, columns, state, budgets)
    v_plus, v_minus, bound, gain = (_per_point(x, n) for x in (v_plus, v_minus, bound, gain))
    sums = [p + m for p, m in zip(v_plus, v_minus)]
    mc_sum = mc_stderr = None
    if s.mc_samples > 0:
        mc_sum, mc_stderr = _mc_columns(draws, n, s.mc_samples, s.seed)
    return _Stack(v_plus, v_minus, sums, bound, [t < b for t, b in zip(sums, bound)], gain,
                  raw, mc_sum, mc_stderr)


def _rows(s: Scenario, stack: _Stack) -> list[ReportRow]:
    """One report row per element of an evaluated stack."""
    n = len(stack.sums)
    raw = {key: {name: _per_point(value, n) for name, value in r.to_dict().items()}
           for key, r in stack.raw().items()}
    return [ReportRow(
        method=s.method,
        label=s.label,
        v_sq_plus=stack.v_plus[k],
        v_sq_minus=stack.v_minus[k],
        sum_value=stack.sums[k],
        bound=stack.bound[k],
        witnessed=stack.witnessed[k],
        gain=stack.gain[k],
        # A port that is dark at this point reads NaN and is left out.
        raw={key: {name: values[k] for name, values in fields.items()}
             for key, fields in raw.items() if not math.isnan(fields["normalized"][k])},
        mc_sum=None if stack.mc_sum is None else stack.mc_sum[k],
        mc_stderr=None if stack.mc_stderr is None else stack.mc_stderr[k],
        frequency_mhz=s.frequency_mhz,
    ) for k in range(n)]


def run_scenario(s: Scenario) -> ReportRow:
    """Evaluate one scenario (a stack of one); deterministic for a fixed seed."""
    return _rows(s, _evaluate(s))[0]


def with_param(s: Scenario, param: str, value: float) -> Scenario:
    """Return a copy of the scenario with one sweepable parameter set."""
    if param not in _SWEPT_FIELDS:
        raise ScenarioError(f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}")
    try:
        return with_fields(s, dict.fromkeys(_SWEPT_FIELDS[param], value))
    except ScenarioError as exc:
        raise ScenarioError(f"cannot sweep {param} to {value!r}: {exc}") from exc


_CHUNK = 4096


def _grid(s: Scenario, param: str, start: float, stop: float, steps: int,
          finish: Callable[[Scenario, list[float], _Stack], list]) -> list:
    """Evaluate the scenario at each of ``steps`` evenly spaced values of one
    parameter and join finish(scenario, values, stack) of each evaluated
    stack, in grid order.

    The grid runs as stacks of at most ``_CHUNK`` consecutive values, slices
    of one ``np.linspace``, so memory is bounded per stack.  Every constraint
    on a swept value is an interval, and the dB conversions are monotone, so
    a stack is valid when its smallest and largest values are:
    ``with_param`` checks those two, and the stack becomes one column of the
    scenario at the smallest.  A stack fails at its first failing stage, not
    its first failing point, so a stack that raises is halved and tried
    again; a stack of one that raises has every earlier point run, so its
    error is the first failing point's.  Each stack makes its own
    Monte-Carlo draws, the ones each of its points makes alone (see
    ``_mc_columns``).
    """
    check_grid(param, start, stop, steps)
    try:
        grid = np.linspace(start, stop, steps)
    except (ValueError, MemoryError) as exc:
        # numpy refuses a count it cannot size or allocate.
        raise ScenarioError(f"cannot sweep {param} in steps = {steps}: {exc}") from exc
    done, lo, size = [], 0, _CHUNK
    while lo < steps:
        stack = grid[lo:lo + size]
        try:
            base = with_param(s, param, float(stack.min()))
            with_param(s, param, float(stack.max()))
            done += finish(base, stack.tolist(),
                           _evaluate(base, dict.fromkeys(_SWEPT_FIELDS[param], stack)))
        except BrightBeamError:
            if len(stack) == 1:
                raise
            size = (len(stack) + 1) // 2
            continue
        lo, size = lo + len(stack), _CHUNK
    return done


def sweep(s: Scenario, param: str, start: float, stop: float,
          steps: int) -> list[tuple[float, ReportRow]]:
    """Evaluate the scenario at each of ``steps`` evenly spaced values of one
    parameter, in stacks (see ``_grid``)."""
    return _grid(s, param, start, stop, steps,
                 lambda point, values, stack: list(zip(values, _rows(point, stack))))


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(x, ".6g")


def sweep_csv(s: Scenario, param: str, start: float, stop: float, steps: int) -> str:
    """Run a sweep and render the fixed-schema CSV (deterministic) straight
    from its columns, one format template per stack."""
    def render(point: Scenario, values: list[float], stack: _Stack) -> list[str]:
        mc = [] if stack.mc_sum is None else [stack.mc_sum, stack.mc_stderr]
        # "%.6g" % x is format(x, ".6g") for a float; without MC samples
        # the last two fields are empty.
        template = ",".join([point.method, param, *["%.6g"] * 5, "%s",
                             *(["%.6g"] * 2 if mc else ["", ""])])
        witnessed = ["true" if w else "false" for w in stack.witnessed]
        return [template % fields for fields in zip(
            values, stack.v_plus, stack.v_minus, stack.sums, stack.bound, witnessed, *mc)]
    return "\n".join([CSV_HEADER, *_grid(s, param, start, stop, steps, render)]) + "\n"


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
