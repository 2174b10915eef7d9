"""Scenario execution, parameter sweeps and the method-comparison table."""

from __future__ import annotations

import math
import os
import threading
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
from .errors import BrightBeamError, DomainError, ScenarioError
from .scenario import (_SWEPT_FIELDS, BUDGET_FIELDS, INPUT_FIELDS, SWEEP_PARAMS, Scenario,
                       check_grid, load_scenario, with_fields)
from .states import BrightGaussianState, DetectionResult, sample_fluctuations

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
# channels, raw) over the stack: a channel is (DetectionResult, multiplier of
# its normalized variance) for the MC oracle, and raw() reads the
# DetectionResults reported under "raw", which the sweep CSV never prints.

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

    return plus.normalized, minus.normalized, SUM_BOUND, g, [(plus, 1.0), (minus, 1.0)], raw


def _eval_b(s: Scenario, columns: dict, state: BrightGaussianState, budgets):
    total, diff = method_b_channels(state, _column(s, columns, "phi"), budgets,
                                    _column(s, columns, "imbalance"))
    return (total.normalized, diff.normalized,
            theta_adapted_bound(_column(s, columns, "theta")), 1.0,
            [(total, 1.0), (diff, 1.0)], lambda: {"sum_channel": total, "diff_channel": diff})


def _eval_c(s: Scenario, columns: dict, state: BrightGaussianState, budgets):
    # Only the blend (v_plus + v_minus)/2 is observable in the selected
    # port; both report fields carry the port value.  Every bright port of
    # the same output is reported.
    port = method_c_single_port(state, _column(s, columns, "phi"), s.port, budgets)
    v = port.normalized
    return v, v, SUM_BOUND, 1.0, [(port, 2.0)], lambda: bright_port_readings(port.state)


_EVALUATORS = {"A": _eval_a, "B": _eval_b, "C": _eval_c}


def _row(x, k: int) -> int:
    """Index of point k's element in a stack that holds one per point or one for all."""
    return min(k, len(x) - 1)


def _at(x, k: int):
    """Element k of a stack, or its only element where it holds one for all points."""
    return x[_row(x, k)]


def _per_point(x, n: int) -> list:
    """x at each of n points, from a number, a stack of one or a stack of n."""
    return [x] * n if np.ndim(x) == 0 else x.tolist() * (n // len(x))


def _variance(p: np.ndarray) -> float:
    """``np.var(p, ddof=1)`` of a 1-D float64 array, bit for bit, computed
    in place: numpy's own steps (sum, divide by n, subtract, square, sum,
    divide by n - 1) without its count-sized temporary.  Overwrites p."""
    n = p.size
    mean = np.add.reduce(p, axis=None, keepdims=True)
    np.true_divide(mean, n, out=mean)
    np.subtract(p, mean, out=p)
    np.square(p, out=p)
    return float(np.add.reduce(p, axis=None) / (n - 1))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _mc_columns(channels: list[tuple[DetectionResult, float]], n: int, count: int,
                seed: int) -> tuple[list, list]:
    """Empirical witness sum of each of n stack elements from the sampling
    oracle, with its standard error.

    Channels read off the same state share one draw; each new state gets
    the next seed.  A state is drawn once per element of its stack, or
    once in all where it holds one element for every point.

    A draw is read once at each distinct weight vector of its members; a
    member whose weights hold one element for all points has one.  Each
    vector's variance is added to every point it serves, in the order of
    a point-by-point pass.  A draw read at no more vectors than it has
    sample columns keeps only their projections; otherwise (a method-A
    gain sweep) it keeps its samples, projected one vector at a time.

    The draws are independent, each with its own seeded generator, so they
    run on up to one lane per usable CPU (numpy's generator and BLAS
    release the GIL): the calling thread and one thread more per further
    lane, each taking the next draw of the plan above until none is left
    or one has failed.  Their variances are added here in plan order, so
    every sum is the same, bit for bit, on any number of CPUs.  Each lane
    reuses one buffer set, allocated here before any lane starts: a count
    array per projection of the plan's largest projected draw, and a
    samples array only where a draw keeps its samples.  The first failing
    draw in plan order raises, after every lane has stopped.

    Measured on mixed 1e6-sample runs of the five benchmark scenarios
    (Linux, glibc malloc): buffers made on the lane threads, in their own
    malloc arenas, which keep what they free, raised the peak RSS by about
    15 MB.  Each projection is its own array of count, so that nearly
    every large buffer has that one size and reuses the memory a freed one
    leaves; one (m, count) array per draw raised the peak by 4-7 MB on
    some scenario orders.
    """
    groups: list[tuple[BrightGaussianState, list]] = []
    for result, mult in channels:
        if not groups or result.state is not groups[-1][0]:
            groups.append((result.state, []))
        groups[-1][1].append((result, mult))
    # Per draw: its state element, seed, points and members, and each
    # distinct weight vector, keyed (member, row), in first-read order.
    plan = []
    for j, (state, members) in enumerate(groups):
        stack = len(state.amplitudes)
        for i in range(stack):
            points = range(n) if stack == 1 else (i,)
            vectors = {(m, _row(result.weights, k)): _at(result.weights, k)
                       for k in points for m, (result, _) in enumerate(members)}
            plan.append((state[i], seed + j, points, members, vectors))
    # The sample columns of each draw that keeps its samples, else 0.
    sampled = [2 * element.n_modes if len(vectors) > 2 * element.n_modes else 0
               for element, _, _, _, vectors in plan]
    projected = max(1 if dim else len(vectors) for dim, (*_, vectors) in zip(sampled, plan))
    variances: list = [None] * len(plan)
    failures: dict = {}
    order = iter(range(len(plan)))  # its next() is one step under the GIL

    def lane(projections: list, samples: np.ndarray | None) -> None:
        for index in order:
            if failures:
                return
            element, draw_seed, _, _, vectors = plan[index]
            dim = sampled[index]
            try:
                if dim:
                    drawn = sample_fluctuations(element, count, draw_seed,
                                                out=samples[:count * dim].reshape(count, dim))
                    variances[index] = [_variance(np.matmul(drawn, w, out=projections[0]))
                                        for w in vectors.values()]
                else:
                    drawn = sample_fluctuations(element, count, draw_seed,
                                                weights=np.array(list(vectors.values())),
                                                out=projections[:len(vectors)])
                    variances[index] = [_variance(p) for p in drawn]
            except BaseException as exc:
                failures[index] = exc
                return

    try:
        buffers = [([np.empty(count) for _ in range(projected)],
                    np.empty(count * max(sampled)) if max(sampled) else None)
                   for _ in range(min(len(plan), _usable_cpus()))]
        lanes = [threading.Thread(target=lane, args=b) for b in buffers[1:]]
        for thread in lanes:
            thread.start()
        lane(*buffers[0])
        for thread in lanes:
            thread.join()
        if failures:
            raise failures[min(failures)]
    except DomainError:
        raise
    except (ValueError, MemoryError) as exc:
        # numpy refuses a count it cannot size or allocate.
        raise ScenarioError(f"cannot draw mc_samples = {count}: {exc}") from exc
    sums, err_sq = [0.0] * n, [0.0] * n
    for (_, _, points, members, vectors), drawn in zip(plan, variances):
        variance = dict(zip(vectors, drawn))
        for k in points:
            for m, (result, mult) in enumerate(members):
                v = variance[m, _row(result.weights, k)] / float(_at(result.shot_noise, k))
                sums[k] += mult * v
                err_sq[k] += (mult * v) ** 2 * 2.0 / (count - 1)
    return sums, [math.sqrt(e) for e in err_sq]


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
    v_plus, v_minus, bound, gain, channels, raw = _EVALUATORS[s.method](
        s, columns, state, budgets)
    v_plus, v_minus, bound, gain = (_per_point(x, n) for x in (v_plus, v_minus, bound, gain))
    sums = [p + m for p, m in zip(v_plus, v_minus)]
    mc_sum = mc_stderr = None
    if s.mc_samples > 0:
        mc_sum, mc_stderr = _mc_columns(channels, n, s.mc_samples, s.seed)
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
    error is the first failing point's.
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


def fixtures_dir():
    """Bundled fixture directory, as a pathlib.Path (loaded here, for table1 alone)."""
    from importlib import resources
    from pathlib import Path
    return Path(resources.files("brightbeam") / "fixtures")


def run_fixture_table(directory=None) -> list[ReportRow]:
    """Run every fixture scenario in the directory (by default the bundled
    one): the rows of the comparison table."""
    from pathlib import Path
    directory = Path(directory) if directory is not None else fixtures_dir()
    paths = sorted(directory.glob("*.json"))
    if len(paths) < 2:
        raise ScenarioError(f"method comparison needs at least 2 fixture scenarios, "
                            f"found {len(paths)} in {directory}")
    return [run_scenario(load_scenario(p)) for p in paths]
