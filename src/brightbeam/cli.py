"""Command-line front end.

Verbs: simulate, sweep, table1, validate.  Exit codes: 0 success,
2 validation error (including a reading that overflows), 3 degenerate
configuration.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import click

from .errors import DegenerateModeError, DomainError, ScenarioError
from .harness import SWEEP_PARAMS, run_fixture_table, run_scenario, sweep_csv
from .scenario import load_scenario

EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3


def _round6(obj):
    """Render all floats at 6 significant digits."""
    if isinstance(obj, float):
        return float(format(obj, ".6g"))
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


@click.group()
def cli():
    """Simulate bright-beam entanglement scenarios and their verification."""


def _load(path, mc_samples, seed):
    s = load_scenario(path)
    if mc_samples is not None:
        s = replace(s, mc_samples=mc_samples)
    if seed is not None:
        s = replace(s, seed=seed)
    return s


@cli.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--mc-samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
def simulate(scenario_path, mc_samples, seed):
    """Run one scenario and print its witness report as JSON."""
    row = run_scenario(_load(scenario_path, mc_samples, seed))
    click.echo(json.dumps(_round6(row.to_dict()), indent=2, sort_keys=True))


@cli.command("sweep")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--param", required=True, type=click.Choice(SWEEP_PARAMS))
@click.option("--from", "start", required=True, type=float)
@click.option("--to", "stop", required=True, type=float)
@click.option("--steps", required=True, type=int)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="CSV output file (stdout if omitted)")
def sweep_cmd(scenario_path, param, start, stop, steps, out_path):
    """Sweep one parameter and emit the fixed-schema CSV."""
    text = sweep_csv(load_scenario(scenario_path), param, start, stop, steps)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@cli.command()
@click.option("--fixtures", "fixtures_path", type=click.Path(exists=True), default=None)
def table1(fixtures_path):
    """Reproduce the method-comparison table from the fitted fixtures."""
    _, table = run_fixture_table(fixtures_path)
    click.echo(table)


@cli.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--mc-samples", type=int, default=1_000_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def validate(scenario_path, mc_samples, seed):
    """Check the analytic witness sum against the sampling oracle."""
    if mc_samples < 2:
        raise ScenarioError("validate needs --mc-samples >= 2")
    row = run_scenario(_load(scenario_path, mc_samples, seed))
    deviation = abs(row.mc_sum - row.sum_value)
    n_sigma = deviation / row.mc_stderr if row.mc_stderr > 0 else float("inf")
    report = {
        "analytic_sum": row.sum_value,
        "mc_sum": row.mc_sum,
        "mc_stderr": row.mc_stderr,
        "n_sigma": n_sigma,
        "consistent_3_sigma": bool(n_sigma <= 3.0),
    }
    click.echo(json.dumps(_round6(report), indent=2, sort_keys=True))


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_VALIDATION)
    except click.Abort:
        sys.exit(1)
    except (ScenarioError, DomainError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except DegenerateModeError as exc:
        click.echo(f"degenerate configuration: {exc}", err=True)
        sys.exit(EXIT_DEGENERATE)


if __name__ == "__main__":
    main()
