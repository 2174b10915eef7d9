"""Golden outputs, replayed by scripts/check_refs.py (the one replay of the
reference outputs) one output or group at a time, with every warning an error
as under ``-W error``.  A moved digit fails with the script's mismatch lines."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import check_refs  # noqa: E402

pytestmark = pytest.mark.filterwarnings("error")


def assert_replays(problems):
    assert not problems, "\n".join(problems)


def test_table1_bytes():
    assert_replays(check_refs.check_table1())


@pytest.mark.parametrize("name", sorted(check_refs.REFS["cli"]["simulate"]))
def test_simulate_bytes(name):
    assert_replays(check_refs.check_simulate(name))


def test_cli_sweep_bytes():
    assert_replays(check_refs.check_cli_sweep())


def test_analytic_sums():
    assert_replays(check_refs.check_sums())


def test_sweep_digests():
    assert len(check_refs.REFS["sweeps"]) == 150
    assert_replays(check_refs.check_sweeps())


@pytest.mark.parametrize("name", sorted(check_refs.MC_SWEEP_DIGESTS))
def test_monte_carlo_sweep_digests(name):
    assert_replays(check_refs.check_mc_sweep(name))
