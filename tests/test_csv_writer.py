"""The column-at-a-time CSV formatter of nmpo.cli against the per-value join.

cli._csv_lines formats a table column by column; every line must be what
joining cli._fmt of each value of its row gives, byte for byte: on arbitrary
mixed-type tables, and on every CSV-writing subcommand.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmpo import cli
from nmpo.meanfield import Phase


def per_value_lines(cols):
    """The reference: each row's values formatted one at a time and joined."""
    return [",".join(cli._fmt(v) for v in row) for row in zip(*cols)]


FLOATS = st.floats() | st.sampled_from(
    [math.inf, -math.inf, -0.0, 5e-324, 1.5e-310, 2.2250738585072014e-308, 1e308]
)
VALUES = (
    FLOATS
    | FLOATS.map(np.float64)
    | st.booleans()
    | st.booleans().map(np.bool_)
    | st.integers()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.sampled_from(list(Phase))
)


PHASES = st.sampled_from(list(Phase))
KINDS = {
    "float": FLOATS,
    "one float64": FLOATS,
    "phase": PHASES,
    "phase and float": PHASES | FLOATS,
    "mixed": VALUES,
}


@st.composite
def tables(draw):
    """Rows of equal width whose columns are Python floats only, Python floats
    with one np.float64 among them, phases only, phases and Python floats, or
    any mix of the values nmpo writes."""
    n_rows = draw(st.integers(0, 6))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(list(KINDS)))
        col = draw(st.lists(KINDS[kind], min_size=n_rows, max_size=n_rows))
        if kind == "one float64" and col:
            i = draw(st.integers(0, n_rows - 1))
            col[i] = np.float64(col[i])
        cols.append(col)
    return list(zip(*cols))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(tables())
@example([])
@example([(1.0, np.float64(1e308)), (-0.0, 5e-324)])
@example([(Phase.U1, Phase.DISORDERED, 0.5), (Phase.U1XZ2, 2.0, Phase.U1)])
def test_columns_format_as_the_per_value_join(rows):
    assert list(cli._csv_lines(zip(*rows))) == per_value_lines(zip(*rows))


SIM = ["--gammaP", "20", "--dt", "0.005", "--t-burn", "20", "--t-sample", "11",
       "--n-traj", "8", "--record-stride", "10", "--seed", "7"]

COMMANDS = [
    ["phase-diagram", "--mu", "0:2:5", "--kappa", "0.2,inf"],
    ["eigenflow", "--mu", "0:2:9", "--kappa", "0.5,0.49"],
    ["variances", "--mu", "0:2:5", "--kappa", "0.2,1,inf", "--method", "integrate"],
    ["negativity", "--mu", "0.5:2:4", "--nth", "0,0.3", "--markovian-comparator"],
    ["simulate", "--mu", "2", "--kappa", "1.5,1", *SIM],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_subcommand_csv_is_the_per_value_bytes(monkeypatch, capsys, argv):
    got = cli.main(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "_csv_lines", per_value_lines)
    want = cli.main(argv), capsys.readouterr()
    assert got[0] == 0 and got == want


def test_trajectory_dump_is_the_per_value_bytes(monkeypatch, tmp_path):
    argv = ["simulate", "--mu", "0.5", "--kappa", "1", *SIM, "--out", str(tmp_path / "o.json")]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert cli.main([*argv, "--dump-traj", str(got), "--decimate", "3"]) == 0
    monkeypatch.setattr(cli, "_csv_lines", per_value_lines)
    assert cli.main([*argv, "--dump-traj", str(want), "--decimate", "3"]) == 0
    assert got.read_bytes() == want.read_bytes()
