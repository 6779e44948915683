"""The one-pass JSON writer of nmpo.cli against the reference route.

cli._json writes a document as tests/json_oracle.py does (jsonable, then
json.dumps with indent=2 and sorted keys), byte for byte: on every
JSON-writing subcommand, and on arbitrary nested payloads.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import json_oracle
from nmpo import cli
from nmpo.meanfield import Phase

SIM = ["--gammaP", "20", "--dt", "0.005", "--t-sample", "11", "--n-traj", "8",
       "--record-stride", "10", "--seed", "5"]

COMMANDS = [
    ["steady-state", "--mu", "0.5", "--kappa", "1"],
    ["steady-state", "--mu", "1.5", "--kappa", "0.2"],
    ["steady-state", "--mu", "1.5", "--kappa", "0.2", "--z2-branch", "-1", "--phi", "0.7"],
    ["steady-state", "--mu", "2", "--kappa", "inf", "--gammaP", "150"],
    ["steady-state", "--mu", "1", "--tau-r", "1"],
] + [
    ["variances", "--mu", mu, "--kappa", kappa, "--format", "json", *method]
    for mu, kappa in [("0.5", "1"), ("1.5", "1"), ("1.5", "0.2"), ("1", "1"), ("0.4", "0.2"),
                      ("1.5", "inf"), ("0.5", "inf")]
    for method in ([], ["--method", "integrate"], ["--method", "integrate", "--nth", "0.3",
                                                   "--nth-pump", "0.1"])
] + [
    ["simulate", "--mu", "2", "--kappa", "1", "--t-burn", "20", *SIM],
    ["simulate", "--mu", "0.5", "--kappa", "1", "--quadratures", "--t-burn", "40", *SIM],
    ["simulate", "--mu", "2", "--kappa", "0.3", "--quadratures", "--frame", "corotating",
     "--t-burn", "67", *SIM],
]


def run(capsys, argv):
    rc = cli.main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_subcommand_json_is_the_reference_bytes(monkeypatch, capsys, argv):
    got = run(capsys, argv)
    monkeypatch.setattr(cli, "_write_json", json_oracle.write_json)
    want = run(capsys, argv)
    assert got[0] == 0 and got == want


LEAVES = (
    st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.2250738585072014e-308])
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers()
    | st.booleans()
    | st.booleans().map(np.bool_)
    | st.none()
    | st.complex_numbers(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(list(Phase))
    | hnp.arrays(
        st.sampled_from([np.float64, np.float32, np.int64, np.bool_, np.complex128]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
    )
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(PAYLOADS)
def test_nested_payloads_are_the_reference_bytes(payload):
    assert cli._json(payload) == json_oracle.dumps(payload)


def test_unknown_objects_are_refused_like_json():
    for payload in ({"a": object()}, [np.complex64(1.0)]):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json_oracle.dumps(payload)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._json(payload)
