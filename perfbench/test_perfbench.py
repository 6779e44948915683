"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_each_workload(cli, name):
    wl = workloads.make(name, seed=1, tiny=True)
    plain = harness.run_workload(cli, wl, seed=1, seconds=0, trace=False)
    assert plain["correct"], plain["failures"]
    assert plain["attempted"] >= 1
    e2e = {m["name"] for m in BENCH["end_to_end"]} - {"setup_s"}
    assert set(plain["metrics"]) == e2e
    assert all(v > 0 for v in plain["metrics"].values())

    traced = harness.run_workload(cli, wl, seed=1, seconds=0, trace=True)
    assert traced["correct"], traced["failures"]
    assert set(traced["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


def test_every_metric_name_carries_a_unit(cli):
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    wl = workloads.make("phase-map", seed=1, tiny=True)
    report = harness.run_workload(cli, wl, seed=1, seconds=0, trace=False)["report"]
    for name, entry in report.items():
        assert UNIT.fullmatch(entry["unit"]), name


def test_no_child_self_time_exceeds_parent_duration(cli, tmp_path):
    tracer = spans.Tracer()
    argv = ["variances", "--mu", "1.5", "--kappa", "0.2", "--method", "integrate",
            "--format", "json", "--out", str(tmp_path / "out.json")]
    with tracer.install():
        assert tracer.wrap("cli.main", cli.main)(argv) == 0
    assert cli.psd.__name__ == "psd" and not hasattr(cli.psd, "__wrapped__")

    dur, own = tracer.self_times()
    for i, p in enumerate(tracer.parent):
        assert own[i] >= 0.0
        if p >= 0:
            assert own[i] <= dur[p]
    # cli binds these functions by name; their spans must still nest.
    chain = {(tracer.names[tracer.parent[i]], tracer.names[i])
             for i in range(len(tracer)) if tracer.parent[i] >= 0}
    assert ("cli.main", "spectra.variances_u1xz2") in chain
    assert ("spectra.variances_u1xz2", "spectra.psd") in chain
    assert ("spectra.integrate_variances", "spectra.susceptibility_at") in chain


@pytest.mark.parametrize(
    "argv",
    [
        ("phase-diagram", "--mu", "0:2:5", "--kappa", "-1"),  # exits 2
        ("phase-diagram", "--mu", "0:2:7", "--kappa", "1.0"),  # 7 rows fail the check
    ],
)
def test_failed_frac_counts_an_injected_failing_op(cli, argv):
    wl = workloads.make("phase-map", seed=1, tiny=True)
    wl = replace(wl, ops=wl.ops + (workloads.Op(argv, ("injected",), 5),))
    res = harness.run_workload(cli, wl, seed=1, seconds=0, trace=False)
    assert (res["attempted"], res["failed"]) == (8, 2)  # two passes
    assert res["report"]["failed_frac"]["value"] == 0.25
    assert not res["correct"]
    assert res["failures"][0]["key"] == ["injected"]


def test_known_failures_are_ops_of_their_workload():
    assert len(workloads.make("variance-sweep", seed=1).ops) == 84
    for name, known in workloads.KNOWN_FAILURES.items():
        keys = {op.key for op in workloads.make(name, seed=1).ops}
        assert set(known) <= keys, name


@pytest.mark.parametrize("tight_loop", [False, True])
def test_speed_probe_samples_while_installed(tight_loop):
    with speed.SpeedProbe(tight_loop) as probe:
        t_end = perf_counter() + 0.2
        while perf_counter() < t_end:
            pass
    # One sample on entry, one on exit, and about ten from the timer.
    assert len(probe.durations) >= 6
    # A tight-loop sample is the geometric mean of two timed calls, both
    # counted in the probe's total.
    calls = 2 if tight_loop else 1
    assert probe.total >= calls * sum(probe.durations) * (1 - 1e-9)
    assert probe.slowdown(probe.starts[0], probe.starts[-1]) > 0


def test_slowdown_is_the_trimmed_mean_of_nearby_probes():
    probe = speed.SpeedProbe()
    for i in range(100):  # a sample every 20 ms; the CPU halves its speed at t = 1 s
        probe.starts.append(i * 0.02)
        probe.durations.append(speed.NOMINAL_COLD_S * (2.0 if i >= 50 else 1.0))
    assert probe.slowdown(0.3, 0.5) == pytest.approx(1.0)
    assert probe.slowdown(1.3, 1.5) == pytest.approx(2.0)
    # A probe the scheduler held up is trimmed away.
    probe.durations[20] = speed.NOMINAL_COLD_S * 50
    assert probe.slowdown(0.35, 0.45) == pytest.approx(1.0)
    # Too few probes in the window: the nearest MIN_PROBES are used.
    assert probe.slowdown(1.9, 1.9) == pytest.approx(2.0)


def test_tail_percentile_keeps_ten_ops_beyond():
    assert harness.tail_index(84) == 73
    assert harness.tail_index(11) == 0
    assert harness.tail_index(3) == 2


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phase-map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
