"""nmpo benchmark: end-to-end and per-layer metrics of one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload phase-map --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each run starts one fresh interpreter (``worker.py``) that imports
``nmpo.cli`` from ``src/`` and runs the workload's operations in-process, one
after another, with BLAS pinned to one thread and ``NMPO_THREADS`` unset.
With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json`` and set-up time is measured over several more fresh
interpreters; with ``--trace 1`` it carries the per-layer metrics.  The last
line of stdout is the result; the line before it holds the quartiles, sample
counts, failures and machine environment.  ``--workload all`` prints both
lines for every workload in turn.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh interpreters timed for setup_s, besides the workload's own.
SETUP_SPAWNS = 4
# A run that has not finished by then is killed, so it ends within 180 s.
WORKER_TIMEOUT_S = 170.0
BLAS_THREADS = 1
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NMPO_THREADS", None)
    env.pop("PYTHONPATH", None)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


def spawn(args: list[str], deadline: float):
    """Start worker.py; return (process, set-up seconds as measured, set-up
    seconds at the speed probe's reference speed).

    Set-up ends when the worker prints ``ready``; the speed probe's own time
    during it is not counted.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    word, _, rest = line.partition(" ")
    if word != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not become ready (exit {proc.returncode})")
    probe = json.loads(rest)
    ready -= probe["probe_s"]
    return proc, ready, ready / probe["slowdown"]


def finish(proc, deadline: float) -> str:
    """Wait for the worker until the deadline; kill it after. Return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return out


def run_one(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Return (result line, detail line) of one workload run."""
    deadline = perf_counter() + WORKER_TIMEOUT_S
    setup, setup_raw = [], []
    if not trace:
        for _ in range(SETUP_SPAWNS):
            proc, raw, ready = spawn(["--setup-only"], deadline)
            finish(proc, deadline)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up spawn exited {proc.returncode}")
            setup.append(ready)
            setup_raw.append(raw)
    proc, raw, ready = spawn(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        deadline,
    )
    setup.append(ready)
    setup_raw.append(raw)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])

    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    metrics = dict(res["metrics"])
    detail = {k: res[k] for k in ("workload", "env", "failures", "report")}
    if not trace:
        metrics["setup_s"] = statistics.median(setup)
        q1, _, q3 = statistics.quantiles(setup, n=4)
        detail["report"]["setup_s"] = {"unit": "s", "median": metrics["setup_s"],
                                       "q1": q1, "q3": q3, "n": len(setup),
                                       "as_measured": statistics.median(setup_raw)}
    wanted = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"worker did not report {missing}")
    result = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in wanted},
    }
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark nmpo on one workload (or all).")
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nmpo" / "cli.py").is_file():
        print(f"no nmpo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in NAMES if args.workload == "all" else (args.workload,):
        result, detail = run_one(name, args.seed, args.seconds, args.trace)
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
