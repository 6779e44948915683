"""Benchmark harness: run a workload's passes through nmpo.cli.main.

Times each operation from outside the program, checks its output, counts
failures, and in a traced run repeats the same passes with spans around each
module's public functions (see ``spans.py``).  ``worker.py`` calls ``main``
after importing ``nmpo.cli``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent


# Every op runs at least twice: its latency is the median of its repeats, and
# its output must not change between repeats.
MIN_PASSES = 2


def tail_index(n: int) -> int:
    """Index into n sorted values of the highest percentile with >= 10 beyond it.

    With fewer than 11 values no such percentile exists; the maximum is used.
    """
    return n - 11 if n >= 11 else n - 1


def quartiles(values) -> dict:
    vals = sorted(values)
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


@contextlib.contextmanager
def scratch_dir():
    """Temporary directory inside the checkout, removed afterwards."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


class Runner:
    """Runs operations through nmpo.cli.main, timing, checking and counting."""

    def __init__(self, workload: workloads.Workload, tmp: Path):
        self.workload = workload
        self.out = str(tmp / "out")
        self.first_output: dict[tuple, str] = {}
        self.failures: list[dict] = []
        self.unexpected = 0

    def run_pass(self, ops, main, probe: SpeedProbe) -> list[tuple[float, float, float]]:
        """Run ops once in order; return each op's (start, end, busy seconds).

        Busy time is the op's wall time less the speed probe's time inside it.
        """
        times = []
        for op in ops:
            argv = list(op.argv) + ["--out", self.out]
            diag = io.StringIO()
            with contextlib.redirect_stderr(diag):
                p0 = probe.total
                t0 = perf_counter()
                try:
                    rc = main(argv)
                except Exception:
                    rc = None
                    diag.write(traceback.format_exc())
                t1 = perf_counter()
                p1 = probe.total
            times.append((t0, t1, (t1 - t0) - (p1 - p0)))
            self._judge(op, rc, diag.getvalue())
        return times

    def _judge(self, op, rc, diag: str) -> None:
        error = None
        if rc == 0:
            try:
                with open(self.out) as fh:
                    text = fh.read()
                self.workload.check(op, text)
                first = self.first_output.setdefault(op.key, text)
                if text != first:
                    raise workloads.CheckFailed("output differs from the first run of this op")
                return
            except (OSError, ValueError, KeyError, workloads.CheckFailed) as exc:
                error = f"{type(exc).__name__}: {exc}"
        else:
            try:
                error = json.loads(diag.strip().splitlines()[-1])["error"]
            except (ValueError, KeyError, IndexError):
                error = diag.strip()[-300:] or "no diagnostic"
        known = self.workload.known_failures.get(op.key)
        expected = known is not None and known == (rc, error)
        self.unexpected += not expected
        self.failures.append(
            {"key": list(op.key), "exit": rc, "error": error, "known": expected}
        )

    def cli_failures(self, since: int = 0) -> dict[str, int]:
        """Failed ops by error family, from their exit code."""
        by_exit = {2: "ParameterError", 3: "NumericsError"}
        counts = {fam: 0 for fam in spans.FAMILIES}
        for f in self.failures[since:]:
            if f["exit"] != 0:
                counts[by_exit.get(f["exit"], "other")] += 1
        return counts


def run_passes(runner: Runner, orders, seconds: float, main, n_passes=None):
    """Whole passes until ``seconds`` have elapsed and at least MIN_PASSES ran
    (or exactly ``n_passes``), with the speed probe running.

    ``lat`` holds each op's busy time per pass as measured; ``scaled`` the
    same at the probe's reference speed (see ``speed.py``).
    ``peak_rss_mb`` is the process's peak resident memory after the first
    pass, which already runs every op once; later passes add only allocator
    noise to it.
    """
    times, passes = [], []
    t_start = perf_counter()
    with SpeedProbe(runner.workload.tight_loop) as probe:
        while True:
            ops = next(orders)
            times.append(runner.run_pass(ops, main, probe))
            if not passes:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            passes.append(ops)
            wall = perf_counter() - t_start
            if n_passes is not None:
                if len(passes) == n_passes:
                    break
            elif wall >= seconds and len(passes) >= MIN_PASSES:
                break
    lat = [[busy for _, _, busy in ts] for ts in times]
    scaled = [[busy / probe.slowdown(t0, t1) for t0, t1, busy in ts] for ts in times]
    return {"lat": lat, "scaled": scaled, "passes": passes, "wall": wall,
            "peak_rss_mb": peak_rss_mb, "probes": len(probe.durations),
            "probe_us": quartiles([d * 1e6 for d in probe.durations])}


def op_latencies(run, key: str = "scaled") -> dict:
    """Each op's median latency over the run's passes."""
    per_op = {}
    for ops, lat in zip(run["passes"], run[key]):
        for op, t in zip(ops, lat):
            per_op.setdefault(op, []).append(t)
    return {op: statistics.median(ts) for op, ts in per_op.items()}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "NMPO_THREADS": os.environ.get("NMPO_THREADS", "unset"),
        "commit": git_commit(),
        "seed": seed,
    }


BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(cli, wl: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the worker result.

    ``metrics`` holds the end-to-end metrics (untraced) or the per-layer
    metrics (traced); ``report`` every end-to-end metric with its unit,
    quartiles and sample count.
    """
    with scratch_dir() as tmp:
        runner = Runner(wl, tmp)
        plain = run_passes(runner, wl.pass_orders(seed), seconds, cli.main)
        n_passes = len(plain["passes"])
        attempted, failed = n_passes * len(wl.ops), len(runner.failures)
        lat = op_latencies(plain)
        lat_ms = sorted(t * 1e3 for t in lat.values())
        ti = tail_index(len(lat_ms))
        busy = sum(lat.values())
        raw = op_latencies(plain, "lat")
        raw_ms = sorted(t * 1e3 for t in raw.values())
        points = sum(op.points for op in wl.ops)
        traj_steps = sum(op.traj_steps for op in wl.ops)
        report = {
            # ``value`` from each op's median repeat at the probe's reference
            # speed; ``as_measured`` the same without that scaling;
            # ``per_pass`` each pass as it ran.
            "points_per_s": {"unit": "1/s", "value": points / busy,
                             "as_measured": points / sum(raw.values()),
                             "per_pass": quartiles([points / sum(t) for t in plain["lat"]])},
            "traj_steps_per_s": {"unit": "1/s", "value": traj_steps / busy,
                                 "as_measured": traj_steps / sum(raw.values())},
            "op_p50_ms": {"unit": "ms", **quartiles(lat_ms)},
            "op_tail_ms": {"unit": "ms", "value": lat_ms[ti], "as_measured": raw_ms[ti],
                           "percentile": 100.0 * (ti + 1) / len(lat_ms), "n": len(lat_ms)},
            "peak_rss_mb": {"unit": "MB", "value": plain["peak_rss_mb"]},
            "failed_frac": {"unit": "ratio", "value": failed / attempted,
                            "failed": failed, "attempted": attempted},
            "slowdown": {"unit": "ratio", "value": sum(raw.values()) / busy,
                         "probes": plain["probes"], "probe_us": plain["probe_us"]},
        }
        result = {
            "attempted": attempted,
            "failed": failed,
            "failures": runner.failures,
            "env": environment(seed),
            "workload": {"name": wl.name, "ops_per_pass": len(wl.ops),
                         "points_per_pass": points,
                         "passes": n_passes, "wall_s": plain["wall"]},
            "report": report,
        }
        if trace:
            # The same passes again, in the same order, with every traced
            # function wrapped.
            tracer = spans.Tracer()
            before = len(runner.failures)
            with tracer.install():
                traced = run_passes(runner, iter(plain["passes"]), seconds,
                                    tracer.wrap("cli.main", cli.main), n_passes=n_passes)
            metrics = spans.layer_metrics(
                tracer, passes=n_passes, ops=attempted, points=n_passes * points,
                cli_failures=runner.cli_failures(before),
            )
            metrics["failed_frac"] = failed / attempted
            metrics["trace.overhead_frac"] = sum(op_latencies(traced).values()) / busy - 1.0
            result["spans"] = len(tracer)
        else:
            metrics = {name: report[name]["value"] for name in ("points_per_s", "op_tail_ms",
                                                                 "peak_rss_mb")}
            metrics["op_p50_ms"] = report["op_p50_ms"]["median"]
        result["metrics"] = metrics
        result["correct"] = runner.unexpected == 0
        return result


def main(cli, argv) -> int:
    ap = argparse.ArgumentParser(prog="worker.py", description="Run one nmpo benchmark workload.")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.make(args.workload, args.seed)
    result = run_workload(cli, wl, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0

