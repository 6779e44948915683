"""Benchmark child process: import nmpo, run one workload, print one JSON line.

``run.py`` starts this script in a fresh interpreter.  It prints ``ready``
as soon as ``nmpo.cli`` is imported, which ends set-up, before it imports
any of the harness.  The speed probe (``speed.py``) runs during the import;
the ``ready`` line carries its time and the slowdown it saw, as JSON, so
that set-up time can be scaled to the probe's reference speed like every
other time.  Then it runs the workload (see ``harness.py``) and
prints the result as the last line of stdout.  With ``--setup-only`` it exits
after ``ready``.

Run on its own from the repository root to see one workload's raw result:

    python3 perfbench/worker.py --workload phase-map --seed 1 --seconds 10 --trace 0
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent


def import_cli():
    """Import nmpo.cli from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nmpo.cli

    if Path(nmpo.__file__).resolve().parent != src / "nmpo":
        raise ImportError(f"nmpo imported from {nmpo.__file__}, not from {src}")
    return nmpo.cli


if __name__ == "__main__":
    with SpeedProbe() as probe:
        t0 = perf_counter()
        cli = import_cli()
        t1 = perf_counter()
    setup = {"probe_s": probe.total, "slowdown": probe.slowdown(t0, t1)}
    print("ready", json.dumps(setup), flush=True)
    if "--setup-only" not in sys.argv[1:]:
        import harness

        raise SystemExit(harness.main(cli, sys.argv[1:]))
