"""In-memory spans around the public functions of each nmpo module.

``Tracer.install()`` replaces each traced function with a wrapper that
records (name, start, end, parent) and the error family of any exception
that passes through it.  ``nmpo.cli`` and other modules bind several of these
functions by name at import time, so every module-level binding of the
original object is replaced, not only the one where it is defined; otherwise
the spans would not nest.  Spans stay in memory until ``layer_metrics`` reads
them at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from time import perf_counter

# (module, attribute, span name).  SystemParams methods share one span name.
TRACED = (
    ("nmpo.model", "SystemParams.from_kappa", "model.SystemParams"),
    ("nmpo.model", "SystemParams.replace", "model.SystemParams"),
    ("nmpo.meanfield", "steady_state", "meanfield.steady_state"),
    ("nmpo.meanfield", "phase_diagram", "meanfield.phase_diagram"),
    ("nmpo.linres", "build_embedded_matrix", "linres.build_embedded_matrix"),
    ("nmpo.linres", "eigenspectrum", "linres.eigenspectrum"),
    ("nmpo.spectra", "psd", "spectra.psd"),
    ("nmpo.spectra", "integrate_variances", "spectra.integrate_variances"),
    ("nmpo.spectra", "variances_u1xz2", "spectra.variances_u1xz2"),
    ("nmpo.spectra", "susceptibility_at", "spectra.susceptibility_at"),
    ("nmpo.sde", "integrate_trajectory", "sde.integrate_trajectory"),
    ("nmpo.sde", "estimate_order_parameters", "sde.estimate_order_parameters"),
    ("nmpo.sde", "estimate_quadrature_variances", "sde.estimate_quadrature_variances"),
)

MODULES = ("model", "meanfield", "linres", "spectra", "sde", "cli")
FAMILIES = ("ParameterError", "NumericsError", "other")


def error_family(exc: BaseException) -> str:
    from nmpo.errors import NumericsError, ParameterError

    if isinstance(exc, ParameterError):
        return "ParameterError"
    if isinstance(exc, NumericsError):
        return "NumericsError"
    return "other"


def _record_shape(args, kwargs, result) -> tuple[int, int, int]:
    """(steps, trajectories, recorded bytes) of one integrate_trajectory call."""
    config = kwargs["config"] if "config" in kwargs else args[1]
    steps = round(config.t_burn / config.dt) + round(config.t_sample / config.dt)
    nbytes = sum(
        getattr(result, name).nbytes
        for name in ("t", "A_i", "A_s", "A_P", "c_i", "c_s", "f_i", "f_s")
        if getattr(result, name) is not None
    )
    return steps, config.n_traj, nbytes


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.errors: dict[int, str] = {}
        self.sde_calls: list[tuple[int, int, int]] = []
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn, observe=None):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = perf_counter()
                self.errors[i] = error_family(exc)
                raise
            else:
                end[i] = perf_counter()
            finally:
                stack.pop()
            if observe is not None:
                self.sde_calls.append(observe(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Swap every binding of each traced function for its wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "nmpo" or n.startswith("nmpo.")]
        undo = []
        try:
            for mod_name, attr, span in TRACED:
                mod = sys.modules[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(span, raw.__func__))
                    else:
                        new = self.wrap(span, raw)
                    setattr(cls, meth, new)
                    undo.append((cls, meth, raw))
                    continue
                orig = getattr(mod, attr)
                observe = _record_shape if attr == "integrate_trajectory" else None
                new = self.wrap(span, orig, observe)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, new)
                            undo.append((m, key, orig))
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def self_times(self):
        """Per-span (duration, self time); self excludes direct children."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [dur[i] - child[i] for i in range(n)]


def layer_metrics(tracer: Tracer, passes: int, ops: int, points: int,
                  cli_failures: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` whole passes.

    Counts are per pass.  Times are averages per call, per point or per op.
    A layer that is never called reports 0.  ``cli_failures`` maps error
    family to the number of ops whose ``nmpo.cli.main`` exited non-zero.
    """
    dur, self_t = tracer.self_times()
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + self_t[i]

    def per_call(name, scale):
        return total.get(name, 0.0) / calls[name] * scale if calls.get(name) else 0.0

    def self_per_call(name, scale):
        return own.get(name, 0.0) / calls[name] * scale if calls.get(name) else 0.0

    steps = sum(s for s, _, _ in tracer.sde_calls)
    traj_steps = sum(s * n for s, n, _ in tracer.sde_calls)
    record_bytes = sum(b for _, _, b in tracer.sde_calls)
    sde_time = total.get("sde.integrate_trajectory", 0.0)

    m = {
        "model.SystemParams.calls": calls.get("model.SystemParams", 0) / passes,
        "model.SystemParams.us_per_call": per_call("model.SystemParams", 1e6),
        "meanfield.steady_state.calls": calls.get("meanfield.steady_state", 0) / passes,
        "meanfield.steady_state.us_per_call": per_call("meanfield.steady_state", 1e6),
        "meanfield.phase_diagram.self_us_per_point":
            own.get("meanfield.phase_diagram", 0.0) / points * 1e6,
        "linres.build_embedded_matrix.calls": calls.get("linres.build_embedded_matrix", 0) / passes,
        "linres.build_embedded_matrix.us_per_call": per_call("linres.build_embedded_matrix", 1e6),
        "linres.eigenspectrum.calls": calls.get("linres.eigenspectrum", 0) / passes,
        "linres.eigenspectrum.us_per_call": per_call("linres.eigenspectrum", 1e6),
        "spectra.psd.calls": calls.get("spectra.psd", 0) / passes,
        "spectra.psd.ms_per_call": per_call("spectra.psd", 1e3),
        "spectra.integrate_variances.ms_per_call": per_call("spectra.integrate_variances", 1e3),
        "spectra.integrate_variances.self_ms_per_call":
            self_per_call("spectra.integrate_variances", 1e3),
        "spectra.variances_u1xz2.self_ms_per_call": self_per_call("spectra.variances_u1xz2", 1e3),
        "spectra.susceptibility_at.us_per_call": per_call("spectra.susceptibility_at", 1e6),
        "spectra.susceptibility_at.calls_per_point":
            calls.get("spectra.susceptibility_at", 0) / points,
        "sde.integrate_trajectory.steps": steps / ops,
        "sde.integrate_trajectory.us_per_step": sde_time / steps * 1e6 if steps else 0.0,
        "sde.integrate_trajectory.ns_per_traj_step":
            sde_time / traj_steps * 1e9 if traj_steps else 0.0,
        "sde.record_mb": record_bytes / ops / 1e6,
        "sde.estimate_order_parameters.ms_per_call":
            per_call("sde.estimate_order_parameters", 1e3),
        "sde.estimate_quadrature_variances.ms_per_call":
            per_call("sde.estimate_quadrature_variances", 1e3),
        "cli.main.self_ms_per_op": own.get("cli.main", 0.0) / ops * 1e3,
    }

    # An exception leaves a module when the span it passes through has no
    # parent, or a parent in another module.
    failed = {(mod, fam): 0 for mod in MODULES for fam in FAMILIES}
    for i, fam in tracer.errors.items():
        mod = tracer.names[i].split(".")[0]
        p = tracer.parent[i]
        if mod != "cli" and (p < 0 or tracer.names[p].split(".")[0] != mod):
            failed[mod, fam] += 1
    for fam, count in cli_failures.items():
        failed["cli", fam] += count
    for (mod, fam), count in failed.items():
        m[f"{mod}.failed.{fam}"] = count / passes
    return m
