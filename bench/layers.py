"""Per-layer tracing from outside the library.

The benchmark measures each envdiag module by rebinding the module
attributes through which the pipeline reaches it, so nothing under
``src/`` changes.  A function is rebound in every loaded ``envdiag``
module that holds it (``fitters.refit`` is reached as
``diagnostics.refit``, ``fit_model`` also as ``harness.fit_model``);
methods are rebound on their class.  Wrappers re-raise every exception
unchanged, so a traced run takes exactly the same path as an untraced
one.

Spans are kept in memory while the traced pass runs and written out at
the end.  A layer's self time is its span minus its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from envdiag import smoother

# span name -> (owner, attribute, what to keep from the result)
_BINDINGS = {
    "fitters.fit_model": ("envdiag.fitters", "fit_model", None),
    "fitters.simulate_response": ("envdiag.fitters", "simulate_response", None),
    "fitters.refit": ("envdiag.fitters", "refit", None),
    "fitters.fit_glm_poisson": ("envdiag.fitters", "fit_glm_poisson", None),
    "fitters.minimize": ("envdiag.fitters", "minimize",
                         lambda r: (int(r.nfev), int(r.nit))),
    "residuals.residuals_for": ("envdiag.residuals", "residuals_for", None),
    "residuals.hat_diagonals": ("envdiag.residuals", "hat_diagonals", None),
    "smoother.PSplineDesign": (smoother.PSplineDesign, "__init__", None),
    "smoother.smooth_matrix": (smoother.PSplineDesign, "smooth_matrix",
                               lambda r: int(r.shape[0])),
    "envelope.studentized_mad_envelope": (
        "envdiag.envelope", "studentized_mad_envelope", None),
    "diagnostics.simulate_replicates": (
        "envdiag.diagnostics", "simulate_replicates", None),
    "diagnostics.diagnose_model": ("envdiag.diagnostics", "diagnose_model", None),
    "harness.run_scenario": ("envdiag.harness", "run_scenario", None),
    "io.run_power_study": ("envdiag.io", "run_power_study", None),
}

# name -> (unit, better); the order is the order of the printed metrics
PER_LAYER = {
    "fitters.fit_model.busy_ms": ("ms/dataset", "lower"),
    "fitters.simulate_response.busy_ms": ("ms/dataset", "lower"),
    "fitters.refit.calls": ("count/dataset", "lower"),
    "fitters.refit.busy_ms": ("ms/dataset", "lower"),
    "fitters.refit.failed": ("count/dataset", "lower"),
    "fitters.refit.success_ratio": ("ratio", "higher"),
    "fitters.fit_glm_poisson.calls": ("count/dataset", "lower"),
    "fitters.minimize.nfev": ("count/refit", "lower"),
    "fitters.minimize.nit": ("count/refit", "lower"),
    "residuals.residuals_for.busy_ms": ("ms/dataset", "lower"),
    "residuals.hat_diagonals.calls": ("count/dataset", "lower"),
    "smoother.PSplineDesign.calls": ("count/dataset", "lower"),
    "smoother.PSplineDesign.busy_ms": ("ms/dataset", "lower"),
    "smoother.smooth_matrix.rows": ("count/dataset", "lower"),
    "smoother.smooth_matrix.busy_ms": ("ms/dataset", "lower"),
    "envelope.studentized_mad_envelope.busy_ms": ("ms/dataset", "lower"),
    "diagnostics.simulate_replicates.self_ms": ("ms/dataset", "lower"),
    "diagnostics.diagnose_model.self_ms": ("ms/dataset", "lower"),
    "harness.run_scenario.busy_ms": ("ms/dataset", "lower"),
    "harness.parallel_efficiency": ("ratio", "higher"),
    "io.run_power_study.self_ms": ("ms/dataset", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

_REFIT = list(_BINDINGS).index("fitters.refit")


class Tracer:
    """Records one span per wrapped call while installed.

    Span ``i`` is ``name[i]`` (an index into ``names``), ``parent[i]``
    (-1 at the top), ``unit[i]`` (the dataset, or power-study cell, it
    belongs to), ``t0[i]``/``t1[i]`` (``perf_counter`` seconds), whether
    it raised, and what ``_BINDINGS`` keeps of its result.  Spans live in
    flat arrays, so a few hundred thousand of them stay small.
    """

    def __init__(self):
        self.names = list(_BINDINGS)
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.failed: set[int] = set()
        self.kept: dict[int, object] = {}
        self.current_unit = 0
        self.unbound: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, code: int, fn, keep):
        stack, t0, t1 = self._stack, self.t0, self.t1
        name, parent, unit = self.name, self.parent, self.unit
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(t0)
            name.append(code)
            parent.append(stack[-1] if stack else -1)
            unit.append(self.current_unit)
            t1.append(0.0)
            stack.append(i)
            t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1[i] = clock()
                stack.pop()
                self.failed.add(i)
                raise
            t1[i] = clock()
            stack.pop()
            if keep is not None:
                self.kept[i] = keep(out)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "envdiag" or key.startswith("envdiag.")]
        self.unbound = []
        for code, (name, (owner, attr, keep)) in enumerate(_BINDINGS.items()):
            if isinstance(owner, str):
                original = getattr(sys.modules.get(owner), attr, None)
                if original is None:
                    self.unbound.append(name)
                    continue
                wrapper = self._wrap(code, original, keep)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, value))
                            setattr(mod, key, wrapper)
            else:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.unbound.append(name)
                    continue
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(code, original, keep))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __len__(self) -> int:
        return len(self.t0)

    def write(self, path: Path) -> None:
        """One JSON array per span: name, parent, unit, t0, t1, failed, kept."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self)):
                rec = [self.names[self.name[i]], self.parent[i], self.unit[i],
                       self.t0[i], self.t1[i], i in self.failed,
                       self.kept.get(i)]
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def layer_metrics(tracer: Tracer, n_datasets: int) -> dict[str, float]:
    """Per-dataset layer figures from the spans of a traced pass.

    ``fitters.fit_model.busy_ms`` counts only fits of observed data, not
    the ``fit_model`` calls made inside bootstrap refits.  Optimizer
    counts are per refit and cover the minimizer calls below a refit.
    """
    names = tracer.names
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.t1) - np.frombuffer(tracer.t0)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    k = len(names)
    calls = dict(zip(names, np.bincount(name, minlength=k)))
    busy = dict(zip(names, np.bincount(name, weights=dur, minlength=k)))
    own = dict(zip(names, np.bincount(name, weights=dur - child, minlength=k)))
    refit_failed = sum(1 for i in tracer.failed if name[i] == _REFIT)

    # spans with a refit among their ancestors (the call tree is shallow)
    under_refit = np.zeros(dur.size, dtype=bool)
    up = parent.copy()
    while np.any(up >= 0):
        live = up >= 0
        under_refit[live] |= name[up[live]] == _REFIT
        up[live] = parent[up[live]]

    def spans_of(layer: str) -> np.ndarray:
        return name == names.index(layer)

    top_fit = float(dur[spans_of("fitters.fit_model") & ~under_refit].sum())
    opt = np.flatnonzero(spans_of("fitters.minimize") & under_refit)
    nfev = sum(tracer.kept[i][0] for i in opt)
    nit = sum(tracer.kept[i][1] for i in opt)
    rows = sum(tracer.kept[i] for i in np.flatnonzero(
        spans_of("smoother.smooth_matrix")))

    per = 1.0 / max(n_datasets, 1)
    ms = 1000.0 * per
    refits = int(calls["fitters.refit"])
    return {
        "fitters.fit_model.busy_ms": top_fit * ms,
        "fitters.simulate_response.busy_ms": busy["fitters.simulate_response"] * ms,
        "fitters.refit.calls": refits * per,
        "fitters.refit.busy_ms": busy["fitters.refit"] * ms,
        "fitters.refit.failed": refit_failed * per,
        "fitters.refit.success_ratio":
            (refits - refit_failed) / refits if refits else 0.0,
        "fitters.fit_glm_poisson.calls": calls["fitters.fit_glm_poisson"] * per,
        "fitters.minimize.nfev": nfev / refits if refits else 0.0,
        "fitters.minimize.nit": nit / refits if refits else 0.0,
        "residuals.residuals_for.busy_ms": busy["residuals.residuals_for"] * ms,
        "residuals.hat_diagonals.calls": calls["residuals.hat_diagonals"] * per,
        "smoother.PSplineDesign.calls": calls["smoother.PSplineDesign"] * per,
        "smoother.PSplineDesign.busy_ms": busy["smoother.PSplineDesign"] * ms,
        "smoother.smooth_matrix.rows": rows * per,
        "smoother.smooth_matrix.busy_ms": busy["smoother.smooth_matrix"] * ms,
        "envelope.studentized_mad_envelope.busy_ms":
            busy["envelope.studentized_mad_envelope"] * ms,
        "diagnostics.simulate_replicates.self_ms":
            own["diagnostics.simulate_replicates"] * ms,
        "diagnostics.diagnose_model.self_ms":
            own["diagnostics.diagnose_model"] * ms,
        "harness.run_scenario.busy_ms": busy["harness.run_scenario"] * ms,
        "io.run_power_study.self_ms": own["io.run_power_study"] * ms,
    }
