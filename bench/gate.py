"""Correctness gate, run outside the timed region.

Every dataset's results are checked for the envelope test's exactness:

* ``reject`` is true exactly when the observed curve leaves
  ``[lower, upper]`` (grid points the Studentized envelope flags as
  degenerate are excluded, because the band collapses onto the centre
  there by design);
* ``p_value == #{stats >= stats[0]} / B``;
* at most ``floor(alpha B)`` ensemble rows escape the band, i.e. have a
  statistic above the critical value.

Per run, the rejection rate and mean p-value of every method are compared
with reference values (``reference.json``) within a Monte Carlo tolerance:
later optimizer or smoother changes move estimates at tolerance level, so
results cannot be compared bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from envdiag.diagnostics import DiagnosticResult, GofResult, PlotKind
from envdiag.harness import METHODS

REFERENCE = Path(__file__).with_name("reference.json")

# standard errors allowed between a run's figure and the reference; wide
# enough that thousands of comparisons raise no false alarm
_Z = 5.0


def check_result(r: DiagnosticResult) -> Optional[str]:
    """Why one plot's result breaks the envelope test's contract, or None."""
    env = r.envelope
    stats = env.stats
    B = stats.size
    p = np.count_nonzero(stats >= stats[0]) / B
    if r.p_value != p:
        return f"{r.kind.value}: p-value {r.p_value} != {p}"
    keep = (np.ones(r.observed.size, dtype=bool) if env.degenerate_points is None
            else ~env.degenerate_points)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(env.center))))
    obs = r.observed[keep]
    leaves = bool(np.any(obs < env.lower[keep] - tol)
                  or np.any(obs > env.upper[keep] + tol))
    if leaves != r.reject:
        return f"{r.kind.value}: reject={r.reject} but observed leaves={leaves}"
    escaped = int(np.count_nonzero(stats > env.critical))
    if escaped > math.floor(env.alpha * B):
        return f"{r.kind.value}: {escaped} of {B} rows escape the band"
    return None


class Checker:
    """Checks each dataset's results and accumulates what the run reports.

    Keeps per-method rejection counts and p-values for the reference
    comparison, and a digest of every numeric result, so two passes over
    the same inputs can be compared exactly.
    """

    def __init__(self):
        self.digest = hashlib.sha256()
        self.n = 0
        self.violations: list[str] = []
        self.rejects = {m: 0 for m in METHODS}
        self.p_values: dict[str, list[float]] = {m: [] for m in METHODS}

    def add(self, results: dict[PlotKind, DiagnosticResult],
            gof: GofResult) -> bool:
        """Record one dataset; False if it breaks the gate."""
        problems = [msg for msg in map(check_result, results.values()) if msg]
        self.violations.extend(problems)
        for kind in PlotKind:
            r = results[kind]
            for a in (r.observed, r.envelope.lower, r.envelope.upper,
                      r.envelope.stats):
                self.digest.update(np.ascontiguousarray(a).tobytes())
            self._count(kind.value, r.reject, r.p_value)
        self._count("loglik_gof", gof.reject, gof.p_value)
        self.digest.update(np.array([gof.p_value]).tobytes())
        self.n += 1
        return not problems

    def _count(self, method: str, reject: bool, p_value: float) -> None:
        self.rejects[method] += bool(reject)
        self.p_values[method].append(float(p_value))

    def summary(self) -> dict[str, dict[str, float]]:
        """Rejection rate, mean and sd of the p-value, per method."""
        out = {}
        for m in METHODS:
            p = np.asarray(self.p_values[m])
            out[m] = {
                "rate": self.rejects[m] / max(self.n, 1),
                "p_mean": float(p.mean()) if p.size else math.nan,
                "p_sd": float(p.std(ddof=1)) if p.size > 1 else math.nan,
            }
        return out

    def against_reference(self, workload: str, alpha: float) -> list[str]:
        """Where this run's rates or mean p-values leave the reference band."""
        if self.n == 0:
            return ["no dataset completed"]
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
        scale = math.sqrt(1.0 / self.n + 1.0 / ref["n"])
        problems = []
        for m, got in self.summary().items():
            want = ref["methods"][m]
            # a rate's variance, never taken below that of the nominal level
            var = max(want["rate"] * (1.0 - want["rate"]), alpha * (1.0 - alpha))
            if abs(got["rate"] - want["rate"]) > _Z * math.sqrt(var) * scale:
                problems.append(f"{m}: rejection rate {got['rate']:.4f}, "
                                f"reference {want['rate']:.4f}")
            if abs(got["p_mean"] - want["p_mean"]) > _Z * want["p_sd"] * scale:
                problems.append(f"{m}: mean p-value {got['p_mean']:.4f}, "
                                f"reference {want['p_mean']:.4f}")
        return problems
