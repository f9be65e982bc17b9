"""Spans around evanskit's public functions, installed from outside the package.

Each traced function is replaced by one wrapper at every evanskit module
attribute that binds it, so calls made through any import path are seen.
Spans stay in memory; per-layer metrics are computed from them after the run.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

# span name -> (module that defines the function, function name).  Names are
# "<layer>.<function>"; the layer is the evanskit module the function lives in,
# except quad, which is timed as bound in evanskit.invariants.
TRACED = {
    "model.verify_wave": ("evanskit.model", "verify_wave"),
    "asymptotics.spectrum": ("evanskit.asymptotics", "spectrum"),
    "asymptotics.continuous_spectrum_distance":
        ("evanskit.asymptotics", "continuous_spectrum_distance"),
    "linalg.nullvector": ("evanskit.linalg", "nullvector"),
    "linalg.quartic_roots": ("evanskit.linalg", "quartic_roots"),
    "integrator.integrate_mode": ("evanskit.integrator", "integrate_mode"),
    "evans.evans_det": ("evanskit.evans", "evans_det"),
    "evans.derivatives_at_zero": ("evanskit.evans", "derivatives_at_zero"),
    "evans.real_axis_scan": ("evanskit.evans", "real_axis_scan"),
    "evans.winding_count": ("evanskit.evans", "winding_count"),
    "invariants.momentum": ("evanskit.invariants", "momentum"),
    "invariants.dIdc": ("evanskit.invariants", "dIdc"),
    "invariants.chi_factors": ("evanskit.invariants", "chi_factors"),
    "invariants.pi_profile": ("evanskit.invariants", "pi_profile"),
    "invariants.stability_report": ("evanskit.invariants", "stability_report"),
    "invariants.quad": ("evanskit.invariants", "quad"),
}
ROOT_SPAN = "cli.main"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: int | None
    steps: tuple | None = None     # (accepted, rejected) of an integrate_mode run


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sp = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.task)
            stack.append(len(spans))
            spans.append(sp)
            sp.start = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                sp.end = perf_counter()
                stack.pop()
            if hasattr(res, "nrejected"):
                sp.steps = (res.nsteps, res.nrejected)
            return res

        return traced

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "evanskit" or n.startswith("evanskit.")]
        for name, (modname, attr) in TRACED.items():
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self.wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        while self._undo:
            m, key, orig = self._undo.pop()
            setattr(m, key, orig)

    def cost_per_span(self, n: int = 20000, repeats: int = 5) -> float:
        """Seconds one span adds to a call: a wrapped no-op against a bare one."""
        def noop():
            return None

        wrapped = self.wrap("calibration", noop)
        keep = len(self.spans)
        costs = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(n):
                noop()
            t1 = perf_counter()
            for _ in range(n):
                wrapped()
            t2 = perf_counter()
            costs.append(max((t2 - t1) - (t1 - t0), 0.0) / n)
            del self.spans[keep:]
        return statistics.median(costs)


def layer_metrics(spans: list[Span], scan_samples: int, contour_initial: int) -> dict:
    """Per-layer numbers from one traced pass, keyed by metric name.

    The first scan_samples evaluations under a real_axis_scan are its grid
    samples and the rest bisection polish; likewise the first contour_initial
    under a winding_count are boundary points and the rest refinement.
    """
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent is not None:
            child[s.parent] += dur[i]
    total, own, calls = {}, {}, {}
    for i, s in enumerate(spans):
        total[s.name] = total.get(s.name, 0.0) + dur[i]
        own[s.name] = own.get(s.name, 0.0) + dur[i] - child[i]
        calls[s.name] = calls.get(s.name, 0) + 1

    def evans_children(parent_name):
        per = {}
        for s in spans:
            if s.name == "evans.evans_det" and s.parent is not None \
                    and spans[s.parent].name == parent_name:
                per[s.parent] = per.get(s.parent, 0) + 1
        return list(per.values())

    steps = [s.steps for s in spans if s.steps is not None]
    acc = sum(a for a, _ in steps)
    rej = sum(r for _, r in steps)
    rhs = sum(6 * (a + r) + 1 for a, r in steps)
    scan = evans_children("evans.real_axis_scan")
    cont = evans_children("evans.winding_count")
    mode_self = own.get("integrator.integrate_mode", 0.0)
    m = {
        "cli.self_s": own.get(ROOT_SPAN, 0.0),
        "model.verify_wave.s": total.get("model.verify_wave", 0.0),
        "asymptotics.spectrum.calls": calls.get("asymptotics.spectrum", 0),
        "asymptotics.spectrum.s": total.get("asymptotics.spectrum", 0.0),
        "asymptotics.continuous_spectrum_distance.s":
            total.get("asymptotics.continuous_spectrum_distance", 0.0),
        "linalg.nullvector.s": total.get("linalg.nullvector", 0.0),
        "linalg.quartic_roots.s": total.get("linalg.quartic_roots", 0.0),
        "integrator.integrate_mode.calls": calls.get("integrator.integrate_mode", 0),
        "integrator.integrate_mode.self_s": mode_self,
        "integrator.steps_accepted": acc,
        "integrator.steps_rejected": rej,
        "integrator.reject_ratio": rej / (acc + rej) if acc + rej else 0.0,
        "integrator.rhs_calls": rhs,
        "integrator.us_per_rhs": 1e6 * mode_self / rhs if rhs else 0.0,
        "evans.evans_det.calls": calls.get("evans.evans_det", 0),
        "evans.evans_det.self_s": own.get("evans.evans_det", 0.0),
        "evans.derivatives_at_zero.s": total.get("evans.derivatives_at_zero", 0.0),
        "evans.real_axis_scan.s": total.get("evans.real_axis_scan", 0.0),
        "evans.scan.sample_evals": sum(min(k, scan_samples) for k in scan),
        "evans.scan.polish_evals": sum(max(k - scan_samples, 0) for k in scan),
        "evans.winding_count.s": total.get("evans.winding_count", 0.0),
        "evans.contour.initial_evals": sum(min(k, contour_initial) for k in cont),
        "evans.contour.refine_evals": sum(max(k - contour_initial, 0) for k in cont),
        "invariants.momentum.s": total.get("invariants.momentum", 0.0),
        "invariants.dIdc.s": total.get("invariants.dIdc", 0.0),
        "invariants.chi_factors.s": total.get("invariants.chi_factors", 0.0),
        "invariants.pi_profile.s": total.get("invariants.pi_profile", 0.0),
        "invariants.quad.calls": calls.get("invariants.quad", 0),
        "invariants.quad.s": total.get("invariants.quad", 0.0),
        "invariants.stability_report.self_s":
            own.get("invariants.stability_report", 0.0),
    }
    m["trace.self_sum_s"] = sum(own.values())
    return m


def contour_initial_evals() -> int:
    """Distinct boundary points winding_count evaluates before any refinement."""
    from evanskit.evans import winding_count
    return 4 * inspect.signature(winding_count).parameters["m_per_edge"].default


def evals_per_task(spans: list[Span]) -> dict:
    """task id -> number of evans_det calls made by that task."""
    out = {}
    for s in spans:
        if s.name == "evans.evans_det" and s.task is not None:
            out[s.task] = out.get(s.task, 0) + 1
    return out

