#!/usr/bin/env python3
"""evanskit benchmark: seeded CLI tasks, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload scan-real --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each task is `evanskit.cli.main` called
in-process with generated arguments, and starts when the previous one ends.
The workload's task list (anchors plus seeded draws, see workloads.py) is one
pass.  Passes repeat while another one is expected to end within --seconds,
so there is always at least one.  Every output is checked against the
coupled-wave closed forms.

--trace 0 prints the end-to-end metrics.  Task times there are scaled to a
reference host speed, measured while the tasks run (probe.py), because the
shared host's speed swings more than the bounds allow.  --trace 1 wraps
evanskit's public functions and prints the per-layer metrics of one traced
pass, in plain wall seconds.  The last
stdout line is the JSON result; a fuller record, with every task's numbers
and timings, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from probe import SpeedProbe
from tracing import ROOT_SPAN, Tracer, contour_initial_evals, evals_per_task, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_RUNS = 5
SETUP_CODE = ("import evanskit.cli\n"
              "from evanskit.model import build_coupled_wave\n"
              "build_coupled_wave(1.0)\n")
# evans_det calls each anchor makes at this commit: scan 13 samples plus 36
# (p=1) or 18 (p=2) bisection steps, contour 48 boundary points and no
# refinement, report 5 stencil points plus lambda = 3.
ANCHOR_EVALS = {("scan", 1.0, 0.0): 49, ("scan", 2.0, 0.0): 31,
                ("contour", 1.0, 0.0): 48, ("contour", 2.0, 0.0): 48,
                ("report", 1.0, 0.3): 6, ("report", 2.0, 0.0): 6}

LAYER_UNITS = {
    "cli.self_s": "s",
    "model.verify_wave.s": "s",
    "asymptotics.spectrum.calls": "count",
    "asymptotics.spectrum.s": "s",
    "asymptotics.continuous_spectrum_distance.s": "s",
    "linalg.nullvector.s": "s",
    "linalg.quartic_roots.s": "s",
    "integrator.integrate_mode.calls": "count",
    "integrator.integrate_mode.self_s": "s",
    "integrator.steps_accepted": "count",
    "integrator.steps_rejected": "count",
    "integrator.reject_ratio": "ratio",
    "integrator.rhs_calls": "count-computed",
    "integrator.us_per_rhs": "us",
    "evans.evans_det.calls": "count",
    "evans.evans_det.self_s": "s",
    "evans.derivatives_at_zero.s": "s",
    "evans.real_axis_scan.s": "s",
    "evans.scan.sample_evals": "count",
    "evans.scan.polish_evals": "count",
    "evans.winding_count.s": "s",
    "evans.contour.initial_evals": "count",
    "evans.contour.refine_evals": "count",
    "invariants.momentum.s": "s",
    "invariants.dIdc.s": "s",
    "invariants.chi_factors.s": "s",
    "invariants.pi_profile.s": "s",
    "invariants.quad.calls": "count",
    "invariants.quad.s": "s",
    "invariants.stability_report.self_s": "s",
    "setup.import.evanskit_s": "s",
    "setup.import.scipy_integrate_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit()}


def timed_child(argv, limit_s: float = 60.0) -> float:
    """Wall seconds from spawning argv to its exit, which must be clean.

    Popen.wait with a timeout polls every 50 ms, which would round the time;
    the wait here blocks, and a timer kills a child that hangs.
    """
    t0 = perf_counter()
    child = subprocess.Popen(argv, env=child_env(), cwd=ROOT)
    killer = threading.Timer(limit_s, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
        killer.join()
    secs = perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return secs


def measure_setup(runs: int) -> list[float]:
    """Wall seconds for fresh interpreters, one after another, to import the
    CLI and build the model."""
    return [timed_child([sys.executable, "-c", SETUP_CODE]) for _ in range(runs)]


def import_breakdown() -> dict:
    """Cumulative import seconds of evanskit and scipy.integrate, from -X importtime."""
    res = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import evanskit.cli"], env=child_env(), cwd=ROOT,
                         check=True, timeout=60, capture_output=True, text=True)
    cum = {}
    for line in res.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cum.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return {"setup.import.evanskit_s": cum.get("evanskit.cli", 0.0),
            "setup.import.scipy_integrate_s": cum.get("scipy.integrate", 0.0)}


def invoke(main, argv) -> tuple:
    """(exit code, stdout, stderr) of one CLI call; a crash is a failed task."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(argv, prog_name="evanskit")
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        except Exception:  # a task that raises is counted, the run goes on
            code = "raised"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_pass(main, tasks, tracer=None, probe=None) -> list:
    """Run every task once; returns (task, net s, adjusted s, code, stdout, stderr)
    each.  Without a probe, net seconds are wall seconds and adjusted is None."""
    call = main if tracer is None else tracer.wrap(ROOT_SPAN, main)
    raw = []
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        mark = probe.mark() if probe is not None else None
        t0 = perf_counter()
        code, out, err = invoke(call, task.argv())
        net, adj = perf_counter() - t0, None
        if probe is not None:
            net, adj = probe.adjusted(net, mark)
        raw.append((task, net, adj, code, out, err))
    return raw


def judged(raw) -> list[dict]:
    rows = []
    for task, net, adj, code, out, err in raw:
        problems, numbers = workloads.judge(task, code, out)
        rows.append({"kind": task.kind, "p": task.p, "c": task.c,
                     "anchor": task.anchor, "argv": task.argv(),
                     "seconds": net, "adjusted_s": adj, "exit": code,
                     "ok": not problems, "problems": problems,
                     "produced": numbers,
                     "stderr": err[-2000:] if problems else ""})
    return rows


def anchor_check(tasks, spans) -> list[dict]:
    """evans_det calls per anchor against the counts recorded at this commit."""
    got = evals_per_task(spans)
    out = []
    for i, t in enumerate(tasks):
        want = ANCHOR_EVALS.get((t.kind, t.p, t.c))
        if t.anchor and want is not None:
            out.append({"kind": t.kind, "p": t.p, "c": t.c, "expected": want,
                        "got": got.get(i, 0), "match": got.get(i, 0) == want})
    return out


def main_cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "evanskit" / "__init__.py").is_file():
        print(f"error: evanskit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    from evanskit.cli import main
    parent_import_s = perf_counter() - t0
    if Path(sys.modules["evanskit"].__file__).resolve().parent != SRC / "evanskit":
        print("error: evanskit was imported from outside this checkout",
              file=sys.stderr)
        return 2

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    tasks = workloads.make_tasks(args.workload, args.seed)
    record = {"env": env, "parent_import_s": parent_import_s,
              "tasks_per_pass": len(tasks)}

    if args.trace:
        record["setup"] = import_breakdown()
        tracer = Tracer()
        per_span = tracer.cost_per_span()
        tracer.install()
        t_pass = perf_counter()
        try:
            raw = run_pass(main, tasks, tracer)
        finally:
            tracer.uninstall()
        wall = perf_counter() - t_pass
        rows = judged(raw)
        layers = layer_metrics(tracer.spans, workloads.SCAN_GRID_N,
                               contour_initial_evals())
        layers.update(record["setup"])
        layers["trace.wall_s"] = wall
        layers["trace.overhead_s"] = per_span * len(tracer.spans)
        record.update(passes=[wall], tasks=rows, layers=layers,
                      trace_cost_per_span_s=per_span,
                      anchors=anchor_check(tasks, tracer.spans),
                      spans=[[s.name, s.start, s.end, s.parent, s.task, s.steps]
                             for s in tracer.spans])
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
        for a in record["anchors"]:
            if not a["match"]:
                print(f"note: anchor {a['kind']} p={a['p']} c={a['c']} made "
                      f"{a['got']} evans_det calls, recorded {a['expected']}",
                      file=sys.stderr)
    else:
        setup = measure_setup(SETUP_RUNS)
        passes, rows = [], []
        t_start = perf_counter()
        with SpeedProbe() as probe:
            while True:
                pass_rows = judged(run_pass(main, tasks, probe=probe))
                passes.append({"net_s": sum(r["seconds"] for r in pass_rows),
                               "adjusted_s": sum(r["adjusted_s"] for r in pass_rows)})
                rows += pass_rows
                elapsed = perf_counter() - t_start
                if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                    break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record.update(setup_runs_s=setup, passes=passes, tasks=rows,
                      probe_samples_s=probe.samples, probe_spent_s=probe.spent)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_adj_s": {"value": statistics.median(p["adjusted_s"] for p in passes),
                           "unit": "s"},
            "task_adj_s.p50": {"value": statistics.median(r["adjusted_s"] for r in rows),
                               "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
        }
        record["raw"] = {
            "wall_s": statistics.median(p["net_s"] for p in passes),
            "task_s.p50": statistics.median(r["seconds"] for r in rows)}

    failed = sum(1 for r in rows if not r["ok"])
    record["failed_frac"] = failed / len(rows)
    record["metrics"] = metrics
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for r in rows:
        if not r["ok"]:
            print(f"FAILED {' '.join(r['argv'])}: {'; '.join(r['problems'])}",
                  file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(rows),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
