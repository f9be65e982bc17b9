#!/usr/bin/env python3
"""Median, quartiles and spread of every metric over the runs in perfbench/results.

    python3 perfbench/summarize.py [--out perfbench/BASELINE.json]

Spread is (Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4).
Traced runs give per-layer metrics; counts in them should repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def summarize(paths) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    units, seeds, env = {}, defaultdict(set), None
    for path in paths:
        rec = json.loads(path.read_text())
        wl = rec["env"]["workload"]
        seeds[wl].add(rec["env"]["seed"])
        env = env or {k: v for k, v in rec["env"].items()
                      if k not in ("seed", "workload", "trace")}
        for name, m in rec["metrics"].items():
            values[wl][name].append(m["value"])
            units[name] = m["unit"]
        for name, v in rec.get("raw", {}).items():  # unadjusted, for reference
            values[wl]["raw." + name].append(v)
            units["raw." + name] = "s"
    out = {}
    for wl, metrics in sorted(values.items()):
        rows = {}
        for name, v in sorted(metrics.items()):
            med = statistics.median(v)
            row = {"unit": units[name], "runs": len(v), "median": med}
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            rows[name] = row
        out[wl] = {"seeds": sorted(seeds[wl]), "metrics": rows}
    return {"env": env, "workloads": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args()
    summary = summarize(sorted(RESULTS.glob("*.json")))
    for wl, s in summary["workloads"].items():
        for name, r in s["metrics"].items():
            spread = r.get("spread")
            print(f"{wl:13s} {name:42s} runs={r['runs']:2d} median={r['median']:.6g} "
                  f"{r['unit']:14s} spread={'-' if spread is None else f'{spread:.3f}'}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
