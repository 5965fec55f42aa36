"""Repeat benchmark runs over seeds, report their spread and optionally write the baseline.

Usage (from the repository root)::

    python3 perfbench/record.py --workload spectral-ising --seeds 1-5
    python3 perfbench/record.py --workload all --seeds 1-10 --write

Each run is ``perfbench/run.py`` with one seed.  For every end-to-end metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (Q3 - Q1) / median next to the bound in ``BENCHMARK.json``.  With
``--write`` it also makes one traced run per workload at the default and the
held-out seed and writes everything, with the run record and the known
defects, to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {res.returncode}: {res.stderr.strip()[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--write", action="store_true", help="write perfbench/baseline.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    baseline = {"run record": run.run_record(workloads.DEFAULT_SEED), "workloads": {}}
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            out = _run(name, seed, seconds, 0)
            runs.append({"seed": seed, **out})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
            print(f"{name} seed={seed} correct={out['correct']} failed={out['failed']}/{out['attempted']} {vals}",
                  flush=True)
        summary = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[metric],
                               "unit": runs[0]["metrics"][metric]["unit"]}
            print(f"{name} {metric}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} "
                  f"(bound {bounds[metric]}, target < {bounds[metric] / 3:.4f})", flush=True)
        entry = {
            "why": workloads.WHY[name],
            "end_to_end": summary,
            "runs": runs,
            "error_rate": statistics.median(r["failed"] / r["attempted"] for r in runs),
        }
        if args.write:
            for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
                traced = _run(name, seed, seconds, 1)
                entry[f"per_layer_seed{seed}"] = traced["metrics"]
                print(f"{name} traced seed={seed} correct={traced['correct']}", flush=True)
        baseline["workloads"][name] = entry
    if args.write:
        baseline["known defects"] = [
            {"workload": w, "operation": op, "check": check, "reason": why}
            for (w, op, check), why in workloads.KNOWN_DEFECTS.items()
        ]
        baseline["seeds"] = {"default": workloads.DEFAULT_SEED, "held_out": workloads.HELD_OUT_SEED,
                             "end_to_end_runs": _seeds(args.seeds)}
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
