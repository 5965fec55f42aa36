"""Child process of the benchmark: runs one workload's batch in a closed loop.

Usage: ``python3 perfbench/worker.py JOB.json`` with a job file written by
``perfbench/run.py``.  The worker imports nhaqo from the checkout's ``src``,
does the workload's set-up (imports, instance generation, config building),
then repeats the batch, one operation after another, until ``seconds`` have
passed.  With ``setup_only`` it exits right after set-up; the parent times
these probes from process start.  With ``trace`` every batch is traced (at
least two, for the count self-check) and the wrappers' per-call cost is
calibrated at the end.  Timings, statuses, output digests and pipeline results go to
``result.json`` in the job's directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

import workloads


def _setup(job: dict) -> list[dict]:
    """Instance generation and config building, after nhaqo is imported; returns the batch."""
    from nhaqo import cli
    from nhaqo.model import ising_anneal_spec

    ops = workloads.build_ops(job["workload"], job["seed"], job["out_dir"])
    for op in ops:
        if op["kind"] == "cli":
            argv = op["argv"]
            overrides = [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]
            cli.validate_config(cli.build_config(argv[0], None, overrides, op["out"]))
        else:
            inst = op["instance"]
            op["spec"] = ising_anneal_spec(
                inst["n"], fields=inst["fields"], couplings=inst["couplings"], delta0=op["delta0"]
            )
    return ops


def _pipeline(op: dict):
    from nhaqo.adiabatic import tau_window
    from nhaqo.reduction import build_crossover_basis, decompose_schedule_params
    from nhaqo.spectrum import trace_gap

    spec = op["spec"]
    trace = trace_gap(spec, op["trace_grid"])
    basis = build_crossover_basis(spec, trace.s_c)
    params = decompose_schedule_params(spec, basis)
    budget = tau_window(spec, params, op["delta_qubit"], op["window_grid"])
    return trace, basis, params, budget


def _pipeline_record(result) -> dict:
    trace, basis, params, budget = result
    return {
        "s_c": trace.s_c,
        "g_m": trace.g_m,
        "snapshots": len(trace.snapshots),
        "min_sampled_gap": min(sn.gap for sn in trace.snapshots),
        "basis_v0": [[z.real, z.imag] for z in basis.v0],
        "basis_v1": [[z.real, z.imag] for z in basis.v1],
        "r0": [float(x) for x in params.r0],
        "r1": [float(x) for x in params.r1],
        "alpha": params.alpha,
        "tau_min": budget.tau_min,
        "tau_max": budget.tau_max,
        "delta_qubit": budget.delta_qubit,
        "measured_matrix_element": budget.measured_matrix_element,
        "feasible": budget.feasible,
    }


def _peak_rss_kb() -> int:
    """This process's own peak resident set (VmHWM).

    Not ``getrusage``'s ``ru_maxrss``: Linux carries the parent's peak over
    into it when the parent starts this process with vfork, as ``subprocess``
    does, so it would report the larger of the two.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_batch(ops: list[dict]) -> tuple[float, list[dict], dict]:
    from nhaqo import cli

    statuses = []
    results = {}
    sink = io.StringIO()
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            if op["kind"] == "cli":
                with contextlib.redirect_stdout(sink):
                    code = cli.main(op["argv"])
                status = "ok" if code == 0 else f"exit code {code}"
            else:
                results[op["name"]] = _pipeline(op)
                status = "ok"
        except Exception as exc:  # the benchmark records every failure and keeps going
            status = f"{type(exc).__name__}: {exc}"
        statuses.append({"name": op["name"], "status": status, "seconds": time.perf_counter() - t0})
    elapsed = time.perf_counter() - start
    records = {}
    for entry, op in zip(statuses, ops):
        if op["kind"] == "cli":
            try:
                with open(op["out"], "rb") as fh:
                    data = fh.read()
            except OSError:
                data = b""
        elif op["name"] in results:
            records[op["name"]] = _pipeline_record(results[op["name"]])
            data = json.dumps(records[op["name"]], sort_keys=True).encode()
        else:
            data = b""
        entry["digest"] = hashlib.sha256(data).hexdigest()
    return elapsed, statuses, records


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import nhaqo.cli  # noqa: F401  (every module is imported before the tracer patches them)

    here = os.path.realpath(os.path.dirname(nhaqo.__file__))
    if not here.startswith(os.path.realpath(job["src"]) + os.sep):
        raise SystemExit(f"nhaqo imported from {here}, not from {job['src']}")
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops = _setup(job)
    setup_done = time.time()
    if job["setup_only"]:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    out = {"setup_done": setup_done, "batches": [], "records": {}}
    if tracer is not None:
        out["setup_layers"] = tracing.aggregate(tracer.spans)
        tracer.uninstall()
    # a traced run needs two traced batches for the count self-check
    min_batches = 2 if tracer is not None else 1
    begin = time.perf_counter()
    while len(out["batches"]) < min_batches or time.perf_counter() - begin < job["seconds"]:
        if tracer is not None:
            base = len(tracer.spans)
            tracer.install()
        elapsed, statuses, records = _run_batch(ops)
        batch = {"seconds": elapsed, "ops": statuses}
        if tracer is not None:
            tracer.uninstall()
            batch["spans"] = len(tracer.spans) - base
            batch["layers"] = tracing.aggregate(tracer.spans[base:], base)
        out["batches"].append(batch)
        out["records"] = records
    out["peak_rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        out["wrapper_cost_s"] = tracing.calibrate()
    if tracer is not None:
        with open(os.path.join(job["out_dir"], "spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(os.path.join(job["out_dir"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
