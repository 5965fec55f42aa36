"""nhaqo benchmark: one workload per run, end-to-end or traced per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload spectral-ising --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run builds the workload's batch from ``--seed``, times set-up in separate
probe processes, then has a worker process (``worker.py``) repeat the batch
for ``--seconds``, one operation after another (closed loop, one client).
Every output is then checked against an independent oracle (``oracles.py``),
one verdict per check (per tau or delta0 where an operation sweeps one);
``attempted`` and ``failed`` count checks over all batches.
It prints every metric by name and unit, the run record and, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
(from ``tracer.py``) with ``--trace 1``.  ``--workload all`` runs every
workload and ends with one such object per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

#: BLAS threads for this process and every one it starts: one client, dimensions <= 256.
#: OpenBLAS reads the count when numpy is first imported, so it is fixed before the imports below.
BLAS_THREADS = 1
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = str(BLAS_THREADS)

import numpy  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

#: set-up probes per run, half before the worker and half after it; setup_s is their median
SETUP_PROBES = 16
#: wall-clock limit on any one child process
CHILD_TIMEOUT_S = 170
#: machine-speed calibration kernel: eigensolves of fixed dense complex 64x64 matrices (the
#: spectral workloads' kind of work) and an interpreted loop (set-up's and the n=4 integrator's)
CAL_MATRICES = [m[0] + 1j * m[1] for m in numpy.random.default_rng(0).standard_normal((6, 2, 64, 64))]
CAL_LOOP = 1_000_000
#: the kernel's seconds at the reference machine speed; run_s and setup_s are rescaled to it
REFERENCE_CALIBRATION_S = 0.12

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child(job_path: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                         env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"worker exited with code {res.returncode}: {res.stderr.strip()[-2000:]}")
    return res


def _write_job(run_dir: str, name: str, **job) -> str:
    path = os.path.join(run_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    return path


def _calibration_seconds() -> float:
    """Wall time of the calibration kernel now: the machine's current speed.

    The shared host's speed drifts by up to a third within minutes, alike for
    set-up and for every workload, so timed values are rescaled by
    REFERENCE_CALIBRATION_S over the median of these samples.  The kernel runs
    in this process, which never imports nhaqo, so the program cannot change it.
    """
    start = time.perf_counter()
    for m in CAL_MATRICES:
        numpy.linalg.eig(m)
    total = 0
    for i in range(CAL_LOOP):
        total += i * i
    return time.perf_counter() - start


def _setup_seconds(run_dir: str, job: dict, probes: int) -> tuple[list[float], list[float]]:
    """Per probe, the wall time from spawning a fresh interpreter to the end of set-up,
    and a calibration sample taken just before it."""
    path = _write_job(run_dir, "probe", setup_only=True, **job)
    times, calibration = [], []
    for _ in range(probes):
        calibration.append(_calibration_seconds())
        spawned = time.time()
        done = json.loads(_child(path).stdout.strip().splitlines()[-1])["setup_done"]
        times.append(done - spawned)
    return times, calibration


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run_record(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "git_commit": _git_commit(),
    }


def _evolve_references(op: dict) -> dict:
    chk = op["check"]
    return {tau: oracles.evolve_reference(op["instance"], chk["delta0"], chk["decaying"], tau) for tau in chk["taus"]}


def check_outputs(ops: list[dict], records: dict) -> tuple[dict[str, dict[str, str | None]], set[str]]:
    """Oracle verdicts per operation and check (None when within tolerance, else the reason),
    and the operations whose output could not be read at all."""
    verdicts = {}
    unreadable = set()
    for op in ops:
        name = op["name"]
        try:
            if op["kind"] == "pipeline":
                if name not in records:
                    raise KeyError("no pipeline result")
                verdicts[name] = oracles.check_pipeline(op, records[name])
            elif op["argv"][0] == "gap-trace":
                verdicts[name] = oracles.check_gap_trace(op)
            elif op["argv"][0] == "ep-scan":
                verdicts[name] = oracles.check_ep_scan(op)
            elif op["argv"][0] == "fig1":
                verdicts[name] = oracles.check_fig1(op)
            elif op["argv"][0] == "tau-sweep":
                verdicts[name] = oracles.check_tau_sweep(op)
            else:
                verdicts[name] = oracles.check_evolve(op, _evolve_references(op))
        except (OSError, ValueError, IndexError, KeyError) as exc:
            verdicts[name] = {c: f"output unreadable: {type(exc).__name__}: {exc}" for c in op["checks"]}
            unreadable.add(name)
    return verdicts, unreadable


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        job = {"workload": workload, "seed": seed, "src": SRC, "out_dir": run_dir, "seconds": seconds, "trace": trace}
        probes = 0 if trace else SETUP_PROBES // 2
        setup, calibration = _setup_seconds(run_dir, job, probes)
        _child(_write_job(run_dir, "job", setup_only=False, **job))
        after = _setup_seconds(run_dir, job, probes)
        setup += after[0]
        calibration += after[1]
        with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        ops = workloads.build_ops(workload, seed, run_dir)
        verdicts, unreadable = check_outputs(ops, result["records"])
        if trace:
            os.replace(os.path.join(run_dir, "spans.jsonl"), os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = []
    attempted = failed = 0
    failing = {}
    digests = {}
    checks = {op["name"]: op["checks"] for op in ops}
    for batch in result["batches"]:
        for entry in batch["ops"]:
            name, status = entry["name"], entry["status"]
            for check in checks[name]:
                attempted += 1
                reason = status if status != "ok" else verdicts[name][check]
                if reason is None:
                    continue
                failed += 1
                # only an oracle mismatch on a recorded check is excused; never an exception,
                # a non-zero exit or unreadable output
                known = (status == "ok" and name not in unreadable
                         and (workload, name, check) in workloads.KNOWN_DEFECTS)
                failing[(name, check, reason)] = known
            digests.setdefault(name, set()).add(entry["digest"])
    for name, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"{name}: output differs between batches of the same run")
    for (name, check, reason), known in sorted(failing.items()):
        if not known:
            problems.append(f"{name} {check}: {reason}")

    wall = {}
    if trace:
        layers = [b["layers"] for b in result["batches"]]
        raw = {}
        for key in layers[0]:
            values = [lay[key] for lay in layers]
            if key in tracer.SELF_CHECK_COUNTS and len(set(values)) > 1:
                problems.append(f"self-check: {key} differs between traced batches: {values}")
            # counts repeat exactly; self times are the median over traced batches
            raw[key] = statistics.median(values) + result["setup_layers"][key]
        metrics = tracer.derive(raw)
        # the wrappers' own cost per traced batch: spans and counted schedule evaluations
        # times their calibrated per-call cost
        cost = result["wrapper_cost_s"]
        metrics["bench.trace_overhead_s"] = (statistics.median(b["spans"] for b in result["batches"]) * cost["span"]
                                             + metrics["evolve.h_evals"] * cost["h_eval"])
        units = tracer.PER_LAYER_UNITS
    else:
        wall["run_s"] = statistics.median(b["seconds"] for b in result["batches"])
        wall["setup_s"] = statistics.median(setup)
        wall["calibration_s"] = statistics.median(calibration)
        speed = REFERENCE_CALIBRATION_S / wall["calibration_s"]
        metrics = {
            "run_s": wall["run_s"] * speed,
            "setup_s": wall["setup_s"] * speed,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END_UNITS
    metrics = {k: int(round(metrics[k])) if units[k] in ("count", "bytes") else metrics[k] for k in units}
    return {
        "workload": workload,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "failures": sorted(failing.items()),
        "batches": len(result["batches"]),
        "error_rate": failed / attempted,
        "wall": wall,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _print_report(res: dict) -> None:
    w = res["workload"]
    print(f"[{w}] batches={res['batches']} attempted={res['attempted']} failed={res['failed']} "
          f"correct={str(res['correct']).lower()}")
    print(f"[{w}] error_rate = {res['error_rate']:.6g} ratio")
    for name, m in res["metrics"].items():
        print(f"[{w}] {name} = {m['value']:.6g} {m['unit']}")
    for name, value in res["wall"].items():
        print(f"[{w}] unscaled {name} = {value:.6g} s")
    for (name, check, reason), known in res["failures"]:
        note = f" [known defect: {workloads.KNOWN_DEFECTS[(w, name, check)]}]" if known else ""
        print(f"[{w}] failed {name} {check}: {reason}{note}")
    for problem in res["problems"]:
        print(f"[{w}] problem: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nhaqo", "__init__.py")):
        print(f"error: no nhaqo sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    record = run_record(args.seed)
    print("run record: " + json.dumps(record, sort_keys=True))
    results = {}
    for name in names:
        print(f"[{name}] why: {workloads.WHY[name]}")
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_report(res)
        results[name] = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
