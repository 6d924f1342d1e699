"""End-to-end and per-layer benchmark of the sofic command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from the
checkout's ``src``.  Closed loop with one client: each repetition is a
fresh worker process (``worker.py``) that imports sofic and then runs the
workload's CLI invocations one after another, so import time and the lazy
modular-prime cache are paid as a CLI user pays them.  The only
concurrency is numpy's default OpenBLAS threads.  Repetitions continue
while another one still fits in ``--seconds``; each metric is the median
over the repetitions.

The host this runs on is shared, and its speed drifts by up to 1.6x within
minutes.  So every worker also times a fixed calibration kernel, and the
times reported (``solve_s``, ``cpu_s``, ``setup_s``, ``trace.solve_s``) are
seconds at the reference host's speed: measured seconds times
CALIBRATION_REF_S over that worker's calibration time.  The medians as
measured, without this scaling, are printed on the line before the result.

Every report is checked against an independent reference (``reference``),
and a seeded sample of exact |Fix| values is checked through
``sofic.fix_count`` after the timed repetitions.  One op is one quotient
row or one subshift table row; ``failed`` counts ops whose invocation
raised or exited with an unexpected code, or whose value disagrees.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (see ``tracer``) and the tracing overhead.  The last line of
stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 15  # imports timed per run, at least; the median is setup_s
# Seconds the worker's calibration kernel takes on the reference host (a
# quiet 2-vCPU Xeon VM).  Times are reported at that speed: each measured
# time is multiplied by CALIBRATION_REF_S over the calibration time taken in
# the same worker.
CALIBRATION_REF_S = 0.05
WORKER_TIMEOUT = 120

END_TO_END_UNITS = {"solve_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "algebraic.prime_lu_share": "ratio",
    "algebraic.primes": "count",
    "algebraic.prime_useful_ratio": "ratio",
    "algebraic.bareiss_share": "ratio",
    "algebraic.bareiss_calls": "count",
    "algebraic.det_share": "ratio",
    "algebraic.det_calls": "count",
    "algebraic.dim_max": "rows",
    "algebraic.snf_share": "ratio",
    "algebraic.snf_calls": "count",
    "algebraic.matrix_share": "ratio",
    "algebraic.matrix_entries": "count",
    "algebraic.trace_self_share": "ratio",
    "groups.quotient_share": "ratio",
    "groups.quotients": "count",
    "groups.parse_share": "ratio",
    "subshift.transfer_share": "ratio",
    "subshift.transfer_calls": "count",
    "subshift.enumeration_share": "ratio",
    "subshift.labelings": "count",
    "spectral.reference_share": "ratio",
    "spectral.certificate_share": "ratio",
    "cli.self_share": "ratio",
    "cli.report_bytes": "bytes",
    "trace.solve_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def spawn(job: dict) -> dict:
    """Run one worker to completion and return its reply."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER], input=json.dumps(job), capture_output=True,
            text=True, timeout=WORKER_TIMEOUT, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


def count_failures(workload: workloads.Workload, reply: dict):
    """(attempted, failed) ops of one repetition."""
    attempted = failed = 0
    for inv, result in zip(workload.invocations, reply["results"]):
        attempted += inv.ops
        failed += inv.failures(result["exit"], result["report"])
    return attempted, failed


def check_samples(workload: workloads.Workload):
    """(attempted, failed) over the exact samples, computed in this process."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import sofic

    failed = 0
    for sample in workload.samples:
        try:
            failed += not sample.ok(sofic)
        except Exception:  # any exception from the program is a failed op
            failed += 1
    return len(workload.samples), failed


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """Measure one workload; returns (result, info) where ``result`` is the
    object printed as the last line and ``info`` the environment and extras."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sofic", "cli.py")):
        raise BenchmarkError(f"no sofic sources under {os.path.join(ROOT, 'src')}")
    workdir = os.path.join(HERE, ".work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.build(name, seed, workdir, scale)
        job = {"root": ROOT, "invocations": [], "trace": False}
        spawn(job)  # warm-up: writes the bytecode cache, not timed
        job["invocations"] = [inv.argv for inv in workload.invocations]
        spans_path = os.path.join(HERE, "out", f"{name}-seed{seed}-spans.json")
        if trace:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        setups, plain, traced = [], [], []
        attempted = failed = rounds = 0
        start = time.perf_counter()
        while True:
            for traced_rep in (False, True) if trace else (False,):
                reply = spawn(dict(job, trace=traced_rep, spans_path=spans_path))
                setups.append(reply)
                (traced if traced_rep else plain).append(reply)
                a, f = count_failures(workload, reply)
                attempted, failed = attempted + a, failed + f
            # an import-only worker per round spreads the set-up samples
            # over the run, so a burst of load skews fewer of them
            setups.append(spawn(dict(job, invocations=[])))
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(dict(job, invocations=[])))
        a, f = check_samples(workload)
        attempted, failed = attempted + a, failed + f
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def median(key, replies):
        return statistics.median(r[key] for r in replies)

    def at_reference_speed(key, replies):
        return statistics.median(
            r[key] * CALIBRATION_REF_S / statistics.median(r["calibration_s"]) for r in replies
        )

    measured = {key: median(key, plain) for key in ("solve_s", "cpu_s")}
    measured["calibration_s"] = statistics.median(c for r in plain for c in r["calibration_s"])
    measured["setup_s"] = median("setup_s", setups)
    untraced = {key: at_reference_speed(key, plain) for key in ("solve_s", "cpu_s")}
    untraced["setup_s"] = at_reference_speed("setup_s", setups)
    untraced["peak_rss_mb"] = median("peak_rss_mb", plain)
    if trace:
        metrics = {key: statistics.median(r["layers"][key] for r in traced)
                   for key in traced[0]["layers"]}
        metrics["trace.solve_s"] = at_reference_speed("solve_s", traced)
        metrics["trace.overhead_ratio"] = metrics["trace.solve_s"] / untraced["solve_s"]
        units = LAYER_UNITS
    else:
        metrics, units = untraced, END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    info = {
        "env": plain[0]["env"],
        "repetitions": len(plain),
        "measured": measured,
        "error_rate": failed / attempted,
    }
    if trace:
        info["self_shares"] = traced[-1]["shares"]
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark: {exc}\n")
        return 1
    shares = info.pop("self_shares", None)
    if shares:
        top = ", ".join(f"{k} {v:.1%}" for k, v in list(shares.items())[:10])
        sys.stderr.write(f"self-time shares of the last traced repetition: {top}\n")
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
