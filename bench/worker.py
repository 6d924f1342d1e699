"""One repetition of a workload in a fresh interpreter.

Reads a job from stdin: {"root": checkout root, "invocations": [argv, ...],
"trace": bool, "spans_path": path or null}.  Imports sofic from the
checkout's ``src`` (timed as set-up), then calls ``sofic.cli.main(argv)``
in-process for each invocation, one after another, capturing the report
that would go to stdout.  A fixed calibration kernel is timed after the
invocations.  Prints one JSON object with the timings, the
calibration time, the peak RSS, each invocation's exit code and report,
the environment and, when traced, the per-layer metrics.
"""

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time
import traceback

CALIBRATIONS = 6  # calibration timings per worker


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work sofic does: fraction-free
    big-integer elimination, float64 matrix products reduced modulo a prime
    and a Python integer loop.  It never changes, so the ratio of a
    measured time to it takes the host's current speed out."""
    import numpy as np

    start = time.perf_counter()
    n = 24
    rows = [[(i * 7 + j * 13) % 11 - 5 + 40 * (i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        piv, rk = rows[k][k], rows[k]
        for i in range(k + 1, n):
            ri, rik = rows[i], rows[i][k]
            for j in range(k + 1, n):
                ri[j] = (piv * ri[j] - rik * rk[j]) // prev
        prev = piv
    a = np.arange(160 * 160, dtype=np.float64).reshape(160, 160) % 97
    for _ in range(30):
        a = np.fmod(a @ a, 97.0)
    total = 0
    for i in range(60000):
        total += i * i % 7
    return time.perf_counter() - start


def blas_threads(numpy):
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "nproc": os.cpu_count(),
    }


def main():
    job = json.load(sys.stdin)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import sofic.cli

    setup_s = time.perf_counter() - start
    if not os.path.realpath(sofic.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"sofic was imported from {sofic.cli.__file__}, not {src}")

    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.install("sofic")

    results = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for argv in job["invocations"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sofic.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # reported as failed ops, the run goes on
            code, error = None, traceback.format_exc()
        results.append({"exit": code, "report": out.getvalue(), "error": error})
    solve_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # after the peak RSS is read, so that the kernel's memory does not count
    calibration = [calibrate() for _ in range(CALIBRATIONS)]

    reply = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration,
        "results": results,
        "env": environment(),
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans)
        layers["cli.report_bytes"] = sum(len(r["report"].encode()) for r in results)
        reply["layers"] = layers
        reply["shares"] = tracing.self_shares(tracer.spans)
        if job.get("spans_path"):
            with open(job["spans_path"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
