"""Self-test of the benchmark, with a negative control.

    python3 bench/selftest.py

1. Runs every workload at a tiny size, untraced and traced, and checks
   that the run is correct and prints exactly the metric names that
   BENCHMARK.json lists.
2. Negative control: runs a tiny workload once, corrupts one value in its
   report (a log_fix_count, a nullity, a subshift count) and checks that
   the output checks count a failed op, so error_rate = failed/attempted
   is above 0 each time.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import sys

import run
import workloads


def corrupt_log_fix_count(report: str) -> str:
    obj = json.loads(report)
    obj["records"][-1]["log_fix_count"] *= 1 + 1e-6
    return json.dumps(obj)


def corrupt_nullity(report: str) -> str:
    obj = json.loads(report)
    obj["skipped"][0]["nullity"] += 1
    return json.dumps(obj)


def corrupt_count(report: str) -> str:
    lines = report.splitlines()
    n, budget, count, rest = lines[-1].split(",", 3)
    lines[-1] = ",".join((n, budget, str(int(count) + 1), rest))
    return "\n".join(lines) + "\n"


# (workload, invocation index, corruption)
NEGATIVE_CONTROLS = (
    ("torus_trace", 0, corrupt_log_fix_count),
    ("singular_nullity", 0, corrupt_nullity),
    ("subshift_table", 1, corrupt_count),
)


def check(condition: bool, message: str, problems: list):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json lists the four workloads", problems)

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, info = run.run(name, seed=1, seconds=1, trace=trace, scale="tiny")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: correct, {result['attempted']} ops", problems)
            check(got == names[trace], f"{label}: metric names and units match", problems)
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{label}: every metric is a number", problems)

    for name, index, corrupt in NEGATIVE_CONTROLS:
        workdir = os.path.join(run.HERE, ".work", f"selftest-{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            workload = workloads.build(name, 1, workdir, "tiny")
            reply = run.spawn({"root": run.ROOT, "trace": False,
                               "invocations": [inv.argv for inv in workload.invocations]})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        attempted, failed = run.count_failures(workload, reply)
        check(failed == 0, f"{name}: clean report has no failed op", problems)
        reply["results"][index]["report"] = corrupt(reply["results"][index]["report"])
        attempted, failed = run.count_failures(workload, reply)
        check(failed > 0, f"{name}: {corrupt.__name__} gives error_rate "
              f"{failed}/{attempted} = {failed / attempted:.4f} > 0", problems)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
