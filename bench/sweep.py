"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --workload NAME --seeds 1..10 --seconds S [--trace 1] [--out FILE]

Each seed is one ``run.py`` process.  For every metric the summary gives
the median of the per-run values, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  ``--out`` writes the
runs, their wall times and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "unit": runs[0]["metrics"][name]["unit"],
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1..10", help="range a..b")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split(".."))
    runs, info, walls = [], [], []
    for seed in range(lo, hi + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True,
        )
        walls.append(time.perf_counter() - start)
        lines = proc.stdout.strip().splitlines()
        runs.append(json.loads(lines[-1]))
        info.append(json.loads(lines[-2][2:]))
        metrics = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
        print(f"seed {seed}: {walls[-1]:.1f} s, correct={runs[-1]['correct']} "
              f"failed={runs[-1]['failed']}/{runs[-1]['attempted']} {metrics}", file=sys.stderr)
    summary = summarise(runs)
    for name, s in summary.items():
        print(f"{name:32s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs, "info": info, "wall_s": walls,
                       "summary": summary},
                      fh, indent=1)


if __name__ == "__main__":
    main()
