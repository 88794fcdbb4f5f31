"""Run one workload over several seeds and print each metric's median and
quartile spread (IQR as a share of the median), the figure the benchmark's
bounds are checked against.

Usage: python3 perfbench/spread.py --workload short-passages --seeds 1 2 3 4 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from bench_stats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", default="40")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values: dict = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        wall = next((line.split(" wall ")[1] for line in lines if " wall " in line), "?")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} wall {wall}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) > 1 and statistics.median(vals) else float("nan")
        bound = bounds[name]
        flag = "  OVER BOUND" if spread > bound else ("  over 1/3 bound" if spread > bound / 3 else "")
        print(f"{name:60s} median {statistics.median(vals):12.6g}  spread {spread:7.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
