"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload campaign --runs 10 [--first-seed 1]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints,
per end-to-end metric, the median and the inter-quartile distance as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound and a third of it.  Exits 1 if a run failed or a spread
exceeds its bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pb.stats import median, spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        if len(series) < 2:
            continue
        share = spread(series)
        bound = metric["bound"]
        flag = "" if share <= bound / 3 else (" > bound/3" if share <= bound else " > BOUND")
        if share > bound:
            ok = False
        print(f"{args.workload:10s} {metric['name']:14s} median {median(series):.5g} "
              f"spread {share:.3f} bound {bound} (1/3: {bound / 3:.3f}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
