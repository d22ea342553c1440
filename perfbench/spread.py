"""Run the benchmark once per seed and report each metric's spread across runs.

    python3 perfbench/spread.py --workload dense-closed --seeds 1-10

Runs are sequential, from the current directory (a checkout root). For each
metric it prints the median over runs, the quartiles
(statistics.quantiles(values, n=4)), the sample count and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}"
              f"/{result['attempted']}  " + "  ".join(
                  f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                  if k in bounds), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<44} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3} {'spread':>7} {'bound':>6}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<44} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} {len(vals):>3} {spread:>7.3f} "
              f"{'' if bound is None else format(bound, '.2f'):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
