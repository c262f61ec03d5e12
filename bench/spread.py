"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py WORKLOAD [--runs 10] [--first-seed 1] [--seconds 30]

Runs bench/run.py once per seed, one after another, and prints for each
metric the median and the distance between the first and third quartile
as a share of the median, next to the metric's bound in BENCHMARK.json,
plus the failed share of every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values, shares = {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(json.dumps(result), flush=True)
        shares.append((result["failed"], result["attempted"],
                       result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:12s} median {med:.6g}  IQR/median {(q3 - q1) / med:.4f}"
              f"  bound {bounds[name]}")
    print("failed/attempted:", " ".join(f"{f}/{a}" for f, a, _ in shares),
          " all correct:", all(c for _, _, c in shares))


if __name__ == "__main__":
    main()
