#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/steadiness.py --workload NAME [--runs 10]
        [--first-seed 1] [--seconds S]

Runs perfbench/run.py --trace 0 once per seed and prints, per metric,
the median over runs and the quartile spread (Q3 - Q1) / median that
the bounds in BENCHMARK.json are checked against. Run from the
repository root.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    for name, vals in values.items():
        spread = stats.quartile_spread(vals) if len(vals) >= 2 else 0.0
        print(f"{name:18s} median {stats.median(vals):14.6g}  spread "
              f"{spread:7.4f}  bound {bounds[name]:.3f}  "
              f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}")


if __name__ == "__main__":
    main()
