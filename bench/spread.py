"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workloads mc_box,tables --seeds 1-10 [--out FILE]

Run from the root of a checkout.  For every workload and end-to-end metric
it prints the median over the runs and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of that
median, next to the metric's bound from ``BENCHMARK.json`` and the ratio
of the two; the last line gives the largest ratio over every bounded
metric, ``setup_s`` included.  Runs are untraced (``--trace 0``) and
sequential, so no two runs share the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None, help="write every run's result line here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-800:]}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stdout[-800:]}")
            runs.setdefault(workload, []).append(dict(result, seed=seed))
        print(f"{workload}: {len(runs[workload])} runs")
        for name in runs[workload][0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs[workload]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds[name]
            worst = max(worst, spread / bound)
            print(f"  {name:32s} median {median:12.6g}  spread {spread:7.4f}"
                  f"  bound {bound}  spread/bound {spread / bound:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
    print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
