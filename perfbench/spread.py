"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed on one workload, then prints, for every
end-to-end metric, the median, the quartile spread as a share of the
median (``statistics.quantiles(values, n=4)``) and the metric's bound.
With ``--against A-B`` it runs a second seed range and also compares the
two medians, which checks that the numbers hold on seeds not used before.

    python3 perfbench/spread.py --workload upload-libpng --seeds 1-10
    python3 perfbench/spread.py --workload curate-batch --seeds 1-5 --against 11-15
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_seeds(workload: str, seeds: list[int], seconds: int) -> list[dict]:
    results = []
    for seed in seeds:
        began = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900,
        )
        wall = time.monotonic() - began
        if done.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{done.stderr[-3000:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        values = " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        )
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {values}",
              flush=True)
        results.append(result)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--against", type=seed_range, default=None)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    sets = [run_seeds(args.workload, args.seeds, spec["run_seconds"])]
    if args.against:
        sets.append(run_seeds(args.workload, args.against, spec["run_seconds"]))
    healthy = all(r["correct"] for results in sets for r in results)
    print(f"{'metric':18s} {'median':>12s} {'spread':>8s} {'bound':>6s}"
          + ("  second-median  worse-by" if args.against else ""))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        line = ""
        for results in sets:
            values = [r["metrics"][name]["value"] for r in results]
            medians.append(statistics.median(values))
            if not line:
                share = spread(values)
                line = f"{name:18s} {medians[0]:12.4f} {share:8.4f} {bound:6.2f}"
                healthy &= share <= bound
        if len(medians) == 2:
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            line += f"  {medians[1]:13.4f}  {worse:8.4f}"
            healthy &= worse <= bound
        print(line)
    print("steady" if healthy else "NOT steady")
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
