"""Run one workload over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload dense --seeds 1-10

For every end-to-end metric it prints the values, their median, and the
inter-quartile distance as a share of the median (``statistics.quantiles``
with ``n=4``), next to the metric's bound in ``BENCHMARK.json``.  Runs go
one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import lib  # noqa: E402


def seeds_of(text: str) -> list[int]:
    """``1-5,9`` → ``[1, 2, 3, 4, 5, 9]``."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    for seed in seeds_of(args.seeds):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        took = time.perf_counter() - t0
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {took:.1f} s, correct={result['correct']}, "
              f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
    print(f"\n{args.workload}: {len(values[metrics[0]['name']])} runs")
    for metric in metrics:
        xs = values[metric["name"]]
        bound = metric.get("bound")
        spread = lib.quartile_spread(xs) if len(xs) >= 2 and statistics.median(xs) else 0.0
        note = f"  bound {bound:g} ({spread / bound:.2f} of it)" if bound else ""
        print(f"  {metric['name']:<34} median {statistics.median(xs):<12.6g} "
              f"spread {spread:.3f}{note}")
        print(f"    {' '.join(f'{x:.4g}' for x in xs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
