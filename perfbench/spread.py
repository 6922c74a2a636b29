#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs ``perfbench/run.py`` once per seed for each workload and prints,
per metric, the median and the interquartile spread (third minus first
quartile of ``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``::

    python3 perfbench/spread.py --workloads fit_noise serve_live --seeds 1 2 3 4 5

A spread above a third of its bound is flagged; ``setup_s`` is exempt
from the spread rule (only its median is compared between runs).
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2]), wall


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--raw", type=pathlib.Path,
                        help="append every run's report and result here")
    args = parser.parse_args(argv)
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in args.seeds:
            result, report, wall = run_once(workload, seed, args.seconds)
            walls.append(wall)
            if args.raw is not None:
                with args.raw.open("a") as fh:
                    fh.write(json.dumps({"wall": wall, "report": report,
                                         "result": result}) + "\n")
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s", flush=True)
        print(f"== {workload}: run wall median {statistics.median(walls):.1f} s,"
              f" max {max(walls):.1f} s")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
                worst = max(worst, spread / bound)
            print(f"  {name:20s} median {median:14.4f}  spread {spread:6.3f}"
                  f"  bound {bound:.2f}{flag}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
