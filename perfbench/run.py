#!/usr/bin/env python3
"""Repo benchmark: one workload, its end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fit_noise --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs one untraced pass and one traced pass of every stage and reports
the per-layer metrics of the traced pass, plus the tracing overhead
(traced minus untraced end-to-end numbers).  The last line of standard
output is the result object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a detailed report.  The exit code is
non-zero when any correctness check fails or any operation fails.

BLAS and OpenMP pools are pinned to one thread before numpy is imported;
the shard workers inherit the pinning.  Temporary files and span dumps
go to ``.perfbench-run/`` under the repository root.
"""

import os
import sys
import time

T_START = time.perf_counter()
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUN_DIR.mkdir(exist_ok=True)
    scratch = pathlib.Path(
        tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    )
    # Everything the program puts in a temp dir stays in the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        import pipeline
        import tracing

        t_imports = time.perf_counter() - T_START
        maker = pipeline.WORKLOADS[args.workload]

        def one_pass(name, tracer=None, **kwargs):
            workdir = scratch / name
            workdir.mkdir()
            return pipeline.Pass(maker, args.seed, workdir, tracer=tracer,
                                 imports_s=t_imports, **kwargs).run()

        if args.trace:
            # One cycle untraced, then the same cycle traced.
            single_cycle = {"seconds": 0, "sweep_pairs": 1, "setup_reps": 1,
                            "min_cycles": 1}
            plain = one_pass("plain", **single_cycle)
            run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
            traced = one_pass("traced", tracing.SpanTracer(run_id),
                              **single_cycle)
            traced.tracer.write_jsonl(RUN_DIR / f"spans-{run_id}.jsonl")
            passes = [plain, traced]
            # Tracing must observe, never change, what the program does.
            checks = {**{f"untraced.{k}": v for k, v in plain.checks.items()},
                      **{f"traced.{k}": v for k, v in traced.checks.items()},
                      "traced_fit_equals_untraced":
                          plain.fit_print == traced.fit_print,
                      "traced_entries_equal_untraced":
                          plain.metrics["entries_computed"]
                          == traced.metrics["entries_computed"]}
        else:
            main_pass = one_pass("plain", seconds=args.seconds,
                                 sweep_pairs=pipeline.SWEEP_PAIRS,
                                 setup_reps=3, min_cycles=pipeline.MIN_CYCLES)
            passes = [main_pass]
            checks = dict(main_pass.checks)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = pipeline.Ops()
    for done in passes:
        ops.merge(done.ops)
    attempted = sum(ops.attempted.values())
    failed = sum(ops.failed.values())
    if args.trace:
        values = traced.layer_metrics() if not failed else {}
        overhead = "trace.overhead."
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name.startswith(overhead):
                metric = name[len(overhead):]
                # A metric a failure left out reads as NaN and is dropped.
                values[name] = (traced.metrics.get(metric, math.inf)
                                - plain.metrics.get(metric, math.inf))
        declared = spec["per_layer"]
    else:
        values, declared = dict(main_pass.metrics), spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    correct = all(checks.values()) and failed == 0
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items() if math.isfinite(value)}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "pinned_threads": {var: os.environ[var] for var in PINNED},
        "operations": ops.report(),
        "checks": checks,
        "end_to_end": [done.metrics for done in passes],
        "imports_s": t_imports,
        "host_scale": [done.scale for done in passes],
        "cycles": [done.cycles for done in passes],
        "raw_samples": [done.raw for done in passes],
        "full_recover_s": [done.full_recover_s for done in passes],
    }
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
