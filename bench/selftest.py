"""Self-test of the benchmark's exact-output gate and of its printed metrics.

    python3 bench/selftest.py

Run from the root of a checkout; it takes about a minute on two cores.

1. Gate: the smallest grid_serial sweep, run with the CLI's own
   --perturb hook, must come out with failed_fraction > 0 and marked
   invalid.  This shows that the gate can trip.
2. Smoke: every workload, untraced and traced, at reduced size, must be
   correct and must print every metric BENCHMARK.json declares, by name
   and with its unit, in the printed lines and in the result object.
3. Bare directory: run.py in a directory holding only BENCHMARK.json and
   bench/ must exit nonzero without printing a result.

Exit status 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run as bench
from workloads import WORKLOADS


def check_gate(problems: list[str]):
    result = bench.run("grid_serial", 0, 0, False, n_max=0, perturb=True)
    lines, final = bench.report(result, 0, False)
    fraction = next(float(line.split()[1]) for line in lines if line.startswith("failed_fraction "))
    if not (fraction > 0 and final["failed"] > 0 and final["correct"] is False):
        problems.append(f"perturbed sweep was not caught: {final}")
    if not any("INVALID" in line for line in lines):
        problems.append("perturbed sweep was not marked invalid")


def check_metrics(problems: list[str]):
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            result = bench.run(name, 1, 0, trace, n_max=0, order=4)
            lines, final = bench.report(result, 1, trace)
            where = f"{name} trace={int(trace)}"
            if not final["correct"]:
                problems.append(f"{where}: run was not correct")
            expected = dict(bench.declared(trace))
            expected["failed_fraction"] = "ratio"
            if not trace:
                expected.update([bench.THROUGHPUT_NAME[workload.kind]])
            printed = {line.split()[0]: line.split()[2] for line in lines
                       if not line.startswith("bench:")}
            for metric, unit in expected.items():
                if printed.get(metric) != unit:
                    problems.append(f"{where}: {metric} not printed with unit {unit}")
            for metric, unit in bench.declared(trace).items():
                if final["metrics"].get(metric, {}).get("unit") != unit:
                    problems.append(f"{where}: {metric} missing from the result object")


def check_bare_directory(problems: list[str]):
    bare = os.path.join(bench.ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid_serial", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    problems: list[str] = []
    for check in (check_gate, check_metrics, check_bare_directory):
        check(problems)
        print(f"selftest: {check.__name__}: {'FAIL' if problems else 'ok'}", flush=True)
        if problems:
            break
    for problem in problems:
        print(f"selftest: {problem}")
    print(json.dumps({"selftest": "fail" if problems else "pass"}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
