"""Benchmark of bernsym: exact-sweep and dual-route series throughput,
with a traced mode that reports per-module layer metrics.

    python3 bench/run.py --workload grid_serial --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; bernsym is imported from its `src`.
Each repetition is a fresh interpreter (bench/rep.py) that drives the
CLI entry point `bernsym.cli.main` in-process: `sweep --format json` on
the grid workloads, one `lambda --route both --format json` call per
(spec, character, weights) pair on series_dual_route, whose untraced
repetitions take its two weight triples in turn.  Repetitions follow
each other for --seconds seconds (at least three untraced, one traced).
grid_jobs2 first runs the same sweep serially, untimed, as the report
its pool must reproduce byte for byte.

Untraced timings are scaled to a host of reference speed, measured
while they run by pace.py; the lines print the unscaled figures too.

Every repetition's exact output is checked (see rep.py); across
repetitions every report must have the same sha256 and the same T3
printed-line-5 probe counts.  A missed check fails all operations of
the repetition it is in, and any failure makes the run invalid:
"correct" is false and the exit status is 1.

With --trace 0 the last line carries the end-to-end metrics declared in
BENCHMARK.json, with --trace 1 the per-layer ones; the lines before it
print the same numbers by name with their units.  Exit status 2 means
bernsym is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import GRID_N_MAX, SERIES_ORDER, WORKLOADS, expected_ops

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MIN_REPS = {False: 3, True: 1}
SETUP_REPS = 1  # interpreters that only set up, before each repetition, for setup_s
REP_TIMEOUT_S = 60
RUN_LIMIT_S = 60  # no repetition starts after this much of a run
# the workload's own name for its operations and their throughput
THROUGHPUT_NAME = {
    "grid": ("verified_instances_per_s", "instances/s"),
    "series": ("series_pairs_per_s", "pairs/s"),
}


class ProgramMissing(Exception):
    pass


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()}"


def repetition(request: dict) -> dict | None:
    """Run rep.py once; None when it crashed or timed out."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "rep.py"), json.dumps(request)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # so a timeout also stops its pool workers
    )
    try:
        out, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"bench: repetition timed out after {REP_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode == 3:
        raise ProgramMissing("bernsym is not importable from the checkout's src")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: repetition exited with status {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run(workload_name: str, seed: int, seconds: float, trace: bool, *,
        n_max: int = GRID_N_MAX, order: int = SERIES_ORDER, perturb: bool = False) -> dict:
    """Measure one workload: counts of attempted and failed operations, and metrics."""
    workload = WORKLOADS[workload_name]
    total = expected_ops(workload, n_max)
    # an untimed repetition runs one part of the workload's operations in turn, a
    # traced one runs them all
    parts = 1 if trace else workload.parts
    expected = total // parts

    def request(jobs, traced, part=None, setup_only=False):
        return {"workload": workload_name, "seed": seed, "jobs": jobs, "trace": traced,
                "n_max": n_max, "order": order, "perturb": perturb, "setup_only": setup_only,
                "part": part, "parts": parts}

    setups = []

    def set_up():
        # spread over the run, so that the median spans its quiet and busy spells
        for _ in range(0 if trace else SETUP_REPS):
            r = repetition(request(workload.jobs, False, setup_only=True))
            if r is not None:
                setups.append(r)

    began = time.perf_counter()
    reference = repetition(request(1, False)) if workload.jobs > 1 else None
    reps = []  # (part, result or None)
    while True:
        cycle_began = time.perf_counter()
        set_up()
        part = len(reps) % parts
        reps.append((part, repetition(request(workload.jobs, trace, part))))
        now = time.perf_counter()
        # no cycle starts that would, at the pace of the last one, end past --seconds
        if now - began >= RUN_LIMIT_S or (
            len(reps) >= MIN_REPS[trace] and (now - began) + (now - cycle_began) > seconds
        ):
            break

    # -- the exact-output gate ------------------------------------------------------
    checked = ([(0, reference)] if workload.jobs > 1 else []) + reps
    first = {}  # part -> its first completed repetition
    for part, r in checked:
        if r is not None:
            first.setdefault(part, r)
    attempted = failed = 0
    for part, r in checked:
        attempted += expected
        if (r is None or r["ops"] != expected or r["sha256"] != first[part]["sha256"]
                or r["probe"] != first[part]["probe"]):
            failed += expected
        else:
            failed += r["failed"]
    if workload.jobs > 1 and reference is None:
        failed = attempted  # nothing to compare the pool's report against

    done = [(part, r) for part, r in reps if r is not None]
    if {part for part, _ in done} != set(range(parts)):
        raise RuntimeError("some part of the workload never completed")

    def per_op_s(seconds_of):
        # seconds per operation of the whole workload: the median of each part, summed
        return sum(
            statistics.median(seconds_of(r) for p, r in done if p == part) for part in range(parts)
        ) / total

    unscaled = None
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for _, r in done)
                   for name in done[0][1]["layers"]}
    else:
        # timings scaled to a host of reference speed, as measured by pace.py
        setups += [r for r in [reference] + [r for _, r in done] if r]
        metrics = {
            "ops_per_s": 1 / per_op_s(lambda r: r["main_s"] * r["main_speed"]),
            "setup_s": statistics.median(r["setup_s"] * r["setup_speed"] for r in setups),
            "peak_rss_mb": statistics.median(
                (r["rss_self_kb"] + r["rss_children_kb"]) / 1024 for _, r in done
            ),
        }
        unscaled = {
            "ops_per_s": 1 / per_op_s(lambda r: r["main_s"]),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "speed": statistics.median(r["main_speed"] for _, r in done),
        }
    return {
        "workload": workload, "reps": len(reps), "reference": reference is not None,
        "expected": expected, "attempted": attempted, "failed": failed, "metrics": metrics,
        "rep_ops_per_s": [expected / r["main_s"] for _, r in done], "unscaled": unscaled,
    }


def declared(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(result: dict, seed: int, trace: bool) -> tuple[list[str], dict]:
    """Printable lines and the final result object, with declared units."""
    units = declared(trace)
    metrics = result["metrics"]
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}"
        )
    workload = result["workload"]
    correct = result["failed"] == 0
    lines = [
        f"bench: workload={workload.name} seed={seed} trace={int(trace)} jobs={workload.jobs} "
        f"reps={result['reps']}{' +1 serial reference' if result['reference'] else ''} "
        f"ops/rep={result['expected']} {machine()}"
    ]
    if not trace:
        name, unit = THROUGHPUT_NAME[workload.kind]
        per_rep = " ".join(f"{x:.4g}" for x in result["rep_ops_per_s"])
        unscaled = result["unscaled"]
        lines.append(f"bench: unscaled ops_per_s of each repetition: {per_rep}")
        lines.append(
            f"bench: unscaled ops_per_s {unscaled['ops_per_s']:.6g}, setup_s "
            f"{unscaled['setup_s']:.6g}; host speed {unscaled['speed']:.4g} of the reference"
        )
        lines.append(f"{name} {metrics['ops_per_s']:.6g} {unit}")
    lines += [f"{name} {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    lines.append(
        f"failed_fraction {result['failed'] / result['attempted']:.6g} ratio "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    if not correct:
        lines.append("bench: INVALID run: some output was not exactly right")
    final = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    if not os.path.isfile(os.path.join(ROOT, "src", "bernsym", "cli.py")):
        print(f"bench: no bernsym sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, trace)
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    lines, final = report(result, args.seed, trace)
    print("\n".join(lines))
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
