"""Smoke run of the benchmark on tiny inputs (about four minutes, most of it g1_pipeline's fixed numerics).

    python3 perfbench/smoke.py

Runs every workload untraced and traced with a few thousand walks and checks
that each run is correct, that it emits a finite value for every metric
BENCHMARK.json names (run.py takes the units from there), and that no tracer
wrapper is left installed, both in
the forked stages (reported by each run) and in this process after an
install/remove cycle.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import math
import sys

import run

TINY_WALKS = {"g1_pipeline": 2_000, "g1_chain": 5_000, "bernoulli_pipeline": 20_000, "pareto_walks": 50_000}


def main() -> int:
    run.prepare_environment()
    import layertrace

    declared = {False: run.END_TO_END_UNITS, True: run.PER_LAYER_UNITS}
    problems = []
    if not {w["name"] for w in run.SPEC["workloads"]} <= set(run.WORKLOADS):
        problems.append("BENCHMARK.json names a workload run.py does not have")

    for name, walks in TINY_WALKS.items():
        for trace in (False, True):
            result = run.run_workload(run.WORKLOADS[name], seed=1, seconds=0, trace=trace, walks=walks)
            label = f"{name} trace={int(trace)}"
            if result["failed"]:
                problems.append(f"{label}: {result['failures']}")
                continue
            for metric in declared[trace]:
                value = result["metrics"].get(metric)
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: metric {metric} missing or not finite: {value!r}")
            print(f"smoke {label}: {len(result['metrics'])} metrics, {result['attempted']} operations, ok")

    import ladderlab

    with layertrace.Tracer():
        if not layertrace.installed_wrappers():
            problems.append("tracer installed no wrappers")
        ladderlab.simulate_batch(ladderlab.Pareto(**run.PARETO), 1, n_samples=100)
    left = layertrace.installed_wrappers()
    if left:
        problems.append(f"wrappers left installed in this process: {left}")

    for problem in problems:
        print(f"smoke FAILED: {problem}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
