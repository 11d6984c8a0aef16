"""Run a set of benchmark runs and report each metric's spread.

    python3 perfbench/sets.py [--runs 10]

Runs every workload of ``BENCHMARK.json`` ``--runs`` times for its
``run_seconds``, each time with another seed (100, 101, ...),
round-robin across workloads (run 1 of every workload, then run 2, ...)
so that drift of the host reaches every workload alike.  For each
end-to-end metric it prints the median and the spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``)
as a share of the median, next to a third of the metric's bound from
``BENCHMARK.json``.  Every run's result is kept in
``.perfbench/sets.json``.  Exits non-zero if any run fails or reports
an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 100


def run_once(workload: str, seed: int, seconds: int,
             trace: int = 0) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["diagnostics"] = json.loads(lines[-2])["diagnostics"]
    return result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    results: dict[str, list[dict]] = {w["name"]: []
                                      for w in bench["workloads"]}
    for run in range(args.runs):
        for workload in results:
            result = run_once(workload, SEED_BASE + run,
                              bench["run_seconds"])
            results[workload].append(result)
            diagnostics = result["diagnostics"]
            print(f"run {run} {workload}: correct={result['correct']} "
                  f"failed={result['failed']} "
                  f"steal={diagnostics['steal_share']:.3f} "
                  f"cpu/wall={diagnostics['cpu_per_wall']:.2f}",
                  flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "sets.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    ok = True
    for workload, runs in results.items():
        print(f"\n== {workload} ({len(runs)} runs)")
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            width = spread(values) if len(values) > 1 else 0.0
            third = metric["bound"] / 3
            flag = "" if width <= third or metric["name"] == "setup_s" \
                else "  <-- above bound/3"
            median = statistics.median(values)
            print(f"  {metric['name']:24s} median {median:12.4f} "
                  f"{metric['unit']:10s} spread {width:6.3f} "
                  f"(bound/3 {third:.3f}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
