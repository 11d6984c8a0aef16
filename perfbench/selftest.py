"""Self-test of the benchmark itself, at a tiny size.

    python3 perfbench/selftest.py

For every workload of ``BENCHMARK.json`` it runs ``run.py`` for one
second and asserts that
  * every end-to-end metric of ``BENCHMARK.json`` appears with its unit
    (and every per-layer metric in a traced run);
  * the outputs are correct and no request failed;
  * two runs with the same seed give identical paper quantities and an
    identical output digest (the served outputs of the checked
    requests);
  * a run with another seed serves another request list.
Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import sys

from sets import ROOT, run_once

PAPER = ("pruning_rate", "sim_speedup_x", "sim_energy_reduction_x")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(result: dict, expected: list[dict], label: str) -> None:
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in expected},
          f"{label}: metric names {sorted(metrics)}")
    for metric in expected:
        got = metrics[metric["name"]]
        check(got["unit"] == metric["unit"],
              f"{label}: {metric['name']} unit {got['unit']!r}")
        check(isinstance(got["value"], (int, float)),
              f"{label}: {metric['name']} value {got['value']!r}")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{label}: correct={result['correct']} "
          f"failed={result['failed']}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        first = run_once(workload, seed=7, seconds=1)
        again = run_once(workload, seed=7, seconds=1)
        other = run_once(workload, seed=8, seconds=1)
        for label, result in (("first", first), ("again", again),
                              ("other seed", other)):
            check_metrics(result, bench["end_to_end"],
                          f"{workload} {label}")
        for name in PAPER:
            check(first["metrics"][name] == again["metrics"][name],
                  f"{workload}: {name} differs between equal seeds")
        same, changed = first["diagnostics"], other["diagnostics"]
        check(same["output_digest"] == again["diagnostics"]
              ["output_digest"],
              f"{workload}: output digest differs between equal seeds")
        check(same["requests_digest"] == again["diagnostics"]
              ["requests_digest"],
              f"{workload}: request list differs between equal seeds")
        check(same["requests_digest"] != changed["requests_digest"],
              f"{workload}: another seed kept the same request list")
        traced = run_once(workload, seed=7, seconds=1, trace=1)
        check_metrics(traced, bench["per_layer"], f"{workload} traced")
        print(f"selftest {workload}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
