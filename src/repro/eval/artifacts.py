"""Experiment/sweep artifact persistence (<name>.json + <name>.txt)."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, is_dataclass

import numpy as np


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "__dict__"):
        return {k: _jsonable(v) for k, v in vars(value).items()
                if not k.startswith("_")}
    return repr(value)


def save_experiment(result, directory: str) -> str:
    """Write ``<name>.json`` (data payload) and ``<name>.txt`` (table);
    returns the json path."""
    os.makedirs(directory, exist_ok=True)
    json_path = os.path.join(directory, f"{result.name}.json")
    with open(json_path, "w") as fh:
        json.dump({"name": result.name, "title": result.title,
                   "data": _jsonable(result.data)}, fh, indent=2)
    with open(os.path.join(directory, f"{result.name}.txt"), "w") as fh:
        fh.write(result.table + "\n")
    return json_path


BENCH_ENV = "REPRO_BENCH_DIR"
_BENCH_SCHEMA = 1


def _git_sha() -> str | None:
    """Commit the benchmark ran against: ``GITHUB_SHA`` in CI, a quick
    ``git rev-parse`` locally, None outside any checkout."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        import subprocess
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def bench_provenance() -> dict:
    """Where/how a benchmark ran: enough to judge whether two
    artifacts are comparable before :func:`diff_bench` compares them.
    Recorded automatically on every :func:`record_bench` run."""
    import platform

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def record_bench(name: str, metrics: dict, context: dict | None = None,
                 directory: str | None = None) -> str | None:
    """Append one benchmark run to a versioned ``BENCH_<name>.json``.

    Benchmarks call this after measuring; recording is opt-in via
    ``directory`` or the ``REPRO_BENCH_DIR`` environment variable (CI
    sets it and uploads the files as artifacts), so local test runs
    stay side-effect free.  Returns the path written, or None when
    recording is off.

    The file holds ``{"schema": 1, "name": ..., "runs": [...]}``; each
    call appends ``{"metrics": ..., "context": ..., "provenance":
    ...}`` — provenance (git SHA, python/numpy versions) is stamped
    automatically so accumulated runs from different commits stay
    tellable apart.  Reruns in one CI job
    accumulate rather than overwrite, and the write is atomic (temp
    file + rename) so a crashed run never leaves a truncated artifact.
    """
    directory = directory or os.environ.get(BENCH_ENV)
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    payload = {"schema": _BENCH_SCHEMA, "name": name, "runs": []}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                existing = json.load(fh)
            if existing.get("schema") == _BENCH_SCHEMA:
                payload = existing
        except (OSError, ValueError):
            pass                     # corrupt artifact: start fresh
    payload["runs"].append({"metrics": _jsonable(metrics),
                            "context": _jsonable(context or {}),
                            "provenance": bench_provenance()})
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2)
    os.replace(tmp, path)
    return path


def load_bench(path: str) -> dict:
    """Read a ``BENCH_<name>.json`` artifact back, validating its
    schema version; the counterpart to :func:`record_bench` for the
    ablation/regression tooling."""
    with open(path) as fh:
        payload = json.load(fh)
    schema = payload.get("schema")
    if schema != _BENCH_SCHEMA:
        raise ValueError(f"{path}: unsupported bench schema {schema!r} "
                         f"(expected {_BENCH_SCHEMA})")
    if not isinstance(payload.get("runs"), list):
        raise ValueError(f"{path}: malformed bench artifact (no runs)")
    return payload


def diff_bench(baseline: dict, candidate: dict,
               run: int = -1) -> dict[str, dict]:
    """Compare one run of two bench artifacts metric by metric.

    Returns ``{metric: {"baseline": x, "candidate": y, "delta": y-x,
    "ratio": y/x}}`` over the union of numeric metrics (``delta`` /
    ``ratio`` are None when a side is missing or non-numeric) —
    the building block for A/B ablation reports over CI artifacts.
    ``run`` selects which accumulated run to compare (default: last).
    """
    sides = []
    for payload in (baseline, candidate):
        runs = payload["runs"]
        if not runs:
            raise ValueError(f"bench {payload.get('name')!r} has no runs")
        sides.append(runs[run]["metrics"])
    base, cand = sides
    diff: dict[str, dict] = {}
    for metric in sorted(set(base) | set(cand)):
        a, b = base.get(metric), cand.get(metric)
        numeric = all(isinstance(v, (int, float))
                      and not isinstance(v, bool) for v in (a, b))
        diff[metric] = {
            "baseline": a, "candidate": b,
            "delta": (b - a) if numeric else None,
            "ratio": (b / a) if numeric and a else None,
        }
    return diff


def save_sweep_report(report, directory: str) -> str:
    """Write ``sweep.json`` (per-task status, timings and metrics of a
    :class:`~repro.eval.sweep.SweepReport`); returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "sweep.json")
    with open(path, "w") as fh:
        json.dump({"scale": report.scale, "jobs": report.jobs,
                   "summary": report.summary(),
                   "outcomes": _jsonable(report.outcomes)}, fh, indent=2)
    return path


def _fmt_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def main(argv=None) -> None:
    """``python -m repro.eval.artifacts diff A.json B.json`` — compare
    two ``BENCH_*.json`` artifacts metric by metric (the A/B ablation
    report over CI uploads)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.artifacts",
        description="inspect and compare BENCH_*.json artifacts")
    sub = parser.add_subparsers(dest="command", required=True)
    diff = sub.add_parser("diff", help="metric-by-metric A/B diff of "
                                       "two bench artifacts")
    diff.add_argument("baseline", help="baseline BENCH_*.json")
    diff.add_argument("candidate", help="candidate BENCH_*.json")
    diff.add_argument("--run", type=int, default=-1,
                      help="which accumulated run to compare on each "
                           "side (default: last)")
    args = parser.parse_args(argv)

    try:
        base = load_bench(args.baseline)
        cand = load_bench(args.candidate)
        table = diff_bench(base, cand, run=args.run)
    except (OSError, ValueError, KeyError, IndexError) as error:
        raise SystemExit(f"error: {error}") from None

    for side, payload in (("baseline", base), ("candidate", cand)):
        provenance = payload["runs"][args.run].get("provenance") or {}
        sha = provenance.get("git_sha") or "unknown"
        print(f"# {side}: {payload['name']} @ {str(sha)[:12]}")
    width = max((len(m) for m in table), default=6)
    print(f"{'metric':<{width}}  {'baseline':>12}  {'candidate':>12}  "
          f"{'delta':>12}  {'ratio':>8}")
    for metric, row in table.items():
        print(f"{metric:<{width}}  {_fmt_cell(row['baseline']):>12}  "
              f"{_fmt_cell(row['candidate']):>12}  "
              f"{_fmt_cell(row['delta']):>12}  "
              f"{_fmt_cell(row['ratio']):>8}")


if __name__ == "__main__":
    main()
