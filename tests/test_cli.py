"""CLI regression tests: the module entrypoints must exit cleanly —
operator-facing errors are one-line ``error: ...`` messages and never
tracebacks, and the happy paths print their tables and exit 0."""

import os
import subprocess
import sys

import pytest

from repro.serve.__main__ import build_classifier_engine, build_lm_engine

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*argv, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.run([sys.executable, *argv], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_serve_demo_stats_smoke():
    proc = run_cli("-m", "repro.serve", "--stats", "--mode", "classify",
                   "--requests", "4", "--max-batch-size", "2")
    assert proc.returncode == 0, proc.stderr
    assert "[stats]" in proc.stdout
    assert "ok=" in proc.stdout            # terminal reason counters
    assert "Traceback" not in proc.stderr


def test_serve_demo_continuous_generate_smoke():
    proc = run_cli("-m", "repro.serve", "--mode", "generate",
                   "--streams", "3", "--new-tokens", "4")
    assert proc.returncode == 0, proc.stderr
    assert "continuous scheduler" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_serve_demo_worker_tier_smoke():
    proc = run_cli("-m", "repro.serve", "--replicas", "2", "--stats",
                   "--streams", "4", "--new-tokens", "4")
    assert proc.returncode == 0, proc.stderr
    assert "shared-nothing worker tier (2 replicas" in proc.stdout
    assert "worker0" in proc.stdout and "worker1" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_unknown_model_is_a_clean_error(tmp_path):
    build_lm_engine(0).save(str(tmp_path / "lm"))
    build_classifier_engine(0).save(str(tmp_path / "clf"))
    proc = run_cli("-m", "repro.serve",
                   "--engine-dir", f"lm={tmp_path / 'lm'}",
                   "--engine-dir", f"clf={tmp_path / 'clf'}",
                   "--model", "nope")
    assert proc.returncode != 0
    blob = proc.stdout + proc.stderr
    assert "error:" in blob and "nope" in blob
    assert "Traceback" not in proc.stderr


def test_replicas_reject_multiple_snapshots(tmp_path):
    build_lm_engine(0).save(str(tmp_path / "lm"))
    proc = run_cli("-m", "repro.serve", "--replicas", "2",
                   "--engine-dir", f"a={tmp_path / 'lm'}",
                   "--engine-dir", f"b={tmp_path / 'lm'}")
    assert proc.returncode != 0
    assert "one snapshot" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_loadgen_cli_virtual_check_passes():
    proc = run_cli("-m", "repro.serve.loadgen", "--virtual",
                   "--requests", "8", "--replicas", "2", "--check",
                   "--max-ttft-p99", "1.0", "--min-tok-s", "1")
    assert proc.returncode == 0, proc.stderr
    assert "[check] SLOs met" in proc.stdout
    assert "TTFT" in proc.stdout and "tok/s" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_loadgen_cli_check_failure_is_clean():
    proc = run_cli("-m", "repro.serve.loadgen", "--virtual",
                   "--requests", "4", "--replicas", "1", "--check",
                   "--min-tok-s", "1e12")
    assert proc.returncode != 0
    assert "SLO check failed" in proc.stderr
    assert "tok_s" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_loadgen_cli_records_bench_artifact(tmp_path):
    env_dir = tmp_path / "bench"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["REPRO_BENCH_DIR"] = str(env_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve.loadgen", "--virtual",
         "--requests", "6"], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (env_dir / "BENCH_serving_slo.json").exists()
    assert "[bench] recorded" in proc.stdout
