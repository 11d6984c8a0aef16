"""CLI regression tests: the module entrypoints must exit cleanly —
operator-facing errors are one-line ``error: ...`` messages and never
tracebacks, and the happy paths print their tables and exit 0."""

import os
import subprocess
import sys

import pytest

from repro.serve.__main__ import (build_classifier_engine, build_lm_engine,
                                  main as serve_main)
from repro.serve.loadgen import main as loadgen_main

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


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """The toy LM and the toy classifier, each saved as a snapshot."""
    root = tmp_path_factory.mktemp("snapshots")
    return {"lm": build_lm_engine(0).save(str(root / "lm")),
            "clf": build_classifier_engine(0).save(str(root / "clf"))}


@pytest.mark.parametrize("model,shape,served", [
    ("lm", "(generate traffic)", "stream "),
    ("clf", "(classify traffic)", "request "),
])
def test_serve_single_snapshot(snapshots, capsys, model, shape, served):
    serve_main(["--engine-dir", snapshots[model], "--requests", "3",
                "--streams", "3", "--new-tokens", "3"])
    out = capsys.readouterr().out
    assert shape in out
    assert sum(line.lstrip().startswith(served)
               for line in out.splitlines()) == 3


@pytest.mark.parametrize("flag", ["--replicas", "--procs"])
def test_tier_demo_serves_classifier_snapshot(snapshots, flag):
    count = "2" if flag == "--replicas" else "1"
    proc = run_cli("-m", "repro.serve", flag, count, "--stats",
                   "--engine-dir", snapshots["clf"], "--requests", "4")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    # one classify result line per request
    assert proc.stdout.count(": class ") == 4
    assert "-> tier: 4 terminal" in proc.stdout


@pytest.mark.parametrize("flag", ["--replicas", "--procs"])
def test_tier_demo_serves_the_toy_mode_names(flag):
    count = "2" if flag == "--replicas" else "1"
    proc = run_cli("-m", "repro.serve", flag, count, "--mode", "classify",
                   "--requests", "4")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    # the toy classifier, not the toy LM: classify results only
    assert proc.stdout.count(": class ") == 4
    assert "stream " not in proc.stdout
    assert "-> tier: 4 terminal" in proc.stdout


@pytest.mark.parametrize("model,mode,held", [
    ("lm", "classify", "TransformerLM, served as generate traffic"),
    ("lm", "both", "TransformerLM, served as generate traffic"),
    ("clf", "generate",
     "TransformerClassifier, served as classify traffic"),
], ids=["lm-classify", "lm-both", "clf-generate"])
@pytest.mark.parametrize("tier", [[], ["--replicas", "2"]],
                         ids=["engine", "tier"])
def test_mode_contradicting_snapshot_is_a_clean_error(
        snapshots, capsys, model, mode, held, tier):
    with pytest.raises(SystemExit) as excinfo:
        serve_main(["--engine-dir", snapshots[model], "--mode", mode,
                    *tier])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"error: --mode {mode} does not match" in err
    assert held in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["--max-batch-size", "0"], "max_batch_size must be >= 1"),
    (["--max-wait", "-1"], "max_wait must be >= 0"),
    (["--new-tokens", "0"], "max_new_tokens must be >= 1"),
    (["--preempt-after", "0"], "preempt_after must be >= 1"),
    (["--max-wait", "nan"], "max_wait must be >= 0 seconds, got nan"),
    (["--mode", "classify", "--requests", "-1"],
     "--requests must be >= 1"),
    (["--requests", "0"], "--requests must be >= 1"),
    (["--streams", "0"], "--streams must be >= 1"),
], ids=["max-batch-size", "max-wait", "new-tokens", "preempt-after",
        "max-wait-nan", "requests-negative", "requests", "streams"])
def test_bad_numeric_flags_are_clean_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        serve_main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["--replicas", "0"], "--replicas must be >= 1"),
    (["--requests", "0"], "requests must be >= 1"),
    (["--prompt-tokens", "5", "2"], "prompt_tokens range must satisfy"),
    (["--new-tokens", "3", "1"], "new_tokens range must satisfy"),
    (["--max-batch-size", "0"], "max_batch_size must be >= 1"),
    (["--step-token-budget", "0"], "step_token_budget must be >= 1"),
    (["--layers", "0"], "--layers must be >= 1"),
    (["--dim", "0"], "--dim must be a positive even number"),
    (["--dim", "3"], "--dim must be a positive even number"),
    (["--rate", "nan"], "arrival rates must be finite and > 0"),
    (["--burst-rate", "nan"], "arrival rates must be finite and > 0"),
    (["--ttft-slo", "0"], "ttft_target must be > 0"),
    (["--ttft-slo", "-1"], "ttft_target must be > 0"),
    (["--ttft-slo", "nan"], "ttft_target must be > 0"),
], ids=["replicas", "requests", "prompt-tokens", "new-tokens",
        "max-batch-size", "step-token-budget", "layers", "dim", "dim-odd",
        "rate-nan", "burst-rate-nan", "ttft-slo-zero", "ttft-slo-negative",
        "ttft-slo-nan"])
def test_loadgen_bad_flags_are_clean_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        loadgen_main(["--virtual", *argv])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


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
