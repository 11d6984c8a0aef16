"""Closed-loop serving benchmark for the LeOPArd reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds a model snapshot, serves it
through the public tier surface under a closed loop of clients, checks
the outputs against solo runs on a fresh engine, and prints one JSON
object as the last line of standard output: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads: unpinned, every
# process (and each tier worker) starts a BLAS pool per core and the
# pools oversubscribe the cores, so a run would measure the OS
# scheduler instead of the program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import numpy as np

    from repro.core import PrunedInferenceEngine
    from repro.core.engine import ensure_mmap_weights
    from repro.models import (ClassifierConfig, LMConfig,
                              TransformerClassifier, TransformerLM)
    from repro.serve import BatchPolicy, ServingEngine
    from repro.serve.procworkers import ProcessWorkerTier
    from repro.serve.workers import WorkerTier
except ImportError as error:
    sys.exit(f"perfbench: cannot import the program from "
             f"{os.path.join(ROOT, 'src')}: {error}")

from layers import LayerTracer, layer_metrics
from traffic import CALIBRATION, CHECKED, closed_loop, request_list, send

WORKLOADS = {
    # model, estimate_hardware, worker processes (0: in-process), clients
    "classify-hw": dict(model="classifier", hardware=True, procs=0,
                        clients=16),
    # one worker process: with two on a 2-vCPU host, every step waits
    # for the slower of two workers that share the cores with the
    # parent, and run-to-run spread doubled
    "generate-procs": dict(model="lm", hardware=False, procs=1,
                           clients=16),
}
MAX_BATCH = 8
SETUPS = 3        # set-ups per end-to-end run; setup_s is their median
# seconds of closed loop before the timed window, so that the window
# opens in steady state: every client busy and the opening burst of
# prefills, where all clients send at once, behind it
WARMUP = 3.0

UNITS = {"setup_s": "s", "tok_s": "tokens/s", "req_s": "requests/s",
         "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "tbt_p50_ms": "ms", "tbt_p90_ms": "ms", "mem_pss_mb": "MB",
         "pruning_rate": "ratio", "sim_speedup_x": "x",
         "sim_energy_reduction_x": "x"}


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# -- host and process diagnostics ---------------------------------------
def cpu_counters() -> tuple[int, int]:
    """(steal, total) jiffies of the whole host, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def family() -> list[int]:
    """This process and its direct children (tier workers)."""
    me = os.getpid()
    pids = [me]
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                parent = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if parent == me:
            pids.append(int(entry))
    return pids


def cpu_seconds(pids: list[int]) -> float:
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def pss_mb(pids: list[int]) -> float:
    """Proportional set size summed over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


class HostWindow:
    """Host steal share and process CPU per wall second over a phase:
    diagnostics that tell a slow host from a slow program."""

    def __init__(self):
        self.steal, self.total = cpu_counters()
        self.cpu = cpu_seconds(family())
        self.wall = time.monotonic()

    def read(self) -> dict:
        steal, total = cpu_counters()
        wall = time.monotonic() - self.wall
        return {"steal_share": (steal - self.steal)
                / max(total - self.total, 1),
                "cpu_per_wall": (cpu_seconds(family()) - self.cpu)
                / max(wall, 1e-9)}


# -- host speed ---------------------------------------------------------
# The host's speed drifts over minutes with no steal, so neither steal nor
# CPU time per wall second shows it.  A fixed probe, timed just before and
# just after the timed window (never inside it, where it would take time
# from the program), tells a slow host from a slow program.  It is a
# diagnostic only: no metric is corrected by it.
_PROBE_RNG = np.random.default_rng(0)
_PROBE_W = _PROBE_RNG.standard_normal((128, 256))
_PROBE_X = _PROBE_RNG.standard_normal((8, 128))
_PROBE_Q = _PROBE_RNG.integers(-2047, 2048, size=(2, 32, 64))
_PROBE_K = _PROBE_RNG.integers(-2047, 2048, size=(2, 48, 64))


def probe_ms(repeats: int = 9) -> float:
    """Median milliseconds of a fixed mix of small float matmuls, an
    int64 bit-plane einsum and Python dict work: the kinds of work the
    served program does, through none of its code."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(8):
            x = _PROBE_X @ _PROBE_W
            x = np.tanh(x) * 0.5 + x
            x = x[:, :128] @ _PROBE_W
        planes = (np.abs(_PROBE_K)[..., None] >> np.arange(11)) & 1
        np.einsum("hqd,hkdb->hqkb", _PROBE_Q, planes)
        table = {i: (i, str(i)) for i in range(400)}
        sum(value[0] for value in table.values())
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


# -- program set-up -----------------------------------------------------
def build_engine(kind: str) -> PrunedInferenceEngine:
    """The served model: dim 128, 4 layers, 2 heads, 64 positions, the
    same untrained weights (seed 0) in every run and the controller's
    default thresholds (zero); only the requests depend on the
    benchmark seed."""
    if kind == "lm":
        model = TransformerLM(LMConfig(
            vocab_size=64, max_seq_len=64, dim=128, num_heads=2,
            num_layers=4, seed=0))
    else:
        model = TransformerClassifier(ClassifierConfig(
            vocab_size=64, max_seq_len=64, dim=128, num_heads=2,
            num_layers=4, num_classes=2, seed=0))
    return PrunedInferenceEngine(model, model.make_controller())


def engine_kwargs(spec: dict) -> dict:
    return dict(policy=BatchPolicy(max_batch_size=MAX_BATCH, max_wait=0.0),
                continuous=True, estimate_hardware=spec["hardware"])


def set_up(spec: dict, directory: str, warmup) -> tuple[object, list,
                                                         float]:
    """Save a snapshot, load it into the workload's tier (forking the
    workers of a process tier) and serve one batch of warm-up
    requests.  Returns (tier, warm-up outcomes, seconds)."""
    start = time.monotonic()
    build_engine(spec["model"]).save(directory)
    if spec["procs"]:
        # expand the mmap weight sidecar once, before any fork: workers
        # expanding it concurrently on a cold start race on the files
        ensure_mmap_weights(directory)
        tier = ProcessWorkerTier.from_snapshot(
            directory, replicas=spec["procs"], **engine_kwargs(spec))
    else:
        tier = WorkerTier.from_snapshot(directory, replicas=1,
                                        **engine_kwargs(spec))
    try:
        outcomes, _, _ = closed_loop(tier, warmup, clients=MAX_BATCH,
                                     count=MAX_BATCH)
    except BaseException:
        close_tier(tier)
        raise
    return tier, outcomes, time.monotonic() - start


def close_tier(tier) -> None:
    if isinstance(tier, ProcessWorkerTier):
        tier.close()


# -- output check -------------------------------------------------------
def reference(spec: dict, directory: str, requests) -> list:
    """Serve each request alone on a fresh in-process engine with
    hardware estimation on: the exact results a tier must reproduce."""
    kwargs = engine_kwargs(spec)
    kwargs["estimate_hardware"] = True
    engine = ServingEngine(PrunedInferenceEngine.from_directory(directory),
                           **kwargs)
    results = []
    for request in requests:
        request_id = send(engine, request)
        engine.drain()
        results.append(engine.finish(request_id))
    return results


def failed(outcome) -> bool:
    return (outcome.result is None or outcome.error is not None
            or not outcome.result.ok)


def mismatches(spec: dict, outcomes, references) -> int:
    """Served results of the first ``CHECKED`` requests that differ
    from the solo references: tokens or prediction and logits, and on
    hardware workloads every ``HardwareEstimate`` field."""
    first = {o.index: o for o in outcomes if o.index < len(references)}
    wrong = 0
    for index, expect in enumerate(references):
        outcome = first.get(index)
        if outcome is None or failed(outcome):
            continue                     # counted as failed already
        got = outcome.result
        if expect.kind == "generate":
            same = np.array_equal(got.tokens, expect.tokens)
        else:
            same = (got.prediction == expect.prediction
                    and np.array_equal(got.logits, expect.logits))
        if spec["hardware"]:
            same = same and got.hardware == expect.hardware
        wrong += not same
    return wrong


def paper_quantities(references) -> dict:
    """The simulator's results over the calibration requests, in the
    paper's terms: their mean pruning rate, and the non-pruning
    baseline's summed cycles and energy over LeOPArd's.  The model is
    untrained with zero thresholds, so these guard the simulator
    against regressions; they are not comparable to the paper's
    figures."""
    estimates = [r.hardware for r in references[:CALIBRATION]]
    return {
        "pruning_rate": statistics.fmean(e.pruning_rate
                                         for e in estimates),
        "sim_speedup_x": (sum(e.baseline_runtime_ns for e in estimates)
                          / sum(e.runtime_ns for e in estimates)),
        "sim_energy_reduction_x": (
            sum(e.baseline_energy_pj for e in estimates)
            / sum(e.energy_pj for e in estimates)),
    }


def output_digest(outcomes) -> str:
    """sha256 over the served outputs of the checked requests: tokens
    or logits, and the hardware estimate."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        if outcome.index >= CHECKED:
            break
        result = outcome.result
        if result is None:
            digest.update(b"missing")
            continue
        output = result.tokens if result.kind == "generate" else result.logits
        digest.update(np.ascontiguousarray(output).tobytes())
        digest.update(repr(result.hardware).encode())
    return digest.hexdigest()


def requests_digest(requests) -> str:
    digest = hashlib.sha256()
    for request in requests:
        digest.update(np.ascontiguousarray(request.tokens).tobytes())
        digest.update(str(request.new_tokens).encode())
    return digest.hexdigest()


# -- end-to-end metrics -------------------------------------------------
def served_metrics(spec: dict, outcomes, start: float,
                   seconds: float) -> dict:
    """Figures of the timed window [start, start + seconds): the
    outputs stamped and the requests completed inside it, their client
    latency, and the output gaps that close inside it."""
    end = start + seconds
    inside = lambda stamps: (stamps >= start) & (stamps < end)
    ok = [o for o in outcomes if not failed(o)]
    done = [o for o in ok if start <= o.done < end]
    latencies = [(o.done - o.sent) * 1e3 for o in done]
    if spec["model"] == "lm":
        times = [np.asarray(o.result.timing.token_times) for o in ok]
        tokens = sum(np.count_nonzero(inside(t)) for t in times)
        gaps = np.concatenate([np.diff(t)[inside(t[1:])] for t in times])
    else:
        # one output per classify request: tokens are the input tokens
        # classified, gaps the cadence of steps that complete requests
        tokens = sum(len(o.request.tokens) for o in done)
        steps = np.unique([o.done for o in done])
        gaps = np.diff(steps)
    return {
        "tok_s": float(tokens) / seconds,
        "req_s": len(done) / seconds,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "tbt_p50_ms": percentile(gaps, 50) * 1e3,
        "tbt_p90_ms": percentile(gaps, 90) * 1e3,
    }


def end_to_end(spec: dict, args, workdir: str) -> tuple[dict, dict]:
    requests = request_list(spec["model"], args.seed)
    attempted = failures = 0
    setups, tier, directory = [], None, None
    for attempt in range(SETUPS):
        path = os.path.join(workdir, f"snapshot{attempt}")
        attempted += 1
        try:
            started, warm, seconds = set_up(spec, path,
                                            requests[:MAX_BATCH])
        except Exception as error:       # noqa: BLE001 — counted, no retry
            failures += 1
            print(f"perfbench: set-up {attempt} failed: "
                  f"{type(error).__name__}: {error}", file=sys.stderr)
            continue
        if tier is not None:
            close_tier(tier)
        tier, directory = started, path
        attempted += len(warm)
        failures += sum(map(failed, warm))
        setups.append(seconds)
    if tier is None:
        raise RuntimeError("no tier started")
    try:
        probe_before = probe_ms()
        host = HostWindow()
        outcomes, start, _ = closed_loop(tier, requests, spec["clients"],
                                         seconds=args.seconds,
                                         warmup=WARMUP)
        diagnostics = host.read()
        probe_after = probe_ms()
        memory = pss_mb(family())
    finally:
        close_tier(tier)
    references = reference(spec, directory, requests[:CHECKED])
    wrong = mismatches(spec, outcomes, references)
    attempted += len(outcomes)
    failures += sum(map(failed, outcomes)) + wrong
    metrics = served_metrics(spec, outcomes, start, args.seconds)
    metrics["setup_s"] = statistics.median(setups)
    metrics["mem_pss_mb"] = memory
    metrics.update(paper_quantities(references))
    diagnostics.update(
        probe_ms_before=probe_before, probe_ms_after=probe_after,
        attempted=attempted, failed=failures, mismatches=wrong,
        error_rate=failures / attempted, requests=len(outcomes),
        setup_runs_s=setups, output_digest=output_digest(outcomes),
        requests_digest=requests_digest(requests))
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in UNITS.items()}
    return result, {"attempted": attempted, "failed": failures,
                    "diagnostics": diagnostics}


def traced(spec: dict, args, workdir: str) -> tuple[dict, dict]:
    """An untraced closed-loop phase of ``--seconds``, then the same
    requests again through a fresh tier with every layer wrapped.  The
    traced wall time over the untraced one is the tracing overhead."""
    requests = request_list(spec["model"], args.seed)
    warmup = requests[:MAX_BATCH]
    directory = os.path.join(workdir, "untraced")
    tier, warm, _ = set_up(spec, directory, warmup)
    try:
        plain, plain_start, plain_end = closed_loop(
            tier, requests, spec["clients"], seconds=args.seconds)
    finally:
        close_tier(tier)
    tracer = LayerTracer()
    # installed before the tier starts, so process workers fork with
    # the wrappers in place
    tracer.install()
    try:
        tier, warm_traced, _ = set_up(
            spec, os.path.join(workdir, "traced"), warmup)
        try:
            tracer.reset()
            outcomes, start, end = closed_loop(
                tier, requests, spec["clients"], count=len(plain))
            preemptions = tier.stats_summary()["tier"]["preemptions"]
        finally:
            close_tier(tier)
    finally:
        tracer.uninstall()
    os.makedirs(os.path.join(SCRATCH, "spans"), exist_ok=True)
    tracer.save_spans(os.path.join(
        SCRATCH, "spans", f"{args.workload}-seed{args.seed}.npz"))
    references = reference(spec, directory, requests[:CHECKED])
    wrong = (mismatches(spec, plain, references)
             + mismatches(spec, outcomes, references))
    every = warm + plain + warm_traced + outcomes
    attempted = len(every)
    failures = sum(map(failed, every)) + wrong
    waits = [(o.result.timing.first_token - o.result.timing.arrival) * 1e3
             for o in outcomes if not failed(o)]
    result = layer_metrics(tracer, wall=end - start,
                           plain_wall=plain_end - plain_start)
    result.update({
        "serve.streams.preemptions": {"value": preemptions,
                                      "unit": "count"},
        "serve.batcher.queue_wait_p50_ms": {"value": percentile(waits, 50),
                                            "unit": "ms"},
        "serve.batcher.queue_wait_p90_ms": {"value": percentile(waits, 90),
                                            "unit": "ms"},
    })
    return result, {"attempted": attempted, "failed": failures,
                    "diagnostics": {
                        "mismatches": wrong, "requests": len(outcomes),
                        "output_digest": output_digest(outcomes),
                        "requests_digest": requests_digest(requests)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec = WORKLOADS[args.workload]
    workdir = os.path.join(SCRATCH, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = traced if args.trace else end_to_end
        metrics, counts = run(spec, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "diagnostics": counts["diagnostics"]}))
    print(json.dumps({"correct": counts["failed"] == 0,
                      "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
