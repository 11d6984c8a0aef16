"""Shared fixtures for the per-figure/table benchmark harness.

Training the workload suite is the expensive step, so a session-scoped
cache trains each benchmark task exactly once (at QUICK scale) and the
individual benchmarks measure the analysis/simulation on top of it.

Opt into persistence and sharding via the environment:

``REPRO_CACHE_DIR=path``
    back the cache with an on-disk WorkloadStore — a warm rerun of the
    benchmark session rehydrates every trained model and trains nothing.
``REPRO_JOBS=N``
    shard the cold training sweep across N worker processes (needs
    ``REPRO_CACHE_DIR``; ignored without it).

``BENCH_WORKLOADS`` is a representative cross-suite subset — one run of
``pytest benchmarks/ --benchmark-only`` finishes in a few minutes.  Use
``examples/paper_experiments.py --full all`` for the full 43-task sweep.
"""

import os

import pytest

from repro.eval.experiments import REPRESENTATIVE_WORKLOADS
from repro.eval.runner import WorkloadCache
from repro.eval.workloads import QUICK

# the single source of truth lives next to the experiments so the
# cache fixture and `workloads=None` defaults always train the same set
BENCH_WORKLOADS = list(REPRESENTATIVE_WORKLOADS)


@pytest.fixture(scope="session")
def scale():
    return QUICK


@pytest.fixture(scope="session")
def trained(scale):
    """Cache with every benchmark workload trained (or rehydrated) once."""
    store = None
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if cache_dir:
        from repro.eval.store import WorkloadStore
        store = WorkloadStore(cache_dir)
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    if store is None:
        jobs = 1        # parallel workers hand results back via the store
    cache = WorkloadCache(store)
    report = cache.prefetch(BENCH_WORKLOADS, scale, jobs=jobs)
    if report.failed:
        failures = "; ".join(f"{o.workload}: {o.error}"
                             for o in report.failed)
        raise RuntimeError(f"benchmark workload training failed — "
                           f"{failures}")
    return cache


def run_once(benchmark, fn):
    """Benchmark a (possibly heavy) experiment with a single round."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
