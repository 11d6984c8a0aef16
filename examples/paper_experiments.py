"""Regenerate the paper's tables and figures from the command line.

Runs any subset of the 12 reproduced artifacts (fig2, fig6-fig14,
table1, table2) and prints their data tables.  Trained workloads flow
through the read-through WorkloadCache: with ``--cache-dir`` they
persist on disk (warm reruns train nothing), and with ``--jobs N``
training shards across N worker processes before the experiments
consume the shared cache.

Run:
    python examples/paper_experiments.py table1 fig12        # instant
    python examples/paper_experiments.py fig7 fig9 fig10     # trains subset
    python examples/paper_experiments.py fig7 --jobs 4 --cache-dir store
    python examples/paper_experiments.py fig7 --suite 'bert*'  # by suite glob
    python examples/paper_experiments.py --full all          # 43 tasks
"""

import argparse
import sys
import tempfile
import time

from repro.eval.experiments import (ALL_EXPERIMENTS,
                                    REPRESENTATIVE_WORKLOADS,
                                    STATIC_EXPERIMENTS, required_workloads)
from repro.eval.runner import WorkloadCache
from repro.eval.store import WorkloadStore
from repro.eval.workloads import (QUICK, WORKLOADS, list_suites,
                                  list_workloads)


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Regenerate LeOPArd paper artifacts")
    parser.add_argument("experiments", nargs="+",
                        help=f"any of {sorted(ALL_EXPERIMENTS)} or 'all'")
    parser.add_argument("--full", action="store_true",
                        help="use all 43 tasks instead of the "
                             "representative subset (slow)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workload names overriding "
                             "the representative subset")
    parser.add_argument("--suite", default=None,
                        help="run every workload whose suite matches "
                             "this glob (e.g. memn2n, 'bert*') — same "
                             "selection as python -m repro.eval.sweep")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel training worker processes for the "
                             "workload sweep")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk trained-model store; warm reruns "
                             "skip training entirely")
    parser.add_argument("--no-cache", action="store_true",
                        help="never touch a disk store; train in-process")
    parser.add_argument("--save-dir", default=None,
                        help="directory to write <artifact>.json/.txt")
    args = parser.parse_args(argv)

    # validate everything up front: a typo must exit with the valid
    # names, not raise a KeyError after minutes of training
    names = sorted(ALL_EXPERIMENTS) if "all" in args.experiments \
        else args.experiments
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}. "
                     f"Valid names: {', '.join(sorted(ALL_EXPERIMENTS))} "
                     "(or 'all').")

    if args.workloads and args.suite:
        parser.error("--workloads and --suite are mutually exclusive")
    if args.full and args.suite:
        parser.error("--full and --suite are mutually exclusive "
                     "(--suite already picks the workload set)")
    if args.workloads:
        workloads = [w.strip() for w in args.workloads.split(",")
                     if w.strip()]
        bad = [w for w in workloads if w not in WORKLOADS]
        if bad:
            parser.error(
                f"unknown workloads: {', '.join(bad)}. Valid names: "
                f"{', '.join(list_workloads())}")
    elif args.suite:
        workloads = list_workloads(args.suite)
        if not workloads:
            parser.error(f"suite glob {args.suite!r} matches nothing; "
                         "valid suites: " + ", ".join(list_suites()))
    elif args.full:
        workloads = list_workloads()          # the full 43-task registry
    else:
        workloads = list(REPRESENTATIVE_WORKLOADS)

    if args.no_cache and args.cache_dir:
        parser.error("--no-cache and --cache-dir are mutually exclusive")
    if args.no_cache and args.jobs > 1:
        parser.error("--jobs > 1 needs a store (drop --no-cache): "
                     "workers hand results back through the shared store")
    return parser, args, names, workloads


def main(argv=None):
    parser, args, names, workloads = _parse_args(argv)

    store = None
    ephemeral_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir
        if cache_dir is None and args.jobs > 1:
            cache_dir = ephemeral_dir = tempfile.mkdtemp(
                prefix="leopard-store-")
            print(f"[store] no --cache-dir given; using ephemeral "
                  f"{cache_dir}")
        if cache_dir is not None:
            store = WorkloadStore(cache_dir)
    try:
        return _run(args, names, workloads, store)
    finally:
        if ephemeral_dir is not None:
            import shutil
            shutil.rmtree(ephemeral_dir, ignore_errors=True)


def _run(args, names, workloads, store):
    cache = WorkloadCache(store)
    explicit = args.workloads is not None or args.suite is not None
    if explicit and ({"fig2", "baselines"} & set(names)):
        print("[note] fig2/baselines always use the default workload "
              "(bert_base_glue/G-QNLI); --workloads does not apply\n")

    # train (or rehydrate) everything the experiments will ask for, so
    # the figure/table code itself never trains
    needed = required_workloads(names, workloads, explicit=explicit)
    if needed and store is not None:
        report = cache.prefetch(needed, QUICK, jobs=args.jobs, echo=print)
        print(report.summary() + "\n")
        if report.failed:
            failed = ", ".join(o.workload for o in report.failed)
            print(f"error: sweep failed for {failed}", file=sys.stderr)
            return 1

    for name in names:
        runner = ALL_EXPERIMENTS[name]
        start = time.time()
        if name in STATIC_EXPERIMENTS:
            result = runner()
        elif name in ("fig2", "baselines"):
            result = runner(QUICK, cache=cache)    # single default workload
        elif name == "fig14":
            result = runner(QUICK, cache=cache,
                            workloads=workloads if explicit else None)
        else:
            result = runner(QUICK, workloads=workloads, cache=cache)
        elapsed = time.time() - start
        print(result.table)
        print(f"[{name} done in {elapsed:.1f}s]\n")
        if args.save_dir:
            from repro.eval.artifacts import save_experiment
            path = save_experiment(result, args.save_dir)
            print(f"[saved {path}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
