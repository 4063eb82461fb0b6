"""Print every end-to-end metric of every workload, by name and unit,
and check every answer.

    python3 perfbench/report.py [--seed N] [--seconds S]

Besides the metrics in BENCHMARK.json this prints tuples_per_s (on the
workloads that classify tuples) and failed_ratio, with the error kind
of each failed job.  Exits 1 when any job failed.
"""

from __future__ import annotations

import argparse
import sys
import time

import run
import workloads


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args(argv)
    any_failed = False
    for name in workloads.WORKLOADS:
        runner = run.Runner(name, args.seed, time.monotonic() + run.RUN_DEADLINE_S)
        try:
            metrics, extra, results, _ = run.measure(runner, args.seconds)
        finally:
            runner.close()
        run.print_summary(name, {**metrics, **extra}, results)
        any_failed |= any(r.failed for r in results)
        sys.stdout.flush()
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
