"""Tracing overhead: the same rounds run untraced and traced, alternately.

    python3 perfbench/overhead.py --workload NAME --seed N --pairs 5

Prints the median of traced/untraced round time over the pairs.
"""

from __future__ import annotations

import argparse
import statistics
import time

import run
import tracing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args()
    tk = run.load_program()
    wl = run.workload_for(args.workload, tk)
    ops = wl.make_round(next(run.rounds(args.workload, args.seed)))
    run.run_ops(wl, ops)
    ratios = []
    for _ in range(args.pairs):
        t0 = time.perf_counter()
        run.run_ops(wl, ops)
        plain = time.perf_counter() - t0
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            run.run_ops(wl, ops)
            traced = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        ratios.append(traced / plain)
        print(f"untraced {plain:.3f} s  traced {traced:.3f} s  spans {len(tracer.spans)}")
    print(f"{args.workload}: median traced/untraced = {statistics.median(ratios):.4f} over {args.pairs} pairs")


if __name__ == "__main__":
    main()
