"""Benchmark for triplekit: four workloads, checked outputs, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  With --trace 0 the last line of stdout holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported here or in any child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5


def load_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "triplekit", "__init__.py")):
        sys.exit(f"error: no triplekit sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, src)
    import triplekit
    if not os.path.abspath(triplekit.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"error: triplekit was imported from {triplekit.__file__}, not from {src}")
    return triplekit


def workload_for(name, tk):
    return WORKLOADS[name](tk, ROOT)


def rounds(name, seed):
    """The seeded stream of rounds: round r depends only on (name, seed, r)."""
    r = 0
    while True:
        yield random.Random(f"{name}:{seed}:{r}")
        r += 1


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, -(-pct * len(s) // 100) - 1)]


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def check(self, wl, ops, outs):
        for op, out in zip(ops, outs):
            self.attempted += 1
            problems = [f"raised {out!r}"] if isinstance(out, Exception) else wl.check(op, out)
            if not problems:
                continue
            self.failed += 1
            if not wl.known_fault(op, problems):
                self.correct = False
                print(f"check failed ({wl.name}): {'; '.join(problems)[:2000]}", file=sys.stderr)

    def self_test(self, wl, ops, outs):
        """Every check must reject each corrupted copy of a correct output."""
        for op, out in zip(ops, outs):
            if isinstance(out, Exception) or wl.check(op, out):
                continue
            for i, bad in enumerate(wl.corrupt(op, out)):
                if not wl.check(op, bad):
                    self.correct = False
                    print(f"check self-test: corruption {i} of a {wl.name} output was accepted",
                          file=sys.stderr)


def run_ops(wl, ops, times=None):
    outs = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:          # counted as a failed operation, not a crash
            out = exc
        if times is not None:
            times.append(time.perf_counter() - t0)
        outs.append(out)
    return outs


def setup_probe(args):
    """Child mode: import, build the first round, run one warm-up operation."""
    wl = workload_for(args.workload, load_program())
    ops = wl.make_round(next(rounds(args.workload, args.seed)))
    if isinstance(run_ops(wl, wl.warmup(ops)[:1])[0], Exception):
        sys.exit("error: warm-up operation raised")


def setup_seconds(args):
    """Median time for a fresh interpreter to become ready to time."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed: {proc.stderr[-2000:]}")
    return statistics.median(samples)


def measure(args, wl):
    setup_s = setup_seconds(args)
    stream = rounds(wl.name, args.seed)
    first = wl.make_round(next(stream))
    tally = Tally()
    run_ops(wl, wl.warmup(first))
    times = []
    ops = first
    while True:
        outs = run_ops(wl, ops, times)
        tally.check(wl, ops, outs)
        if ops is first:
            tally.self_test(wl, ops, outs)
        if sum(times) >= args.seconds and len(times) >= wl.min_ops:
            break
        ops = wl.make_round(next(stream))
    if wl.name == "cli":
        rss_kb = wl.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_tail_ms": (1e3 * percentile(times, wl.tail_pct), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    raw = {"op_seconds": times, "tail_pct": wl.tail_pct}
    return tally, metrics, raw


def measure_traced(args, tk, wl):
    """Trace a fixed sample: trace_rounds rounds of the named workload and
    one round of each other one, so every layer's metrics are measured and
    the counts repeat exactly for a seed."""
    import tracing
    names = [wl.name] + [n for n in WORKLOADS if n != wl.name]
    plan = []
    for name in names:
        w = wl if name == wl.name else workload_for(name, tk)
        stream = rounds(name, args.seed)
        batches = [w.make_round(next(stream)) for _ in range(w.trace_rounds if w is wl else 1)]
        run_ops(w, w.warmup(batches[0]))
        plan += [(w, ops) for ops in batches]
    tracer = tracing.Tracer()
    tracer.install()
    cli_times = {"exact": [], "vortex": []}
    try:
        results = []
        for w, ops in plan:
            times = []
            results.append((w, ops, run_ops(w, ops, times)))
            if w.name == "cli":
                for op, t in zip(ops, times):
                    cli_times["vortex" if op["cmd"].startswith("vortex") else "exact"].append(1e3 * t)
    finally:
        tracer.uninstall()
    tally = Tally()
    for w, ops, outs in results:
        tally.check(w, ops, outs)
    metrics = tracer.metrics()
    metrics.update(tracing.cli_layer(ROOT))
    metrics["cli.exact_cmd_p50_ms"] = (statistics.median(cli_times["exact"]), "ms")
    metrics["cli.vortex_cmd_p50_ms"] = (statistics.median(cli_times["vortex"]), "ms")
    return tally, metrics, tracer


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args)
        return
    tk = load_program()
    wl = workload_for(args.workload, tk)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tally, metrics, tracer = measure_traced(args, tk, wl)
        tracer.write(stem + ".spans.jsonl")
        raw = {}
    else:
        tally, metrics, raw = measure(args, wl)
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, raw=raw), fh)
    for k, (v, u) in metrics.items():
        print(f"{k:45s} {v:14.4f} {u}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
