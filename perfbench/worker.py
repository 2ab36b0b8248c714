"""One benchmark process: set up, run a closed loop, check, report.

Usage:
  python3 perfbench/worker.py WORKLOAD SEED --setup-only
  python3 perfbench/worker.py WORKLOAD SEED --seconds T
  python3 perfbench/worker.py WORKLOAD SEED --ops N [--trace-dir DIR]

Started by run.py in a fresh interpreter with src/ on PYTHONPATH, so
radnorm's memo caches start cold.  The worker imports radnorm, generates its
inputs from SEED and prints "ready" once the first operation may start; the
parent measures set-up time up to that line.  It then runs operations one
at a time: for T seconds rounded up to a whole block, or exactly the first N
operations.  Outputs are checked after the loop, and the last stdout line is
a JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from itertools import chain, islice
from pathlib import Path

# Blocks generated during set-up and hashed into the input digest; a run
# that needs more keeps drawing from the same seeded stream.
PREGENERATED_BLOCKS = 64


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--ops", type=int)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args()

    import workloads  # imports radnorm: set-up cost users pay on every start

    workload = workloads.WORKLOADS[args.workload]()
    if workload.name == "cli_mix":
        # Its children import the CLI; importing it here too lets set-up
        # time show a change in the CLI's import cost.
        import radnorm.cli  # noqa: F401
    stream = workload.blocks(args.seed)
    pregenerated = list(islice(stream, PREGENERATED_BLOCKS))
    digest = hashlib.sha256(json.dumps(pregenerated, default=str).encode()).hexdigest()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    run = workload.run
    if args.trace_dir is not None and workload.name == "cli_mix":
        workload.trace_dir = args.trace_dir  # each child traces itself
    elif args.trace_dir is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        run = tracer.wrap("op." + workload.name, workload.run)

    blocks = chain(pregenerated, stream)
    if args.ops is not None:
        blocks = [list(islice(chain.from_iterable(blocks), args.ops))]
    done: list[tuple[object, object]] = []
    latencies: list[float] = []
    raised = 0
    clock = time.perf_counter
    loop_start = clock()
    for block in blocks:
        for op in block:
            start = clock()
            try:
                done.append((op, run(op)))
            except Exception as exc:  # any failing operation is counted, not fatal
                raised += 1
                print(f"operation {op!r} raised {exc!r}", file=sys.stderr)
            latencies.append(clock() - start)
        if args.seconds is not None and clock() - loop_start >= args.seconds:
            break
    elapsed = clock() - loop_start
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli_mix" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux

    if tracer is not None:
        tracer.write(args.trace_dir / "worker.spans", spans.cache_counters())

    wrong = 0
    for op, result in done:
        try:
            ok = workload.check(op, result)
        except Exception as exc:  # a result that cannot be parsed is wrong
            ok = False
            print(f"checking {op!r} raised {exc!r}", file=sys.stderr)
        if not ok:
            wrong += 1
            print(f"operation {op!r} returned a wrong result", file=sys.stderr)

    p90 = _percentile(latencies, 90)
    summary = {
        "attempted": len(latencies),
        "failed": raised + wrong,
        "elapsed_s": elapsed,
        "throughput_ops_s": len(latencies) / elapsed,
        "latency_p50_ms": _percentile(latencies, 50) * 1000.0,
        "latency_p90_ms": p90 * 1000.0,
        "samples_beyond_p90": sum(1 for v in latencies if v > p90),
        "peak_rss_mb": peak_rss_mb,
        "inputs_sha256": digest,
        "cli_process_s": getattr(workload, "process_s", 0.0),
        "cli_output_bytes": getattr(workload, "output_bytes", 0),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
