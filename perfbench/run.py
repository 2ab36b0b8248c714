"""radnorm benchmark: entry point.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads: kernel_sweep, oracle_verify, cli_mix (see perfbench/README.md).

--trace 0 measures the end-to-end metrics: set-up time is the median over
SETUP_SAMPLES fresh worker processes, then one worker runs a closed loop for
T seconds (whole blocks).  --trace 1 measures the per-layer metrics: the
first N operations of the same seeded stream run once untraced and once with
span wrappers, each in a fresh interpreter; N grows with T and repeats
exactly for a given seed and T.

The last stdout line is the JSON result; the line before it is a record
with the input digest, operation count and error rate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TRACE_DIR = ROOT / ".perfbench" / "trace"
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170
# Untraced operations per second of --seconds in a traced run; the traced
# pass that follows runs the same operations more slowly.
TRACE_OPS_PER_S = {"kernel_sweep": 3.75, "oracle_verify": 1.5, "cli_mix": 1.44}


class BenchError(Exception):
    pass


def _spawn(args: list[str]) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )


def _run_worker(args: list[str]) -> tuple[float, dict | None]:
    """Seconds from spawn to "ready", and the worker's JSON summary if any."""
    start = time.perf_counter()
    proc = _spawn(args)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    setup = [_run_worker([workload, str(seed), "--setup-only"])[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, summary = _run_worker([workload, str(seed), "--seconds", str(seconds)])
    setup.append(setup_s)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_s": (summary["throughput_ops_s"], "1/s"),
        "latency_p50_ms": (summary["latency_p50_ms"], "ms"),
        "latency_p90_ms": (summary["latency_p90_ms"], "ms"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, summary


def per_layer(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    ops = max(1, math.ceil(seconds * TRACE_OPS_PER_S[workload]))
    _, plain = _run_worker([workload, str(seed), "--ops", str(ops)])
    shutil.rmtree(TRACE_DIR, ignore_errors=True)
    TRACE_DIR.mkdir(parents=True)
    _, traced = _run_worker([workload, str(seed), "--ops", str(ops), "--trace-dir", str(TRACE_DIR)])
    metrics = spans.layer_metrics(
        sorted(TRACE_DIR.glob("*.spans")),
        process_s=traced["cli_process_s"],
        output_bytes=traced["cli_output_bytes"],
        throughput_ratio=traced["throughput_ops_s"] / plain["throughput_ops_s"],
    )
    summary = dict(traced)
    summary["attempted"] += plain["attempted"]
    summary["failed"] += plain["failed"]
    summary["untraced_throughput_ops_s"] = plain["throughput_ops_s"]
    return metrics, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(TRACE_OPS_PER_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "radnorm" / "__init__.py").is_file():
        print(f"perfbench: no radnorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    measure = per_layer if args.trace else end_to_end
    try:
        metrics, summary = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = summary["attempted"], summary["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": summary["inputs_sha256"],
        "operations": attempted,
        "samples_beyond_p90": summary["samples_beyond_p90"],
        "error_rate": failed / attempted,
        "python": sys.version.split()[0],
    }
    if args.trace:
        record["untraced_throughput_ops_s"] = summary["untraced_throughput_ops_s"]
        record["traced_throughput_ops_s"] = summary["throughput_ops_s"]
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
