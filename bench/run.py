"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload verify-transport --seed 0 --seconds 25 --trace 0

Run from the repository root.  Each run starts fresh interpreters with
`src` on the import path and BQKZ_THREADS unset, so `bqkz` runs serially
from source.  It first times set-up alone several times (interpreter
start, `import bqkz.cli`, config load, input generation) and reports the
median, then starts one worker that drives the workload for `--seconds`
and checks every output.  The last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
they are the per-layer ones from a traced pass (see bench/METRICS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 5
WORKER_TIMEOUT = 170.0
WORKLOADS = ("verify-transport", "verify-light", "solve-window", "solve-tails")
UNITS = {"s_per_item": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BQKZ_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, setup_only: bool):
    """Start a worker; return (seconds until it printed `ready`, its lines)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT)
    deadline = start + WORKER_TIMEOUT
    buf = b""
    ready = None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise WorkerError("worker exceeded %.0f s" % WORKER_TIMEOUT)
            readable, _, _ = select.select([fd], [], [], left)
            if not readable:
                continue
            chunk = os.read(fd, 65536)
            if ready is None and b"ready\n" in buf + chunk:
                ready = time.perf_counter() - start
            if not chunk:
                break
            buf += chunk
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None:
        raise WorkerError("worker exited with code %d" % rc)
    return ready, buf.decode().splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bqkz benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bqkz", "cli.py")):
        print("error: no bqkz sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    try:
        setups = [run_worker(args, setup_only=True)[0] for _ in range(SETUP_REPS)]
        _, lines = run_worker(args, setup_only=False)
        result = json.loads(lines[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    if args.trace:
        sys.path.insert(0, HERE)
        from tracer import LAYER_METRICS

        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        result["metrics"]["setup_s"] = statistics.median(setups)
        units = UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    attempted, failed = result["attempted"], result["failed"]
    print("workload %s seed %d trace %d: %d calls, %d items, %d failed (fail_frac %.4g)"
          % (args.workload, args.seed, args.trace, result["calls"], attempted, failed,
             failed / attempted))
    for note in result["notes"]:
        print("  failure: %s" % note)
    print("machine %s" % json.dumps(result["machine"], sort_keys=True))
    for name, m in metrics.items():
        print("  %-48s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
