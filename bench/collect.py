"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 10 --out bench/baseline.json
    python3 bench/collect.py --workload solve-tails --seeds 5

For every workload and metric it records the values, their median, the
first and third quartiles (`statistics.quantiles(values, n=4)`) and the
spread, the distance between the quartiles as a share of the median.
Runs are sequential, one seed after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed: %s" % (workload, seed, proc.stderr.strip()))
    lines = proc.stdout.splitlines()
    machine = next(json.loads(l[len("machine "):]) for l in lines if l.startswith("machine "))
    return json.loads(lines[-1]), machine


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        values = {}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, summary["machine"] = run_once(workload, seed, args.seconds, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)
        stats = {name: summarise(v) for name, v in values.items()} if args.seeds > 1 else values
        summary["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                          "metrics": stats}
        if args.seeds > 1:
            for name, s in stats.items():
                print("  %-14s median %.5g  q1 %.5g  q3 %.5g  spread %.3f"
                      % (name, s["median"], s["q1"], s["q3"], s["spread"]), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
