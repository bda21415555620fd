"""Check that the deterministic per-layer counts repeat exactly.

    python3 bench/repeat_counts.py [--seed 0] [--workload solve-window ...]

Makes two traced runs of each workload at one seed and compares every
per-layer metric with unit `count` or `ratio` (except the tracing
overhead, which is a time ratio).  A traced run covers a fixed set of
calls, so these must agree to the last digit; exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from collect import run_once  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    mismatches = 0
    for workload in args.workload or WORKLOADS:
        first, second = (run_once(workload, args.seed, 1, 1)[0]["metrics"] for _ in range(2))
        counted = [n for n, m in first.items()
                   if m["unit"] in ("count", "ratio") and n != "trace.overhead_frac"]
        bad = [n for n in counted if first[n]["value"] != second[n]["value"]]
        mismatches += len(bad)
        print("%s: %d counts, %d differ%s" % (workload, len(counted), len(bad),
                                              "".join("\n  %s: %r vs %r" % (
                                                  n, first[n]["value"], second[n]["value"])
                                                  for n in bad)))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
