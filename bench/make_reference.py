"""Regenerate bench/reference.json: solve coefficients at the default seed.

    python3 bench/make_reference.py

Runs the first calls of each solve workload at the default seed through
`bqkz.cli.main`, checks every coefficient against the independent
adaptive-Simpson oracle in tests/_oracles.py to 1e-8 relative, and only
then writes the file.  The benchmark compares later runs at the default
seed against these values.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT, HERE]

from bqkz.integral_solver import CycleW, SolverParams  # noqa: E402
from tests._oracles import simpson_oracle  # noqa: E402

import worker  # noqa: E402

# Enough calls to cover what one run at the default seed reaches.
CALLS = {"solve-window": 6, "solve-tails": 2}
ORACLE_EPS = 1e-13


def oracle_error(entry: dict, coeffs: list) -> float:
    params = SolverParams(
        n=entry["n"],
        lam=complex(*entry["lambda"]),
        c=complex(*entry["c"]),
        k=complex(*entry["k"]),
        y=tuple(complex(*v) for v in entry["y"]),
    )
    cycle = CycleW(tuple((d, complex(*cf)) for d, cf in entry["cycle"]))
    scale = max(abs(v) for v in coeffs)
    err = max(
        abs(simpson_oracle(j, cycle, params, eps=ORACLE_EPS * scale) - v)
        for j, v in enumerate(coeffs, start=1)
    )
    return err / scale


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, count in CALLS.items():
            refs[name] = {}
            for call in worker.make_calls(name, worker.DEFAULT_SEED, tmp)[:count]:
                out = worker.run_call(call, {})
                if out.failed:
                    print("error: %s failed its gates: %s" % (name, out.notes), file=sys.stderr)
                    return 1
                for lam, entry in zip(call.lams, out.report["body"]["solutions"]):
                    coeffs = [complex(*v) for v in entry["coefficients"]]
                    err = oracle_error(entry, coeffs)
                    print("%s lambda=%r oracle relative difference %.3e" % (name, lam, err))
                    if err > worker.REFERENCE_RTOL:
                        print("error: oracle disagrees beyond %g" % worker.REFERENCE_RTOL,
                              file=sys.stderr)
                        return 1
                    refs[name][worker.lam_key(lam)] = entry["coefficients"]
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
