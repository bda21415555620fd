"""One benchmark process: set up a workload, drive `bqkz.cli.main`, gate it.

Run by `bench/run.py` in a fresh interpreter with `src` on the import
path.  It prints `ready` once set-up is done (import, config load, input
generation), then runs the workload and prints one JSON line with the
counts of attempted and failed items and the metrics it measured.

    python3 bench/worker.py --workload solve-window --seed 3 --seconds 25 \
        --trace 0 --out bench/out
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy

import bqkz.cli as cli
import tracer
from bqkz.scalar_field import RATIONAL_BACKEND

HERE = os.path.dirname(os.path.abspath(__file__))

DEFAULT_SEED = 0
SOLVE_TOLERANCE = 1e-7
REFERENCE_RTOL = 1e-8
MAX_CALLS = 64

LIGHT_SUITES = (
    "ybe", "bybe", "unitarity", "lemma-AA", "lemma-LL", "cross-derivative",
    "comm-IM", "aha-relations", "phi-iso", "l-restriction",
)
TRANSPORT_SUITES = ("qkz-consistency", "compatibility", "cbar-qinv")


@dataclass
class Call:
    """One `bqkz.cli.main` invocation and the items it covers."""

    argv: list
    items: int
    report: str
    lams: list = field(default_factory=list)


@dataclass(frozen=True)
class Verify:
    """`bqkz verify` on fixed suites; each call draws fresh points."""

    suites: tuple
    samples: int
    trace_calls: int

    def make_calls(self, rng, tmp: str) -> list:
        report = os.path.join(tmp, "verify.json")
        calls = []
        for _ in range(MAX_CALLS):
            argv = ["verify"]
            for name in self.suites:
                argv += ["--suite", name]
            argv += ["--samples", str(self.samples), "--seed", str(rng.randrange(10**9)),
                     "--out", report]
            calls.append(Call(argv, len(self.suites) * self.samples, report))
        return calls

    def config_path(self, calls):
        return None


@dataclass(frozen=True)
class Solve:
    """`bqkz solve` at model size n over lambda points whose 1 - frac(lambda)
    lies in `band`.  With `antithetic`, each call pairs u with the band's
    mirror image, so every call carries the same spread of truncations."""

    n: int
    band: tuple
    per_call: int
    trace_calls: int
    antithetic: bool = False

    def _fracs(self, rng) -> list:
        lo, hi = self.band
        if self.antithetic:
            out = []
            while len(out) < self.per_call:
                u = rng.uniform(lo, hi)
                out += [u, lo + hi - u]
            return out[: self.per_call]
        return [rng.uniform(lo, hi) for _ in range(self.per_call)]

    def make_calls(self, rng, tmp: str) -> list:
        csv_path = os.path.join(tmp, "coeffs.csv")
        report = os.path.join(tmp, "solve.json")
        calls = []
        for i in range(MAX_CALLS):
            # lambda = I - u has 1 - frac(lambda) = u for u in (0, 1).
            lams = [round(rng.choice((0, 1)) - u, 9) for u in self._fracs(rng)]
            cfg_path = os.path.join(tmp, "solve-%d.json" % i)
            with open(cfg_path, "w") as fh:
                json.dump({"model": {"n": self.n}, "solve": {"lambda_grid": lams}}, fh)
            argv = ["solve", "--config", cfg_path, "--out-csv", csv_path,
                    "--out-json", report]
            calls.append(Call(argv, len(lams), report, lams))
        return calls

    def config_path(self, calls):
        return calls[0].argv[2]


WORKLOADS = {
    "verify-transport": Verify(TRANSPORT_SUITES, samples=1, trace_calls=2),
    "verify-light": Verify(LIGHT_SUITES, samples=3, trace_calls=6),
    "solve-window": Solve(n=2, band=(0.6, 0.9), per_call=4, trace_calls=2),
    "solve-tails": Solve(n=1, band=(0.100, 0.125), per_call=2, trace_calls=1,
                         antithetic=True),
}


def make_calls(workload: str, seed: int, tmp: str) -> list:
    """The workload's calls for a seed; the same seed gives the same calls."""
    rng = random.Random("%s:%d" % (workload, seed))
    return WORKLOADS[workload].make_calls(rng, tmp)


def load_references() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def lam_key(lam: float) -> str:
    return "%.9f" % lam


@dataclass
class Outcome:
    wall: float
    items: int
    failed: int
    report: dict = None
    notes: list = field(default_factory=list)


def run_call(call: Call, refs: dict) -> Outcome:
    """Drive the CLI once and apply every correctness gate to its output."""
    if os.path.exists(call.report):
        os.remove(call.report)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(call.argv)
    except Exception:
        wall = time.perf_counter() - start
        traceback.print_exc()
        return Outcome(wall, call.items, call.items, notes=["exception"])
    wall = time.perf_counter() - start
    try:
        with open(call.report) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return Outcome(wall, call.items, call.items, notes=["exit %d, no report" % rc])
    failed = 0
    notes = []
    if call.lams:
        solutions = report["body"]["solutions"]
        for lam, entry in zip(call.lams, solutions):
            worst = max(entry["max_qkz_residual"], entry["ode_residual"],
                        entry["ftilde_residual"])
            bad = worst > SOLVE_TOLERANCE
            if bad:
                notes.append("lambda=%r residual %.3e" % (lam, worst))
            ref = refs.get(lam_key(lam))
            if ref is not None:
                got = [complex(*v) for v in entry["coefficients"]]
                want = [complex(*v) for v in ref]
                scale = max(abs(w) for w in want)
                err = max(abs(g - w) for g, w in zip(got, want))
                if len(got) != len(want) or err > REFERENCE_RTOL * scale:
                    bad = True
                    notes.append("lambda=%r coefficients off reference by %.3e" % (lam, err / scale))
            failed += bad
        if len(solutions) != len(call.lams):
            failed = call.items
    else:
        failed = sum(s["failures"] for s in report["body"]["suites"])
        for s in report["body"]["suites"]:
            if not s["exact_zero"]:
                notes.append("suite %s not exact_zero" % s["name"])
    if rc != 0:
        notes.append("exit %d" % rc)
        if failed == 0:
            failed = call.items
    return Outcome(wall, call.items, failed, report, notes)


def run_pass(calls, refs, seconds=None) -> list:
    """Run calls in order; with `seconds`, stop before a call that the mean
    call time so far says would end after the budget."""
    done = []
    elapsed = 0.0
    for call in calls:
        if seconds is not None and done and elapsed + elapsed / len(done) > seconds:
            break
        out = run_call(call, refs)
        done.append(out)
        elapsed += out.wall
    return done


def per_item_seconds(outcomes) -> float:
    return statistics.median(o.wall / o.items for o in outcomes)


def traced_run(workload, calls, refs, args) -> dict:
    """Run each of the workload's trace calls once untraced and once traced,
    alternating which goes first so warm-up does not bias the overhead; the
    per-layer metrics come from the traced calls."""
    tr = tracer.Tracer()
    plain, traced = [], []
    for i, call in enumerate(calls[: workload.trace_calls]):
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            if not tracing:
                plain.append(run_call(call, refs))
                continue
            tracer.install(tr)
            try:
                traced.append(run_call(call, refs))
            finally:
                tr.unpatch()
    tr.dump(os.path.join(args.out, "spans-%s-seed%d.npz" % (args.workload, args.seed)))
    return {"outcomes": plain + traced, "metrics": tracer.layer_metrics(tr, plain, traced)}


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": numpy.__version__,
        "rational_backend": RATIONAL_BACKEND,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for results and spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=args.out)
    try:
        calls = make_calls(args.workload, args.seed, tmp)
        cli.load_config(workload.config_path(calls))
        refs = load_references().get(args.workload, {}) if args.seed == DEFAULT_SEED else {}
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced_run(workload, calls, refs, args)
        else:
            outcomes = run_pass(calls, refs, seconds=args.seconds)
            result = {
                "outcomes": outcomes,
                "metrics": {
                    "s_per_item": per_item_seconds(outcomes),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                },
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    outcomes = result["outcomes"]
    line = {
        "attempted": sum(o.items for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "calls": len(outcomes),
        "notes": [n for o in outcomes for n in o.notes][:20],
        "machine": machine_facts(),
        "metrics": result["metrics"],
    }
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(args.out, name), "w") as fh:
        json.dump(line, fh, indent=1, sort_keys=True)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
