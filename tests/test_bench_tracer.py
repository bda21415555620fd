"""The benchmark tracer wraps package functions by name; every name it lists
must still resolve, and its wrappers must run a traced command, so a rename
or a changed signature fails here and not only in a traced run."""

import importlib
import importlib.util
import json
from pathlib import Path

from bqkz import cli, integral_solver
from bqkz.integral_solver import CycleW, SolverParams

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_tracer().TRACED
    assert traced
    for module_name, attr, _, _ in traced:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)


def test_traced_solve_records_the_solver_spans(tmp_path):
    """One traced `bqkz solve` at n = 1 records the residual_report span.  A
    report no longer calls solve_f, so a direct solve_f call records that
    span, and the solve_f observer reads its positional (lam, y)."""
    tracer = load_tracer()
    tr = tracer.Tracer()
    config = tmp_path / "solve.json"
    config.write_text(json.dumps({"model": {"n": 1}, "solve": {"lambda_grid": [0.25]}}))
    argv = ["solve", "--config", str(config), "--out-csv", str(tmp_path / "coeffs.csv"),
            "--out-json", str(tmp_path / "solve.json")]
    params = SolverParams(n=1, lam=0.25, c=0.1 + 0.2j, k=0.05 + 1.0j, y=(0.3,))
    tracer.install(tr)
    try:
        code = cli.main(argv)
        integral_solver.solve_f(params.lam, params.y, CycleW.monomial(1), params)
    finally:
        tr.unpatch()
    assert code == 0
    spans = tr.summary()
    for name in ("integral_solver.solve_f", "integral_solver.residual_report"):
        assert spans[name]["spans"] > 0, name
    assert tr.counters["solve_f.distinct"] > 0


def test_traced_transport_verify_records_the_check_spans(tmp_path):
    """One traced one-sample `bqkz verify` of the three transport suites
    exits 0 and records a span for each of their checks, so a signature
    that breaks a tracer observer fails here."""
    tracer = load_tracer()
    tr = tracer.Tracer()
    argv = ["verify", "--suite", "qkz-consistency", "--suite", "compatibility",
            "--suite", "cbar-qinv", "--samples", "1", "--out", str(tmp_path / "verify.json")]
    tracer.install(tr)
    try:
        code = cli.main(argv)
    finally:
        tr.unpatch()
    assert code == 0
    spans = tr.summary()
    for name in ("rqkz.transport_consistency_defect", "compat_ops.compat_three_term",
                 "compat_ops.compat_direct", "hecke_module.cbar_grouped"):
        assert spans[name]["spans"] > 0, name
