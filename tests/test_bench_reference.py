"""`bench/make_reference.py` regenerates the benchmark's reference
coefficients and checks each against the adaptive-Simpson oracle first.
Nothing else runs it, so this test drives its oracle check on one solve-tails
point: a rename or a changed signature it depends on fails here, not only
when the reference is next regenerated."""

import importlib.util
import json
import sys
from pathlib import Path

from bqkz import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAMBDA = "-0.104741411"


def load_make_reference():
    """The script as a module; it prepends to sys.path, which is restored."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_make_reference",
                                                      BENCH / "make_reference.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_reference_script_checks_a_solve_tails_point_against_the_oracle(tmp_path):
    script = load_make_reference()
    config = tmp_path / "solve.json"
    config.write_text(json.dumps({"model": {"n": 1}, "solve": {"lambda_grid": [float(LAMBDA)]}}))
    report = tmp_path / "report.json"
    assert cli.main(["solve", "--config", str(config), "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(report)]) == 0
    (entry,) = json.loads(report.read_text())["body"]["solutions"]
    coeffs = [complex(*v) for v in entry["coefficients"]]
    assert script.oracle_error(entry, coeffs) <= script.worker.REFERENCE_RTOL
    want = [complex(*v) for v in json.loads((BENCH / "reference.json").read_text())
            ["solve-tails"][LAMBDA]]
    assert len(coeffs) == len(want)
    scale = max(abs(w) for w in want)
    assert max(abs(g - w) for g, w in zip(coeffs, want)) <= 1e-8 * scale
