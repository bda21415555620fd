"""Acceptance gate: one test per certified guarantee, at its stated
tolerance and time budget.  Run with -v for one pass/fail line each."""

import cmath
import json
import math
import time

from _oracles import simpson_oracle

from bqkz import cli
from bqkz.integral_solver import CycleW, SolverParams, solve_f
from bqkz.scalar_field import log_gamma
from bqkz.suites import run_suite

SEED = 20240817


def run_clean(name, samples, budget=None):
    start = time.perf_counter()
    result = run_suite(name, samples=samples, seed=SEED)
    elapsed = time.perf_counter() - start
    assert result.exact_zero, (name, result.failures, result.notes)
    assert result.samples >= samples
    if budget is not None:
        assert elapsed < budget, (name, elapsed)
    return elapsed


def test_criterion_1_exchange_and_reflection_braids():
    start = time.perf_counter()
    run_clean("ybe", 100)
    run_clean("bybe", 100)
    assert time.perf_counter() - start < 30.0


def test_criterion_2_transport_consistency():
    run_clean("qkz-consistency", 100, budget=120.0)


def test_criterion_3_operator_lemmas():
    run_clean("lemma-AA", 100)
    run_clean("lemma-LL", 100)
    run_clean("cross-derivative", 100)
    run_clean("comm-IM", 100)


def test_criterion_4_compatibility_both_forms():
    run_clean("compatibility", 100, budget=600.0)


def test_criterion_5_orbit_module():
    run_clean("phi-iso", 50)
    run_clean("aha-relations", 100)
    run_clean("cbar-qinv", 50)


def test_criterion_6_contour_solution_residuals():
    start = time.perf_counter()
    c = 0.1 + 0.2j
    k = 0.05 + 1.0j
    configs = {
        1: [
            (0.25, (0.3,), CycleW.monomial(1)),
            (-0.35, (0.3,), CycleW.monomial(0)),
            (-0.7, (0.3,), CycleW(((0, 1.0), (1, 0.5j)))),
        ],
        2: [
            (0.31, (0.3, -0.2), CycleW.monomial(1)),
            (-0.35, (0.3, -0.2), CycleW.monomial(0)),
            (0.1, (0.25, -0.4), CycleW(((1, 1.0), (2, -0.3)))),
        ],
    }
    for n, cases in configs.items():
        for lam, y, W in cases:
            p = SolverParams(n=n, lam=lam, c=c, k=k, y=y)
            assert p.alpha == p.beta == k / 2
            (rep,), _ = cli._grid_reports([(W, p)])
            assert len(rep["qkz_residuals"]) == n
            for m, res in rep["qkz_residuals"].items():
                assert res <= 1e-7, (n, lam, m, res)
            assert rep["ode_residual"] <= 1e-7, (n, lam)
            assert rep["ftilde_residual"] <= 1e-7, (n, lam)
    for n, lam, y, W in (
        (1, 0.25, (0.3,), CycleW.monomial(1)),
        (2, 0.31, (0.3, -0.2), CycleW.monomial(1)),
    ):
        p = SolverParams(n=n, lam=lam, c=c, k=k, y=y)
        coeffs, _ = solve_f(p.lam, p.y, W, p)
        for j in (1, 2 * n):
            got = coeffs[j - 1]
            want = simpson_oracle(j, W, p)
            assert abs(got - want) <= 1e-8 * abs(want), (n, j)
    assert time.perf_counter() - start < 300.0


def test_criterion_7_log_gamma_floor():
    grid = [
        0.5 + 0j,
        3.7 - 0.4j,
        0.3 + 2.1j,
        -1.4 + 0.9j,
        -2.6 - 1.7j,
        -0.1 + 0.05j,
        5.5 + 8.0j,
        -6.3 + 0.2j,
        0.9 - 3.3j,
    ]
    for z in grid:
        lhs = log_gamma(z + 1)
        rhs = log_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), z
        total = log_gamma(z) + log_gamma(1 - z)
        ref = cmath.log(math.pi / cmath.sin(math.pi * z))
        windings = (total - ref) / (2j * math.pi)
        assert abs(windings - round(windings.real)) <= 1e-11 * max(1.0, abs(total)), z


def test_criterion_8_report_determinism(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "ybe", "--suite", "phi-iso",
            "--samples", "5", "--seed", "3", "--out", str(out)]

    def body_bytes():
        with open(out) as fh:
            report = json.load(fh)
        return json.dumps(report["body"], sort_keys=True).encode()

    assert cli.main(list(argv)) == 0
    first = body_bytes()
    assert cli.main(list(argv)) == 0
    assert body_bytes() == first
