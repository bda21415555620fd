"""Contour-integral solution: kernel identities, quadrature, residuals.

Complex-domain checks compare against independently built oracles: closed
forms for the small cases, the adaptive Simpson oracle of `_oracles`, with
its own scalar integrand, for the pairing, and difference-quotient
extrapolation for the derivative in the spectral parameter.
"""

import cmath
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from fractions import Fraction

from _oracles import _kernel_cycle, mod_p, prod_ratio_full, residuals_oracle, simpson_oracle
from bqkz.rqkz import ones, p_factor, q_factor_list, shift_y, t_factor
from bqkz.tensor_ops import Block, Factor, Space
import bqkz.cli as cli
import bqkz.compat_ops as compat_ops
import bqkz.integral_solver as solver
import bqkz.rqkz as rqkz
import bqkz.tensor_ops as tensor_ops
from bqkz.integral_solver import (
    CycleW,
    DegreeError,
    QuadratureError,
    SeparationError,
    SolverParams,
    TWO_PI_I,
    build_contour,
    func_g,
    grid_residuals,
    grid_solutions,
    kernel_log_phi,
    log1m_exp_array,
    log_gamma_array,
    residual_report,
    solve_f,
    validate_contour_line,
    vec_u,
)

C = 0.1 + 0.2j
K = 0.05 + 1.0j

rng = random.Random(303132)


def mkparams(n, lam, y, **kw):
    return SolverParams(n=n, lam=lam, c=C, k=K, y=tuple(y), **kw)


def rand_t(r):
    return complex(r.uniform(-3, 3), r.uniform(-3, 3))


def one_report(W, p):
    """The residual report of the point p, by the route `bqkz solve` takes."""
    (rep,), _ = cli._grid_reports([(W, p)])
    return rep


def report_of(W, p, solved):
    """The report of p from the (coeffs, diagnostics) of grid_solutions and
    their residuals, as `cli._grid_reports` assembles it, without its
    np.errstate."""
    coeffs, (diag,) = solved
    (res,) = grid_residuals([(W, p)], coeffs)
    return residual_report(W, p, coeffs[0], diag, res)


def vec_u_all(params):
    return [vec_u(j, params) for j in range(1, 2 * params.n + 1)]


def filler_vector(params):
    """The fixed symmetric tensor on n-1 sites (empty when n = 1)."""
    if params.n == 1:
        raise ValueError("no filler sites when n = 1")
    space = Space(params.n - 1, 2)
    second = (1, 3)
    return {space.index(s): 1 for s in itertools.product(second, repeat=params.n - 1)}


def func_h(j, t, y, lam, k):
    """Coefficient functions of the first differential operator applied to
    the solution: a diagonal term plus two geometric ladder sums."""
    n = len(y)
    yext = tuple(y) + tuple(-v for v in reversed(tuple(y)))
    ex = cmath.exp(TWO_PI_I * lam)
    out = -(t - yext[j - 1]) * func_g(j, t, y, k)
    for l in range(1, j):
        out += k / (ex - 1) * func_g(l, t, y, k)
    for l in range(j + 1, 2 * n + 1):
        out += k * ex / (ex - 1) * func_g(l, t, y, k)
    return out


def gtilde_vec(t, y, params):
    """Vector-valued weight function: sum of g_j(t) times the j-th basis
    vector of the target subspace, as a dense array."""
    out = np.zeros(params.space.dim, dtype=complex)
    for j in range(1, 2 * params.n + 1):
        out[list(vec_u(j, params))] += func_g(j, t, y, params.k)
    return out


def whole(factor):
    """An exact placed factor's whole operator: its gather on the identity
    block."""
    return factor.on_block(Block.identity(factor.space)).linop()


def dense_whole(factor):
    """An exact placed factor's whole operator as a dense complex matrix."""
    return np.array(whole(factor).to_dense(), dtype=complex)


# ---------------------------------------------------------------- regime


def test_regime_validation():
    with pytest.raises(ValueError):
        mkparams(1, 0.0, (0.3,))
    with pytest.raises(ValueError):
        SolverParams(n=1, lam=0.3, c=0.1 - 0.2j, k=K, y=(0.3,))
    with pytest.raises(ValueError):
        SolverParams(n=1, lam=0.3, c=0.1 + 0.6j, k=K, y=(0.3,))
    with pytest.raises(ValueError):
        SolverParams(n=1, lam=0.3, c=C, k=K, y=(0.3 + 0.8j,))
    with pytest.raises(ValueError):
        SolverParams(n=2, lam=0.3, c=C, k=K, y=(0.3,))
    with pytest.raises(ValueError, match="max_refine >= 1"):
        mkparams(1, 0.25, (0.3,), max_refine=0)
    p = mkparams(1, 0.25, (0.3,))
    assert p.delta == pytest.approx(K.imag / 2)
    assert p.alpha == p.beta == K / 2
    assert p.x_point() == (p.big_e, 1)


def test_half_integer_spectral_point_is_allowed_for_pairing(monkeypatch):
    """big_e = -1 is regular for the pairing; only the residual report,
    which needs the differential residuals, rejects it, naming its lambda
    before any quadrature runs."""
    p = mkparams(1, -0.5, (0.3,))
    assert abs(p.big_e + 1) < 1e-12
    W = CycleW.monomial(0)
    rules = []
    real = solver._trapezoid
    monkeypatch.setattr(solver, "_trapezoid", lambda *args: rules.append(1) or real(*args))
    assert all(math.isfinite(abs(v)) for v in solve_f(p.lam, p.y, W, p)[0])
    assert rules == [1]
    with pytest.raises(ValueError) as err:
        one_report(W, p)
    assert str(err.value).startswith("lambda=(-0.5+0j): ")
    assert rules == [1]


def test_cycle_degree_window():
    """A degree outside the window is refused naming its lambda first, as
    every lambda-level refusal is; a repeated degree, no term, and terms
    whose every coefficient is 0 are refused."""
    p = mkparams(1, 0.25, (0.3,))
    with pytest.raises(DegreeError) as err:
        CycleW.monomial(4).validate(p)
    assert str(err.value) == ("lambda=(0.25+0j): cycle degree 4 outside the "
                              "convergence window (0.25, 2.25)")
    with pytest.raises(ValueError):
        CycleW(((0, 1.0), (0, 2.0)))
    with pytest.raises(ValueError):
        CycleW(())
    with pytest.raises(ValueError, match="every coefficient"):
        CycleW(((0, 0.0), (1, 0j)))


# ---------------------------------------------------------------- vectors


def test_u_vectors_n1_closed_form():
    p = mkparams(1, -0.5, (0.3,))
    # On one site a state's index is its code.
    assert vec_u(1, p) == {0: 1}
    assert vec_u(2, p) == {2: 1}


def test_filler_conditions_and_rank():
    for n in (2, 3):
        p = mkparams(n, 0.31, tuple(0.1 + 0.13 * i for i in range(n)))
        fv = filler_vector(p)
        sp = Space(n - 1, 2)
        for i in range(1, n - 1):
            assert whole(p_factor((i, i + 1), sp)).apply(fv) == fv
        for i in range(1, n):
            assert whole(t_factor(ones(2), i, sp)).apply(fv) == fv
        us = vec_u_all(p)
        assert len(us) == 2 * n
        states = sorted({i for u in us for i in u})
        rows = [[Fraction(u.get(i, 0)) for i in states] for u in us]
        rank = 0
        for col in range(len(states)):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            pv = rows[rank][col]
            for r in range(len(rows)):
                if r != rank and rows[r][col] != 0:
                    f = rows[r][col] / pv
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
        assert rank == 2 * n, n


# ---------------------------------------------------------------- g and h


def test_g_closed_form_n1():
    y = (0.3,)
    for _ in range(20):
        t = rand_t(rng)
        try:
            g1 = func_g(1, t, y, K)
            g2 = func_g(2, t, y, K)
        except ZeroDivisionError:
            continue
        assert abs(g1 - 1 / (t - 0.3)) < 1e-12 * abs(g1)
        want = (t - 0.3 - K) / ((t - 0.3) * (t + 0.3))
        assert abs(g2 - want) < 1e-12 * abs(g2)


def test_g_telescoping():
    """k times the sum of all members collapses to 1 minus the full ratio."""
    for n in (1, 2, 3):
        y = tuple(0.21 + 0.17 * i for i in range(n))
        hits = 0
        while hits < 25:
            t = rand_t(rng)
            try:
                total = sum(func_g(j, t, y, K) for j in range(1, 2 * n + 1))
                want = 1 - prod_ratio_full(t, y, K)
            except ZeroDivisionError:
                continue
            hits += 1
            assert abs(K * total - want) <= 1e-11 * max(1.0, abs(want)), (n, t)


def test_h_collapsed_identity_and_sign():
    """h_m + kE/(E-1) g_m equals (1 - E Pi)/(E - 1); the opposite-sign
    prefactor variant never matches."""
    lam = 0.23 + 0.05j
    big_e = cmath.exp(TWO_PI_I * lam)
    for n in (1, 2, 3):
        y = tuple(0.19 + 0.23 * i for i in range(n))
        hits = 0
        while hits < 20:
            t = rand_t(rng)
            try:
                pi_full = prod_ratio_full(t, y, K)
                for m in range(1, 2 * n + 1):
                    h = func_h(m, t, y, lam, K)
                    g = func_g(m, t, y, K)
                    lhs = h + K * big_e / (big_e - 1) * g
                    good = (1 - big_e * pi_full) / (big_e - 1)
                    bad = (1 - big_e * pi_full) / (1 - big_e)
                    scale = max(1.0, abs(good))
                    assert abs(lhs - good) <= 1e-10 * scale, (n, m, t)
                    assert abs(lhs - bad) > 1e-6 * scale, (n, m, t)
            except ZeroDivisionError:
                continue
            hits += 1


# ---------------------------------------------------------------- kernel


def test_kernel_shift_relation():
    """Stepping the argument down by c multiplies the kernel by E times the
    full pole ratio."""
    for n in (1, 2):
        y = tuple(0.27 + 0.11 * i for i in range(n))
        for lam in (0.23 + 0.05j, -0.4 + 0.3j):
            p = mkparams(n, lam, y)
            hits = 0
            while hits < 12:
                t = complex(rng.uniform(-2, 2), p.delta + rng.uniform(-0.1, 0.1))
                try:
                    ratio = cmath.exp(kernel_log_phi(t - C, y, p) - kernel_log_phi(t, y, p))
                    want = p.big_e * prod_ratio_full(t, y, K)
                except (ZeroDivisionError, ValueError):
                    continue
                hits += 1
                assert abs(ratio - want) <= 1e-10 * abs(want), (n, t)


def test_kernel_y_shift_relation():
    """Stepping y_1 down by c changes the kernel by an explicit rational
    factor in t."""
    n = 2
    y = (0.27, 0.43)
    p = mkparams(n, 0.2, y)
    y_shift = (y[0] - C, y[1])
    hits = 0
    while hits < 12:
        t = complex(rng.uniform(-2, 2), p.delta + rng.uniform(-0.1, 0.1))
        try:
            ratio = cmath.exp(kernel_log_phi(t, y_shift, p) - kernel_log_phi(t, y, p))
            want = ((t + y[0] - K) / (t + y[0])) * ((t - y[0] + C) / (t - y[0] - K + C))
        except (ZeroDivisionError, ValueError):
            continue
        hits += 1
        assert abs(ratio - want) <= 1e-10 * abs(want), t


def test_kernel_symmetries():
    n = 2
    y = (0.27, 0.43)
    p = mkparams(n, 0.2, y)
    for t in (0.3 + 0.5j, -1.2 + 0.45j):
        swapped = kernel_log_phi(t, (y[1], y[0]), p)
        flipped = kernel_log_phi(t, (y[0], -y[1]), p)
        base = kernel_log_phi(t, y, p)
        assert abs(cmath.exp(swapped - base) - 1) < 1e-11
        assert abs(cmath.exp(flipped - base) - 1) < 1e-11


# ---------------------------------------------------------------- gtilde


def test_gtilde_intertwining():
    """P R(y_l - y_{l+1}) on sites l, l + 1 swaps y_l and y_{l+1} in the
    vector weight function, and K(y_n | 1, k/2) on site n negates y_n:
    R = (lam + k P)/(lam + k) and K = (lam T(1) + beta)/(lam + beta) as
    dense matrices from the exact P and T(1)."""
    for n in (2, 3):
        y = tuple(0.21 + 0.19 * i for i in range(n))
        p = mkparams(n, 0.37 + 0.11j, y)
        sp = p.space
        one = np.eye(sp.dim)
        hits = 0
        while hits < 15:
            t = rand_t(rng)
            try:
                gt = gtilde_vec(t, y, p)
                for l in range(1, n):
                    ysw = list(y)
                    ysw[l - 1], ysw[l] = ysw[l], ysw[l - 1]
                    swap, lam = dense_whole(p_factor((l, l + 1), sp)), y[l - 1] - y[l]
                    lhs = swap @ ((lam * one + K * swap) / (lam + K)) @ gt
                    rhs = gtilde_vec(t, tuple(ysw), p)
                    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs))), (n, l)
                flip = dense_whole(t_factor(ones(2), n, sp))
                lhs = (y[-1] * flip + K / 2 * one) / (y[-1] + K / 2) @ gt
                rhs = gtilde_vec(t, y[:-1] + (-y[-1],), p)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs))), n
            except ZeroDivisionError:
                continue
            hits += 1


# ---------------------------------------------------------------- contour


def test_contour_record_frozen_example():
    """Eight pole families for one site including the shifted family, the
    tightest upper clearance coming from the shifted raised pole."""
    rec = validate_contour_line((0.3,), C, K, 0.5, 6.0)
    assert rec["poles_checked"] == 8
    assert rec["min_gap_above"] == pytest.approx(0.3)
    assert rec["min_gap_below"] == pytest.approx(0.3)
    assert set(rec["configs"]) == {"base", "shift-1"}


def test_contour_violation_reports_config():
    with pytest.raises(SeparationError) as err:
        validate_contour_line((0.3,), 0.1 + 0.9j, K, 0.5, 6.0)
    assert "shift-1" in str(err.value)


def test_contour_violation_below_reports_the_pole():
    """A downward-family pole at or above the line is named with its
    config."""
    with pytest.raises(SeparationError) as err:
        validate_contour_line((0.3 + 0.6j,), C, K, 0.5, 6.0)
    assert str(err.value) == "pole (0.3+0.6j) of config base not below the contour"


def test_build_contour_passes_regime():
    p = mkparams(1, 0.25, (0.3,))
    ctr = build_contour(p, W=CycleW.monomial(1))
    assert ctr.delta == pytest.approx(p.delta)
    assert ctr.trunc > 0
    assert ctr.record["poles_checked"] == 8


def test_every_contour_is_validated_for_the_shifted_poles():
    """A contour is checked against the base pole configuration and each
    singly shifted one, whether it is built directly, widened by a grid's
    rule or by a standalone solve of the pairing."""
    for n, lam, y in ((1, 0.25, (0.3,)), (2, 0.31, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        W = CycleW.monomial(1)
        configs = ["base"] + ["shift-%d" % m for m in range(1, n + 1)]
        assert build_contour(p, W=W).record["configs"] == configs, n
        for diag in (solve_f(p.lam, p.y, W, p)[1], grid_solutions([(W, p)])[1][0]):
            assert diag["contour"].record["configs"] == configs, n


def test_report_contour_covers_the_integrated_line():
    """The rule widens the truncation past build_contour's; the reported
    contour record is validated out to the widest integrated line."""
    for n, lam, y in ((1, 0.885, (0.3,)), (2, -0.2, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        W = CycleW.monomial(int(np.floor(lam)) + 1)
        rep = one_report(W, p)
        ctr = rep["contour"]
        assert ctr["trunc"] >= rep["quadrature"]["trunc"] > build_contour(p, W=W).trunc
        rec = validate_contour_line(p.y, C, K, p.delta, ctr["trunc"])
        for key in ("poles_checked", "min_gap_above", "min_gap_below"):
            assert ctr[key] == rec[key], key


def test_truncation_reaches_every_kernel_term_above_atol():
    """The rule's truncation reaches every node of its first grid where the
    scalar kernel-cycle times h exceeds atol times max(scale, 1).  The
    initial truncation does not depend on y, so at this solve-tails lambda
    (1 - frac(lambda) = 0.11) a far y_1 carries the kernel beyond twice
    the initial truncation: one doubling is not enough."""
    p = mkparams(2, -0.11, (20.0, -0.15))
    W = CycleW.monomial(0)
    rec = build_contour(p, W=W).record
    h = min(1 / p.panels_per_unit, rec["min_gap_above"], rec["min_gap_below"])
    diag = grid_solutions([(W, p)])[1][0]
    bound = p.atol * max(diag["scale"], 1.0)
    reach = max(j * h for j in range(int(2 * diag["trunc"] / h)) for side in (1, -1)
                if abs(_kernel_cycle(side * j * h + 1j * p.delta, p.y, W, p)) * h > bound)
    assert reach > 2 * math.ceil(build_contour(p, W=W).trunc / h) * h
    assert diag["trunc"] >= reach


def test_widened_line_with_a_far_wrong_side_pole_is_rejected():
    """A pole on the wrong side of the line beyond build_contour's window
    but inside the window the rule integrates fails the solve."""
    p = mkparams(1, 0.25, (0.3,))
    ctr = build_contour(p, W=CycleW.monomial(1))
    # -y + k sits at height 0.4, below the line at 0.5, near Re t = -40.
    far = replace(ctr, y=(40 + 0.6j,))
    validate_contour_line(far.y, C, K, far.delta, far.trunc)

    def values(t):
        ker = np.exp(-((t.real / 20) ** 2))
        return np.ones((1, 1, len(t))), np.ones((1, len(t))), [ker]

    with pytest.raises(SeparationError):
        solver._trapezoid(values, p, far, [p.lam])


# ---------------------------------------------------------------- pairing


def test_pair_i_frozen_oracle_point():
    """Independent high-precision quadrature of the same integrand froze
    this value; the implementation must keep reproducing it."""
    p = mkparams(1, -0.5, (0.3,))
    want = 1.8676715689736985 - 3.5987515575140336j
    got = solve_f(p.lam, p.y, CycleW.monomial(0), p)[0][0]
    assert abs(got - want) <= 1e-9 * abs(want)


def test_pair_i_matches_adaptive_simpson():
    configs = [
        (1, -0.5, (0.3,), CycleW.monomial(0)),
        (1, 0.25, (0.3,), CycleW.monomial(1)),
        (1, 0.25, (5.0,), CycleW.monomial(1)),
        (2, 0.31, (0.3, -0.2), CycleW.monomial(1)),
    ]
    for n, lam, y, W in configs:
        p = mkparams(n, lam, y)
        coeffs, _ = solve_f(p.lam, p.y, W, p)
        for j in (1, 2 * n):
            got = coeffs[j - 1]
            want = simpson_oracle(j, W, p)
            assert abs(got - want) <= 1e-8 * abs(want), (n, lam, j)


def test_oracle_takes_an_absolute_eps():
    """bench/make_reference.py passes eps= 1e-13 times the coefficients'
    largest size; the oracle then integrates to that absolute accuracy and
    agrees with its own relative default."""
    p = mkparams(1, 0.25, (0.3,))
    W = CycleW.monomial(1)
    default = [simpson_oracle(j, W, p) for j in (1, 2)]
    scale = max(abs(v) for v in default)
    for j, want in zip((1, 2), default):
        got = simpson_oracle(j, W, p, eps=1e-13 * scale)
        assert abs(got - want) <= 1e-9 * scale, j


def test_pair_i_linear_in_cycle():
    p = mkparams(1, -0.5, (0.3,))
    w0, w1 = CycleW.monomial(0), CycleW.monomial(1)
    a = solve_f(p.lam, p.y, w0, p)[0][1]
    b = solve_f(p.lam, p.y, w1, p)[0][1]
    ab = solve_f(p.lam, p.y, CycleW(w0.terms + w1.terms), p)[0][1]
    assert abs(ab - (a + b)) <= 1e-10 * max(abs(ab), 1e-30)


def test_quadrature_error_reports_estimates():
    p = mkparams(1, -0.5, (0.3,), panels_per_unit=0.05, max_refine=1,
                 rtol=1e-300, atol=1e-300)
    with pytest.raises(QuadratureError) as err:
        solve_f(p.lam, p.y, CycleW.monomial(0), p)
    assert "estimates" in str(err.value)


def test_quadrature_error_names_the_unconverged_solutions():
    """With one halving allowed and tolerances no estimate can meet, no
    solution of a report converges, and the error names each of them."""
    p = mkparams(2, 0.31, (0.3, -0.2), max_refine=1, rtol=1e-300, atol=1e-300)
    with pytest.raises(QuadratureError) as err:
        one_report(CycleW.monomial(1), p)
    message = str(err.value)
    for name in ("base", "derivative", "shift-1", "shift-2"):
        assert name in message, name
    assert "estimates" in message


# ---------------------------------------------------------------- solution


def test_qkz_residuals_small():
    for n, lam, y in ((1, 0.25, (0.3,)), (2, 0.31, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        res = one_report(CycleW.monomial(1), p)["qkz_residuals"]
        assert set(res) == {str(m) for m in range(1, n + 1)}
        for m, v in res.items():
            assert v <= 1e-7, (n, m, v)


def test_ode_and_gauge_residuals_small():
    for n, lam, y in ((1, 0.25, (0.3,)), (2, 0.31, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        rep = one_report(CycleW.monomial(1), p)
        assert rep["ode_residual"] <= 1e-7
        assert rep["ftilde_residual"] <= 1e-7


def test_residuals_see_a_small_error_in_each_of_their_inputs(monkeypatch):
    """A change of 1e-6 in one diagonal entry of a transport factor's
    local matrix (the coordinate reflection Kx or an exchange factor R),
    at the top state's codes on its sites, in the first coefficient of
    op_B, or of about 1e-6 in one coefficient of a shifted solution lifts
    the residuals built from it above 1e-7.  A transport factor lifts the
    qKZ residual of every Q_m that contains it; a shift-m coefficient
    lifts qkz_residuals[m] and changes nothing else; op_B lifts both
    differential residuals."""
    W = CycleW.monomial(1)
    real_local, real_b = solver._local_factors, compat_ops.op_B_terms

    def bumped_b(*args):
        (coef, op), *rest = real_b(*args)
        return [(coef + 1e-6, op)] + rest

    for n, lam, y in ((1, 0.25, (0.3,)), (2, 0.31, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        sites = [str(m) for m in range(1, n + 1)]
        solved = grid_solutions([(W, p)])
        clean = report_of(W, p, solved)
        coeffs, diags = solved
        top = max(range(2 * n), key=lambda j: abs(coeffs[0, 0, j]))
        index = min(vec_u(top + 1, p))
        factors = {d for m in range(1, n + 1) for d in q_factor_list(m, n)}
        assert len(factors) == (2 if n == 1 else 7)
        for target in sorted(factors):
            code = 0
            for site in target[1]:
                digit = index // p.space.stride(site) % p.space.site_dim
                code = code * p.space.site_dim + digit

            def bumped_local(descs, *args, target=target, code=code):
                out = []
                for desc, (matrix, at) in zip(descs, real_local(descs, *args)):
                    if desc == target:
                        matrix = matrix.copy()
                        matrix[code, code] += 1e-6
                    out.append((matrix, at))
                return out

            monkeypatch.setattr(solver, "_local_factors", bumped_local)
            rep = report_of(W, p, solved)
            monkeypatch.setattr(solver, "_local_factors", real_local)
            for m in sites:
                if target in q_factor_list(int(m), n):
                    assert rep["qkz_residuals"][m] > 1e-7, (n, target, m)
                else:
                    assert rep["qkz_residuals"][m] == clean["qkz_residuals"][m], (n, target, m)
            assert rep["ode_residual"] == clean["ode_residual"]
        for m in range(1, n + 1):
            moved = coeffs.copy()
            moved[0, m + 1, top] += 1e-6 * abs(moved[0, m + 1, top])
            rep = report_of(W, p, (moved, diags))
            for key in sites:
                if key == str(m):
                    assert rep["qkz_residuals"][key] > 1e-7, (n, m)
                else:
                    assert rep["qkz_residuals"][key] == clean["qkz_residuals"][key], (n, m)
            for key in ("ode_residual", "ftilde_residual"):
                assert rep[key] == clean[key], (n, m, key)
        monkeypatch.setattr(compat_ops, "op_B_terms", bumped_b)
        rep = report_of(W, p, solved)
        monkeypatch.setattr(compat_ops, "op_B_terms", real_b)
        assert rep["ode_residual"] > 1e-7 and rep["ftilde_residual"] > 1e-7, n
        assert rep["qkz_residuals"] == clean["qkz_residuals"], n


# The default `bqkz solve` grid, the first grids of the benchmark's
# solve-window and solve-tails workloads at seed 0, and an n = 3 grid.
RESIDUAL_GRIDS = {
    "default": (1, (-0.7, -0.35, -0.1, 0.15, 0.4)),
    "solve-window": (2, (-0.784586528, -0.891401949, -0.889902498, 0.3217381)),
    "solve-tails": (1, (0.879741411, -0.104741411)),
    "n3": (3, (-0.35, 0.25)),
}


def _cli_grid(n, grid):
    cfg = cli.default_config()
    cfg["model"]["n"] = n
    return [(cli._cycle_for(cfg, complex(lam)), cli._solver_params(cfg, complex(lam)))
            for lam in grid]


def _flat_residuals(residuals):
    return [v for qkz, ode, gauge in residuals for v in [*qkz.values(), ode, gauge]]


def test_local_matrices_at_a_rational_point_are_the_exact_factors():
    """At a rational point every local matrix of the residual pass, of
    the exchange, Kx and K1 factors of each Q_m, is the complex image of
    the exact operator on the factor's own sites: each entry, read back
    as the nearest rational of small denominator and reduced mod P, is
    the gather of the factor's scalars, placed on sites 1 (and 2) of
    their own space, on the identity block there."""
    space = Space(3, 2)
    model = rqkz.ModelParams(c=Fraction(1, 3), k=Fraction(2, 5), alpha=Fraction(-3, 7),
                             beta=Fraction(5, 4), space=space)
    x, y = (Fraction(2), Fraction(-3, 4)), (Fraction(1, 2), Fraction(-5, 3), Fraction(7, 5))
    kinds = set()
    for m in range(1, space.n + 1):
        descs = q_factor_list(m, space.n)
        factors = rqkz.factor_ops(descs, x, y, model)
        for desc, f, (matrix, sites) in zip(descs, factors,
                                             solver._local_factors(descs, x, y, model)):
            assert sites == desc[1]
            own = Factor(f.scalars, f.over, range(1, len(sites) + 1), Space(len(sites), 2))
            assert not matrix.imag.any(), desc
            read = [[mod_p(Fraction(v).limit_denominator(10**4)) for v in row]
                    for row in matrix.real.tolist()]
            assert read == whole(own).to_dense(), desc
            kinds.add(desc[0])
    assert kinds == {"R", "Kx", "K1"}


@pytest.mark.parametrize("name", sorted(RESIDUAL_GRIDS))
def test_residual_pass_matches_the_whole_operator_oracle(name):
    """Every qKZ, ODE and gauge residual of the package's pass, which
    applies each transport factor on its own sites, lies within 1e-14 of
    the oracle's, which multiplies whole operators per lambda.  With the
    largest base coefficient of every lambda scaled by 1 + 1e-6 the
    residuals grow to about 1e-6 and still agree within 1e-14:
    within 1e-8 relative, since the two routes round differently by a few
    units of 1e-16 in the solution's scale."""
    points = _cli_grid(*RESIDUAL_GRIDS[name])
    coeffs, _ = grid_solutions(points)
    got, want = (_flat_residuals(f(points, coeffs)) for f in (grid_residuals, residuals_oracle))
    assert len(got) == len(want)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14, name
    moved = coeffs.copy()
    for base in moved[:, 0]:
        base[np.argmax(np.abs(base))] *= 1 + 1e-6
    got, want = (_flat_residuals(f(points, moved)) for f in (grid_residuals, residuals_oracle))
    assert min(want) > 1e-8, name
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14, name
    assert max(abs(g - w) / w for g, w in zip(got, want)) <= 1e-8, name


def test_dlambda_against_difference_quotient():
    p = mkparams(1, 0.25, (0.3,))
    W = CycleW.monomial(1)
    deriv = grid_solutions([(W, p)])[0][0, 1]
    h = 1e-4
    samples = {}
    for step in (-2, -1, 1, 2):
        q = mkparams(1, 0.25 + step * h, (0.3,))
        samples[step], _ = solve_f(q.lam, q.y, W, q)
    for idx in range(len(deriv)):
        want = (
            8 * (samples[1][idx] - samples[-1][idx])
            - (samples[2][idx] - samples[-2][idx])
        ) / (12 * h)
        got = deriv[idx]
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), idx


def test_solver_determinism():
    p = mkparams(2, 0.31, (0.3, -0.2))
    W = CycleW.monomial(1)
    (a, a_diag), (b, b_diag) = (solve_f(p.lam, p.y, W, p) for _ in range(2))
    assert a.tobytes() == b.tobytes()
    assert a_diag == b_diag


def test_residual_report_keys():
    p = mkparams(1, 0.25, (0.3,))
    rep = one_report(CycleW.monomial(1), p)
    assert set(rep) == {
        "n",
        "lambda",
        "c",
        "k",
        "y",
        "cycle",
        "coefficients",
        "qkz_residuals",
        "ode_residual",
        "ftilde_residual",
        "max_qkz_residual",
        "contour",
        "quadrature",
    }
    assert rep["max_qkz_residual"] <= 1e-7
    assert rep["ftilde_residual"] <= 1e-7
    assert len(rep["coefficients"]) == 2


def test_residual_report_solves_each_distinct_point_once(monkeypatch):
    """One trapezoidal rule per report integrates the base point, its
    lambda derivative and the n shifted points; the report's coefficients
    are the joint solve's."""
    calls = []

    def counting_trapezoid(values, params, contour, lams, names):
        calls.append((params.lam, params.y, names))
        return real_trapezoid(values, params, contour, lams, names)

    real_trapezoid = solver._trapezoid
    for n, lam, y in ((1, 0.25, (0.3,)), (2, 0.31, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        W = CycleW.monomial(1)
        calls.clear()
        monkeypatch.setattr(solver, "_trapezoid", counting_trapezoid)
        rep = one_report(W, p)
        monkeypatch.setattr(solver, "_trapezoid", real_trapezoid)
        shifts = tuple("shift-%d" % m for m in range(1, n + 1))
        assert calls == [(p.lam, p.y, ("base", "derivative") + shifts)], calls
        assert rep["quadrature"]["solves"] == n + 1
        base = grid_solutions([(W, p)])[0][0, 0]
        assert rep["coefficients"] == [[v.real, v.imag] for v in base.tolist()]


def test_grid_points_may_differ_only_in_lambda():
    """A grid shares its contour, kernel and weight rows, and its residual
    pass its lambda-independent operators, so its points must agree in
    everything but lambda."""
    W = CycleW.monomial(1)
    p = mkparams(1, 0.25, (0.3,))
    coeffs, _ = grid_solutions([(W, p)])
    for q in (replace(p, lam=0.4, y=(0.2,)), replace(p, lam=0.4, rtol=1e-8)):
        with pytest.raises(ValueError, match="differ only in lambda"):
            solver.grid_solutions([(W, p), (W, q)])
        with pytest.raises(ValueError, match="differ only in lambda"):
            solver.grid_residuals([(W, p), (W, q)], np.concatenate((coeffs, coeffs)))


def test_joint_rule_takes_the_stricter_grid():
    """At this point the base rows alone settle after 2 halvings and the
    derivative rows after 3; the joint rule takes 3, and the base
    coefficients still match the independent quadrature."""
    p = mkparams(1, -0.60463035, (0.3,))
    W = CycleW.monomial(0)
    rep = one_report(W, p)
    assert rep["quadrature"]["refinements"] == 3
    for j, (re, im) in enumerate(rep["coefficients"], start=1):
        want = simpson_oracle(j, W, p)
        assert abs(complex(re, im) - want) <= 1e-8 * abs(want), j


def test_each_solution_of_a_report_converges_on_its_own():
    """At these scan points one convergence test against the largest row
    of all let the base rows stop a halving early.  Each solution of the
    report now passes its own test, so the report refines at least as often
    as a standalone solve at the base point and at every shifted point on
    the same contour."""
    cases = ((1, -0.0613, (0.3,)), (1, 0.9387, (0.3,)),
             (2, -0.4613, (0.3, -0.15)), (2, 0.5387, (0.3, -0.15)))
    for n, lam, y in cases:
        p = mkparams(n, lam, y)
        W = CycleW.monomial(int(np.floor(lam)) + 1)
        contour = build_contour(p, W=W)
        joint = one_report(W, p)["quadrature"]["refinements"]
        for point in [p.y] + [shift_y(p.y, m, C) for m in range(1, n + 1)]:
            _, alone = solve_f(p.lam, point, W, p, contour=contour)
            assert joint >= alone["refinements"], (n, lam, point)


def test_shifted_rows_match_the_directly_shifted_kernel():
    """The report's shift-m rows, the base kernel times R_m times the
    shifted weight functions, equal the array kernel evaluated directly at
    shift_y(y, m, c) times the same weight functions, out to |Re t| = 240,
    to the tolerances of test_array_kernel_cycle_matches_scalar.  A node
    below the exponent floor on either route must be negligible on the
    other."""
    cases = (
        (1, 0.885, (0.3,), CycleW.monomial(1), 1e-11),
        (2, 0.31, (0.3, -0.2), CycleW(((1, 1.0), (2, 0.5j))), 1e-12),
        (3, 0.25, (0.3, -0.2, 0.45), CycleW.monomial(1), 1e-12),
    )
    for n, lam, y, W, tol in cases:
        p = mkparams(n, lam, y)
        ts = np.linspace(-240.0, 240.0, 1201) + 1j * p.delta
        block, factors, kernels = solver._report_values([(W, p)])(ts)
        (base_ker,) = np.concatenate(list(kernels))
        rows, weights = block * base_ker, factors * np.abs(base_ker)
        assert rows.shape == (n + 2, 2 * n, len(ts))
        for m in range(1, n + 1):
            ys = shift_y(p.y, m, C)
            ker = solver._kernel_cycle_array(ts, ys, W, p)
            want = ker * np.array(solver._weight_rows(ts, ys, K))
            got = rows[m + 1]
            live = (got != 0) & (want != 0)
            assert np.all(np.abs(got[~live]) < 1e-250), (n, m)
            assert np.all(np.abs(want[~live]) < 1e-250), (n, m)
            assert np.all(np.abs(got - want)[live] <= tol * np.abs(want)[live]), (n, m)
            assert np.max(np.abs(ts.real[live.any(axis=0)])) >= 20.0, (n, m)
            scale = np.abs(ker)
            assert np.all(np.abs(weights[m + 1] - scale) <= tol * scale + 1e-250), (n, m)


def test_report_shifted_solutions_match_the_oracle():
    """The report's solutions at the shifted points match the independent
    adaptive Simpson quadrature of the scalar integrand evaluated directly
    at shift_y(y, m, c), also at y = 3, where the solution is about 3e-19."""
    for n, lam, y in ((1, 0.25, (0.3,)), (1, 0.25, (3.0,)), (2, 0.31, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        W = CycleW.monomial(1)
        shifted = grid_solutions([(W, p)])[0][0, 2:]
        assert len(shifted) == n
        for m, row in enumerate(shifted, start=1):
            q = replace(p, y=shift_y(p.y, m, C))
            for j in (1, 2 * n):
                want = simpson_oracle(j, W, q)
                assert abs(row[j - 1] - want) <= 1e-8 * abs(want), (n, m, j)


# ---------------------------------------------------------------- array pass


def test_array_kernel_cycle_matches_scalar():
    """The array kernel-cycle equals the oracle's scalar one along the contour out to
    |Re t| = 240, where the log-Gamma arguments reach Re z of about -480,
    far below the reflection line.  Nodes whose exponent drops below the
    floor come back as exact zeros, where the scalar value is below any sum
    it could enter.

    The tolerance is 1e-12 relative, except at lambda = 0.885, whose kernel
    decays slowly enough to stay above the floor beyond |Re t| = 200.
    There the log terms reach 1e4, so each route rounds the sum to a few
    1e-12 (both were within 4e-12 of a 40-digit mpmath evaluation), and the
    tolerance is 1e-11.
    """
    cases = (
        (1, 0.25, (0.3,), CycleW.monomial(1), 1e-12, 20.0),
        (2, 0.31, (0.3, -0.2), CycleW(((1, 1.0), (2, 0.5j))), 1e-12, 20.0),
        (1, 0.885, (0.3,), CycleW.monomial(1), 1e-11, 200.0),
    )
    for n, lam, y, W, tol, min_reach in cases:
        p = mkparams(n, lam, y)
        ts = np.linspace(-240.0, 240.0, 1201) + 1j * p.delta
        with np.errstate(all="raise"):
            got = solver._kernel_cycle_array(ts, p.y, W, p)
        reach = 0.0
        for t, g in zip(ts, got):
            want = _kernel_cycle(complex(t), p.y, W, p)
            if g == 0:
                assert abs(want) < 1e-250, (n, lam, t)
                continue
            reach = max(reach, abs(t.real))
            assert abs(g - want) <= tol * abs(want), (n, lam, t)
        assert reach >= min_reach, (n, lam)


def _kernel_cycle_per_term(t, y, W, params):
    """Reference for the array kernel: one log_gamma_array or
    log1m_exp_array call per term, added in the scalar kernel's order,
    then the lambda prefactor with each monomial."""
    c, k = params.c, params.k
    base = 0
    for yp in y:
        base += log_gamma_array((t - yp - k) / (-c))
        base += log_gamma_array((t + yp - k) / (-c))
        base -= log_gamma_array((t - yp) / (-c))
        base -= log_gamma_array((t + yp) / (-c))
        base -= log1m_exp_array(TWO_PI_I * (t - yp) / c)
        base -= log1m_exp_array(TWO_PI_I * (t + yp) / c)
    logz = TWO_PI_I * t / c
    out = 0
    for d, cf in W.terms:
        expo = base + (d - params.lam) * logz
        live = expo.real >= solver._EXP_FLOOR
        expo = np.where(live, expo, solver._EXP_FLOOR)
        out = out + cf * np.where(live, np.exp(expo), 0)
    return out


def test_array_kernel_equals_the_per_term_loop_bit_for_bit():
    """Stacking the log-Gamma and cycle-denominator arguments changes no
    bit of any node, out to |Re t| = 240 where the arguments lie far on
    both sides of the reflection line, at chunk lengths of a few nodes to
    a full sweep."""
    cases = (
        (1, 0.885, (0.3,), CycleW.monomial(1)),
        (2, 0.31, (0.3, -0.2), CycleW(((1, 1.0), (2, 0.5j)))),
        (3, 0.25, (0.3, -0.2, 0.45), CycleW.monomial(1)),
    )
    for n, lam, y, W in cases:
        p = mkparams(n, lam, y)
        for count in (3, 25, 260, 1201):
            ts = np.linspace(-240.0, 240.0, count) + 1j * p.delta
            got = solver._kernel_cycle_array(ts, p.y, W, p)
            want = _kernel_cycle_per_term(ts, p.y, W, p)
            assert np.count_nonzero(want) > 0, (n, count)
            assert np.array_equal(got, want), (n, count)


def test_kernel_makes_one_log_gamma_and_one_log1m_call(monkeypatch):
    """Each array kernel call evaluates all its log-Gamma arguments in one
    call and all its cycle-denominator terms in another.  log_gamma_array
    calls log1m_exp_array for its reflection, so only calls that are not
    nested inside a counted call are the kernel's own."""
    counts, depth = {}, [0]
    for name in ("log_gamma_array", "log1m_exp_array"):
        def counted(z, name=name, real=getattr(solver, name)):
            if not depth[0]:
                counts[name] += 1
            depth[0] += 1
            try:
                return real(z)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(solver, name, counted)
    for n, y in ((1, (0.3,)), (3, (0.3, -0.2, 0.45))):
        p = mkparams(n, 0.31, y)
        ts = np.linspace(-20.0, 20.0, 41) + 1j * p.delta
        counts.update(log_gamma_array=0, log1m_exp_array=0)
        solver._kernel_cycle_array(ts, p.y, CycleW.monomial(1), p)
        assert counts == {"log_gamma_array": 1, "log1m_exp_array": 1}, n


def test_array_pass_raises_no_floating_point_flag():
    """A solve that refines out to long tails and the residual reports (up
    to n = 3, whose joint rule carries 30 rows) run clean under
    np.errstate(all="raise")."""
    with np.errstate(all="raise"):
        for n, lam, y in ((1, 0.885, (0.3,)), (2, 0.31, (0.3, -0.2)),
                          (3, 0.25, (0.3, -0.2, 0.45))):
            p = mkparams(n, lam, y)
            W = CycleW.monomial(1)
            rep = report_of(W, p, grid_solutions([(W, p)]))
            assert max(rep["max_qkz_residual"], rep["ode_residual"],
                       rep["ftilde_residual"]) <= 1e-7, (n, lam)
            if lam == 0.885:
                assert rep["quadrature"]["refinements"] >= 2


def _recorded(monkeypatch, name) -> list:
    """The outputs of every call of the solver function name, in order."""
    out = []
    real = getattr(solver, name)

    def recording(*args):
        out.append(real(*args))
        return out[-1]

    monkeypatch.setattr(solver, name, recording)
    return out


def test_a_grid_forms_every_lambda_kernel_in_one_batch_per_chunk(monkeypatch):
    """The lambda grid is one array axis of the rule: on an 8-lambda n = 2
    grid each chunk of nodes evaluates the log kernel once and forms the
    kernel-cycles of all 8 lambdas in one (8, N) batch."""
    grid = (-0.8, -0.7, -0.35, -0.2, 0.15, 0.25, 0.31, 0.35)
    points = [(CycleW.monomial(int(np.floor(lam)) + 1), mkparams(2, lam, (0.3, -0.15)))
              for lam in grid]
    logs = _recorded(monkeypatch, "_log_kernel")
    batches = _recorded(monkeypatch, "_cycle_kernel")
    grid_solutions(points)
    assert len(logs) >= 3 and len(batches) == len(logs)
    assert [ker.shape for ker in batches] == [(len(grid),) + log.shape for log in logs]


def test_kernel_batches_stay_within_the_chunk(monkeypatch):
    """On a 64-lambda n = 1 grid no kernel batch holds more than _CHUNK
    lambda-node pairs, so some chunk splits its lambdas over batches, and
    every lambda's coefficients lie within 1e-12 of that lambda solved
    alone."""
    points = [(CycleW.monomial(int(np.floor(lam)) + 1), mkparams(1, lam, (0.3,)))
              for lam in np.linspace(-0.95, 0.95, 64)]
    batches = _recorded(monkeypatch, "_cycle_kernel")
    coeffs, _ = grid_solutions(points)
    monkeypatch.undo()
    assert max(ker.size for ker in batches) <= solver._CHUNK
    assert min(len(ker) for ker in batches) < len(points)
    for point, base in zip(points, coeffs[:, 0]):
        alone = grid_solutions([point])[0][0, 0]
        top = max(abs(v) for v in alone)
        err = max(abs(a - b) for a, b in zip(base, alone))
        assert err <= 1e-12 * top, (point[1].lam, err / top)


def test_the_residual_pass_forms_no_whole_space_operator(monkeypatch):
    """Once the point-free caches are warm, the residual pass of a 4-lambda
    n = 2 grid applies each transport factor as its local matrix: it
    composes no operators and embeds no placed one."""
    points = [(CycleW.monomial(int(np.floor(lam)) + 1), mkparams(2, lam, (0.3, -0.15)))
              for lam in (-0.7, -0.35, 0.25, 0.31)]
    coeffs, _ = grid_solutions(points)
    want = grid_residuals(points, coeffs)
    calls = []
    for owner, name in ((tensor_ops.LinOp, "compose"), (tensor_ops, "_embedded")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    assert grid_residuals(points, coeffs) == want
    assert calls == []


# ---------------------------------------------------------------- trapezoidal rule


def test_each_node_is_evaluated_once(monkeypatch):
    """Nested halving reuses every node: one solve evaluates the kernel at
    kernel_evals distinct nodes, its first grid's and the midpoints inside
    its window, and its final grid is among them."""
    real = solver._kernel_cycle_array
    for n, lam, y in ((1, 0.885, (0.3,)), (2, 0.31, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        nodes = []

        def counting(t, *args, **kwargs):
            nodes.extend(t.tolist())
            return real(t, *args, **kwargs)

        monkeypatch.setattr(solver, "_kernel_cycle_array", counting)
        _, diag = solve_f(p.lam, p.y, CycleW.monomial(1), p)
        monkeypatch.setattr(solver, "_kernel_cycle_array", real)
        assert len(set(nodes)) == len(nodes) == diag["kernel_evals"], (n, lam)
        assert diag["panels"] + 1 < diag["kernel_evals"], (n, lam)


def test_report_counts_kernel_evaluations(monkeypatch):
    """A report evaluates the kernel once at every node of its one rule
    for all n + 1 points it solves, and the quadrature record says so:
    kernel_evals counts every node, those of the first grid outside the
    window too, and the window holds the final grid's panels."""
    real = solver._log_kernel
    nodes = []

    def counting(t, *args, **kwargs):
        nodes.extend(t.tolist())
        return real(t, *args, **kwargs)

    monkeypatch.setattr(solver, "_log_kernel", counting)
    for n, lam, y in ((1, 0.885, (0.3,)), (2, 0.31, (0.3, -0.2))):
        nodes.clear()
        p, W = mkparams(n, lam, y), CycleW.monomial(1)
        quad = one_report(W, p)["quadrature"]
        assert set(quad) == {"trunc", "window", "panels", "refinements", "quad_error",
                             "kernel_evals", "solves", "lambdas"}
        assert quad["solves"] == n + 1
        assert quad["kernel_evals"] == len(nodes) == len(set(nodes)), (n, lam)
        lo, hi = quad["window"]
        h = first_step(p, W) / 2 ** quad["refinements"]
        assert quad["panels"] == round((hi - lo) / h), (n, lam)
        assert max(-lo, hi) <= quad["trunc"], (n, lam)


def first_step(p, W):
    """The step of the rule's first grid at (W, p)."""
    rec = build_contour(p, W=W).record
    return min(1 / p.panels_per_unit, rec["min_gap_above"], rec["min_gap_below"])


def _live_first_grid_span(points, reach):
    """The first and last node t of the first grid with |Re t| <= reach at
    which some solution's term exceeds atol times its weight sum over
    those nodes, and the first grid's step h."""
    W, p = points[0]
    h = first_step(p, W)
    j = np.arange(-int(reach / h), int(reach / h) + 1)
    block, factors, kernels = solver._report_values(points)(j * h + 1j * p.delta)
    live = np.zeros(len(j), dtype=bool)
    for ker in np.concatenate(list(kernels)):
        terms = np.max(np.abs(block), axis=1) * np.abs(ker)
        weight_sum = np.sum(factors * np.abs(ker), axis=-1)
        live |= np.any(terms > p.atol * weight_sum[:, None], axis=0)
    return j[live][0] * h, j[live][-1] * h, h


@pytest.mark.parametrize("n,grid,y,W", [
    (1, (-0.11, 0.885), (0.3,), None),
    (2, (-0.7, 0.35, -0.8, 0.15), (0.3, -0.15), None),
    (2, (-0.11,), (20.0, -0.15), CycleW.monomial(0)),
], ids=["solve-tails", "solve-window", "far-y1"])
def test_window_covers_every_first_grid_term_above_atol(n, grid, y, W):
    """The rule halves only over its window, and the window reaches every
    node of its first grid where some solution's term exceeds atol times
    its weight sum, ending within one band of the outermost such node on
    either side.  At the far y_1 the integrand lives on about [-40, -18]
    only, so the window leaves out the centre of the line."""
    points = [(W or CycleW.monomial(int(np.floor(lam)) + 1), mkparams(n, lam, y))
              for lam in grid]
    diag = grid_solutions(points)[1][0]
    first, last, h = _live_first_grid_span(points, 150.0)
    lo, hi = diag["window"]
    assert lo <= first and last <= hi, (diag["window"], first, last)
    band = solver._BAND * h
    assert first - band < lo and hi < last + band, (diag["window"], first, last)
    assert diag["trunc"] < 150.0


def test_each_side_of_the_line_is_truncated_on_its_own():
    """At a solve-tails grid the integrand lives on about [-22, 0.5].  The
    rule starts from the extents 13.4 on the left and 4 on the right, and
    its window ends below 13.4, the symmetric truncation it once started
    from on both sides (it then integrated [-54, 54]); the right side is
    evaluated less far than the left."""
    points = [(CycleW.monomial(int(np.floor(lam)) + 1), mkparams(1, lam, (0.3,)))
              for lam in (-0.11, 0.885)]
    diag = grid_solutions(points)[1][0]
    symmetric = max(build_contour(p, W=W).trunc for W, p in points)
    left, right = diag["contour"].extents
    assert diag["window"][1] < 2.0 < symmetric < 13.5
    assert right < left == diag["trunc"]


# Coefficients of the Gauss-Legendre panel integrator this rule replaced,
# keyed by (n, lambda, extra), where extra = 1 marks the lambda derivative:
# the six criterion 6 configurations, the solve-tails band at n = 1 and a
# solve-window point at n = 2.
PARENT_COEFFS = {
    (1, 0.25, 0): (
        (0.076476530177877+0.027516510650004922j),
        (-0.115428605698868+0.0416879803972149j),
    ),
    (1, 0.25, 1): (
        (1.0913026151798702-0.2738354961362858j),
        (-1.0370675545303636+1.7600202686605022j),
    ),
    (1, -0.35, 0): (
        (26.466338784737495-152.57664670319167j),
        (267.49899772305184-54.63914236605071j),
    ),
    (1, -0.35, 1): (
        (744.8663931531049-4420.528495085705j),
        (7373.7068075679545-2467.2733710820703j),
    ),
    (1, -0.7, 0): (
        (-0.05551232065207437-0.09523541392131883j),
        (-0.26616657609188554+0.2586850971007329j),
    ),
    (1, -0.7, 1): (
        (4.027676844191709+5.787030135625001j),
        (4.067279059041559+5.453741788962828j),
    ),
    (2, 0.31, 0): (
        (42477.007307035805+15824.722746966532j),
        (13166.09317098158+73440.1766071296j),
        (-43808.514390246026+34268.4208469075j),
        (-70185.45534385166-45922.40788157259j),
    ),
    (2, 0.31, 1): (
        (1218134.2188575992+455889.4597853256j),
        (472284.95338746766+2052859.5212318655j),
        (-1143789.9912120358+1097053.54742998j),
        (-2193512.216980742-967757.5849359571j),
    ),
    (2, -0.35, 0): (
        (-3365098005.2081704+19208340106.326023j),
        (-17198604558.900444+19488643037.482933j),
        (-20545857384.98131+5971574515.383566j),
        (-26580396873.737793-9297726958.714176j),
    ),
    (2, -0.35, 1): (
        (-375556920070.86743+976860789916.5963j),
        (-1065541650832.9811+859808238987.7114j),
        (-1119365248799.782+163227766713.6641j),
        (-1324473977271.0867-625522119301.6055j),
    ),
    (2, 0.1, 0): (
        (121.75667821206939+43.16520009283278j),
        (-89.21579495016573+248.80819091573494j),
        (-130.24693280374652-34.040314269716696j),
        (19.014038721081388-228.9923296825377j),
    ),
    (2, 0.1, 1): (
        (2921.5726319953383+745.7984278823934j),
        (-1085.573330673891+6100.762669955603j),
        (-3200.3080639005325-67.42729827977699j),
        (-1149.7457395103054-5413.709365781212j),
    ),
    (1, 0.885, 0): (
        (6192412.256261532+969222.8324100515j),
        (6833219.682309265+4243751.493825806j),
    ),
    (1, 0.885, 1): (
        (463764286.30748856+203676220.00724894j),
        (447320047.1731918+440648046.1677665j),
    ),
    (1, -0.11, 0): (
        (-0.004260970266446456-0.006220480366636895j),
        (0.0018478119161657548+0.005915759501831125j),
    ),
    (1, -0.11, 1): (
        (-0.09044418745445643+0.04351891550256138j),
        (0.10094640268118021-0.0072911524935686j),
    ),
    (1, 0.89, 0): (
        (9018981.379993297+2418906.356986994j),
        (9479641.691000173+7134867.3486863235j),
    ),
    (1, 0.89, 1): (
        (680547495.9994115+395878000.29142743j),
        (619691082.1319891+742631254.9040408j),
    ),
    (2, 0.25, 0): (
        (8570.637767201697+3906.7290359656436j),
        (845.7337143125321+15173.877624829358j),
        (-11024.224453443545+5462.67506406297j),
        (-10840.94695318737-14297.47156435858j),
    ),
    (2, 0.25, 1): (
        (229967.9248238098+94944.08591705008j),
        (56874.13550735534+392113.66076431994j),
        (-266315.0642633173+183676.17686881128j),
        (-362054.1851912582-310957.104333868j),
    ),
}
PARENT_CONFIGS = {
    (1, 0.25): ((0.3,), CycleW.monomial(1)),
    (1, -0.35): ((0.3,), CycleW.monomial(0)),
    (1, -0.7): ((0.3,), CycleW(((0, 1.0), (1, 0.5j)))),
    (2, 0.31): ((0.3, -0.2), CycleW.monomial(1)),
    (2, -0.35): ((0.3, -0.2), CycleW.monomial(0)),
    (2, 0.1): ((0.25, -0.4), CycleW(((1, 1.0), (2, -0.3)))),
    (1, 0.885): ((0.3,), CycleW.monomial(1)),
    (1, -0.11): ((0.3,), CycleW.monomial(1)),
    (1, 0.89): ((0.3,), CycleW.monomial(1)),
    (2, 0.25): ((0.3, -0.15), CycleW.monomial(1)),
}


def test_trapezoid_matches_the_parent_coefficients():
    assert len(PARENT_COEFFS) == 2 * len(PARENT_CONFIGS)
    for (n, lam, extra), want in PARENT_COEFFS.items():
        y, W = PARENT_CONFIGS[n, lam]
        p = mkparams(n, lam, y)
        if extra:
            got = grid_solutions([(W, p)])[0][0, 1]
        else:
            got, _ = solve_f(p.lam, p.y, W, p)
        top = max(abs(v) for v in want)
        err = max(abs(a - b) for a, b in zip(got, want))
        assert err <= 1e-12 * top, (n, lam, extra, err / top)
