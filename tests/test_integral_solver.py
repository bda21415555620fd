"""Contour-integral solution: kernel identities, quadrature, residuals.

Complex-domain checks compare against independently built oracles: closed
forms for the small cases, an adaptive Simpson integrator written here for
the pairing, and difference-quotient extrapolation for the derivative in
the spectral parameter.
"""

import cmath
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from fractions import Fraction

from bqkz.rqkz import ones, op_K, op_P, op_R, op_T, q_factor_list, shift_y
from bqkz.tensor_ops import LinOp, Space, Vec, embed_pair, embed_site
import bqkz.compat_ops as compat_ops
import bqkz.integral_solver as solver
import bqkz.rqkz as rqkz
from bqkz.integral_solver import (
    CycleW,
    DegreeError,
    QuadratureError,
    SeparationError,
    SolverParams,
    TWO_PI_I,
    build_contour,
    func_g,
    kernel_log_phi,
    log1m_exp_array,
    log_gamma_array,
    pair_I,
    prod_ratio_full,
    report_solutions,
    residual_report,
    solve_f,
    validate_contour_line,
    vanishing_integral,
    vec_u,
)

C = 0.1 + 0.2j
K = 0.05 + 1.0j

rng = random.Random(303132)


def mkparams(n, lam, y, **kw):
    return SolverParams(n=n, lam=lam, c=C, k=K, y=tuple(y), **kw)


def rand_t(r):
    return complex(r.uniform(-3, 3), r.uniform(-3, 3))


def vec_norm(vec):
    return max((abs(complex(v)) for v in vec.entries.values()), default=0.0)


def vec_u_all(params):
    return [vec_u(j, params) for j in range(1, 2 * params.n + 1)]


def filler_vector(params):
    """The fixed symmetric tensor on n-1 sites (empty when n = 1)."""
    if params.n == 1:
        raise ValueError("no filler sites when n = 1")
    space = Space(params.n - 1, params.half_dim)
    out = Vec(space, {})
    for state in solver._symmetric_fills(params.n - 1, params.half_dim):
        out = out.add(Vec.basis(space, state))
    return out


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
    vector of the target subspace."""
    out = Vec(params.space, {})
    for j in range(1, 2 * params.n + 1):
        out = out.add(vec_u(j, params).scale(func_g(j, t, y, params.k)))
    return out


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
    p = mkparams(1, 0.25, (0.3,))
    assert p.delta == pytest.approx(K.imag / 2)
    assert p.alpha == p.beta == K / 2
    assert p.x_point() == (p.big_e, 1)


def test_half_integer_spectral_point_is_allowed_for_pairing():
    """big_e = -1 is regular for the pairing; only the residual report,
    which needs the differential residuals, rejects it."""
    p = mkparams(1, -0.5, (0.3,))
    assert abs(p.big_e + 1) < 1e-12
    with pytest.raises(ValueError):
        residual_report(CycleW.monomial(0), p)


def test_cycle_degree_window():
    p = mkparams(1, 0.25, (0.3,))
    with pytest.raises(DegreeError) as err:
        CycleW.monomial(4).validate(p)
    assert "convergence window" in str(err.value)
    with pytest.raises(ValueError):
        CycleW(((0, 1.0), (0, 2.0)))
    with pytest.raises(ValueError):
        CycleW(())


# ---------------------------------------------------------------- vectors


def test_u_vectors_n1_closed_form():
    p = mkparams(1, -0.5, (0.3,))
    assert vec_u(1, p).entries == {(0,): 1}
    assert vec_u(2, p).entries == {(2,): 1}


def test_filler_conditions_and_rank():
    for n in (2, 3):
        p = mkparams(n, 0.31, tuple(0.1 + 0.13 * i for i in range(n)))
        fv = filler_vector(p)
        sp = fv.space
        for i in range(1, n - 1):
            assert embed_pair(op_P(2), i, i + 1, sp).apply(fv) == fv
        for i in range(1, n):
            assert embed_site(op_T(ones(2)), i, sp).apply(fv) == fv
        us = vec_u_all(p)
        assert len(us) == 2 * n
        states = sorted({s for u in us for s in u.entries})
        rows = [[Fraction(u.entries.get(s, 0)) for s in states] for u in us]
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
    for n in (2, 3):
        y = tuple(0.21 + 0.19 * i for i in range(n))
        p = mkparams(n, 0.37 + 0.11j, y)
        model = p.model()
        sp = p.space
        hits = 0
        while hits < 15:
            t = rand_t(rng)
            try:
                gt = gtilde_vec(t, y, p)
                for l in range(1, n):
                    ysw = list(y)
                    ysw[l - 1], ysw[l] = ysw[l], ysw[l - 1]
                    swap_op = embed_pair(op_P(2), l, l + 1, sp) @ embed_pair(
                        op_R(y[l - 1] - y[l], model), l, l + 1, sp
                    )
                    lhs = swap_op.apply(gt)
                    rhs = gtilde_vec(t, tuple(ysw), p)
                    assert vec_norm(lhs - rhs) <= 1e-10 * max(1.0, vec_norm(rhs)), (n, l)
                flip_op = embed_site(op_K(y[-1], ones(2), K / 2), n, sp)
                lhs = flip_op.apply(gt)
                rhs = gtilde_vec(t, y[:-1] + (-y[-1],), p)
                assert vec_norm(lhs - rhs) <= 1e-10 * max(1.0, vec_norm(rhs)), n
            except ZeroDivisionError:
                continue
            hits += 1


# ---------------------------------------------------------------- contour


def test_contour_record_frozen_example():
    """Eight pole families for one site including the shifted family, the
    tightest upper clearance coming from the shifted raised pole."""
    rec = validate_contour_line((0.3,), C, K, 0.5, 6.0, include_shifted=True)
    assert rec["poles_checked"] == 8
    assert rec["min_gap_above"] == pytest.approx(0.3)
    assert rec["min_gap_below"] == pytest.approx(0.3)
    assert set(rec["configs"]) == {"base", "shift-1"}


def test_contour_violation_reports_config():
    with pytest.raises(SeparationError) as err:
        validate_contour_line((0.3,), 0.1 + 0.9j, K, 0.5, 6.0, include_shifted=True)
    assert "shift-1" in str(err.value)


def test_contour_violation_below_reports_the_pole():
    """A downward-family pole at or above the line is named with its
    config."""
    with pytest.raises(SeparationError) as err:
        validate_contour_line((0.3 + 0.6j,), C, K, 0.5, 6.0, include_shifted=False)
    assert str(err.value) == "pole (0.3+0.6j) of config base not below the contour"


def test_build_contour_passes_regime():
    p = mkparams(1, 0.25, (0.3,))
    ctr = build_contour(p, W=CycleW.monomial(1))
    assert ctr.delta == pytest.approx(p.delta)
    assert ctr.trunc > 0
    assert ctr.record["poles_checked"] == 8


def test_report_contour_covers_the_integrated_line():
    """The rule widens the truncation past build_contour's; the reported
    contour record is validated out to the widest integrated line."""
    for n, lam, y in ((1, 0.885, (0.3,)), (2, -0.2, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        W = CycleW.monomial(int(np.floor(lam)) + 1)
        rep = residual_report(W, p)
        ctr = rep["contour"]
        assert ctr["trunc"] >= rep["quadrature"]["trunc"] > build_contour(p, W=W).trunc
        rec = validate_contour_line(p.y, C, K, p.delta, ctr["trunc"], include_shifted=True)
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
    diag = report_solutions(W, p)[0].diagnostics
    bound = p.atol * max(diag["scale"], 1.0)
    reach = max(j * h for j in range(int(2 * diag["trunc"] / h)) for side in (1, -1)
                if abs(solver._kernel_cycle(side * j * h + 1j * p.delta, p.y, W, p)) * h > bound)
    assert reach > 2 * math.ceil(build_contour(p, W=W).trunc / h) * h
    assert diag["trunc"] >= reach


def test_widened_line_with_a_far_wrong_side_pole_is_rejected():
    """A pole on the wrong side of the line beyond build_contour's window
    but inside the window the rule integrates fails the solve."""
    p = mkparams(1, 0.25, (0.3,))
    ctr = build_contour(p, W=CycleW.monomial(1))
    # -y + k sits at height 0.4, below the line at 0.5, near Re t = -40.
    far = replace(ctr, y=(40 + 0.6j,))
    validate_contour_line(far.y, C, K, far.delta, far.trunc, include_shifted=True)

    def values(t):
        ker = np.exp(-((t.real / 20) ** 2))
        return np.ones((1, 1, len(t))), np.ones((1, len(t))), [ker]

    with pytest.raises(SeparationError):
        solver._trapezoid(values, p, far, [p.lam])


# ---------------------------------------------------------------- pairing


from _oracles import simpson_oracle


def test_pair_i_frozen_oracle_point():
    """Independent high-precision quadrature of the same integrand froze
    this value; the implementation must keep reproducing it."""
    p = mkparams(1, -0.5, (0.3,))
    want = 1.8676715689736985 - 3.5987515575140336j
    got = pair_I(1, CycleW.monomial(0), p)
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
        for j in (1, 2 * n):
            got = pair_I(j, W, p)
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
    a = pair_I(2, w0, p)
    b = pair_I(2, w1, p)
    ab = pair_I(2, w0 + w1, p)
    assert abs(ab - (a + b)) <= 1e-10 * max(abs(ab), 1e-30)


def test_quadrature_error_reports_estimates():
    p = mkparams(1, -0.5, (0.3,), panels_per_unit=0.05, max_refine=0,
                 rtol=1e-13, atol=1e-30)
    with pytest.raises(QuadratureError) as err:
        pair_I(1, CycleW.monomial(0), p)
    assert "estimates" in str(err.value)


def test_quadrature_error_names_the_unconverged_solutions():
    """With no halving allowed no solution of a report converges, and the
    error names each of them."""
    p = mkparams(2, 0.31, (0.3, -0.2), max_refine=0)
    with pytest.raises(QuadratureError) as err:
        residual_report(CycleW.monomial(1), p)
    message = str(err.value)
    for name in ("base", "derivative", "shift-1", "shift-2"):
        assert name in message, name
    assert "estimates" in message


# ---------------------------------------------------------------- solution


def test_qkz_residuals_small():
    for n, lam, y in ((1, 0.25, (0.3,)), (2, 0.31, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        res = residual_report(CycleW.monomial(1), p)["qkz_residuals"]
        assert set(res) == {str(m) for m in range(1, n + 1)}
        for m, v in res.items():
            assert v <= 1e-7, (n, m, v)


def test_ode_and_gauge_residuals_small():
    for n, lam, y in ((1, 0.25, (0.3,)), (2, 0.31, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        rep = residual_report(CycleW.monomial(1), p)
        assert rep["ode_residual"] <= 1e-7
        assert rep["ftilde_residual"] <= 1e-7


def _bumped(op, state, size=1e-6):
    """op with size added to its diagonal entry at state."""
    c = op.space.index(state)
    cols = {key: dict(col) for key, col in op._values().items()}
    col = cols.setdefault(c, {})
    col[c] = col.get(c, 0) + size
    return LinOp.of(op.space, cols, 1, False)


def test_residuals_see_a_small_error_in_each_of_their_inputs(monkeypatch):
    """A change of about 1e-6 in one entry of a transport factor (the
    coordinate reflection Kx or an exchange factor R), of op_B, or of one
    coefficient of a shifted solution lifts the residuals built from it
    above 1e-7.  A transport factor lifts the qKZ residual of every Q_m
    that contains it; a shift-m coefficient lifts qkz_residuals[m] and
    changes nothing else; op_B lifts both differential residuals."""
    W = CycleW.monomial(1)
    real_factor, real_b = rqkz._factor_op, compat_ops.op_B
    for n, lam, y in ((1, 0.25, (0.3,)), (2, 0.31, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        sites = [str(m) for m in range(1, n + 1)]
        solutions = report_solutions(W, p)
        clean = residual_report(W, p, solutions)
        base, deriv, shifted = solutions
        top = max(range(2 * n), key=lambda j: abs(base.coeffs[j]))
        state = min(vec_u(top + 1, p).entries)
        factors = {d for m in range(1, n + 1) for d in q_factor_list(m, n)}
        assert len(factors) == (2 if n == 1 else 7)
        for target in sorted(factors):
            def bumped_factor(desc, *args, target=target):
                op = real_factor(desc, *args)
                return _bumped(op, state) if desc == target else op

            monkeypatch.setattr(rqkz, "_factor_op", bumped_factor)
            rep = residual_report(W, p, solutions)
            monkeypatch.setattr(rqkz, "_factor_op", real_factor)
            for m in sites:
                if target in q_factor_list(int(m), n):
                    assert rep["qkz_residuals"][m] > 1e-7, (n, target, m)
                else:
                    assert rep["qkz_residuals"][m] == clean["qkz_residuals"][m], (n, target, m)
            assert rep["ode_residual"] == clean["ode_residual"]
        for m in range(1, n + 1):
            sol = shifted[m - 1]
            vals = list(sol.coeffs)
            vals[top] += 1e-6 * abs(vals[top])
            moved = list(shifted)
            moved[m - 1] = solver._solution(replace(p, y=sol.y), vals, sol.diagnostics)
            rep = residual_report(W, p, (base, deriv, moved))
            for key in sites:
                if key == str(m):
                    assert rep["qkz_residuals"][key] > 1e-7, (n, m)
                else:
                    assert rep["qkz_residuals"][key] == clean["qkz_residuals"][key], (n, m)
            for key in ("ode_residual", "ftilde_residual"):
                assert rep[key] == clean[key], (n, m, key)
        monkeypatch.setattr(compat_ops, "op_B", lambda *args: _bumped(real_b(*args), state))
        rep = residual_report(W, p, solutions)
        monkeypatch.setattr(compat_ops, "op_B", real_b)
        assert rep["ode_residual"] > 1e-7 and rep["ftilde_residual"] > 1e-7, n
        assert rep["qkz_residuals"] == clean["qkz_residuals"], n


def test_vanishing_integral():
    p = mkparams(1, 0.25, (0.3,))
    W = CycleW.monomial(1)
    value, scale = vanishing_integral(W, p, build_contour(p, W=W))
    assert abs(value) <= 1e-9 * max(scale, 1e-30)


def test_dlambda_against_difference_quotient():
    p = mkparams(1, 0.25, (0.3,))
    W = CycleW.monomial(1)
    _, deriv, _ = report_solutions(W, p)
    h = 1e-4
    samples = {}
    for step in (-2, -1, 1, 2):
        q = mkparams(1, 0.25 + step * h, (0.3,))
        samples[step] = solve_f(q.lam, q.y, W, q)
    for idx in range(len(deriv.coeffs)):
        want = (
            8 * (samples[1].coeffs[idx] - samples[-1].coeffs[idx])
            - (samples[2].coeffs[idx] - samples[-2].coeffs[idx])
        ) / (12 * h)
        got = deriv.coeffs[idx]
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), idx


def test_solver_determinism():
    p = mkparams(2, 0.31, (0.3, -0.2))
    W = CycleW.monomial(1)
    a = solve_f(p.lam, p.y, W, p)
    b = solve_f(p.lam, p.y, W, p)
    assert repr(a.coeffs) == repr(b.coeffs)
    assert a.diagnostics == b.diagnostics


def test_residual_report_keys():
    p = mkparams(1, 0.25, (0.3,))
    rep = residual_report(CycleW.monomial(1), p)
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
        rep = residual_report(W, p)
        monkeypatch.setattr(solver, "_trapezoid", real_trapezoid)
        shifts = tuple("shift-%d" % m for m in range(1, n + 1))
        assert calls == [(p.lam, p.y, ("base", "derivative") + shifts)], calls
        assert rep["quadrature"]["solves"] == n + 1
        base, _, _ = report_solutions(W, p)
        assert rep["coefficients"] == [[v.real, v.imag] for v in base.coeffs]


def test_grid_points_may_differ_only_in_lambda():
    """A grid shares its contour, kernel and weight rows, and its residual
    pass its lambda-independent operators, so its points must agree in
    everything but lambda."""
    W = CycleW.monomial(1)
    p = mkparams(1, 0.25, (0.3,))
    solved = report_solutions(W, p)
    for q in (replace(p, lam=0.4, y=(0.2,)), replace(p, lam=0.4, rtol=1e-8)):
        with pytest.raises(ValueError, match="differ only in lambda"):
            solver.grid_solutions([(W, p), (W, q)])
        with pytest.raises(ValueError, match="differ only in lambda"):
            solver.grid_residuals([(W, p), (W, q)], [solved, solved])


def test_joint_rule_takes_the_stricter_grid():
    """At this point the base rows alone settle after 2 halvings and the
    derivative rows after 3; the joint rule takes 3, and the base
    coefficients still match the independent quadrature."""
    p = mkparams(1, -0.60463035, (0.3,))
    W = CycleW.monomial(0)
    rep = residual_report(W, p)
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
        joint = residual_report(W, p)["quadrature"]["refinements"]
        for point in [p.y] + [shift_y(p.y, m, C) for m in range(1, n + 1)]:
            alone = solve_f(p.lam, point, W, p, contour=contour)
            assert joint >= alone.diagnostics["refinements"], (n, lam, point)


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
        block, factors, (base_ker,) = solver._report_values([(W, p)])(ts)
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
        _, _, shifted = report_solutions(W, p)
        assert len(shifted) == n
        for m, sol in enumerate(shifted, start=1):
            q = replace(p, y=shift_y(p.y, m, C))
            assert sol.y == q.y
            for j in (1, 2 * n):
                want = simpson_oracle(j, W, q)
                assert abs(sol.coeffs[j - 1] - want) <= 1e-8 * abs(want), (n, m, j)


# ---------------------------------------------------------------- array pass


def test_array_kernel_cycle_matches_scalar():
    """The array kernel-cycle equals the scalar one along the contour out to
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
            want = solver._kernel_cycle(complex(t), p.y, W, p)
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
    """A solve that refines out to long tails, the residual reports (up to
    n = 3, whose joint rule carries 30 rows) and the vanishing integral run
    clean under np.errstate(all="raise")."""
    with np.errstate(all="raise"):
        for n, lam, y in ((1, 0.885, (0.3,)), (2, 0.31, (0.3, -0.2)),
                          (3, 0.25, (0.3, -0.2, 0.45))):
            p = mkparams(n, lam, y)
            W = CycleW.monomial(1)
            rep = residual_report(W, p)
            assert max(rep["max_qkz_residual"], rep["ode_residual"],
                       rep["ftilde_residual"]) <= 1e-7, (n, lam)
            if lam == 0.885:
                assert rep["quadrature"]["refinements"] >= 2
                value, scale = vanishing_integral(W, p)
                assert abs(value) <= 1e-9 * scale


# ---------------------------------------------------------------- trapezoidal rule


def test_each_node_is_evaluated_once(monkeypatch):
    """Nested halving reuses every node: one solve evaluates the kernel at
    exactly the panels + 1 nodes of its final grid."""
    real = solver._kernel_cycle_array
    for n, lam, y in ((1, 0.885, (0.3,)), (2, 0.31, (0.3, -0.2))):
        p = mkparams(n, lam, y)
        nodes = []

        def counting(t, *args, **kwargs):
            nodes.append(len(t))
            return real(t, *args, **kwargs)

        monkeypatch.setattr(solver, "_kernel_cycle_array", counting)
        sol = solve_f(p.lam, p.y, CycleW.monomial(1), p)
        monkeypatch.setattr(solver, "_kernel_cycle_array", real)
        assert sum(nodes) == sol.diagnostics["panels"] + 1, (n, lam)


def test_report_counts_kernel_evaluations(monkeypatch):
    """A report evaluates the kernel once at every node of its one final
    grid for all n + 1 points it solves, and the quadrature record says
    so."""
    real = solver._log_kernel
    nodes = []

    def counting(t, *args, **kwargs):
        nodes.append(len(t))
        return real(t, *args, **kwargs)

    monkeypatch.setattr(solver, "_log_kernel", counting)
    for n, lam, y in ((1, 0.885, (0.3,)), (2, 0.31, (0.3, -0.2))):
        nodes.clear()
        quad = residual_report(CycleW.monomial(1), mkparams(n, lam, y))["quadrature"]
        assert set(quad) == {"trunc", "panels", "refinements", "quad_error",
                             "kernel_evals", "solves", "lambdas"}
        assert quad["solves"] == n + 1
        assert quad["kernel_evals"] == quad["panels"] + 1 == sum(nodes), (n, lam)


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
            got = report_solutions(W, p)[1].coeffs
        else:
            got = solve_f(p.lam, p.y, W, p).coeffs
        top = max(abs(v) for v in want)
        err = max(abs(a - b) for a, b in zip(got, want))
        assert err <= 1e-12 * top, (n, lam, extra, err / top)
