"""Independent quadrature oracle shared by the solver and acceptance tests.

Kept deliberately separate from the package's trapezoidal integrator:
plain adaptive Simpson with Richardson correction along the same line
Im t = Im(k)/2 but with its own truncation and its own tolerance, both
relative to the size of the integral.  The oracle owns the scalar route:
its integrand is assembled here one sample at a time, in log space, from
the package's scalar kernel `kernel_log_phi`, weight function `func_g`
and `log1m_exp`, where the package evaluates the integrand only over
arrays of nodes.  It also owns the whole-operator route of the residual
pass (`residuals_oracle`), which writes each transport factor state by
state from the layout oracles of the two factor shapes (`_exchange_cols`,
`_reflection_cols`, which the index-convention tests read too, and the
gather test through `_factor_cols`) and reads nothing of the package's
layout, and the full pole ratio `prod_ratio_full`, which the kernel's
shift relation and the weight functions' telescoping are compared with.
The exact tests' Fraction oracles reduce their results mod P by `mod_p`,
their own map.
"""

import cmath
import functools
from fractions import Fraction
from typing import Sequence

import numpy as np

from bqkz import compat_ops
from bqkz.integral_solver import TWO_PI_I, func_g, kernel_log_phi, vec_u
from bqkz.rqkz import factor_ops, q_factor_list
from bqkz.scalar_field import P, log1m_exp
from bqkz.tensor_ops import Space

# The oracle's first line is |Re t| <= _REACH, widened by doubling; a line
# that never settles by _MAX_REACH is an error of the oracle, not an answer.
_REACH = 16
_MAX_REACH = 1 << 12
# Accuracy relative to the integral's size: far below the 1e-8 the tests
# compare at, and far enough above the integrand's rounding that a piece
# settles before full depth unless the integral cancels strongly.
_RTOL = 1e-10


def mod_p(v) -> int:
    """The canonical residue mod P of a rational, by its own inverse."""
    v = Fraction(v)
    return v.numerator * pow(v.denominator, -1, P) % P


def _log_cycle_denominator(t, y, c):
    out = 0
    for yp in y:
        out += log1m_exp(TWO_PI_I * (t - yp) / c)
        out += log1m_exp(TWO_PI_I * (t + yp) / c)
    return out


def _kernel_cycle(t, y, W, params):
    """Kernel times cycle value at one sample, assembled in log space."""
    base = kernel_log_phi(t, y, params) - _log_cycle_denominator(t, y, params.c)
    logz = TWO_PI_I * t / params.c
    out = 0
    for d, cf in W.terms:
        out += cf * cmath.exp(base + d * logz)
    return out


def prod_ratio_full(t: complex, y: Sequence, k: complex) -> complex:
    """Product of (t -+ y_p - k)/(t -+ y_p) over all 2n pole centers."""
    out = 1
    for yp in y:
        out = out * (t - yp - k) / (t - yp)
        out = out * (t + yp - k) / (t + yp)
    return out


def integrand(j, W, t, params):
    """Full integrand sample for one pairing index at params.y."""
    return _kernel_cycle(t, params.y, W, params) * func_g(j, t, params.y, params.k)


def adaptive_simpson(f, a, b, eps, depth=26):
    """Adaptive Simpson on a real interval, complex values."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, level):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        fl = f(lmid)
        fr = f(rmid)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if level <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, fl, fmid, left, 0.5 * tol, level - 1) + recurse(
            mid, hi, fmid, fr, fhi, right, 0.5 * tol, level - 1
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, eps, depth)


def _line_integral(f, eps):
    """Integral of f over the real line to absolute accuracy about eps:
    unit pieces of |s| <= _REACH, then the bands _REACH < |s| <= 2 _REACH,
    and so on, doubling until a band adds at most eps."""

    def band(lo, hi):
        # Each unit piece gets its share of eps over the band's width.
        tol = eps / (2 * (hi - lo))
        return sum(adaptive_simpson(f, a, a + 1, tol) + adaptive_simpson(f, -a - 1, -a, tol)
                   for a in range(lo, hi))

    total = band(0, _REACH)
    reach = _REACH
    while reach < _MAX_REACH:
        outer = band(reach, 2 * reach)
        total += outer
        reach *= 2
        if abs(outer) <= eps:
            return total
    raise ArithmeticError("the oracle's line did not settle by |Re t| = %d" % _MAX_REACH)


def simpson_oracle(j, W, params, eps=None):
    """Pairing value by adaptive Simpson along the line Im t = Im(k)/2, to
    absolute accuracy about eps, or by default to _RTOL relative to its
    own size.

    For the default, a first pass, to an eps relative to the largest
    integrand sample at the integers of |s| <= _REACH, gives the size of
    the integral; a second pass integrates to _RTOL times that size, so a
    tiny integral is resolved as finely as one of size 1.
    """
    delta = params.delta

    def f(s):
        return integrand(j, W, complex(s, delta), params)

    if eps is not None:
        return _line_integral(f, eps)
    peak = max(abs(f(s)) for s in range(-_REACH, _REACH + 1))
    size = abs(_line_integral(f, 1e-6 * peak)) if peak else 0.0
    if not size:
        # An eps of 0 would recurse to full depth in every piece.
        raise ArithmeticError("the integrand has no size on the sampled line")
    return _line_integral(f, _RTOL * size)


def _dense(op):
    return np.array(op.to_dense(), dtype=complex)


def _exchange_cols(half, diag, keep, swap):
    """(space, {col state: {row state: value}}): diag on a state of two
    equal codes, else keep, on every state, plus swap from each state
    (a, b) with a != b to (b, a)."""
    space = Space(2, half)
    cols = {}
    for col in space.states():
        for row in space.states():
            if row == col:
                v = diag if col[0] == col[1] else keep
            else:
                v = swap if row == col[::-1] else 0
            if v != 0:
                cols.setdefault(col, {})[row] = v
    return space, cols


def _reflection_cols(diag, flips):
    """(space, {col state: {row state: value}}): diag on every state, plus
    down from label a to abar and up from abar to a, for each label's
    (down, up) pair."""
    half = len(flips)
    space = Space(1, half)
    cols = {}
    for (col,) in space.states():
        for (row,) in space.states():
            if row == col:
                v = diag
            elif col < half and row == col + half:
                v = flips[col][0]
            elif col >= half and row == col - half:
                v = flips[col - half][1]
            else:
                v = 0
            if v != 0:
                cols.setdefault((col,), {})[(row,)] = v
    return space, cols


def _factor_cols(factor, half):
    """(space, {col state: {row state: value}}) of a transport factor on
    its own one or two sites: its scalars over its divisor laid out by the
    oracle of its shape, exchange on two sites, reflection on one."""
    scalars = [v / factor.over for v in factor.scalars]
    if len(factor.strides) == 2:
        return _exchange_cols(half, *scalars)
    return _reflection_cols(scalars[0], list(zip(scalars[1::2], scalars[2::2])))


def _whole_factor(factor, sites, space):
    """A transport factor as one dense whole-space complex matrix, written
    state by state: its local matrix from the oracle of its shape
    (`_factor_cols`), and each whole state's digits at `sites` read as
    the local state, every other digit kept."""
    _, local = _factor_cols(factor, space.half_dim)
    at = [site - 1 for site in sites]
    position = {s: i for i, s in enumerate(space.states())}
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for col, j in position.items():
        for local_row, v in local.get(tuple(col[p] for p in at), {}).items():
            row = list(col)
            for p, digit in zip(at, local_row):
                row[p] = digit
            out[position[tuple(row)], j] = v
    return out


def residuals_oracle(points, coeffs):
    """The qKZ, ODE and gauge residuals of each (W, params) point of a grid
    from its rows of the (L, n + 2, 2n) coefficient array (solution,
    derivative, shift-1 .. shift-n), by whole operators: per lambda, each
    transport operator Q_m as the matrix product of all its factors
    (`factor_ops` over `q_factor_list`), each factor a dense whole-space
    matrix (`_whole_factor`), and dense op_A and op_B, the sums of their
    terms, applied to the dense solution vectors.
    The package's residual pass applies each factor on its own sites
    instead."""
    out = []
    for (_, p), (base, deriv, *shifted) in zip(points, coeffs):
        model, x, c, k = p.model(), p.x_point(), p.c, p.k

        def vector(row):
            v = np.zeros(p.space.dim, dtype=complex)
            for j, a in enumerate(row, start=1):
                v[list(vec_u(j, p))] += a
            return v

        vec, dvec = vector(base), vector(deriv)
        norm = np.max(np.abs(vec))
        qkz = {}
        for m, row in enumerate(shifted, start=1):
            descs = q_factor_list(m, p.n)
            q_m = functools.reduce(np.matmul, [
                _whole_factor(f, desc[1], p.space)
                for desc, f in zip(descs, factor_ops(descs, x, p.y, model))])
            qkz[m] = float(np.max(np.abs(vector(row) - q_m @ vec)) / norm)
        terms = compat_ops.op_A_terms(1, p.y, model) + compat_ops.op_B_terms(1, x, model)
        lvec = sum(coef * _dense(op) for coef, op in terms) @ vec
        ex = p.big_e
        ode = np.max(np.abs(dvec * c / TWO_PI_I + lvec + vec * k * ex / (ex - 1))) / norm
        # The gauge prefactor s = (e - 1)^{k/c} on the principal branch and its
        # lambda derivative times c / (2 pi i).
        s = cmath.exp(k / c * cmath.log(ex - 1))
        ds = k * ex * s / (ex - 1)
        gauge = np.max(np.abs(vec * ds + dvec * s * c / TWO_PI_I + lvec * s)) / (abs(s) * norm)
        out.append((qkz, float(ode), float(gauge)))
    return out
