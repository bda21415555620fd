"""Contour-integral solution of the compatible difference/differential system
in the symmetric-parameter regime, with quadrature diagnostics and residual
checks.

The solution lives on the hyperplane x = (e^{2 pi i lambda}, 1, ..., 1) with
both reflection weights equal to k/2.  Its coefficients are pairings of
rational weight functions against a fixed cycle, integrated over a horizontal
contour that separates two families of gamma poles.  All heavy evaluation is
done in log space: one complex exponential at the very end per integrand
sample, so nothing overflows even when the cycle monomials grow like
|z|^(2n) along the tails.

Pole separation requires Im c > 0, Im k > 0, 2 max|Im y_p| < Im k and
Im c < Im k / 2; the module validates these and refuses configurations where
the contour cannot sit at height Im(k)/2.  The y entries are real at the
user level but may acquire imaginary parts up to the separation bound when a
solve is run at a singly shifted point.

The integrand is analytic in a strip around the contour and decays
exponentially, so one trapezoidal rule with nested halving integrates it:
each halving evaluates only the new midpoints.  The kernel, the cycle
denominator and the 2n weight functions are evaluated over numpy arrays of
nodes, in chunks of at most _CHUNK nodes summed in a fixed order, so
results are reproducible bit for bit.  The array kernel takes log Gamma
modulo 2 pi i, which is sound because only exponentials of sums are used.  The scalar kernel
(`integrand`, `_kernel_cycle`) stays as the route of the independent
quadrature oracle and as the reference the array kernel is tested against.
A residual report integrates one node set with one kernel evaluation per
node.  Its rows are the base pairing rows, the lambda derivative rows (the
pairing rows times -2 pi i t / c) and, for each shifted point
shift_y(y, m, c), the kernel times a rational factor R_m(t) times the
shifted weight functions: the Gamma recurrence turns the shift of y_m into
R_m, and the cycle denominator is c-periodic in y.  Each of these solutions
passes its own convergence test on the shared grid.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .rqkz import ModelParams, op_Q, shift_y
from .scalar_field import (
    cpow,
    log1m_exp,
    log1m_exp_array,
    log_gamma,
    log_gamma_array,
)
from .tensor_ops import Space, Vec

TWO_PI_I = 2j * math.pi
# The array kernel sets terms whose exponent has real part below this to
# zero: e^-600 is far under any sum such a term enters, and every product
# the pass forms from a larger term stays in the normal double range.
_EXP_FLOOR = -600.0


class SeparationError(ValueError):
    """A pole lies on the wrong side of the contour."""


class DegreeError(ValueError):
    """A cycle monomial violates the convergence window."""


class QuadratureError(RuntimeError):
    """The trapezoidal rule did not converge within the allowed halvings."""


@dataclass(frozen=True)
class SolverParams:
    """Evaluation point and quadrature configuration.

    Both reflection weights are pinned to k/2; the first coordinate is
    e^{2 pi i lam} and the remaining ones are 1.
    """

    n: int
    lam: complex
    c: complex
    k: complex
    y: tuple
    half_dim: int = 2
    panels_per_unit: float = 4.0
    max_refine: int = 5
    rtol: float = 1e-9
    atol: float = 1e-14

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one site")
        if len(self.y) != self.n:
            raise ValueError("y must have one entry per site")
        if self.n >= 2 and self.half_dim < 2:
            raise ValueError("need at least two labels when n >= 2")
        if not (self.c.imag > 0 and self.k.imag > 0):
            raise ValueError("need Im c > 0 and Im k > 0")
        if not (self.c.imag < self.k.imag / 2):
            raise ValueError("need Im c < Im k / 2")
        ybound = 2 * max(abs(complex(v).imag) for v in self.y)
        if not (ybound < self.k.imag):
            raise ValueError("need 2 max|Im y_p| < Im k")
        if abs(self.big_e - 1) < 1e-8:
            raise ValueError("e^{2 pi i lam} too close to 1")
        object.__setattr__(
            self, "y", tuple(complex(v) for v in self.y)
        )

    @property
    def delta(self) -> float:
        """Height of the contour line, Im(k)/2."""
        return self.k.imag / 2

    @property
    def alpha(self) -> complex:
        return self.k / 2

    @property
    def beta(self) -> complex:
        return self.k / 2

    @property
    def big_e(self) -> complex:
        return cmath.exp(TWO_PI_I * self.lam)

    @property
    def space(self) -> Space:
        return Space(self.n, self.half_dim)

    def x_point(self) -> tuple:
        return (self.big_e,) + (1,) * (self.half_dim - 1)

    def model(self) -> ModelParams:
        return ModelParams(
            c=self.c, k=self.k, alpha=self.alpha, beta=self.beta,
            space=self.space,
        )


@dataclass(frozen=True)
class CycleW:
    """Cycle numerator: monomials z^d with constant coefficients."""

    terms: tuple

    def __post_init__(self):
        degs = [d for d, _ in self.terms]
        if len(set(degs)) != len(degs):
            raise ValueError("duplicate monomial degree")
        if not self.terms:
            raise ValueError("empty cycle")

    @classmethod
    def monomial(cls, degree: int, coeff=1.0) -> "CycleW":
        return cls(((int(degree), complex(coeff)),))

    def __add__(self, other: "CycleW") -> "CycleW":
        table = dict(self.terms)
        for d, cf in other.terms:
            table[d] = table.get(d, 0) + cf
        return CycleW(tuple(sorted(table.items())))

    def validate(self, params: SolverParams):
        lo = params.lam.real
        hi = lo + 2 * params.n
        for d, _ in self.terms:
            if not (lo < d < hi):
                raise DegreeError(
                    "cycle degree %d outside the convergence window (%g, %g)"
                    % (d, lo, hi)
                )


@dataclass(frozen=True)
class Contour:
    """Validated horizontal integration path Im t = delta, |Re t| <= trunc,
    with the pole configurations (y, c, k, include_shifted) it was
    validated for."""

    delta: float
    trunc: float
    record: dict
    y: tuple
    c: complex
    k: complex
    include_shifted: bool

    def widened(self, trunc: float) -> "Contour":
        """The same line and configurations, validated out to trunc."""
        record = validate_contour_line(
            self.y, self.c, self.k, self.delta, trunc,
            include_shifted=self.include_shifted,
        )
        return replace(self, trunc=trunc, record=record)


@dataclass(frozen=True)
class SolutionVector:
    """Pairing coefficients with the evaluation point and diagnostics."""

    coeffs: tuple
    lam: complex
    y: tuple
    vec: Vec
    diagnostics: dict


def vec_u(j: int, params: SolverParams) -> Vec:
    """Basis vector of the 2n-dimensional target subspace.

    For j <= n the j-th site carries the first label and every other site
    carries the symmetric second-label pair; for j > n site 2n+1-j carries
    the barred first label instead.
    """
    n = params.n
    if not 1 <= j <= 2 * n:
        raise ValueError("index out of range")
    space = params.space
    half = params.half_dim
    if j <= n:
        site, code = j, 0
    else:
        site, code = 2 * n + 1 - j, half
    if n == 1:
        return Vec.basis(space, (code,))
    out = Vec(space, {})
    for fill in _symmetric_fills(n - 1, half):
        state = fill[: site - 1] + (code,) + fill[site - 1:]
        out = out.add(Vec.basis(space, state))
    return out


def _symmetric_fills(count: int, half: int):
    """States of the filler sites: every site label 2, barred or not."""
    if count == 0:
        yield ()
        return
    for rest in _symmetric_fills(count - 1, half):
        yield (1,) + rest
        yield (half + 1,) + rest


def func_g(j: int, t: complex, y: Sequence, k: complex) -> complex:
    """Rational weight function, uniform over all 2n indices via the
    extended pole-center list."""
    n = len(y)
    if not 1 <= j <= 2 * n:
        raise ValueError("index out of range")
    yext = tuple(y) + tuple(-v for v in reversed(tuple(y)))
    den = t - yext[j - 1]
    if den == 0:
        raise ZeroDivisionError("weight function pole")
    out = 1 / den
    for p in range(j - 1):
        d = t - yext[p]
        if d == 0:
            raise ZeroDivisionError("weight function pole")
        out = out * (t - yext[p] - k) / d
    return out


def prod_ratio_full(t: complex, y: Sequence, k: complex) -> complex:
    """Product of (t -+ y_p - k)/(t -+ y_p) over all 2n pole centers."""
    out = 1
    for yp in y:
        out = out * (t - yp - k) / (t - yp)
        out = out * (t + yp - k) / (t + yp)
    return out


def kernel_log_phi(t: complex, y: Sequence, params: SolverParams) -> complex:
    """Logarithm of the kernel: exponential prefactor plus gamma ratios."""
    c, k = params.c, params.k
    out = -TWO_PI_I * params.lam * t / c
    for yp in y:
        out += log_gamma((t - yp - k) / (-c))
        out += log_gamma((t + yp - k) / (-c))
        out -= log_gamma((t - yp) / (-c))
        out -= log_gamma((t + yp) / (-c))
    return out


def _log_cycle_denominator(t: complex, y: Sequence, c: complex) -> complex:
    out = 0
    for yp in y:
        out += log1m_exp(TWO_PI_I * (t - yp) / c)
        out += log1m_exp(TWO_PI_I * (t + yp) / c)
    return out


def _kernel_cycle(t: complex, y: Sequence, W: CycleW,
                  params: SolverParams) -> complex:
    """Kernel times cycle value at one sample, assembled in log space."""
    base = kernel_log_phi(t, y, params)
    base -= _log_cycle_denominator(t, y, params.c)
    logz = TWO_PI_I * t / params.c
    out = 0
    for d, cf in W.terms:
        out += cf * cmath.exp(base + d * logz)
    return out


def _kernel_cycle_array(t, y: Sequence, W: CycleW, params: SolverParams):
    """_kernel_cycle over a 1-D array of nodes t, with log Gamma and the
    cycle denominator in array form.

    The 2n differences d = t - (+-y_p) form one (2n, N) array.  One
    log_gamma_array call takes all 4n gamma arguments, stacked as
    ((d - k)/(-c), d/(-c)), and one log1m_exp_array call all 2n cycle
    denominator terms.  Their rows are added in the scalar kernel's order,
    so each node's value does not depend on the stacking.

    Terms whose exponent has real part below _EXP_FLOOR are set to zero
    instead of underflowing, as the scalar form would round them to zero.
    """
    c, k = params.c, params.k
    centers = np.array([v for yp in y for v in (yp, -yp)])
    diff = t - centers[:, None]
    up, down = log_gamma_array(np.stack(((diff - k) / (-c), diff / (-c))))
    den = log1m_exp_array(TWO_PI_I * diff / c)
    base = -TWO_PI_I * params.lam * t / c
    for p in range(0, len(centers), 2):
        base = (base + up[p] + up[p + 1] - down[p] - down[p + 1]
                - den[p] - den[p + 1])
    logz = TWO_PI_I * t / c
    out = 0
    for d, cf in W.terms:
        expo = base + d * logz
        live = expo.real >= _EXP_FLOOR
        expo = np.where(live, expo, _EXP_FLOOR)
        out = out + cf * np.where(live, np.exp(expo), 0)
    return out


def _weight_rows(t, y: Sequence, k: complex) -> list:
    """g_1 .. g_2n over an array of nodes, as one running product of the
    func_g factors."""
    rows = []
    ratio = 1
    for center in tuple(y) + tuple(-v for v in reversed(tuple(y))):
        den = t - center
        rows.append(ratio / den)
        ratio = ratio * (den - k) / den
    return rows


def integrand(j: int, W: CycleW, t: complex, params: SolverParams,
              y: Sequence = None) -> complex:
    """Full integrand sample for one pairing index."""
    yy = params.y if y is None else tuple(y)
    return _kernel_cycle(t, yy, W, params) * func_g(j, t, yy, params.k)


def _initial_trunc(W: CycleW, params: SolverParams) -> float:
    """Truncation where every monomial tail factor drops below atol."""
    lo = params.lam.real
    hi = lo + 2 * params.n
    m_left = min(d - lo for d, _ in W.terms)
    m_right = min(hi - d for d, _ in W.terms)
    need = math.log(1 / params.atol)
    scale = abs(params.c) ** 2 / (2 * math.pi)
    dc = params.delta * params.c.real
    t_right = (need / m_right * scale + dc) / params.c.imag
    t_left = (need / m_left * scale - dc) / params.c.imag
    base = max(t_right, t_left, 2.0)
    return base + 2.0


def validate_contour_line(y, c: complex, k: complex, delta: float,
                          trunc: float, include_shifted: bool = True) -> dict:
    """Pole-side validation of the horizontal line Im t = delta.

    Enumerates every gamma pole whose real part falls inside the truncation
    window (plus margin): the upward families must lie strictly above the
    line and the downward families strictly below, both for the given y
    and, when include_shifted is set, for each singly shifted
    configuration.  Raises SeparationError naming the offending pole.
    """
    margin = 2.0 + abs(c)
    configs = [("base", tuple(y))]
    if include_shifted:
        configs += [("shift-%d" % m, shift_y(y, m, c)) for m in range(1, len(y) + 1)]
    checked = 0
    # side +1 walks the upward family base + k + j c, which must lie above
    # the line; side -1 the downward family base - j c, which must lie
    # below it.  side * (pole.imag - delta) is the pole's gap.
    gaps = {1: math.inf, -1: math.inf}
    for name, yy in configs:
        for yp in yy:
            for base in (yp, -yp):
                for start, step, side in ((base + k, c, 1), (base, -c, -1)):
                    for jj in itertools.count():
                        pole = start + jj * step
                        if abs(pole.real) > trunc + margin:
                            break
                        if side * pole.imag > side * delta + 3 * abs(c):
                            break
                        if side * pole.imag <= side * delta:
                            raise SeparationError(
                                "pole %r of config %s not %s the contour"
                                % (pole, name, "above" if side > 0 else "below")
                            )
                        gaps[side] = min(gaps[side], side * (pole.imag - delta))
                        checked += 1
    return {
        "poles_checked": checked,
        "min_gap_above": gaps[1],
        "min_gap_below": gaps[-1],
        "configs": [name for name, _ in configs],
    }


def build_contour(params: SolverParams, W: CycleW = None,
                  include_shifted: bool = True) -> Contour:
    """Horizontal contour at Im t = delta, truncated and pole-validated."""
    if W is None:
        W = CycleW.monomial(int(math.floor(params.lam.real)) + 1)
    trunc = _initial_trunc(W, params)
    record = validate_contour_line(
        params.y, params.c, params.k, params.delta, trunc,
        include_shifted=include_shifted,
    )
    return Contour(delta=params.delta, trunc=trunc, record=record, y=tuple(params.y),
                   c=params.c, k=params.k, include_shifted=include_shifted)


# Nodes per array evaluation; bounds the working arrays of a sweep.
_CHUNK = 4096


def _sweep(values, nodes):
    """Row sums, kernel-weight sums and largest row term of each row group
    over an array of nodes, evaluated chunk by chunk in node order."""
    sums, weight_sum, top = 0, 0.0, 0.0
    for lo in range(0, len(nodes), _CHUNK):
        rows, weights = values(nodes[lo:lo + _CHUNK])
        sums = sums + np.sum(rows, axis=-1)
        weight_sum = weight_sum + np.sum(weights, axis=-1)
        top = np.maximum(top, np.max(np.abs(rows), axis=(-2, -1)))
    return sums, weight_sum, top


def _trapezoid(values, params: SolverParams, contour: Contour,
               names=("base",)):
    """Trapezoidal rule along the contour line with nested halving.

    values(t) returns, at an array of N nodes, the integrand rows as a
    (G, r, N) array, one group of r rows per solution, and each group's
    kernel weight (|kernel| times the group's own factor) as a (G, N)
    array; names labels the G groups.  The first grid has
    h = 1/panels_per_unit, but no wider than the smallest pole gap of the
    contour: the integrand is analytic only within that distance of the
    line, and the error of the rule falls like exp(-2 pi gap / h).  On
    that grid the truncation doubles until, in every group, the largest
    term of the newest outer band, times h, is at most atol times
    max(group scale, 1); it then stays fixed, and the contour is
    validated out to it (diagnostics "contour"), so its pole record
    covers the whole integrated line.  Each halving of h evaluates only
    the new midpoints and reuses every earlier node, until in every group
    two successive estimates agree to rtol times that group's largest
    estimate or atol times its scale, so no group stops before it would
    alone.  Returns the estimates, group by group, and diagnostics.
    """
    rec = contour.record
    h = min(1.0 / params.panels_per_unit, rec["min_gap_above"],
            rec["min_gap_below"])
    line = 1j * contour.delta
    half = max(1, int(math.ceil(contour.trunc / h)))
    sums, weight_sum, _ = _sweep(values, np.arange(-half, half + 1) * h + line)
    while True:
        band = np.arange(half + 1, 2 * half + 1) * h
        s, a, top = _sweep(values, np.concatenate((-band[::-1], band)) + line)
        sums, weight_sum, half = sums + s, weight_sum + a, 2 * half
        if np.all(top * h <= params.atol * np.maximum(h * weight_sum, 1.0)):
            break
    trunc = half * h
    contour = contour.widened(trunc)
    ests = [h * sums]
    failing = list(names)
    for step in range(1, params.max_refine + 1):
        s, a, _ = _sweep(values, (np.arange(-half, half) + 0.5) * h + line)
        sums, weight_sum, h, half = sums + s, weight_sum + a, h / 2, 2 * half
        est, scale = h * sums, h * weight_sum
        err = np.max(np.abs(est - ests[-1]), axis=-1)
        ests.append(est)
        done = err <= np.maximum(params.rtol * np.max(np.abs(est), axis=-1),
                                 params.atol * np.maximum(scale, 1.0))
        if np.all(done):
            diag = {
                "contour": contour,
                "trunc": trunc,
                "panels": 2 * half,
                "quad_error": float(np.max(err)),
                "refinements": step,
                "scale": float(scale[0]),
            }
            return [complex(v) for v in est.ravel()], diag
        failing = [name for name, ok in zip(names, done) if not ok]
    raise QuadratureError(
        "%s: no convergence after %d halvings; last two estimates %r"
        % (", ".join(failing), params.max_refine,
           [e.tolist() for e in ests[-2:]])
    )


def _pairing_values(indices, W: CycleW, params: SolverParams, y: tuple):
    """values(t) for _trapezoid: the kernel-cycle times g_j at the nodes t
    for each index j, and |kernel|."""

    def values(t):
        ker = _kernel_cycle_array(t, y, W, params)
        rows = _weight_rows(t, y, params.k)
        return (ker * np.array([rows[j - 1] for j in indices]))[None], np.abs(ker)[None]

    return values


def _pair_many(indices, W: CycleW, params: SolverParams, y=None,
               contour: Contour = None):
    """Pairings against g_j for several indices j at once, on one
    trapezoidal rule."""
    W.validate(params)
    yy = params.y if y is None else tuple(y)
    if contour is None:
        contour = build_contour(
            replace(params, y=yy), W=W, include_shifted=False
        )
    return _trapezoid(_pairing_values(indices, W, params, yy), params, contour)


def pair_I(j: int, W: CycleW, params: SolverParams, y=None,
           contour: Contour = None) -> complex:
    """Single pairing coefficient."""
    if not 1 <= j <= 2 * params.n:
        raise ValueError("index out of range")
    vals, _ = _pair_many([j], W, params, y=y, contour=contour)
    return vals[0]


def _solution(p: SolverParams, vals, diag: dict) -> SolutionVector:
    vec = Vec(p.space, {})
    for j, v in enumerate(vals, start=1):
        vec = vec.add(vec_u(j, p).scale(v))
    return SolutionVector(
        coeffs=tuple(vals), lam=p.lam, y=p.y, vec=vec, diagnostics=diag
    )


def solve_f(lam: complex, y, W: CycleW, params: SolverParams,
            contour: Contour = None) -> SolutionVector:
    """All 2n pairing coefficients and the assembled vector."""
    p = replace(params, lam=complex(lam), y=tuple(y))
    return _solution(p, *_pair_many(range(1, 2 * p.n + 1), W, p, contour=contour))


def _report_values(W: CycleW, params: SolverParams):
    """values(t) for the report's one rule: the row groups base,
    derivative and shift-1 .. shift-n, from one kernel evaluation.

    The derivative rows are the base rows times -2 pi i t / c, the lambda
    derivative of the kernel's factor e^{-2 pi i lam t / c}.  The kernel
    at shift_y(y, m, c) is the base kernel times
    R_m(t) = (t + y_m - k)/(t + y_m) * (t - y_m + c)/(t - y_m - k + c):
    the shift steps each of the four gamma arguments of y_m by one, and
    Gamma(z + 1) = z Gamma(z) turns that into R_m; the cycle denominator
    is c-periodic in y_m and does not change.  Each group's weight is
    |kernel| times its own factor (1 for base and derivative, |R_m| for
    shift-m).
    """
    c, k, y = params.c, params.k, params.y
    shifted = [shift_y(y, m, c) for m in range(1, params.n + 1)]

    def values(t):
        ker = _kernel_cycle_array(t, y, W, params)
        rows = np.empty((params.n + 2, 2 * params.n, len(t)), dtype=complex)
        weights = np.empty((params.n + 2, len(t)))
        rows[0] = ker * np.array(_weight_rows(t, y, k))
        rows[1] = rows[0] * (-TWO_PI_I * t / c)
        weights[:2] = np.abs(ker)
        for g, (ym, ys) in enumerate(zip(y, shifted), start=2):
            ker_m = ker * ((t + ym - k) / (t + ym) * (t - ym + c) / (t - ym - k + c))
            rows[g] = ker_m * np.array(_weight_rows(t, ys, k))
            weights[g] = np.abs(ker_m)
        return rows, weights

    return values


def report_solutions(W: CycleW, params: SolverParams) -> tuple:
    """The solution at params, its lambda derivative and the solutions at
    the n shifted points shift_y(y, m, c), all from one node set.

    One trapezoidal rule integrates the 2n (n + 2) rows of
    _report_values, evaluating the kernel once per node; each solution
    passes its own truncation and halving tests.  The contour is
    validated for the base and every shifted pole configuration.
    Returns (solution, derivative, [shifted solutions]).
    """
    p = replace(params, lam=complex(params.lam))
    W.validate(p)
    contour = build_contour(p, W=W, include_shifted=True)
    names = ("base", "derivative") + tuple(
        "shift-%d" % m for m in range(1, p.n + 1))
    vals, diag = _trapezoid(_report_values(W, p), p, contour, names)
    size = 2 * p.n
    parts = [vals[i * size:(i + 1) * size] for i in range(len(names))]
    shifted = [_solution(replace(p, y=shift_y(p.y, m, p.c)), part, diag)
               for m, part in enumerate(parts[2:], start=1)]
    return _solution(p, parts[0], diag), _solution(p, parts[1], diag), shifted


def _qkz_from_vectors(params: SolverParams, base: Vec, shifted) -> dict:
    """Relative difference-equation residual of the solution at each
    shifted point against the transported base solution."""
    model = params.model()
    x = params.x_point()
    norm = base.norm_max()
    out = {}
    for m, vec in enumerate(shifted, start=1):
        transported = op_Q(m, x, params.y, model).apply(base)
        out[m] = (vec - transported).norm_max() / norm
    return out


def _differential_residuals(params: SolverParams, base: Vec,
                            deriv: Vec) -> tuple:
    """Relative residuals of the first-direction differential equation and
    of its gauge-transformed, parameter-free form, from the solution and
    its lambda derivative.

    The scalar prefactor (e^{2 pi i lam} - 1)^{k/c} of the gauge uses the
    principal branch; any other branch differs by a lambda-independent
    constant and solves the same equation.
    """
    from .compat_ops import op_L

    lbase = op_L(1, params.x_point(), params.y, params.model()).apply(base)
    ex = params.big_e
    norm = base.norm_max()
    total = deriv.scale(params.c / TWO_PI_I)
    total = total.add(lbase)
    total = total.add(base.scale(params.k * ex / (ex - 1)))
    ode = total.norm_max() / norm
    s = cpow(ex - 1, params.k / params.c)
    ds = params.k * ex * cpow(ex - 1, params.k / params.c - 1)
    total = base.scale(ds)
    total = total.add(deriv.scale(s * params.c / TWO_PI_I))
    total = total.add(lbase.scale(s))
    return ode, total.norm_max() / (abs(s) * norm)


def vanishing_integral(W: CycleW, params: SolverParams,
                       contour: Contour = None):
    """The kernel-cycle integral against 1 minus the shifted-kernel ratio.

    Returns (value, scale); the value is an exact zero of the calculus and
    should vanish to quadrature accuracy relative to the scale.
    """
    if contour is None:
        contour = build_contour(params, W=W, include_shifted=False)
    ex = params.big_e

    def values(t):
        ker = _kernel_cycle_array(t, params.y, W, params)
        ratio = prod_ratio_full(t, params.y, params.k)
        return (ker * (1 - ex * ratio))[None, None], np.abs(ker)[None]

    (value,), diag = _trapezoid(values, params, contour)
    return value, diag["scale"]


def residual_report(W: CycleW, params: SolverParams) -> dict:
    """Machine-readable summary: coefficients, residuals, diagnostics.

    Integrates the base point, its lambda derivative and the n shifted
    points on one node set (report_solutions), one kernel evaluation per
    node: the shifted kernels follow from the base kernel by the Gamma
    recurrence and the c-periodic cycle denominator, and each solution
    passes its own convergence test.  The residuals are derived from those
    vectors.  The quadrature record is that rule's, with "kernel_evals"
    (its nodes) and "solves" (the n + 1 points solved).
    """
    if abs(params.big_e + 1) < 1e-8:
        raise ValueError(
            "differential residuals need e^{2 pi i lam} away from -1"
        )
    base, deriv, shifted = report_solutions(W, params)
    qkz = _qkz_from_vectors(params, base.vec, [sol.vec for sol in shifted])
    ode, ftilde = _differential_residuals(params, base.vec, deriv.vec)
    diag = base.diagnostics
    contour = diag["contour"]
    report = {
        "n": params.n,
        "lambda": [params.lam.real, params.lam.imag],
        "c": [params.c.real, params.c.imag],
        "k": [params.k.real, params.k.imag],
        "y": [[complex(v).real, complex(v).imag] for v in params.y],
        "cycle": [[d, [cf.real, cf.imag]] for d, cf in W.terms],
        "coefficients": [[v.real, v.imag] for v in base.coeffs],
        "qkz_residuals": {str(m): qkz[m] for m in sorted(qkz)},
        "ode_residual": ode,
        "ftilde_residual": ftilde,
        "max_qkz_residual": max(qkz.values()),
        "contour": {
            "delta": contour.delta,
            "trunc": contour.trunc,
            "poles_checked": contour.record["poles_checked"],
            "min_gap_above": contour.record["min_gap_above"],
            "min_gap_below": contour.record["min_gap_below"],
        },
        "quadrature": {
            "trunc": diag["trunc"],
            "panels": diag["panels"],
            "refinements": diag["refinements"],
            "quad_error": diag["quad_error"],
            # The one rule evaluates the kernel once at every node of its
            # final grid.
            "kernel_evals": diag["panels"] + 1,
            "solves": 1 + len(shifted),
        },
    }
    return report


def ftilde_residual(W: CycleW, params: SolverParams) -> float:
    """Relative residual of the gauge-transformed, parameter-free equation,
    as residual_report gives it."""
    return residual_report(W, params)["ftilde_residual"]
