"""Contour-integral solution of the compatible difference/differential system
in the symmetric-parameter regime, with quadrature diagnostics and residual
checks.

The solution lives on the hyperplane x = (e^{2 pi i lambda}, 1, ..., 1) with
both reflection weights equal to k/2.  Its 2n target states use labels 1
and 2 alone, so the solver works on Space(n, 2) at x = (e^{2 pi i lambda},
1).  Its coefficients are pairings of
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
each side of the line is truncated on its own, and each halving evaluates
only the new midpoints inside the window where some term lies above
atol.  The kernel, the cycle
denominator and the 2n weight functions are evaluated over numpy arrays of
nodes, in chunks of at most _CHUNK nodes summed in a fixed order, so
results are reproducible bit for bit.  The array kernel takes log Gamma
modulo 2 pi i (`log_gamma_array`; the package's only numpy code lives in
this module), which is sound because only exponentials of sums are used.
The package evaluates the integrand over arrays only; the scalar route is
the test suite's independent quadrature oracle, which builds its
integrand from the scalar `kernel_log_phi` and `func_g`.
A lambda grid of residual reports integrates one node set with one
evaluation of the lambda-independent log kernel per node; each lambda adds
only its prefactor e^{-2 pi i lam t / c} and its cycle.  The lambdas are
one array axis: every cycle term of every lambda is one row of an
exponent array, formed in batches of at most _CHUNK lambda-node pairs,
and each batch is reduced against the shared rows by one einsum per
quantity.  Its rows are the
base pairing rows, the lambda derivative rows (the pairing rows times
-2 pi i t / c) and, for each shifted point shift_y(y, m, c), the kernel
times a rational factor R_m(t) times the shifted weight functions: the
Gamma recurrence turns the shift of y_m into R_m, and the cycle denominator
is c-periodic in y.  Each of these solutions, at each lambda, passes its
own convergence test on the shared grid.  No rule evaluates more than
NODE_BUDGET nodes.

The solution vector is the sum of the coefficients times the 2n target
basis vectors u_j; `vec_u` gives u_j as an {index: 1} column, and the
coefficient-to-state matrix has these columns.  A grid's coefficients are
the rule's (L, n + 2, 2n) array (`grid_solutions`), which its residuals
(`grid_residuals`) and reports read as it is, with the stack of their
solution vectors, each an array with one axis per site.  Along a grid only
x_1 = e^{2 pi i lam} moves, so every operator part that does not read x
(the transport factors around the coordinate reflection Kx, op_A and the
coefficient-to-state matrix) is built once per grid; each lambda builds only its n Kx factors and
op_B, in numpy, as the operators of `tensor_ops` are exact.  Each
transport factor is applied as its local matrix on its own sites' axes,
written from the factor's scalars by its shape's table
(`tensor_ops.factor_shape`, which the exact operators read too), so no
whole-space transport operator is formed.  A grid refuses a lambda
with e^{2 pi i lam} near -1 before any quadrature; the pairing alone
(`solve_f`) is regular there.
"""

from __future__ import annotations

import cmath
import itertools
import math
import string
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import compat_ops
from .rqkz import ModelParams, factor_ops, q_split_descs, shift_y
from .scalar_field import _LOG_HALF_I, _LOG_PI, _lanczos_half_plane, cpow, lift, log_gamma
from .tensor_ops import Space, factor_shape

TWO_PI_I = 2j * math.pi
# The array kernel sets terms whose exponent has real part below this to
# zero: e^-600 is far under any sum such a term enters, and every product
# the pass forms from a larger term stays in the normal double range.
_EXP_FLOOR = -600.0
# Most nodes one trapezoidal rule may evaluate; the largest rule of the
# test suite evaluates 1,128 nodes and that of the benchmark workloads 632.
NODE_BUDGET = 1 << 17
# log1m_exp_array clamps Re zeta here before exponentiating: e^-60 lies
# far under the rounding unit of 1 - e^zeta, so no digit changes, and
# numpy's complex log cannot underflow on what is left.
_LOG1M_FLOOR = -60.0


class SeparationError(ValueError):
    """A pole lies on the wrong side of the contour."""


class DegreeError(ValueError):
    """A cycle monomial violates the convergence window."""


class QuadratureError(ValueError):
    """The trapezoidal rule did not converge within the allowed halvings,
    would exceed NODE_BUDGET, or met an integrand that is not finite."""


def log1m_exp_array(zeta):
    """Array form of log1m_exp: the exponential is only ever taken of the
    half with Re <= 0, so nothing overflows."""
    flip = zeta.real > 0
    near = np.where(flip, -zeta, zeta)
    near = np.maximum(near.real, _LOG1M_FLOOR) + 1j * near.imag
    return np.log(1 - np.exp(near)) + np.where(flip, zeta + 1j * math.pi, 0)


def log_gamma_array(z):
    """A logarithm of Gamma over a complex array, valid modulo 2 pi i.

    Lanczos for Re z >= 0.5 and reflection below, with log sin(pi z) in the
    log1m_exp_array form after reducing by round(Re z).  The branch is left
    unfixed, which is sound wherever only exponentials of sums are used.
    At distance d from a pole that form adds an absolute error of about
    1e-17/d; the solver's contour keeps every argument at least its pole
    gap over |c| away from the poles.
    """
    left = z.real < 0.5
    out = _lanczos_half_plane(np.where(left, 1 - z, z), np.log)
    if left.any():
        zl = z[left]
        m = np.round(zl.real)
        w = zl - m
        log_sin = (_LOG_HALF_I + 1j * math.pi * (m % 2) - 1j * math.pi * w
                   + log1m_exp_array(2j * math.pi * w))
        out[left] = _LOG_PI - log_sin - out[left]
    return out


@dataclass(frozen=True)
class SolverParams:
    """Evaluation point and quadrature configuration.

    Both reflection weights are pinned to k/2.  The solve uses labels 1
    and 2 alone, so its space is Space(n, 2) and its point x is
    (e^{2 pi i lam}, 1).
    """

    n: int
    lam: complex
    c: complex
    k: complex
    y: tuple
    panels_per_unit: float = 4.0
    max_refine: int = 5
    rtol: float = 1e-9
    atol: float = 1e-14

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one site")
        if len(self.y) != self.n:
            raise ValueError("y must have one entry per site")
        if self.max_refine < 1:
            raise ValueError("need max_refine >= 1: the rule compares two estimates")
        if not (self.c.imag > 0 and self.k.imag > 0):
            raise ValueError("need Im c > 0 and Im k > 0")
        if not (self.c.imag < self.k.imag / 2):
            raise ValueError("need Im c < Im k / 2")
        ybound = 2 * max(abs(complex(v).imag) for v in self.y)
        if not (ybound < self.k.imag):
            raise ValueError("need 2 max|Im y_p| < Im k")
        try:
            big_e = self.big_e
        except OverflowError:
            raise ValueError("lambda=%r: e^{2 pi i lam} overflows" % (self.lam,)) from None
        if abs(big_e - 1) < 1e-8:
            raise ValueError("lambda=%r: e^{2 pi i lam} too close to 1" % (self.lam,))
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
        return Space(self.n, 2)

    def x_point(self) -> tuple:
        return (self.big_e, 1)

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
    def monomial(cls, degree: int) -> "CycleW":
        return cls(((int(degree), 1 + 0j),))

    def validate(self, params: SolverParams):
        lo = params.lam.real
        hi = lo + 2 * params.n
        for d, _ in self.terms:
            if not (lo < d < hi):
                raise DegreeError(
                    "%s: cycle degree %d outside the convergence window (%g, %g)"
                    % (_label(params.lam), d, lo, hi)
                )


@dataclass(frozen=True)
class Contour:
    """Validated horizontal integration path Im t = delta,
    -extents[0] <= Re t <= extents[1], with the (y, c, k) whose base and
    singly shifted pole configurations it was validated for, out to trunc
    on either side."""

    delta: float
    extents: tuple
    record: dict
    y: tuple
    c: complex
    k: complex

    @property
    def trunc(self) -> float:
        """The wider side's extent, to which the record validates the line."""
        return max(self.extents)

    def widened(self, extents: tuple) -> "Contour":
        """The same line and configurations, over the given extents."""
        record = validate_contour_line(self.y, self.c, self.k, self.delta, max(extents))
        return replace(self, extents=extents, record=record)


def vec_u(j: int, params: SolverParams) -> dict:
    """Basis vector of the 2n-dimensional target subspace, as an
    {index: 1} column.

    For j <= n the j-th site carries the first label and every other site
    carries the second label, barred or not, in every combination; for
    j > n site 2n+1-j carries the barred first label instead.
    """
    n = params.n
    if not 1 <= j <= 2 * n:
        raise ValueError("index out of range")
    site, code = (j, 0) if j <= n else (2 * n + 1 - j, 2)
    index = params.space.index
    return {index(fill[:site - 1] + (code,) + fill[site - 1:]): 1
            for fill in itertools.product((1, 3), repeat=n - 1)}


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


def _log_kernel(t, y: Sequence, c: complex, k: complex):
    """The lambda-independent part of the log kernel-cycle over a 1-D array
    of nodes t: the gamma ratios minus the log cycle denominator.

    The 2n differences d = t - (+-y_p) form one (2n, N) array.  One
    log_gamma_array call takes all 4n gamma arguments, stacked as
    ((d - k)/(-c), d/(-c)), and one log1m_exp_array call all 2n cycle
    denominator terms.  Their rows are added in one fixed order, center
    pair by center pair: its four gamma terms, then its two denominator
    terms, so each node's value does not depend on the stacking.
    """
    centers = np.array([v for yp in y for v in (yp, -yp)])
    diff = t - centers[:, None]
    up, down = log_gamma_array(np.stack(((diff - k) / (-c), diff / (-c))))
    den = log1m_exp_array(TWO_PI_I * diff / c)
    out = 0
    for p in range(0, len(centers), 2):
        out = (out + up[p] + up[p + 1] - down[p] - down[p + 1]
               - den[p] - den[p + 1])
    return out


def _cycle_terms(points):
    """The cycle monomials cf z^d of the (W, params) points of a grid, as
    (shift, coef): (L, J) arrays of d - lam and of cf, one row per point in
    order.  A cycle shorter than the longest is padded with terms of
    coefficient 0 at its own first shift, so a padded term overflows only
    where a real one does."""
    width = max(len(W.terms) for W, _ in points)
    rows = [[(d - p.lam, cf) for d, cf in W.terms] for W, p in points]
    table = np.array([row + [(row[0][0], 0)] * (width - len(row)) for row in rows],
                     dtype=complex)
    return table[..., 0], table[..., 1]


def _cycle_kernel(log_ker, t, c: complex, shift, coef):
    """The kernel-cycles at the nodes t of the points whose cycle terms
    are given (as _cycle_terms returns them), as one (points, N) array,
    from their lambda-independent log part: for each point the sum over
    its monomials of cf exp(log_ker + (d - lam) 2 pi i t / c), where
    e^{-2 pi i lam t / c} is the kernel's lambda prefactor.  Every term of
    every point is one row of a (points, terms, N) exponent array, and
    each point's terms are summed in order.

    Terms whose exponent has real part below _EXP_FLOOR are set to zero
    instead of underflowing, as a scalar exponential would round them.
    """
    expo = log_ker + shift[..., None] * (TWO_PI_I * t / c)
    live = expo.real >= _EXP_FLOOR
    expo = np.where(live, expo, _EXP_FLOOR)
    return (coef[..., None] * np.where(live, np.exp(expo), 0)).sum(axis=1)


def _kernel_cycle_array(t, y: Sequence, W: CycleW, params: SolverParams):
    """The kernel times the cycle over a 1-D array of nodes t: the
    lambda-independent log sum, then the lambda prefactor and the cycle."""
    log_ker = _log_kernel(t, y, params.c, params.k)
    return _cycle_kernel(log_ker, t, params.c, *_cycle_terms([(W, params)]))[0]


def _weight_rows(t, y, k: complex):
    """g_1 .. g_2n over an array of nodes, as one running product of the
    func_g factors: a (..., 2n, N) array for y of shape (..., n), one set
    of rows per pole configuration."""
    y = np.asarray(y)
    den = t - np.concatenate((y, -y[..., ::-1]), axis=-1)[..., None]
    rows = np.empty(den.shape, dtype=complex)
    ratio = 1
    for j in range(den.shape[-2]):
        rows[..., j, :] = ratio / den[..., j, :]
        ratio = ratio * (den[..., j, :] - k) / den[..., j, :]
    return rows


def _initial_extents(W: CycleW, params: SolverParams) -> tuple:
    """Left and right extents beyond which every monomial tail factor of
    that side is below atol, each at least 2, plus a margin of 2."""
    lo = params.lam.real
    hi = lo + 2 * params.n
    m_left = min(d - lo for d, _ in W.terms)
    m_right = min(hi - d for d, _ in W.terms)
    need = math.log(1 / params.atol)
    try:
        scale = abs(params.c) ** 2 / (2 * math.pi)
    except OverflowError:
        # An infinite extent, which the node budget rejects by lambda.
        scale = math.inf
    dc = params.delta * params.c.real
    t_left = (need / m_left * scale - dc) / params.c.imag
    t_right = (need / m_right * scale + dc) / params.c.imag
    return max(t_left, 2.0) + 2.0, max(t_right, 2.0) + 2.0


def validate_contour_line(y, c: complex, k: complex, delta: float,
                          trunc: float) -> dict:
    """Pole-side validation of the horizontal line Im t = delta.

    Enumerates every gamma pole whose real part falls inside the truncation
    window (plus margin): the upward families must lie strictly above the
    line and the downward families strictly below, both for the given y
    and for each singly shifted configuration shift_y(y, m, c), whose
    solutions every residual report integrates on the same line.  Raises
    SeparationError naming the offending pole.
    """
    margin = 2.0 + abs(c)
    configs = [("base", tuple(y))] + [
        ("shift-%d" % m, shift_y(y, m, c)) for m in range(1, len(y) + 1)]
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


def build_contour(params: SolverParams, W: CycleW) -> Contour:
    """Horizontal contour at Im t = delta over the initial extents of
    (W, params), pole-validated."""
    return _line(params, [_initial_extents(W, params)], [params.lam])


def _line(params: SolverParams, extents, lams) -> Contour:
    """The contour at Im t = delta over -left <= Re t <= right, where left
    and right are the widest of the (left, right) extents of the lambdas
    lams, pole-validated out to the wider side.  A line too long for
    NODE_BUDGET is refused naming the lambda whose own extents need the
    nodes or, when only the widest sides together do, the lambdas that
    set them."""
    for lam, own in zip(lams, extents):
        _check_budget(sum(own) * params.panels_per_unit + 1, [lam])
    widest = [max(zip(extents, lams), key=lambda pair: pair[0][side]) for side in (0, 1)]
    extents = tuple(float(own[side]) for side, (own, _) in enumerate(widest))
    _check_budget(sum(extents) * params.panels_per_unit + 1,
                  list(dict.fromkeys(lam for _, lam in widest)))
    record = validate_contour_line(params.y, params.c, params.k, params.delta, max(extents))
    return Contour(delta=params.delta, extents=extents, record=record, y=tuple(params.y),
                   c=params.c, k=params.k)


def _label(lam, name="") -> str:
    return ("lambda=%r %s" % (complex(lam), name)).rstrip()


def _named(lams, names=("",), failing=None):
    """Text naming the solutions that failing marks: an (L, G) mask over
    the lambdas lams and the row groups names, every solution by default.
    It names those of the first three lambdas that have one, and the
    count of all when that is more, so a refusal stays one short line
    however long the grid."""
    rows = [[_label(lam, name) for g, name in enumerate(names)
             if failing is None or failing[i][g]] for i, lam in enumerate(lams)]
    rows = [row for row in rows if row]
    shown = [label for row in rows[:3] for label in row]
    total = sum(map(len, rows))
    more = " and %d more (%d solutions in all)" % (total - len(shown), total)
    return ", ".join(shown) + (more if total > len(shown) else "")


def _check_budget(nodes, lams, names=("",), failing=None):
    """Raise QuadratureError naming the failing solutions (_named) if a
    rule of this many nodes, which may be inf or NaN, would exceed
    NODE_BUDGET."""
    if not nodes <= NODE_BUDGET:
        raise QuadratureError("%s: the rule needs %.3g nodes, above the budget of %d"
                              % (_named(lams, names, failing), nodes, NODE_BUDGET))


def _check_finite(sums, weight_sum, lams, names):
    """Raise QuadratureError naming the solutions whose row sums or weight
    sum are not finite: a sum can overflow while every term is finite."""
    finite = np.all(np.isfinite(sums), axis=-1) & np.isfinite(weight_sum)
    if not np.all(finite):
        raise QuadratureError("%s: the integral is not finite on the contour"
                              % _named(lams, names, ~finite))


# Nodes per array evaluation; bounds the working arrays of a sweep.
_CHUNK = 4096
# Nodes per band of the first grid, a divisor of _CHUNK.  The rule keeps
# each band's sums apart until it knows where the integrand lives, so its
# window ends within one band of the outermost term above atol.
_BAND = 8


def _sweep(values, nodes, bands=False):
    """Row sums, weight sums and largest row term of each row group for
    each kernel of a grid, over an array of nodes, evaluated chunk by chunk
    in node order.

    values(t) returns a chunk's shared block: the rows of the G groups as a
    (G, r, N) array, each group's weight factor as a (G, N) array, and an
    iterable of the kernels of the grid's lambdas, in order, each an (N,)
    array or a (B, N) batch of B lambdas' kernels.  The integrand rows of
    a lambda are its kernel times the block; each batch is reduced against
    the block by one einsum per quantity as soon as it is formed, so no
    array of every lambda's rows exists.  Returns (L, G, r), (L, G) and
    (L, G) arrays; with bands, the nodes are consecutive bands of _BAND
    nodes, and each array has one more axis, with one entry per band.
    """
    sums, weight_sum, top = [], [], []
    for lo in range(0, len(nodes), _CHUNK):
        block, factors, kernels = values(nodes[lo:lo + _CHUNK])
        groups, rows, count = block.shape
        split = (count // _BAND, _BAND) if bands else (1, count)
        flat = block.reshape((groups * rows,) + split)
        parts = factors.reshape((groups,) + split)
        row_top = np.max(np.abs(block), axis=1).reshape((groups,) + split)
        s, a, m = [], [], []
        # einsum rather than @: the first BLAS call of a process adds
        # resident buffers, about 0.2 MB of peak RSS for a few microseconds.
        for ker in kernels:
            ker = ker.reshape((-1,) + split)
            mag = np.abs(ker)
            s.append(np.einsum("rbn,lbn->lrb", flat, ker))
            a.append(np.einsum("gbn,lbn->lgb", parts, mag))
            m.append(np.max(row_top * mag[:, None], axis=-1))
        s = np.concatenate(s)
        sums.append(s.reshape((len(s), groups, rows, split[0])))
        weight_sum.append(np.concatenate(a))
        top.append(np.concatenate(m))
    sums, weight_sum, top = (np.concatenate(part, axis=-1) for part in (sums, weight_sum, top))
    if bands:
        return sums, weight_sum, top
    return sums.sum(axis=-1), weight_sum.sum(axis=-1), top.max(axis=-1)


def _band_nodes(lo, hi):
    """Indices j of the first-grid nodes j h of the bands lo <= b < hi."""
    return np.arange(lo * _BAND, hi * _BAND)


def _trapezoid(values, params: SolverParams, contour: Contour, lams,
               names=("base",)):
    """Trapezoidal rule along the contour line with nested halving, for
    every lambda of a grid on one node set.

    values(t) is as for _sweep; lams labels its kernels and names its G
    row groups.  Each (lambda, group) pair is one solution, whose kernel
    weight is |kernel| times the group's factor.  The first grid has
    h = 1/panels_per_unit, but no wider than the smallest pole gap of the
    contour: the integrand is analytic only within that distance of the
    line, and the error of the rule falls like exp(-2 pi gap / h).  The
    first grid is cut into bands of _BAND nodes, and each side of the line
    is truncated on its own.  The first sweep takes two doublings of the
    contour's extent on each side at once, since a sweep costs as much as
    a few hundred nodes; then a side doubles until, for every solution,
    the largest term of its newest bands, the outer half of what it has
    evaluated, is at most atol times its weight sum.  The contour is then validated out to the furthest node evaluated
    (diagnostics "contour"), so its pole record covers every node.  The
    outer bands whose terms are all at most atol times the weight sum, for
    every solution, are dropped; the bands left are the window, and every
    halving of h evaluates only the new midpoints inside it, so each
    estimate is taken over the same window.  The halving stops when, for
    every solution, two successive estimates agree to rtol times its
    largest estimate or atol times its scale, so no solution stops before
    it would alone, and a tiny solution gets the relative accuracy of a
    large one.  A window with no band left holds no term of any solution:
    the estimates are zero, with no halving.  A sweep that would take the
    rule past NODE_BUDGET evaluated nodes, a band whose largest term is not
    finite, or a row sum or weight sum that is not finite, raises
    QuadratureError instead.
    Returns the estimates as an (L, G, r) array and one diagnostics dict
    per lambda: "window" is the ends of the final grid and "kernel_evals"
    the nodes evaluated, those of the first grid outside the window too.
    """
    rec = contour.record
    h = min(1.0 / params.panels_per_unit, rec["min_gap_above"],
            rec["min_gap_below"])
    line = 1j * contour.delta
    # The first sweep's nodes, checked before ceil, which fails on inf.
    _check_budget(4 * sum(contour.extents) / h, lams, names)
    # The first grid's band b holds the nodes j h with b _BAND <= j < (b + 1) _BAND.
    # [lo, hi) are the bands evaluated, and new[side] counts that side's
    # newest bands, the outer half of what it has evaluated.
    left, right = (max(1, math.ceil(side / (_BAND * h))) for side in contour.extents)
    lo, hi = -4 * left, 4 * right
    new = [2 * left, 2 * right]
    nodes = _band_nodes(lo, hi)
    _check_budget(len(nodes), lams, names)
    sums, weight_sum, top = _sweep(values, nodes * h + line, bands=True)
    evaluated = len(nodes)
    while True:
        finite = np.all(np.isfinite(top), axis=-1)
        if not np.all(finite):
            raise QuadratureError("%s: the integrand is not finite on the contour"
                                  % _named(lams, names, ~finite))
        total = weight_sum.sum(axis=-1)
        _check_finite(sums.sum(axis=-1), total, lams, names)
        bound = params.atol * total[..., None]
        # A side doubles while its newest bands hold a term above atol.
        new = [-lo if new[0] and np.any(top[..., :new[0]] > bound) else 0,
               hi if new[1] and np.any(top[..., top.shape[-1] - new[1]:] > bound) else 0]
        if not any(new):
            break
        nodes = np.concatenate((_band_nodes(lo - new[0], lo), _band_nodes(hi, hi + new[1])))
        _check_budget(evaluated + len(nodes), lams, names)
        s, a, m = _sweep(values, nodes * h + line, bands=True)
        evaluated += len(nodes)
        sums, weight_sum, top = (
            np.concatenate((part[..., :new[0]], old, part[..., new[0]:]), axis=-1)
            for part, old in ((s, sums), (a, weight_sum), (m, top)))
        lo, hi = lo - new[0], hi + new[1]
    contour = contour.widened((-lo * _BAND * h, (hi * _BAND - 1) * h))
    live = np.flatnonzero(np.any(top > bound, axis=(0, 1)))
    shared = {"contour": contour, "trunc": contour.trunc, "lambdas": len(lams)}
    if not len(live):
        shared.update(window=None, panels=0, refinements=0, kernel_evals=evaluated)
        est = np.zeros(sums.shape[:-1], dtype=complex)
        return est, [dict(shared, quad_error=0.0, scale=0.0) for _ in lams]
    first, last = int(live[0]), int(live[-1]) + 1
    sums, weight_sum = sums[..., first:last].sum(axis=-1), weight_sum[..., first:last].sum(axis=-1)
    # The window's nodes are j h for start <= j < stop, at every level.
    start, stop = (lo + first) * _BAND, (lo + last) * _BAND
    ests = [h * sums]
    failing = None
    for step in range(1, params.max_refine + 1):
        mids = (np.arange(start, stop) + 0.5) * h + line
        _check_budget(evaluated + len(mids), lams, names, failing)
        s, a, _ = _sweep(values, mids)
        evaluated += len(mids)
        sums, weight_sum, h = sums + s, weight_sum + a, h / 2
        start, stop = 2 * start, 2 * stop
        _check_finite(sums, weight_sum, lams, names)
        est, scale = h * sums, h * weight_sum
        err = np.max(np.abs(est - ests[-1]), axis=-1)
        ests.append(est)
        done = err <= np.maximum(params.rtol * np.max(np.abs(est), axis=-1),
                                 params.atol * scale)
        if np.all(done):
            shared.update(window=[start * h, (stop - 1) * h], panels=stop - start - 1,
                          refinements=step, kernel_evals=evaluated)
            return est, [dict(shared, quad_error=float(np.max(e)), scale=float(g[0]))
                         for e, g in zip(err, scale)]
        failing = ~done
    i, g = np.argwhere(failing)[0]
    raise QuadratureError(
        "%s: no convergence after %d halvings; last two estimates of %s %r"
        % (_named(lams, names, failing), params.max_refine, _label(lams[i], names[g]),
           [e[i, g].tolist() for e in ests[-2:]])
    )


def solve_f(lam: complex, y, W: CycleW, params: SolverParams,
            contour: Contour = None) -> tuple:
    """All 2n pairing coefficients, on one trapezoidal rule whose rows are
    the weight functions g_j at the nodes and whose kernel is the
    kernel-cycle; returns (coeffs, diagnostics)."""
    p = replace(params, lam=complex(lam), y=tuple(y))
    W.validate(p)
    if contour is None:
        contour = build_contour(p, W=W)

    def values(t):
        block = _weight_rows(t, p.y, p.k)[None]
        return block, np.ones((1, len(t))), [_kernel_cycle_array(t, p.y, W, p)]

    est, (diag,) = _trapezoid(values, p, contour, [p.lam])
    return est[0, 0], diag


def _report_values(points):
    """values(t) for the grid's one rule: the lambda-independent block of
    the row groups base, derivative and shift-1 .. shift-n, and the
    kernel-cycles of the grid's (W, params) points in batches of
    consecutive points, each one (B, N) array with B N at most _CHUNK
    (B at least 1), formed only as _sweep asks for it.

    The log kernel is evaluated once per node for the whole grid; each
    point adds only its lambda prefactor and its cycle, all points' terms
    in one exponent array per batch.  The derivative rows are the base
    rows times -2 pi i t / c, the lambda derivative of the prefactor
    e^{-2 pi i lam t / c}.  The kernel at shift_y(y, m, c) is the base
    kernel times
    R_m(t) = (t + y_m - k)/(t + y_m) * (t - y_m + c)/(t - y_m - k + c):
    the shift steps each of the four gamma arguments of y_m by one, and
    Gamma(z + 1) = z Gamma(z) turns that into R_m; the cycle denominator
    is c-periodic in y_m and does not change.  So the shift-m rows are
    R_m times the shifted weight functions, and each group's weight factor
    is 1 for base and derivative and |R_m| for shift-m.  The weight rows
    of the base and the n shifted configurations are one array, and so
    are the n factors R_m.
    """
    _, p = points[0]
    c, k, y = p.c, p.k, p.y
    configs = [y] + [shift_y(y, m, c) for m in range(1, p.n + 1)]
    ym = np.array(y)[:, None]
    shift, coef = _cycle_terms(points)

    def values(t):
        # The log kernel comes first, so that its working arrays are freed
        # before the block is built.
        log_ker = _log_kernel(t, y, c, k)
        rows = _weight_rows(t, configs, k)
        r_m = (t + ym - k) / (t + ym) * (t - ym + c) / (t - ym - k + c)
        block = np.concatenate((rows[:1], rows[:1] * (-TWO_PI_I * t / c), r_m[:, None] * rows[1:]))
        factors = np.concatenate((np.ones((2, len(t))), np.abs(r_m)))
        step = max(1, _CHUNK // len(t))
        kernels = (_cycle_kernel(log_ker, t, c, shift[lo:lo + step], coef[lo:lo + step])
                   for lo in range(0, len(shift), step))
        return block, factors, kernels

    return values


def _grid_points(points) -> list:
    """The (W, params) points of a grid with complex lambda; their params
    must agree in everything but lambda, and no e^{2 pi i lam} may lie
    near -1, where the differential residuals are undefined."""
    points = [(W, p if type(p.lam) is complex else replace(p, lam=complex(p.lam)))
              for W, p in points]
    _, first = points[0]
    for _, p in points:
        if dict(vars(p), lam=first.lam) != vars(first):
            raise ValueError("the points of a grid may differ only in lambda")
        if abs(p.big_e + 1) < 1e-8:
            raise ValueError("lambda=%r: differential residuals need "
                             "e^{2 pi i lam} away from -1" % (p.lam,))
    return points


def grid_solutions(points) -> tuple:
    """The solution, its lambda derivative and the n shifted solutions at
    every point of a lambda grid, all on one trapezoidal rule.

    points is a sequence of (W, params) pairs whose params differ only in
    lam.  The rule integrates the rows of _report_values, evaluating the
    lambda-independent kernel once per node for the whole grid; every
    solution of every point passes its own truncation and halving tests,
    so a point's coefficients depend on the other points only through the
    shared node set.  The contour starts from the widest initial extent
    of each side over the grid and is validated, for the base and every
    shifted pole configuration, before the rule and again out to its
    furthest node.  Returns (coeffs, diagnostics): the complex (L, n + 2, 2n)
    array of each point's base, derivative and shift-1 .. shift-n rows,
    entry j - 1 of a row the coefficient of vec_u(j), and one dict per point.
    """
    points = _grid_points(points)
    _, first = points[0]
    for W, p in points:
        W.validate(p)
    contour = _line(first, [_initial_extents(W, p) for W, p in points],
                    [p.lam for _, p in points])
    names = ("base", "derivative") + tuple(
        "shift-%d" % m for m in range(1, first.n + 1))
    return _trapezoid(_report_values(points), first, contour,
                      [p.lam for _, p in points], names)


def _dense_sum(rows) -> np.ndarray:
    """Each row's sum(coef * op) over its (coef, op) terms, in term order,
    as an (R, dim, dim) complex stack: the rows hold the same fixed
    integer operators, each read by the balanced lift of its residues, and
    each adds at its stored entries only."""
    coefs = np.array([[coef for coef, _ in row] for row in rows], dtype=complex)
    dim = rows[0][0][1].space.dim
    out = np.zeros((len(rows), dim * dim), dtype=complex)
    for t, (_, op) in enumerate(rows[0]):
        cols = op.cols
        out[:, [r * dim + c for c, col in cols.items() for r in col]] += coefs[:, t, None] * (
            np.array([lift(v) for col in cols.values() for v in col.values()], dtype=complex))
    return out.reshape(len(rows), dim, dim)


def _local_matrix(factor) -> np.ndarray:
    """A transport factor's d x d or d^2 x d^2 complex matrix on its own
    sites, from its shape's table: row c holds its scalars times 1/over,
    slot other[c] at column partner[c] and then slot own[c] at c itself,
    slot -1 reading zero."""
    own, other, partner = factor_shape(len(factor.strides), factor.space.half_dim)
    s = 1 / factor.over
    values = np.array([s * v for v in factor.scalars] + [0], dtype=complex)
    rows = np.arange(len(partner))
    out = np.zeros((len(partner), len(partner)), dtype=complex)
    out[rows, partner] = values[list(other)]
    out[rows, rows] = values[list(own)]
    return out


def _local_factors(descs, x, y, model) -> list:
    """(local matrix, sites) of each transport factor of a descriptor list,
    leftmost first: its d x d or d^2 x d^2 matrix on its own sites."""
    return [(_local_matrix(f), desc[1]) for desc, f in zip(descs, factor_ops(descs, x, y, model))]


def _at_sites(matrix, sites, vecs):
    """A local matrix on the given sites (slot order), or an (L, ...) stack
    of them, one per vector, applied to an (L, d, ..., d) stack of vectors
    on those sites' axes.  einsum rather than tensordot, as in _sweep: the
    residual pass makes no BLAS call."""
    d, axes = vecs.shape[1], string.ascii_lowercase[:vecs.ndim - 1]
    ins = "".join(axes[site - 1] for site in sites)
    outs = string.ascii_uppercase[:len(sites)]
    stack = "Z" if matrix.ndim == 3 else ""
    local = matrix.reshape(matrix.shape[:-2] + (d,) * (2 * len(sites)))
    result = axes.translate(str.maketrans(ins, outs))
    return np.einsum("%s%s%s,Z%s->Z%s" % (stack, outs, ins, axes, result), local, vecs)


def grid_residuals(points, coeffs) -> list:
    """The qKZ, ODE and gauge residuals of every point of a lambda grid:
    points as passed to grid_solutions and coeffs the (L, n + 2, 2n)
    array it returned.

    Its solution vectors, U times the coefficients, are one array whose
    columns U are the vec_u(j).  On
    a grid only x_1 = e^{2 pi i lam} changes, and of the operators only the
    coordinate reflection factor Kx of each transport operator Q_m and
    op_B(1, x) depend on x.  So every other transport factor and op_A(1, y)
    U are built once per grid, and each lambda builds its n Kx factors and
    op_B(1, x).  Each transport factor is its local d x d or d^2 x d^2
    matrix (`_local_matrix`), applied on its own site axes of the
    (L, d, ..., d) stack of vectors (`_at_sites`), the Kx factors as one
    (L, d, d) stack; no whole-space transport operator is formed.  op_A
    and op_B are the dense sums of their terms (`_dense_sum`), whose
    operators read no point.  Every term comes from its one builder in
    rqkz or compat_ops, and the split of Q_m around Kx from
    `rqkz.q_split_descs`.  The lambdas are taken in batches of at most
    _CHUNK lambda-state pairs, which bounds the stack of op_B matrices.

    qkz_residuals[m] is the largest entry of U a_m - Q_m U a, for base and
    shift-m coefficients a and a_m, relative to that of U a.  The
    differential residuals are those of the first-direction equation and
    of its gauge-transformed, parameter-free form; the scalar prefactor
    (e^{2 pi i lam} - 1)^{k/c} of the gauge uses the principal branch, and
    any other branch differs by a lambda-independent constant and solves
    the same equation.  Returns one (qkz residuals by site, ode residual,
    gauge residual) per point.  A point whose every coefficient underflowed
    to zero, or one of whose residuals is not finite, raises
    QuadratureError naming its lambda.
    """
    points = _grid_points(points)
    _, p = points[0]
    model, y, n, space = p.model(), p.y, p.n, p.space
    states = np.zeros((space.dim, 2 * n))
    for j in range(1, 2 * n + 1):
        states[list(vec_u(j, p)), j - 1] = 1
    transports = []
    for m in range(1, n + 1):
        head, mid, tail = q_split_descs(m, n)
        # Only the Kx factor reads x, so the first point's x serves the grid.
        head, tail = (_local_factors(part, p.x_point(), y, model) for part in (head, tail))
        transports.append((head, mid, tail))
    a_states = np.einsum("ij,jk->ik", _dense_sum([compat_ops.op_A_terms(1, y, model)])[0], states)
    b_terms = [compat_ops.op_B_terms(1, q.x_point(), model) for _, q in points]
    out = []
    step = max(1, _CHUNK // space.dim)
    for lo in range(0, len(points), step):
        batch, a = points[lo:lo + step], coeffs[lo:lo + step]
        xs = [q.x_point() for _, q in batch]
        vecs = np.einsum("ij,lgj->lgi", states, a)
        vec, dvec, shifted = vecs[:, 0], vecs[:, 1], vecs[:, 2:]
        qkz = []
        for m, (head, mid, tail) in enumerate(transports, start=1):
            kx = np.array([_local_factors([mid], x, y, model)[0][0] for x in xs])
            image = vec.reshape((len(batch),) + (space.site_dim,) * n)
            for matrix, sites in reversed(head + [(kx, (m,))] + tail):
                image = _at_sites(matrix, sites, image)
            qkz.append(np.max(np.abs(shifted[:, m - 1] - image.reshape(vec.shape)), axis=-1))
        b = _dense_sum(b_terms[lo:lo + step])
        lvec = np.einsum("ij,lj->li", a_states, a[:, 0]) + np.einsum("lij,lj->li", b, vec)
        exs = [q.big_e for _, q in batch]
        ex = np.array(exs)[:, None]
        ode = np.max(np.abs(dvec * (p.c / TWO_PI_I) + lvec + vec * (p.k * ex / (ex - 1))), axis=-1)
        # The gauge prefactor s = (e - 1)^{k/c} on the principal branch, and
        # (e - 1)^{k/c - 1}: k e times it is s's lambda derivative over 2 pi i / c.
        s, ds = (np.array([cpow(e - 1, power) for e in exs])[:, None]
                 for power in (p.k / p.c, p.k / p.c - 1))
        total = vec * (p.k * ex * ds) + dvec * (s * p.c / TWO_PI_I) + lvec * s
        gauge = np.max(np.abs(total), axis=-1) / np.abs(s[:, 0])
        for i, (_, q) in enumerate(batch):
            norm = float(np.max(np.abs(vec[i])))
            if norm == 0:
                raise QuadratureError("lambda=%r: every coefficient of the solution underflowed "
                                      "to zero, so its relative residuals are undefined" % q.lam)
            res = ({m: float(top[i]) / norm for m, top in enumerate(qkz, start=1)},
                   float(ode[i]) / norm, float(gauge[i]) / norm)
            # Checked one by one: a max over them could drop a NaN.
            if not all(math.isfinite(v) for v in [*res[0].values(), *res[1:]]):
                raise QuadratureError("lambda=%r: a residual is not finite" % q.lam)
            out.append(res)
    return out


def residual_report(W: CycleW, params: SolverParams, coeffs, diag: dict,
                    residuals) -> dict:
    """Machine-readable summary of one lambda of a grid: coefficients,
    residuals, diagnostics.

    coeffs is the point's (n + 2, 2n) rows of the grid_solutions array,
    whose base row the report keeps, diag its diagnostics and residuals
    its (qkz residuals, ode residual, gauge residual) from grid_residuals.
    The base point, its lambda
    derivative and the n shifted points come from one node set with one
    kernel evaluation per node: the shifted kernels follow from the base
    kernel by the Gamma recurrence and the c-periodic cycle denominator,
    and each solution passes its own convergence test.  The quadrature
    record is the shared rule's: "trunc" (the furthest |Re t| it
    evaluated), "window" (the ends of its final grid), "panels" (the
    intervals of that grid), "kernel_evals" (every node it evaluated, the
    first grid's outside the window too), "lambdas" (the points of its
    grid) and "solves" (the n + 1 points solved at this lambda).
    """
    qkz, ode, ftilde = residuals
    contour = diag["contour"]
    return {
        "n": params.n,
        "lambda": [params.lam.real, params.lam.imag],
        "c": [params.c.real, params.c.imag],
        "k": [params.k.real, params.k.imag],
        "y": [[complex(v).real, complex(v).imag] for v in params.y],
        "cycle": [[d, [cf.real, cf.imag]] for d, cf in W.terms],
        "coefficients": [[v.real, v.imag] for v in coeffs[0].tolist()],
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
            "window": diag["window"],
            "panels": diag["panels"],
            "refinements": diag["refinements"],
            "quad_error": diag["quad_error"],
            # The grid's one rule evaluates the kernel once at every node it
            # evaluates, for all of its lambdas together.
            "kernel_evals": diag["kernel_evals"],
            "lambdas": diag["lambdas"],
            "solves": params.n + 1,
        },
    }


def ftilde_residual(W: CycleW, params: SolverParams) -> float:
    """Relative residual of the gauge-transformed, parameter-free equation
    at params, solved as its own grid."""
    points = [(W, params)]
    coeffs, _ = grid_solutions(points)
    return grid_residuals(points, coeffs)[0][2]
