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
modulo 2 pi i (`log_gamma_array`; the package's only numpy code lives in
this module), which is sound because only exponentials of sums are used.
The scalar kernel (`integrand`, `_kernel_cycle`) stays as the route of
the independent quadrature oracle and as the reference the array kernel
is tested against.
A lambda grid of residual reports integrates one node set with one
evaluation of the lambda-independent log kernel per node; each lambda adds
only its prefactor e^{-2 pi i lam t / c} and its cycle.  Its rows are the
base pairing rows, the lambda derivative rows (the pairing rows times
-2 pi i t / c) and, for each shifted point shift_y(y, m, c), the kernel
times a rational factor R_m(t) times the shifted weight functions: the
Gamma recurrence turns the shift of y_m into R_m, and the cycle denominator
is c-periodic in y.  Each of these solutions, at each lambda, passes its
own convergence test on the shared grid.  No rule evaluates more than
NODE_BUDGET nodes.

The residuals of a grid (`grid_residuals`) are computed on dense arrays of
coefficients and states.  Along a grid only x_1 = e^{2 pi i lam} moves, so
every operator part that does not read x (the transport factors around the
coordinate reflection Kx, op_A and the coefficient-to-state matrix) is
built once per grid; each lambda builds only its n Kx factors and op_B.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import compat_ops
from .rqkz import ModelParams, compose_descs, q_split_descs, shift_y
from .scalar_field import _LOG_HALF_I, _LOG_PI, _lanczos_half_plane, cpow, log1m_exp, log_gamma
from .tensor_ops import Space, Vec

TWO_PI_I = 2j * math.pi
# The array kernel sets terms whose exponent has real part below this to
# zero: e^-600 is far under any sum such a term enters, and every product
# the pass forms from a larger term stays in the normal double range.
_EXP_FLOOR = -600.0
# Most nodes one trapezoidal rule may evaluate; the largest rule of the
# test suite has 6,913 nodes and that of the benchmark workloads 1,889.
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
        try:
            big_e = self.big_e
        except OverflowError:
            raise ValueError("lambda=%r: e^{2 pi i lam} overflows" % (self.lam,)) from None
        if abs(big_e - 1) < 1e-8:
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
    def monomial(cls, degree: int) -> "CycleW":
        return cls(((int(degree), 1 + 0j),))

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
    """Pairing coefficients with the evaluation point and diagnostics; the
    solution vector is the sum of coeffs[j - 1] vec_u(j)."""

    coeffs: tuple
    lam: complex
    y: tuple
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


def _log_kernel(t, y: Sequence, c: complex, k: complex):
    """The lambda-independent part of the log kernel-cycle over a 1-D array
    of nodes t: the gamma ratios minus the log cycle denominator.

    The 2n differences d = t - (+-y_p) form one (2n, N) array.  One
    log_gamma_array call takes all 4n gamma arguments, stacked as
    ((d - k)/(-c), d/(-c)), and one log1m_exp_array call all 2n cycle
    denominator terms.  Their rows are added in the scalar kernel's order,
    so each node's value does not depend on the stacking.
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


def _cycle_kernel(log_ker, t, W: CycleW, params: SolverParams):
    """The kernel-cycle at the nodes t from its lambda-independent log part:
    the sum over the cycle's monomials of cf exp(log_ker + (d - lam) 2 pi i t / c),
    where e^{-2 pi i lam t / c} is the kernel's lambda prefactor.

    Terms whose exponent has real part below _EXP_FLOOR are set to zero
    instead of underflowing, as the scalar form would round them to zero.
    """
    logz = TWO_PI_I * t / params.c
    out = 0
    for d, cf in W.terms:
        expo = log_ker + (d - params.lam) * logz
        live = expo.real >= _EXP_FLOOR
        expo = np.where(live, expo, _EXP_FLOOR)
        out = out + cf * np.where(live, np.exp(expo), 0)
    return out


def _kernel_cycle_array(t, y: Sequence, W: CycleW, params: SolverParams):
    """_kernel_cycle over a 1-D array of nodes t: the lambda-independent log
    sum, then the lambda prefactor and the cycle."""
    return _cycle_kernel(_log_kernel(t, y, params.c, params.k), t, W, params)


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
    try:
        scale = abs(params.c) ** 2 / (2 * math.pi)
    except OverflowError:
        # An infinite truncation, which the node budget rejects by lambda.
        scale = math.inf
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


def build_contour(params: SolverParams, W: CycleW,
                  include_shifted: bool = True) -> Contour:
    """Horizontal contour at Im t = delta, truncated and pole-validated."""
    trunc = _initial_trunc(W, params)
    _check_budget(2 * trunc * params.panels_per_unit + 1, ["lambda=%r" % params.lam])
    record = validate_contour_line(
        params.y, params.c, params.k, params.delta, trunc,
        include_shifted=include_shifted,
    )
    return Contour(delta=params.delta, trunc=trunc, record=record, y=tuple(params.y),
                   c=params.c, k=params.k, include_shifted=include_shifted)


def _check_budget(nodes, labels):
    """Raise QuadratureError naming labels if a rule of this many nodes,
    which may be inf or NaN, would exceed NODE_BUDGET."""
    if not nodes <= NODE_BUDGET:
        raise QuadratureError("%s: the rule needs %.3g nodes, above the budget of %d"
                              % (", ".join(labels), nodes, NODE_BUDGET))


# Nodes per array evaluation; bounds the working arrays of a sweep.
_CHUNK = 4096


def _sweep(values, nodes):
    """Row sums, weight sums and largest row term of each row group for
    each kernel of a grid, over an array of nodes, evaluated chunk by chunk
    in node order.

    values(t) returns a chunk's shared block: the rows of the G groups as a
    (G, r, N) array, each group's weight factor as a (G, N) array, and an
    iterable of kernels, one (N,) array per lambda of the grid.  The
    integrand rows of a lambda are its kernel times the block; each kernel
    is reduced against the block as soon as it is formed, so no array of
    every lambda's rows exists.  Returns (L, G, r), (L, G) and (L, G)
    arrays.
    """
    sums, weight_sum, top = 0, 0.0, 0.0
    for lo in range(0, len(nodes), _CHUNK):
        block, factors, kernels = values(nodes[lo:lo + _CHUNK])
        flat = block.reshape(-1, block.shape[-1])
        row_top = np.max(np.abs(block), axis=1)
        s, a, m = [], [], []
        # einsum rather than @: the first BLAS call of a process adds
        # resident buffers, about 0.2 MB of peak RSS for a few microseconds.
        for ker in kernels:
            mag = np.abs(ker)
            s.append(np.einsum("rn,n->r", flat, ker))
            a.append(np.einsum("gn,n->g", factors, mag))
            m.append(np.max(row_top * mag, axis=-1))
        sums = sums + np.reshape(s, (len(s),) + block.shape[:2])
        weight_sum = weight_sum + np.array(a)
        top = np.maximum(top, m)
    return sums, weight_sum, top


def _trapezoid(values, params: SolverParams, contour: Contour, lams,
               names=("base",)):
    """Trapezoidal rule along the contour line with nested halving, for
    every lambda of a grid on one node set.

    values(t) is as for _sweep; lams labels its kernels and names its G
    row groups.  Each (lambda, group) pair is one solution, whose kernel
    weight is |kernel| times the group's factor.  The first grid has
    h = 1/panels_per_unit, but no wider than the smallest pole gap of the
    contour: the integrand is analytic only within that distance of the
    line, and the error of the rule falls like exp(-2 pi gap / h).  On
    that grid the truncation doubles until, for every solution, the
    largest term of the newest outer band is at most atol times its weight
    sum; it then stays fixed, and the contour is validated out to it
    (diagnostics "contour"), so its pole record covers the whole
    integrated line.  Each halving of h evaluates only the
    new midpoints and reuses every earlier node, until for every solution
    two successive estimates agree to rtol times its largest estimate or
    atol times its scale, so no solution stops before it would alone, and
    a tiny solution gets the relative accuracy of a large one.  A sweep
    that would take the rule past NODE_BUDGET nodes, or an outer band
    whose largest term is not finite, raises QuadratureError instead.
    Returns the estimates as an (L, G, r) array and one diagnostics dict
    per lambda.
    """
    rec = contour.record
    h = min(1.0 / params.panels_per_unit, rec["min_gap_above"],
            rec["min_gap_below"])
    line = 1j * contour.delta
    labels = ["lambda=%r %s" % (complex(lam), name) for lam in lams for name in names]
    # 2 * ceil(trunc / h) + 1 nodes, checked before ceil, which fails on inf.
    _check_budget(2 * contour.trunc / h + 3, labels)
    half = max(1, int(math.ceil(contour.trunc / h)))
    sums, weight_sum, _ = _sweep(values, np.arange(-half, half + 1) * h + line)
    while True:
        _check_budget(4 * half + 1, labels)
        band = np.arange(half + 1, 2 * half + 1) * h
        s, a, top = _sweep(values, np.concatenate((-band[::-1], band)) + line)
        sums, weight_sum, half = sums + s, weight_sum + a, 2 * half
        finite = np.isfinite(top).ravel()
        if not np.all(finite):
            raise QuadratureError("%s: the integrand is not finite on the contour" % ", ".join(
                label for label, ok in zip(labels, finite) if not ok))
        if np.all(top <= params.atol * weight_sum):
            break
    trunc = half * h
    contour = contour.widened(trunc)
    ests = [h * sums]
    failing = labels
    for step in range(1, params.max_refine + 1):
        _check_budget(4 * half + 1, failing)
        s, a, _ = _sweep(values, (np.arange(-half, half) + 0.5) * h + line)
        sums, weight_sum, h, half = sums + s, weight_sum + a, h / 2, 2 * half
        est, scale = h * sums, h * weight_sum
        err = np.max(np.abs(est - ests[-1]), axis=-1)
        ests.append(est)
        done = err <= np.maximum(params.rtol * np.max(np.abs(est), axis=-1),
                                 params.atol * scale)
        if np.all(done):
            shared = {
                "contour": contour,
                "trunc": trunc,
                "panels": 2 * half,
                "refinements": step,
                "lambdas": len(lams),
            }
            return est, [dict(shared, quad_error=float(np.max(e)), scale=float(g[0]))
                         for e, g in zip(err, scale)]
        failing = [label for label, ok in zip(labels, done.ravel()) if not ok]
    raise QuadratureError(
        "%s: no convergence after %d halvings; last two estimates %r"
        % (", ".join(failing), params.max_refine,
           [e.tolist() for e in ests[-2:]])
    )


def _pairing_values(indices, W: CycleW, params: SolverParams):
    """values(t) for _trapezoid: the weight rows g_j at the nodes t for each
    index j, and the kernel-cycle."""
    y = params.y

    def values(t):
        rows = _weight_rows(t, y, params.k)
        block = np.array([rows[j - 1] for j in indices])[None]
        return block, np.ones((1, len(t))), [_kernel_cycle_array(t, y, W, params)]

    return values


def _pair_many(indices, W: CycleW, params: SolverParams, contour: Contour = None):
    """Pairings against g_j for several indices j at once, on one
    trapezoidal rule."""
    W.validate(params)
    if contour is None:
        contour = build_contour(params, W=W, include_shifted=False)
    est, (diag,) = _trapezoid(_pairing_values(indices, W, params), params,
                              contour, [params.lam])
    return [complex(v) for v in est[0, 0]], diag


def pair_I(j: int, W: CycleW, params: SolverParams) -> complex:
    """Single pairing coefficient."""
    if not 1 <= j <= 2 * params.n:
        raise ValueError("index out of range")
    vals, _ = _pair_many([j], W, params)
    return vals[0]


def _solution(p: SolverParams, vals, diag: dict) -> SolutionVector:
    return SolutionVector(coeffs=tuple(vals), lam=p.lam, y=p.y, diagnostics=diag)


def solve_f(lam: complex, y, W: CycleW, params: SolverParams,
            contour: Contour = None) -> SolutionVector:
    """All 2n pairing coefficients."""
    p = replace(params, lam=complex(lam), y=tuple(y))
    return _solution(p, *_pair_many(range(1, 2 * p.n + 1), W, p, contour=contour))


def _report_values(points):
    """values(t) for the grid's one rule: the lambda-independent block of
    the row groups base, derivative and shift-1 .. shift-n, and one
    kernel-cycle per (W, params) point of the grid.

    The log kernel is evaluated once per node for the whole grid; each
    point adds only its lambda prefactor and its cycle.  The derivative
    rows are the base rows times -2 pi i t / c, the lambda derivative of
    the prefactor e^{-2 pi i lam t / c}.  The kernel at shift_y(y, m, c)
    is the base kernel times
    R_m(t) = (t + y_m - k)/(t + y_m) * (t - y_m + c)/(t - y_m - k + c):
    the shift steps each of the four gamma arguments of y_m by one, and
    Gamma(z + 1) = z Gamma(z) turns that into R_m; the cycle denominator
    is c-periodic in y_m and does not change.  So the shift-m rows are
    R_m times the shifted weight functions, and each group's weight factor
    is 1 for base and derivative and |R_m| for shift-m.
    """
    _, p = points[0]
    c, k, y = p.c, p.k, p.y
    shifted = [shift_y(y, m, c) for m in range(1, p.n + 1)]

    def values(t):
        # The log kernel comes first, so that its working arrays are freed
        # before the block is built.
        log_ker = _log_kernel(t, y, c, k)
        block = np.empty((p.n + 2, 2 * p.n, len(t)), dtype=complex)
        factors = np.ones((p.n + 2, len(t)))
        block[0] = _weight_rows(t, y, k)
        block[1] = block[0] * (-TWO_PI_I * t / c)
        for g, (ym, ys) in enumerate(zip(y, shifted), start=2):
            r_m = (t + ym - k) / (t + ym) * (t - ym + c) / (t - ym - k + c)
            block[g] = r_m * np.array(_weight_rows(t, ys, k))
            factors[g] = np.abs(r_m)
        return block, factors, (_cycle_kernel(log_ker, t, W, q) for W, q in points)

    return values


def _grid_points(points) -> list:
    """The (W, params) points of a grid with complex lambda; their params
    must agree in everything but lambda."""
    points = [(W, replace(p, lam=complex(p.lam))) for W, p in points]
    _, first = points[0]
    for _, p in points:
        if replace(p, lam=first.lam) != first:
            raise ValueError("the points of a grid may differ only in lambda")
    return points


def grid_solutions(points) -> list:
    """The solution, its lambda derivative and the n shifted solutions at
    every point of a lambda grid, all on one trapezoidal rule.

    points is a sequence of (W, params) pairs whose params differ only in
    lam.  The rule integrates the rows of _report_values, evaluating the
    lambda-independent kernel once per node for the whole grid; every
    solution of every point passes its own truncation and halving tests,
    so a point's coefficients depend on the other points only through the
    shared node set.  The contour is validated once, for the base and
    every shifted pole configuration, out to the largest initial
    truncation over the grid.  Returns one (solution, derivative,
    [shifted solutions]) per point.
    """
    points = _grid_points(points)
    _, first = points[0]
    for W, p in points:
        W.validate(p)
    W, p = max(points, key=lambda point: _initial_trunc(*point))
    contour = build_contour(p, W=W, include_shifted=True)
    names = ("base", "derivative") + tuple(
        "shift-%d" % m for m in range(1, first.n + 1))
    est, diags = _trapezoid(_report_values(points), first, contour,
                            [p.lam for _, p in points], names)
    out = []
    for (_, p), parts, diag in zip(points, est, diags):
        parts = [[complex(v) for v in row] for row in parts]
        shifted = [_solution(replace(p, y=shift_y(p.y, m, p.c)), part, diag)
                   for m, part in enumerate(parts[2:], start=1)]
        out.append((_solution(p, parts[0], diag), _solution(p, parts[1], diag), shifted))
    return out


def report_solutions(W: CycleW, params: SolverParams) -> tuple:
    """The solution at params, its lambda derivative and the solutions at
    the n shifted points shift_y(y, m, c): grid_solutions on the grid of
    one.  Returns (solution, derivative, [shifted solutions])."""
    return grid_solutions([(W, params)])[0]


def _dense(op) -> np.ndarray:
    return np.array(op.to_dense(), dtype=complex)


def _apply(matrix, vec):
    # einsum rather than @, as in _sweep: the residual path makes no BLAS call.
    return np.einsum("ij,j->i", matrix, vec)


def grid_residuals(points, solved) -> list:
    """The qKZ, ODE and gauge residuals of every point of a lambda grid:
    points as passed to grid_solutions, solved as it returned them.

    On a grid only x_1 = e^{2 pi i lam} changes, and of the operators only
    the coordinate reflection factor Kx of each transport operator Q_m and
    op_B(1, x) depend on x.  So these are built once per grid, as dense
    arrays: U, whose columns are the vec_u(j) (coefficients to states);
    for each m the product H_m of the factors before Kx and the product
    T_m of those after it, folded into T_m U; and op_A(1, y) U.  Each
    lambda builds its n Kx factors and op_B(1, x) and applies them with
    np.einsum.  Every operator comes from its one builder in rqkz or
    compat_ops, and the split of Q_m around Kx from `rqkz.q_split_descs`.

    qkz_residuals[m] is the largest entry of U a_m - H_m Kx T_m U a, for
    base and shift-m coefficients a and a_m, relative to that of U a.  The
    differential residuals are those of the first-direction equation and
    of its gauge-transformed, parameter-free form; the scalar prefactor
    (e^{2 pi i lam} - 1)^{k/c} of the gauge uses the principal branch, and
    any other branch differs by a lambda-independent constant and solves
    the same equation.  Returns one (qkz residuals by site, ode residual,
    gauge residual) per point.  A point whose solution vector is zero, or
    one of whose residuals is not finite, raises QuadratureError naming
    its lambda.
    """
    points = _grid_points(points)
    for _, p in points:
        if abs(p.big_e + 1) < 1e-8:
            raise ValueError(
                "differential residuals need e^{2 pi i lam} away from -1"
            )
    _, p = points[0]
    model, x, y, n = p.model(), p.x_point(), p.y, p.n
    states = np.zeros((p.space.dim, 2 * n))
    for j in range(1, 2 * n + 1):
        for state, v in vec_u(j, p).entries.items():
            states[p.space.index(state), j - 1] = v
    transports = []
    for m in range(1, n + 1):
        head, mid, tail = q_split_descs(m, n)
        # Only the Kx factor reads x, so the first point's x serves the grid.
        head, tail = (_dense(compose_descs(part, x, y, model)) for part in (head, tail))
        transports.append((head, mid, np.einsum("ij,jk->ik", tail, states)))
    a_states = np.einsum("ij,jk->ik", _dense(compat_ops.op_A(1, y, model)), states)
    out = []
    for (_, p), (base, deriv, shifted) in zip(points, solved):
        x = p.x_point()
        coeffs = np.array([base.coeffs, deriv.coeffs] + [sol.coeffs for sol in shifted])
        vec, dvec, *shifted_vecs = np.einsum("ij,gj->gi", states, coeffs)
        norm = np.max(np.abs(vec))
        if norm == 0:
            raise QuadratureError("lambda=%r: every coefficient of the solution is zero, "
                                  "so its relative residuals are undefined" % p.lam)
        qkz = {}
        for m, (head, mid, tail_states) in enumerate(transports, start=1):
            kx = _dense(compose_descs([mid], x, y, model))
            diff = shifted_vecs[m - 1] - _apply(head, _apply(kx, _apply(tail_states, coeffs[0])))
            qkz[m] = float(np.max(np.abs(diff)) / norm)
        lvec = _apply(a_states, coeffs[0]) + _apply(_dense(compat_ops.op_B(1, x, model)), vec)
        ex = p.big_e
        total = dvec * (p.c / TWO_PI_I) + lvec + vec * (p.k * ex / (ex - 1))
        ode = float(np.max(np.abs(total)) / norm)
        s = cpow(ex - 1, p.k / p.c)
        ds = p.k * ex * cpow(ex - 1, p.k / p.c - 1)
        total = vec * ds + dvec * (s * p.c / TWO_PI_I) + lvec * s
        gauge = float(np.max(np.abs(total)) / (abs(s) * norm))
        # Checked one by one: a max over them could drop a NaN.
        if not all(math.isfinite(v) for v in [*qkz.values(), ode, gauge]):
            raise QuadratureError("lambda=%r: a residual is not finite" % p.lam)
        out.append((qkz, ode, gauge))
    return out


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
        ratio = prod_ratio_full(t, params.y, params.k)
        return ((1 - ex * ratio)[None, None], np.ones((1, len(t))),
                [_kernel_cycle_array(t, params.y, W, params)])

    est, (diag,) = _trapezoid(values, params, contour, [params.lam])
    return complex(est[0, 0, 0]), diag["scale"]


def residual_report(W: CycleW, params: SolverParams, solutions=None,
                    residuals=None) -> dict:
    """Machine-readable summary of one lambda: coefficients, residuals,
    diagnostics.

    solutions is the point's (solution, derivative, [shifted solutions])
    from grid_solutions and residuals its (qkz residuals, ode residual,
    gauge residual) from grid_residuals, when the point was solved with a
    lambda grid; without them the point is its own grid.  Either way the
    base point, its lambda derivative and the n shifted points come from
    one node set with one kernel evaluation per node: the shifted kernels
    follow from the base kernel by the Gamma recurrence and the c-periodic
    cycle denominator, and each solution passes its own convergence test.
    The quadrature record is the shared rule's, with "kernel_evals" (its
    nodes), "lambdas" (the points of its grid) and "solves" (the n + 1
    points solved at this lambda).
    """
    if solutions is None:
        solutions = report_solutions(W, params)
    if residuals is None:
        (residuals,) = grid_residuals([(W, params)], [solutions])
    base, _, shifted = solutions
    qkz, ode, ftilde = residuals
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
            # The grid's one rule evaluates the kernel once at every node
            # of its final grid, for all of its lambdas together.
            "kernel_evals": diag["panels"] + 1,
            "lambdas": diag["lambdas"],
            "solves": 1 + len(shifted),
        },
    }
    return report


def ftilde_residual(W: CycleW, params: SolverParams) -> float:
    """Relative residual of the gauge-transformed, parameter-free equation,
    as residual_report gives it."""
    return residual_report(W, params)["ftilde_residual"]
