"""Scalars: residues of the prime field F_p, and the complex helpers of
the contour solver.

Every operator identity is certified over F_p with the one fixed prime
P = 2^30 - 35: a residue is one canonical int in [0, P), a single 30-bit
CPython digit, so a product of two stays two digits.  The operators of
`tensor_ops` hold nothing else.  A `Residue` is a scalar of the factor
builders: its arithmetic with residues and ints, and with a Fraction such
as the transport's constant -1/2, is reduced mod P, and it compares equal
to every int of its class.  `rat(num, den)` and `inv` give residues, and
a denominator divisible by P raises PoleError, so a drawn point that sits
on a pole mod P is redrawn as any other pole is.

The contour-integral solver computes in complex double precision: its
scalar log Gamma and powers live here, and their array forms in
`integral_solver`, so this module imports no numpy.  The factor builders
of `rqkz` take either kind of scalar, through `inv` and `div`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

P = 2**30 - 35
RATIONAL_BACKEND = "F_%d" % P


class PoleError(ZeroDivisionError):
    """A construction hit a vanishing denominator or a function pole."""


def residue(v) -> int:
    """The canonical int in [0, P) of an exact scalar: a residue, an int or
    a Fraction.  A float or complex scalar has no residue and is refused."""
    if type(v) is Residue:
        return v.v
    if isinstance(v, int):
        return v % P
    if isinstance(v, Fraction):
        return v.numerator * _inverse(v.denominator % P) % P
    raise TypeError("an operator takes exact scalars only, not %s" % type(v).__name__)


def _inverse(r: int) -> int:
    """The inverse of a canonical residue; zero is a pole."""
    if not r:
        raise PoleError("zero denominator mod %d" % P)
    return pow(r, -1, P)


def lift(r: int) -> int:
    """The balanced representative in (-P/2, P/2) of a canonical residue:
    the integer itself for an integer entry that small."""
    return r - P if r > P >> 1 else r


class Residue:
    """An element of F_p, held as its canonical int `v` in [0, P)."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % P

    def __add__(self, other):
        return Residue(self.v + residue(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Residue(self.v - residue(other))

    def __rsub__(self, other):
        return Residue(residue(other) - self.v)

    def __mul__(self, other):
        return Residue(self.v * residue(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-self.v)

    def __pow__(self, e: int):
        return Residue(pow(self.v, e, P))

    def __eq__(self, other):
        try:
            return self.v == residue(other)
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __int__(self):
        return self.v

    def __repr__(self):
        return repr(self.v)


def rat(num, den=1) -> Residue:
    """The residue of num/den; a den divisible by P is a pole."""
    return Residue(residue(num) * _inverse(residue(den)))


def inv(v):
    """Reciprocal in F_p of an exact scalar, and 1/v for the solver's
    complex ones; zero is a pole either way."""
    if isinstance(v, (int, Residue)):
        return Residue(_inverse(residue(v)))
    if v == 0:
        raise PoleError("reciprocal of zero")
    return 1 / v


def div(a, b):
    """a/b through inv, so int/int is a residue."""
    return a * inv(b)


# Lanczos approximation of log Gamma, g = 607/128, 15 terms.  Valid for
# Re z >= 0.5 with relative error near double-precision roundoff.  Left of
# that line the scalar log_gamma steps z up by the recurrence
# log Gamma(z) = log Gamma(z+1) - log z while Re z is near the origin, and
# uses reflection further out; integral_solver's array form always
# reflects.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _lanczos_rational():
    """The Lanczos sum c_0 + sum_{i >= 1} c_i / (z + i - 1) as one rational
    function P(v) / Q(v) of v = 1/z (Pugh 2004; Boost.Math `lanczos`).

    With 1/(z + a) = v/(1 + a v), Q(v) = prod_{a=1}^{13} (1 + a v) and
    P(v) = c_0 Q(v) + v sum_i c_i Q(v)/(1 + (i - 1) v).  Over Re z >= 0.5,
    v lies in the disk |v - 1| <= 1, so neither polynomial can overflow.
    The coefficients are formed exactly, in integers over the common
    power-of-two denominator of the c_i, and rounded once.  Returns the
    coefficients of P and of Q, highest degree first.
    """
    ratios = [cf.as_integer_ratio() for cf in _LANCZOS_C]
    scale = max(q for _, q in ratios)
    cs = [p * (scale // q) for p, q in ratios]
    den = [1]
    for a in range(1, len(cs) - 1):
        den = [x + a * y for x, y in zip(den + [0], [0] + den)]
    num = [cs[0] * q for q in den] + [0]
    for a, ca in enumerate(cs[1:]):
        # Q(v)/(1 + a v) by synthetic division, lowest degree first.
        part, prev = [], 0
        for q in den[:-1] if a else den:
            prev = q - a * prev
            part.append(prev)
        for k, q in enumerate(part, start=1):
            num[k] += ca * q
    return (tuple(v / scale for v in reversed(num)),
            tuple(float(q) for q in reversed(den)))


_LANCZOS_NUM, _LANCZOS_DEN = _lanczos_rational()
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_LOG_HALF_I = complex(-math.log(2.0), 0.5 * math.pi)
# The scalar log_gamma reflects below this real part; above it the shift
# loop takes at most nine steps.
_REFLECT_BELOW = -8.0


def _horner(coeffs, v):
    """The polynomial with coefficients coeffs (highest degree first) at v;
    for an array v every step after the first works in place."""
    out = coeffs[0] * v + coeffs[1]
    for cf in coeffs[2:]:
        out *= v
        out += cf
    return out


def _lanczos_half_plane(z, log=cmath.log):
    """log Gamma(z) for Re z >= 0.5; with log=np.log, z may be an array.
    The Lanczos sum is evaluated as P(1/z) / Q(1/z) by Horner's rule, with
    two divisions in place of one per term."""
    v = 1 / z
    s = _horner(_LANCZOS_NUM, v) / _horner(_LANCZOS_DEN, v)
    zm1 = z - 1.0
    t = zm1 + _LANCZOS_G + 0.5
    return (zm1 + 0.5) * log(t) - t + _LOG_SQRT_2PI + log(s)


def log1m_exp(zeta: complex) -> complex:
    """A logarithm of 1 - e^zeta, stable for large |Re zeta|; the branch is
    irrelevant because only the exponential of sums is ever used."""
    if zeta.real > 0:
        return zeta + cmath.log(1 - cmath.exp(-zeta)) + 1j * math.pi
    return cmath.log(1 - cmath.exp(zeta))


def _log_sin_pi(z: complex) -> complex:
    """A logarithm of sin(pi z), valid modulo 2 pi i.

    With m = round(Re z) and w = z - m, sin(pi z) = (-1)^m sin(pi w).
    Near the real axis sin(pi w) is taken directly, which keeps full
    relative accuracy next to a pole; far from it, as
    (i/2) e^{-i pi w} (1 - e^{2 pi i w}), which cannot overflow.
    """
    m = round(z.real)
    w = z - m
    parity = 1j * math.pi * (m % 2)
    if abs(w.imag) < 50.0:
        return parity + cmath.log(cmath.sin(math.pi * w))
    return parity + _LOG_HALF_I - 1j * math.pi * w + log1m_exp(2j * math.pi * w)


def _principal_branch(value: complex, z: complex) -> complex:
    """Move a logarithm of Gamma(z), known modulo 2 pi i, onto the principal
    branch.

    For Re z < 0 the principal log Gamma differs from Stirling's
    (z - 1/2) Log z - z + log(2 pi)/2 by -log(1 - e^{+-2 pi i z}) plus
    O(1/|z|), whose imaginary part stays within pi/2; rounding the
    imaginary gap to whole turns of 2 pi therefore picks the branch (Hare,
    "Computing the principal branch of log-Gamma", J. Algorithms 25, 1997).
    """
    stirling = ((z - 0.5) * cmath.log(z) - z + 1 / (12 * z)).imag
    turns = round((stirling - value.imag) / (2 * math.pi))
    return value + 2j * math.pi * turns


def log_gamma(z) -> complex:
    """Principal-branch log Gamma(z) for complex z.

    Standard branch: real on the positive real axis, analytic on the plane
    cut along (-inf, 0].  Non-positive integers are poles and raise
    PoleError.  Each call costs O(1): far left of the origin it reflects,
    log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z), and fixes the
    branch from Stirling's imaginary part.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError("log_gamma pole at z = %r" % z.real)
    if z.real < _REFLECT_BELOW:
        value = _LOG_PI - _log_sin_pi(z) - _lanczos_half_plane(1 - z)
        return _principal_branch(value, z)
    acc = 0j
    while z.real < 0.5:
        acc += cmath.log(z)
        z += 1.0
    return _lanczos_half_plane(z) - acc


def cpow(w, s) -> complex:
    """Principal branch of w**s = exp(s log w) for complex w, s; w = 0 errors."""
    w = complex(w)
    s = complex(s)
    if w == 0:
        raise PoleError("cpow base is zero")
    return cmath.exp(s * cmath.log(w))
