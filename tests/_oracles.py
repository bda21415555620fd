"""Independent quadrature oracle shared by the solver and acceptance tests.

Kept deliberately separate from the package's trapezoidal integrator:
plain adaptive Simpson with Richardson correction, recursing on the same
integrand samples the implementation sees, along the same line
Im t = Im(k)/2 but with its own truncation and its own tolerance, both
relative to the size of the integral.
"""

from bqkz.integral_solver import integrand

# The oracle's first line is |Re t| <= _REACH, widened by doubling; a line
# that never settles by _MAX_REACH is an error of the oracle, not an answer.
_REACH = 16
_MAX_REACH = 1 << 12
# Accuracy relative to the integral's size: far below the 1e-8 the tests
# compare at, and far enough above the integrand's rounding that a piece
# settles before full depth unless the integral cancels strongly.
_RTOL = 1e-10


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
