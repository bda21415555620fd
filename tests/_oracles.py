"""Independent quadrature oracle shared by the solver and acceptance tests.

Kept deliberately separate from the package's trapezoidal integrator:
plain adaptive Simpson with Richardson correction, recursing on the same
integrand samples the implementation sees.
"""

from bqkz.integral_solver import build_contour, integrand


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


def simpson_oracle(j, W, params, eps=1e-9):
    """Pairing value by adaptive Simpson along the validated contour line."""
    ctr = build_contour(params, W=W)

    def f(s):
        return integrand(j, W, complex(s, ctr.delta), params)

    pieces = [-ctr.trunc, -ctr.trunc / 3, 0.0, ctr.trunc / 3, ctr.trunc]
    return sum(
        adaptive_simpson(f, lo, hi, eps) for lo, hi in zip(pieces, pieces[1:])
    )
