"""Exact rational arithmetic and the complex log-gamma kernel helpers."""

import cmath
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mpmath

from bqkz.scalar_field import (
    PoleError,
    RATIONAL_BACKEND,
    cpow,
    div,
    inv,
    is_exact,
    log_gamma,
    rat,
)
from bqkz.integral_solver import log1m_exp_array, log_gamma_array

rationals = st.builds(
    rat, st.integers(min_value=-200, max_value=200), st.integers(min_value=1, max_value=60)
)


def test_backend_is_reported():
    assert RATIONAL_BACKEND in ("gmpy2", "fractions")


def test_rat_reduces():
    assert rat(2, 4) == rat(1, 2)
    assert rat(-6, 3) == -2
    assert rat(5) == 5


def test_is_exact():
    assert is_exact(rat(1, 3))
    assert is_exact(7)
    assert not is_exact(0.5)
    assert not is_exact(1 + 2j)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0


@given(rationals)
def test_inverse_roundtrip(a):
    if a == 0:
        with pytest.raises(PoleError):
            inv(a)
    else:
        assert a * inv(a) == 1
        assert div(1, a) == inv(a)


def test_inv_of_int_stays_exact():
    v = inv(3)
    assert is_exact(v)
    assert 3 * v == 1


def test_div_pole():
    with pytest.raises(PoleError):
        div(rat(1, 2), rat(0))


def test_pole_error_is_zero_division():
    assert issubclass(PoleError, ZeroDivisionError)


_GRID = [
    0.5 + 0j,
    1.0 + 0j,
    3.7 - 0.4j,
    0.3 + 2.1j,
    -1.4 + 0.9j,
    -2.6 - 1.7j,
    -0.1 + 0.05j,
    5.5 + 8.0j,
    -6.3 + 0.2j,
    0.9 - 3.3j,
]


def test_log_gamma_against_high_precision_oracle():
    mpmath.mp.dps = 50
    for z in _GRID:
        want = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
        got = log_gamma(z)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), z


def test_log_gamma_recurrence():
    """log Gamma(z+1) = log Gamma(z) + log z off the cut, to 1e-12."""
    for z in _GRID:
        lhs = log_gamma(z + 1)
        rhs = log_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), z


def test_log_gamma_reflection():
    """log Gamma(z) + log Gamma(1-z) matches log(pi / sin(pi z)) up to the
    branch lattice 2 pi i Z, to 1e-11.  Integer points sit on poles of one
    side or the other and are excluded."""
    for z in _GRID:
        if z.imag == 0.0 and z.real == int(z.real):
            continue
        total = log_gamma(z) + log_gamma(1 - z)
        ref = cmath.log(math.pi / cmath.sin(math.pi * z))
        diff = (total - ref) / (2j * math.pi)
        nearest = round(diff.real)
        assert abs(diff - nearest) <= 1e-11 * max(1.0, abs(total)), z


def test_log_gamma_far_left_is_principal_and_bounded():
    """Far left of the origin log_gamma reflects and fixes the branch from
    Stirling's imaginary part: the principal value, at O(1) cost per call."""
    mpmath.mp.dps = 50
    for re in (-1e3, -1e3 + 0.37, -1e6, -1e6 + 0.5):
        for im in (1e-6, 0.5, -0.5, 3.0, -40.0, 200.0):
            z = complex(re, im)
            want = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
            got = log_gamma(z)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), z
    start = time.perf_counter()
    value = log_gamma(-1e9 + 0.5j)
    assert time.perf_counter() - start < 0.1
    want = complex(mpmath.loggamma(mpmath.mpc(-1e9, 0.5)))
    assert abs(value - want) <= 1e-12 * abs(want)


def test_log_gamma_array_matches_scalar_modulo_branch():
    """The array form agrees with log_gamma up to whole turns of 2 pi i, on
    both sides of the reflection line and far below it, without raising a
    floating-point flag."""
    r = random.Random(11)
    zs = [complex(r.uniform(-600, 600), r.uniform(-1000, 1000)) for _ in range(300)]
    zs += [complex(r.uniform(-3, 3), r.uniform(0.2, 2)) for _ in range(100)]
    with np.errstate(all="raise"):
        got = log_gamma_array(np.array(zs))
    for z, g in zip(zs, got):
        want = log_gamma(z)
        turns = (g - want) / (2j * math.pi)
        assert abs(turns - round(turns.real)) * 2 * math.pi <= 1e-14 * max(1.0, abs(want)), z


def test_array_forms_do_not_depend_on_the_shape():
    """log_gamma_array and log1m_exp_array on a 3-D array equal the same
    call on each 1-D row, bit for bit: the solver's kernel stacks all its
    arguments into one call and relies on this."""
    r = random.Random(12)
    shape = (2, 3, 37)
    zs = np.array([complex(r.uniform(-500, 500), r.uniform(-300, 300))
                   for _ in range(math.prod(shape))]).reshape(shape)
    zs[0, 1, :10] = [complex(r.uniform(-3, 3), r.uniform(0.2, 2)) for _ in range(10)]
    with np.errstate(all="raise"):
        for f in (log_gamma_array, log1m_exp_array):
            whole = f(zs)
            assert whole.shape == shape
            for i, j in np.ndindex(shape[:2]):
                assert np.array_equal(whole[i, j], f(zs[i, j].copy())), (f.__name__, i, j)


def test_gamma_positive_integers():
    for m, want in ((1, 1.0), (2, 1.0), (3, 2.0), (5, 24.0)):
        assert cmath.isclose(cmath.exp(log_gamma(m)), want, rel_tol=1e-12, abs_tol=1e-12)


def test_cpow_principal_branch():
    assert cmath.isclose(cpow(4.0, 0.5), 2.0, rel_tol=1e-12, abs_tol=1e-12)
    z = 1.3 - 0.8j
    assert cmath.isclose(cpow(z, 1.0), z, rel_tol=1e-12, abs_tol=1e-12)
    a, b = 0.37 + 0.21j, -0.6 + 0.9j
    assert cmath.isclose(cpow(z, a + b), cpow(z, a) * cpow(z, b), rel_tol=1e-11, abs_tol=1e-12)
