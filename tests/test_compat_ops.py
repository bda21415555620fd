"""Differential-side operators: commuting family, blocks, compatibility.

The hand-coded coordinate derivatives are checked against an independent
oracle: entries of the operators are rational functions of one coordinate
with a known denominator, so exact polynomial interpolation of the
numerator gives the derivative without any finite differencing.
"""

import pytest

import bqkz.compat_ops as co
from bqkz.sampling import make_rng, rand_column, rand_scalar, rand_tuple, sample_point
from bqkz.scalar_field import PoleError, div, rat
from bqkz.tensor_ops import Block, LinOp, Space, lincomb, product
from bqkz.rqkz import ModelParams, compose_descs, op_Q, op_dQ_dx, q_split_descs, shift_y
from bqkz.compat_ops import (
    block_assembly_defect,
    check_comm_IM,
    check_cross_derivative,
    comm_AA_defect,
    compat_direct,
    compat_three_term,
    l_shifted_on,
    m_conjugation_defect,
    op_A,
    op_B_terms,
    op_I,
    op_L,
    op_L_from_blocks,
    op_M,
    op_M_swapped,
    op_dB_dx,
    op_dK_term,
    site_unit,
)

rng = make_rng(908070)


def starts(space):
    """The identity block and one random integer column: a defect that
    vanishes on the identity vanishes on every column."""
    return Block.identity(space), Block.of(space, rand_column(rng, range(space.dim)))


def op_B(a, x, params):
    """The coordinate part B_a(x), the sum of its terms."""
    return lincomb(params.space, op_B_terms(a, x, params))


def rand_params(r, space):
    return ModelParams(*rand_tuple(r, 4, nonzero=True), space)


def generic_x(r, count):
    """Coordinates safe for every op_B pole: nonzero, off the unit square
    roots, pairwise distinct, no product equal to one."""
    while True:
        x = rand_tuple(r, count, nonzero=True)
        ok = all(v * v != 1 for v in x)
        for i in range(count):
            for j in range(i + 1, count):
                ok = ok and x[i] != x[j] and x[i] * x[j] != 1
        if ok:
            return x


# polynomial helpers over exact rationals, coefficients low degree first


def poly_eval(coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def poly_deriv(coeffs):
    return [coeffs[i] * i for i in range(1, len(coeffs))]


def lagrange(points):
    """Interpolating polynomial through exact (t, value) pairs."""
    coeffs = [0] * len(points)
    for i, (ti, vi) in enumerate(points):
        basis = [1]
        denom = 1
        for j, (tj, _) in enumerate(points):
            if j == i:
                continue
            basis = poly_mul(basis, [-tj, 1])
            denom = denom * (ti - tj)
        scale = div(vi, denom)
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    return coeffs


def derivative_by_interpolation(sample_op, q_coeffs, ts, t_hold, dim):
    """d/dt of a matrix with entries p(t)/q(t), deg p <= deg q, at t_hold."""
    mats = {}
    for t in ts:
        dense = sample_op(t).to_dense()
        qt = poly_eval(q_coeffs, t)
        mats[t] = [[qt * v for v in row] for row in dense]
    q_hold = poly_eval(q_coeffs, t_hold)
    dq_hold = poly_eval(poly_deriv(q_coeffs), t_hold)
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            p = lagrange([(t, mats[t][i][j]) for t in ts])
            p_hold = poly_eval(p, t_hold)
            dp_hold = poly_eval(poly_deriv(p), t_hold)
            row.append(div(dp_hold * q_hold - p_hold * dq_hold, q_hold * q_hold))
        out.append(row)
    return out


def distinct_points(r, count, banned):
    pts = []
    while len(pts) < count:
        t = rand_scalar(r)
        if t in banned or t in pts:
            continue
        if any(t * b == 1 for b in banned if b != 0):
            continue
        if t == 0 or t * t == 1:
            continue
        pts.append(t)
    return pts


def test_op_a_smallest_case_entries():
    """n = 1, one label: only the diagonal weight and the bar-raising term."""
    space = Space(1, 1)
    params = ModelParams(rat(1), rat(2, 3), rat(5, 7), rat(1, 4), space)
    y = (rat(3, 2),)
    a1 = op_A(1, y, params)
    # On one site a state's index is its code: v is 0, vbar 1.
    assert a1.apply({0: 1}) == {0: y[0]}
    assert a1.apply({1: 1}) == {1: -y[0], 0: 2 * params.alpha}


def test_comm_aa_samples():
    for n, half in ((2, 2), (3, 2), (2, 3)):
        space = Space(n, half)
        for start in starts(space):
            for _ in range(3):

                def body(r):
                    params = rand_params(r, space)
                    y = rand_tuple(r, n)
                    for a in range(1, half + 1):
                        for b in range(a + 1, half + 1):
                            assert not comm_AA_defect(a, b, y, params, start)
                    return True

                sample_point(rng, body)


def test_comm_ll_and_assembly_samples():
    for n, half in ((2, 2), (3, 2)):
        space = Space(n, half)
        for start in starts(space):
            for _ in range(2):

                def body(r):
                    params = rand_params(r, space)
                    x = generic_x(r, half)
                    y = rand_tuple(r, n)
                    ls = [op_L(a, x, y, params) for a in range(1, half + 1)]
                    l_start = [product((l_a, start)) for l_a in ls]
                    for a in range(1, half + 1):
                        assert not block_assembly_defect(a, x, y, params, l_start[a - 1], start)
                        for b in range(a + 1, half + 1):
                            assert (product((ls[a - 1], l_start[b - 1]))
                                    - product((ls[b - 1], l_start[a - 1]))).is_zero()
                    return True

                sample_point(rng, body)


def test_cross_derivative_samples():
    space = Space(2, 2)
    for _ in range(5):

        def body(r):
            params = rand_params(r, space)
            x = generic_x(r, 2)
            y = rand_tuple(r, 2)
            assert check_cross_derivative(1, 2, x, y, params).is_zero()
            return True

        sample_point(rng, body)


def test_comm_im_and_slot_swap_samples():
    for half in (1, 2, 3):
        space = Space(2, half)
        for start in starts(space):
            for _ in range(2):

                def body(r):
                    params = rand_params(r, space)
                    x = generic_x(r, half)
                    y1, y2 = rand_tuple(r, 2)
                    for a in range(1, half + 1):
                        m_a = op_M(a, x, params)
                        assert not check_comm_IM(a, x, y1, y2, params, m_a, start)
                        assert not m_conjugation_defect(a, x, params, m_a, start)
                    return True

                sample_point(rng, body)


def test_block_pole_guards():
    space = Space(2, 2)
    params = ModelParams(rat(1), rat(1, 2), rat(1, 3), rat(1, 4), space)
    with pytest.raises(PoleError):
        op_I(1, rat(1), rat(2), params)
    with pytest.raises(PoleError):
        op_I(1, rat(0), rat(2), params)
    with pytest.raises(PoleError):
        op_B(1, (rat(1), rat(2)), params)
    with pytest.raises(PoleError):
        op_B(1, (rat(3), rat(3)), params)
    with pytest.raises(PoleError):
        op_B(1, (rat(3), rat(1, 3)), params)


def test_db_dx_interpolation_oracle_cross_coordinate():
    """dB_b/dx_a for a != b against the same oracle, t = x_a."""
    half, n = 2, 2
    space = Space(n, half)

    def body(r):
        params = rand_params(r, space)
        x = generic_x(r, half)
        b, a = r.choice(((1, 2), (2, 1)))
        xb = x[b - 1]
        # q(t) = (x_b - t)(x_b t - 1)
        q = poly_mul([xb, -1], [-1, xb])
        banned = [xb]
        ts = distinct_points(r, len(q) + 1, banned)
        t_hold = distinct_points(r, 1, banned + ts)[0]

        def at(t):
            xt = tuple(t if i == a - 1 else v for i, v in enumerate(x))
            return op_B(b, xt, params)

        want = derivative_by_interpolation(at, q, ts, t_hold, space.dim)
        x_hold = tuple(t_hold if i == a - 1 else v for i, v in enumerate(x))
        got = lincomb(space, op_dB_dx(b, a, x_hold, params)).to_dense()
        assert got == want
        return True

    for _ in range(3):
        sample_point(rng, body)


def test_db_dx_refuses_the_same_coordinate():
    """check_cross_derivative reads dB_b/dx_a at a != b only, and op_dB_dx
    builds no other."""
    space = Space(2, 2)
    params = rand_params(make_rng(516), space)
    with pytest.raises(ValueError, match="a != b"):
        op_dB_dx(1, 1, (rat(3), rat(5)), params)


def test_dq_dx_interpolation_oracle():
    """The transport operator is affine in T(x), so entries are quadratic
    over t after clearing one power; interpolation certifies op_dQ_dx."""
    n, half = 2, 2
    space = Space(n, half)

    def body(r):
        params = rand_params(r, space)
        x = rand_tuple(r, half, nonzero=True)
        y = rand_tuple(r, n)
        a = r.choice((1, 2))
        m = r.choice((1, 2))
        q = [0, 1]
        ts = distinct_points(r, 4, [])
        t_hold = distinct_points(r, 1, list(ts))[0]

        def at(t):
            xt = tuple(t if i == a - 1 else v for i, v in enumerate(x))
            return op_Q(m, xt, y, params)

        want = derivative_by_interpolation(at, q, ts, t_hold, space.dim)
        x_hold = tuple(t_hold if i == a - 1 else v for i, v in enumerate(x))
        tail = compose_descs(q_split_descs(m, n)[2], x_hold, y, params,
                             start=Block.identity(space))
        # Coordinate a's block of columns, with unit weights.
        every = op_dQ_dx(m, x_hold, y, params, tail, (1,) * half)
        got = every.take(range((a - 1) * space.dim, a * space.dim)).linop().to_dense()
        assert got == want
        return True

    for _ in range(3):
        sample_point(rng, body)


def test_dk_term_dual_route_agrees(monkeypatch):
    """op_dK_term's two routes to the derivative terms agree at random
    points, and its verdict turns True when one route is perturbed."""
    n, half = 2, 2
    space = Space(n, half)

    def body(r):
        params = rand_params(r, space)
        x = generic_x(r, half)
        y = rand_tuple(r, n)
        for m in (1, 2):
            terms, differs = op_dK_term(m, x, y, params)
            assert len(terms) == half and differs is False
        return params, x, y

    for _ in range(3):
        params, x, y = sample_point(rng, body)
    real = co.op_dK_dx
    # The last argument is the weight: the derivative route doubles.
    monkeypatch.setattr(co, "op_dK_dx", lambda *args: real(*args[:-1], 2 * args[-1]))
    assert all(op_dK_term(m, x, y, params)[1] for m in (1, 2))


def _forms(m, x, y, params, start):
    """Both compatibility residuals of site m on a start, each operator
    built as the suite builds it."""
    ls = [op_L(a, x, y, params) for a in range(1, len(x) + 1)]
    l_start = Block.join([l_a.on_block(start) for l_a in ls])
    dk, _ = co.op_dK_term(m, x, y, params)
    return (compat_three_term(m, x, y, params, ls, dk, start),
            compat_direct(m, x, y, params, ls, l_start, start))


def test_the_shifted_matrix_part_is_the_matrix_part_at_the_shifted_point():
    """The shifted read of every L_a on the identity block, from L_a at y,
    is op_L at shift_y(y, m, c) on it, label by label."""
    for n, half in ((1, 1), (2, 2), (3, 2)):
        space = Space(n, half)
        ident = Block.identity(space)

        def body(r):
            params = rand_params(r, space)
            x = generic_x(r, half)
            y = rand_tuple(r, n)
            ls = [op_L(a, x, y, params) for a in range(1, half + 1)]
            for m in range(1, n + 1):
                want = [op_L(a, x, shift_y(y, m, params.c), params).on_block(ident)
                        for a in range(1, half + 1)]
                assert l_shifted_on(m, ls, params, ident) == Block.join(want)
            return True

        sample_point(rng, body)


def test_compatibility_both_forms():
    """On the identity block each form's residual is every label's whole
    operator side by side, and each vanishes."""
    for n, half in ((1, 1), (2, 2), (3, 2), (2, 3)):
        space = Space(n, half)
        reps = 3 if (n, half) == (2, 2) else 1
        for _ in range(reps):

            def body(r):
                params = rand_params(r, space)
                x = generic_x(r, half)
                y = rand_tuple(r, n)
                ident = Block.identity(space)
                for m in range(1, n + 1):
                    for form in _forms(m, x, y, params, ident):
                        assert len(form.cols) == half * space.dim
                        assert form.is_zero(), (n, half, m)
                return True

            sample_point(rng, body)


def test_compat_forms_are_independent_routes(monkeypatch):
    """Corrupting the transport derivative breaks only the direct form;
    corrupting the middle-reflection term breaks only the split form.
    That fails unless the two residuals really use disjoint ingredients."""
    space = Space(2, 2)

    def body(r):
        params = rand_params(r, space)
        x = generic_x(r, 2)
        y = rand_tuple(r, 2)
        return params, x, y

    params, x, y = sample_point(rng, body)
    ident = Block.identity(space)

    real_dq = co.op_dQ_dx
    monkeypatch.setattr(co, "op_dQ_dx", lambda *a, **kw: real_dq(*a, **kw).scale(2))
    split, direct = _forms(1, x, y, params, ident)
    assert split.is_zero() and not direct.is_zero()
    monkeypatch.setattr(co, "op_dQ_dx", real_dq)

    real_dk = co.op_dK_term
    whole = LinOp.identity(space)

    def corrupted(*args):
        terms, differs = real_dk(*args)
        return [t.embedded() + whole for t in terms], differs

    monkeypatch.setattr(co, "op_dK_term", corrupted)
    split, direct = _forms(1, x, y, params, ident)
    assert not split.is_zero() and direct.is_zero()


def test_each_operator_is_one_linear_combination(monkeypatch):
    """Every builder of the family sums its terms once, by its cached
    fixed sum (`tensor_ops.FixedSum`), which counts as one reduction, or
    by one `lincomb` (op_B here), which evaluates the one FixedSum it
    compiles: with the label-only caches and the fixed sums warm, one call
    reduces exactly once.  The cross-derivative residual is one fixed sum
    over the terms of both derivatives.  The block route builds each
    of its n one-site blocks and its one pair block once (one reduction
    each), applies each to the identity block where it acts (one each) and
    sums the images once, so it reduces 2n + 3 times.  The restriction
    residual's terms are kept on the orbit columns once per space, so at a
    point it only sums them, once.  Matrix units are built once and
    shared."""
    import bqkz.tensor_ops as to
    from bqkz.hecke_module import check_L_restriction, restriction_images

    space = Space(2, 2)
    r = make_rng(515)
    params = rand_params(r, space)
    x, y = generic_x(r, 2), rand_tuple(r, 2)
    gamma = rand_scalar(r)
    images = restriction_images(2, space)
    calls = {
        "op_A": lambda: op_A(1, y, params),
        "op_B": lambda: op_B(2, x, params),
        "op_L": lambda: op_L(1, x, y, params),
        "op_I": lambda: op_I(2, x[1], gamma, params),
        "op_M": lambda: op_M(1, x, params),
        "op_M_swapped": lambda: op_M_swapped(2, x, params),
        "op_L_from_blocks": lambda: op_L_from_blocks(1, x, y, params, Block.identity(space)),
        "check_cross_derivative": lambda: check_cross_derivative(1, 2, x, y, params),
        "check_L_restriction": lambda: check_L_restriction(2, x, params, images),
    }
    reductions = {name: 1 for name in calls}
    reductions["op_L_from_blocks"] = 2 * space.n + 3
    for call in calls.values():
        call()
    built = []
    # An operator is reduced by _built or by a fixed sum's evaluation, and
    # a block by _reduced.
    for owner, name in ((to, "_built"), (to, "_reduced"), (to.FixedSum, "__call__")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real: built.append(1) or real(*args))
    for name, call in calls.items():
        built.clear()
        call()
        assert len(built) == reductions[name], name
    assert site_unit(2, 1, 3) is site_unit(2, 1, 3)
