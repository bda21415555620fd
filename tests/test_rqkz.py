"""Transport operator construction and its exact defining identities."""

import pytest

from bqkz.sampling import make_rng, rand_column, rand_scalar, rand_tuple, sample_point
from bqkz.scalar_field import PoleError, inv, rat
from bqkz.tensor_ops import Block, LinOp, Space, product
from bqkz.rqkz import (
    ModelParams,
    bybe_defect,
    compose_descs,
    factor_ops,
    flip_factor_defect,
    invert_descs,
    k_factor,
    k_unitarity_defect,
    ones,
    op_Q,
    op_dK_dx,
    op_dT_dx,
    p_factor,
    q_factor_list,
    q_inverse_defect,
    q_split_defect,
    q_split_descs,
    r_factor,
    r_unitarity_defect,
    shift_y,
    swap_factor_defect,
    t_factor,
    transport_consistency_defect,
    ybe_defect,
)

rng = make_rng(414243)


def _local(factor):
    """A factor on its own sites, written whole: its gather on the identity
    block."""
    return factor.on_block(Block.identity(factor.space)).linop()


def op_R_k(lam, k, half):
    """The two-site exchange operator written whole."""
    return _local(r_factor(lam, k, (1, 2), Space(2, half)))


def op_P(half):
    """The two-site swap written whole."""
    return _local(p_factor((1, 2), Space(2, half)))


def op_T(x):
    """The site reflection T(x) written whole."""
    return _local(t_factor(x, 1, Space(1, len(x))))


def op_K(lam, x, beta):
    """The site reflection factor K(lam|x, beta) written whole."""
    return _local(k_factor(lam, x, beta, 1, Space(1, len(x))))


def starts(space):
    """The identity block and one random integer column: a defect that
    vanishes on the identity vanishes on every column."""
    return Block.identity(space), Block.of(space, rand_column(rng, range(space.dim)))


def rand_params(space):
    return ModelParams(*rand_tuple(rng, 4, nonzero=True), space)


def test_op_p_swaps():
    half = 2
    p = op_P(half)
    sp2 = Space(2, half)
    for a in range(2 * half):
        for b in range(2 * half):
            out = p.apply({sp2.index((a, b)): 1})
            assert out == {sp2.index((b, a)): 1}
    assert (p @ p) == LinOp.identity(sp2)


def test_op_t_entries():
    """v with label a maps to its bar partner scaled by 1/x_a, and back
    scaled by x_a."""
    x = (rat(2, 3), rat(5, 7))
    t = op_T(x)
    half = 2
    for a in (1, 2):
        # On one site a state's index is its code.
        plain, barred = a - 1, half + a - 1
        assert t.apply({plain: 1}) == {barred: inv(x[a - 1])}
        assert t.apply({barred: 1}) == {plain: x[a - 1]}
    assert t @ t == LinOp.identity(Space(1, half))


def test_op_t_zero_coordinate():
    with pytest.raises(PoleError):
        op_T((rat(0), rat(1)))


def test_op_r_closed_form():
    half = 1
    k, lam = rat(2, 5), rat(1, 3)
    r = op_R_k(lam, k, half)
    sp2 = Space(2, half)
    p = op_P(half)
    want = (LinOp.identity(sp2).scale(lam) + p.scale(k)).scale(inv(lam + k))
    assert r == want


def test_op_r_at_zero_is_swap():
    assert op_R_k(0, rat(3, 4), 2) == op_P(2)


def test_op_r_with_zero_coupling_is_identity():
    assert op_R_k(rat(5, 3), 0, 2) == LinOp.identity(Space(2, 2))


def test_op_r_pole():
    k = rat(1, 2)
    with pytest.raises(PoleError):
        op_R_k(-k, k, 1)


def test_op_k_closed_form():
    x = (rat(3, 2), rat(4, 9))
    lam, beta = rat(1, 6), rat(2, 7)
    got = op_K(lam, x, beta)
    sp1 = Space(1, 2)
    want = (op_T(x).scale(lam) + LinOp.identity(sp1).scale(beta)).scale(inv(lam + beta))
    assert got == want
    assert op_K(0, x, beta) == LinOp.identity(sp1)


def test_op_k_pole():
    beta = rat(1, 3)
    with pytest.raises(PoleError):
        op_K(-beta, (rat(1, 2),), beta)


def test_derivative_of_reflection_scales_with_spectral_weight():
    """K is affine in T, so dK/dx_a = lam/(lam+beta) dT/dx_a exactly."""
    x = (rat(3, 2), rat(4, 9), rat(-5, 3))
    lam, beta = rat(1, 6), rat(2, 7)
    site = Space(1, 3)
    for a in (1, 2, 3):
        got = _local(op_dK_dx(lam, x, beta, a, 1, site))
        want = _local(op_dT_dx(x, a, 1, site)).scale(lam * inv(lam + beta))
        assert got == want


def test_op_dt_dx_closed_form():
    x = (rat(2, 3),)
    d = _local(op_dT_dx(x, 1, 1, Space(1, 1)))
    assert d.apply({0: 1}) == {1: -inv(x[0] * x[0])}
    assert d.apply({1: 1}) == {0: 1}


_HALF = rat(-1, 2)


def test_factor_list_pinned_m1_n2():
    assert q_factor_list(1, 2) == [
        ("Kx", (1,), ((1, 1),), _HALF),
        ("R", (1, 2), ((1, 1), (2, 1)), 0),
        ("K1", (1,), ((1, 1),), 0),
        ("R", (1, 2), ((1, 1), (2, -1)), 0),
    ]


def test_factor_list_pinned_m2_n2():
    assert q_factor_list(2, 2) == [
        ("R", (2, 1), ((2, 1), (1, -1)), -1),
        ("Kx", (2,), ((2, 1),), _HALF),
        ("R", (1, 2), ((1, 1), (2, 1)), 0),
        ("K1", (2,), ((2, 1),), 0),
    ]


def test_factor_list_pinned_m2_n3():
    assert q_factor_list(2, 3) == [
        ("R", (2, 1), ((2, 1), (1, -1)), -1),
        ("Kx", (2,), ((2, 1),), _HALF),
        ("R", (1, 2), ((1, 1), (2, 1)), 0),
        ("R", (2, 3), ((2, 1), (3, 1)), 0),
        ("K1", (2,), ((2, 1),), 0),
        ("R", (2, 3), ((2, 1), (3, -1)), 0),
    ]


def test_factor_list_rejects_bad_site():
    with pytest.raises(ValueError):
        q_factor_list(0, 2)
    with pytest.raises(ValueError):
        q_factor_list(3, 2)


def test_split_descs_partition():
    head, mid, tail = q_split_descs(2, 3)
    assert head == [("R", (2, 1), ((2, 1), (1, -1)), -1)]
    assert mid == ("Kx", (2,), ((2, 1),), _HALF)
    assert [mid] + tail == q_factor_list(2, 3)[1:] or head + [mid] + tail == q_factor_list(2, 3)
    assert head + [mid] + tail == q_factor_list(2, 3)


def test_transport_n1_is_two_reflections():
    space = Space(1, 1)

    def body(r):
        params = ModelParams(*rand_tuple(r, 4, nonzero=True), space)
        x = rand_tuple(r, 1, nonzero=True)
        y = rand_tuple(r, 1)
        mid = op_K(y[0] - params.c * rat(1, 2), x, params.beta)
        right = op_K(y[0], ones(1), params.alpha)
        assert op_Q(1, x, y, params) == mid @ right
        return True

    for _ in range(5):
        sample_point(rng, body)


def test_ybe_samples():
    for half in (1, 2, 3):
        for start in starts(Space(3, half)):
            for _ in range(5):

                def body(r):
                    k = rand_scalar(r, nonzero=True)
                    l1, l2, l3 = rand_tuple(r, 3)
                    return ybe_defect(k, l1, l2, l3, start)

                assert not sample_point(rng, body)


def test_bybe_samples():
    for half in (1, 2, 3):
        for start in starts(Space(2, half)):
            for _ in range(5):

                def body(r):
                    k = rand_scalar(r, nonzero=True)
                    beta = rand_scalar(r, nonzero=True)
                    x = rand_tuple(r, half, nonzero=True)
                    l1, l2 = rand_tuple(r, 2)
                    return bybe_defect(k, beta, x, l1, l2, start)

                assert not sample_point(rng, body)


def test_unitarity_samples():
    for half in (1, 2, 3):
        for pair, site in zip(starts(Space(2, half)), starts(Space(1, half))):
            for _ in range(5):

                def body(r):
                    k = rand_scalar(r, nonzero=True)
                    beta = rand_scalar(r, nonzero=True)
                    lam = rand_scalar(r, nonzero=True)
                    x = rand_tuple(r, half, nonzero=True)
                    return (
                        r_unitarity_defect(k, lam, pair),
                        k_unitarity_defect(lam, x, beta, site),
                        swap_factor_defect(k, lam, pair),
                        flip_factor_defect(lam, x, beta, site),
                    )

                r_inverse, k_inverse, swap, flip = sample_point(rng, body)
                assert not r_inverse and not k_inverse
                assert swap.is_zero() and flip.is_zero()


def test_consistency_and_split_samples():
    for n, half in ((2, 2), (3, 2), (2, 3)):
        space = Space(n, half)
        for _ in range(3):

            def body(r):
                params = ModelParams(*rand_tuple(r, 4, nonzero=True), space)
                x = rand_tuple(r, half, nonzero=True)
                y = rand_tuple(r, n)
                ident = Block.identity(space)
                qs = {m: compose_descs(q_factor_list(m, n), x, y, params, start=ident)
                      for m in range(1, n + 1)}
                for m in range(1, n + 1):
                    assert not q_split_defect(m, n)
                    head, mid, tail = q_split_descs(m, n)
                    grouped = [compose_descs(part, x, y, params) for part in (head, [mid], tail)]
                    assert grouped[0] @ grouped[1] @ grouped[2] == qs[m].linop()
                    assert not q_inverse_defect(m, x, y, params, qs[m], ident)
                    for l in range(1, n + 1):
                        if l != m:
                            assert not transport_consistency_defect(
                                m, l, x, y, params, qs[m], qs[l]
                            )
                return True

            sample_point(rng, body)


def test_chain_defect_of_differing_chains_is_the_dense_difference():
    """The one-product comparison of two factor chains can fail: for two
    products that really differ it gives exactly the dense rational
    difference."""
    for n, half in ((2, 2), (3, 2)):
        space = Space(n, half)

        def body(r):
            params = ModelParams(*rand_tuple(r, 4, nonzero=True), space)
            x = rand_tuple(r, half, nonzero=True)
            y = rand_tuple(r, n)
            m, l = 1, 2
            qm, ql = q_factor_list(m, n), q_factor_list(l, n)
            shifted = shift_y(y, l, params.c)
            ident = Block.identity(space)
            chain_l = factor_ops(ql, x, y, params) + [ident]
            got = (product(factor_ops(qm, x, y, params) + chain_l)
                   - product(factor_ops(qm, x, shifted, params) + chain_l))
            q_l = op_Q(l, x, y, params)
            # compose multiplies the rational entries directly: the oracle.
            dense = op_Q(m, x, y, params).compose(q_l) - op_Q(m, x, shifted, params).compose(q_l)
            assert not got.is_zero()
            assert got.linop() == dense
            assert compose_descs(qm, x, shifted, params, start=q_l.on_block(ident)).linop() == (
                op_Q(m, x, shifted, params).compose(q_l)
            )
            return True

        sample_point(rng, body)


def test_consistency_rejects_equal_sites():
    space = Space(2, 2)
    params = ModelParams(rat(1), rat(1, 2), rat(1, 3), rat(1, 4), space)
    x, y = (rat(2), rat(3)), (rat(0), rat(1))
    q = op_Q(1, x, y, params)
    with pytest.raises(ValueError):
        transport_consistency_defect(1, 1, x, y, params, q, q)


def test_q_inverse_matches_invert():
    space = Space(2, 2)

    def body(r):
        params = ModelParams(*rand_tuple(r, 4, nonzero=True), space)
        x = rand_tuple(r, 2, nonzero=True)
        y = rand_tuple(r, 2)
        q = op_Q(1, x, y, params)
        qi = compose_descs(invert_descs(q_factor_list(1, 2)), x, y, params)
        assert (qi @ q) == LinOp.identity(space)
        head, mid, tail = q_split_descs(1, 2)
        head, mid, tail = (compose_descs(part, x, y, params) for part in (head, [mid], tail))
        assert head @ mid @ tail == q
        return True

    sample_point(rng, body)


def test_shift_y():
    y = (rat(1), rat(2), rat(3))
    assert shift_y(y, 2, rat(1, 2)) == (rat(1), rat(3, 2), rat(3))
    assert shift_y(y, 1, 1) == (0, rat(2), rat(3))


def test_model_params_random_nonzero():
    space = Space(2, 2)
    params = ModelParams(*rand_tuple(rng, 4, nonzero=True), space)
    assert params.c != 0 and params.k != 0
    assert params.alpha != 0 and params.beta != 0
    assert params.space is space
