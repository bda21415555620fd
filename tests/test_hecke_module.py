"""Signed-permutation module: left regular action, right transport action,
orbit isomorphism, and the degenerate product identities."""

import pytest

from bqkz.sampling import make_rng, rand_column, rand_tuple, sample_point
from bqkz.scalar_field import inv, rat
from bqkz.tensor_ops import Block, LinOp, Space
from bqkz.rqkz import ModelParams, compose_descs, invert_descs, q_factor_list
from bqkz.compat_ops import coll_YZ, op_A
from bqkz.hecke_module import (
    SignedPerm,
    all_elements,
    cbar_factor_list,
    cbar_grouped,
    cbar_vs_inverse_transport_defect,
    check_AHA_relations,
    check_L_restriction,
    elem_r,
    elem_s,
    elem_s_tilde,
    op_Cbar,
    orbit_states,
    pair_sum_identities,
    phi,
    restriction_images,
    rhoL,
    rhoR_generator,
)

rng = make_rng(616263)


def rand_params(r, space):
    return ModelParams(*rand_tuple(r, 4, nonzero=True), space)


def test_group_order():
    assert len(list(all_elements(2))) == 8
    assert len(list(all_elements(3))) == 48


def test_generator_relations():
    for n in (2, 3):
        e = SignedPerm.identity(n)
        gens = {i: SignedPerm.generator(n, i) for i in range(1, n + 1)}
        for i, g in gens.items():
            assert g * g == e, i
        for i in range(1, n - 1):
            a, b = gens[i], gens[i + 1]
            assert a * b * a == b * a * b
        a, b = gens[n - 1], gens[n]
        prod = a * b
        assert prod * prod * prod * prod == e
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if abs(i - j) > 1 and (i, j) != (n - 1, n) and (j, i) != (n - 1, n):
                    assert gens[i] * gens[j] == gens[j] * gens[i]


def test_from_word_is_the_product_of_its_generators():
    n = 3
    r = make_rng(7, "words")
    for _ in range(20):
        word = [r.randint(1, n) for _ in range(r.randint(0, 6))]
        w = SignedPerm.from_word(n, word)
        step = SignedPerm.identity(n)
        for g in word:
            step = step * SignedPerm.generator(n, g)
        assert step == w


def test_named_elements():
    n = 3
    r2 = elem_r(2, n)
    assert [r2.apply(a) for a in (1, 2, 3)] == [1, -2, 3]
    s13 = elem_s(1, 3, n)
    assert [s13.apply(a) for a in (1, 2, 3)] == [3, 2, 1]
    st13 = elem_s_tilde(1, 3, n)
    assert [st13.apply(a) for a in (1, 2, 3)] == [-3, 2, -1]
    assert st13 == elem_r(1, n) * elem_r(3, n) * s13


def test_rho_l_homomorphism():
    n = 3
    space = Space(n, n)
    r = make_rng(11, "rhoL")
    for _ in range(10):
        w1 = SignedPerm.from_word(n, [r.randint(1, n) for _ in range(r.randint(0, 5))])
        w2 = SignedPerm.from_word(n, [r.randint(1, n) for _ in range(r.randint(0, 5))])
        assert rhoL(w1 * w2, space) == rhoL(w1, space) @ rhoL(w2, space)


def test_rho_l_needs_square_space():
    with pytest.raises(ValueError):
        rhoL(SignedPerm.identity(2), Space(2, 3))


def test_phi_bijective_onto_orbit():
    for n in (2, 3):
        space = Space(n, n)
        states = set()
        for w in all_elements(n):
            index = phi(w, space)
            # Site j carries the label w(j): code a - 1 for a > 0, n - a - 1 barred.
            assert index == space.index(tuple(a - 1 if a > 0 else n - a - 1 for a in w.images))
            states.add(index)
        assert len(states) == 2 ** n * [1, 1, 2, 6][n]
        assert states == set(orbit_states(space))


def _whole(factor):
    """A placed factor's whole operator: its gather on the identity block."""
    return factor.on_block(Block.identity(factor.space)).linop()


def test_rho_r_generator_images():
    n = 2
    space = Space(n, n)
    x = (rat(2, 3), rat(5, 4))
    s1 = _whole(rhoR_generator(1, x, space))
    assert s1 @ s1 == LinOp.identity(space)
    tn = _whole(rhoR_generator(n, x, space))
    assert tn @ tn == LinOp.identity(space)
    t0 = _whole(rhoR_generator("s0", x, space))
    assert t0 @ t0 == LinOp.identity(space)
    with pytest.raises(ValueError):
        rhoR_generator(5, x, space)


def test_phi_equivariance_exact_scalars():
    """Swap and top generators permute orbit vectors with coefficient one;
    the coordinate reflection scales by x_j or its inverse, j = |w(1)|."""
    for n in (2, 3):
        space = Space(n, n)

        def body(r):
            x = rand_tuple(r, n, nonzero=True)
            word = [r.randint(1, n) for _ in range(r.randint(0, 5))]
            w = SignedPerm.from_word(n, word)
            base = {phi(w, space): 1}
            for i in range(1, n + 1):
                img = _whole(rhoR_generator(i if i < n else n, x, space)).apply(base)
                assert img == {phi(w * SignedPerm.generator(n, i), space): 1}, (word, i)
            j = w.apply(1)
            scale = inv(x[j - 1]) if j > 0 else x[-j - 1]
            img0 = _whole(rhoR_generator("s0", x, space)).apply(base)
            assert img0 == {phi(w * elem_r(1, n), space): scale}, word
            return True

        for _ in range(6):
            sample_point(rng, body)


def test_aha_relations_on_orbit():
    """On the orbit block, the identity's columns at the orbit states, and
    on one random column supported on the orbit states."""
    for n in (2, 3):
        space = Space(n, n)
        column = Block.of(space, rand_column(rng, orbit_states(space)))
        for start in (Block.identity(space).take(orbit_states(space)), column):

            def body(r):
                params = rand_params(r, space)
                y = rand_tuple(r, n)
                for name, defect in check_AHA_relations(y, params, start):
                    # A commutation compares its sides: True when they differ.
                    assert (not defect) if isinstance(defect, bool) else defect.is_zero(), name
                return True

            for _ in range(3):
                sample_point(rng, body)


def test_aha_needs_orbit_restriction():
    """Off the orbit the first lower relation acts as -k on the repeated
    state, so restricting is necessary, not cosmetic."""
    space = Space(2, 2)
    params = ModelParams(rat(1), rat(2, 3), rat(5, 7), rat(3, 4), space)
    y = (rat(1, 2), rat(-2, 5))
    defects = dict(check_AHA_relations(y, params, Block.identity(space)))
    repeated = space.index((0, 0))
    assert defects["lower-1"].linop().apply({repeated: 1}) == {repeated: -params.k}


def eta_L_push(a, word, y, params):
    """Normal ordering of (argument generator a) times (group word).

    Pushes the argument generator rightward through the word using the
    degenerate cross relations; a generator that reaches the right end
    becomes the scalar y_a.  Returns {word: coefficient}.
    """
    n = len(y)
    if not word:
        return {(): y[a - 1]}
    j, rest = word[0], tuple(word[1:])

    def prepend(table, scale=1):
        return {(j,) + u: scale * c for u, c in table.items()}

    def merged(base, extra_word, extra_coeff):
        out = dict(base)
        cur = out.get(extra_word, 0)
        cur = cur + extra_coeff
        if cur == 0:
            out.pop(extra_word, None)
        else:
            out[extra_word] = cur
        return out

    if j < n:
        if a == j:
            out = prepend(eta_L_push(j + 1, rest, y, params))
            return merged(out, rest, params.k)
        if a == j + 1:
            out = prepend(eta_L_push(j, rest, y, params))
            return merged(out, rest, -params.k)
        return prepend(eta_L_push(a, rest, y, params))
    if a == n:
        out = prepend(eta_L_push(n, rest, y, params), scale=-1)
        return merged(out, rest, 2 * params.alpha)
    return prepend(eta_L_push(a, rest, y, params))


def test_eta_push_oracle():
    """Normal ordering table reproduces the action of the polynomial family
    on orbit vectors, word by word."""
    import random as pyrandom

    for n in (2, 3):
        space = Space(n, n)

        def body(r):
            params = rand_params(r, space)
            y = rand_tuple(r, n)
            rr = pyrandom.Random(r.randint(0, 10 ** 9))
            for _ in range(6):
                word = tuple(rr.randint(1, n) for _ in range(rr.randint(0, 5)))
                a = rr.randint(1, n)
                w = SignedPerm.from_word(n, word)
                lhs = op_A(a, y, params).apply({phi(w, space): 1})
                rhs = {}
                for u_word, coeff in eta_L_push(a, word, y, params).items():
                    index = phi(SignedPerm.from_word(n, u_word), space)
                    rhs[index] = rhs.get(index, 0) + coeff
                assert lhs == {i: v for i, v in rhs.items() if v != 0}, (n, word, a)
            return True

        sample_point(rng, body)


def test_l_restriction_on_orbit():
    """Every family vanishes on the orbit: the point-free identities once
    per n, the assembled form of L_a at each point."""
    for n in (2, 3):
        space = Space(n, n)
        images = [restriction_images(a, space) for a in range(1, n + 1)]
        for a in range(1, n + 1):
            names = []
            for name, defect in pair_sum_identities(a, space):
                # A swap pair compares its sides: True when they differ.
                assert (not defect) if isinstance(defect, bool) else defect.is_zero(), (a, name)
                names.append(name)
            others = [b for b in range(1, n + 1) if b != a]
            assert names == ["reflection-sum", "self-pair"] + [
                "%s-%d" % (family, b) for b in others for family in ("swap-pair", "signed-swap-pair")
            ]

        def body(r):
            params = rand_params(r, space)
            x = rand_tuple(r, n, nonzero=True)
            for a in range(1, n + 1):
                assert check_L_restriction(a, x, params, images[a - 1]).is_zero(), a
            return True

        for _ in range(2):
            sample_point(rng, body)


def test_l_restriction_needs_orbit():
    """The signed pair sum doubles the repeated barred state off the orbit."""
    space = Space(2, 2)
    got = coll_YZ(1, 1, space).apply({space.index((0, 0)): 1})
    assert got == {space.index((2, 2)): 2}


def test_cbar_factor_list_pinned_n2():
    assert cbar_factor_list(1, 2) == [
        ("Rb", 1, ((2, 1), (1, -1)), 0),
        ("Kn", None, ((1, 1),), 0),
        ("Rb", 1, ((1, -1), (2, -1)), 0),
        ("K0", None, ((1, -1),), 0),
    ]
    assert cbar_factor_list(2, 2) == [
        ("Kn", None, ((2, 1),), 0),
        ("Rb", 1, ((1, -1), (2, -1)), 0),
        ("K0", None, ((2, -1),), 0),
        ("Rb", 1, ((1, 1), (2, -1)), 1),
    ]
    with pytest.raises(ValueError):
        cbar_factor_list(3, 2)


def test_cbar_grouped_matches_product():
    for n in (2, 3):
        space = Space(n, n)

        def body(r):
            params = rand_params(r, space)
            x = rand_tuple(r, n, nonzero=True)
            y = rand_tuple(r, n)
            ident = Block.identity(space)
            for m in range(1, n + 1):
                assert (
                    op_Cbar(m, x, y, params, ident) - cbar_grouped(m, x, y, params, ident)
                ).is_zero(), m
            return True

        for _ in range(2):
            sample_point(rng, body)


def test_cbar_equals_inverse_transport_on_orbit():
    for n in (2, 3):
        space = Space(n, n)
        orbit = orbit_states(space)
        ident = Block.identity(space)

        def body(r):
            params = rand_params(r, space)
            x = rand_tuple(r, n, nonzero=True)
            y = rand_tuple(r, n)
            for m in range(1, n + 1):
                cbar = op_Cbar(m, x, y, params, ident)
                assert not cbar_vs_inverse_transport_defect(
                    m, x, y, params, cbar, ident, orbit
                ), m
            return True

        for _ in range(2):
            sample_point(rng, body)


def test_cbar_n1_closed_form_everywhere():
    """With one site the degenerate product inverts the transport operator
    on the whole space, not only on the orbit."""
    space = Space(1, 1)

    def body(r):
        params = rand_params(r, space)
        x = rand_tuple(r, 1, nonzero=True)
        y = rand_tuple(r, 1)
        lhs = op_Cbar(1, x, y, params, Block.identity(space))
        inverse = compose_descs(invert_descs(q_factor_list(1, 1)), x, y, params)
        assert (lhs.linop() - inverse).is_zero()
        return True

    for _ in range(4):
        sample_point(rng, body)
