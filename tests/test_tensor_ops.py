"""Sparse tensor-space linear algebra against dense oracles."""

import cmath
import math
import random

import pytest

from bqkz.scalar_field import rat
from bqkz.tensor_ops import (
    LinOp,
    PoleSingular,
    Space,
    Vec,
    commutator,
    embed_pair,
    embed_site,
    invert,
    lincomb,
    product,
    site_tensor,
)

rng = random.Random(20260818)


def rand_rat(r):
    return rat(r.randint(-9, 9), r.randint(1, 5))


def rand_op(space, r, fill=0.3):
    cols = {}
    for col in space.states():
        for row in space.states():
            if r.random() < fill:
                v = rand_rat(r)
                if v != 0:
                    cols.setdefault(col, {})[row] = v
    return LinOp(space, cols)


def dense_mul(a, b):
    size = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(size)) for j in range(size)]
        for i in range(size)
    ]


def test_space_dimensions():
    sp = Space(3, 2)
    assert sp.site_dim == 4
    assert sp.dim == 64
    states = list(sp.states())
    assert len(states) == 64
    assert len(set(states)) == 64
    assert states == sorted(states)


def test_vec_algebra():
    sp = Space(2, 2)
    a = Vec.basis(sp, (0, 1))
    b = Vec.basis(sp, (1, 0))
    s = a + b.scale(rat(3, 2))
    assert s.entries[(0, 1)] == 1
    assert s.entries[(1, 0)] == rat(3, 2)
    assert (s - s).is_zero()
    assert s.norm_max() == 1.5


def test_compose_matches_dense_oracle():
    sp = Space(2, 1)
    for trial in range(8):
        a = rand_op(sp, rng)
        b = rand_op(sp, rng)
        got = (a @ b).to_dense()
        want = dense_mul(a.to_dense(), b.to_dense())
        assert got == want, trial


def dense_product(ops):
    out = ops[-1].to_dense()
    for op in reversed(ops[:-1]):
        out = dense_mul(op.to_dense(), out)
    return out


def rand_int_op(space, r, fill=0.3):
    return LinOp.from_dense(space, [
        [v.numerator for v in row] for row in rand_op(space, r, fill).to_dense()
    ])


def test_product_matches_dense_oracle():
    """product is exact: one, two and four operands, rational, integer-only
    and mixed, with and without a zero operator."""
    sp = Space(2, 1)
    for trial in range(6):
        rats = [rand_op(sp, rng) for _ in range(4)]
        ints = [rand_int_op(sp, rng, fill=0.6) for _ in range(4)]
        mixed = [rats[0], ints[1], rats[2], ints[3]]
        with_zero = [rats[0], LinOp.zero(sp), rats[2], rats[3]]
        for ops in (rats[:1], rats[:2], rats, ints[:1], ints[:2], ints, mixed, with_zero):
            got = product(ops)
            assert got.to_dense() == dense_product(ops), trial
            assert got == LinOp.from_dense(sp, dense_product(ops))
        assert product(with_zero).is_zero()
        assert all(isinstance(v, int) for col in product(ints).cols.values() for v in col.values())


def test_product_of_floats_is_the_compose_fold():
    sp = Space(2, 1)
    ops = [
        LinOp(sp, {c: {r: complex(v) + 0.5j * float(v) for r, v in col.items()}
                   for c, col in rand_op(sp, rng, fill=0.5).cols.items()})
        for _ in range(3)
    ]
    ops.append(rand_op(sp, rng, fill=0.5))
    fold = ops[-1]
    for op in reversed(ops[:-1]):
        fold = op.compose(fold)
    assert product(ops) == fold
    assert product(ops[:2]) == ops[0] @ ops[1] == ops[0].compose(ops[1])


def test_apply_matches_dense():
    sp = Space(2, 1)
    op = rand_op(sp, rng)
    states = list(sp.states())
    vec = Vec(sp, {s: rand_rat(rng) for s in states if rng.random() < 0.5})
    out = op.apply(vec)
    dense = op.to_dense()
    col = [vec.entries.get(s, 0) for s in states]
    want = [sum(dense[i][j] * col[j] for j in range(len(states))) for i in range(len(states))]
    for i, s in enumerate(states):
        assert out.entries.get(s, 0) == want[i]


def test_from_dense_roundtrip():
    sp = Space(1, 2)
    op = rand_op(sp, rng)
    assert LinOp.from_dense(sp, op.to_dense()) == op


def test_algebra_ops():
    sp = Space(1, 2)
    a = rand_op(sp, rng)
    b = rand_op(sp, rng)
    ident = LinOp.identity(sp)
    assert a + b == b + a
    assert (a - a).is_zero()
    assert (-a) + a == LinOp.zero(sp)
    assert a @ ident == a
    assert ident @ a == a
    assert commutator(a, a).is_zero()
    assert a.scale(0).is_zero()


def test_no_stored_zeros():
    sp = Space(1, 1)
    a = LinOp(sp, {(1,): {(0,): 1}})
    b = a.scale(rat(1, 3)) - a.scale(rat(1, 3))
    assert b.is_zero()
    assert b.nnz() == 0


def test_embed_pair_equals_embedded_product():
    sp = Space(3, 1)
    a = rand_op(Space(1, 1), rng)
    b = rand_op(Space(1, 1), rng)
    two = site_tensor(a, b)
    for i, j in ((1, 2), (1, 3), (2, 3), (3, 1)):
        lhs = embed_pair(two, i, j, sp)
        rhs = embed_site(a, i, sp) @ embed_site(b, j, sp)
        assert lhs == rhs, (i, j)


def test_embed_site_wrong_half_dim():
    op = LinOp.identity(Space(1, 1))
    with pytest.raises(ValueError):
        embed_site(op, 1, Space(2, 2))


# ------------------------------------------------- numerators over one den


def assert_canonical(op):
    """Exact form: int numerators, no stored zero, positive int den sharing
    no factor with them, den 1 for the zero operator."""
    assert op.exact
    assert type(op.den) is int and op.den > 0
    values = [v for col in op.cols.values() for v in col.values()]
    assert all(op.cols.values())
    assert all(type(v) is int and v != 0 for v in values)
    assert math.gcd(op.den, *values) == 1
    if not values:
        assert op.den == 1


def dense_add(a, b, fb=1):
    return [[x + fb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_embed(site, positions, space):
    """Dense embedding of an operator on the sites at `positions`."""
    states = list(space.states())
    d = space.site_dim

    def local(state):
        idx = 0
        for p in positions:
            idx = idx * d + state[p]
        return idx

    return [
        [
            site[local(r)][local(c)]
            if all(r[p] == c[p] for p in range(space.n) if p not in positions) else 0
            for c in states
        ]
        for r in states
    ]


def test_exact_arithmetic_matches_the_fraction_oracle_in_canonical_form():
    site, pair, three = Space(1, 1), Space(2, 1), Space(3, 1)
    r = random.Random(11)
    for trial in range(10):
        a, b = rand_op(pair, r, fill=0.5), rand_op(pair, r, fill=0.5)
        s1, s2 = rand_op(site, r, fill=0.7), rand_op(site, r, fill=0.7)
        q = rand_rat(r) or rat(2, 3)
        da, db, d1, d2 = a.to_dense(), b.to_dense(), s1.to_dense(), s2.to_dense()
        cases = [
            (a + b, dense_add(da, db)),
            (a - b, dense_add(da, db, -1)),
            (-a, [[-v for v in row] for row in da]),
            (a.scale(q), [[q * v for v in row] for row in da]),
            (a.scale(7), [[7 * v for v in row] for row in da]),
            (product([a, b, a]), dense_mul(da, dense_mul(db, da))),
            (site_tensor(s1, s2), [[d1[i // 2][j // 2] * d2[i % 2][j % 2] for j in range(4)]
                                   for i in range(4)]),
            (embed_site(s1, 2, three), dense_embed(s1.to_dense(), (1,), three)),
            (embed_pair(a, 3, 1, three), dense_embed(da, (2, 0), three)),
        ]
        for got, want in cases:
            assert_canonical(got)
            assert got.to_dense() == want, trial
            assert got == LinOp.from_dense(got.space, want)
        states = list(pair.states())
        for col in states:
            for row in states:
                assert a.entry(row, col) == da[states.index(row)][states.index(col)]


def test_sum_cancelling_across_denominators_is_the_canonical_zero():
    sp = Space(1, 1)
    third = LinOp(sp, {(0,): {(1,): rat(1, 3)}, (1,): {(1,): rat(1, 6)}})
    half = LinOp(sp, {(0,): {(1,): rat(1, 2)}})
    sixth = LinOp(sp, {(0,): {(1,): rat(-5, 6)}, (1,): {(1,): rat(-1, 6)}})
    total = third + half + sixth
    assert total.is_zero() and total.nnz() == 0
    assert_canonical(total)
    assert total == LinOp.zero(sp)
    partial = third + sixth
    assert_canonical(partial)
    assert partial.den == 2 and partial.cols == {sp.index((0,)): {sp.index((1,)): -1}}
    assert partial.entry((1,), (0,)) == rat(-1, 2)


def test_mixed_float_and_exact_give_the_fraction_values():
    sp = Space(2, 1)
    r = random.Random(12)
    exact = rand_op(sp, r, fill=0.6)
    floats = LinOp.from_dense(sp, [[complex(v) * (1 + 0.25j) for v in row]
                                   for row in rand_op(sp, r, fill=0.6).to_dense()])
    assert not floats.exact and floats.den == 1
    de, df = exact.to_dense(), floats.to_dense()
    assert (floats + exact).to_dense() == dense_add(df, de)
    assert (exact + floats).to_dense() == dense_add(de, df)
    got = product([floats, exact, floats]).to_dense()
    want = dense_mul(df, dense_mul(de, df))
    assert all(cmath.isclose(g, w, abs_tol=1e-12)
               for gr, wr in zip(got, want) for g, w in zip(gr, wr))
    states = list(sp.states())
    vec = Vec(sp, {s: rand_rat(r) for s in states if r.random() < 0.7})
    col = [vec.entries.get(s, 0) for s in states]
    for op, dense in ((exact, de), (floats, df)):
        out = op.apply(vec)
        for i, s in enumerate(states):
            want = sum(dense[i][j] * col[j] for j in range(len(states)))
            got = out.entries.get(s, 0)
            assert got == want if op.exact else cmath.isclose(got, want, abs_tol=1e-12)


# ------------------------------------------------------ linear combination


def dense_lincomb(space, terms):
    """Fraction oracle: sum of coef * (dense op) over the terms."""
    dim = space.dim
    out = [[0] * dim for _ in range(dim)]
    for a, op in terms:
        for i, row in enumerate(op.to_dense()):
            for j, v in enumerate(row):
                out[i][j] += a * v
    return out


def snapshot(ops):
    """Deep copies of every operator's columns and denominator."""
    return [({c: dict(col) for c, col in op.cols.items()}, op.den) for op in ops]


def test_lincomb_matches_the_fraction_oracle_in_canonical_form():
    sp = Space(2, 1)
    r = random.Random(13)
    for trial in range(12):
        ops = [rand_op(sp, r, fill=0.4).scale(rat(1, r.randint(1, 6))) for _ in range(4)]
        coefs = [rand_rat(r) for _ in ops]
        coefs[trial % 4] = 0
        terms = list(zip(coefs, ops))
        before = snapshot(ops)
        got = lincomb(sp, iter(terms))
        assert_canonical(got)
        assert got.to_dense() == dense_lincomb(sp, terms), trial
        assert snapshot(ops) == before


def test_lincomb_meets_over_one_lcm_and_reduces():
    sp = Space(1, 1)
    sixth = LinOp(sp, {(0,): {(1,): rat(1, 6)}, (1,): {(0,): rat(1, 4)}})
    third = LinOp(sp, {(0,): {(1,): rat(1, 3)}})
    got = lincomb(sp, [(1, sixth), (rat(1, 2), third), (rat(2, 3), sixth)])
    assert_canonical(got)
    # 1/6 + 1/6 + 1/9 = 4/9 and 1/4 + 1/6 = 5/12, over the lcm 36.
    assert got.den == 36
    assert got.to_dense() == [[0, rat(5, 12)], [rat(4, 9), 0]]
    # (3/2)(1/6) - (1/2)(1/2) empties column 0; 3/8 is left over the lcm 24.
    half = LinOp(sp, {(0,): {(1,): rat(1, 2)}})
    got = lincomb(sp, [(rat(3, 2), sixth), (rat(-1, 2), half)])
    assert_canonical(got)
    assert got.den == 8 and got.cols == {1: {0: 3}}


def test_lincomb_cancels_to_the_canonical_zero():
    sp = Space(1, 1)
    a = LinOp(sp, {(0,): {(1,): rat(1, 3)}, (1,): {(0,): rat(1, 6), (1,): rat(2, 5)}})
    b = LinOp(sp, {(1,): {(0,): rat(1, 2)}})
    before = snapshot([a, b])
    # Column 1 of a + (-1/3) b keeps (1, 1) only; of a - a every column empties.
    partial = lincomb(sp, [(1, a), (rat(-1, 3), b)])
    assert_canonical(partial)
    assert partial.to_dense() == [[0, 0], [rat(1, 3), rat(2, 5)]]
    for terms in ([(1, a), (-1, a)], [(rat(1, 2), a), (1, b), (rat(-1, 2), a), (-1, b)],
                  [(0, a), (0, b)], []):
        total = lincomb(sp, terms)
        assert_canonical(total)
        assert total.is_zero() and total == LinOp.zero(sp)
    assert snapshot([a, b]) == before


def test_lincomb_of_float_terms_sums_in_term_order():
    sp = Space(2, 1)
    r = random.Random(14)
    exact = rand_op(sp, r, fill=0.6)
    floats = [LinOp.from_dense(sp, [[complex(v) * w for v in row]
                                    for row in rand_op(sp, r, fill=0.6).to_dense()])
              for w in (1 + 0.25j, 0.3 - 1.1j)]
    before = snapshot([exact] + floats)
    got = lincomb(sp, [(1, floats[0]), (1, floats[1])])
    assert not got.exact and got == floats[0].add(floats[1])
    assert got.to_dense() == dense_add(floats[0].to_dense(), floats[1].to_dense())
    terms = [(0.5 + 1j, floats[0]), (rat(2, 3), exact), (-1, floats[1]), (2.5, exact)]
    got = lincomb(sp, terms)
    assert not got.exact and got.den == 1
    want = dense_lincomb(sp, terms)
    assert all(cmath.isclose(g, w, abs_tol=1e-12)
               for gr, wr in zip(got.to_dense(), want) for g, w in zip(gr, wr))
    assert lincomb(sp, [(0.5, floats[0]), (-0.5, floats[0])]).is_zero()
    assert snapshot([exact] + floats) == before


def test_lincomb_leaves_shared_units_unchanged():
    from bqkz.compat_ops import op_E, site_unit

    unit = site_unit(2, 0, 1)
    pair = op_E(2, 1, 2)
    before = snapshot([unit, pair])
    sp = unit.space
    for terms in ([(1, unit), (1, pair)], [(rat(3, 7), unit), (2, pair), (-1, unit)],
                  [(1, unit)], [(1j, unit), (1, pair)]):
        lincomb(sp, terms)
    assert unit + pair - pair == unit
    assert snapshot([unit, pair]) == before
    assert site_unit(2, 0, 1) is unit and unit.to_dense()[0][1] == 1


def test_lincomb_space_mismatch():
    a = LinOp.identity(Space(1, 1))
    b = LinOp.identity(Space(2, 1))
    for terms in ([(1, a), (1, b)], [(0, b)]):
        with pytest.raises(ValueError):
            lincomb(Space(1, 1), terms)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b


def test_invert_rational():
    sp = Space(1, 2)
    for trial in range(6):
        op = LinOp.identity(sp) + rand_op(sp, rng, fill=0.2).scale(rat(1, 7))
        try:
            iop = invert(op)
        except PoleSingular:
            continue
        assert iop @ op == LinOp.identity(sp)
        assert op @ iop == LinOp.identity(sp)


def test_invert_singular():
    op = LinOp(Space(1, 2), {(0,): {(0,): 1}})
    with pytest.raises(PoleSingular):
        invert(op)


def test_invert_complex():
    sp = Space(1, 2)
    r = random.Random(5)
    cols = {}
    for col in sp.states():
        for row in sp.states():
            cols.setdefault(col, {})[row] = complex(r.uniform(-1, 1), r.uniform(-1, 1))
    op = LinOp(sp, cols)
    iop = invert(op)
    prod = (iop @ op).to_dense()
    for i in range(sp.dim):
        for j in range(sp.dim):
            assert cmath.isclose(prod[i][j], 1.0 if i == j else 0.0, rel_tol=1e-9, abs_tol=1e-9)
