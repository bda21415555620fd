"""Sparse tensor-space linear algebra against dense oracles."""

import random

import pytest

from bqkz.scalar_field import close, rat
from bqkz.tensor_ops import (
    BasisLabel,
    LinOp,
    PoleSingular,
    Space,
    Vec,
    bar_code,
    commutator,
    embed_pair,
    embed_site,
    invert,
    label_of_code,
    matrix_unit,
    permute_sites,
    product,
    site_tensor,
    vec_tensor,
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
    for idx, s in enumerate(states):
        assert sp.index_of(s) == idx


def test_label_code_roundtrip():
    half = 3
    seen = set()
    for code in range(2 * half):
        lab = label_of_code(code, half)
        assert isinstance(lab, BasisLabel)
        seen.add((lab.index, lab.barred))
        assert bar_code(bar_code(code, half), half) == code
    assert seen == {(a, b) for a in range(1, half + 1) for b in (False, True)}


def test_vec_algebra():
    sp = Space(2, 2)
    a = Vec.basis(sp, (0, 1))
    b = Vec.basis(sp, (1, 0))
    s = a + b.scale(rat(3, 2))
    assert s.entries[(0, 1)] == 1
    assert s.entries[(1, 0)] == rat(3, 2)
    assert (s - s).is_zero()
    assert s.norm_max() == 1.5


def test_vec_tensor_and_permute():
    a = Vec.basis(Space(1, 2), (0,)) + Vec.basis(Space(1, 2), (3,)).scale(2)
    b = Vec.basis(Space(1, 2), (1,))
    t = vec_tensor(a, b)
    assert t.entries == {(0, 1): 1, (3, 1): 2}
    swapped = permute_sites(t, 1, 2)
    assert swapped.entries == {(1, 0): 1, (1, 3): 2}


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
    a = matrix_unit(1, label_of_code(0, 1), label_of_code(1, 1))
    b = a.scale(rat(1, 3)) - a.scale(rat(1, 3))
    assert b.is_zero()
    assert b.nnz() == 0


def test_matrix_unit_entries():
    half = 2
    row, col = label_of_code(1, half), label_of_code(3, half)
    u = matrix_unit(half, row, col)
    assert u.entry((1,), (3,)) == 1
    assert u.nnz() == 1


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
    sp = Space(1, 2)
    op = matrix_unit(2, label_of_code(0, 2), label_of_code(0, 2))
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
            assert close(prod[i][j], 1.0 if i == j else 0.0, rtol=1e-9, atol=1e-9)
